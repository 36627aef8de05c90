//! Ablation (paper §V-A.4, §VI): sweep the prefault syscall cost and print
//! the Implicit Zero-Copy / Eager Maps time ratio for QMCPack-style frequent
//! small maps and spC-style bulk re-touch. Above 1, Eager Maps wins.

use analysis::{measure, ratio, ExperimentConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omp_offload::RuntimeConfig;
use sim_des::VirtDuration;
use workloads::spec::SpC;
use workloads::{NioSize, QmcPack, Workload};

fn print_artifact() {
    println!("Ablation: Eager Maps vs Implicit Z-C while sweeping prefault syscall cost");
    println!(
        "{:>14} | {:>16} | {:>16}",
        "syscall (us)", "QMCPack S2 IZC/EM", "457.spC IZC/EM"
    );
    for syscall_us in [0u64, 1, 3, 10, 30] {
        let mut exp = ExperimentConfig::noiseless();
        exp.cost.prefault_syscall = VirtDuration::from_micros(syscall_us);
        let qmc = QmcPack::nio(NioSize { factor: 2 }).with_steps(60);
        let spc = SpC::scaled(0.05);
        let izc_over_em = |w: &dyn Workload, exp: &ExperimentConfig| {
            let izc = measure(w, RuntimeConfig::ImplicitZeroCopy, 1, exp).unwrap();
            let em = measure(w, RuntimeConfig::EagerMaps, 1, exp).unwrap();
            // IZC time / EM time: > 1 means Eager Maps wins.
            ratio(&izc, &em)
        };
        println!(
            "{:>14} | {:>17.3} | {:>16.3}",
            syscall_us,
            izc_over_em(&qmc, &exp),
            izc_over_em(&spc, &exp),
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_artifact();
    let mut g = c.benchmark_group("ablation_eager_maps");
    g.sample_size(10);
    for syscall_us in [1u64, 10] {
        g.bench_with_input(
            BenchmarkId::new("qmc_em", syscall_us),
            &syscall_us,
            |b, &us| {
                let mut exp = ExperimentConfig::noiseless();
                exp.cost.prefault_syscall = VirtDuration::from_micros(us);
                let w = QmcPack::nio(NioSize { factor: 2 }).with_steps(40);
                b.iter(|| {
                    measure(&w, RuntimeConfig::EagerMaps, 1, &exp)
                        .unwrap()
                        .median()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

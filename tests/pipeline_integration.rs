//! End-to-end pipeline tests across all crates: workload -> runtime ->
//! HSA layer -> scheduler -> analysis, plus consistency invariants between
//! layers (recorded call counts vs schedule aggregation, ledger vs memory
//! statistics).

use mi300a_zerocopy::analysis::{measure, measure_all_configs, ExperimentConfig};
use mi300a_zerocopy::hsa::{HsaApiKind, Topology};
use mi300a_zerocopy::mem::CostModel;
use mi300a_zerocopy::omp::{OmpRuntime, RuntimeConfig};
use mi300a_zerocopy::sim::{NoiseModel, RunOptions, VirtDuration};
use mi300a_zerocopy::workloads::spec::{Ep, Lbm, SpC, Stencil};
use mi300a_zerocopy::workloads::{NioSize, QmcPack, Workload};

#[test]
fn api_stats_copy_counts_match_ledger() {
    // Every ledger copy corresponds to exactly one memory_async_copy call
    // (plus the 3 device-init copies).
    let exp = ExperimentConfig::noiseless();
    let w = QmcPack::nio(NioSize { factor: 2 }).with_steps(25);
    let m = measure(&w, RuntimeConfig::LegacyCopy, 2, &exp).unwrap();
    let api_copies = m.report.api_stats.get(HsaApiKind::MemoryAsyncCopy).calls;
    assert_eq!(api_copies, m.report.ledger.copies + 3);
}

#[test]
fn bytes_copied_agree_between_layers() {
    let exp = ExperimentConfig::noiseless();
    let w = Lbm::scaled(0.03);
    let m = measure(&w, RuntimeConfig::LegacyCopy, 1, &exp).unwrap();
    // Memory subsystem counted the same bytes as the runtime ledger, plus
    // the fixed 3 x 64 KiB device-init transfers.
    assert_eq!(
        m.report.mem_stats.bytes_copied,
        m.report.ledger.bytes_copied + 3 * 64 * 1024
    );
}

#[test]
fn fault_accounting_agrees_between_layers() {
    let exp = ExperimentConfig::noiseless();
    let w = Stencil::scaled(0.03);
    let m = measure(&w, RuntimeConfig::ImplicitZeroCopy, 1, &exp).unwrap();
    assert_eq!(
        m.report.mem_stats.xnack_replayed_pages,
        m.report.ledger.replayed_pages
    );
    assert_eq!(
        m.report.mem_stats.xnack_zero_fill_pages,
        m.report.ledger.zero_filled_pages
    );
}

#[test]
fn eager_maps_runs_entirely_without_xnack() {
    // Eager Maps must complete with XNACK disabled: every GPU access goes
    // through prefaulted translations.
    let exp = ExperimentConfig::noiseless();
    for w in [
        Box::new(Stencil::scaled(0.03)) as Box<dyn Workload>,
        Box::new(Ep::scaled(0.05)),
        Box::new(SpC::scaled(0.05)),
    ] {
        let m = measure(w.as_ref(), RuntimeConfig::EagerMaps, 1, &exp).unwrap();
        assert_eq!(m.report.mem_stats.xnack_pages(), 0, "{}", w.name());
        assert!(m.report.mem_stats.prefault_calls > 0);
    }
}

#[test]
fn makespan_dominates_every_component() {
    let exp = ExperimentConfig::noiseless();
    let w = QmcPack::nio(NioSize { factor: 4 }).with_steps(40);
    for config in RuntimeConfig::ALL {
        let m = measure(&w, config, 2, &exp).unwrap();
        let makespan = m.report.makespan;
        // No resource can be busy longer than capacity * makespan.
        for rs in m.report.schedule.resource_stats() {
            let budget = makespan * rs.capacity as u64;
            assert!(
                rs.busy <= budget,
                "{config}: resource {} busy {} exceeds budget {budget}",
                rs.name,
                rs.busy
            );
        }
        // Kernel compute happens on the GPU, so it bounds below GPU busy.
        let gpu = m
            .report
            .schedule
            .resource_stats()
            .iter()
            .find(|r| r.name == "gpu")
            .unwrap();
        assert!(gpu.busy >= m.report.ledger.kernel_compute);
    }
}

#[test]
fn noise_produces_paper_like_cov() {
    let exp = ExperimentConfig {
        repeats: 8,
        noise: NoiseModel::os_interference(),
        ..ExperimentConfig::default()
    };
    let w = Ep::scaled(0.03);
    let m = measure(&w, RuntimeConfig::LegacyCopy, 1, &exp).unwrap();
    // The paper reports CoV <= 0.03 for SPECaccel runs.
    assert!(m.cov() > 0.0);
    assert!(m.cov() <= 0.05, "cov {}", m.cov());
}

#[test]
fn thread_scaling_helps_zero_copy_more_than_copy() {
    // The Fig. 3 mechanism end to end: raising the thread count increases
    // the Copy/zero-copy gap (runtime-stack serialization).
    let exp = ExperimentConfig::noiseless();
    let w = QmcPack::nio(NioSize { factor: 2 }).with_steps(60);
    let ratio_at = |threads: usize| {
        let ms = measure_all_configs(&w, threads, &exp).unwrap();
        let copy = ms[0].median().as_nanos() as f64;
        let izc = ms
            .iter()
            .find(|m| m.config == RuntimeConfig::ImplicitZeroCopy)
            .unwrap()
            .median()
            .as_nanos() as f64;
        copy / izc
    };
    assert!(ratio_at(8) > ratio_at(1));
}

#[test]
fn runtime_rejects_threads_overflow_gracefully() {
    // Threads beyond the recorded set still schedule (lazy stream growth).
    let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(RuntimeConfig::ImplicitZeroCopy)
        .threads(3)
        .build()
        .unwrap();
    rt.host_compute(2, VirtDuration::from_micros(10));
    let report = rt.finish();
    assert!(report.makespan >= VirtDuration::from_micros(10));
}

#[test]
fn replicated_finish_matches_single_finish() {
    let build = || {
        let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
            .config(RuntimeConfig::LegacyCopy)
            .build()
            .unwrap();
        Ep::scaled(0.02).run(&mut rt).unwrap();
        rt
    };
    let single = build().finish();
    let (first, makespans) = build().finish_replicated(&RunOptions::noiseless(), &[0, 1, 2]);
    assert_eq!(single.makespan, first.makespan);
    // Noiseless: every replica identical.
    assert!(makespans.iter().all(|&m| m == single.makespan));

    // Noisy: each replica is the run its seed alone schedules, in seed
    // order, and the report is the first seed's run.
    let noisy = RunOptions::with_noise(NoiseModel::os_interference(), 0);
    let seeds = [7, 8, 9];
    let alone: Vec<VirtDuration> = seeds
        .iter()
        .map(|&s| build().finish_replicated(&noisy, &[s]).1[0])
        .collect();
    let (first, makespans) = build().finish_replicated(&noisy, &seeds);
    assert_eq!(makespans, alone);
    assert_eq!(first.makespan, alone[0]);
    assert!(
        alone.iter().any(|&m| m != alone[0]),
        "noise moved no makespan: {alone:?}"
    );
}

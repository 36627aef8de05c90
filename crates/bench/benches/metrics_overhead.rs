//! Ablation: cost of the metrics layer on the simulator itself.
//!
//! The contention instruments sit on the hottest paths of the stack —
//! every mapping-table lock acquisition — so the Off mode must be a
//! measured no-op: one relaxed atomic-bool branch per site, no allocation,
//! no fences. This bench runs the streaming workload with metrics off and
//! on, reports best-of-N wall-clock of the *simulator* (the virtual
//! makespan is identical in both by construction), and records how many
//! table lock acquisitions each mode's contention report counted: none
//! when Off, every one when On. Writes `BENCH_metrics.json` for CI to
//! archive.

use apu_mem::CostModel;
use hsa_rocr::Topology;
use omp_offload::{MetricsMode, OmpRuntime, RuntimeConfig, TelemetryMode};
use std::hint::black_box;
use std::time::Instant;
use workloads::{Stream, Workload};

fn runtime(mode: MetricsMode) -> OmpRuntime {
    OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(RuntimeConfig::LegacyCopy)
        .telemetry(TelemetryMode::ring())
        .metrics(mode)
        .build()
        .unwrap()
}

/// One Copy-config streaming run with no post-processing: exactly the work
/// whose cost the Off/On ratio measures.
fn run(w: &dyn Workload, mode: MetricsMode) {
    let mut rt = runtime(mode);
    w.run(&mut rt).unwrap();
    black_box(rt.finish());
}

/// Non-timed run: the table lock acquisitions the contention report
/// counted under `mode`.
fn table_acquisitions(w: &dyn Workload, mode: MetricsMode) -> u64 {
    let mut rt = runtime(mode);
    w.run(&mut rt).unwrap();
    rt.contention().total_acquisitions()
}

fn best_of(w: &dyn Workload, mode: MetricsMode, repeats: usize) -> f64 {
    (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            run(w, mode);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    // `cargo bench` forwards harness flags like --bench; a plain main only
    // needs to tolerate them.
    let w = Stream::scaled(8.0);
    let off = best_of(&w, MetricsMode::Off, 7);
    let on = best_of(&w, MetricsMode::On, 7);
    let off_acq = table_acquisitions(&w, MetricsMode::Off);
    let on_acq = table_acquisitions(&w, MetricsMode::On);
    let ratio = on / off.max(1e-9);

    let json = format!(
        "{{\n  \"workload\": \"stream\",\n  \
         \"off\": {{\"seconds\": {off:.6}, \"table_acquisitions\": {off_acq}}},\n  \
         \"on\": {{\"seconds\": {on:.6}, \"table_acquisitions\": {on_acq}}},\n  \
         \"ratio_on_vs_off\": {ratio:.3}\n}}\n"
    );
    std::fs::write("BENCH_metrics.json", &json).expect("write BENCH_metrics.json");
    println!(
        "metrics_overhead: off {off:.4}s ({off_acq} acquisitions counted) | \
         on {on:.4}s ({on_acq} counted, {ratio:.2}x)"
    );
    println!("wrote BENCH_metrics.json");
}

//! Ablation: the simulator-side cost of MC007-driven online map elision.
//!
//! Times the simulator itself — not the simulated program — running QMCPack
//! S2 under Copy data handling with elision off and online, best of three
//! each: the elision rewrite plus the mapping lookup cache must be in the
//! noise. The MM time elision recovers is `repro --table3 --elide`; semantic
//! equivalence (bit-identical memory, clean sanitizer) is pinned by
//! `crates/check/tests/elision_prop.rs`.

use apu_mem::CostModel;
use hsa_rocr::Topology;
use omp_offload::{ElideMode, OmpRuntime, RuntimeConfig};
use std::hint::black_box;
use std::time::Instant;
use workloads::{NioSize, QmcPack, Workload};

/// One sanitizer-free Copy run to completion.
fn run(w: &dyn Workload, elide: ElideMode) {
    let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(RuntimeConfig::LegacyCopy)
        .elide(elide)
        .build()
        .unwrap();
    w.run(&mut rt).unwrap();
    black_box(rt.finish());
}

fn main() {
    // `cargo bench` forwards harness flags like --bench; a plain main only
    // needs to tolerate them.
    let w = QmcPack::nio(NioSize { factor: 2 }).with_steps(60);
    let time = |elide: &ElideMode| {
        let t0 = Instant::now();
        run(&w, elide.clone());
        t0.elapsed()
    };
    let off = (0..3).map(|_| time(&ElideMode::Off)).min().unwrap();
    let on = (0..3).map(|_| time(&ElideMode::Online)).min().unwrap();
    let overhead = on.as_secs_f64() / off.as_secs_f64().max(1e-9);
    println!(
        "ablation_elision summary: simulator {off:?} unelided vs {on:?} online -> {overhead:.2}x"
    );
}

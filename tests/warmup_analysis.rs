//! End-to-end reproduction of the paper's §V-A.4 launch-indexed analysis:
//! "the advantage of Eager Maps over Implicit Zero-Copy is due to increased
//! TLB hits when host allocated memory is first touched by the GPU ...
//! for the first hundred kernel launches the difference is in the order of
//! tens of milliseconds. After the initial phase, the difference lowers."

use mi300a_zerocopy::analysis::warmup::WarmupComparison;
use mi300a_zerocopy::hsa::Topology;
use mi300a_zerocopy::mem::CostModel;
use mi300a_zerocopy::omp::{KernelTraceEntry, OmpRuntime, RuntimeConfig, TelemetryMode};
use mi300a_zerocopy::sim::VirtDuration;
use mi300a_zerocopy::workloads::{NioSize, QmcPack, Workload};

fn traced_run(config: RuntimeConfig) -> Vec<KernelTraceEntry> {
    let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(config)
        .build()
        .unwrap();
    rt.set_kernel_trace(true);
    QmcPack::nio(NioSize { factor: 8 })
        .with_steps(100)
        .run(&mut rt)
        .unwrap();
    rt.finish().kernel_trace
}

#[test]
fn eager_maps_wins_the_warmup_then_stalls_vanish() {
    let izc = traced_run(RuntimeConfig::ImplicitZeroCopy);
    let em = traced_run(RuntimeConfig::EagerMaps);
    assert_eq!(izc.len(), em.len(), "same program, same launch count");

    let cmp = WarmupComparison::new(&izc, &em);

    // Within the first hundred launches IZC accumulates first-touch stalls
    // that EM avoided: EM is ahead on kernel-side time.
    let early = cmp.advantage_at(99.min(cmp.launches() - 1));
    assert!(
        early > 0,
        "Eager Maps should lead after warm-up, advantage {early}ns"
    );

    // After the initial phase the per-launch difference settles (faults are
    // one-off per page; both configurations then run stall-free kernels).
    let settled = cmp
        .settled_after(VirtDuration::from_micros(50))
        .expect("traces settle after warm-up");
    assert!(
        settled < 150,
        "kernel-side differences should settle within the warm-up, got {settled}"
    );

    // And the advantage stops growing: kernel-side EM lead in the second
    // half of the run is essentially flat.
    let mid = cmp.advantage_at(cmp.launches() / 2);
    let last = cmp.advantage_at(cmp.launches() - 1);
    let growth = (last - mid).abs();
    assert!(
        growth < early.max(1) / 5,
        "advantage should stop growing after warm-up: mid {mid} last {last}"
    );

    // The paper's point: EM's *kernel-side* win is bounded (a fraction of a
    // second), while its prefault syscalls accrue on the host side — which
    // is why EM trails IZC overall at small sizes. Confirm the host side:
    let mut izc_rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(RuntimeConfig::ImplicitZeroCopy)
        .build()
        .unwrap();
    let w = QmcPack::nio(NioSize { factor: 8 }).with_steps(100);
    w.run(&mut izc_rt).unwrap();
    let izc_report = izc_rt.finish();
    let mut em_rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(RuntimeConfig::EagerMaps)
        .build()
        .unwrap();
    w.run(&mut em_rt).unwrap();
    let em_report = em_rt.finish();
    assert!(em_report.ledger.mm_prefault > VirtDuration::ZERO);
    assert_eq!(izc_report.ledger.mm_prefault, VirtDuration::ZERO);
    // Kernel-side: EM total is smaller (no MI)...
    assert!(em_report.ledger.mi_total() == VirtDuration::ZERO);
    assert!(izc_report.ledger.mi_total() > VirtDuration::ZERO);
    // ...but its host-side prefault total exceeds IZC's one-off MI, so IZC
    // wins overall at this size — the paper's QMCPack conclusion.
    assert!(em_report.ledger.mm_prefault > izc_report.ledger.mi_total());
    assert!(em_report.makespan > izc_report.makespan);
}

#[test]
fn chrome_trace_of_a_run_is_loadable_json_shape() {
    let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(RuntimeConfig::LegacyCopy)
        .threads(2)
        .telemetry(TelemetryMode::ring())
        .build()
        .unwrap();
    QmcPack::nio(NioSize { factor: 2 })
        .with_steps(5)
        .run(&mut rt)
        .unwrap();
    let report = rt.finish();
    let json = mi300a_zerocopy::analysis::timeline::merged_chrome_trace(
        &report.schedule,
        report.telemetry.as_ref().expect("ring was on"),
    );
    assert!(json.starts_with('{'));
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("hsa_amd_memory_async_copy"));
    assert!(json.contains("\"tid\":1"));
    // Balanced braces: every event object closes.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

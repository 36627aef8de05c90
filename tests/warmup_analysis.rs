//! End-to-end reproduction of the paper's §V-A.4 launch-indexed analysis:
//! "the advantage of Eager Maps over Implicit Zero-Copy is due to increased
//! TLB hits when host allocated memory is first touched by the GPU ...
//! for the first hundred kernel launches the difference is in the order of
//! tens of milliseconds. After the initial phase, the difference lowers."

mod common;

use common::Json;
use mi300a_zerocopy::analysis::kernels::kernel_times;
use mi300a_zerocopy::analysis::warmup::WarmupComparison;
use mi300a_zerocopy::hsa::Topology;
use mi300a_zerocopy::mem::CostModel;
use mi300a_zerocopy::omp::{OmpRuntime, RuntimeConfig, TelemetryMode, TelemetryReport};
use mi300a_zerocopy::sim::VirtDuration;
use mi300a_zerocopy::workloads::{NioSize, QmcPack, Workload};

/// The kernel trace of a run: its telemetry stream, whose
/// `kernel_complete` events the analysis reads.
fn traced_run(config: RuntimeConfig) -> TelemetryReport {
    let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(config)
        .telemetry(TelemetryMode::ring())
        .build()
        .unwrap();
    QmcPack::nio(NioSize { factor: 8 })
        .with_steps(100)
        .run(&mut rt)
        .unwrap();
    let trace = rt.finish().telemetry.expect("ring was on");
    assert_eq!(trace.dropped_events, 0);
    trace
}

#[test]
fn eager_maps_wins_the_warmup_then_stalls_vanish() {
    let izc = traced_run(RuntimeConfig::ImplicitZeroCopy);
    let em = traced_run(RuntimeConfig::EagerMaps);
    assert_eq!(
        kernel_times(&izc).count(),
        kernel_times(&em).count(),
        "same program, same launch count"
    );

    let cmp = WarmupComparison::new(&izc, &em);

    // Within the first hundred launches IZC accumulates first-touch stalls
    // that EM avoided: EM is ahead on kernel-side time.
    let early = cmp.advantage_at(99.min(cmp.launches() - 1));
    assert_eq!((cmp.launches(), early), (300, 158_750));
    assert!(
        early > 0,
        "Eager Maps should lead after warm-up, advantage {early}ns"
    );

    // After the initial phase the per-launch difference settles (faults are
    // one-off per page; both configurations then run stall-free kernels).
    let settled = cmp
        .settled_after(VirtDuration::from_micros(50))
        .expect("traces settle after warm-up");
    assert_eq!(settled, 2);
    assert!(
        settled < 150,
        "kernel-side differences should settle within the warm-up, got {settled}"
    );

    // And the advantage stops growing: kernel-side EM lead in the second
    // half of the run is essentially flat.
    let mid = cmp.advantage_at(cmp.launches() / 2);
    let last = cmp.advantage_at(cmp.launches() - 1);
    assert_eq!((mid, last), (158_750, 158_750));
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

/// The merged Chrome trace of a real run is strict JSON, carries the HSA
/// schedule (both host threads) and the telemetry stream, and every
/// `kernel_complete` event's args carry the schedule's stall.
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
    let doc = Json::parse(&json).unwrap_or_else(|e| panic!("chrome trace: {e}"));
    assert_eq!(doc.get("otherData").get("dropped_events").u64(), 0);
    let Json::Arr(events) = doc.get("traceEvents") else {
        panic!("traceEvents is not an array")
    };
    let named = |name: &'static str| events.iter().filter(move |e| e.get("name").str() == name);
    assert!(named("hsa_amd_memory_async_copy").any(|e| e.get("pid").u64() == 1));
    assert!(events
        .iter()
        .any(|e| e.get("ph").str() != "M" && e.get("tid").u64() == 1));
    let completions: Vec<&Json> = named("kernel_complete").collect();
    assert!(!completions.is_empty());
    for c in completions {
        c.get("args").get("stall_ns").u64();
    }
}

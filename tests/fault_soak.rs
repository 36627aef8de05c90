//! Fault-injection soak: every configuration, several fault seeds, one
//! multi-phase program. Each faulty run must (a) produce numeric results
//! identical to the healthy run, (b) finish with zero live mappings and no
//! outstanding nowait regions, and (c) replay deterministically per seed.
//! Runs record telemetry, so every recovery episode and degradation can be
//! read back from the event stream.

use mi300a_zerocopy::hsa::Topology;
use mi300a_zerocopy::mem::{AddrRange, CostModel, DiscreteSpec, SystemKind, VirtAddr};
use mi300a_zerocopy::omp::telemetry::EventKind;
use mi300a_zerocopy::omp::{
    MapEntry, OmpRuntime, RecoveryEvent, RunReport, RuntimeConfig, TargetRegion, TelemetryMode,
};
use mi300a_zerocopy::sim::{FaultPlan, FaultSpec, VirtDuration};

const N: usize = 256;

fn seeds() -> Vec<u64> {
    (0..5).map(|i| 0x50AC + i * 7).collect()
}

fn write_f64s(rt: &mut OmpRuntime, addr: VirtAddr, vals: &[f64]) {
    let mut raw = Vec::new();
    for v in vals {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    rt.mem_mut().cpu_write(addr, &raw).unwrap();
}

fn read_f64s(rt: &OmpRuntime, addr: VirtAddr, n: usize) -> Vec<f64> {
    let mut raw = vec![0u8; n * 8];
    rt.mem().cpu_read(addr, &mut raw).unwrap();
    raw.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// A small but multi-phase program: structured data region, refcounted
/// remaps, a declare-target global, `target nowait` + taskwait, explicit
/// device memory, and update-from transfers. Returns the numeric result
/// and the finished report.
fn run_program(mut rt: OmpRuntime) -> (Vec<f64>, RunReport) {
    let bytes = (N * 8) as u64;
    let a = rt.host_alloc(0, bytes).unwrap();
    let b = rt.host_alloc(0, bytes).unwrap();
    let scale = rt.declare_target_global(0, 8).unwrap();
    write_f64s(&mut rt, a, &vec![1.0; N]);
    write_f64s(&mut rt, b, &(0..N).map(|i| i as f64).collect::<Vec<_>>());
    let sh = rt.global_host(scale).unwrap();
    write_f64s(&mut rt, sh.start, &[3.0]);

    let ra = AddrRange::new(a, bytes);
    let rb = AddrRange::new(b, bytes);
    rt.target_enter_data(0, &[MapEntry::to(rb)]).unwrap();
    for step in 0..4 {
        let region = TargetRegion::new("axpy_step", VirtDuration::from_micros(20))
            .map(MapEntry::tofrom(ra))
            .map(MapEntry::to(rb))
            .global(scale)
            .body(move |ctx| {
                let av = ctx.read_f64s(ctx.arg(0), N)?;
                let bv = ctx.read_f64s(ctx.arg(1), N)?;
                let s = ctx.read_f64s(ctx.global(0), 1)?[0];
                let out: Vec<f64> = av
                    .iter()
                    .zip(&bv)
                    .map(|(x, y)| x + y / (s + step as f64))
                    .collect();
                ctx.write_f64s(ctx.arg(0), &out)
            });
        if step % 2 == 0 {
            rt.target(0, region).unwrap();
        } else {
            rt.target_nowait(0, region).unwrap();
            rt.taskwait(0).unwrap();
        }
    }
    rt.target_exit_data(0, &[MapEntry::alloc(rb)], false)
        .unwrap();

    // Explicit device memory round-trip.
    let dev = rt.omp_target_alloc(0, bytes).unwrap();
    rt.omp_target_memcpy(0, dev, a, bytes).unwrap();
    rt.omp_target_memcpy(0, a, dev, bytes).unwrap();
    rt.omp_target_free(0, dev).unwrap();

    let result = read_f64s(&rt, a, N);
    assert_eq!(rt.live_mappings(), 0, "leaked mappings");
    assert_eq!(rt.pending_nowaits(), 0, "leaked nowait regions");
    (result, rt.finish())
}

fn apu_rt(config: RuntimeConfig, plan: Option<FaultPlan>) -> OmpRuntime {
    let mut b = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(config)
        .telemetry(TelemetryMode::ring());
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    b.build().unwrap()
}

/// The recovery episodes and degradations a run recorded, in order.
fn recovery_events(report: &RunReport) -> Vec<RecoveryEvent> {
    let telemetry = report.telemetry.as_ref().expect("ring was on");
    assert_eq!(telemetry.dropped_events, 0);
    telemetry
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Recovery { event } => Some(event),
            _ => None,
        })
        .collect()
}

#[test]
fn soak_all_configs_and_seeds_match_healthy_results() {
    for config in RuntimeConfig::ALL {
        let (healthy, healthy_report) = run_program(apu_rt(config, None));
        assert_eq!(healthy_report.fault_stats.total_injected(), 0);
        assert!(!healthy_report.ledger.has_recovery_activity());
        for seed in seeds() {
            let plan = FaultPlan::new(seed, FaultSpec::soak());
            let (faulty, report) = run_program(apu_rt(config, Some(plan)));
            assert_eq!(
                faulty, healthy,
                "config {config} seed {seed}: faulty run diverged from healthy"
            );
            // Every injected episode must have been resolved by recovery,
            // and each one is a stream event. The soak spec has no XNACK
            // knob, so nothing degrades.
            assert_eq!(
                recovery_events(&report).len() as u64,
                report.ledger.recoveries + report.ledger.degradations,
                "config {config} seed {seed}"
            );
            assert_eq!(report.ledger.degradations, 0, "config {config} seed {seed}");
        }
    }
}

#[test]
fn soak_runs_replay_deterministically_per_seed() {
    for config in [RuntimeConfig::LegacyCopy, RuntimeConfig::ImplicitZeroCopy] {
        for seed in seeds() {
            let (r1, rep1) = run_program(apu_rt(
                config,
                Some(FaultPlan::new(seed, FaultSpec::soak())),
            ));
            let (r2, rep2) = run_program(apu_rt(
                config,
                Some(FaultPlan::new(seed, FaultSpec::soak())),
            ));
            assert_eq!(r1, r2);
            assert_eq!(rep1.makespan, rep2.makespan, "config {config} seed {seed}");
            assert_eq!(
                rep1.fault_stats.total_injected(),
                rep2.fault_stats.total_injected()
            );
            assert_eq!(recovery_events(&rep1), recovery_events(&rep2));
        }
    }
}

#[test]
fn soak_disabled_faults_equal_no_plan() {
    // A plan with all-zero rates must be byte-equivalent to no plan at all.
    let (healthy, healthy_report) = run_program(apu_rt(RuntimeConfig::ImplicitZeroCopy, None));
    let plan = FaultPlan::new(9, FaultSpec::none());
    let (nofault, report) = run_program(apu_rt(RuntimeConfig::ImplicitZeroCopy, Some(plan)));
    assert_eq!(healthy, nofault);
    assert_eq!(healthy_report.makespan, report.makespan);
    assert_eq!(report.fault_stats.total_injected(), 0);
    assert!(recovery_events(&report).is_empty());
}

#[test]
fn soak_discrete_system_with_faults_recovers() {
    // Discrete mode exercises the pool-allocation and DMA sites hardest:
    // every map costs a real VRAM allocation plus transfers.
    let spec = DiscreteSpec::mi200_class();
    let healthy = {
        let rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
            .config(RuntimeConfig::LegacyCopy)
            .system(SystemKind::Discrete(spec.clone()))
            .build()
            .unwrap();
        run_program(rt).0
    };
    for seed in seeds() {
        let rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
            .config(RuntimeConfig::LegacyCopy)
            .system(SystemKind::Discrete(spec.clone()))
            .fault_plan(FaultPlan::new(seed, FaultSpec::soak()))
            .build()
            .unwrap();
        let (faulty, report) = run_program(rt);
        assert_eq!(faulty, healthy, "seed {seed}");
        assert!(
            report.fault_stats.total_injected() > 0
                || report.ledger.recoveries + report.ledger.degradations == 0
        );
    }
}

#[test]
fn soak_mid_run_xnack_loss_is_absorbed() {
    for config in [
        RuntimeConfig::ImplicitZeroCopy,
        RuntimeConfig::UnifiedSharedMemory,
    ] {
        let healthy = run_program(apu_rt(config, None)).0;
        let plan = FaultPlan::new(5, FaultSpec::none()).with_xnack_flip_after(2);
        let (faulty, report) = run_program(apu_rt(config, Some(plan)));
        assert_eq!(faulty, healthy, "config {config}");
        assert_eq!(report.fault_stats.xnack_flips, 1);
        assert_eq!(report.ledger.degradations, 1);
        assert!(report.ledger.recovery_prefaults > 0);
        assert_eq!(
            recovery_events(&report).len() as u64,
            report.ledger.recoveries + report.ledger.degradations
        );
    }
}

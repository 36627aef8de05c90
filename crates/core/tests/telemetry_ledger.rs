//! End-to-end telemetry contract tests: the event stream folded back must
//! equal the overhead ledger field for field under every configuration, and
//! ring overflow must be accounted, never silent.

use apu_mem::{AddrRange, CostModel};
use hsa_rocr::Topology;
use omp_offload::telemetry::{attribution, fold, to_jsonl};
use omp_offload::{
    MapEntry, OmpRuntime, RuntimeBuilder, RuntimeConfig, TargetRegion, TelemetryMode,
};
use sim_des::{FaultPlan, VirtDuration};

fn builder(config: RuntimeConfig) -> RuntimeBuilder {
    OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default()).config(config)
}

/// A small program exercising every charge family: pool allocs, maps in and
/// out, always-modified re-maps, updates, kernels (sync and nowait), globals,
/// and explicit device allocations.
fn program(rt: &mut OmpRuntime) {
    let t = 0;
    let a = rt.host_alloc(t, 1 << 16).unwrap();
    let b = rt.host_alloc(t, 1 << 14).unwrap();
    let ra = AddrRange::new(a, 1 << 16);
    let rb = AddrRange::new(b, 1 << 14);
    rt.host_write(t, ra).unwrap();
    rt.host_write(t, rb).unwrap();

    let g = rt.declare_target_global(t, 1 << 12).unwrap();
    let d = rt.omp_target_alloc(t, 1 << 12).unwrap();

    rt.target_enter_data(t, &[MapEntry::to(ra)]).unwrap();
    rt.target(
        t,
        TargetRegion::new("k1", VirtDuration::from_micros(20))
            .map(MapEntry::tofrom(rb))
            .map(MapEntry::tofrom(ra).always())
            .global(g),
    )
    .unwrap();
    rt.target_update(t, &[ra], &[ra]).unwrap();
    rt.target_nowait(
        t,
        TargetRegion::new("k2", VirtDuration::from_micros(10)).map(MapEntry::tofrom(rb)),
    )
    .unwrap();
    rt.taskwait(t).unwrap();
    rt.target_exit_data(t, &[MapEntry::from(ra)], false)
        .unwrap();

    rt.omp_target_free(t, d).unwrap();
    rt.host_read(t, ra);
}

#[test]
fn fold_equals_ledger_under_every_configuration() {
    for config in RuntimeConfig::ALL {
        let mut rt = builder(config)
            .telemetry(TelemetryMode::ring())
            .build()
            .unwrap();
        program(&mut rt);
        let ledger = *rt.ledger();
        assert_eq!(rt.telemetry_dropped(), 0);

        let report = rt.finish();
        let telemetry = report.telemetry.expect("ring was on");
        assert_eq!(
            fold(&telemetry.events),
            ledger,
            "fold != ledger under {}",
            config.label()
        );
        assert_eq!(report.ledger, ledger);
        // The report surfaces the mapping-cache counters alongside.
        let (hits, misses) = report.mapping_cache;
        assert_eq!((hits, misses), (0, 0), "no elision probes ran");
    }
}

/// `omp_target_free` charges the pool free it scheduled, and the free and
/// `omp_target_alloc`'s allocation share one site: the allocated block.
#[test]
fn omp_target_free_charges_its_pool_free_to_the_allocated_block() {
    let cost = CostModel::mi300a_no_thp();
    for config in RuntimeConfig::ALL {
        let mut rt = builder(config)
            .telemetry(TelemetryMode::ring())
            .build()
            .unwrap();
        let d = rt.omp_target_alloc(0, 5000).unwrap();
        rt.omp_target_free(0, d).unwrap();
        let report = rt.finish();
        let label = config.label();
        assert_eq!(report.ledger.mm_free, cost.pool_free_cost(2), "{label}");
        let sites = attribution(&report.telemetry.expect("ring was on")).sites;
        let [site] = &sites[..] else {
            panic!("{label}: one site expected, got {sites:?}")
        };
        assert_eq!(site.range, AddrRange::new(d, 8192), "{label}");
        assert_eq!(site.ledger.mm_alloc, cost.pool_alloc_cost(2), "{label}");
        assert_eq!(site.ledger.mm_free, cost.pool_free_cost(2), "{label}");
    }
}

#[test]
fn fold_equals_ledger_under_fault_injection() {
    for config in RuntimeConfig::ALL {
        let mut rt = builder(config)
            .telemetry(TelemetryMode::ring())
            .fault_plan(FaultPlan::from_seed(0xF00D))
            .build()
            .unwrap();
        program(&mut rt);
        let report = rt.finish();
        let telemetry = report.telemetry.expect("ring was on");
        assert_eq!(
            fold(&telemetry.events),
            report.ledger,
            "faulty fold != ledger under {}",
            config.label()
        );
        // Every recovery episode and degradation is one stream event.
        let recovery_events = telemetry
            .events
            .iter()
            .filter(|e| e.kind.name() == "recovery")
            .count() as u64;
        assert_eq!(
            recovery_events,
            report.ledger.recoveries + report.ledger.degradations
        );
    }
}

#[test]
fn telemetry_off_reports_nothing() {
    let mut rt = builder(RuntimeConfig::LegacyCopy).build().unwrap();
    program(&mut rt);
    assert_eq!(rt.telemetry_dropped(), 0);
    let report = rt.finish();
    assert!(report.telemetry.is_none());
}

#[test]
fn ring_overflow_is_accounted_in_every_sink_header() {
    let mut rt = builder(RuntimeConfig::LegacyCopy)
        .telemetry(TelemetryMode::Ring(4))
        .build()
        .unwrap();
    program(&mut rt);
    let dropped = rt.telemetry_dropped();
    assert!(dropped > 0, "a 4-slot ring must overflow on this program");

    let report = rt.finish();
    let telemetry = report.telemetry.expect("ring was on");
    assert_eq!(telemetry.events.len(), 4);
    assert_eq!(telemetry.dropped_events, dropped);
    // Sequence numbers survive eviction: the survivors are the stream tail.
    let first_seq = telemetry.events[0].seq;
    assert_eq!(first_seq, dropped);

    // JSONL header carries the drop count, and one line per survivor
    // follows it.
    let jsonl = to_jsonl(&telemetry);
    let header = jsonl.lines().next().unwrap();
    assert!(
        header.contains(&format!("\"dropped_events\":{dropped}")),
        "{header}"
    );
    assert_eq!(jsonl.lines().count(), 1 + telemetry.events.len());

    // Attribution report carries it too.
    assert_eq!(attribution(&telemetry).dropped_events, dropped);
}

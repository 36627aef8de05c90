//! Multi-tenant soak: many concurrent data environments over one shared
//! mapping table. For every configuration and tenant count, each
//! tenant's observable results — memory digest, ledger, makespan,
//! diagnostics — must be byte-identical to running that tenant serially
//! alone in its own pool, under whatever interleaving the OS scheduler
//! produces, and the shared table must drain to zero live mappings.
//!
//! Programs are proptest-generated op streams interpreted against a small
//! validity model (exit only what was entered), in the style of
//! `tests/fault_soak.rs`; every tenant carries its derived slice of a
//! seeded fault plan, so recovery activity is soaked concurrently too.
//! Copy runs the way the `sweep-tenants` benchmark drives the table: with
//! online elision and the telemetry ring, so each tenant's lookup cache
//! probes the shared table while the other tenants mutate it.

use mi300a_zerocopy::hsa::Topology;
use mi300a_zerocopy::mem::{AddrRange, CostModel};
use mi300a_zerocopy::omp::{
    ElideMode, MapEntry, OmpRuntime, RuntimeConfig, TargetRegion, TelemetryMode, Tenant, TenantPool,
};
use mi300a_zerocopy::sim::{FaultPlan, FaultSpec, VirtDuration};
use proptest::prelude::*;

const N: usize = 64;

fn pool(config: RuntimeConfig) -> TenantPool {
    let recipe = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(config)
        .sanitize(true)
        .fault_plan(FaultPlan::new(0x50AC, FaultSpec::soak()));
    // Copy is the configuration where online elision fires.
    TenantPool::new(if config == RuntimeConfig::LegacyCopy {
        recipe
            .elide(ElideMode::Online)
            .telemetry(TelemetryMode::ring())
    } else {
        recipe
    })
}

fn write_f64s(rt: &mut OmpRuntime, addr: mi300a_zerocopy::mem::VirtAddr, vals: &[f64]) {
    let mut raw = Vec::new();
    for v in vals {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    rt.mem_mut().cpu_write(addr, &raw).unwrap();
}

/// Drive one tenant through the op stream. Ops are interpreted against a
/// tiny validity model so any byte stream is a legal OpenMP program.
fn run_ops(rt: &mut OmpRuntime, ops: &[u8]) {
    let bytes = (N * 8) as u64;
    let a = rt.host_alloc(0, bytes).unwrap();
    let b = rt.host_alloc(0, bytes).unwrap();
    let ra = AddrRange::new(a, bytes);
    let rb = AddrRange::new(b, bytes);
    write_f64s(rt, a, &(0..N).map(|i| 1.0 + i as f64).collect::<Vec<_>>());
    write_f64s(rt, b, &vec![2.0; N]);
    let mut entered = false;
    for (step, &op) in ops.iter().enumerate() {
        match op % 4 {
            0 | 3 => {
                let region = TargetRegion::new("soak_axpy", VirtDuration::from_micros(15))
                    .map(MapEntry::tofrom(ra))
                    .body(move |ctx| {
                        let v = ctx.read_f64s(ctx.arg(0), N)?;
                        let out: Vec<f64> = v.iter().map(|x| x * 0.5 + step as f64).collect();
                        ctx.write_f64s(ctx.arg(0), &out)
                    });
                rt.target(0, region).unwrap();
            }
            1 => {
                if entered {
                    let region = TargetRegion::new("soak_touch", VirtDuration::from_micros(10))
                        .map(MapEntry::to(rb));
                    rt.target(0, region).unwrap();
                } else {
                    rt.target_enter_data(0, &[MapEntry::to(rb)]).unwrap();
                    entered = true;
                }
            }
            2 => {
                if entered {
                    rt.target_exit_data(0, &[MapEntry::from(rb)], false)
                        .unwrap();
                    entered = false;
                }
            }
            _ => unreachable!(),
        }
    }
    if entered {
        rt.target_exit_data(0, &[MapEntry::from(rb)], false)
            .unwrap();
    }
    assert_eq!(rt.live_mappings(), 0, "tenant leaked mappings");
}

/// Everything a tenant can observe about its own run, as one string.
fn fingerprint(t: Tenant) -> String {
    let rt = t.into_runtime();
    let digest = rt.memory_digest();
    let report = rt.finish();
    let diags = report
        .sanitizer
        .map(|s| {
            s.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(";")
        })
        .unwrap_or_default();
    format!(
        "{digest:016x}|{}|{:?}|{diags}",
        report.makespan.as_nanos(),
        report.ledger,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn tenants_are_isolated_under_any_schedule(
        ops in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        for config in RuntimeConfig::ALL {
            // The serial reference: each tenant id run alone in its own
            // pool. Computed once per config — the same solo bytes are the
            // contract for every tenant count below.
            let solo: Vec<String> = (0..8u32)
                .map(|id| {
                    let mut t = pool(config).tenant(id).unwrap();
                    run_ops(&mut t, &ops);
                    fingerprint(t)
                })
                .collect();
            for &tenants in &[1u32, 4, 8] {
                let p = pool(config);
                let concurrent: Vec<String> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..tenants)
                        .map(|id| {
                            let p = &p;
                            let ops = &ops;
                            s.spawn(move || {
                                let mut t = p.tenant(id).unwrap();
                                run_ops(&mut t, ops);
                                fingerprint(t)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                prop_assert_eq!(p.live_total(), 0, "config {}: shared table must drain", config);
                prop_assert!(p.table().total_maps() > 0, "config {}: tenants mapped nothing", config);
                for id in 0..tenants as usize {
                    prop_assert_eq!(
                        &concurrent[id],
                        &solo[id],
                        "config {} tenant {}/{} diverged from its solo run",
                        config,
                        id,
                        tenants
                    );
                }
            }
        }
    }
}

//! Property: the telemetry stream is ledger-exact on randomized programs.
//!
//! For every generated well-formed (but redundantly mapping) program, every
//! configuration, with elision off and online, healthy and fault-injected:
//!
//! * folding the event stream reproduces the overhead ledger **field for
//!   field** (`ledger == fold(events)` — the derivability contract);
//! * the default ring drops nothing;
//! * the JSONL export's header counts exactly the event lines that follow
//!   it, with no drops.
//!
//! Fault-injected runs may abort (recovery exhaustion); the contract must
//! hold at the abort point too, since the runtime's ledger is the running
//! fold of its stream.

use apu_mem::{AddrRange, CostModel};
use hsa_rocr::Topology;
use omp_offload::telemetry::{fold, to_jsonl};
use omp_offload::{
    ElideMode, MapDir, MapEntry, OmpError, OmpRuntime, RuntimeConfig, TargetRegion, TelemetryMode,
};
use proptest::prelude::*;
use sim_des::{FaultPlan, VirtDuration};

const NBUF: usize = 4;
const BUF: u64 = 8192;

fn kernel(name: &'static str) -> TargetRegion<'static> {
    TargetRegion::new(name, VirtDuration::from_micros(3))
}

/// Interpret the opcode trace as a well-formed program against `rt` (the
/// elision property driver, minus the capture plumbing).
fn drive(rt: &mut OmpRuntime, ops: &[(u8, u8, u8)]) -> Result<(), OmpError> {
    let t = 0usize;
    let mut bufs = Vec::with_capacity(NBUF);
    for _ in 0..NBUF {
        let a = rt.host_alloc(t, BUF)?;
        let r = AddrRange::new(a, BUF);
        rt.host_write(t, r)?;
        bufs.push(r);
    }

    let mut stacks: Vec<Vec<MapDir>> = vec![Vec::new(); NBUF];
    let mut pending = [false; NBUF];

    for &(op, buf, aux) in ops {
        let b = buf as usize % NBUF;
        let r = bufs[b];
        let closed = stacks[b].is_empty() && !pending[b];
        match op % 6 {
            0 if closed => rt.host_write(t, r)?,
            1 if closed => rt.host_read(t, r),
            2 => {
                let dir = if closed {
                    if aux & 1 == 1 {
                        MapDir::To
                    } else {
                        MapDir::ToFrom
                    }
                } else {
                    match aux % 3 {
                        0 => MapDir::To,
                        1 => MapDir::ToFrom,
                        _ => MapDir::Alloc,
                    }
                };
                let entry = match dir {
                    MapDir::To => MapEntry::to(r),
                    MapDir::ToFrom => MapEntry::tofrom(r),
                    _ => MapEntry::alloc(r),
                };
                rt.target_enter_data(t, &[entry])?;
                stacks[b].push(dir);
            }
            3 if !stacks[b].is_empty() && !pending[b] => {
                let entry = match stacks[b].pop().unwrap() {
                    MapDir::Alloc => MapEntry::alloc(r),
                    _ => MapEntry::from(r),
                };
                rt.target_exit_data(t, &[entry], false)?;
            }
            4 => {
                if closed {
                    let region = kernel("prop-kernel").map(MapEntry::tofrom(r));
                    if aux & 1 == 1 {
                        rt.target_nowait(t, region)?;
                        pending[b] = true;
                    } else {
                        rt.target(t, region)?;
                    }
                } else {
                    let entry = match aux % 3 {
                        0 => MapEntry::tofrom(r),
                        1 => MapEntry::tofrom(r).always(),
                        _ => MapEntry::alloc(r),
                    };
                    rt.target(t, kernel("prop-kernel").map(entry))?;
                }
            }
            5 => {
                rt.taskwait(t)?;
                pending = [false; NBUF];
            }
            _ => {}
        }
    }

    rt.taskwait(t)?;
    for b in 0..NBUF {
        while let Some(dir) = stacks[b].pop() {
            let entry = match dir {
                MapDir::Alloc => MapEntry::alloc(bufs[b]),
                _ => MapEntry::from(bufs[b]),
            };
            rt.target_exit_data(t, &[entry], false)?;
        }
    }
    for r in &bufs {
        rt.host_free(t, r.start)?;
    }
    Ok(())
}

fn op_traces(max_len: usize) -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..max_len)
}

/// One telemetry-instrumented run; asserts the derivability contract and
/// the JSONL header counts. Panics (failing the property) on any violation.
fn exact_run(
    config: RuntimeConfig,
    elide: ElideMode,
    fault_seed: Option<u64>,
    ops: &[(u8, u8, u8)],
) {
    let mut builder = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(config)
        .sanitize(true)
        .elide(elide.clone())
        .telemetry(TelemetryMode::ring());
    if let Some(seed) = fault_seed {
        builder = builder.fault_plan(FaultPlan::from_seed(seed));
    }
    let mut rt = builder.build().expect("build instrumented runtime");
    // Fault-injected runs may abort; the contract must hold regardless.
    let outcome = drive(&mut rt, ops);
    let _ = rt.sanitizer_finalize();
    assert_eq!(rt.telemetry_dropped(), 0, "default ring overflowed");

    let report = rt.finish();
    let telemetry = report.telemetry.expect("ring was on");
    assert_eq!(
        fold(&telemetry.events),
        report.ledger,
        "fold != ledger under {} (elide {:?}, faults {:?}, run {:?})",
        config.label(),
        std::mem::discriminant(&elide),
        fault_seed,
        outcome.as_ref().err(),
    );
    let jsonl = to_jsonl(&telemetry);
    let header = jsonl.lines().next().expect("JSONL has a header line");
    let counts = format!("\"events\":{},\"dropped_events\":0", telemetry.events.len());
    assert!(header.contains(&counts), "{header} lacks {counts}");
    assert_eq!(
        jsonl.lines().count(),
        1 + telemetry.events.len(),
        "JSONL event lines != header count under {}",
        config.label()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn telemetry_fold_equals_ledger_on_random_programs(ops in op_traces(30)) {
        for config in RuntimeConfig::ALL {
            exact_run(config, ElideMode::Off, None, &ops);
            exact_run(config, ElideMode::Online, None, &ops);
            exact_run(config, ElideMode::Online, Some(0xF00D), &ops);
        }
    }
}

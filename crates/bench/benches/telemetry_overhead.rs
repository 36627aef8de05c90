//! Ablation: cost of the runtime telemetry stream on the simulator itself.
//!
//! The telemetry ring sits on every MM/MI charge site, so the cost of its
//! Off mode (one `Option` branch per charge, no allocation) is measured
//! here, not assumed. This bench runs the streaming workload under three
//! settings — telemetry off, ring on, and ring on plus a full JSONL export —
//! and reports best-of-three wall-clock ratios of the *simulator*, not the
//! simulated program (the virtual makespan is identical in all three by
//! construction). It also re-asserts the derivability contract on the
//! instrumented runs: folding the collected stream must reproduce the
//! overhead ledger field for field.

use apu_mem::CostModel;
use hsa_rocr::Topology;
use omp_offload::telemetry::{fold, to_jsonl};
use omp_offload::{OmpRuntime, RuntimeConfig, TelemetryMode};
use std::hint::black_box;
use std::time::Instant;
use workloads::{Stream, Workload};

#[derive(Clone, Copy, PartialEq)]
enum Setting {
    Off,
    Ring,
    RingJsonl,
}

impl Setting {
    fn mode(self) -> TelemetryMode {
        match self {
            Setting::Off => TelemetryMode::Off,
            _ => TelemetryMode::ring(),
        }
    }
}

/// One Copy-config streaming run; returns the number of collected events
/// (0 when off) after enforcing `ledger == fold(events)` on instrumented
/// runs and serializing to JSONL when asked.
fn run(w: &dyn Workload, setting: Setting) -> usize {
    let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(RuntimeConfig::LegacyCopy)
        .telemetry(setting.mode())
        .build()
        .unwrap();
    w.run(&mut rt).unwrap();
    let ledger = *rt.ledger();
    let report = rt.finish();
    match (setting, report.telemetry) {
        (Setting::Off, telemetry) => {
            assert!(telemetry.is_none());
            0
        }
        (_, Some(telemetry)) => {
            assert_eq!(fold(&telemetry.events), ledger, "fold != ledger");
            assert_eq!(telemetry.dropped_events, 0);
            if setting == Setting::RingJsonl {
                black_box(to_jsonl(&telemetry));
            }
            telemetry.events.len()
        }
        (_, None) => unreachable!("ring was on"),
    }
}

/// Best-of-three wall-clock per setting: how far Off sits from the ring,
/// and what the ring and its JSONL export cost.
fn main() {
    // `cargo bench` forwards harness flags like --bench; a plain main only
    // needs to tolerate them.
    let w = Stream::scaled(1.0);
    let time = |setting: Setting| {
        let t0 = Instant::now();
        black_box(run(&w, setting));
        t0.elapsed()
    };
    let off = (0..3).map(|_| time(Setting::Off)).min().unwrap();
    let ring = (0..3).map(|_| time(Setting::Ring)).min().unwrap();
    let jsonl = (0..3).map(|_| time(Setting::RingJsonl)).min().unwrap();
    let events = run(&w, Setting::Ring);
    println!(
        "telemetry_overhead summary: {events} events | off {off:?} | ring {ring:?} \
         ({:.2}x) | ring+jsonl {jsonl:?} ({:.2}x)",
        ring.as_secs_f64() / off.as_secs_f64().max(1e-9),
        jsonl.as_secs_f64() / off.as_secs_f64().max(1e-9)
    );
}

//! Kernel time from the kernel trace (rocprof kernel-view analog), backing
//! the paper's §V-A.3 scaling analysis: "Total kernel execution times
//! reported by rocprof for Copy and Implicit Zero-Copy configurations
//! increases 10 times between S2 and S24. Total HSA call execution time
//! increases 5X for Copy..." — kernel time grows with the problem size
//! roughly twice as fast as Copy's transfer overheads. The per-kernel view
//! is the telemetry attribution's kernel rows (`repro --profile`).
//!
//! The kernel trace (the `LIBOMPTARGET_KERNEL_TRACE` analog) is a run's
//! `kernel_complete` events: collect it with the telemetry ring on, and
//! check that the ring dropped nothing.

use omp_offload::telemetry::EventKind;
use omp_offload::TelemetryReport;
use sim_des::VirtDuration;

/// Each launch's kernel-side time (compute + the schedule's stall), in
/// `seq` order.
pub fn kernel_times(trace: &TelemetryReport) -> impl Iterator<Item = VirtDuration> + '_ {
    trace.events.iter().filter_map(|e| match e.kind {
        EventKind::KernelComplete { compute, stall, .. } => Some(compute + stall),
        _ => None,
    })
}

/// Total kernel-side time (compute + stalls) in a trace.
pub fn total_kernel_time(trace: &TelemetryReport) -> VirtDuration {
    kernel_times(trace).sum()
}

/// A stream of one `kernel_complete` event per `(compute, stall)` pair in
/// microseconds, between launch markers the trace must skip.
#[cfg(test)]
pub(crate) fn trace_of(launches: &[(u64, u64)]) -> TelemetryReport {
    use omp_offload::telemetry::Event;
    use std::sync::Arc;

    let us = VirtDuration::from_micros;
    let events = launches
        .iter()
        .flat_map(|&(compute, stall)| {
            let name: Arc<str> = Arc::from("k");
            [
                EventKind::KernelLaunch {
                    name: Arc::clone(&name),
                    compute: us(compute),
                },
                EventKind::KernelComplete {
                    name,
                    compute: us(compute),
                    fault_stall: VirtDuration::ZERO,
                    tlb_stall: VirtDuration::ZERO,
                    stall: us(stall),
                    replayed_pages: 0,
                    zero_filled_pages: 0,
                },
            ]
        })
        .enumerate()
        .map(|(seq, kind)| Event {
            seq: seq as u64,
            thread: 0,
            anchor: 0,
            anchor_end: 0,
            kind,
        })
        .collect();
    TelemetryReport {
        events,
        dropped_events: 0,
        capacity: 1 << 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_kernel_time_sums_compute_and_stall() {
        let trace = trace_of(&[(10, 5), (20, 0), (30, 0)]);
        assert_eq!(kernel_times(&trace).count(), 3);
        assert_eq!(total_kernel_time(&trace), VirtDuration::from_micros(65));
    }

    #[test]
    fn empty_trace_is_fine() {
        assert_eq!(total_kernel_time(&trace_of(&[])), VirtDuration::ZERO);
    }
}

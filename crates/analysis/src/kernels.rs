//! Total kernel time from the kernel trace (rocprof kernel-view analog),
//! backing the paper's §V-A.3 scaling analysis: "Total kernel execution
//! times reported by rocprof for Copy and Implicit Zero-Copy configurations
//! increases 10 times between S2 and S24. Total HSA call execution time
//! increases 5X for Copy..." — kernel time grows with the problem size
//! roughly twice as fast as Copy's transfer overheads. The per-kernel view
//! is the telemetry attribution's kernel rows (`repro --profile`).

use omp_offload::KernelTraceEntry;
use sim_des::VirtDuration;

/// Total kernel-side time (compute + stalls) in a trace.
pub fn total_kernel_time(trace: &[KernelTraceEntry]) -> VirtDuration {
    trace.iter().map(|e| e.compute + e.stall).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entry(name: &str, compute_us: u64, stall_us: u64, pages: u64) -> KernelTraceEntry {
        KernelTraceEntry {
            name: Arc::from(name),
            thread: 0,
            compute: VirtDuration::from_micros(compute_us),
            stall: VirtDuration::from_micros(stall_us),
            faulted_pages: pages,
        }
    }

    #[test]
    fn total_kernel_time_sums_compute_and_stall() {
        let trace = vec![
            entry("a", 10, 5, 2),
            entry("b", 20, 0, 0),
            entry("a", 30, 0, 0),
        ];
        assert_eq!(total_kernel_time(&trace), VirtDuration::from_micros(65));
    }

    #[test]
    fn empty_trace_is_fine() {
        assert_eq!(total_kernel_time(&[]), VirtDuration::ZERO);
    }
}

//! Kernel-trace warm-up analysis (paper §V-A.4).
//!
//! The paper compares Implicit Zero-Copy and Eager Maps launch-by-launch:
//! "for the first hundred kernel launches, the difference between the two
//! configurations is in the order of tens of milliseconds. After the
//! initial phase, the difference lowers to milliseconds and lower" — Eager
//! Maps wins the warm-up (no first-touch stalls) but keeps paying prefault
//! syscalls forever. This module reproduces that analysis from the
//! `LIBOMPTARGET_KERNEL_TRACE` analog, a run's `kernel_complete` events
//! (see [`crate::kernels`]).

use crate::kernels::kernel_times;
use omp_offload::TelemetryReport;
use sim_des::VirtDuration;

/// Cumulative kernel-side time (compute + stalls) after each launch.
pub fn cumulative_kernel_time(trace: &TelemetryReport) -> Vec<VirtDuration> {
    let mut total = VirtDuration::ZERO;
    kernel_times(trace)
        .map(|t| {
            total += t;
            total
        })
        .collect()
}

/// Launch-indexed comparison of two traces of the *same program* under two
/// configurations.
#[derive(Debug)]
pub struct WarmupComparison {
    /// Cumulative kernel time of the first trace per launch index.
    pub a: Vec<VirtDuration>,
    /// Cumulative kernel time of the second trace per launch index.
    pub b: Vec<VirtDuration>,
}

impl WarmupComparison {
    /// Compare two traces (truncated to the shorter one).
    pub fn new(a: &TelemetryReport, b: &TelemetryReport) -> Self {
        let mut ca = cumulative_kernel_time(a);
        let mut cb = cumulative_kernel_time(b);
        let n = ca.len().min(cb.len());
        ca.truncate(n);
        cb.truncate(n);
        WarmupComparison { a: ca, b: cb }
    }

    /// Number of compared launches.
    pub fn launches(&self) -> usize {
        self.a.len()
    }

    /// Signed advantage of `b` over `a` after `launch` launches
    /// (positive: `a` has accumulated more kernel time than `b`).
    pub fn advantage_at(&self, launch: usize) -> i64 {
        self.a[launch].as_nanos() as i64 - self.b[launch].as_nanos() as i64
    }

    /// The launch index after which per-launch differences drop below
    /// `threshold` for good — the end of the warm-up phase. `None` if the
    /// traces never settle.
    pub fn settled_after(&self, threshold: VirtDuration) -> Option<usize> {
        let per_launch_diff = |i: usize| {
            let da = if i == 0 {
                self.a[0]
            } else {
                self.a[i] - self.a[i - 1]
            };
            let db = if i == 0 {
                self.b[0]
            } else {
                self.b[i] - self.b[i - 1]
            };
            da.as_nanos().abs_diff(db.as_nanos())
        };
        let mut settled_from = None;
        for i in 0..self.launches() {
            if per_launch_diff(i) > threshold.as_nanos() {
                settled_from = None;
            } else if settled_from.is_none() {
                settled_from = Some(i);
            }
        }
        settled_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::trace_of;

    #[test]
    fn cumulative_is_monotone_prefix_sum() {
        let trace = trace_of(&[(10, 5), (10, 0), (10, 0)]);
        let c = cumulative_kernel_time(&trace);
        assert_eq!(
            c,
            vec![
                VirtDuration::from_micros(15),
                VirtDuration::from_micros(25),
                VirtDuration::from_micros(35)
            ]
        );
    }

    #[test]
    fn warmup_advantage_shrinks_once_faults_stop() {
        // "IZC": big stalls on the first 3 launches (first touch), then none.
        let izc: Vec<_> = (0..10).map(|i| (10, if i < 3 { 100 } else { 0 })).collect();
        // "EM": no stalls at all.
        let em = [(10, 0); 10];
        let cmp = WarmupComparison::new(&trace_of(&izc), &trace_of(&em));
        assert_eq!(cmp.launches(), 10);
        // EM is ahead by 300us after warm-up...
        assert_eq!(cmp.advantage_at(9), 300_000);
        // ...and the per-launch difference settles after launch 3.
        assert_eq!(cmp.settled_after(VirtDuration::from_micros(1)), Some(3));
    }

    #[test]
    fn never_settling_is_reported() {
        let cmp = WarmupComparison::new(&trace_of(&[(10, 50); 5]), &trace_of(&[(10, 0); 5]));
        assert_eq!(cmp.settled_after(VirtDuration::from_micros(1)), None);
    }

    #[test]
    fn unequal_lengths_truncate() {
        let cmp = WarmupComparison::new(&trace_of(&[(1, 0); 5]), &trace_of(&[(1, 0); 3]));
        assert_eq!(cmp.launches(), 3);
        assert_eq!(cmp.advantage_at(2), 0);
    }
}

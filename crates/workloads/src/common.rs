//! The workload abstraction shared by mini-QMCPack and the SPECaccel-like
//! benchmarks.

use omp_offload::{OmpError, OmpRuntime};

/// A benchmark program that drives the OpenMP runtime.
///
/// `run` issues the complete program for *all* host threads (the runtime
/// records per-thread operation streams; timing is resolved at `finish`).
/// Workloads are immutable descriptions (`Send + Sync`), so experiment
/// sweeps can measure cells on parallel worker threads.
pub trait Workload: Send + Sync {
    /// Short identifier used in reports.
    fn name(&self) -> String;

    /// Execute the program against `rt` (one full application run).
    fn run(&self, rt: &mut OmpRuntime) -> Result<(), OmpError>;
}

/// Mebibytes, readably.
pub const MIB: u64 = 1024 * 1024;
/// Gibibytes, readably.
pub const GIB: u64 = 1024 * 1024 * 1024;

/// Scale a byte size by a factor, keeping at least one byte.
pub fn scaled(bytes: u64, scale: f64) -> u64 {
    ((bytes as f64 * scale) as u64).max(1)
}

/// Scale an iteration count, keeping at least one iteration.
pub fn scaled_iters(iters: usize, scale: f64) -> usize {
    ((iters as f64 * scale) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_floors_at_one() {
        assert_eq!(scaled(GIB, 1.0), GIB);
        assert_eq!(scaled(100, 0.0), 1);
        assert_eq!(scaled_iters(100, 0.5), 50);
        assert_eq!(scaled_iters(3, 0.0), 1);
    }
}

//! BabelStream-style memory microbenchmark.
//!
//! The classic Copy/Mul/Add/Triad/Dot kernels over three large arrays,
//! repeated for many iterations with persistent mappings. Useful as a
//! *steady-state* probe of the four configurations: after the first
//! iteration's page faults, no configuration performs per-iteration storage
//! operations, so their steady-state times converge — the offload pattern
//! where the paper's configurations are indistinguishable. The differences
//! live entirely in setup (map copies vs first-touch vs prefault).

use crate::common::{scaled, scaled_iters, Workload, MIB};
use apu_mem::AddrRange;
use omp_offload::{GpuPerf, MapEntry, OmpError, OmpRuntime, TargetRegion};
use sim_des::VirtDuration;

/// The stream microbenchmark.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Size of each of the three arrays (a, b, c).
    pub array_bytes: u64,
    /// Repetitions of the five-kernel cycle.
    pub iterations: usize,
    /// GPU throughput model.
    pub perf: GpuPerf,
}

impl Stream {
    /// The conventional default: three 256 MiB arrays, 100 iterations.
    pub fn default_size() -> Self {
        Stream {
            array_bytes: 256 * MIB,
            iterations: 100,
            perf: GpuPerf::mi300a(),
        }
    }

    /// Shrink size and iterations by `scale` (tests).
    pub fn scaled(scale: f64) -> Self {
        let d = Self::default_size();
        Stream {
            array_bytes: scaled(d.array_bytes, scale),
            iterations: scaled_iters(d.iterations, scale),
            perf: d.perf,
        }
    }

    /// Kernel reading `r` arrays and writing `w`.
    fn kernel(&self, r: u64, w: u64) -> VirtDuration {
        self.perf
            .kernel_time((r + w) * self.array_bytes, self.array_bytes / 8)
    }
}

impl Workload for Stream {
    fn name(&self) -> String {
        "babelstream".to_string()
    }

    fn run(&self, rt: &mut OmpRuntime) -> Result<(), OmpError> {
        let t = 0;
        let n = self.array_bytes;
        let mut arrays = Vec::with_capacity(3);
        for _ in 0..3 {
            let a = rt.host_alloc(t, n)?;
            let r = AddrRange::new(a, n);
            rt.host_write(t, r)?;
            arrays.push(r);
        }
        let (a, b, c) = (arrays[0], arrays[1], arrays[2]);
        rt.target_enter_data(t, &[MapEntry::to(a), MapEntry::to(b), MapEntry::to(c)])?;

        // A tiny dot-product result flows back each iteration (the only
        // recurring transfer in Copy mode, as in the real BabelStream). It
        // stays persistently mapped; `always(from)` forces the read-back.
        let dot = rt.host_alloc(t, 64)?;
        let dot_r = AddrRange::new(dot, 64);
        rt.host_write(t, dot_r)?;
        rt.target_enter_data(t, &[MapEntry::alloc(dot_r)])?;

        // Each kernel maps its arguments with their natural transfer
        // directions, as the source program would write them. The arrays are
        // already present (refcounted), so none of these re-maps transfers —
        // they are exactly the MC007 pattern the elision pass promotes.
        for _ in 0..self.iterations {
            // c = a
            rt.target(
                t,
                TargetRegion::new("stream_copy", self.kernel(1, 1))
                    .map(MapEntry::to(a))
                    .map(MapEntry::from(c)),
            )?;
            // b = scalar * c
            rt.target(
                t,
                TargetRegion::new("stream_mul", self.kernel(1, 1))
                    .map(MapEntry::from(b))
                    .map(MapEntry::to(c)),
            )?;
            // c = a + b
            rt.target(
                t,
                TargetRegion::new("stream_add", self.kernel(2, 1)).maps([
                    MapEntry::to(a),
                    MapEntry::to(b),
                    MapEntry::from(c),
                ]),
            )?;
            // a = b + scalar * c
            rt.target(
                t,
                TargetRegion::new("stream_triad", self.kernel(2, 1)).maps([
                    MapEntry::from(a),
                    MapEntry::to(b),
                    MapEntry::to(c),
                ]),
            )?;
            // dot = sum(a * b)
            rt.target(
                t,
                TargetRegion::new("stream_dot", self.kernel(2, 0))
                    .maps([MapEntry::to(a), MapEntry::to(b)])
                    .map(MapEntry::from(dot_r).always()),
            )?;
        }

        rt.target_exit_data(
            t,
            &[
                MapEntry::from(a),
                MapEntry::from(b),
                MapEntry::from(c),
                MapEntry::alloc(dot_r),
            ],
            false,
        )?;
        rt.host_free(t, dot)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_mem::CostModel;
    use hsa_rocr::Topology;
    use omp_offload::{RunReport, RuntimeConfig};

    fn run(config: RuntimeConfig, scale: f64) -> RunReport {
        let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
            .config(config)
            .build()
            .unwrap();
        Stream::scaled(scale).run(&mut rt).unwrap();
        rt.finish()
    }

    fn run_iters(config: RuntimeConfig, iterations: usize) -> u64 {
        // Full-size arrays: at realistic sizes the recurring overheads
        // (Eager Maps' prefault checks, Copy's dot read-back) are a couple
        // of percent of the kernel time; tiny scaled arrays inflate them.
        let mut w = Stream::default_size();
        w.iterations = iterations;
        let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
            .config(config)
            .build()
            .unwrap();
        w.run(&mut rt).unwrap();
        rt.finish().makespan.as_nanos()
    }

    #[test]
    fn steady_state_configs_converge() {
        // Setup and teardown differ by configuration (copies vs faults vs
        // prefaults), but the *marginal* per-iteration cost — the
        // steady-state — must converge: no configuration does recurring
        // storage work beyond the tiny dot read-back.
        let marginal: Vec<f64> = RuntimeConfig::ALL
            .iter()
            .map(|&c| (run_iters(c, 60) - run_iters(c, 20)) as f64 / 40.0)
            .collect();
        let max = marginal.iter().cloned().fold(0.0, f64::max);
        let min = marginal.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.10,
            "steady-state per-iteration times should converge, spread {:.3}",
            max / min
        );
    }

    #[test]
    fn copy_mode_transfers_only_at_boundaries() {
        let s = Stream::scaled(0.2);
        let r = run(RuntimeConfig::LegacyCopy, 0.2);
        // 3 to-copies at enter, 3 from at exit, dot read-back per iteration.
        assert_eq!(r.ledger.copies as usize, 6 + s.iterations);
        // The dot buffer is NOT churned: exactly 4 user pool allocations.
        assert_eq!(r.mem_stats.pool_allocs, 4 + 16);
    }

    #[test]
    fn kernel_count_is_five_per_iteration() {
        let s = Stream::scaled(0.2);
        let r = run(RuntimeConfig::ImplicitZeroCopy, 0.2);
        assert_eq!(r.ledger.kernels as usize, 5 * s.iterations);
    }
}

//! OpenFOAM-style `unified_shared_memory` mini-solver.
//!
//! The paper's reference [29] ports OpenFOAM to MI300A using
//! `#pragma omp requires unified_shared_memory`: the application performs
//! **no mapping at all** — host pointers (mesh connectivity, coefficient
//! matrices, field vectors) are passed straight into kernels. This workload
//! reproduces that style: every target region uses raw pointer accesses,
//! making it runnable only under the XNACK-based configurations — the
//! portability trade-off the paper calls out for USM binaries.

use crate::common::{scaled, scaled_iters, Workload, MIB};
use apu_mem::AddrRange;
use omp_offload::{GpuPerf, OmpError, OmpRuntime, TargetRegion};
use sim_des::VirtDuration;

/// The USM-style CFD mini-solver.
#[derive(Debug, Clone)]
pub struct OpenFoamMini {
    /// Mesh connectivity (owner/neighbour lists), host-built.
    pub mesh_bytes: u64,
    /// Coefficient matrix, rebuilt on the host each outer iteration.
    pub matrix_bytes: u64,
    /// Field vectors (p, U, flux...), shared CPU/GPU.
    pub field_bytes: u64,
    /// Outer (time-step) iterations.
    pub outer_iters: usize,
    /// Inner (linear-solver) sweeps per outer iteration.
    pub inner_sweeps: usize,
    /// GPU throughput model.
    pub perf: GpuPerf,
}

impl OpenFoamMini {
    /// A motorbike-tutorial-class case.
    pub fn default_case() -> Self {
        OpenFoamMini {
            mesh_bytes: 512 * MIB,
            matrix_bytes: 768 * MIB,
            field_bytes: 256 * MIB,
            outer_iters: 20,
            inner_sweeps: 30,
            perf: GpuPerf::mi300a(),
        }
    }

    /// Shrink the case by `scale` (tests).
    pub fn scaled(scale: f64) -> Self {
        let d = Self::default_case();
        OpenFoamMini {
            mesh_bytes: scaled(d.mesh_bytes, scale),
            matrix_bytes: scaled(d.matrix_bytes, scale),
            field_bytes: scaled(d.field_bytes, scale),
            outer_iters: scaled_iters(d.outer_iters, scale.sqrt()),
            inner_sweeps: d.inner_sweeps,
            perf: d.perf,
        }
    }

    fn smoother_kernel(&self) -> VirtDuration {
        self.perf
            .kernel_time(self.matrix_bytes + 2 * self.field_bytes, self.field_bytes)
    }

    fn assembly_kernel(&self) -> VirtDuration {
        self.perf
            .kernel_time(self.mesh_bytes + self.matrix_bytes, self.matrix_bytes / 4)
    }
}

impl Workload for OpenFoamMini {
    fn name(&self) -> String {
        "openfoam-mini-usm".to_string()
    }

    fn run(&self, rt: &mut OmpRuntime) -> Result<(), OmpError> {
        let t = 0;
        let alloc_touched = |rt: &mut OmpRuntime, len: u64| -> Result<AddrRange, OmpError> {
            let a = rt.host_alloc(t, len)?;
            let r = AddrRange::new(a, len);
            rt.host_write(t, r)?;
            Ok(r)
        };
        // Everything is plain host memory; nothing is ever mapped.
        let mesh = alloc_touched(rt, self.mesh_bytes)?;
        let matrix = alloc_touched(rt, self.matrix_bytes)?;
        let fields = alloc_touched(rt, self.field_bytes)?;
        rt.host_compute(t, VirtDuration::from_millis(20)); // decompose + read case

        for _outer in 0..self.outer_iters {
            // Host rebuilds boundary coefficients (CPU writes the matrix the
            // GPU will read — zero-copy visibility, no update directives).
            rt.host_compute(t, VirtDuration::from_micros(400));
            rt.target(
                t,
                TargetRegion::new("fvm_assemble", self.assembly_kernel())
                    .access(mesh)
                    .access(matrix),
            )?;
            for _sweep in 0..self.inner_sweeps {
                rt.target(
                    t,
                    TargetRegion::new("pcg_smooth", self.smoother_kernel())
                        .access(matrix)
                        .access(fields),
                )?;
            }
            // Residual check on the host: it reads the field vectors the
            // GPU just wrote, again with no transfers.
            rt.host_compute(t, VirtDuration::from_micros(150));
        }
        rt.host_free(t, mesh.start)?;
        rt.host_free(t, matrix.start)?;
        rt.host_free(t, fields.start)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_mem::CostModel;
    use hsa_rocr::Topology;
    use omp_offload::{OmpError, RuntimeConfig};

    fn run(config: RuntimeConfig) -> Result<omp_offload::RunReport, OmpError> {
        let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
            .config(config)
            .build()?;
        OpenFoamMini::scaled(0.05).run(&mut rt)?;
        Ok(rt.finish())
    }

    #[test]
    fn runs_under_xnack_configurations_only() {
        for config in [
            RuntimeConfig::UnifiedSharedMemory,
            RuntimeConfig::ImplicitZeroCopy,
        ] {
            let r = run(config).unwrap_or_else(|e| panic!("{config}: {e}"));
            assert_eq!(r.ledger.copies, 0);
            assert_eq!(r.ledger.maps, 0); // truly map-free
            assert!(r.mem_stats.xnack_pages() > 0);
        }
        for config in [RuntimeConfig::LegacyCopy, RuntimeConfig::EagerMaps] {
            let err = run(config).expect_err("USM binary must not run here");
            assert!(matches!(
                err,
                OmpError::Mem(apu_mem::MemError::GpuFatalFault { .. })
            ));
        }
    }

    #[test]
    fn faults_are_one_off_across_the_solve() {
        let r = run(RuntimeConfig::UnifiedSharedMemory).unwrap();
        let w = OpenFoamMini::scaled(0.05);
        let page = 2 * 1024 * 1024;
        let expected = w.mesh_bytes.div_ceil(page)
            + w.matrix_bytes.div_ceil(page)
            + w.field_bytes.div_ceil(page);
        // Host-initialized: all replays; each page faults exactly once even
        // across outer_iters * inner_sweeps kernel launches.
        assert_eq!(r.ledger.replayed_pages, expected);
        assert_eq!(r.ledger.zero_filled_pages, 0);
    }
}

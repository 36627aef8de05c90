//! The measurements behind EXPERIMENTS.md's "Extensions beyond the paper's
//! tables": systems from the paper's context rather than its evaluation.
//! `examples/apu_vs_discrete` and `examples/multi_socket` print them, and
//! `tests/extensions.rs` pins what EXPERIMENTS.md states about them.
//!
//! * [`porting_story`]: the same QMCPack run on a discrete GPU and on the
//!   APU.
//! * [`oversubscription`]: an ep-style working set under Implicit
//!   Zero-Copy on both systems, up to past the discrete device's VRAM.
//! * [`weak_scaling`]: a domain-decomposed stencil on a multi-socket card
//!   (paper §III-A), one rank per socket.

use apu_mem::{AddrRange, CostModel, DiscreteSpec, SystemKind, VirtAddr};
use hsa_rocr::Topology;
use omp_offload::{
    CardRuntime, MapEntry, OmpError, OmpRuntime, RunReport, RuntimeConfig, TargetRegion,
};
use sim_des::VirtDuration;
use workloads::{spec::Ep, NioSize, QmcPack, Workload};

fn run(
    w: &dyn Workload,
    kind: SystemKind,
    config: RuntimeConfig,
    threads: usize,
) -> Result<RunReport, OmpError> {
    let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(config)
        .system(kind)
        .threads(threads)
        .build()?;
    w.run(&mut rt)?;
    Ok(rt.finish())
}

fn discrete() -> SystemKind {
    SystemKind::Discrete(DiscreteSpec::mi200_class())
}

fn speedup(slow: VirtDuration, fast: VirtDuration) -> f64 {
    slow.as_nanos() as f64 / fast.as_nanos() as f64
}

/// Makespans of QMCPack S8 (120 steps, 4 host threads) on an MI200-class
/// discrete GPU under Copy, and on the APU under Copy and Implicit
/// Zero-Copy: the porting story the APU architecture offers.
#[derive(Debug, Clone, Copy)]
pub struct PortingStory {
    /// Discrete GPU, Copy: the starting point.
    pub discrete_copy: VirtDuration,
    /// APU, Copy: the same binary recompiled.
    pub apu_copy: VirtDuration,
    /// APU, Implicit Zero-Copy.
    pub apu_izc: VirtDuration,
}

impl PortingStory {
    /// The APU's speedup over the discrete device from its HBM-speed
    /// copies alone (Copy on both).
    pub fn copy_speedup(&self) -> f64 {
        speedup(self.discrete_copy, self.apu_copy)
    }

    /// The APU's speedup over the discrete device once zero-copy folds
    /// the copies too.
    pub fn zero_copy_speedup(&self) -> f64 {
        speedup(self.discrete_copy, self.apu_izc)
    }
}

/// Measure the [`PortingStory`].
pub fn porting_story() -> Result<PortingStory, OmpError> {
    let w = QmcPack::nio(NioSize { factor: 8 }).with_steps(120);
    Ok(PortingStory {
        discrete_copy: run(&w, discrete(), RuntimeConfig::LegacyCopy, 4)?.makespan,
        apu_copy: run(&w, SystemKind::Apu, RuntimeConfig::LegacyCopy, 4)?.makespan,
        apu_izc: run(&w, SystemKind::Apu, RuntimeConfig::ImplicitZeroCopy, 4)?.makespan,
    })
}

/// The working sets [`oversubscription`] is measured at, in GiB: three
/// that fit the discrete device's 64 GiB of VRAM and one that does not.
pub const OVERSUBSCRIPTION_GIB: [u64; 4] = [8, 32, 56, 96];

/// One working-set size of the unified-memory oversubscription sweep.
#[derive(Debug, Clone, Copy)]
pub struct OversubscriptionPoint {
    /// Working set in GiB.
    pub gib: u64,
    /// APU makespan.
    pub apu: VirtDuration,
    /// Discrete-GPU makespan.
    pub discrete: VirtDuration,
    /// Pages the discrete device migrated over its link.
    pub migrated_pages: u64,
    /// Pages the discrete device evicted from VRAM.
    pub evicted_pages: u64,
}

/// 452.ep with a `gib` GiB working set (10 batches) under Implicit
/// Zero-Copy with one host thread, on the APU and on the discrete device
/// (the oversubscription collapse of the paper's related work, ref. 18).
pub fn oversubscription(gib: u64) -> Result<OversubscriptionPoint, OmpError> {
    let mut ep = Ep::scaled(1.0);
    ep.array_bytes = gib << 30;
    ep.batches = 10;
    let apu = run(&ep, SystemKind::Apu, RuntimeConfig::ImplicitZeroCopy, 1)?;
    let d = run(&ep, discrete(), RuntimeConfig::ImplicitZeroCopy, 1)?;
    Ok(OversubscriptionPoint {
        gib,
        apu: apu.makespan,
        discrete: d.makespan,
        migrated_pages: d.mem_stats.migrated_pages,
        evicted_pages: d.mem_stats.evicted_pages,
    })
}

/// Each socket's slab of the stencil domain.
const SLAB_BYTES: u64 = 64 << 20;
/// Boundary rows exchanged with the right neighbour after every sweep.
const HALO_BYTES: u64 = 256 << 10;
/// Stencil sweeps per run.
const SWEEPS: usize = 40;

/// The socket counts [`weak_scaling`] is measured at.
pub const WEAK_SCALING_SOCKETS: [usize; 3] = [1, 2, 4];

/// One card size of the multi-socket weak-scaling run.
#[derive(Debug, Clone, Copy)]
pub struct WeakScalingPoint {
    /// Sockets, one rank each.
    pub sockets: usize,
    /// Card makespan.
    pub makespan: VirtDuration,
    /// Halo bytes moved over the xGMI fabric.
    pub exchanged_bytes: u64,
}

impl WeakScalingPoint {
    /// Weak-scaling efficiency against `base` (the single-socket run):
    /// per-socket work is constant, so ideal scaling keeps the makespan.
    pub fn efficiency(&self, base: &WeakScalingPoint) -> f64 {
        speedup(base.makespan, self.makespan)
    }
}

/// A domain-decomposed stencil on a `sockets`-socket card under Implicit
/// Zero-Copy: each socket sweeps its own slab in its own HBM, then
/// neighbouring ranks exchange halo rows over the xGMI fabric (a ring).
pub fn weak_scaling(sockets: usize) -> Result<WeakScalingPoint, OmpError> {
    let mut card = CardRuntime::new(
        CostModel::mi300a(),
        Topology::default(),
        RuntimeConfig::ImplicitZeroCopy,
        sockets,
        1,
    )?;

    // Each rank allocates and initializes its slab.
    let mut slabs: Vec<VirtAddr> = Vec::new();
    for s in 0..sockets {
        let rt = card.socket(s);
        let slab = rt.host_alloc(0, SLAB_BYTES)?;
        rt.mem_mut().host_touch(AddrRange::new(slab, SLAB_BYTES))?;
        rt.target_enter_data(0, &[MapEntry::to(AddrRange::new(slab, SLAB_BYTES))])?;
        slabs.push(slab);
    }

    for _sweep in 0..SWEEPS {
        // Local sweeps, all sockets in parallel.
        for (s, &slab) in slabs.iter().enumerate() {
            card.socket(s).target(
                0,
                TargetRegion::new("halo_stencil_sweep", VirtDuration::from_micros(120))
                    .map(MapEntry::alloc(AddrRange::new(slab, SLAB_BYTES))),
            )?;
        }
        // Halo exchange with the right neighbour: my top boundary goes
        // into the neighbour's ghost region.
        if sockets > 1 {
            for s in 0..sockets {
                let right = (s + 1) % sockets;
                card.exchange(
                    s,
                    slabs[s],
                    right,
                    slabs[right].offset(HALO_BYTES),
                    HALO_BYTES,
                )?;
            }
        }
    }

    for (s, slab) in slabs.iter().enumerate() {
        card.socket(s).target_exit_data(
            0,
            &[MapEntry::from(AddrRange::new(*slab, SLAB_BYTES))],
            false,
        )?;
    }

    let report = card.finish();
    Ok(WeakScalingPoint {
        sockets,
        makespan: report.makespan,
        exchanged_bytes: report.exchanged_bytes,
    })
}

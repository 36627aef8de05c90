//! System kind: APU vs discrete GPU.
//!
//! The paper's entire premise is the contrast between the MI300A APU (one
//! physical storage, zero-copy possible) and classical discrete-GPU nodes
//! (separate VRAM, host-device interconnect, page *migration* under unified
//! memory). This module models the discrete side so the repository can
//! reproduce that contrast and the related-work findings the paper builds
//! on (unified-memory slowdowns and oversubscription collapse on discrete
//! GPUs — its references [18], [19]).

use sim_des::VirtDuration;

/// What kind of memory system the device has.
#[derive(Debug, Clone)]
pub enum SystemKind {
    /// APU: CPU and GPU share one physical HBM storage. Map-triggered
    /// copies are HBM-to-HBM; unified-memory first touch installs a
    /// translation (XNACK replay / zero-fill) without moving data.
    Apu,
    /// Discrete GPU: separate VRAM behind an interconnect.
    Discrete(DiscreteSpec),
}

impl SystemKind {
    /// Is this an APU (drives `RunEnv::is_apu`)?
    pub fn is_apu(&self) -> bool {
        matches!(self, SystemKind::Apu)
    }
}

/// Parameters of a discrete-GPU memory system.
#[derive(Debug, Clone)]
pub struct DiscreteSpec {
    /// Device memory capacity. Pool allocations beyond this fail; unified
    /// memory beyond this *thrashes* (pages evict and re-migrate).
    pub vram_bytes: u64,
    /// Host<->device interconnect bandwidth (bytes/s): PCIe or xGMI. Map
    /// copies and page migrations move at this rate, far below HBM.
    pub link_bandwidth: u64,
    /// Fixed per-page overhead of a unified-memory page migration on GPU
    /// first touch (fault handling + transfer setup), on top of the page's
    /// transfer time over the link.
    pub migrate_per_page: VirtDuration,
}

impl DiscreteSpec {
    /// An MI210/MI250-class discrete accelerator: 64 GiB VRAM, ~50 GB/s
    /// effective host link, tens of microseconds per page migration.
    pub fn mi200_class() -> Self {
        DiscreteSpec {
            vram_bytes: 64 * 1024 * 1024 * 1024,
            link_bandwidth: 50_000_000_000,
            migrate_per_page: VirtDuration::from_micros(20),
        }
    }

    /// Time to move one `page_bytes`-sized page over the link, including
    /// the per-page migration overhead.
    pub fn migration_cost(&self, page_bytes: u64) -> VirtDuration {
        self.migrate_per_page + sim_des::transfer_time(page_bytes, self.link_bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(SystemKind::Apu.is_apu());
        assert!(!SystemKind::Discrete(DiscreteSpec::mi200_class()).is_apu());
    }

    #[test]
    fn migration_cost_scales_with_page_size() {
        let d = DiscreteSpec::mi200_class();
        let small = d.migration_cost(4 * 1024);
        let huge = d.migration_cost(2 * 1024 * 1024);
        assert!(huge > small);
        // A 2 MiB page at 50 GB/s is ~40 us of transfer + 20 us overhead.
        assert!(huge > VirtDuration::from_micros(50));
        assert!(huge < VirtDuration::from_micros(100));
    }
}

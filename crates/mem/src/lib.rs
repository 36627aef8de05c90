//! # apu-mem — simulated MI300A memory subsystem
//!
//! Models the part of the APU the paper's runtime configurations exercise:
//! a **single physical HBM storage** shared by CPU and GPU, per-agent page
//! tables, a capacity-bounded GPU TLB, the **XNACK replay** protocol that
//! installs GPU translations on first touch, the host-side **prefault**
//! syscall path (`svm_attributes_set`) used by Eager Maps, and OS- vs
//! pool-allocator semantics (pool allocations bulk-populate the GPU page
//! table; OS allocations do not).
//!
//! Allocations are backed by *real bytes* (sparsely materialized), so the
//! OpenMP layer above can validate zero-copy visibility semantics — CPU
//! writes seen by the GPU through the same physical pages — not just model
//! time. Every operation returns the virtual-time cost it charges according
//! to a documented, calibrated [`CostModel`].
//!
//! ```
//! use apu_mem::{AddrRange, ApuMemory, CostModel, XnackMode};
//!
//! let mut mem = ApuMemory::new(CostModel::mi300a());
//! let a = mem.host_alloc(1 << 20).unwrap();
//! mem.host_touch(AddrRange::new(a.addr, 1 << 20)).unwrap(); // CPU initializes
//! // First GPU touch of OS-allocated memory XNACK-faults once per page...
//! let o = mem.gpu_access(&[AddrRange::new(a.addr, 1 << 20)], XnackMode::Enabled).unwrap();
//! assert_eq!(o.replayed_pages, 1); // one 2 MiB THP page covers 1 MiB
//! // ...and never again.
//! let o2 = mem.gpu_access(&[AddrRange::new(a.addr, 1 << 20)], XnackMode::Enabled).unwrap();
//! assert_eq!(o2.faulted_pages(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod apu;
mod cost;
mod error;
mod page_table;
mod phys;
mod report;
mod runs;
mod system;
mod tlb;
mod vma;

pub use addr::{AddrRange, PageSize, PhysAddr, VirtAddr};
pub use apu::{
    AllocOutcome, ApuMemory, FreeOutcome, GpuAccessOutcome, MemOptions, MemStats, PrefaultOutcome,
    XnackMode, HOST_VA_BASE, POOL_VA_BASE,
};
pub use cost::CostModel;
pub use error::MemError;
pub use page_table::PageTable;
pub use phys::PhysicalMemory;
pub use report::MemoryReport;
pub use system::{DiscreteSpec, SystemKind};
pub use tlb::Tlb;
pub use vma::{Backing, Vma, VmaTable};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_mem() -> ApuMemory {
        ApuMemory::with_capacity(CostModel::mi300a_no_thp(), 256 * 1024 * 1024)
    }

    proptest! {
        /// XNACK faults are one-off per page: across any access pattern the
        /// total pages faulted never exceeds the pages allocated, and a
        /// range never faults twice.
        #[test]
        fn xnack_faults_are_one_off(
            sizes in proptest::collection::vec(1u64..200_000, 1..8),
            order in proptest::collection::vec(0usize..8, 1..32),
        ) {
            let mut m = small_mem();
            let allocs: Vec<_> = sizes.iter().map(|&s| m.host_alloc(s).unwrap()).collect();
            let mut faulted = vec![false; allocs.len()];
            for &i in &order {
                let i = i % allocs.len();
                let a = &allocs[i];
                let r = AddrRange::new(a.addr, a.pages * 4096);
                let o = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
                if faulted[i] {
                    prop_assert_eq!(o.faulted_pages(), 0);
                } else {
                    prop_assert_eq!(o.faulted_pages(), a.pages);
                    prop_assert_eq!(o.zero_filled_pages, a.pages); // untouched memory
                    faulted[i] = true;
                }
            }
        }

        /// Prefault is idempotent and always leaves the range fault-free,
        /// and new+present always equals the page count of the range.
        #[test]
        fn prefault_partition_is_exact(
            size in 1u64..300_000,
            split in 0.0f64..1.0,
        ) {
            let mut m = small_mem();
            let a = m.host_alloc(size).unwrap();
            let total = a.pages * 4096;
            let first_len = ((total as f64 * split) as u64).clamp(1, total);
            let r1 = AddrRange::new(a.addr, first_len);
            let rall = AddrRange::new(a.addr, total);
            let p1 = m.prefault(r1).unwrap();
            let p2 = m.prefault(rall).unwrap();
            prop_assert_eq!(p1.present_pages, 0);
            prop_assert_eq!(p1.new_pages() + p2.new_pages(), a.pages);
            prop_assert_eq!(p2.present_pages, p1.new_pages());
            let o = m.gpu_access(&[rall], XnackMode::Disabled).unwrap();
            prop_assert_eq!(o.faulted_pages(), 0);
        }

        /// Content round-trips through any mix of CPU writes and GPU reads
        /// once translations exist (zero-copy visibility).
        #[test]
        fn content_roundtrip(data in proptest::collection::vec(any::<u8>(), 1..20_000)) {
            let mut m = small_mem();
            let a = m.host_alloc(data.len() as u64).unwrap();
            m.cpu_write(a.addr, &data).unwrap();
            m.gpu_access(&[AddrRange::new(a.addr, data.len() as u64)], XnackMode::Enabled).unwrap();
            let mut back = vec![0u8; data.len()];
            m.gpu_read(a.addr, &mut back).unwrap();
            prop_assert_eq!(back, data);
        }

        /// Allocate/free cycles release everything.
        #[test]
        fn alloc_free_conserves_phys(sizes in proptest::collection::vec(1u64..100_000, 1..16)) {
            let mut m = small_mem();
            let mut addrs = Vec::new();
            for &s in &sizes {
                addrs.push(m.host_alloc(s).unwrap().addr);
            }
            for a in addrs {
                m.host_free(a).unwrap();
            }
            prop_assert_eq!(m.live_vmas(), 0);
            prop_assert_eq!(m.cpu_pt().len(), 0);
            prop_assert_eq!(m.gpu_pt().len(), 0);
        }
    }
}

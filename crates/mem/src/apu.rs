//! The unified APU memory subsystem facade.
//!
//! One `ApuMemory` models a single MI300A socket's memory: a single physical
//! HBM storage, a CPU page table populated by demand paging (host first
//! touch), a GPU page table populated either in bulk (pool allocations,
//! host-side prefaulting) or page-by-page by the XNACK protocol, and a
//! capacity-bounded GPU TLB. Every operation returns both its functional
//! result and the virtual time it charges.
//!
//! GPU first touch distinguishes two regimes (see [`CostModel`]): an *XNACK
//! replay* of a CPU-touched page (cheap) and a *zero-fill fault* on memory
//! no agent ever touched (the OS allocates and zeroes the page inside the
//! handler — expensive, the paper's 452.ep case).
//!
//! # Extent fast paths
//!
//! The fault, prefault, touch, and teardown paths classify whole address
//! ranges into present / replay / zero-fill sub-extents by set algebra
//! against the extent-based CPU and GPU page tables, then charge stalls and
//! TLB statistics arithmetically per sub-extent. The work per operation is
//! O(extents touched), not O(pages), while every observable value — page
//! counts, `MemStats`, TLB hit/miss/eviction counters, virtual-time charges,
//! and error addresses — is bit-identical to the page-at-a-time loops. The
//! original per-page implementation is retained as a reference oracle:
//! enable it with [`ApuMemory::set_pagewise`] or [`MemOptions::pagewise`].

use crate::addr::{AddrRange, PageSize, PhysAddr, VirtAddr};
use crate::cost::CostModel;
use crate::error::MemError;
use crate::page_table::PageTable;
use crate::phys::PhysicalMemory;
use crate::runs::{RunFifo, RunSet};
use crate::system::{DiscreteSpec, SystemKind};
use crate::tlb::Tlb;
use crate::vma::{Backing, Vma, VmaTable};
use sim_des::VirtDuration;

/// Whether Unified Memory (XNACK) support is enabled in the run environment
/// (`HSA_XNACK=1` on the real system).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XnackMode {
    /// GPU faults are replayed (Unified Memory).
    Enabled,
    /// GPU faults are fatal.
    Disabled,
}

/// Result of a host or pool allocation.
#[derive(Debug, Clone, Copy)]
pub struct AllocOutcome {
    /// Base virtual address of the allocation.
    pub addr: VirtAddr,
    /// Pages reserved.
    pub pages: u64,
    /// Virtual-time cost of the allocation call.
    pub cost: VirtDuration,
}

/// Result of a free.
#[derive(Debug, Clone, Copy)]
pub struct FreeOutcome {
    /// Pages released.
    pub pages: u64,
    /// Virtual-time cost of the free call.
    pub cost: VirtDuration,
}

/// Result of a GPU access-set resolution for one kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuAccessOutcome {
    /// Pages the access set covers.
    pub pages_touched: u64,
    /// CPU-touched pages XNACK-replayed into the GPU page table.
    pub replayed_pages: u64,
    /// Never-touched pages allocated + zeroed inside the fault handler.
    pub zero_filled_pages: u64,
    /// TLB misses on pages that already had translations.
    pub tlb_misses: u64,
    /// Discrete GPUs only: pages migrated over the interconnect on first
    /// touch (unified-memory demand paging).
    pub migrated_pages: u64,
    /// Discrete GPUs only: resident pages evicted to make room (VRAM
    /// oversubscription thrashing).
    pub evicted_pages: u64,
    /// Total GPU stall added to the kernel's execution time.
    pub stall: VirtDuration,
}

impl GpuAccessOutcome {
    /// All pages that faulted (any regime, including migrations).
    pub fn faulted_pages(&self) -> u64 {
        self.replayed_pages + self.zero_filled_pages + self.migrated_pages
    }

    fn merge(&mut self, other: GpuAccessOutcome) {
        self.pages_touched += other.pages_touched;
        self.replayed_pages += other.replayed_pages;
        self.zero_filled_pages += other.zero_filled_pages;
        self.tlb_misses += other.tlb_misses;
        self.migrated_pages += other.migrated_pages;
        self.evicted_pages += other.evicted_pages;
        self.stall += other.stall;
    }
}

/// Result of a host-side GPU page-table prefault (`svm_attributes_set`).
#[derive(Debug, Clone, Copy)]
pub struct PrefaultOutcome {
    /// CPU-touched pages whose GPU entries were inserted.
    pub inserted_pages: u64,
    /// Never-touched pages allocated + zeroed + inserted from the host.
    pub zero_filled_pages: u64,
    /// Pages already present in the GPU page table (re-check only).
    pub present_pages: u64,
    /// Host-side (syscall) cost.
    pub cost: VirtDuration,
}

impl PrefaultOutcome {
    /// Pages that gained a GPU translation from this call.
    pub fn new_pages(&self) -> u64 {
        self.inserted_pages + self.zero_filled_pages
    }
}

/// Lifetime counters for the memory subsystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    /// Host (OS) allocations performed.
    pub host_allocs: u64,
    /// Pool allocations performed.
    pub pool_allocs: u64,
    /// GPU faulting episodes.
    pub xnack_events: u64,
    /// Pages XNACK-replayed (CPU-touched regime).
    pub xnack_replayed_pages: u64,
    /// Pages zero-filled inside the GPU fault handler.
    pub xnack_zero_fill_pages: u64,
    /// Prefault syscalls issued.
    pub prefault_calls: u64,
    /// Pages inserted by prefaults (CPU-touched regime).
    pub prefault_inserted_pages: u64,
    /// Pages zero-filled by prefaults.
    pub prefault_zero_fill_pages: u64,
    /// Already-present pages re-checked by prefaults.
    pub prefault_present_pages: u64,
    /// Bytes moved by DMA copies.
    pub bytes_copied: u64,
    /// Discrete GPUs only: unified-memory pages migrated to VRAM.
    pub migrated_pages: u64,
    /// Discrete GPUs only: pages evicted under VRAM pressure.
    pub evicted_pages: u64,
}

impl MemStats {
    /// Pages faulted on the GPU in either regime.
    pub fn xnack_pages(&self) -> u64 {
        self.xnack_replayed_pages + self.xnack_zero_fill_pages
    }

    /// Pages that gained translations via prefaults.
    pub fn prefault_new_pages(&self) -> u64 {
        self.prefault_inserted_pages + self.prefault_zero_fill_pages
    }
}

/// Base of the host bump allocator's VA region. Public so the tenant layer
/// can carve disjoint per-tenant windows above it (see
/// [`MemOptions::va_shift`]).
pub const HOST_VA_BASE: u64 = 0x5000_0000_0000;
/// Base of the device-pool bump allocator's VA region. `HOST_VA_BASE +
/// va_shift` windows must stay below this, which is what bounds the tenant
/// count.
pub const POOL_VA_BASE: u64 = 0x7000_0000_0000;

/// Typed construction options for [`ApuMemory`], passed down from the
/// runtime builder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemOptions {
    /// Use the per-page reference implementation instead of the extent
    /// fast paths (equivalence testing / ablation).
    pub pagewise: bool,
    /// Override the HBM capacity in bytes (tests); `None` keeps the full
    /// MI300A 128 GiB socket.
    pub capacity: Option<u64>,
    /// Offset added to both bump-allocator bases ([`HOST_VA_BASE`],
    /// [`POOL_VA_BASE`]). A multi-tenant runtime gives every tenant a
    /// disjoint VA window over one shared mapping table by shifting each
    /// tenant's memory image; `0` (the default) reproduces the historical
    /// layout exactly.
    pub va_shift: u64,
}

impl MemOptions {
    /// Set the per-page reference-implementation flag.
    pub fn pagewise(mut self, pagewise: bool) -> Self {
        self.pagewise = pagewise;
        self
    }

    /// Override the HBM capacity in bytes.
    pub fn capacity(mut self, bytes: u64) -> Self {
        self.capacity = Some(bytes);
        self
    }

    /// Shift both VA bump-allocator bases (per-tenant address windows).
    pub fn va_shift(mut self, shift: u64) -> Self {
        self.va_shift = shift;
        self
    }
}

/// A single APU socket's memory subsystem.
#[derive(Debug)]
pub struct ApuMemory {
    cost: CostModel,
    kind: SystemKind,
    /// Discrete only: VRAM bytes consumed by pool allocations.
    vram_used: u64,
    /// Discrete only: FIFO of unified-memory pages resident in VRAM.
    um_resident: RunFifo,
    um_resident_set: RunSet,
    phys: PhysicalMemory,
    vmas: VmaTable,
    cpu_pt: PageTable,
    gpu_pt: PageTable,
    gpu_tlb: Tlb,
    host_brk: u64,
    pool_brk: u64,
    stats: MemStats,
    /// Use the per-page reference implementation instead of the extent
    /// fast paths (equivalence testing / ablation).
    pagewise: bool,
}

impl ApuMemory {
    /// The canonical constructor: a memory system of the given kind with
    /// typed [`MemOptions`]. All other constructors delegate here.
    pub fn with_options(cost: CostModel, kind: SystemKind, opts: MemOptions) -> Self {
        let tlb = Tlb::new(cost.gpu_tlb_entries);
        let ps = cost.page_size;
        ApuMemory {
            cost,
            kind,
            vram_used: 0,
            um_resident: RunFifo::new(),
            um_resident_set: RunSet::new(),
            phys: match opts.capacity {
                Some(bytes) => PhysicalMemory::new(bytes),
                None => PhysicalMemory::mi300a(),
            },
            vmas: VmaTable::new(),
            cpu_pt: PageTable::with_page_size(ps),
            gpu_pt: PageTable::with_page_size(ps),
            gpu_tlb: tlb,
            host_brk: HOST_VA_BASE + opts.va_shift,
            pool_brk: POOL_VA_BASE + opts.va_shift,
            stats: MemStats::default(),
            pagewise: opts.pagewise,
        }
    }

    /// A socket with the full 128 GiB of MI300A HBM.
    pub fn new(cost: CostModel) -> Self {
        Self::with_options(cost, SystemKind::Apu, MemOptions::default())
    }

    /// A socket with a custom HBM capacity (tests).
    pub fn with_capacity(cost: CostModel, capacity: u64) -> Self {
        Self::with_options(
            cost,
            SystemKind::Apu,
            MemOptions::default().capacity(capacity),
        )
    }

    /// The system kind.
    pub fn kind(&self) -> &SystemKind {
        &self.kind
    }

    /// Discrete only: VRAM bytes consumed by pool allocations.
    pub fn vram_used(&self) -> u64 {
        self.vram_used
    }

    /// Discrete only: unified-memory pages currently resident in VRAM.
    pub fn um_resident_pages(&self) -> u64 {
        self.um_resident.len_pages()
    }

    /// Switch between the extent fast paths (default) and the per-page
    /// reference implementation. The two are observably identical; the
    /// reference path exists as an oracle for equivalence tests and for the
    /// bookkeeping ablation benchmark. Also settable at construction via
    /// [`MemOptions::pagewise`].
    pub fn set_pagewise(&mut self, pagewise: bool) {
        self.pagewise = pagewise;
    }

    /// True when the per-page reference implementation is active.
    pub fn is_pagewise(&self) -> bool {
        self.pagewise
    }

    fn discrete(&self) -> Option<&DiscreteSpec> {
        match &self.kind {
            SystemKind::Apu => None,
            SystemKind::Discrete(d) => Some(d),
        }
    }

    /// Duration of a DMA transfer between `src` and `dst`. On the APU every
    /// copy is HBM-to-HBM; on a discrete GPU a copy with exactly one
    /// device-pool side crosses the interconnect.
    pub fn transfer_duration(&self, src: VirtAddr, dst: VirtAddr, len: u64) -> VirtDuration {
        let Some(d) = self.discrete() else {
            return self.cost.copy_duration(len);
        };
        let is_dev = |a: VirtAddr| {
            self.vmas
                .find(a)
                .map(|v| v.backing == crate::vma::Backing::DevicePool)
                .unwrap_or(false)
        };
        if is_dev(src) != is_dev(dst) {
            sim_des::transfer_time(len, d.link_bandwidth)
        } else {
            self.cost.copy_duration(len)
        }
    }

    /// The active cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The page granularity in force.
    pub fn page_size(&self) -> PageSize {
        self.cost.page_size
    }

    /// Lifetime counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// The CPU page table (demand-paging state).
    pub fn cpu_pt(&self) -> &PageTable {
        &self.cpu_pt
    }

    /// The GPU page table.
    pub fn gpu_pt(&self) -> &PageTable {
        &self.gpu_pt
    }

    /// The GPU TLB model.
    pub fn gpu_tlb(&self) -> &Tlb {
        &self.gpu_tlb
    }

    /// Live allocation count.
    pub fn live_vmas(&self) -> usize {
        self.vmas.len()
    }

    /// Iterate live allocations.
    pub fn vmas(&self) -> impl Iterator<Item = &crate::vma::Vma> {
        self.vmas.iter()
    }

    /// Walk the content of `vma`, one of [`vmas`](Self::vmas), in place:
    /// the spans of [`PhysicalMemory::spans`] over its `range.len` bytes.
    /// A VMA is physically contiguous from `vma.phys`, so the walk needs no
    /// address translation and cannot fail.
    pub fn vma_spans(&self, vma: &Vma, f: impl FnMut(Option<&[u8]>, u64)) {
        self.phys.spans(vma.phys, vma.range.len, f);
    }

    /// Real backing bytes currently materialized in the content store.
    pub fn resident_content_bytes(&self) -> u64 {
        self.phys.resident_bytes()
    }

    fn page_bytes(&self) -> u64 {
        self.cost.page_size.bytes()
    }

    fn round_up(&self, len: u64) -> u64 {
        let ps = self.page_bytes();
        len.div_ceil(ps) * ps
    }

    /// First page index and page count covering `range` (empty -> count 0).
    fn page_span(&self, range: &AddrRange) -> (u64, u64) {
        if range.is_empty() {
            return (0, 0);
        }
        let pb = self.page_bytes();
        let count = self.cost.page_size.pages_covering(range.start, range.len);
        (range.start.as_u64() / pb, count)
    }

    /// Physical address backing `vpage` under `vma`.
    fn vma_page_phys(vma: &Vma, vpage: u64, pb: u64) -> PhysAddr {
        let off = vpage * pb - vma.range.start.align_down(pb).as_u64();
        vma.phys.offset(off)
    }

    /// OS allocation (malloc/mmap path). Pages are *reserved, not touched*:
    /// neither the CPU nor the GPU page table gains entries until first
    /// touch ([`host_touch`](Self::host_touch)) or a prefault.
    pub fn host_alloc(&mut self, len: u64) -> Result<AllocOutcome, MemError> {
        if len == 0 {
            return Err(MemError::ZeroSizedAllocation);
        }
        let alen = self.round_up(len);
        let phys = self.phys.alloc(alen, self.page_bytes())?;
        let addr = VirtAddr(self.host_brk);
        self.host_brk += alen + self.page_bytes(); // guard gap
        self.vmas.insert(Vma {
            range: AddrRange::new(addr, alen),
            backing: Backing::HostOs,
            phys,
        });
        self.stats.host_allocs += 1;
        Ok(AllocOutcome {
            addr,
            pages: alen / self.page_bytes(),
            cost: self.cost.host_alloc_base,
        })
    }

    /// CPU first touch of `range` (host-side initialization): populates the
    /// CPU page table by demand paging. Returns pages newly touched. Both
    /// configurations pay this equally, so no cost is charged.
    pub fn host_touch(&mut self, range: AddrRange) -> Result<u64, MemError> {
        let vma = self
            .vmas
            .find_covering(&range)
            .ok_or(MemError::RangeOutsideAllocation {
                addr: range.start,
                len: range.len,
            })?
            .clone();
        let ps = self.cost.page_size;
        let pb = ps.bytes();
        if self.pagewise {
            let mut newly = 0;
            for vpage in range.page_indices(ps) {
                if !self.cpu_pt.contains(vpage) {
                    self.cpu_pt
                        .map_page(vpage, Self::vma_page_phys(&vma, vpage, pb));
                    newly += 1;
                }
            }
            return Ok(newly);
        }
        // Fast path: map each unmapped gap of the span as one extent.
        let (first, count) = self.page_span(&range);
        let end = first + count;
        let mut newly = 0;
        let mut pos = first;
        while pos < end {
            let (mapped, run_end) = self.cpu_pt.span_at(pos, end);
            if !mapped {
                self.cpu_pt
                    .map_pages(pos, run_end - pos, Self::vma_page_phys(&vma, pos, pb));
                newly += run_end - pos;
            }
            pos = run_end;
        }
        Ok(newly)
    }

    /// Free an OS allocation. Tears down CPU *and* GPU translations (so a
    /// later reuse of the region faults again, as the paper observes for
    /// per-call host stack data in 457.spC / 470.bt).
    pub fn host_free(&mut self, addr: VirtAddr) -> Result<FreeOutcome, MemError> {
        let vma = self.take_vma(addr, Backing::HostOs)?;
        let pages = vma.range.len / self.page_bytes();
        self.teardown(&vma);
        Ok(FreeOutcome {
            pages,
            cost: self.cost.host_alloc_base,
        })
    }

    /// ROCr memory-pool allocation. On the APU the driver fulfils it from
    /// the same HBM, then allocates, zeroes, and bulk-prefaults every page
    /// into *both* page tables (XNACK-disabled driver behaviour): kernels
    /// touching this memory never fault.
    pub fn pool_alloc(&mut self, len: u64) -> Result<AllocOutcome, MemError> {
        if len == 0 {
            return Err(MemError::ZeroSizedAllocation);
        }
        let alen = self.round_up(len);
        if let Some(d) = self.discrete() {
            // Resident unified-memory pages physically occupy VRAM too; a
            // pool allocation that would not fit beside them fails, and the
            // runtime's eviction-then-retry recovery may push them out.
            let um_bytes = self.um_resident.len_pages() * self.page_bytes();
            if self.vram_used + um_bytes + alen > d.vram_bytes {
                return Err(MemError::OutOfMemory {
                    requested: alen,
                    available: d.vram_bytes.saturating_sub(self.vram_used + um_bytes),
                });
            }
            self.vram_used += alen;
        }
        let phys = self.phys.alloc(alen, self.page_bytes())?;
        let addr = VirtAddr(self.pool_brk);
        self.pool_brk += alen + self.page_bytes();
        let range = AddrRange::new(addr, alen);
        self.cpu_pt.map_range(range, phys, self.cost.page_size);
        self.gpu_pt.map_range(range, phys, self.cost.page_size);
        self.vmas.insert(Vma {
            range,
            backing: Backing::DevicePool,
            phys,
        });
        self.stats.pool_allocs += 1;
        let pages = alen / self.page_bytes();
        Ok(AllocOutcome {
            addr,
            pages,
            cost: self.cost.pool_alloc_cost(pages),
        })
    }

    /// Free a pool allocation.
    pub fn pool_free(&mut self, addr: VirtAddr) -> Result<FreeOutcome, MemError> {
        let vma = self.take_vma(addr, Backing::DevicePool)?;
        let pages = vma.range.len / self.page_bytes();
        if self.discrete().is_some() {
            self.vram_used = self.vram_used.saturating_sub(vma.range.len);
        }
        self.teardown(&vma);
        Ok(FreeOutcome {
            pages,
            cost: self.cost.pool_free_cost(pages),
        })
    }

    /// Discrete only: evict up to `max_pages` unified-memory pages from
    /// VRAM, oldest first (same FIFO order as oversubscription eviction).
    /// Evicted pages lose their GPU translation and re-migrate on their
    /// next GPU touch; CPU translations are untouched, so content is
    /// preserved. Returns the number of pages actually evicted — `0` on an
    /// APU or when nothing is resident, which recovery policies use to
    /// decide whether an eviction-then-retry attempt is worth making.
    pub fn evict_um_pages(&mut self, max_pages: u64) -> u64 {
        if self.discrete().is_none() {
            return 0;
        }
        let mut evicted = 0;
        while evicted < max_pages {
            let Some(victim) = self.um_resident.pop_front_page() else {
                break;
            };
            self.um_resident_set.remove_run(victim, 1);
            if self.gpu_pt.unmap_page(victim) {
                self.gpu_tlb.invalidate(victim);
            }
            evicted += 1;
        }
        self.stats.evicted_pages += evicted;
        evicted
    }

    fn take_vma(&mut self, addr: VirtAddr, backing: Backing) -> Result<Vma, MemError> {
        match self.vmas.find(addr) {
            Some(v) if v.range.start == addr && v.backing == backing => {
                Ok(self.vmas.remove(addr).expect("vma just found"))
            }
            _ => Err(MemError::InvalidFree { addr }),
        }
    }

    fn teardown(&mut self, vma: &Vma) {
        let ps = self.cost.page_size;
        self.cpu_pt.unmap_range(vma.range, ps);
        if self.pagewise {
            for vpage in vma.range.page_indices(ps) {
                if self.gpu_pt.unmap_page(vpage) {
                    self.gpu_tlb.invalidate(vpage);
                }
                if !self.um_resident_set.remove_run(vpage, 1).is_empty() {
                    self.um_resident.remove_pages(vpage, 1);
                }
            }
        } else {
            let (first, count) = self.page_span(&vma.range);
            for (s, l) in self.gpu_pt.unmap_pages(first, count) {
                self.gpu_tlb.invalidate_range(s, l);
            }
            if !self.um_resident_set.remove_run(first, count).is_empty() {
                self.um_resident.remove_pages(first, count);
            }
        }
        self.phys.free(vma.phys, vma.range.len);
    }

    /// Resolve one kernel's accessed ranges against the GPU page table.
    ///
    /// With XNACK enabled, missing translations fault page-by-page: a
    /// cheap replay if the CPU touched the page, an expensive allocate+zero
    /// if no agent ever did. With XNACK disabled, a missing translation is
    /// a fatal GPU memory fault.
    pub fn gpu_access(
        &mut self,
        ranges: &[AddrRange],
        xnack: XnackMode,
    ) -> Result<GpuAccessOutcome, MemError> {
        let pb = self.page_bytes();
        let mut out = GpuAccessOutcome::default();
        for range in ranges {
            if range.is_empty() {
                continue;
            }
            let vma = self
                .vmas
                .find_covering(range)
                .ok_or(MemError::RangeOutsideAllocation {
                    addr: range.start,
                    len: range.len,
                })?
                .clone();
            let mut o = if self.pagewise {
                self.resolve_range_pagewise(range, &vma, xnack)?
            } else {
                self.resolve_range_extents(range, &vma, xnack)?
            };
            o.stall = self.cost.fault_stall(o.replayed_pages, o.zero_filled_pages)
                + self.cost.tlb_miss * o.tlb_misses;
            if let Some(d) = self.discrete() {
                o.stall += d.migration_cost(pb) * o.migrated_pages;
            }
            if o.faulted_pages() > 0 {
                self.stats.xnack_events += 1;
                self.stats.xnack_replayed_pages += o.replayed_pages;
                self.stats.xnack_zero_fill_pages += o.zero_filled_pages;
                self.stats.migrated_pages += o.migrated_pages;
                self.stats.evicted_pages += o.evicted_pages;
            }
            out.merge(o);
        }
        Ok(out)
    }

    /// Per-page reference resolution of one accessed range (oracle path).
    fn resolve_range_pagewise(
        &mut self,
        range: &AddrRange,
        vma: &Vma,
        xnack: XnackMode,
    ) -> Result<GpuAccessOutcome, MemError> {
        let ps = self.cost.page_size;
        let pb = ps.bytes();
        let mut o = GpuAccessOutcome::default();
        for vpage in range.page_indices(ps) {
            o.pages_touched += 1;
            if self.gpu_pt.contains(vpage) {
                if !self.gpu_tlb.access(vpage) {
                    o.tlb_misses += 1;
                }
                continue;
            }
            if xnack == XnackMode::Disabled {
                return Err(MemError::GpuFatalFault {
                    addr: VirtAddr(vpage * pb),
                });
            }
            let phys = Self::vma_page_phys(vma, vpage, pb);
            if let Some(d) = self.discrete().cloned() {
                // Discrete GPU unified memory: first touch *migrates*
                // the page over the interconnect into VRAM; when VRAM
                // is oversubscribed, the oldest migrated page evicts
                // and will re-migrate on its next touch.
                self.cpu_pt.map_page(vpage, phys);
                self.gpu_pt.map_page(vpage, phys);
                self.gpu_tlb.access(vpage);
                self.um_resident.push_back_run(vpage, 1);
                self.um_resident_set.insert_run(vpage, 1);
                o.migrated_pages += 1;
                let budget_pages = d.vram_bytes.saturating_sub(self.vram_used) / pb;
                while self.um_resident.len_pages() > budget_pages {
                    let victim = self.um_resident.pop_front_page().expect("nonempty");
                    self.um_resident_set.remove_run(victim, 1);
                    if self.gpu_pt.unmap_page(victim) {
                        self.gpu_tlb.invalidate(victim);
                    }
                    o.evicted_pages += 1;
                }
                continue;
            }
            if self.cpu_pt.contains(vpage) {
                o.replayed_pages += 1;
            } else {
                // First touch anywhere: allocate + zero in the handler,
                // and the CPU table gains the entry too.
                self.cpu_pt.map_page(vpage, phys);
                o.zero_filled_pages += 1;
            }
            self.gpu_pt.map_page(vpage, phys);
            self.gpu_tlb.access(vpage);
        }
        Ok(o)
    }

    /// Extent resolution of one accessed range: walk maximal
    /// GPU-present/absent runs in ascending page order and handle each as a
    /// unit. The walk re-queries the GPU table after every run because
    /// discrete-GPU eviction can unmap pages *ahead* of the cursor within
    /// the same access (VRAM thrashing), which must re-fault immediately —
    /// exactly as the per-page loop does.
    fn resolve_range_extents(
        &mut self,
        range: &AddrRange,
        vma: &Vma,
        xnack: XnackMode,
    ) -> Result<GpuAccessOutcome, MemError> {
        let pb = self.page_bytes();
        let (first, count) = self.page_span(range);
        let end = first + count;
        let mut o = GpuAccessOutcome {
            pages_touched: count,
            ..Default::default()
        };
        let mut pos = first;
        while pos < end {
            let (mapped, run_end) = self.gpu_pt.span_at(pos, end);
            let run_len = run_end - pos;
            if mapped {
                let (_, misses) = self.gpu_tlb.access_range(pos, run_len);
                o.tlb_misses += misses;
                pos = run_end;
                continue;
            }
            // A faulting run. Earlier present runs already charged their
            // TLB accesses, matching the sequential order of events.
            if xnack == XnackMode::Disabled {
                return Err(MemError::GpuFatalFault {
                    addr: VirtAddr(pos * pb),
                });
            }
            if let Some(d) = self.discrete().cloned() {
                self.migrate_run(pos, run_len, vma, &d, &mut o);
            } else {
                // APU: split the faulting run by CPU residency into replay
                // (CPU-touched) and zero-fill (never-touched) sub-runs.
                let mut q = pos;
                while q < run_end {
                    let (cpu_mapped, sub_end) = self.cpu_pt.span_at(q, run_end);
                    let sub_len = sub_end - q;
                    let phys = Self::vma_page_phys(vma, q, pb);
                    if cpu_mapped {
                        o.replayed_pages += sub_len;
                    } else {
                        self.cpu_pt.map_pages(q, sub_len, phys);
                        o.zero_filled_pages += sub_len;
                    }
                    self.gpu_pt.map_pages(q, sub_len, phys);
                    self.gpu_tlb.access_range(q, sub_len);
                    q = sub_end;
                }
            }
            pos = run_end;
        }
        Ok(o)
    }

    /// Discrete GPU: migrate a run of absent pages into VRAM. When the run
    /// fits the remaining residency budget the whole run is processed as one
    /// extent (no eviction can occur, so bulk TLB/queue updates are exact).
    /// Otherwise eviction interleaves with migration page by page — evicted
    /// pages may sit ahead in this very run — so fall back to the exact
    /// per-page protocol for this run only.
    fn migrate_run(
        &mut self,
        start: u64,
        len: u64,
        vma: &Vma,
        d: &DiscreteSpec,
        o: &mut GpuAccessOutcome,
    ) {
        let pb = self.page_bytes();
        let budget_pages = d.vram_bytes.saturating_sub(self.vram_used) / pb;
        if self.um_resident.len_pages() + len <= budget_pages {
            let phys = Self::vma_page_phys(vma, start, pb);
            self.cpu_pt.map_pages(start, len, phys);
            self.gpu_pt.map_pages(start, len, phys);
            self.gpu_tlb.access_range(start, len);
            self.um_resident.push_back_run(start, len);
            self.um_resident_set.insert_run(start, len);
            o.migrated_pages += len;
            return;
        }
        for vpage in start..start + len {
            let phys = Self::vma_page_phys(vma, vpage, pb);
            self.cpu_pt.map_page(vpage, phys);
            self.gpu_pt.map_page(vpage, phys);
            self.gpu_tlb.access(vpage);
            self.um_resident.push_back_run(vpage, 1);
            self.um_resident_set.insert_run(vpage, 1);
            o.migrated_pages += 1;
            while self.um_resident.len_pages() > budget_pages {
                let victim = self.um_resident.pop_front_page().expect("nonempty");
                self.um_resident_set.remove_run(victim, 1);
                if self.gpu_pt.unmap_page(victim) {
                    self.gpu_tlb.invalidate(victim);
                }
                o.evicted_pages += 1;
            }
        }
    }

    /// Host-side GPU page-table prefault over `range`
    /// (the `svm_attributes_set` path used by Eager Maps).
    pub fn prefault(&mut self, range: AddrRange) -> Result<PrefaultOutcome, MemError> {
        let vma = self
            .vmas
            .find_covering(&range)
            .ok_or(MemError::RangeOutsideAllocation {
                addr: range.start,
                len: range.len,
            })?
            .clone();
        let ps = self.cost.page_size;
        let pb = ps.bytes();
        let mut inserted = 0;
        let mut zero_filled = 0;
        let mut present = 0;
        if self.pagewise {
            for vpage in range.page_indices(ps) {
                if self.gpu_pt.contains(vpage) {
                    present += 1;
                    continue;
                }
                let phys = Self::vma_page_phys(&vma, vpage, pb);
                if self.cpu_pt.contains(vpage) {
                    inserted += 1;
                } else {
                    self.cpu_pt.map_page(vpage, phys);
                    zero_filled += 1;
                }
                self.gpu_pt.map_page(vpage, phys);
            }
        } else {
            // Fast path: classify the span into GPU-present runs (re-check
            // only) and GPU-absent runs, splitting the latter by CPU
            // residency into inserted vs zero-filled sub-extents.
            let (first, count) = self.page_span(&range);
            let end = first + count;
            let mut pos = first;
            while pos < end {
                let (mapped, run_end) = self.gpu_pt.span_at(pos, end);
                if mapped {
                    present += run_end - pos;
                    pos = run_end;
                    continue;
                }
                let mut q = pos;
                while q < run_end {
                    let (cpu_mapped, sub_end) = self.cpu_pt.span_at(q, run_end);
                    let sub_len = sub_end - q;
                    let phys = Self::vma_page_phys(&vma, q, pb);
                    if cpu_mapped {
                        inserted += sub_len;
                    } else {
                        self.cpu_pt.map_pages(q, sub_len, phys);
                        zero_filled += sub_len;
                    }
                    self.gpu_pt.map_pages(q, sub_len, phys);
                    q = sub_end;
                }
                pos = run_end;
            }
        }
        self.stats.prefault_calls += 1;
        self.stats.prefault_inserted_pages += inserted;
        self.stats.prefault_zero_fill_pages += zero_filled;
        self.stats.prefault_present_pages += present;
        let cost = match self.discrete() {
            // Discrete: a prefetch is a bulk migration over the link.
            Some(d) => {
                let pb = self.cost.page_size.bytes();
                self.cost.prefault_syscall + d.migration_cost(pb) * (inserted + zero_filled)
            }
            None => self.cost.prefault_cost(inserted, zero_filled, present),
        };
        if self.discrete().is_some() {
            if self.pagewise {
                for vpage in range.page_indices(self.cost.page_size) {
                    if self.um_resident_set.insert_run(vpage, 1) == 1 {
                        self.um_resident.push_back_run(vpage, 1);
                    }
                }
            } else {
                // Enqueue each not-yet-resident run in ascending order —
                // the same page order the per-page loop produces.
                let (first, count) = self.page_span(&range);
                let end = first + count;
                let mut pos = first;
                while pos < end {
                    let (resident, run_end) = self.um_resident_set.span_at(pos, end);
                    if !resident {
                        self.um_resident_set.insert_run(pos, run_end - pos);
                        self.um_resident.push_back_run(pos, run_end - pos);
                    }
                    pos = run_end;
                }
            }
        }
        Ok(PrefaultOutcome {
            inserted_pages: inserted,
            zero_filled_pages: zero_filled,
            present_pages: present,
            cost,
        })
    }

    /// CPU load of real content (no paging-state requirement; sparse reads
    /// return zeros like fresh pages).
    pub fn cpu_read(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let phys = self.translate_vma(addr, buf.len() as u64, false)?;
        self.phys.read(phys, buf);
        Ok(())
    }

    /// CPU store of real content. First touch populates the CPU page table
    /// (demand paging).
    pub fn cpu_write(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemError> {
        let phys = self.translate_vma(addr, data.len() as u64, false)?;
        self.host_touch(AddrRange::new(addr, data.len() as u64))
            .ok();
        self.phys.write(phys, data);
        Ok(())
    }

    /// GPU load of real content. Requires GPU translations for every page
    /// (run [`gpu_access`](Self::gpu_access) first, as a kernel launch does).
    pub fn gpu_read(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let phys = self.translate_vma(addr, buf.len() as u64, true)?;
        self.phys.read(phys, buf);
        Ok(())
    }

    /// GPU store of real content. Requires GPU translations.
    pub fn gpu_write(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemError> {
        let phys = self.translate_vma(addr, data.len() as u64, true)?;
        self.phys.write(phys, data);
        Ok(())
    }

    /// DMA content copy between two live ranges. Returns the byte count;
    /// the caller (HSA layer) charges the bandwidth cost to a DMA engine.
    /// The destination counts as CPU-touched (the engine wrote it).
    pub fn copy(&mut self, src: VirtAddr, dst: VirtAddr, len: u64) -> Result<u64, MemError> {
        if len == 0 {
            return Ok(0);
        }
        let sp = self.translate_vma(src, len, false)?;
        let dp = self.translate_vma(dst, len, false)?;
        self.phys.copy(sp, dp, len);
        self.host_touch(AddrRange::new(dst, len)).ok();
        self.stats.bytes_copied += len;
        Ok(len)
    }

    /// Translate `addr` for a `len`-byte access through the VMA table
    /// (allocations are physically contiguous). When `gpu` is set, every
    /// covered page must have a GPU page-table entry.
    fn translate_vma(
        &self,
        addr: VirtAddr,
        len: u64,
        gpu: bool,
    ) -> Result<crate::addr::PhysAddr, MemError> {
        let range = AddrRange::new(addr, len.max(1));
        let vma = self
            .vmas
            .find_covering(&range)
            .ok_or(MemError::RangeOutsideAllocation { addr, len })?;
        if gpu {
            let (first, count) = self.page_span(&range);
            if let Some(vpage) = self.gpu_pt.first_missing(first, count) {
                return Err(MemError::GpuFatalFault {
                    addr: VirtAddr(vpage * self.page_bytes()),
                });
            }
        }
        Ok(vma.phys.offset(addr.as_u64() - vma.range.start.as_u64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{DiscreteSpec, SystemKind};

    fn mem() -> ApuMemory {
        // Small pages keep the test working sets tiny.
        ApuMemory::with_capacity(CostModel::mi300a_no_thp(), 64 * 1024 * 1024)
    }

    #[test]
    fn host_alloc_reserves_without_touching() {
        let mut m = mem();
        let a = m.host_alloc(10_000).unwrap();
        assert_eq!(a.pages, 3); // 10_000 bytes over 4 KiB pages
        assert_eq!(m.cpu_pt().len(), 0); // demand paging: untouched
        assert_eq!(m.gpu_pt().len(), 0);
        let touched = m.host_touch(AddrRange::new(a.addr, 10_000)).unwrap();
        assert_eq!(touched, 3);
        assert_eq!(m.cpu_pt().len(), 3);
        // Idempotent.
        assert_eq!(m.host_touch(AddrRange::new(a.addr, 10_000)).unwrap(), 0);
    }

    #[test]
    fn pool_alloc_bulk_populates_both_tables() {
        let mut m = mem();
        let a = m.pool_alloc(10_000).unwrap();
        assert_eq!(m.gpu_pt().len(), 3);
        assert_eq!(m.cpu_pt().len(), 3);
        assert_eq!(a.cost, m.cost().pool_alloc_cost(3));
    }

    #[test]
    fn touched_pages_replay_cheaply_untouched_zero_fill() {
        let mut m = mem();
        let a = m.host_alloc(8 * 4096).unwrap();
        // Touch the first half on the CPU.
        m.host_touch(AddrRange::new(a.addr, 4 * 4096)).unwrap();
        let r = AddrRange::new(a.addr, 8 * 4096);
        let o = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
        assert_eq!(o.replayed_pages, 4);
        assert_eq!(o.zero_filled_pages, 4);
        let c = m.cost().clone();
        assert_eq!(o.stall, c.fault_stall(4, 4));
        // Second access: no faults at all.
        let o2 = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
        assert_eq!(o2.faulted_pages(), 0);
        // Zero-fill populated the CPU table as well.
        assert_eq!(m.cpu_pt().len(), 8);
    }

    #[test]
    fn gpu_touch_without_xnack_is_fatal() {
        let mut m = mem();
        let a = m.host_alloc(4096).unwrap();
        let r = AddrRange::new(a.addr, 4096);
        let err = m.gpu_access(&[r], XnackMode::Disabled).unwrap_err();
        assert!(matches!(err, MemError::GpuFatalFault { .. }));
        // Pool memory is fine without XNACK.
        let p = m.pool_alloc(4096).unwrap();
        let rp = AddrRange::new(p.addr, 4096);
        assert!(m.gpu_access(&[rp], XnackMode::Disabled).is_ok());
    }

    #[test]
    fn prefault_distinguishes_regimes() {
        let mut m = mem();
        let a = m.host_alloc(16 * 4096).unwrap();
        m.host_touch(AddrRange::new(a.addr, 8 * 4096)).unwrap();
        let r = AddrRange::new(a.addr, 16 * 4096);
        let p1 = m.prefault(r).unwrap();
        assert_eq!(p1.inserted_pages, 8);
        assert_eq!(p1.zero_filled_pages, 8);
        assert_eq!(p1.present_pages, 0);
        let p2 = m.prefault(r).unwrap();
        assert_eq!(p2.new_pages(), 0);
        assert_eq!(p2.present_pages, 16);
        assert!(p2.cost < p1.cost);
        // Even with XNACK disabled the access now succeeds fault-free.
        let o = m.gpu_access(&[r], XnackMode::Disabled).unwrap();
        assert_eq!(o.faulted_pages(), 0);
    }

    #[test]
    fn host_free_tears_down_gpu_entries() {
        let mut m = mem();
        let a = m.host_alloc(4096).unwrap();
        let r = AddrRange::new(a.addr, 4096);
        m.gpu_access(&[r], XnackMode::Enabled).unwrap();
        assert_eq!(m.gpu_pt().len(), 1);
        m.host_free(a.addr).unwrap();
        assert_eq!(m.gpu_pt().len(), 0);
        assert_eq!(m.cpu_pt().len(), 0);
    }

    #[test]
    fn realloc_after_free_faults_again() {
        // The 457.spC host-stack pattern: fresh allocations re-fault.
        let mut m = mem();
        for _ in 0..3 {
            let a = m.host_alloc(4 * 4096).unwrap();
            let r = AddrRange::new(a.addr, 4 * 4096);
            m.host_touch(r).unwrap();
            let o = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
            assert_eq!(o.replayed_pages, 4);
            m.host_free(a.addr).unwrap();
        }
        assert_eq!(m.stats().xnack_replayed_pages, 12);
    }

    #[test]
    fn double_free_rejected() {
        let mut m = mem();
        let a = m.host_alloc(4096).unwrap();
        m.host_free(a.addr).unwrap();
        assert!(matches!(
            m.host_free(a.addr),
            Err(MemError::InvalidFree { .. })
        ));
        let b = m.host_alloc(4096).unwrap();
        assert!(m.pool_free(b.addr).is_err());
    }

    #[test]
    fn cpu_content_roundtrip_touches_pages() {
        let mut m = mem();
        let a = m.host_alloc(10_000).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 127) as u8).collect();
        m.cpu_write(a.addr, &data).unwrap();
        assert_eq!(m.cpu_pt().len(), 3); // write touched the pages
        let mut back = vec![0u8; data.len()];
        m.cpu_read(a.addr, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn zero_copy_gpu_sees_cpu_writes() {
        let mut m = mem();
        let a = m.host_alloc(4096).unwrap();
        m.cpu_write(a.addr, b"hello apu").unwrap();
        let r = AddrRange::new(a.addr, 4096);
        let o = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
        assert_eq!(o.replayed_pages, 1); // CPU-touched: cheap replay
        let mut buf = [0u8; 9];
        m.gpu_read(a.addr, &mut buf).unwrap();
        assert_eq!(&buf, b"hello apu");
        m.gpu_write(a.addr, b"HELLO APU").unwrap();
        let mut cb = [0u8; 9];
        m.cpu_read(a.addr, &mut cb).unwrap();
        assert_eq!(&cb, b"HELLO APU");
    }

    #[test]
    fn gpu_read_without_translation_is_fatal() {
        let mut m = mem();
        let a = m.host_alloc(4096).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            m.gpu_read(a.addr, &mut buf),
            Err(MemError::GpuFatalFault { .. })
        ));
    }

    #[test]
    fn copy_semantics_are_distinct_storage() {
        let mut m = mem();
        let h = m.host_alloc(4096).unwrap();
        let d = m.pool_alloc(4096).unwrap();
        m.cpu_write(h.addr, b"original").unwrap();
        m.copy(h.addr, d.addr, 8).unwrap();
        m.cpu_write(h.addr, b"mutated!").unwrap();
        let mut buf = [0u8; 8];
        m.gpu_read(d.addr, &mut buf).unwrap();
        assert_eq!(&buf, b"original");
        assert_eq!(m.stats().bytes_copied, 8);
    }

    #[test]
    fn copy_outside_allocation_rejected() {
        let mut m = mem();
        let h = m.host_alloc(4096).unwrap();
        assert!(m.copy(h.addr, VirtAddr(0xdead_beef), 8).is_err());
        assert!(m.copy(VirtAddr(0xdead_beef), h.addr, 8).is_err());
    }

    #[test]
    fn zero_sized_allocs_rejected() {
        let mut m = mem();
        assert!(matches!(
            m.host_alloc(0),
            Err(MemError::ZeroSizedAllocation)
        ));
        assert!(matches!(
            m.pool_alloc(0),
            Err(MemError::ZeroSizedAllocation)
        ));
    }

    #[test]
    fn oom_propagates() {
        let mut m = ApuMemory::with_capacity(CostModel::mi300a_no_thp(), 8 * 4096);
        assert!(m.host_alloc(16 * 4096).is_err());
    }

    #[test]
    fn prefault_outside_allocation_rejected() {
        let mut m = mem();
        let r = AddrRange::new(VirtAddr(0x1234_5000), 4096);
        assert!(matches!(
            m.prefault(r),
            Err(MemError::RangeOutsideAllocation { .. })
        ));
    }

    #[test]
    fn gpu_access_outside_allocation_rejected() {
        let mut m = mem();
        let r = AddrRange::new(VirtAddr(0x1234_5000), 4096);
        assert!(matches!(
            m.gpu_access(&[r], XnackMode::Enabled),
            Err(MemError::RangeOutsideAllocation { .. })
        ));
    }

    #[test]
    fn discrete_gpu_migrates_instead_of_replaying() {
        let spec = DiscreteSpec {
            vram_bytes: 64 * 4096,
            link_bandwidth: 25_000_000_000,
            migrate_per_page: VirtDuration::from_micros(25),
        };
        let mut m = ApuMemory::with_options(
            CostModel::mi300a_no_thp(),
            SystemKind::Discrete(spec.clone()),
            MemOptions::default(),
        );
        let a = m.host_alloc(8 * 4096).unwrap();
        let r = AddrRange::new(a.addr, 8 * 4096);
        m.host_touch(r).unwrap();
        let o = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
        assert_eq!(o.migrated_pages, 8);
        assert_eq!(o.replayed_pages, 0);
        assert_eq!(o.evicted_pages, 0);
        assert_eq!(o.stall, spec.migration_cost(4096) * 8);
        // Migration is far dearer than an APU replay of the same pages.
        let apu_cost = CostModel::mi300a_no_thp();
        assert!(o.stall > apu_cost.fault_stall(8, 0) * 10);
        // Second touch: resident, no further migration.
        let o2 = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
        assert_eq!(o2.migrated_pages, 0);
    }

    #[test]
    fn vram_oversubscription_thrashes() {
        // 8 pages of VRAM, 16-page working set, cyclic sweeps: every access
        // re-migrates (the related-work [18] collapse).
        let spec = DiscreteSpec {
            vram_bytes: 8 * 4096,
            link_bandwidth: 25_000_000_000,
            migrate_per_page: VirtDuration::from_micros(25),
        };
        let mut m = ApuMemory::with_options(
            CostModel::mi300a_no_thp(),
            SystemKind::Discrete(spec),
            MemOptions::default(),
        );
        let a = m.host_alloc(16 * 4096).unwrap();
        let r = AddrRange::new(a.addr, 16 * 4096);
        m.host_touch(r).unwrap();
        let mut total_migrated = 0;
        for _ in 0..3 {
            let o = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
            total_migrated += o.migrated_pages;
            assert!(o.evicted_pages >= 8);
        }
        assert_eq!(total_migrated, 48); // every sweep migrates all 16 pages
        assert!(m.um_resident_pages() <= 8);
    }

    #[test]
    fn vram_capacity_bounds_pool_allocations() {
        let spec = DiscreteSpec {
            vram_bytes: 16 * 4096,
            link_bandwidth: 25_000_000_000,
            migrate_per_page: VirtDuration::from_micros(25),
        };
        let mut m = ApuMemory::with_options(
            CostModel::mi300a_no_thp(),
            SystemKind::Discrete(spec),
            MemOptions::default(),
        );
        let a = m.pool_alloc(12 * 4096).unwrap();
        assert_eq!(m.vram_used(), 12 * 4096);
        // The APU would take this; the discrete device cannot.
        assert!(matches!(
            m.pool_alloc(8 * 4096),
            Err(MemError::OutOfMemory { .. })
        ));
        m.pool_free(a.addr).unwrap();
        assert_eq!(m.vram_used(), 0);
        assert!(m.pool_alloc(8 * 4096).is_ok());
    }

    #[test]
    fn discrete_copies_cross_the_link() {
        let spec = DiscreteSpec::mi200_class();
        let link = spec.link_bandwidth;
        let mut m = ApuMemory::with_options(
            CostModel::mi300a(),
            SystemKind::Discrete(spec),
            MemOptions::default(),
        );
        let h = m.host_alloc(1 << 24).unwrap();
        let d = m.pool_alloc(1 << 24).unwrap();
        let h2 = m.host_alloc(1 << 24).unwrap();
        // Host->device crosses the link; host->host moves at HBM speed.
        let cross = m.transfer_duration(h.addr, d.addr, 1 << 24);
        let local = m.transfer_duration(h.addr, h2.addr, 1 << 24);
        assert_eq!(cross, sim_des::transfer_time(1 << 24, link));
        assert!(cross > local * 3);
        // On the APU everything is HBM-to-HBM.
        let mut apu = ApuMemory::new(CostModel::mi300a());
        let ha = apu.host_alloc(1 << 24).unwrap();
        let da = apu.pool_alloc(1 << 24).unwrap();
        assert_eq!(
            apu.transfer_duration(ha.addr, da.addr, 1 << 24),
            apu.cost().copy_duration(1 << 24)
        );
    }

    #[test]
    fn discrete_prefetch_is_bulk_migration() {
        let spec = DiscreteSpec::mi200_class();
        let per_page = spec.migration_cost(4096);
        let mut m = ApuMemory::with_options(
            CostModel::mi300a_no_thp(),
            SystemKind::Discrete(spec),
            MemOptions::default(),
        );
        let a = m.host_alloc(8 * 4096).unwrap();
        let r = AddrRange::new(a.addr, 8 * 4096);
        m.host_touch(r).unwrap();
        let p = m.prefault(r).unwrap();
        assert_eq!(p.inserted_pages, 8);
        assert!(p.cost >= per_page * 8);
        // Prefetched pages are resident: access is free of migrations.
        let o = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
        assert_eq!(o.migrated_pages, 0);
    }

    #[test]
    fn tlb_misses_charged_for_cold_translations() {
        let mut m = mem();
        let p = m.pool_alloc(4 * 4096).unwrap();
        let r = AddrRange::new(p.addr, 4 * 4096);
        // Pool alloc populated the page table but not the TLB.
        let o = m.gpu_access(&[r], XnackMode::Disabled).unwrap();
        assert_eq!(o.faulted_pages(), 0);
        assert_eq!(o.tlb_misses, 4);
        assert_eq!(o.stall, m.cost().tlb_miss * 4);
        let o2 = m.gpu_access(&[r], XnackMode::Disabled).unwrap();
        assert_eq!(o2.tlb_misses, 0);
    }
}

//! Virtual/physical addresses, page sizes and address ranges.

use std::fmt;

/// A virtual address in the simulated unified address space.
///
/// On the APU, CPU and GPU threads use the *same* virtual addresses; whether
/// a given access translates on the GPU depends only on the GPU page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    #[inline]
    /// Raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    #[inline]
    /// Address advanced by `bytes`.
    pub const fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }

    #[inline]
    /// Round down to the given power-of-two alignment.
    pub fn align_down(self, align: u64) -> VirtAddr {
        VirtAddr(self.0 & !(align - 1))
    }

    #[inline]
    /// True when aligned to the given power-of-two boundary.
    pub fn is_aligned(self, align: u64) -> bool {
        self.0 & (align - 1) == 0
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

/// A physical address in the single APU HBM storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    #[inline]
    /// Raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    #[inline]
    /// Address advanced by `bytes`.
    pub const fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phys:0x{:012x}", self.0)
    }
}

/// Page granularity. The paper runs with Transparent Huge Pages so that both
/// Copy and zero-copy configurations work on 2 MiB pages; 4 KiB is kept for
/// the page-size ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4 KiB base pages.
    Small,
    /// 2 MiB transparent huge pages (the paper's configuration).
    Huge,
}

impl PageSize {
    #[inline]
    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Small => 4 * 1024,
            PageSize::Huge => 2 * 1024 * 1024,
        }
    }

    /// Number of pages needed to cover `len` bytes starting at `addr`.
    pub fn pages_covering(self, addr: VirtAddr, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let ps = self.bytes();
        let first = addr.as_u64() / ps;
        let last = (addr.as_u64() + len - 1) / ps;
        last - first + 1
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Small => write!(f, "4KiB"),
            PageSize::Huge => write!(f, "2MiB"),
        }
    }
}

/// A half-open byte range `[start, start+len)` of virtual memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    /// Operation start time (includes queueing).
    pub start: VirtAddr,
    /// Number of entries.
    pub len: u64,
}

impl AddrRange {
    /// Create a new instance.
    pub const fn new(start: VirtAddr, len: u64) -> Self {
        AddrRange { start, len }
    }

    #[inline]
    /// Operation completion time.
    pub fn end(&self) -> u64 {
        self.start.as_u64() + self.len
    }

    #[inline]
    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the item lies inside.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr.as_u64() >= self.start.as_u64() && addr.as_u64() < self.end()
    }

    /// True when `other` lies fully inside this range.
    pub fn contains_range(&self, other: &AddrRange) -> bool {
        other.is_empty()
            || (other.start.as_u64() >= self.start.as_u64() && other.end() <= self.end())
    }

    /// True when the two ranges share at least one byte.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start.as_u64() < other.end()
            && other.start.as_u64() < self.end()
    }

    /// Iterate over the page indices (address / page size) this range touches.
    pub fn page_indices(&self, ps: PageSize) -> impl Iterator<Item = u64> {
        let bytes = ps.bytes();
        let (first, count) = if self.len == 0 {
            (0, 0)
        } else {
            let first = self.start.as_u64() / bytes;
            let last = (self.end() - 1) / bytes;
            (first, last - first + 1)
        };
        (0..count).map(move |i| first + i)
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, +{})", self.start, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_helpers() {
        let a = VirtAddr(0x1234);
        assert_eq!(a.align_down(0x1000).as_u64(), 0x1000);
        assert!(!a.is_aligned(0x1000));
        assert!(VirtAddr(0x2000).is_aligned(0x1000));
    }

    #[test]
    fn page_counts() {
        let ps = PageSize::Small;
        assert_eq!(ps.pages_covering(VirtAddr(0), 0), 0);
        assert_eq!(ps.pages_covering(VirtAddr(0), 1), 1);
        assert_eq!(ps.pages_covering(VirtAddr(0), 4096), 1);
        assert_eq!(ps.pages_covering(VirtAddr(0), 4097), 2);
        // Unaligned start straddles an extra page.
        assert_eq!(ps.pages_covering(VirtAddr(4000), 200), 2);
        assert_eq!(PageSize::Huge.bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn range_relations() {
        let r = AddrRange::new(VirtAddr(100), 50);
        assert!(r.contains(VirtAddr(100)));
        assert!(r.contains(VirtAddr(149)));
        assert!(!r.contains(VirtAddr(150)));
        assert!(r.contains_range(&AddrRange::new(VirtAddr(120), 10)));
        assert!(!r.contains_range(&AddrRange::new(VirtAddr(120), 100)));
        assert!(r.overlaps(&AddrRange::new(VirtAddr(149), 10)));
        assert!(!r.overlaps(&AddrRange::new(VirtAddr(150), 10)));
        assert!(r.contains_range(&AddrRange::new(VirtAddr(999), 0)));
    }

    #[test]
    fn page_indices_iteration() {
        let r = AddrRange::new(VirtAddr(4000), 200); // crosses 4096 boundary
        let pages: Vec<u64> = r.page_indices(PageSize::Small).collect();
        assert_eq!(pages, vec![0, 1]);
        let empty = AddrRange::new(VirtAddr(4000), 0);
        assert_eq!(empty.page_indices(PageSize::Small).count(), 0);
    }
}

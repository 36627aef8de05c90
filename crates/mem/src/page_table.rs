//! Page tables for CPU and GPU agents.
//!
//! A page table is the set of virtual pages an agent holds an entry for.
//! On the APU the CPU table is populated by the OS allocator; the GPU table
//! is populated either in bulk (pool allocations / host-side prefaulting) or
//! page-by-page by the XNACK replay protocol on first GPU touch. A table
//! stores presence, not translations: every allocation is physically
//! contiguous, so its VMA supplies the physical address of any page.
//!
//! Storage is a run set of maximal `[start_vpage, start_vpage + len)` runs,
//! so a table over a multi-GiB heap holds a handful of runs rather than
//! millions of entries, and range operations run in O(runs touched · log
//! runs) instead of O(pages). The `inserts`/`removes` lifetime counters
//! still advance exactly as if pages were mapped one by one, so every
//! consumer of those statistics sees identical values.

use crate::runs::RunSet;

/// One agent's set of present pages, by virtual page index.
#[derive(Debug, Default)]
pub struct PageTable {
    present: RunSet,
    inserts: u64,
    removes: u64,
}

impl PageTable {
    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.present.len_pages() as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.present.len_pages() == 0
    }

    /// Number of stored runs of consecutive mapped pages (bookkeeping
    /// granularity, not page count).
    pub fn extent_count(&self) -> usize {
        self.present.run_count()
    }

    /// Lifetime count of page insertions (not net).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Lifetime count of page removals.
    pub fn removes(&self) -> u64 {
        self.removes
    }

    /// True when `vpage` is mapped.
    pub fn contains(&self, vpage: u64) -> bool {
        self.present.contains(vpage)
    }

    /// Classify position `pos` within `[pos, end)`: returns `(mapped,
    /// run_end)` where every page of `[pos, run_end)` shares the mapped
    /// status, and `run_end <= end`.
    pub(crate) fn span_at(&self, pos: u64, end: u64) -> (bool, u64) {
        self.present.span_at(pos, end)
    }

    /// Lowest unmapped page in `[first, first + count)`, if any.
    pub(crate) fn first_missing(&self, first: u64, count: u64) -> Option<u64> {
        let end = first + count;
        let mut pos = first;
        while pos < end {
            let (mapped, run_end) = self.span_at(pos, end);
            if !mapped {
                return Some(pos);
            }
            pos = run_end;
        }
        None
    }

    /// Map `[first, first + count)`. Pages already mapped do not count as
    /// inserts (per-page overwrite semantics). Returns how many pages were
    /// newly mapped.
    pub(crate) fn map_pages(&mut self, first: u64, count: u64) -> u64 {
        let newly = self.present.insert_run(first, count);
        self.inserts += newly;
        newly
    }

    /// Unmap every mapped page of `[first, first + count)`. Returns the
    /// previously mapped sub-runs `(start_vpage, len)` in ascending order.
    pub(crate) fn unmap_pages(&mut self, first: u64, count: u64) -> Vec<(u64, u64)> {
        let removed = self.present.remove_run(first, count);
        self.removes += removed.iter().map(|&(_, l)| l).sum::<u64>();
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remapping_is_not_new() {
        let mut pt = PageTable::default();
        assert_eq!(pt.map_pages(5, 1), 1);
        assert_eq!(pt.map_pages(5, 1), 0);
        assert_eq!(pt.inserts(), 1);
        assert!(pt.contains(5) && !pt.contains(6));
    }

    #[test]
    fn unmap_range_counts() {
        let mut pt = PageTable::default();
        pt.map_pages(0, 4);
        assert_eq!(pt.unmap_pages(1, 2), vec![(1, 2)]);
        assert_eq!(pt.len(), 2);
        assert_eq!(pt.removes(), 2);
        assert!(pt.unmap_pages(999, 1).is_empty());
        assert_eq!(pt.removes(), 2);
    }

    #[test]
    fn contiguous_mappings_coalesce_into_one_extent() {
        let mut pt = PageTable::default();
        for i in 0..64u64 {
            pt.map_pages(100 + i, 1);
        }
        assert_eq!(pt.extent_count(), 1);
        assert_eq!(pt.len(), 64);
        assert_eq!(pt.inserts(), 64);
    }

    #[test]
    fn partial_unmap_splits_extent() {
        let mut pt = PageTable::default();
        pt.map_pages(10, 10);
        assert_eq!(pt.unmap_pages(13, 3), vec![(13, 3)]);
        assert_eq!(pt.extent_count(), 2);
        assert!(pt.contains(12) && !pt.contains(13) && pt.contains(16));
        assert_eq!(pt.removes(), 3);
        assert_eq!(pt.len(), 7);
    }

    #[test]
    fn overlapping_remap_counts_only_new_pages() {
        let mut pt = PageTable::default();
        pt.map_pages(0, 8);
        assert_eq!(pt.map_pages(2, 4), 0);
        assert_eq!(pt.map_pages(6, 4), 2);
        assert_eq!(pt.inserts(), 10);
        assert_eq!(pt.removes(), 0);
        assert_eq!((pt.len(), pt.extent_count()), (10, 1));
    }

    #[test]
    fn span_queries_classify_runs() {
        let mut pt = PageTable::default();
        pt.map_pages(4, 4);
        assert_eq!(pt.span_at(0, 16), (false, 4));
        assert_eq!(pt.span_at(5, 16), (true, 8));
        assert_eq!(pt.first_missing(4, 4), None);
        assert_eq!(pt.first_missing(4, 5), Some(8));
        assert_eq!(pt.first_missing(0, 16), Some(0));
    }
}

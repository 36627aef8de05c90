//! A capacity-bounded GPU TLB model with FIFO replacement.
//!
//! The TLB caches recently used GPU page-table entries. Accesses to pages
//! with a translation still pay a small page-table-walk cost on a TLB miss;
//! when a working set exceeds the TLB capacity the miss rate climbs
//! (the paper attributes the S128 Eager Maps variance to TLB thrashing).
//!
//! Replacement is strict FIFO — a hit does *not* refresh an entry's
//! position, unlike LRU — so the victim is always the entry that was
//! *installed* longest ago. FIFO has a convenient algebraic property this
//! module exploits: because hits never reorder the queue, the net effect of
//! sequentially accessing a run of `L` missing pages is "append the run,
//! then pop `max(0, occupancy + L - capacity)` pages off the front". That
//! lets [`Tlb::access_range`] process whole page runs with eviction, hit,
//! and miss counters bit-identical to a page-at-a-time loop, in O(runs)
//! instead of O(pages). The entries are a [`FifoRunSet`], the same
//! run-length FIFO set that holds the discrete GPU's VRAM residency, so a
//! multi-GiB streaming sweep costs a few run operations rather than
//! millions of hash updates.

use crate::runs::FifoRunSet;

/// GPU translation lookaside buffer.
#[derive(Debug)]
pub struct Tlb {
    capacity: u64,
    entries: FifoRunSet,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Tlb {
    /// Create a new instance.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have at least one entry");
        Tlb {
            capacity: capacity as u64,
            entries: FifoRunSet::default(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len_pages() as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.len_pages() == 0
    }

    /// TLB hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// TLB misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted at capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Look up `vpage`; on a miss, install it (the walker refills the TLB).
    /// Returns true on a hit. Hits do not change the replacement order
    /// (FIFO, not LRU).
    pub fn access(&mut self, vpage: u64) -> bool {
        let (hits, _) = self.access_range(vpage, 1);
        hits == 1
    }

    /// Look up `len` consecutive pages starting at `start`, installing every
    /// missing one, in ascending page order. Returns `(hits, misses)` for
    /// this call. Counter updates and final TLB state are identical to
    /// calling [`Tlb::access`] once per page.
    pub fn access_range(&mut self, start: u64, len: u64) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        let end = start + len;
        let mut pos = start;
        while pos < end {
            // Evictions from a previous miss-run in this same range can
            // remove pages ahead of `pos`, so classification must be
            // incremental rather than precomputed.
            let (present, run_end) = self.entries.span_at(pos, end);
            let run_len = run_end - pos;
            if present {
                hits += run_len;
            } else {
                misses += run_len;
                // Each insert at full occupancy first pops the oldest page,
                // so `run_len` inserts evict the overflow — possibly the
                // run's own earliest pages when `run_len > capacity`.
                self.entries.insert(pos, run_len);
                let overflow = self.entries.len_pages().saturating_sub(self.capacity);
                self.entries.pop_oldest(overflow);
                self.evictions += overflow;
            }
            pos = run_end;
        }
        self.hits += hits;
        self.misses += misses;
        (hits, misses)
    }

    /// Drop every entry in `[start, start + len)` (shootdown after an
    /// unmap).
    pub fn invalidate_range(&mut self, start: u64, len: u64) {
        self.entries.remove(start, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut t = Tlb::new(4);
        assert!(!t.access(1));
        assert!(t.access(1));
        assert_eq!((t.hits(), t.misses()), (1, 1));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut t = Tlb::new(2);
        t.access(1);
        t.access(2);
        t.access(3); // evicts 1
        assert_eq!(t.evictions(), 1);
        assert!(!t.access(1)); // miss again
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn thrashing_working_set_never_hits() {
        let mut t = Tlb::new(8);
        // Cyclic sweep over a working set larger than capacity: all misses.
        for _ in 0..3 {
            for p in 0..16u64 {
                t.access(p);
            }
        }
        assert_eq!((t.hits(), t.misses()), (0, 48));
    }

    #[test]
    fn fitting_working_set_hits_after_warmup() {
        let mut t = Tlb::new(16);
        for _ in 0..3 {
            for p in 0..8u64 {
                t.access(p);
            }
        }
        assert_eq!(t.misses(), 8);
        assert_eq!(t.hits(), 16);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = Tlb::new(4);
        t.access(1);
        t.access(2);
        t.invalidate_range(1, 1);
        assert_eq!(t.len(), 1);
        assert!(!t.access(1));
        t.invalidate_range(0, u64::MAX); // full shootdown
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }

    /// Drive two TLBs — one via `access_range`, one via per-page `access` —
    /// through the same trace and require identical counters and state.
    fn assert_bulk_matches_sequential(capacity: usize, trace: &[(u64, u64)]) {
        let mut bulk = Tlb::new(capacity);
        let mut seq = Tlb::new(capacity);
        for &(start, len) in trace {
            let (bh, bm) = bulk.access_range(start, len);
            let mut sh = 0;
            let mut sm = 0;
            for p in start..start + len {
                if seq.access(p) {
                    sh += 1;
                } else {
                    sm += 1;
                }
            }
            assert_eq!((bh, bm), (sh, sm), "per-call counts for ({start},{len})");
        }
        assert_eq!(bulk.hits(), seq.hits(), "hits");
        assert_eq!(bulk.misses(), seq.misses(), "misses");
        assert_eq!(bulk.evictions(), seq.evictions(), "evictions");
        // Same survivors in the same replacement order.
        assert_eq!(bulk.entries, seq.entries, "entries");
    }

    #[test]
    fn bulk_matches_sequential_exactly_at_capacity() {
        // Run length == capacity: the run exactly fills the TLB.
        assert_bulk_matches_sequential(8, &[(0, 8), (0, 8)]);
    }

    #[test]
    fn bulk_matches_sequential_one_under_capacity() {
        // Run length == capacity - 1: no eviction, full re-hit.
        assert_bulk_matches_sequential(8, &[(0, 7), (0, 7), (100, 1), (0, 7)]);
    }

    #[test]
    fn bulk_matches_sequential_one_over_capacity() {
        // Run length == capacity + 1: the run evicts its own first page, so
        // re-accessing the run misses on page 0 (and then cascades).
        assert_bulk_matches_sequential(8, &[(0, 9), (0, 9)]);
    }

    #[test]
    fn bulk_overflow_evicts_runs_own_head() {
        let mut t = Tlb::new(4);
        let (h, m) = t.access_range(0, 6);
        assert_eq!((h, m), (0, 6));
        assert_eq!(t.evictions(), 2); // pages 0 and 1 evicted by their own run
        assert_eq!(t.len(), 4);
        assert!(!t.access(0));
        assert!(t.access(5));
    }

    #[test]
    fn bulk_mixed_hits_and_misses_across_runs() {
        assert_bulk_matches_sequential(16, &[(0, 4), (8, 4), (0, 16), (2, 10), (20, 40)]);
    }

    #[test]
    fn bulk_invalidate_range_matches_per_page() {
        let mut a = Tlb::new(8);
        let mut b = Tlb::new(8);
        a.access_range(0, 6);
        for p in 0..6 {
            b.access(p);
        }
        a.invalidate_range(2, 3);
        for p in 2..5 {
            b.invalidate_range(p, 1);
        }
        assert_eq!(a.entries, b.entries);
        // Eviction order afterwards must also agree.
        a.access_range(100, 6);
        for p in 100..106 {
            b.access(p);
        }
        assert_eq!(a.evictions(), b.evictions());
        assert_eq!(a.entries, b.entries);
    }
}

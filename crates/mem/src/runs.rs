//! Run-length page sets: the one split/coalesce/span walk in the crate.
//!
//! [`RunSet`] is a sorted, coalesced set of `[start, start + len)` page runs
//! with O(log n) point queries and O(runs touched) span edits. Both page
//! tables are one each. [`FifoRunSet`] adds the order in which pages entered
//! to a `RunSet`: the GPU TLB and the discrete VRAM residency queue are one
//! each, and its insert, pop-oldest and remove keep membership and order in
//! step.
//!
//! Every operation is defined so that run-granular calls are *net-effect
//! identical* to the equivalent sequence of single-page calls. That invariant
//! is what lets `ApuMemory` swap its per-page loops for O(extents) bulk paths
//! without perturbing a single observable counter.

use std::collections::{BTreeMap, VecDeque};

/// A sorted, coalesced set of disjoint page runs `[start, start + len)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RunSet {
    /// `start -> len`; invariant: runs are disjoint and non-adjacent
    /// (adjacent runs are merged on insert).
    runs: BTreeMap<u64, u64>,
    /// Total pages across all runs.
    pages: u64,
}

impl RunSet {
    /// Total number of pages in the set.
    pub fn len_pages(&self) -> u64 {
        self.pages
    }

    /// Number of stored runs (bookkeeping granularity, not page count).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// True if `page` is in the set.
    pub fn contains(&self, page: u64) -> bool {
        match self.runs.range(..=page).next_back() {
            Some((&s, &l)) => page < s + l,
            None => false,
        }
    }

    /// Classify the position `pos` within `[pos, end)`: returns
    /// `(member, run_end)` where all pages in `[pos, run_end)` share the
    /// membership status `member`, and `run_end <= end`.
    pub fn span_at(&self, pos: u64, end: u64) -> (bool, u64) {
        debug_assert!(pos < end);
        if let Some((&s, &l)) = self.runs.range(..=pos).next_back() {
            if pos < s + l {
                return (true, (s + l).min(end));
            }
        }
        match self.runs.range(pos..).next() {
            Some((&s, _)) => (false, s.min(end)),
            None => (false, end),
        }
    }

    /// Insert `[start, start + len)`, coalescing with neighbours. Returns the
    /// number of pages that were *newly* added (not already members).
    pub fn insert_run(&mut self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut new_start = start;
        let mut new_end = start + len;
        let mut absorbed_pages = 0u64;
        // Absorb, highest first, every run overlapping or adjacent to
        // [start, start + len): each begins at or before its end.
        while let Some((&s, &l)) = self.runs.range(..=new_end).next_back() {
            if s + l < new_start {
                break;
            }
            self.runs.remove(&s);
            new_start = new_start.min(s);
            new_end = new_end.max(s + l);
            absorbed_pages += l;
        }
        self.runs.insert(new_start, new_end - new_start);
        let total_after = new_end - new_start;
        let newly = total_after - absorbed_pages;
        self.pages += newly;
        newly
    }

    /// Remove `[start, start + len)`. Returns the removed sub-runs, ascending.
    pub fn remove_run(&mut self, start: u64, len: u64) -> Vec<(u64, u64)> {
        if len == 0 {
            return Vec::new();
        }
        let end = start + len;
        let mut removed: Vec<(u64, u64)> = Vec::new();
        // Runs that could intersect start strictly before `end`.
        let mut edits: Vec<(u64, u64)> = Vec::new(); // (old_start, old_len)
        for (&s, &l) in self.runs.range(..end).rev() {
            if s + l <= start {
                break;
            }
            edits.push((s, l));
        }
        for (s, l) in edits {
            self.runs.remove(&s);
            let cut_start = s.max(start);
            let cut_end = (s + l).min(end);
            removed.push((cut_start, cut_end - cut_start));
            self.pages -= cut_end - cut_start;
            if s < cut_start {
                self.runs.insert(s, cut_start - s);
            }
            if cut_end < s + l {
                self.runs.insert(cut_end, s + l - cut_end);
            }
        }
        removed.sort_unstable();
        removed
    }

    /// Iterate runs in ascending order as `(start, len)`.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().map(|(&s, &l)| (s, l))
    }
}

/// A [`RunSet`] that also remembers the order in which its pages entered.
///
/// A page enters once, at the back, when it is inserted while absent;
/// [`pop_oldest`](Self::pop_oldest) takes pages from the front. An order run
/// `(start, len)` stands for pages `start, start + 1, ..., start + len - 1`
/// entered in ascending order, so popping from the front of a run yields its
/// lowest page first — exactly what a page-at-a-time FIFO would produce.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FifoRunSet {
    members: RunSet,
    /// Runs oldest first; no entry continues the one before it (contiguous
    /// neighbours are merged), so equal page sequences store equal runs.
    order: VecDeque<(u64, u64)>,
}

impl FifoRunSet {
    /// Total pages in the set.
    pub fn len_pages(&self) -> u64 {
        self.members.len_pages()
    }

    /// Membership classification of `pos` within `[pos, end)`, as
    /// [`RunSet::span_at`].
    pub fn span_at(&self, pos: u64, end: u64) -> (bool, u64) {
        self.members.span_at(pos, end)
    }

    /// Insert `[start, start + len)`: its absent sub-runs enter at the back
    /// in ascending page order; pages already present keep their place.
    pub fn insert(&mut self, start: u64, len: u64) {
        let end = start + len;
        let mut pos = start;
        while pos < end {
            let (member, run_end) = self.members.span_at(pos, end);
            if !member {
                Self::push_back(&mut self.order, pos, run_end - pos);
            }
            pos = run_end;
        }
        self.members.insert_run(start, len);
    }

    /// Remove up to `n` of the oldest pages, returned as runs in pop order.
    pub fn pop_oldest(&mut self, n: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut left = n.min(self.len_pages());
        while left > 0 {
            let front = self.order.front_mut().expect("order holds every member");
            let (s, l) = *front;
            let take = l.min(left);
            if take == l {
                self.order.pop_front();
            } else {
                *front = (s + take, l - take);
            }
            self.members.remove_run(s, take);
            out.push((s, take));
            left -= take;
        }
        out
    }

    /// Remove every page of `[start, start + len)` wherever it sits in the
    /// order, keeping the order of the rest: `retain(|p| p < start || p >=
    /// start + len)` on a page queue.
    pub fn remove(&mut self, start: u64, len: u64) {
        if self.members.remove_run(start, len).is_empty() {
            return;
        }
        let end = start + len;
        let mut next = VecDeque::with_capacity(self.order.len());
        for &(s, l) in &self.order {
            let e = s + l;
            if s < start {
                Self::push_back(&mut next, s, e.min(start) - s);
            }
            if e > end {
                let from = s.max(end);
                Self::push_back(&mut next, from, e - from);
            }
        }
        self.order = next;
    }

    /// The order runs, oldest first.
    #[cfg(test)]
    pub fn order_runs(&self) -> Vec<(u64, u64)> {
        self.order.iter().copied().collect()
    }

    /// Append `[s, s + l)` to `order`, merging with the back run when it
    /// continues it (page order is unaffected by the merge).
    fn push_back(order: &mut VecDeque<(u64, u64)>, s: u64, l: u64) {
        match order.back_mut() {
            Some((bs, bl)) if *bs + *bl == s => *bl += l,
            _ => order.push_back((s, l)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn pages(runs: &[(u64, u64)]) -> Vec<u64> {
        runs.iter().flat_map(|&(s, l)| s..s + l).collect()
    }

    #[test]
    fn insert_coalesces_and_counts_new_pages() {
        let mut s = RunSet::default();
        assert_eq!(s.insert_run(10, 5), 5);
        assert_eq!(s.insert_run(15, 5), 5); // adjacent: coalesces
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.insert_run(12, 10), 2); // overlaps 12..20, adds 20..22
        assert_eq!(s.len_pages(), 12);
        assert_eq!(s.run_count(), 1);
        assert!(s.contains(10) && s.contains(21) && !s.contains(22));
    }

    #[test]
    fn insert_bridges_disjoint_runs() {
        let mut s = RunSet::default();
        s.insert_run(0, 2);
        s.insert_run(10, 2);
        s.insert_run(20, 2);
        assert_eq!(s.run_count(), 3);
        // Bridge across all three; the merged run spans [0, 22).
        assert_eq!(s.insert_run(1, 20), 16);
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.len_pages(), 22);
    }

    #[test]
    fn remove_splits_runs_and_reports_sub_runs() {
        let mut s = RunSet::default();
        s.insert_run(0, 10);
        let removed = s.remove_run(3, 4);
        assert_eq!(removed, vec![(3, 4)]);
        assert_eq!(s.len_pages(), 6);
        assert_eq!(s.run_count(), 2);
        assert!(s.contains(2) && !s.contains(3) && !s.contains(6) && s.contains(7));
        // Removal across a gap reports only present sub-runs, ascending.
        let removed = s.remove_run(0, 10);
        assert_eq!(removed, vec![(0, 3), (7, 3)]);
        assert_eq!(s.len_pages(), 0);
    }

    #[test]
    fn span_at_classifies_membership_runs() {
        let mut s = RunSet::default();
        s.insert_run(4, 4); // members: 4..8
        assert_eq!(s.span_at(0, 16), (false, 4));
        assert_eq!(s.span_at(4, 16), (true, 8));
        assert_eq!(s.span_at(6, 7), (true, 7)); // clipped by end
        assert_eq!(s.span_at(8, 16), (false, 16));
    }

    #[test]
    fn fifo_pops_pages_in_push_order() {
        let mut f = FifoRunSet::default();
        f.insert(10, 3);
        f.insert(13, 2); // continues the back run: merges, order unchanged
        f.insert(0, 1);
        f.insert(11, 3); // all present: keeps its place
        assert_eq!(f.order.len(), 2);
        f.insert(8, 10); // only the absent 8..10 and 15..18 enter, ascending
        assert_eq!(f.len_pages(), 11);
        let popped: Vec<u64> = (0..12).flat_map(|_| pages(&f.pop_oldest(1))).collect();
        assert_eq!(popped, vec![10, 11, 12, 13, 14, 0, 8, 9, 15, 16, 17]);
        assert_eq!(f, FifoRunSet::default());
    }

    #[test]
    fn fifo_bulk_pop_matches_single_pops() {
        let mut a = FifoRunSet::default();
        a.insert(0, 4);
        a.insert(100, 4);
        let mut b = a.clone();
        let bulk = pages(&a.pop_oldest(6));
        let single: Vec<u64> = (0..6).flat_map(|_| pages(&b.pop_oldest(1))).collect();
        assert_eq!(bulk, single);
        assert_eq!(a, b);
    }

    #[test]
    fn fifo_remove_pages_preserves_relative_order() {
        let mut f = FifoRunSet::default();
        f.insert(0, 8);
        f.insert(20, 4);
        f.remove(2, 4); // drop 2..6
        assert_eq!(f.order, [(0, 2), (6, 2), (20, 4)]);
        assert_eq!(f.len_pages(), 8);
        assert_eq!(f.pop_oldest(1), vec![(0, 1)]);
    }

    proptest! {
        /// The run set against a page-at-a-time model: a `VecDeque` for the
        /// order, a `BTreeSet` for membership.
        #[test]
        fn fifo_run_set_matches_a_page_queue(
            ops in proptest::collection::vec((0u8..3, 0u64..48, 0u64..12), 1..64),
        ) {
            let mut set = FifoRunSet::default();
            let mut order: VecDeque<u64> = VecDeque::new();
            let mut members: BTreeSet<u64> = BTreeSet::new();
            for (op, a, b) in ops {
                match op {
                    0 => {
                        set.insert(a, b);
                        for p in a..a + b {
                            if members.insert(p) {
                                order.push_back(p);
                            }
                        }
                    }
                    1 => {
                        let want: Vec<u64> = (0..b).map_while(|_| order.pop_front()).collect();
                        for p in &want {
                            members.remove(p);
                        }
                        prop_assert_eq!(pages(&set.pop_oldest(b)), want);
                    }
                    _ => {
                        set.remove(a, b);
                        order.retain(|p| !(a..a + b).contains(p));
                        members.retain(|p| !(a..a + b).contains(p));
                    }
                }
                let runs: Vec<(u64, u64)> = set.members.iter().collect();
                prop_assert_eq!(pages(&runs), members.iter().copied().collect::<Vec<_>>());
                let queued = set.order_runs();
                prop_assert_eq!(pages(&queued), order.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(set.len_pages(), members.len() as u64);
                for w in runs.windows(2) {
                    prop_assert!(w[0].0 + w[0].1 < w[1].0, "runs {:?} touch", w);
                }
                for w in queued.windows(2) {
                    prop_assert!(w[0].0 + w[0].1 != w[1].0, "order runs {:?} not merged", w);
                }
            }
        }
    }
}

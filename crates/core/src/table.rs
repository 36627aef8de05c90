//! The runtime's mapping table, shared by every tenant of a pool.
//!
//! [`MappingTable`] is one [`MapModel`] behind one mutex, the shape
//! libomptarget gives each device's host-to-target map. Every table
//! operation takes the lock once and makes one `MapModel` call, so the
//! refcount and presence rules are the single-owner model's and nothing
//! here re-derives them. [`MapLookupCache`] is a per-tenant 8-way MRU
//! presence cache in front of it: probes are plain `Cell`/`RefCell` state
//! owned by one thread, and only a miss takes the table lock to recompute
//! presence. The cache is there for the cost model, not for contention:
//! online elision charges `map_lookup_hit` or `map_lookup_miss` from its
//! hit/miss sequence.
//!
//! ## Cache coherence rule
//!
//! The table deliberately carries **no** epoch or generation counter:
//! each runtime/tenant invalidates *its own* [`MapLookupCache`] at
//! exactly the points where it inserts or removes an entry, mirroring
//! the old single-owner clear-on-mutation behaviour. This is sound
//! because tenants operate on disjoint VA windows (see
//! `tenant::TENANT_VA_STRIDE`), so no tenant's mutation can change the
//! presence answer for an extent another tenant probes — and it is what
//! keeps a tenant's hit/miss sequence (and therefore its elision lookup
//! charges and ledger bytes) independent of its neighbours.
//!
//! ## Contention metrics
//!
//! With [`enable_metrics`](MappingTable::enable_metrics) armed, each
//! table operation counts its one lock acquisition, a contended
//! acquisition (detected by `try_lock`-then-`lock`) is counted
//! separately, and [`contention`](MappingTable::contention) reads both
//! as a [`TableContention`] pair. The contended count depends on the
//! wall-clock schedule, and neither count appears in result bytes. When
//! metrics are off (the default) the lock costs one relaxed atomic load
//! and branch on top of the plain `lock()`.

use crate::error::OmpError;
use crate::mapping::{MapModel, Mapping, Presence};
use apu_mem::{AddrRange, VirtAddr};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Ways in the extent-keyed presence lookup cache. Sized for the
/// repeated-map workloads that drive elision (a kernel's handful of
/// operands re-probed every iteration), not for capacity.
pub(crate) const LOOKUP_CACHE_WAYS: usize = 8;

/// A private 8-way MRU presence cache, owned by one runtime/tenant.
///
/// Interior mutability is `Cell`/`RefCell`, not a lock: probes from the
/// owning thread never contend with anything. The type is deliberately
/// `Send` but **not** `Sync` — sharing one cache between threads would
/// couple the tenants' hit/miss sequences, and with them their elision
/// lookup charges, so the compiler forbids it.
#[derive(Debug, Default)]
pub struct MapLookupCache {
    /// Most-recently-used first, so index 0 is the last-hit slot and the
    /// tail ages out LRU.
    slots: RefCell<Vec<(AddrRange, Presence)>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    invalidations: Cell<u64>,
}

impl MapLookupCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fast path: return the cached presence for `range` if present,
    /// promoting the slot to most-recently-used and counting a hit.
    pub fn probe(&self, range: &AddrRange) -> Option<Presence> {
        let mut slots = self.slots.borrow_mut();
        let i = slots.iter().position(|(r, _)| r == range)?;
        let slot = slots.remove(i);
        slots.insert(0, slot);
        self.hits.set(self.hits.get() + 1);
        Some(slots[0].1)
    }

    /// Slow-path refill after a miss: record `presence` for `range` as
    /// most-recently-used, aging out the LRU tail, and count a miss.
    pub fn fill(&self, range: AddrRange, presence: Presence) {
        let mut slots = self.slots.borrow_mut();
        slots.insert(0, (range, presence));
        slots.truncate(LOOKUP_CACHE_WAYS);
        self.misses.set(self.misses.get() + 1);
    }

    /// Drop every cached extent. Called by the owning runtime whenever
    /// *it* inserts or removes a table entry (see the module-level
    /// coherence rule) — refcount changes don't affect presence.
    pub fn invalidate(&self) {
        self.slots.borrow_mut().clear();
        self.invalidations.set(self.invalidations.get() + 1);
    }

    /// `(hits, misses)` observed by [`probe`](Self::probe) /
    /// [`fill`](Self::fill).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Number of [`invalidate`](Self::invalidate) calls — one per table
    /// mutation by the owning runtime, so a derivable per-run counter.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.get()
    }
}

/// The concurrent mapping table: one [`MapModel`] keyed by host start
/// behind one mutex, shared by every tenant of a pool behind an `Arc`.
///
/// All methods take `&self`. Single-owner use (one runtime, one table)
/// behaves bit-identically to one [`MapModel`].
#[derive(Debug, Default)]
pub struct MappingTable {
    /// Live entries, keyed by host start.
    model: Mutex<MapModel<VirtAddr>>,
    /// Lifetime number of map operations processed (statistics).
    total_maps: AtomicU64,
    /// Whether contention metrics are armed (off: one branch per lock).
    metrics_on: AtomicBool,
    /// Lock acquisitions by table operations (armed only).
    acquisitions: AtomicU64,
    /// Contended acquisitions: `try_lock` failed, `lock` waited.
    contended: AtomicU64,
}

impl MappingTable {
    /// Create a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the contention instruments. One-way: there is no disarm, so
    /// readers never see a counter reset.
    pub fn enable_metrics(&self) {
        self.metrics_on.store(true, Ordering::Relaxed);
    }

    /// Acquire the table for one operation, counting the acquisition
    /// (and, when `try_lock` would block, the contention) if metrics are
    /// armed.
    fn lock(&self) -> MutexGuard<'_, MapModel<VirtAddr>> {
        if !self.metrics_on.load(Ordering::Relaxed) {
            return self.observe();
        }
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.model.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.observe()
            }
            Err(TryLockError::Poisoned(e)) => panic!("mapping table lock poisoned: {e}"),
        }
    }

    /// Acquire the table uncounted: observer-side reads (`len`,
    /// snapshots) are not table operations.
    fn observe(&self) -> MutexGuard<'_, MapModel<VirtAddr>> {
        self.model.lock().expect("mapping table lock poisoned")
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.observe().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime number of map operations processed.
    pub fn total_maps(&self) -> u64 {
        self.total_maps.load(Ordering::Acquire)
    }

    /// The live entry containing `addr`, if any (an owned copy — the
    /// lock is released before returning).
    pub fn find(&self, addr: VirtAddr) -> Option<Mapping> {
        self.lock().find(addr).cloned()
    }

    /// Translate a host address through the table.
    pub fn translate(&self, addr: VirtAddr) -> Option<VirtAddr> {
        self.find(addr).map(|m| m.translate(addr))
    }

    /// Classify `range` against the live entries.
    pub fn presence(&self, range: &AddrRange) -> Presence {
        self.lock().presence(range)
    }

    /// Classify `range` through a caller-owned [`MapLookupCache`]:
    /// zero-contention probe, locked recompute-and-fill on miss.
    /// Returns the presence and whether the probe hit the cache.
    pub fn presence_cached(&self, cache: &MapLookupCache, range: &AddrRange) -> (Presence, bool) {
        if let Some(p) = cache.probe(range) {
            return (p, true);
        }
        let p = self.presence(range);
        cache.fill(*range, p);
        (p, false)
    }

    /// Record a new entry with refcount 1. The caller must have verified
    /// the range is `Absent` (within its own VA window — the check is
    /// racy only across tenants, whose windows are disjoint).
    pub fn insert(&self, host: AddrRange, device_base: VirtAddr) {
        self.total_maps.fetch_add(1, Ordering::AcqRel);
        self.lock().insert(host, device_base);
    }

    /// Increment the refcount of the entry containing `range`.
    /// Returns the new count.
    pub fn retain(&self, range: &AddrRange) -> Result<u32, OmpError> {
        self.total_maps.fetch_add(1, Ordering::AcqRel);
        self.lock().retain(range)
    }

    /// Decrement the refcount of the entry containing `range`. When it
    /// reaches zero (or `force_delete`), the entry is removed and
    /// returned so the runtime can release device storage and issue
    /// final transfers.
    pub fn release(
        &self,
        range: &AddrRange,
        force_delete: bool,
    ) -> Result<Option<Mapping>, OmpError> {
        self.lock().release(range, force_delete)
    }

    /// Every live entry, sorted by host start address.
    pub fn snapshot(&self) -> Vec<Mapping> {
        self.observe().iter().cloned().collect()
    }

    /// Live entries whose host start falls in `[lo, hi)`, sorted by host
    /// start — a tenant's slice of the shared table.
    pub fn snapshot_window(&self, lo: u64, hi: u64) -> Vec<Mapping> {
        self.observe()
            .iter()
            .filter(|m| (lo..hi).contains(&m.host.start.as_u64()))
            .cloned()
            .collect()
    }

    /// Read the contention instruments. Meaningful only after
    /// [`enable_metrics`](Self::enable_metrics); all-zero otherwise.
    pub fn contention(&self) -> TableContention {
        TableContention {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of the table lock's instruments: the
/// `(acquisitions, contended)` pair.
///
/// The contended count depends on the wall-clock schedule — which
/// threads raced for the lock — so neither count may enter result bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableContention {
    acquisitions: u64,
    contended: u64,
}

impl TableContention {
    /// Lock acquisitions by table operations.
    pub fn total_acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Acquisitions that found the lock held and waited for it.
    pub fn total_contended(&self) -> u64 {
        self.contended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(VirtAddr(start), len)
    }

    const MIB4: u64 = 1 << 22;

    #[test]
    fn presence_classification_matches_map_model() {
        let t = MappingTable::new();
        t.insert(r(1000, 100), VirtAddr(9000));
        assert_eq!(t.presence(&r(1000, 100)), Presence::Present);
        assert_eq!(t.presence(&r(1010, 50)), Presence::Present);
        assert_eq!(t.presence(&r(1050, 100)), Presence::Partial);
        assert_eq!(t.presence(&r(900, 150)), Presence::Partial);
        assert_eq!(t.presence(&r(5000, 10)), Presence::Absent);
    }

    #[test]
    fn boundary_crossing_entries_are_found_and_classified() {
        let t = MappingTable::new();
        // Crosses the 4 MiB boundary.
        t.insert(r(MIB4 - 4096, 8192), VirtAddr(MIB4 - 4096));
        assert_eq!(t.presence(&r(MIB4 - 4096, 8192)), Presence::Present);
        assert_eq!(t.presence(&r(MIB4, 1024)), Presence::Present);
        assert_eq!(t.presence(&r(MIB4 - 8192, 8192)), Presence::Partial);
        assert!(t.find(VirtAddr(MIB4)).is_some());
        assert_eq!(t.translate(VirtAddr(MIB4)).unwrap().as_u64(), MIB4);
        assert!(t.release(&r(MIB4, 16), false).unwrap().is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn wide_probe_sees_far_entries() {
        let t = MappingTable::new();
        // An entry 160 MiB above the start of a 256 MiB probe.
        t.insert(r(40 * MIB4 + 64, 64), VirtAddr(0));
        assert_eq!(t.presence(&r(0, 64 * MIB4)), Presence::Partial);
        assert_eq!(t.presence(&r(0, 64)), Presence::Absent);
    }

    #[test]
    fn refcount_lifecycle() {
        let t = MappingTable::new();
        t.insert(r(1000, 100), VirtAddr(1000));
        assert_eq!(t.retain(&r(1000, 100)).unwrap(), 2);
        assert!(t.release(&r(1000, 100), false).unwrap().is_none());
        assert_eq!(t.len(), 1);
        let removed = t.release(&r(1010, 10), false).unwrap().unwrap();
        assert_eq!(removed.host, r(1000, 100));
        assert!(t.is_empty());
        assert_eq!(t.total_maps(), 2);
    }

    #[test]
    fn force_delete_and_unmapped_errors() {
        let t = MappingTable::new();
        t.insert(r(1000, 100), VirtAddr(1000));
        t.retain(&r(1000, 100)).unwrap();
        assert!(t.release(&r(1000, 100), true).unwrap().is_some());
        assert!(t.is_empty());
        assert!(matches!(
            t.release(&r(5, 5), false),
            Err(OmpError::NotMapped { .. })
        ));
        assert!(matches!(
            t.retain(&r(5, 5)),
            Err(OmpError::NotMapped { .. })
        ));
    }

    #[test]
    fn lookup_cache_hits_and_ages_lru() {
        let t = MappingTable::new();
        let c = MapLookupCache::new();
        t.insert(r(0, 8), VirtAddr(0));
        assert_eq!(t.presence_cached(&c, &r(0, 8)), (Presence::Present, false));
        assert_eq!(t.presence_cached(&c, &r(0, 8)), (Presence::Present, true));
        assert_eq!(c.stats(), (1, 1));
        for i in 0..(LOOKUP_CACHE_WAYS as u64 + 2) {
            t.presence_cached(&c, &r(i * 8, 4));
        }
        assert!(!t.presence_cached(&c, &r(0, 4)).1);
        let newest = (LOOKUP_CACHE_WAYS as u64 + 1) * 8;
        assert!(t.presence_cached(&c, &r(newest, 4)).1);
        c.invalidate();
        assert!(!t.presence_cached(&c, &r(newest, 4)).1);
        assert_eq!(c.invalidations(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_window_filters() {
        let t = MappingTable::new();
        t.insert(r(9 * MIB4, 64), VirtAddr(0));
        t.insert(r(1000, 100), VirtAddr(1000));
        t.insert(r(MIB4 - 64, 128), VirtAddr(0));
        let snap = t.snapshot();
        let starts: Vec<u64> = snap.iter().map(|m| m.host.start.as_u64()).collect();
        assert_eq!(starts, vec![1000, MIB4 - 64, 9 * MIB4]);
        let windowed = t.snapshot_window(0, MIB4);
        assert_eq!(windowed.len(), 2);
    }

    #[test]
    fn concurrent_disjoint_windows_do_not_interfere() {
        use std::sync::Arc;
        let t = Arc::new(MappingTable::new());
        let stride: u64 = 1 << 40;
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let c = MapLookupCache::new();
                    let base = w * stride;
                    for i in 0..256u64 {
                        let range = r(base + i * 8192, 4096);
                        t.insert(range, range.start);
                        assert_eq!(t.presence_cached(&c, &range), (Presence::Present, false));
                        assert_eq!(t.presence_cached(&c, &range).0, Presence::Present);
                        t.retain(&range).unwrap();
                        assert!(t.release(&range, false).unwrap().is_none());
                        assert!(t.release(&range, false).unwrap().is_some());
                    }
                    assert!(t.snapshot_window(base, base + stride).is_empty());
                });
            }
        });
        assert!(t.is_empty());
        assert_eq!(t.total_maps(), 4 * 256 * 2);
    }

    #[test]
    fn metrics_off_records_nothing() {
        let t = MappingTable::new();
        t.insert(r(1000, 100), VirtAddr(1000));
        t.retain(&r(1000, 100)).unwrap();
        t.release(&r(1000, 100), true).unwrap();
        let c = t.contention();
        assert_eq!(c.total_acquisitions(), 0);
        assert_eq!(c.total_contended(), 0);
    }

    #[test]
    fn contention_counters_track_armed_ops() {
        let t = MappingTable::new();
        t.enable_metrics();
        // Every counted table call is exactly one lock acquisition.
        let mut expected = 0;
        let mut one_more = |op: &str| {
            expected += 1;
            assert_eq!(t.contention().total_acquisitions(), expected, "{op}");
        };
        t.insert(r(1000, 100), VirtAddr(1000));
        one_more("insert");
        t.insert(r(9 * MIB4 + 8, 64), VirtAddr(0));
        one_more("second insert");
        assert!(t.find(VirtAddr(1010)).is_some());
        one_more("find");
        assert_eq!(t.presence(&r(1000, 100)), Presence::Present);
        one_more("present probe");
        // An absent probe covering 256 MiB is still one acquisition.
        assert_eq!(t.presence(&r(10 * MIB4, 64 * MIB4)), Presence::Absent);
        one_more("wide absent probe");
        assert_eq!(t.retain(&r(1000, 100)).unwrap(), 2);
        one_more("retain");
        assert!(t.release(&r(1000, 100), true).unwrap().is_some());
        one_more("release");
        // Observer reads are not table operations.
        assert_eq!(t.len(), 1);
        assert_eq!(t.snapshot().len(), 1);
        assert!(t.snapshot_window(0, MIB4).is_empty());
        let c = t.contention();
        assert_eq!(c.total_acquisitions(), 7);
        // Uncontended single-thread run: try_lock always succeeds.
        assert_eq!(c.total_contended(), 0);
    }

    #[test]
    fn contended_acquisitions_are_detected_under_racing_threads() {
        use std::sync::Arc;
        let t = Arc::new(MappingTable::new());
        t.enable_metrics();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let range = r(w * 65536 + i % 64 * 256, 128);
                        let _ = t.find(range.start);
                    }
                });
            }
        });
        let c = t.contention();
        assert_eq!(c.total_acquisitions(), 8000);
        // Contention is schedule-dependent; on a single-core runner it can
        // legitimately be zero, so only sanity-bound it.
        assert!(c.total_contended() <= c.total_acquisitions());
    }
}

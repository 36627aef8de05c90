//! The host-to-target mapping model (`HostDataToTargetMap` analog).
//!
//! OpenMP data-environment presence is reference counted: an enclosing
//! `target enter data` keeps an entry alive across inner `target` constructs,
//! which then find the data *present* and perform no storage operations
//! (unless the `always` modifier forces a transfer). In zero-copy
//! configurations the table still tracks presence and reference counts —
//! the runtime needs them for Eager Maps prefault policy and for OpenMP
//! semantics — but the "device" address equals the host address.
//!
//! [`MapModel`] is the one implementation of those rules: the runtime's
//! mapping table, the static checker, the elision planner and the
//! optimizer each hold instances of it.

use crate::error::OmpError;
use crate::modes::Tokens;
use apu_mem::{AddrRange, VirtAddr};
use std::collections::BTreeMap;

/// Direction of a `map` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapDir {
    /// `map(to: ...)` — host-to-device on entry.
    To,
    /// `map(from: ...)` — device-to-host on exit.
    From,
    /// `map(tofrom: ...)` — both.
    ToFrom,
    /// `map(alloc: ...)` — presence only, no transfers.
    Alloc,
}

impl MapDir {
    /// The clause keyword of each direction: the one spelling MapIR text,
    /// telemetry payloads and diagnostics print, and MapIR parsing reads.
    pub const TOKENS: Tokens<MapDir, 4> = Tokens {
        what: "map direction",
        table: [
            (MapDir::To, "to"),
            (MapDir::From, "from"),
            (MapDir::ToFrom, "tofrom"),
            (MapDir::Alloc, "alloc"),
        ],
    };

    /// The clause keyword (`to`, `from`, `tofrom`, `alloc`).
    pub fn token(self) -> &'static str {
        Self::TOKENS.token(self)
    }

    /// Does entry to the data environment transfer host-to-device?
    pub fn copies_to(self) -> bool {
        matches!(self, MapDir::To | MapDir::ToFrom)
    }

    /// Does exit from the data environment transfer device-to-host?
    pub fn copies_from(self) -> bool {
        matches!(self, MapDir::From | MapDir::ToFrom)
    }
}

/// One `map` clause item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapEntry {
    /// Host range being mapped.
    pub range: AddrRange,
    /// Transfer direction.
    pub dir: MapDir,
    /// `always` modifier: transfer even when the data is already present.
    pub always: bool,
}

impl MapEntry {
    /// `map(to: ...)`.
    pub const fn to(range: AddrRange) -> Self {
        MapEntry {
            range,
            dir: MapDir::To,
            always: false,
        }
    }

    /// `map(from: ...)`.
    pub fn from(range: AddrRange) -> Self {
        MapEntry {
            range,
            dir: MapDir::From,
            always: false,
        }
    }

    /// `map(tofrom: ...)`.
    pub fn tofrom(range: AddrRange) -> Self {
        MapEntry {
            range,
            dir: MapDir::ToFrom,
            always: false,
        }
    }

    /// `map(alloc: ...)`.
    pub fn alloc(range: AddrRange) -> Self {
        MapEntry {
            range,
            dir: MapDir::Alloc,
            always: false,
        }
    }

    /// Add the `always` modifier.
    pub fn always(mut self) -> Self {
        self.always = true;
        self
    }
}

/// One live entry of a [`MapModel`]: the extent, its dynamic reference
/// count and the owner's per-extent payload.
#[derive(Debug, Clone)]
pub struct Mapped<P> {
    /// Host range the entry covers (the first map's full range).
    pub host: AddrRange,
    /// Dynamic reference count.
    pub refcount: u32,
    /// What the owner tracks per extent.
    pub payload: P,
}

/// A live runtime mapping-table record: the payload is the base device
/// address corresponding to `host.start`, which equals the host address
/// in zero-copy configurations.
pub type Mapping = Mapped<VirtAddr>;

impl Mapping {
    /// Translate a host address inside this entry to its device address.
    pub fn translate(&self, addr: VirtAddr) -> VirtAddr {
        debug_assert!(self.host.contains(addr));
        self.payload
            .offset(addr.as_u64() - self.host.start.as_u64())
    }
}

/// Presence lookup outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// No live entry overlaps the range.
    Absent,
    /// A live entry fully contains the range.
    Present,
    /// A live entry overlaps but does not contain the range — unspecified
    /// behaviour in OpenMP; the runtime reports it as an error.
    Partial,
}

/// The OpenMP mapping model: live entries keyed by host start, each with a
/// reference count and a payload `P`, plus the `nowait` exit maps each
/// thread has deferred to its next taskwait.
///
/// Pure and single-owner. Every presence/refcount user is an instance:
/// the one behind [`crate::table::MappingTable`]'s lock (`P` = device
/// base), the static checker (`P` = version clocks), and the elision
/// planner and optimizer (`P` = `()`). Live entries never overlap: callers
/// insert only `Absent` ranges.
#[derive(Debug)]
pub struct MapModel<P> {
    entries: BTreeMap<u64, Mapped<P>>,
    deferred: BTreeMap<u32, Vec<MapEntry>>,
}

impl<P> Default for MapModel<P> {
    fn default() -> Self {
        MapModel {
            entries: BTreeMap::new(),
            deferred: BTreeMap::new(),
        }
    }
}

impl<P> MapModel<P> {
    /// Create an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live entries in host start order.
    pub fn iter(&self) -> impl Iterator<Item = &Mapped<P>> {
        self.entries.values()
    }

    /// Every live extent with its writable payload, in host start order.
    /// Extents and refcounts change only through `insert`, `retain` and
    /// `release`.
    pub fn payloads_mut(&mut self) -> impl Iterator<Item = (AddrRange, &mut P)> {
        self.entries.values_mut().map(|m| (m.host, &mut m.payload))
    }

    /// The live entry containing `addr`, if any.
    pub fn find(&self, addr: VirtAddr) -> Option<&Mapped<P>> {
        self.entries
            .range(..=addr.as_u64())
            .next_back()
            .map(|(_, m)| m)
            .filter(|m| m.host.contains(addr))
    }

    /// The payload of the live entry containing `addr`, writable.
    pub fn payload_mut(&mut self, addr: VirtAddr) -> Option<&mut P> {
        self.find_mut(addr).map(|m| &mut m.payload)
    }

    fn find_mut(&mut self, addr: VirtAddr) -> Option<&mut Mapped<P>> {
        self.entries
            .range_mut(..=addr.as_u64())
            .next_back()
            .map(|(_, m)| m)
            .filter(|m| m.host.contains(addr))
    }

    /// The live entry fully containing `range` — the entry that makes it
    /// [`Presence::Present`].
    pub fn containing(&self, range: &AddrRange) -> Option<&Mapped<P>> {
        self.find(range.start)
            .filter(|m| m.host.contains_range(range))
    }

    /// Classify `range` against the live entries.
    pub fn presence(&self, range: &AddrRange) -> Presence {
        if let Some(m) = self.find(range.start) {
            return if m.host.contains_range(range) {
                Presence::Present
            } else {
                Presence::Partial
            };
        }
        // An entry starting inside the range would be a partial overlap.
        if self
            .entries
            .range(range.start.as_u64()..range.end())
            .next()
            .is_some()
        {
            Presence::Partial
        } else {
            Presence::Absent
        }
    }

    /// Record a new entry with refcount 1. The caller must have verified
    /// the range is `Absent`.
    pub fn insert(&mut self, host: AddrRange, payload: P) {
        debug_assert_eq!(self.presence(&host), Presence::Absent);
        self.entries.insert(
            host.start.as_u64(),
            Mapped {
                host,
                refcount: 1,
                payload,
            },
        );
    }

    /// Increment the refcount of the entry containing `range.start`.
    /// Returns the new count.
    pub fn retain(&mut self, range: &AddrRange) -> Result<u32, OmpError> {
        let m = self
            .find_mut(range.start)
            .ok_or(OmpError::NotMapped { range: *range })?;
        m.refcount += 1;
        Ok(m.refcount)
    }

    /// Decrement the refcount of the entry containing `range.start`. When
    /// it reaches zero (or `delete`), the entry is removed and returned so
    /// the owner can release device storage and issue final transfers.
    pub fn release(
        &mut self,
        range: &AddrRange,
        delete: bool,
    ) -> Result<Option<Mapped<P>>, OmpError> {
        let m = self
            .find_mut(range.start)
            .ok_or(OmpError::NotMapped { range: *range })?;
        m.refcount = if delete {
            0
        } else {
            m.refcount.saturating_sub(1)
        };
        if m.refcount == 0 {
            let key = m.host.start.as_u64();
            Ok(self.entries.remove(&key))
        } else {
            Ok(None)
        }
    }

    /// Defer a `nowait` construct's exit maps to `thread`'s next taskwait.
    pub fn defer(&mut self, thread: u32, maps: &[MapEntry]) {
        self.deferred
            .entry(thread)
            .or_default()
            .extend_from_slice(maps);
    }

    /// Take the exit maps `thread` deferred, in deferral order; the
    /// caller applies them at the taskwait. Other threads' stay deferred.
    pub fn drain(&mut self, thread: u32) -> Vec<MapEntry> {
        self.deferred.remove(&thread).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(VirtAddr(start), len)
    }

    #[test]
    fn presence_classification() {
        let mut t = MapModel::new();
        t.insert(r(1000, 100), VirtAddr(9000));
        assert_eq!(t.presence(&r(1000, 100)), Presence::Present);
        assert_eq!(t.presence(&r(1010, 50)), Presence::Present);
        assert_eq!(t.presence(&r(1050, 100)), Presence::Partial);
        assert_eq!(t.presence(&r(900, 150)), Presence::Partial);
        assert_eq!(t.presence(&r(5000, 10)), Presence::Absent);
    }

    #[test]
    fn translation_offsets() {
        let mut t = MapModel::new();
        t.insert(r(1000, 100), VirtAddr(9000));
        let m = t.find(VirtAddr(1042)).unwrap();
        assert_eq!(m.translate(VirtAddr(1042)).as_u64(), 9042);
        assert!(t.find(VirtAddr(2000)).is_none());
    }

    #[test]
    fn find_contains_the_start_and_containing_the_whole_range() {
        let mut t = MapModel::new();
        t.insert(r(1000, 100), ());
        // A range that starts inside the entry but runs past its end: the
        // start lookup finds the entry, the full-containment lookup does not.
        let straddling = r(1050, 100);
        assert_eq!(t.find(straddling.start).unwrap().host, r(1000, 100));
        assert!(t.containing(&straddling).is_none());
        assert_eq!(t.containing(&r(1010, 50)).unwrap().host, r(1000, 100));
        // A range that starts before the entry is found by neither.
        assert!(t.find(VirtAddr(900)).is_none());
        assert!(t.containing(&r(900, 150)).is_none());
    }

    #[test]
    fn refcount_lifecycle() {
        let mut t = MapModel::new();
        t.insert(r(1000, 100), VirtAddr(1000));
        assert_eq!(t.retain(&r(1000, 100)).unwrap(), 2);
        assert!(t.release(&r(1000, 100), false).unwrap().is_none());
        let removed = t.release(&r(1010, 10), false).unwrap().unwrap();
        assert_eq!(removed.host, r(1000, 100));
        assert!(t.is_empty());
    }

    #[test]
    fn force_delete_ignores_refcount() {
        let mut t = MapModel::new();
        t.insert(r(1000, 100), VirtAddr(1000));
        t.retain(&r(1000, 100)).unwrap();
        t.retain(&r(1000, 100)).unwrap();
        let removed = t.release(&r(1000, 100), true).unwrap();
        assert!(removed.is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn release_of_unmapped_errors() {
        let mut t = MapModel::<()>::new();
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
    fn drain_takes_only_the_waiting_threads_deferred_exits() {
        let mut t = MapModel::<()>::new();
        let (a, b, c) = (
            MapEntry::tofrom(r(0, 8)),
            MapEntry::from(r(8, 8)),
            MapEntry::to(r(16, 8)),
        );
        t.defer(0, &[a]);
        t.defer(1, &[b]);
        t.defer(0, &[c]);
        assert_eq!(t.drain(1), vec![b]);
        assert_eq!(t.drain(1), vec![]);
        assert_eq!(t.drain(0), vec![a, c]);
        assert_eq!(t.drain(0), vec![]);
    }

    #[test]
    fn map_dir_transfer_rules() {
        assert!(MapDir::To.copies_to() && !MapDir::To.copies_from());
        assert!(!MapDir::From.copies_to() && MapDir::From.copies_from());
        assert!(MapDir::ToFrom.copies_to() && MapDir::ToFrom.copies_from());
        assert!(!MapDir::Alloc.copies_to() && !MapDir::Alloc.copies_from());
    }

    #[test]
    fn entry_builders() {
        let e = MapEntry::tofrom(r(0, 8)).always();
        assert!(e.always);
        assert_eq!(e.dir, MapDir::ToFrom);
        assert!(!MapEntry::alloc(r(0, 8)).always);
    }
}

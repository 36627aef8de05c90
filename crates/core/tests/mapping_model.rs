//! Model-based property tests for the mapping structures:
//!
//! 1. the single-owner [`MapModel`] against a naive reference (a plain
//!    `Vec` of entries with linear search), and
//! 2. the concurrent [`MappingTable`] against `MapModel` as the oracle,
//!    over an address universe that scatters entries across 4 MiB
//!    granules and straddles granule boundaries, with probes up to 8 MiB
//!    long, and with the per-thread [`MapLookupCache`] checked for
//!    coherence under the observer-side invalidation rule.
//!
//! Random sequences of insert / retain / release / translate / presence
//! operations must behave identically on all of them.

use apu_mem::{AddrRange, VirtAddr};
use omp_offload::{MapLookupCache, MapModel, MappingTable, Presence};
use proptest::prelude::*;

/// The trivially-correct reference.
#[derive(Default)]
struct NaiveTable {
    entries: Vec<(AddrRange, VirtAddr, u32)>, // (host, device, refcount)
}

impl NaiveTable {
    fn presence(&self, range: &AddrRange) -> Presence {
        for (host, _, _) in &self.entries {
            if host.contains_range(range) {
                return Presence::Present;
            }
            if host.overlaps(range) {
                return Presence::Partial;
            }
        }
        Presence::Absent
    }

    fn translate(&self, addr: VirtAddr) -> Option<VirtAddr> {
        self.entries
            .iter()
            .find(|(h, _, _)| h.contains(addr))
            .map(|(h, d, _)| VirtAddr(d.as_u64() + addr.as_u64() - h.start.as_u64()))
    }

    fn insert(&mut self, host: AddrRange, device: VirtAddr) {
        self.entries.push((host, device, 1));
    }

    fn retain(&mut self, range: &AddrRange) -> Option<u32> {
        for (h, _, rc) in &mut self.entries {
            if h.contains(range.start) {
                *rc += 1;
                return Some(*rc);
            }
        }
        None
    }

    fn release(&mut self, range: &AddrRange, delete: bool) -> Option<Option<AddrRange>> {
        for i in 0..self.entries.len() {
            let (h, _, rc) = &mut self.entries[i];
            if h.contains(range.start) {
                *rc = if delete { 0 } else { rc.saturating_sub(1) };
                if *rc == 0 {
                    let host = self.entries.remove(i).0;
                    return Some(Some(host));
                }
                return Some(None);
            }
        }
        None
    }
}

/// One random operation over a small address universe.
#[derive(Debug, Clone)]
enum Oper {
    Insert { slot: u8 },
    Retain { addr: u16 },
    Release { addr: u16, delete: bool },
    Translate { addr: u16 },
    Presence { start: u16, len: u8 },
}

fn arb_op() -> impl Strategy<Value = Oper> {
    prop_oneof![
        (0u8..16).prop_map(|slot| Oper::Insert { slot }),
        (0u16..2048).prop_map(|addr| Oper::Retain { addr }),
        ((0u16..2048), any::<bool>()).prop_map(|(addr, delete)| Oper::Release { addr, delete }),
        (0u16..2048).prop_map(|addr| Oper::Translate { addr }),
        ((0u16..2048), (1u8..255)).prop_map(|(start, len)| Oper::Presence { start, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_model_matches_naive_model(ops in proptest::collection::vec(arb_op(), 0..120)) {
        let mut real = MapModel::new();
        let mut model = NaiveTable::default();
        for op in ops {
            match op {
                Oper::Insert { slot } => {
                    // 16 disjoint 128-byte slots: inserts never overlap.
                    let host = AddrRange::new(VirtAddr(slot as u64 * 128), 128);
                    if real.presence(&host) == Presence::Absent {
                        let device = VirtAddr(0x9000_0000 + slot as u64 * 128);
                        real.insert(host, device);
                        model.insert(host, device);
                    }
                }
                Oper::Retain { addr } => {
                    let r = AddrRange::new(VirtAddr(addr as u64), 1);
                    let got = real.retain(&r).ok();
                    let want = model.retain(&r);
                    prop_assert_eq!(got, want);
                }
                Oper::Release { addr, delete } => {
                    let r = AddrRange::new(VirtAddr(addr as u64), 1);
                    let got = real
                        .release(&r, delete)
                        .ok()
                        .map(|removed| removed.map(|m| m.host));
                    let want = model.release(&r, delete);
                    prop_assert_eq!(got, want);
                }
                Oper::Translate { addr } => {
                    let a = VirtAddr(addr as u64);
                    prop_assert_eq!(real.find(a).map(|m| m.translate(a)), model.translate(a));
                }
                Oper::Presence { start, len } => {
                    let r = AddrRange::new(VirtAddr(start as u64), len as u64);
                    prop_assert_eq!(real.presence(&r), model.presence(&r));
                }
            }
            prop_assert_eq!(real.len(), model.entries.len());
        }
    }
}

/// 16 disjoint 128-byte slots scattered across 4 MiB granules: even
/// slots sit comfortably inside granule `s`, odd slots straddle the
/// boundary into granule `s + 1`.
fn slot_range(slot: u8) -> AddrRange {
    let s = u64::from(slot % 16);
    const GRANULE: u64 = 1 << 22;
    let base = if slot.is_multiple_of(2) {
        s * GRANULE + 512
    } else {
        (s + 1) * GRANULE - 64
    };
    AddrRange::new(VirtAddr(base), 128)
}

fn probe_addr(slot: u8, jit: u8) -> VirtAddr {
    // Probe around the slot: jitter spans [-64, +191] relative to its
    // start, covering misses before, hits inside, and misses after.
    let base = slot_range(slot).start.as_u64();
    VirtAddr(base.saturating_add(u64::from(jit)).saturating_sub(64))
}

#[derive(Debug, Clone)]
enum TableOp {
    Insert { slot: u8 },
    Retain { slot: u8, jit: u8 },
    Release { slot: u8, jit: u8, delete: bool },
    Translate { slot: u8, jit: u8 },
    Presence { slot: u8, jit: u8, len: u32 },
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0u8..16).prop_map(|slot| TableOp::Insert { slot }),
        ((0u8..16), any::<u8>()).prop_map(|(slot, jit)| TableOp::Retain { slot, jit }),
        ((0u8..16), any::<u8>(), any::<bool>()).prop_map(|(slot, jit, delete)| TableOp::Release {
            slot,
            jit,
            delete
        }),
        ((0u8..16), any::<u8>()).prop_map(|(slot, jit)| TableOp::Translate { slot, jit }),
        // Lengths up to 8 MiB span several granules, so a probe can find a
        // partial overlap far from its start.
        ((0u8..16), any::<u8>(), (1u32..0x80_0000))
            .prop_map(|(slot, jit, len)| TableOp::Presence { slot, jit, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_matches_map_model_oracle(
        ops in proptest::collection::vec(arb_table_op(), 0..120),
    ) {
        let oracle = &mut MapModel::new();
        let table = MappingTable::new();
        let cache = MapLookupCache::new();
        // Every cache.invalidate() call below is mirrored here, so the
        // cache's own invalidation counter is pinned to the coherence
        // rule: exactly one invalidation per table mutation we observe.
        let mut expected_invalidations = 0u64;
        for op in ops {
            match op {
                TableOp::Insert { slot } => {
                    let host = slot_range(slot);
                    if oracle.presence(&host) == Presence::Absent {
                        let device = VirtAddr(0x9000_0000 + u64::from(slot) * 0x1000);
                        oracle.insert(host, device);
                        table.insert(host, device);
                        // The coherence rule: the owner invalidates its
                        // cache at every mutation of its table.
                        cache.invalidate();
                        expected_invalidations += 1;
                    }
                }
                TableOp::Retain { slot, jit } => {
                    let r = AddrRange::new(probe_addr(slot, jit), 1);
                    prop_assert_eq!(table.retain(&r).ok(), oracle.retain(&r).ok());
                }
                TableOp::Release { slot, jit, delete } => {
                    let r = AddrRange::new(probe_addr(slot, jit), 1);
                    let key = |m: &omp_offload::Mapping| (m.host, m.payload, m.refcount);
                    let got = table.release(&r, delete).ok();
                    let want = oracle.release(&r, delete).ok();
                    if matches!(got, Some(Some(_))) {
                        cache.invalidate();
                        expected_invalidations += 1;
                    }
                    prop_assert_eq!(
                        got.map(|o| o.map(|m| key(&m))),
                        want.map(|o| o.map(|m| key(&m)))
                    );
                }
                TableOp::Translate { slot, jit } => {
                    let a = probe_addr(slot, jit);
                    prop_assert_eq!(table.translate(a), oracle.find(a).map(|m| m.translate(a)));
                }
                TableOp::Presence { slot, jit, len } => {
                    let r = AddrRange::new(probe_addr(slot, jit), u64::from(len));
                    let p = table.presence(&r);
                    prop_assert_eq!(p, oracle.presence(&r));
                    // The cached read must agree with the uncached one —
                    // on the fill and on every subsequent hit.
                    let (cached, _) = table.presence_cached(&cache, &r);
                    prop_assert_eq!(cached, p);
                    let (hit, _) = table.presence_cached(&cache, &r);
                    prop_assert_eq!(hit, p);
                }
            }
            prop_assert_eq!(table.len(), oracle.len());
            prop_assert_eq!(cache.invalidations(), expected_invalidations);
        }
        let snap = table.snapshot();
        prop_assert!(
            snap.windows(2).all(|w| w[0].host.start < w[1].host.start),
            "snapshot must be sorted by host start"
        );
        prop_assert_eq!(snap.len(), oracle.len());
    }
}

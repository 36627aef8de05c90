//! Equivalence oracle: the extent fast paths must be *observably identical*
//! to the per-page reference implementation.
//!
//! Random allocate/touch/access/prefault/free sequences drive two
//! `ApuMemory` instances — one on the extent paths, one forced page-wise via
//! `set_pagewise(true)` — and every observable is compared after every
//! operation: `MemStats`, `GpuAccessOutcome`/`PrefaultOutcome` counters and
//! virtual-time charges, TLB hit/miss/eviction counts, page-table entry,
//! extent and lifetime insert/remove counters, unified-memory residency, and
//! error values. Scenarios cover the APU, a capacity-starved TLB (so bulk runs
//! overflow and evict their own head), and a discrete GPU with VRAM
//! oversubscription (so eviction interleaves with migration mid-range).

use apu_mem::{
    AddrRange, ApuMemory, CostModel, DiscreteSpec, MemError, MemOptions, SystemKind, VirtAddr,
    XnackMode,
};
use proptest::prelude::*;

const PAGE: u64 = 4096;

/// One step of the interpreted op trace. Raw integers are folded onto live
/// allocations so every generated trace is meaningful.
#[derive(Debug, Clone, Copy)]
struct RawOp {
    opcode: u8,
    a: u64,
    b: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Apu,
    TinyTlb,
    Discrete,
}

fn build(scenario: Scenario, pagewise: bool) -> ApuMemory {
    let mut cost = CostModel::mi300a_no_thp();
    if scenario == Scenario::TinyTlb {
        // Small enough that a single multi-page access overflows the TLB.
        cost.gpu_tlb_entries = 6;
    }
    let mut m = match scenario {
        Scenario::Discrete => {
            let spec = DiscreteSpec {
                // 10 pages of residency budget: mixed bulk + thrash regimes.
                vram_bytes: 10 * PAGE,
                link_bandwidth: 25_000_000_000,
                ..DiscreteSpec::mi200_class()
            };
            ApuMemory::with_options(cost, SystemKind::Discrete(spec), MemOptions::default())
        }
        _ => ApuMemory::with_capacity(cost, 64 * 1024 * 1024),
    };
    m.set_pagewise(pagewise);
    m
}

fn assert_same_error(fast: &MemError, slow: &MemError, step: usize) {
    assert_eq!(
        format!("{fast:?}"),
        format!("{slow:?}"),
        "step {step}: error mismatch"
    );
}

fn assert_states_agree(fast: &ApuMemory, slow: &ApuMemory, step: usize) {
    let fs = fast.stats();
    let ss = slow.stats();
    assert_eq!(
        format!("{fs:?}"),
        format!("{ss:?}"),
        "step {step}: MemStats"
    );
    assert_eq!(
        fast.cpu_pt().len(),
        slow.cpu_pt().len(),
        "step {step}: cpu pages"
    );
    assert_eq!(
        fast.gpu_pt().len(),
        slow.gpu_pt().len(),
        "step {step}: gpu pages"
    );
    assert_eq!(
        fast.cpu_pt().extent_count(),
        slow.cpu_pt().extent_count(),
        "step {step}: cpu extents"
    );
    assert_eq!(
        fast.gpu_pt().extent_count(),
        slow.gpu_pt().extent_count(),
        "step {step}: gpu extents"
    );
    assert_eq!(
        fast.cpu_pt().inserts(),
        slow.cpu_pt().inserts(),
        "step {step}: cpu inserts"
    );
    assert_eq!(
        fast.cpu_pt().removes(),
        slow.cpu_pt().removes(),
        "step {step}: cpu removes"
    );
    assert_eq!(
        fast.gpu_pt().inserts(),
        slow.gpu_pt().inserts(),
        "step {step}: gpu inserts"
    );
    assert_eq!(
        fast.gpu_pt().removes(),
        slow.gpu_pt().removes(),
        "step {step}: gpu removes"
    );
    assert_eq!(
        fast.gpu_tlb().hits(),
        slow.gpu_tlb().hits(),
        "step {step}: tlb hits"
    );
    assert_eq!(
        fast.gpu_tlb().misses(),
        slow.gpu_tlb().misses(),
        "step {step}: tlb misses"
    );
    assert_eq!(
        fast.gpu_tlb().evictions(),
        slow.gpu_tlb().evictions(),
        "step {step}: tlb evictions"
    );
    assert_eq!(
        fast.gpu_tlb().len(),
        slow.gpu_tlb().len(),
        "step {step}: tlb size"
    );
    assert_eq!(
        fast.um_resident_pages(),
        slow.um_resident_pages(),
        "step {step}: um resident"
    );
    assert_eq!(fast.vram_used(), slow.vram_used(), "step {step}: vram");
    assert_eq!(fast.live_vmas(), slow.live_vmas(), "step {step}: vmas");
}

/// Run one trace against both implementations, checking observables after
/// every step.
fn run_trace(scenario: Scenario, ops: &[RawOp]) {
    let mut fast = build(scenario, false);
    let mut slow = build(scenario, true);
    assert!(!fast.is_pagewise());
    assert!(slow.is_pagewise());
    // (addr, len, is_pool) of live allocations (identical on both sides).
    let mut live: Vec<(VirtAddr, u64, bool)> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op.opcode % 8 {
            // Allocate 1..=24 pages from the host or pool allocator.
            0 | 1 => {
                let len = (op.a % 24 + 1) * PAGE - op.b % 17;
                let pool = op.opcode % 8 == 1;
                let (rf, rs) = if pool {
                    (fast.pool_alloc(len), slow.pool_alloc(len))
                } else {
                    (fast.host_alloc(len), slow.host_alloc(len))
                };
                match (rf, rs) {
                    (Ok(f), Ok(s)) => {
                        assert_eq!(f.addr, s.addr, "step {step}: alloc addr");
                        assert_eq!(f.pages, s.pages, "step {step}: alloc pages");
                        assert_eq!(f.cost, s.cost, "step {step}: alloc cost");
                        live.push((f.addr, f.pages * PAGE, pool));
                    }
                    (Err(f), Err(s)) => assert_same_error(&f, &s, step),
                    (f, s) => panic!("step {step}: alloc divergence: {f:?} vs {s:?}"),
                }
            }
            // CPU first touch of a sub-range.
            2 => {
                let Some(&(addr, len, _)) = pick(&live, op.a) else {
                    continue;
                };
                let r = sub_range(addr, len, op.b);
                let rf = fast.host_touch(r);
                let rs = slow.host_touch(r);
                assert_eq!(rf.is_ok(), rs.is_ok(), "step {step}: touch ok");
                if let (Ok(f), Ok(s)) = (rf, rs) {
                    assert_eq!(f, s, "step {step}: touched pages");
                }
            }
            // GPU access of up to two sub-ranges, alternating XNACK modes.
            3 | 4 => {
                let Some(&(addr, len, _)) = pick(&live, op.a) else {
                    continue;
                };
                let mut ranges = vec![sub_range(addr, len, op.b)];
                if let Some(&(addr2, len2, _)) = pick(&live, op.a ^ op.b) {
                    ranges.push(sub_range(addr2, len2, op.b >> 7));
                }
                let xnack = if op.opcode % 8 == 4 && op.b % 5 == 0 {
                    XnackMode::Disabled
                } else {
                    XnackMode::Enabled
                };
                let rf = fast.gpu_access(&ranges, xnack);
                let rs = slow.gpu_access(&ranges, xnack);
                match (rf, rs) {
                    (Ok(f), Ok(s)) => {
                        assert_eq!(f.pages_touched, s.pages_touched, "step {step}: touched");
                        assert_eq!(f.replayed_pages, s.replayed_pages, "step {step}: replayed");
                        assert_eq!(
                            f.zero_filled_pages, s.zero_filled_pages,
                            "step {step}: zero-filled"
                        );
                        assert_eq!(f.tlb_misses, s.tlb_misses, "step {step}: tlb misses");
                        assert_eq!(f.migrated_pages, s.migrated_pages, "step {step}: migrated");
                        assert_eq!(f.evicted_pages, s.evicted_pages, "step {step}: evicted");
                        assert_eq!(f.stall, s.stall, "step {step}: stall");
                    }
                    (Err(f), Err(s)) => assert_same_error(&f, &s, step),
                    (f, s) => panic!("step {step}: access divergence: {f:?} vs {s:?}"),
                }
            }
            // Host-side prefault of a sub-range.
            5 => {
                let Some(&(addr, len, _)) = pick(&live, op.a) else {
                    continue;
                };
                let r = sub_range(addr, len, op.b);
                let rf = fast.prefault(r);
                let rs = slow.prefault(r);
                match (rf, rs) {
                    (Ok(f), Ok(s)) => {
                        assert_eq!(f.inserted_pages, s.inserted_pages, "step {step}: inserted");
                        assert_eq!(
                            f.zero_filled_pages, s.zero_filled_pages,
                            "step {step}: zero-filled"
                        );
                        assert_eq!(f.present_pages, s.present_pages, "step {step}: present");
                        assert_eq!(f.cost, s.cost, "step {step}: prefault cost");
                    }
                    (Err(f), Err(s)) => assert_same_error(&f, &s, step),
                    (f, s) => panic!("step {step}: prefault divergence: {f:?} vs {s:?}"),
                }
            }
            // Free one allocation (tears down both tables + TLB + residency).
            6 => {
                if live.is_empty() {
                    continue;
                }
                let idx = (op.a as usize) % live.len();
                let (addr, _, pool) = live.remove(idx);
                let (rf, rs) = if pool {
                    (fast.pool_free(addr), slow.pool_free(addr))
                } else {
                    (fast.host_free(addr), slow.host_free(addr))
                };
                match (rf, rs) {
                    (Ok(f), Ok(s)) => {
                        assert_eq!(f.pages, s.pages, "step {step}: freed pages");
                        assert_eq!(f.cost, s.cost, "step {step}: free cost");
                    }
                    (Err(f), Err(s)) => assert_same_error(&f, &s, step),
                    (f, s) => panic!("step {step}: free divergence: {f:?} vs {s:?}"),
                }
            }
            // CPU content write (touches pages) + read-back on both sides.
            _ => {
                let Some(&(addr, len, _)) = pick(&live, op.a) else {
                    continue;
                };
                let off = op.b % len;
                let n = ((op.a % 512) + 1).min(len - off) as usize;
                let data: Vec<u8> = (0..n).map(|i| (op.b as usize + i) as u8).collect();
                let at = addr.offset(off);
                fast.cpu_write(at, &data).unwrap();
                slow.cpu_write(at, &data).unwrap();
                let mut bf = vec![0u8; n];
                let mut bs = vec![0u8; n];
                fast.cpu_read(at, &mut bf).unwrap();
                slow.cpu_read(at, &mut bs).unwrap();
                assert_eq!(bf, bs, "step {step}: content");
            }
        }
        assert_states_agree(&fast, &slow, step);
    }
}

fn pick(live: &[(VirtAddr, u64, bool)], sel: u64) -> Option<&(VirtAddr, u64, bool)> {
    if live.is_empty() {
        None
    } else {
        live.get(sel as usize % live.len())
    }
}

/// A non-empty sub-range of `[addr, addr + len)` derived from `sel`,
/// intentionally not always page-aligned.
fn sub_range(addr: VirtAddr, len: u64, sel: u64) -> AddrRange {
    let off = sel % len;
    let max = len - off;
    let sub = (sel >> 13) % max + 1;
    AddrRange::new(addr.offset(off), sub)
}

fn raw_ops(max_len: usize) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 4..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(opcode, a, b)| RawOp { opcode, a, b })
            .collect()
    })
}

proptest! {
    /// APU with the production-sized TLB.
    #[test]
    fn apu_paths_are_equivalent(ops in raw_ops(48)) {
        run_trace(Scenario::Apu, &ops);
    }

    /// APU with a 6-entry TLB: bulk installs routinely overflow capacity,
    /// exercising the net-effect eviction algebra (including runs evicting
    /// their own head pages).
    #[test]
    fn tiny_tlb_paths_are_equivalent(ops in raw_ops(48)) {
        run_trace(Scenario::TinyTlb, &ops);
    }

    /// Discrete GPU with a 10-page VRAM budget: migration interleaves with
    /// unified-memory eviction, forcing the per-run thrash fallback.
    #[test]
    fn discrete_paths_are_equivalent(ops in raw_ops(40)) {
        run_trace(Scenario::Discrete, &ops);
    }
}

/// Directed regression: the 16-page cyclic sweep over an 8-page budget from
/// the thrashing unit test, stepped on both paths.
#[test]
fn discrete_thrash_sweep_is_equivalent() {
    let spec = DiscreteSpec {
        vram_bytes: 8 * PAGE,
        link_bandwidth: 25_000_000_000,
        ..DiscreteSpec::mi200_class()
    };
    let mut fast = ApuMemory::with_options(
        CostModel::mi300a_no_thp(),
        SystemKind::Discrete(spec.clone()),
        MemOptions::default(),
    );
    let mut slow = ApuMemory::with_options(
        CostModel::mi300a_no_thp(),
        SystemKind::Discrete(spec),
        MemOptions::default(),
    );
    slow.set_pagewise(true);
    let af = fast.host_alloc(16 * PAGE).unwrap();
    let as_ = slow.host_alloc(16 * PAGE).unwrap();
    assert_eq!(af.addr, as_.addr);
    let r = AddrRange::new(af.addr, 16 * PAGE);
    fast.host_touch(r).unwrap();
    slow.host_touch(r).unwrap();
    for sweep in 0..3 {
        let of = fast.gpu_access(&[r], XnackMode::Enabled).unwrap();
        let os = slow.gpu_access(&[r], XnackMode::Enabled).unwrap();
        assert_eq!(of.migrated_pages, os.migrated_pages, "sweep {sweep}");
        assert_eq!(of.evicted_pages, os.evicted_pages, "sweep {sweep}");
        assert_eq!(of.stall, os.stall, "sweep {sweep}");
        assert_eq!(
            of.migrated_pages, 16,
            "sweep {sweep}: every page re-migrates"
        );
    }
    assert_states_agree(&fast, &slow, 999);
}

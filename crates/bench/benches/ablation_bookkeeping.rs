//! Ablation: extent-based vs per-page memory bookkeeping in the simulator.
//!
//! Runs the same 1 GiB prefault + fault workload (half CPU-touched, so the
//! fault path splits into replay and zero-fill regimes) on the extent fast
//! paths and on the per-page reference implementation (`set_pagewise`).
//! With 4 KiB pages the range covers 262,144 pages, so the per-page path
//! performs ~1M hash-map operations per iteration while the extent path
//! performs a handful of run operations. The two produce bit-identical
//! outcomes (see `crates/mem/tests/extent_equivalence.rs`); only the
//! simulator's own wall-clock differs.

use apu_mem::{AddrRange, ApuMemory, CostModel, XnackMode};
use std::hint::black_box;
use std::time::Instant;

const GIB: u64 = 1 << 30;

/// One full workload pass; returns a value derived from every outcome so
/// the work cannot be optimized away.
fn prefault_fault_workload(pagewise: bool) -> u64 {
    // 4 KiB pages: 262,144 pages per GiB — the per-page worst case.
    let mut m = ApuMemory::new(CostModel::mi300a_no_thp());
    m.set_pagewise(pagewise);

    // Eager Maps shape: allocate, CPU-touch half, prefault everything.
    let a = m.host_alloc(GIB).unwrap();
    let r = AddrRange::new(a.addr, GIB);
    m.host_touch(AddrRange::new(a.addr, GIB / 2)).unwrap();
    let p = m.prefault(r).unwrap();
    // Two kernel sweeps: the first is all TLB misses, the second re-walks
    // the now-present extent.
    let o1 = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
    let o2 = m.gpu_access(&[r], XnackMode::Enabled).unwrap();
    m.host_free(a.addr).unwrap();

    // Demand-fault shape: fresh allocation faults page-by-page on the GPU.
    let b = m.host_alloc(GIB).unwrap();
    let rb = AddrRange::new(b.addr, GIB);
    m.host_touch(AddrRange::new(b.addr, GIB / 2)).unwrap();
    let o3 = m.gpu_access(&[rb], XnackMode::Enabled).unwrap();
    m.host_free(b.addr).unwrap();

    p.new_pages() + o1.tlb_misses + o2.pages_touched + o3.faulted_pages()
}

/// Direct head-to-head timing with an explicit speedup line — the
/// acceptance gate for the bookkeeping refactor is extent >= 10x pagewise
/// on this workload.
fn main() {
    // `cargo bench` forwards harness flags like --bench; a plain main only
    // needs to tolerate them.
    let time = |pw: bool| {
        let t0 = Instant::now();
        black_box(prefault_fault_workload(pw));
        t0.elapsed()
    };
    let extent = (0..3).map(|_| time(false)).min().unwrap();
    let pagewise = (0..3).map(|_| time(true)).min().unwrap();
    let speedup = pagewise.as_secs_f64() / extent.as_secs_f64().max(1e-9);
    println!(
        "ablation_bookkeeping summary: extent {extent:?} vs pagewise {pagewise:?} -> {speedup:.1}x"
    );
}

//! What EXPERIMENTS.md's "Extensions beyond the paper's tables" states
//! about the three modeled systems, pinned to the figures it quotes (the
//! numbers `examples/apu_vs_discrete` and `examples/multi_socket` print).

use mi300a_zerocopy::analysis::extensions::{
    oversubscription, porting_story, weak_scaling, OVERSUBSCRIPTION_GIB, WEAK_SCALING_SOCKETS,
};
use mi300a_zerocopy::sim::VirtDuration;

fn ms(d: VirtDuration) -> String {
    format!("{:.3}", d.as_nanos() as f64 / 1e6)
}

fn s(d: VirtDuration) -> String {
    format!("{:.3}", d.as_nanos() as f64 / 1e9)
}

/// "discrete Copy 61.65 ms, APU Copy 39.19 ms (1.57× from HBM-speed copies
/// alone), APU Implicit Zero-Copy 20.74 ms (2.97× total)".
#[test]
fn apu_beats_discrete_by_faster_copies_then_by_zero_copy() {
    let p = porting_story().expect("runs");
    assert_eq!(
        [ms(p.discrete_copy), ms(p.apu_copy), ms(p.apu_izc)],
        ["61.653", "39.190", "20.738"]
    );
    assert_eq!(format!("{:.2}", p.copy_speedup()), "1.57");
    assert_eq!(format!("{:.2}", p.zero_copy_speedup()), "2.97");
}

/// "At 8–56 GiB every page migrates once, and the discrete device is ahead
/// of the APU's zero-fill costs by 1.21–1.66×: 1.345 / 2.146 / 2.939 s
/// against the APU's 1.623 / 3.261 / 4.890 s at 8 / 32 / 56 GiB. At 96 GiB
/// the working set thrashes: 540,682 migrations, 34.610 s against the
/// APU's 7.606 s."
#[test]
fn discrete_leads_below_vram_and_thrashes_past_it() {
    let points: Vec<_> = OVERSUBSCRIPTION_GIB
        .into_iter()
        .map(|gib| oversubscription(gib).expect("runs"))
        .collect();
    let [below @ .., past] = &points[..] else {
        unreachable!()
    };
    let apu: Vec<String> = below.iter().map(|p| s(p.apu)).collect();
    let discrete: Vec<String> = below.iter().map(|p| s(p.discrete)).collect();
    assert_eq!(apu, ["1.623", "3.261", "4.890"]);
    assert_eq!(discrete, ["1.345", "2.146", "2.939"]);
    let lead: Vec<String> = below
        .iter()
        .map(|p| {
            format!(
                "{:.2}",
                p.apu.as_nanos() as f64 / p.discrete.as_nanos() as f64
            )
        })
        .collect();
    assert_eq!(lead, ["1.21", "1.52", "1.66"]);
    for p in below {
        // Each 2 MiB page of the working set once, plus the scalar's.
        assert_eq!(p.migrated_pages, p.gib * 512 + 1, "{p:?}");
        assert_eq!(p.evicted_pages, 0, "{p:?}");
    }
    assert_eq!(past.gib, 96);
    assert_eq!([s(past.discrete), s(past.apu)], ["34.610", "7.606"]);
    assert_eq!(past.migrated_pages, 540_682);
}

/// "holds 94 % weak-scaling efficiency from 1 to 4 sockets" (94.1 % at 2
/// and at 4).
#[test]
fn multi_socket_weak_scaling_holds_94_percent() {
    let points: Vec<_> = WEAK_SCALING_SOCKETS
        .into_iter()
        .map(|n| weak_scaling(n).expect("runs"))
        .collect();
    let base = points[0];
    assert_eq!((base.sockets, base.exchanged_bytes), (1, 0));
    for p in &points[1..] {
        assert_eq!(
            format!("{:.1}", 100.0 * p.efficiency(&base)),
            "94.1",
            "{p:?}"
        );
        assert_eq!(
            p.exchanged_bytes,
            p.sockets as u64 * 40 * (256 << 10),
            "{p:?}"
        );
    }
}

//! Acceptance bar for the shipped programs: every workload `apusim check`
//! covers must be error-free — the only tolerated diagnostics are MC007
//! warnings (redundant re-maps of present extents), which are exactly the
//! sites the elision pass promotes. Every cell must cross-validate
//! (static == sanitizer verdict) and satisfy the elision contract: the
//! online-elided run is diagnostic-clean, bit-identical to the unelided
//! run, and recovers `mm_saved` exactly. Also pins the reason
//! `openfoam-mini-usm` is excluded from the XNACK-off configurations:
//! its capture admits only the XNACK pair, and checked against Copy
//! statically, its raw accesses are exactly the MC005 fatal-fault hazard
//! the paper's §IV-B describes.

use apu_mem::CostModel;
use hsa_rocr::{Topology, ALL_API_KINDS};
use omp_mapcheck::{
    admissible_configs, capture_workload, check, check_workload, elision_plan, harness,
};
use omp_offload::{
    replay, replay_threads, DiagCode, ElideMode, MapIr, OmpRuntime, RuntimeConfig, Severity,
};
use workloads::{NioSize, OpenFoamMini, QmcPack, Stream, Workload};

#[test]
fn every_shipped_workload_is_error_free_under_all_compatible_configs() {
    let mut all = Vec::new();
    for w in harness::shipped_workloads() {
        let cells = check_workload(w.as_ref()).expect("capture succeeds");
        let ir = capture_workload(w.as_ref(), harness::capture_threads(w.as_ref()))
            .expect("capture succeeds");
        assert_eq!(cells.len(), admissible_configs(&ir).len());
        for c in &cells {
            assert!(
                c.diagnostics
                    .iter()
                    .all(|d| d.code == DiagCode::Mc007 && d.severity() == Severity::Warning),
                "{} [{}]: non-MC007 static diagnostics on a shipped workload: {:?}",
                c.workload,
                c.config.label(),
                c.diagnostics
            );
            assert!(c.cross_validated, "{} [{}]", c.workload, c.config.label());
            assert!(
                c.elision_verified,
                "{} [{}]: elision contract broken",
                c.workload,
                c.config.label()
            );
        }
        assert!(!harness::has_errors(&cells));
        all.extend(cells);
    }
    // The whole 42-cell report, byte for byte: `all` is exactly what
    // `check_all(None)` returns, and its JSON is what `apusim check --json`
    // prints. Any change to a diagnostic, verdict or saving moves it.
    assert_eq!(all.len(), 42);
    assert_eq!(
        omp_offload::digest::fnv1a(harness::render_json(&all).as_bytes()),
        0x6193_c24c_2ae7_cc66
    );
}

/// Table I's raw material for every `apusim check` cell: the per-kind HSA
/// call counts (in `ALL_API_KINDS` order) of the cell's unelided live run,
/// as `ApiStats` counts them from the schedule's op tags. (Online elision
/// only drops untagged map-service work, so the elided run's counts are
/// the same.)
#[test]
fn api_call_counts_of_every_check_cell_are_pinned() {
    let mut got = String::new();
    for w in harness::shipped_workloads() {
        let threads = harness::capture_threads(w.as_ref());
        let ir = capture_workload(w.as_ref(), threads).expect("capture succeeds");
        for config in admissible_configs(&ir) {
            let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
                .config(config)
                .threads(threads)
                .build()
                .expect("build");
            w.run(&mut rt).expect("run");
            let stats = rt.finish().api_stats;
            let counts: Vec<String> = ALL_API_KINDS
                .iter()
                .map(|&k| stats.get(k).calls.to_string())
                .collect();
            got += &format!("{} {}: {}\n", w.name(), config.label(), counts.join(" "));
        }
    }
    assert_eq!(got, API_CALL_COUNTS);
}

const API_CALL_COUNTS: &str = "\
qmcpack-nio-S2 Copy: 82 41 15 64 22 18 0 1 4 0 1 0
qmcpack-nio-S2 USM: 21 26 0 3 0 18 0 1 4 0 1 0
qmcpack-nio-S2 Implicit Z-C: 21 26 0 3 0 18 0 1 4 0 1 0
qmcpack-nio-S2 Eager Maps: 21 26 0 3 0 18 75 1 4 0 1 0
qmcpack-nio-S2 Copy: 82 41 15 64 22 18 0 1 4 0 1 0
qmcpack-nio-S2 USM: 21 26 0 3 0 18 0 1 4 0 1 0
qmcpack-nio-S2 Implicit Z-C: 21 26 0 3 0 18 0 1 4 0 1 0
qmcpack-nio-S2 Eager Maps: 21 26 0 3 0 18 75 1 4 0 1 0
403.stencil Copy: 13 18 2 5 1 8 0 1 2 0 1 0
403.stencil USM: 11 16 0 3 0 8 0 1 2 0 1 0
403.stencil Implicit Z-C: 11 16 0 3 0 8 0 1 2 0 1 0
403.stencil Eager Maps: 11 16 0 3 0 8 17 1 2 0 1 0
404.lbm Copy: 34 18 2 20 1 14 0 1 2 0 1 0
404.lbm USM: 17 16 0 3 0 14 0 1 2 0 1 0
404.lbm Implicit Z-C: 17 16 0 3 0 14 0 1 2 0 1 0
404.lbm Eager Maps: 17 16 0 3 0 14 30 1 2 0 1 0
452.ep Copy: 19 22 6 13 5 6 0 1 2 0 1 0
452.ep USM: 9 16 0 3 0 6 0 1 2 0 1 0
452.ep Implicit Z-C: 9 16 0 3 0 6 0 1 2 0 1 0
452.ep Eager Maps: 9 16 0 3 0 6 12 1 2 0 1 0
457.spC Copy: 60 34 18 21 9 39 0 1 2 0 1 0
457.spC USM: 42 16 0 3 0 39 0 1 2 0 1 0
457.spC Implicit Z-C: 42 16 0 3 0 39 0 1 2 0 1 0
457.spC Eager Maps: 42 16 0 3 0 39 252 1 2 0 1 0
470.bt Copy: 39 31 15 9 3 30 0 1 2 0 1 0
470.bt USM: 33 16 0 3 0 30 0 1 2 0 1 0
470.bt Implicit Z-C: 33 16 0 3 0 30 0 1 2 0 1 0
470.bt Eager Maps: 33 16 0 3 0 30 165 1 2 0 1 0
babelstream Copy: 39 20 4 14 8 25 0 1 2 0 1 0
babelstream USM: 28 16 0 3 0 25 0 1 2 0 1 0
babelstream Implicit Z-C: 28 16 0 3 0 25 0 1 2 0 1 0
babelstream Eager Maps: 28 16 0 3 0 25 69 1 2 0 1 0
openfoam-mini-usm USM: 65 16 0 3 0 62 0 1 2 0 1 0
openfoam-mini-usm Implicit Z-C: 65 16 0 3 0 62 0 1 2 0 1 0
mini-cg Copy: 59 22 6 19 11 40 0 1 2 0 1 0
mini-cg USM: 43 16 0 3 0 40 0 1 2 0 1 0
mini-cg Implicit Z-C: 43 16 0 3 0 40 0 1 2 0 1 0
mini-cg Eager Maps: 43 16 0 3 0 40 116 1 2 0 1 0
mini-cg-nowait Copy: 59 22 6 19 11 40 0 1 2 0 1 0
mini-cg-nowait USM: 43 16 0 3 0 40 0 1 2 0 1 0
mini-cg-nowait Implicit Z-C: 43 16 0 3 0 40 0 1 2 0 1 0
mini-cg-nowait Eager Maps: 43 16 0 3 0 40 116 1 2 0 1 0
";

/// The elision pass is not a no-op on the shipped programs: under Copy data
/// handling the steady-state workloads recover strictly positive map-service
/// time.
#[test]
fn elision_recovers_map_service_on_steady_state_workloads_under_copy() {
    for name in ["qmcpack-nio-S2", "babelstream", "mini-cg"] {
        let cells = harness::check_all(Some(name)).expect("check");
        let copy = cells
            .iter()
            .find(|c| c.workload == name && c.config == RuntimeConfig::LegacyCopy)
            .expect("copy cell");
        assert!(copy.maps_elided > 0, "{name}: no maps elided");
        assert!(
            copy.mm_saved > sim_des::VirtDuration::ZERO,
            "{name}: nothing saved"
        );
    }
}

/// Profile-guided elision end-to-end: capture → `elision_plan` → plan-mode
/// replay. The planned replay elides exactly the planned sites, stays
/// sanitizer-clean, and is bit-identical to an unelided replay of the same
/// capture under every configuration.
#[test]
fn plan_mode_replay_elides_the_planned_sites() {
    let w = Stream::scaled(0.05);
    let ir = capture_workload(&w, 1).expect("capture");
    let plan = elision_plan(&ir);
    assert!(!plan.is_empty(), "stream capture should have MC007 sites");
    for config in RuntimeConfig::ALL {
        let run = |elide: ElideMode| {
            let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
                .config(config)
                .threads(replay_threads(&ir))
                .sanitize(true)
                .elide(elide)
                .build()
                .unwrap();
            replay(&mut rt, &ir).expect("replay");
            let digest = rt.memory_digest();
            let clean = rt
                .sanitizer_finalize()
                .iter()
                .all(|d| d.code == DiagCode::Mc007);
            (digest, *rt.ledger(), clean)
        };
        let (d_off, off, _) = run(ElideMode::Off);
        let (d_plan, planned, clean) = run(ElideMode::Plan(plan.clone()));
        assert_eq!(d_off, d_plan, "{config:?}: replay digests diverge");
        assert!(clean, "{config:?}: planned replay not clean");
        assert_eq!(
            planned.maps_elided as usize,
            plan.len(),
            "{config:?}: applied sites != planned sites"
        );
        assert_eq!(off.copies, planned.copies, "{config:?}");
        assert_eq!(
            off.mm_total().saturating_sub(planned.mm_total()),
            planned.mm_saved,
            "{config:?}: accounting identity broken"
        );
    }
}

/// The planner agrees with the runtime's online mode: an online run of the
/// capture elides the same number of maps the static plan contains.
#[test]
fn static_plan_matches_online_elision() {
    let w = QmcPack::nio(NioSize { factor: 2 }).with_steps(3);
    let ir = capture_workload(&w, 2).expect("capture");
    let plan = elision_plan(&ir);
    let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(RuntimeConfig::LegacyCopy)
        .threads(2)
        .elide(ElideMode::Online)
        .build()
        .unwrap();
    w.run(&mut rt).unwrap();
    assert_eq!(rt.ledger().maps_elided as usize, plan.len());
}

/// The USM-only workload is not mis-gated: under the XNACK-off Copy
/// configuration the static checker predicts its raw accesses fault (MC005),
/// which is exactly why `admissible_configs` restricts its capture to the
/// XNACK pair.
#[test]
fn openfoam_under_copy_is_predicted_to_fault() {
    let w = OpenFoamMini::scaled(0.02);
    let ir = capture_workload(&w, 1).expect("capture");
    assert_eq!(
        admissible_configs(&ir),
        [
            RuntimeConfig::UnifiedSharedMemory,
            RuntimeConfig::ImplicitZeroCopy
        ]
    );
    let diags = check(&ir, RuntimeConfig::LegacyCopy);
    assert!(
        diags.iter().any(|d| d.code == DiagCode::Mc005),
        "expected MC005 under Copy: {diags:?}"
    );
    assert!(check(&ir, RuntimeConfig::UnifiedSharedMemory).is_empty());
}

/// A multi-threaded capture serializes and parses back identically — the
/// MapIR text format is a faithful round-trip even for interleaved
/// per-thread op streams with nowait kernels.
#[test]
fn qmcpack_capture_round_trips_through_text() {
    let w = QmcPack::nio(NioSize { factor: 2 })
        .with_steps(2)
        .with_nowait();
    let ir = capture_workload(&w, 2).expect("capture");
    assert!(ir.kernels() > 0);
    let text = ir.to_text();
    assert_eq!(MapIr::parse(&text).expect("parse"), ir);
}

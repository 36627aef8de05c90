//! The cross-validation contract, executed: every golden ill-formed program
//! must be flagged with its designated MC00x code by BOTH the static checker
//! (abstract interpretation of a capture) and the runtime sanitizer (a real
//! run under the program's configuration), and the two passes must agree on
//! the complete code list. The static diagnostics' rendered text is
//! snapshot-tested so the message format is a stable contract.

use apu_mem::CostModel;
use hsa_rocr::Topology;
use omp_mapcheck::{capture_run, check, corpus};
use omp_offload::telemetry::EventKind;
use omp_offload::{DiagCode, Diagnostic, OmpRuntime, RuntimeConfig, TelemetryMode};

/// Static pass: capture the program (capture mode never faults — directives
/// are recorded, not executed) and abstractly interpret the MapIR under the
/// program's designated configuration.
fn static_diags(p: &corpus::GoldenProgram) -> Vec<Diagnostic> {
    let ir = capture_run(1, |rt| (p.run)(rt)).expect("capture never faults");
    check(&ir, p.config)
}

/// Dynamic pass: run the program for real with the sanitizer on. Fatal
/// hazards abort the run (ignored); the sanitizer's findings up to and
/// including the end-of-program leak check are the diagnosis.
fn dynamic_diags(p: &corpus::GoldenProgram) -> Vec<Diagnostic> {
    let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(p.config)
        .sanitize(true)
        .build()
        .expect("build sanitized runtime");
    let _ = (p.run)(&mut rt);
    rt.sanitizer_finalize().to_vec()
}

/// Every verdict the sanitizer reaches is one `Sanitizer` event on the
/// telemetry stream: in `seq` order the stream's codes are the report's
/// diagnostics in detection order, under every configuration.
#[test]
fn sanitizer_events_are_the_reported_diagnostics_in_order() {
    let mut verdicts = 0;
    for p in corpus::all() {
        for config in RuntimeConfig::ALL {
            let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
                .config(config)
                .sanitize(true)
                .telemetry(TelemetryMode::ring())
                .build()
                .expect("build sanitized runtime");
            let _ = (p.run)(&mut rt);
            let report = rt.finish();
            let telemetry = report.telemetry.expect("ring was on");
            assert_eq!(telemetry.dropped_events, 0);
            let mut events: Vec<(u64, DiagCode)> = telemetry
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Sanitizer { code } => Some((e.seq, code)),
                    _ => None,
                })
                .collect();
            events.sort_by_key(|&(seq, _)| seq);
            let streamed: Vec<DiagCode> = events.into_iter().map(|(_, code)| code).collect();
            let found: Vec<DiagCode> = report
                .sanitizer
                .expect("sanitizer was on")
                .diagnostics
                .iter()
                .map(|d| d.code)
                .collect();
            assert_eq!(streamed, found, "{} under {}", p.name, config.label());
            verdicts += found.len();
        }
    }
    assert!(verdicts > 0, "the corpus yielded no verdict");
}

fn codes(diags: &[Diagnostic]) -> Vec<DiagCode> {
    let mut v: Vec<DiagCode> = diags.iter().map(|d| d.code).collect();
    v.sort();
    v
}

#[test]
fn every_code_is_caught_by_both_passes_and_they_agree() {
    for p in corpus::all() {
        let st = static_diags(&p);
        let dy = dynamic_diags(&p);
        assert!(
            st.iter().any(|d| d.code == p.code),
            "{}: static pass missed {}: {st:?}",
            p.name,
            p.code
        );
        assert!(
            dy.iter().any(|d| d.code == p.code),
            "{}: sanitizer missed {}: {dy:?}",
            p.name,
            p.code
        );
        assert_eq!(
            codes(&st),
            codes(&dy),
            "{}: static/sanitizer code lists disagree\n  static: {st:?}\n  sanitizer: {dy:?}",
            p.name
        );
    }
}

/// Expected rendered text of the static diagnostics, per program. Some
/// programs trip secondary codes alongside their designated one (a stale
/// to-map re-map is also redundant; an aborted double-map leaks) — the
/// snapshot pins the complete, ordered list.
fn expected_static_text(name: &str) -> &'static [&'static str] {
    match name {
        "golden-mc001-leak" => &[
            "MC001 error [Copy] thread 0 extent [0x500000033000, +4096): mapping never released: refcount still 1 at program end",
        ],
        "golden-mc002-release-unmapped" => &[
            "MC002 error [Copy] thread 0 extent [0x500000033000, +4096): release of an extent that was never mapped",
        ],
        "golden-mc003-stale-device-read" => &[
            "MC007 warning [Copy] thread 0 extent [0x500000033000, +4096): `to` re-map of an already-present extent transfers nothing (refcount bump only) — zero-copy promotion candidate",
            "MC003 error [Copy] thread 0 extent [0x500000033000, +4096): kernel reads the device copy, but the host wrote the range after the last to-transfer; add `always` or a `target update to`",
        ],
        "golden-mc004-stale-host-read" => &[
            "MC004 error [Copy] thread 0 extent [0x500000033000, +4096): host reads the range, but the device copy holds newer kernel writes; add a `from` transfer or a `target update from`",
        ],
        "golden-mc005-raw-access-no-xnack" => &[
            "MC005 error [Copy] thread 0 extent [0x500000033000, +4096): raw host-pointer access needs XNACK demand paging; under this configuration the GPU has no translation and the access faults fatally",
        ],
        "golden-mc006-overlapping-double-map" => &[
            "MC006 error [Implicit Z-C] thread 0 extent [0x500000033800, +4096): map range partially overlaps an already-mapped extent with mismatched bounds",
            "MC001 error [Implicit Z-C] thread 0 extent [0x500000033000, +4096): mapping never released: refcount still 1 at program end",
        ],
        "golden-mc007-redundant-remap" => &[
            "MC007 warning [Eager Maps] thread 0 extent [0x500000033000, +4096): `to` re-map of an already-present extent transfers nothing (refcount bump only) — zero-copy promotion candidate",
        ],
        other => panic!("no snapshot for corpus program {other}"),
    }
}

#[test]
fn static_diagnostic_text_matches_snapshot() {
    for p in corpus::all() {
        let actual: Vec<String> = static_diags(&p).iter().map(|d| d.to_string()).collect();
        let expected: Vec<String> = expected_static_text(p.name)
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            actual,
            expected,
            "\nsnapshot mismatch for {}; actual lines:\n{}",
            p.name,
            actual
                .iter()
                .map(|s| format!("    {s:?},"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

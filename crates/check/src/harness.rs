//! The mapcheck harness: capture → static check × configurations, with a
//! sanitized real run cross-validating every cell.
//!
//! This is the engine behind `apusim check`, the one check front end.
//! Exit-code convention (enforced by the binary): 0 clean, 1 diagnostics
//! found or cross-validation mismatch, 2 usage error.

use crate::{admissible_configs, capture_workload, check, optimize, verify_equivalence};
use apu_mem::CostModel;
use hsa_rocr::Topology;
use omp_offload::telemetry::json_escape;
use omp_offload::{
    DiagCode, Diagnostic, ElideMode, OmpError, OmpRuntime, OverheadLedger, RuntimeConfig, Severity,
    TelemetryMode,
};
use sim_des::VirtDuration;
use workloads::{spec, MiniCg, NioSize, OpenFoamMini, QmcPack, Stream, Workload};

/// The result of checking one (workload, configuration) cell.
#[derive(Debug)]
pub struct CheckCell {
    /// Workload name.
    pub workload: String,
    /// Configuration the cell was checked under.
    pub config: RuntimeConfig,
    /// Static-checker diagnostics (abstract interpretation of the capture).
    pub diagnostics: Vec<Diagnostic>,
    /// Runtime-sanitizer diagnostics from a real run.
    pub sanitizer_diagnostics: Vec<Diagnostic>,
    /// True when both passes found the same multiset of codes — the
    /// cross-validation contract.
    pub cross_validated: bool,
    /// Maps the online elision pass promoted in the elided verification run.
    pub maps_elided: u64,
    /// Map-service time the elided run recovered.
    pub mm_saved: VirtDuration,
    /// The elision contract held for this cell: the elided run is
    /// diagnostic-clean, bit-identical to the unelided run, its operation
    /// counters match, and `mm_total(unelided) − mm_total(elided)` equals
    /// the reported saving exactly.
    pub elision_verified: bool,
    /// The telemetry derivability contract held for this cell: in both the
    /// unelided and the elided run the ring dropped nothing, so the fold of
    /// the event stream equals the ledger field for field (the ledger is the
    /// running fold of the stream).
    pub telemetry_exact: bool,
    /// The static-optimizer equivalence contract held for this cell: the
    /// [`optimize`]d capture replays with a bit-identical memory digest, an
    /// error-free sanitizer, the same kernel count, and never more
    /// map-management time than the baseline replay.
    pub opt_verified: bool,
    /// Map-management time the optimized replay recovered over the baseline
    /// replay (`mm_total(baseline) − mm_total(optimized)`).
    pub opt_mm_saved: VirtDuration,
}

impl CheckCell {
    /// True when the static pass found an error-severity diagnostic.
    pub fn has_static_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// True when the cell fails the acceptance bar: an error-severity
    /// static diagnostic, a static/dynamic verdict mismatch, a broken
    /// elision or optimizer-equivalence contract, or a telemetry ring that
    /// dropped events. The exit code and the report's failing count both
    /// come from this one predicate.
    pub fn fails(&self) -> bool {
        self.has_static_errors()
            || !self.cross_validated
            || !self.elision_verified
            || !self.opt_verified
            || !self.telemetry_exact
    }
}

/// The workloads `apusim check` covers: every shipped program at the
/// scales the test suites use.
pub fn shipped_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(QmcPack::nio(NioSize { factor: 2 }).with_steps(3)),
        Box::new(
            QmcPack::nio(NioSize { factor: 2 })
                .with_steps(3)
                .with_nowait(),
        ),
        Box::new(spec::Stencil::scaled(0.02)),
        Box::new(spec::Lbm::scaled(0.02)),
        Box::new(spec::Ep::scaled(0.05)),
        Box::new(spec::SpC::scaled(0.05)),
        Box::new(spec::Bt::scaled(0.08)),
        Box::new(Stream::scaled(0.05)),
        Box::new(OpenFoamMini::scaled(0.02)),
        Box::new(MiniCg::scaled(0.05)),
        Box::new(MiniCg::scaled(0.05).with_nowait()),
    ]
}

/// Host threads a shipped workload is captured with: two for the QMCPack
/// models, one for everything else. The check harness and the sweep
/// corpora both capture through this, so they replay the same captures.
pub fn capture_threads(w: &dyn Workload) -> usize {
    if w.name().contains("qmc") {
        2
    } else {
        1
    }
}

fn sorted_codes(diags: &[Diagnostic]) -> Vec<DiagCode> {
    let mut v: Vec<DiagCode> = diags.iter().map(|d| d.code).collect();
    v.sort();
    v
}

/// What one instrumented run yields for contract checking.
struct RunProbe {
    diags: Vec<Diagnostic>,
    digest: u64,
    ledger: OverheadLedger,
    telemetry_exact: bool,
}

/// One instrumented run: sanitized, telemetry ring on, under `config`,
/// with the given elision mode. Returns the sanitizer's findings, the
/// memory digest (taken after the program body, before teardown), the
/// ledger, and whether the ring kept every event.
fn instrumented_run(
    w: &dyn Workload,
    threads: usize,
    config: RuntimeConfig,
    elide: ElideMode,
) -> Result<RunProbe, OmpError> {
    let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(config)
        .threads(threads)
        .sanitize(true)
        .elide(elide)
        .telemetry(TelemetryMode::ring())
        .build()?;
    // A run may abort on a fatal hazard; the sanitizer's findings up to
    // the abort are exactly what the static pass predicted.
    let _ = w.run(&mut rt);
    let digest = rt.memory_digest();
    let diags = rt.sanitizer_finalize().to_vec();
    Ok(RunProbe {
        diags,
        digest,
        ledger: *rt.ledger(),
        telemetry_exact: rt.telemetry_dropped() == 0,
    })
}

/// The elision contract for one cell: the elided run found no hazards, its
/// memory is bit-identical to the unelided run's, its operation counters
/// match, and the accounting identity `mm_total(off) − mm_total(elided) ==
/// mm_saved` holds exactly.
fn elision_holds(off: &RunProbe, on: &RunProbe) -> bool {
    let (l0, l1) = (&off.ledger, &on.ledger);
    on.diags.is_empty()
        && off.digest == on.digest
        && (l0.copies, l0.bytes_copied, l0.kernels, l0.maps)
            == (l1.copies, l1.bytes_copied, l1.kernels, l1.maps)
        && l0.prefault_calls == l1.prefault_calls
        && l0.mm_total().saturating_sub(l1.mm_total()) == l1.mm_saved
        && l1.mm_total() <= l0.mm_total()
}

/// Check one workload: capture its MapIR once, statically check it against
/// each of the capture's [`admissible_configs`], and cross-validate every
/// cell with a sanitized real run. Each cell also runs a second time with
/// online map elision and verifies the elision contract
/// ([`CheckCell::elision_verified`]), and replays the statically
/// [`optimize`]d capture to verify the optimizer's equivalence contract
/// ([`CheckCell::opt_verified`]).
pub fn check_workload(w: &dyn Workload) -> Result<Vec<CheckCell>, OmpError> {
    let threads = capture_threads(w);
    let ir = capture_workload(w, threads)?;
    // Optimize the capture once; each cell then verifies the equivalence
    // contract under its own configuration. A refused (ill-formed) capture
    // fails every cell's contract — shipped workloads are well-formed.
    let optimized = optimize(&ir).ok();
    let mut cells = Vec::new();
    for config in admissible_configs(&ir) {
        let diagnostics = check(&ir, config);
        let off = instrumented_run(w, threads, config, ElideMode::Off)?;
        let on = instrumented_run(w, threads, config, ElideMode::Online)?;
        let cross_validated = sorted_codes(&diagnostics) == sorted_codes(&off.diags);
        let elision_verified = elision_holds(&off, &on);
        let telemetry_exact = off.telemetry_exact && on.telemetry_exact;
        let (opt_verified, opt_mm_saved) = match &optimized {
            Some(o) => {
                let eq = verify_equivalence(&ir, &o.ir, config)?;
                (eq.holds(), eq.mm_saved())
            }
            None => (false, VirtDuration::ZERO),
        };
        cells.push(CheckCell {
            workload: w.name(),
            config,
            diagnostics,
            sanitizer_diagnostics: off.diags,
            cross_validated,
            maps_elided: on.ledger.maps_elided,
            mm_saved: on.ledger.mm_saved,
            elision_verified,
            telemetry_exact,
            opt_verified,
            opt_mm_saved,
        });
    }
    Ok(cells)
}

/// Check every shipped workload. `filter` restricts by case-insensitive
/// name substring.
pub fn check_all(filter: Option<&str>) -> Result<Vec<CheckCell>, OmpError> {
    let mut cells = Vec::new();
    for w in shipped_workloads() {
        if let Some(f) = filter {
            if !w.name().to_lowercase().contains(&f.to_lowercase()) {
                continue;
            }
        }
        cells.extend(check_workload(w.as_ref())?);
    }
    Ok(cells)
}

/// True when any cell [fails](CheckCell::fails).
pub fn has_errors(cells: &[CheckCell]) -> bool {
    cells.iter().any(CheckCell::fails)
}

/// Human-readable report.
pub fn render_text(cells: &[CheckCell]) -> String {
    let mut out = String::new();
    out.push_str(
        "mapcheck: static map-clause analysis, cross-validated by the runtime sanitizer\n\n",
    );
    let mut current = String::new();
    for c in cells {
        if c.workload != current {
            current = c.workload.clone();
            out.push_str(&format!("{current}\n"));
        }
        let verdict = if !c.cross_validated {
            "CROSS-VALIDATION MISMATCH"
        } else if !c.elision_verified {
            "ELISION CONTRACT BROKEN"
        } else if !c.opt_verified {
            "OPTIMIZER CONTRACT BROKEN"
        } else if !c.telemetry_exact {
            "TELEMETRY EVENTS DROPPED"
        } else if c.has_static_errors() {
            "FAIL"
        } else if c.diagnostics.is_empty() {
            "clean"
        } else {
            "warnings"
        };
        let elided = if c.maps_elided != 0 {
            format!(", {} elided saving {}", c.maps_elided, c.mm_saved)
        } else {
            String::new()
        };
        let opt = if c.opt_mm_saved != VirtDuration::ZERO {
            format!(", opt saves {}", c.opt_mm_saved)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  [{:>11}] {} ({} static, {} sanitizer{}{})\n",
            c.config.label(),
            verdict,
            c.diagnostics.len(),
            c.sanitizer_diagnostics.len(),
            elided,
            opt
        ));
        for d in &c.diagnostics {
            out.push_str(&format!("    {d}\n"));
        }
        if !c.cross_validated {
            for d in &c.sanitizer_diagnostics {
                out.push_str(&format!("    sanitizer: {d}\n"));
            }
        }
    }
    let (bad, total) = (cells.iter().filter(|c| c.fails()).count(), cells.len());
    out.push_str(&format!(
        "\n{} cell(s) checked, {} failing, {} warning(s)\n",
        total,
        bad,
        cells
            .iter()
            .flat_map(|c| &c.diagnostics)
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    ));
    out
}

fn json_diag(d: &Diagnostic) -> String {
    format!(
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"thread\":{},\"extent_start\":{},\"extent_len\":{},\"detail\":\"{}\"}}",
        d.code,
        d.severity(),
        d.thread,
        d.extent.start.as_u64(),
        d.extent.len,
        json_escape(&d.detail)
    )
}

/// Machine-readable report (`apusim check --json`).
pub fn render_json(cells: &[CheckCell]) -> String {
    let mut out = String::from("{\"cells\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"workload\":\"{}\",\"config\":\"{}\",\"cross_validated\":{},\
             \"elision_verified\":{},\"telemetry_exact\":{},\
             \"maps_elided\":{},\
             \"mm_saved_us\":{:.3},\"opt_verified\":{},\"opt_mm_saved_us\":{:.3},\
             \"static\":[",
            json_escape(&c.workload),
            c.config.label(),
            c.cross_validated,
            c.elision_verified,
            c.telemetry_exact,
            c.maps_elided,
            c.mm_saved.as_micros_f64(),
            c.opt_verified,
            c.opt_mm_saved.as_micros_f64()
        ));
        out.push_str(
            &c.diagnostics
                .iter()
                .map(json_diag)
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("],\"sanitizer\":[");
        out.push_str(
            &c.sanitizer_diagnostics
                .iter()
                .map(json_diag)
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("]}");
    }
    out.push_str(&format!("],\"errors\":{}}}", has_errors(cells)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_safe() {
        let d = Diagnostic::new(
            DiagCode::Mc007,
            RuntimeConfig::LegacyCopy,
            0,
            apu_mem::AddrRange::new(apu_mem::VirtAddr(0x1000), 64),
            "a\"b\\c\nd".into(),
        );
        assert!(
            json_diag(&d).ends_with(r#""detail":"a\"b\\c\nd"}"#),
            "{}",
            json_diag(&d)
        );
    }

    /// A clean cell whose only broken contract is `broken`.
    fn cell_breaking(broken: fn(&mut CheckCell)) -> CheckCell {
        let mut c = CheckCell {
            workload: "w".into(),
            config: RuntimeConfig::LegacyCopy,
            diagnostics: Vec::new(),
            sanitizer_diagnostics: Vec::new(),
            cross_validated: true,
            maps_elided: 0,
            mm_saved: VirtDuration::ZERO,
            elision_verified: true,
            telemetry_exact: true,
            opt_verified: true,
            opt_mm_saved: VirtDuration::ZERO,
        };
        broken(&mut c);
        c
    }

    #[test]
    fn every_broken_contract_counts_as_failing() {
        let clean = cell_breaking(|_| {});
        assert!(!clean.fails());
        assert!(render_text(&[clean]).contains("1 cell(s) checked, 0 failing"));
        let broken: [fn(&mut CheckCell); 4] = [
            |c| c.cross_validated = false,
            |c| c.elision_verified = false,
            |c| c.opt_verified = false,
            |c| c.telemetry_exact = false,
        ];
        for breaking in broken {
            let cells = [cell_breaking(breaking)];
            assert!(cells[0].fails() && has_errors(&cells));
            let text = render_text(&cells);
            assert!(text.contains("1 cell(s) checked, 1 failing"), "{text}");
        }
    }

    #[test]
    fn one_cheap_cell_checks_clean_end_to_end() {
        let w = spec::Ep::scaled(0.02);
        let cells = check_workload(&w).unwrap();
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert!(c.cross_validated, "{:?}", c);
            assert!(c.diagnostics.is_empty(), "{:?}", c.diagnostics);
            assert!(c.elision_verified, "{:?}", c);
            assert!(c.telemetry_exact, "{:?}", c);
            assert!(c.opt_verified, "{:?}", c);
        }
        assert!(!has_errors(&cells));
        let json = render_json(&cells);
        assert!(json.contains("\"errors\":false"), "{json}");
    }
}

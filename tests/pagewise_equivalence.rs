//! The per-page reference path of the memory subsystem is observably
//! identical to the extent fast paths on whole programs: every cell of the
//! smoke corpus — each program under every configuration its capture
//! admits — replays to the same makespan, ledger, memory digest and
//! sanitizer diagnostics with `MemOptions::pagewise` on and off.
//! `crates/mem/tests/extent_equivalence.rs` checks the same equivalence
//! operation by operation on random operation streams.

use mi300a_zerocopy::batch::{cell_recipe, derive_inputs, smoke_corpus, SweepRequest};
use mi300a_zerocopy::mem::MemOptions;
use mi300a_zerocopy::omp::{replay, Diagnostic, OverheadLedger};
use mi300a_zerocopy::sim::VirtDuration;

/// Replay one cell's recipe with the per-page path on or off.
fn replay_cell(
    req: &SweepRequest,
    pagewise: bool,
) -> (VirtDuration, OverheadLedger, u64, Vec<Diagnostic>) {
    let (model, elide) = derive_inputs(req);
    let (ir, builder) = cell_recipe(req, model, elide);
    let mut rt = builder
        .mem_options(MemOptions::default().pagewise(pagewise))
        .build()
        .expect("smoke cells build");
    assert_eq!(rt.mem().is_pagewise(), pagewise);
    replay(&mut rt, &ir).expect("smoke cells replay");
    let digest = rt.memory_digest();
    let report = rt.finish();
    let diagnostics = report.sanitizer.map(|s| s.diagnostics).unwrap_or_default();
    (report.makespan, report.ledger, digest, diagnostics)
}

#[test]
fn pagewise_replay_equals_the_extent_paths_on_every_smoke_cell() {
    let corpus = smoke_corpus();
    assert_eq!(corpus.len(), 12, "three programs, every admissible config");
    for req in &corpus {
        assert_eq!(
            replay_cell(req, false),
            replay_cell(req, true),
            "{} under {}",
            req.name,
            req.config.token()
        );
    }
}

//! Executing sweep requests: one cell, and whole corpora under the driver.
//!
//! [`execute`] runs exactly one [`SweepRequest`] in a private runtime — the
//! cell owns its [`OmpRuntime`], its memory image, and its telemetry ring,
//! so cells are independent and any execution schedule yields the same
//! per-cell bytes. [`run_sweep_in`] fans a corpus across the work-stealing
//! [`drive_stats`] loop with the result cache consulted around each cell;
//! it is the one cell path, shared by [`run_sweep`] and the resident server
//! (`apusim serve`). [`render_report`] folds the ordered results into the
//! sweep's canonical stdout report. Cache and scheduling statistics are
//! surfaced separately ([`SweepStats`]) precisely so the report itself
//! never mentions them: cold, warm, serial, and parallel sweeps print
//! byte-identical reports.

use crate::cache::{CacheMode, ResultCache};
use crate::driver::{drive_stats, DriveStats};
use crate::request::{ElideKind, SweepRequest};
use crate::result::{merge_attribution, SweepResult, TenantRow};
use hsa_rocr::Topology;
use omp_offload::telemetry::attribution;
use omp_offload::{
    replay, replay_threads, ElideMode, MapIr, OmpError, OmpRuntime, RuntimeBuilder, TenantPool,
};
use sim_des::FaultPlan;
use std::fmt::Write as _;
use std::sync::Arc;

/// Cache effectiveness counters for one sweep. Reported on stderr by the
/// CLI clients, never folded into stdout reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells answered from the result cache.
    pub hits: u64,
    /// Cells that ran a simulation.
    pub simulated: u64,
}

impl SweepStats {
    /// Hit rate in `[0, 1]`; `0` for an empty sweep.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.simulated;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A completed sweep: per-cell results in corpus order plus cache counters.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One result per corpus request, index-aligned with the input.
    pub results: Vec<SweepResult>,
    /// Cache effectiveness over the whole sweep.
    pub stats: SweepStats,
    /// Work-stealing pool counters of this sweep's drive. They depend on
    /// the wall-clock schedule, so they are reported on the stats channel
    /// only (the serve layer's `METRICS` pool families), never rendered
    /// into [`render_report`] bytes.
    pub pool: DriveStats,
}

/// Execute one request in a fresh, private runtime and distill the outcome.
/// Deterministic: equal requests produce equal results, on any thread, in
/// any order, which is the invariant the result cache and the `-j N`
/// byte-identity contract both stand on.
pub fn execute(req: &SweepRequest) -> Result<SweepResult, OmpError> {
    let (model, elide) = derive_inputs(req);
    // Multi-tenant cells go through the pool path (tenants replayed in id
    // order on this thread); sweeps flatten the same tenant tasks across
    // the work-stealing pool instead, with identical result bytes.
    if req.tenants > 1 {
        let cell = PreparedCell::prepare(req, model, elide);
        let per = (0..req.tenants)
            .map(|t| cell.run_tenant(t))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(PreparedCell::assemble(per));
    }
    let (ir, b) = cell_recipe(req, model, elide);
    run_cell(b.build()?, &ir)
}

/// The request's two derivable inputs, derived from scratch: the preset's
/// cost model and the elide mode (synthesizing the plan from the capture
/// only for `plan` cells). Both are pure functions of the request, so
/// every cell — offline or served — derives them here.
pub fn derive_inputs(req: &SweepRequest) -> (apu_mem::CostModel, ElideMode) {
    (
        req.preset.model(),
        req.elide.mode_with(|| omp_mapcheck::elision_plan(&req.ir)),
    )
}

/// The one recipe from a request to a runnable cell: the program the cell
/// replays and the runtime builder it replays under, given the request's
/// two derivable inputs (see [`derive_inputs`]). Solo cells, tenant
/// cells, the resident server and single-file `apusim replay` all build
/// their runtime here, so no surface can drop a request field.
///
/// Opt mode rewrites the program itself before replay. The rewrite is a
/// pure function of the capture, so the cache contract holds; an
/// ill-formed capture (optimizer refusal) replays unrewritten and lets the
/// sanitizer report it like any other cell, and a rewrite that fails to
/// replay fails its cell like any other replay error.
pub fn cell_recipe(
    req: &SweepRequest,
    model: apu_mem::CostModel,
    elide: ElideMode,
) -> (Arc<MapIr>, RuntimeBuilder) {
    let ir = match req.elide {
        ElideKind::Opt => match omp_mapcheck::optimize(&req.ir) {
            Ok(o) => Arc::new(o.ir),
            Err(_) => Arc::clone(&req.ir),
        },
        _ => Arc::clone(&req.ir),
    };
    let mut b = OmpRuntime::builder(model, Topology::default())
        .config(req.config)
        .threads(replay_threads(&ir))
        .sanitize(true)
        .elide(elide)
        .telemetry(req.telemetry.mode());
    if let Some(seed) = req.fault_seed {
        b = b.fault_plan(FaultPlan::from_seed(seed));
    }
    (ir, b)
}

/// Replay `ir` on a runtime built from [`cell_recipe`] and distill the
/// finished run into the serializable per-cell result.
fn run_cell(mut rt: OmpRuntime, ir: &MapIr) -> Result<SweepResult, OmpError> {
    let out = replay(&mut rt, ir)?;
    let memory_digest = rt.memory_digest();
    let report = rt.finish();
    let mut result = SweepResult {
        ops: out.ops as u64,
        kernels: out.kernels as u64,
        makespan: report.makespan,
        memory_digest,
        ledger: report.ledger,
        ..SweepResult::default()
    };
    if let Some(san) = &report.sanitizer {
        result.diagnostics = san.diagnostics.iter().map(|d| d.to_string()).collect();
    }
    if let Some(tel) = &report.telemetry {
        result.telemetry_events = tel.events.len() as u64;
        result.dropped_events = tel.dropped_events;
        let attr = attribution(tel);
        result.sites = attr.sites;
        result.kernel_rows = attr.kernels;
    }
    Ok(result)
}

/// One multi-tenant cell, prepared once and shared by its tenant tasks:
/// the resolved (possibly statically rewritten) program plus the
/// [`TenantPool`] whose one mapping table every tenant inserts into. Tenant
/// tasks borrow the cell concurrently from the work-stealing pool; the
/// pool's VA-window isolation makes the schedule unobservable in the
/// per-tenant bytes.
pub struct PreparedCell {
    ir: Arc<MapIr>,
    pool: TenantPool,
    tenants: u32,
}

impl PreparedCell {
    /// Resolve the cell's [`cell_recipe`] once and wrap its builder in the
    /// shared tenant pool.
    pub fn prepare(
        req: &SweepRequest,
        model: apu_mem::CostModel,
        elide: ElideMode,
    ) -> PreparedCell {
        let (ir, b) = cell_recipe(req, model, elide);
        PreparedCell {
            ir,
            pool: TenantPool::new(b),
            tenants: req.tenants,
        }
    }

    /// Tenant count of the underlying request.
    pub fn tenants(&self) -> u32 {
        self.tenants
    }

    /// Replay the program as tenant `t` of the shared pool and distill its
    /// private result.
    pub fn run_tenant(&self, t: u32) -> Result<SweepResult, OmpError> {
        run_cell(self.pool.tenant(t)?.into_runtime(), &self.ir)
    }

    /// Fold per-tenant results (in tenant-id order) into the cell's
    /// result: the primary fields are tenant 0's — byte-equal to running
    /// tenant 0 alone — and every tenant contributes a summary row.
    pub fn assemble(per_tenant: Vec<SweepResult>) -> SweepResult {
        let rows: Vec<TenantRow> = per_tenant
            .iter()
            .enumerate()
            .map(|(t, r)| TenantRow {
                tenant: t as u32,
                memory_digest: r.memory_digest,
                makespan: r.makespan,
                maps: r.ledger.maps,
            })
            .collect();
        let mut primary = per_tenant.into_iter().next().expect("at least tenant 0");
        primary.tenant_rows = rows;
        primary
    }
}

/// Run a whole corpus: each cell is answered from the cache when possible
/// and simulated (then stored) otherwise, with cells distributed over
/// `jobs` work-stealing workers. Results come back in corpus order
/// regardless of schedule. The first cell error aborts the sweep.
pub fn run_sweep(
    corpus: &[SweepRequest],
    jobs: usize,
    cache_mode: &CacheMode,
) -> Result<SweepOutcome, OmpError> {
    run_sweep_in(corpus, jobs, &ResultCache::open(cache_mode))
}

/// [`run_sweep`] against an already-open cache. This is the one cell path
/// of the offline sweep and the resident server (`apusim serve`), so a
/// served answer equals the offline one by construction. Single-tenant
/// cells run the classic one-task-per-cell path through [`execute`];
/// multi-tenant cells are flattened into one task *per tenant*, so
/// intra-cell tenant work and cross-cell sweep work share the same
/// work-stealing pool.
pub fn run_sweep_in(
    corpus: &[SweepRequest],
    jobs: usize,
    cache: &ResultCache,
) -> Result<SweepOutcome, OmpError> {
    // Cache pass first: hits never reach the pool, and the flattened task
    // list needs the set of misses up front.
    let mut slots: Vec<Option<SweepResult>> = corpus.iter().map(|req| cache.lookup(req)).collect();
    let hits = slots.iter().filter(|s| s.is_some()).count() as u64;

    #[derive(Clone, Copy)]
    enum Sub {
        Solo,
        Tenant(usize, u32),
    }
    let mut prepared: Vec<PreparedCell> = Vec::new();
    let mut tasks: Vec<(usize, Sub)> = Vec::new();
    for (i, req) in corpus.iter().enumerate() {
        if slots[i].is_some() {
            continue;
        }
        if req.tenants == 1 {
            tasks.push((i, Sub::Solo));
        } else {
            let (model, elide) = derive_inputs(req);
            let pi = prepared.len();
            prepared.push(PreparedCell::prepare(req, model, elide));
            for t in 0..req.tenants {
                tasks.push((i, Sub::Tenant(pi, t)));
            }
        }
    }
    let (outs, pool) = drive_stats(tasks.len(), jobs, |k| {
        let (i, sub) = tasks[k];
        match sub {
            Sub::Solo => execute(&corpus[i]),
            Sub::Tenant(pi, t) => prepared[pi].run_tenant(t),
        }
    });
    let outs = outs.into_iter().collect::<Result<Vec<_>, OmpError>>()?;

    // Reassemble per-cell results in injection order and store the misses.
    let mut it = outs.into_iter();
    for (i, req) in corpus.iter().enumerate() {
        if slots[i].is_some() {
            continue;
        }
        let result = if req.tenants == 1 {
            it.next().expect("one task per solo cell")
        } else {
            let per: Vec<SweepResult> = (0..req.tenants)
                .map(|_| it.next().expect("one task per tenant"))
                .collect();
            PreparedCell::assemble(per)
        };
        if let Err(e) = cache.store(req, &result) {
            // Memoization is an optimization; a full disk or read-only
            // cache directory must not fail the sweep itself.
            eprintln!("apusim: cache store failed for {}: {e}", req.name);
        }
        slots[i] = Some(result);
    }
    let results: Vec<SweepResult> = slots
        .into_iter()
        .map(|s| s.expect("every cell resolved"))
        .collect();
    Ok(SweepOutcome {
        results,
        stats: SweepStats {
            hits,
            simulated: corpus.len() as u64 - hits,
        },
        pool,
    })
}

/// Render the sweep's stdout report: one line per cell in corpus order,
/// then corpus totals and the merged cross-run attribution profile (when
/// any cell collected telemetry). Pure function of `(corpus, results)` —
/// cache state, worker count, and steal schedule cannot reach it.
pub fn render_report(corpus: &[SweepRequest], results: &[SweepResult]) -> String {
    assert_eq!(corpus.len(), results.len(), "corpus/result misalignment");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>6} {:>5} {:>12} {:>10} {:>8} {:>5} {:>16}",
        "workload",
        "config",
        "elide",
        "fault",
        "makespan_us",
        "copies",
        "elided",
        "diags",
        "mem_digest"
    );
    for (req, r) in corpus.iter().zip(results) {
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>6} {:>5} {:>12.3} {:>10} {:>8} {:>5} {:016x}",
            req.name,
            req.config.token(),
            req.elide.token(),
            req.fault_seed
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            r.makespan.as_nanos() as f64 / 1_000.0,
            r.ledger.copies,
            r.ledger.maps_elided,
            r.diagnostics.len(),
            r.memory_digest,
        );
    }
    let total_ops: u64 = results.iter().map(|r| r.ops).sum();
    let total_kernels: u64 = results.iter().map(|r| r.kernels).sum();
    let total_ns: u64 = results.iter().map(|r| r.makespan.as_nanos()).sum();
    let _ = writeln!(
        out,
        "total: {} cells, {} ops, {} kernels, {:.3} virtual ms",
        results.len(),
        total_ops,
        total_kernels,
        total_ns as f64 / 1_000_000.0,
    );
    let (sites, kernels) = merge_attribution(results);
    if !sites.is_empty() || !kernels.is_empty() {
        let _ = writeln!(out, "\nmerged site profile (top 10 by MM charge):");
        for s in sites.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:#012x}+{:<10} maps {:<6} copies {:<6} mm_us {:<10.3} saved_us {:.3}",
                s.range.start.as_u64(),
                s.range.len,
                s.ledger.maps,
                s.ledger.copies,
                s.ledger.mm_total().as_nanos() as f64 / 1_000.0,
                s.ledger.mm_saved.as_nanos() as f64 / 1_000.0,
            );
        }
        let _ = writeln!(out, "merged kernel profile (top 10 by fault stall):");
        for k in kernels.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:<24} launches {:<6} fault_us {:<10.3} tlb_us {:<10.3} replayed {}",
                k.name,
                k.ledger.kernels,
                k.ledger.mi_fault_stall.as_nanos() as f64 / 1_000.0,
                k.ledger.tlb_stall.as_nanos() as f64 / 1_000.0,
                k.ledger.replayed_pages,
            );
        }
    }
    out
}

fn corpus_for(
    programs: Vec<Box<dyn workloads::Workload>>,
    elides: &[ElideKind],
) -> Vec<SweepRequest> {
    let mut corpus = Vec::new();
    for w in programs {
        let ir = Arc::new(
            omp_mapcheck::capture_workload(&*w, omp_mapcheck::harness::capture_threads(&*w))
                .expect("shipped workloads capture cleanly"),
        );
        for config in omp_mapcheck::admissible_configs(&ir) {
            for &elide in elides {
                corpus.push(
                    SweepRequest::builder(w.name(), Arc::clone(&ir))
                        .config(config)
                        .elide(elide)
                        .build()
                        .expect("shipped corpus combinations are valid"),
                );
            }
        }
    }
    corpus
}

/// The small, fast corpus CI sweeps: three shipped programs at reduced
/// scale, every configuration each capture admits, elision off.
/// Deterministic construction: element order is fixed.
pub fn smoke_corpus() -> Vec<SweepRequest> {
    use workloads::{spec, NioSize, QmcPack};
    let programs: Vec<Box<dyn workloads::Workload>> = vec![
        Box::new(spec::Ep::scaled(0.02)),
        Box::new(spec::Stencil::scaled(0.02)),
        Box::new(QmcPack::nio(NioSize { factor: 2 }).with_steps(2)),
    ];
    corpus_for(programs, &[ElideKind::Off])
}

/// The full sweep corpus `repro` runs: every shipped workload, every
/// configuration each capture admits, elision off and profile-guided.
pub fn full_corpus() -> Vec<SweepRequest> {
    corpus_for(
        omp_mapcheck::harness::shipped_workloads(),
        &[ElideKind::Off, ElideKind::Plan],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TelemetryKind;
    use omp_offload::RuntimeConfig;

    fn tiny_corpus() -> Vec<SweepRequest> {
        use workloads::{spec, Workload};
        let w = spec::Ep::scaled(0.02);
        let ir = Arc::new(omp_mapcheck::capture_workload(&w, 1).unwrap());
        RuntimeConfig::ALL
            .into_iter()
            .map(|c| {
                SweepRequest::builder(w.name(), Arc::clone(&ir))
                    .config(c)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn execute_is_deterministic_per_request() {
        let corpus = tiny_corpus();
        for req in &corpus {
            let a = execute(req).unwrap();
            let b = execute(req).unwrap();
            assert_eq!(a, b, "{} {:?}", req.name, req.config);
            assert!(a.ops > 0);
        }
    }

    #[test]
    fn telemetry_requests_carry_attribution() {
        let mut req = tiny_corpus().remove(0);
        req.telemetry = TelemetryKind::Ring;
        let r = execute(&req).unwrap();
        assert!(r.telemetry_events > 0);
        assert_eq!(r.dropped_events, 0);
        assert!(!r.sites.is_empty());
        // And the serialized form round-trips the profile exactly.
        assert_eq!(SweepResult::parse(&r.to_text()).unwrap(), r);
    }

    #[test]
    fn plan_elision_recovers_map_service_time() {
        use workloads::{Stream, Workload};
        let w = Stream::scaled(0.02);
        let ir = Arc::new(omp_mapcheck::capture_workload(&w, 1).unwrap());
        let base = SweepRequest::builder(w.name(), ir)
            .config(RuntimeConfig::LegacyCopy)
            .build()
            .unwrap();
        let mut planned = base.clone();
        planned.elide = ElideKind::Plan;
        let off = execute(&base).unwrap();
        let on = execute(&planned).unwrap();
        assert_eq!(
            off.memory_digest, on.memory_digest,
            "elision preserves results"
        );
        assert!(on.ledger.maps_elided > 0);
    }

    #[test]
    fn opt_mode_rewrites_before_replay_and_preserves_results() {
        use workloads::{Stream, Workload};
        let w = Stream::scaled(0.02);
        let ir = Arc::new(omp_mapcheck::capture_workload(&w, 1).unwrap());
        let base = SweepRequest::builder(w.name(), ir)
            .config(RuntimeConfig::LegacyCopy)
            .build()
            .unwrap();
        let mut opted = base.clone();
        opted.elide = ElideKind::Opt;
        let off = execute(&base).unwrap();
        let opt = execute(&opted).unwrap();
        assert_eq!(
            off.memory_digest, opt.memory_digest,
            "static optimization preserves results"
        );
        assert_eq!(off.kernels, opt.kernels);
        assert!(
            opt.ledger.mm_total() < off.ledger.mm_total(),
            "optimized replay must cut map-management time: {:?} vs {:?}",
            opt.ledger.mm_total(),
            off.ledger.mm_total()
        );
    }

    #[test]
    fn multi_tenant_cells_report_per_tenant_rows_and_keep_tenant0_bytes() {
        let base = tiny_corpus().remove(0);
        let mut multi = base.clone();
        multi.tenants = 4;
        let solo = execute(&base).unwrap();
        let fan = execute(&multi).unwrap();
        assert_eq!(fan.tenant_rows.len(), 4);
        assert_eq!(fan.tenant_rows[0].memory_digest, solo.memory_digest);
        let mut stripped = fan.clone();
        stripped.tenant_rows.clear();
        assert_eq!(stripped, solo, "primary fields are tenant 0's solo bytes");
        // The tenant schedule is unobservable: the flattened tenant tasks
        // produce the same cell bytes on 1 and 4 workers, plain and in the
        // sweep-tenants benchmark's recipe, where each tenant's lookup cache
        // probes the shared table under online elision.
        let bench = SweepRequest {
            elide: ElideKind::Online,
            telemetry: TelemetryKind::Ring,
            ..multi.clone()
        };
        let corpus = vec![multi, bench];
        let serial = run_sweep(&corpus, 1, &CacheMode::Off).unwrap();
        let parallel = run_sweep(&corpus, 4, &CacheMode::Off).unwrap();
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.results[0], fan);
        // And the serialized form round-trips the tenant rows exactly.
        assert_eq!(SweepResult::parse(&fan.to_text()).unwrap(), fan);
    }

    #[test]
    fn sweep_report_ignores_schedule_and_cache() {
        let corpus = tiny_corpus();
        let serial = run_sweep(&corpus, 1, &CacheMode::Off).unwrap();
        let parallel = run_sweep(&corpus, 3, &CacheMode::Off).unwrap();
        assert_eq!(serial.results, parallel.results);
        assert_eq!(
            render_report(&corpus, &serial.results),
            render_report(&corpus, &parallel.results),
        );
        assert_eq!(serial.stats.simulated, corpus.len() as u64);
        assert_eq!(serial.stats.hits, 0);
        // Pool counters ride beside the results, never inside them: every
        // task is accounted for, the worker split differs, the bytes don't.
        assert_eq!(serial.pool.tasks(), corpus.len() as u64);
        assert_eq!(parallel.pool.tasks(), corpus.len() as u64);
        assert_eq!(serial.pool.workers.len(), 1);
        assert_eq!(parallel.pool.workers.len(), 3);
    }
}

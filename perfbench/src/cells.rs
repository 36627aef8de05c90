//! Sweep cells: the corpora, one untraced pass through the public sweep
//! calls, the same pass decomposed into per-layer spans, and the output
//! pins every pass is checked against.
//!
//! An untraced pass is exactly what `run_sweep(corpus, jobs,
//! CacheMode::Off)` does: multi-tenant cells are prepared up front
//! ([`PreparedCell`]), every solo cell and every tenant becomes one task on
//! the work-stealing [`drive_stats`] pool, and the results are reassembled
//! in corpus order. With the cache off, `run_sweep`'s lookups and stores
//! are no-ops, so the only thing added here is a clock around each task.
//! The traced pass makes the calls `execute_prepared` makes, one by one,
//! each inside a span; a test pins both to `run_sweep`'s bytes.

use crate::trace::SpanBuf;
use hsa_rocr::Topology;
use omp_batch::{
    drive_stats, execute, full_corpus, smoke_corpus, DriveStats, ElideKind, PreparedCell,
    SweepRequest, SweepResult, TelemetryKind,
};
use omp_offload::digest::Fnv1a;
use omp_offload::telemetry::attribution;
use omp_offload::{
    replay, replay_threads, MapIr, MetricsMode, OmpError, OmpRuntime, ReplayOutcome, RunReport,
    RuntimeBuilder, TenantPool,
};
use sim_des::FaultPlan;
use std::sync::Arc;
use std::time::Instant;

/// `cells_fnv` of the `sweep-cold` corpus (see [`cells_fnv`]).
pub const SWEEP_COLD_FNV: u64 = 0x2179_306d_fabb_e808;
/// `cells_fnv` of the `sweep-tenants` corpus.
pub const SWEEP_TENANTS_FNV: u64 = 0x5f4a_ea1a_9c32_6eff;
/// `cells_fnv` of the serve workloads' cache fill (the smoke corpus).
pub const FILL_FNV: u64 = 0x6fba_6606_4aa2_aa50;

/// Simulated totals of a sweep pass, nanoseconds: sum of makespans, of
/// map-management and of memory-initialization overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Virtual {
    /// Σ makespan.
    pub total_ns: u64,
    /// Σ `ledger.mm_total()`.
    pub mm_ns: u64,
    /// Σ `ledger.mi_total()`.
    pub mi_ns: u64,
}

/// Pinned simulated totals of `sweep-cold`.
pub const SWEEP_COLD_VIRTUAL: Virtual = Virtual {
    total_ns: 847_913_148,
    mm_ns: 349_173_268,
    mi_ns: 399_918_600,
};
/// Pinned simulated totals of `sweep-tenants` (tenant 0 of each cell).
pub const SWEEP_TENANTS_VIRTUAL: Virtual = Virtual {
    total_ns: 127_425_959,
    mm_ns: 14_866_135,
    mi_ns: 101_887_300,
};

/// Memory digest each shipped program leaves behind on a healthy run. It
/// is the same under every configuration and elide mode, and fault
/// recovery must preserve it, so it checks every cold serve response.
pub const HEALTHY_DIGESTS: &[(&str, u64)] = &[
    ("qmcpack-nio-S2", 0xc90d_5229_0e24_e313),
    ("403.stencil", 0x0e38_ed46_dc5b_c7b5),
    ("404.lbm", 0x0e38_ed46_dc5b_c7b5),
    ("452.ep", 0x0e38_ed46_dc5b_c7b5),
    ("457.spC", 0x0e38_ed46_dc5b_c7b5),
    ("470.bt", 0x0e38_ed46_dc5b_c7b5),
    ("babelstream", 0x250c_0c91_db7f_45fc),
    ("openfoam-mini-usm", 0x0e38_ed46_dc5b_c7b5),
    ("mini-cg", 0x7a62_71d8_fb15_0a6f),
    ("mini-cg-nowait", 0x7a62_71d8_fb15_0a6f),
];

/// The pinned healthy digest of program `name`.
pub fn healthy_digest(name: &str) -> Option<u64> {
    HEALTHY_DIGESTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, d)| d)
}

/// `sweep-cold`: every shipped program × compatible config × elide
/// off/plan.
pub fn sweep_cold_corpus() -> Vec<SweepRequest> {
    full_corpus()
}

/// `sweep-tenants`: the smoke corpus with 8 tenants per cell, online
/// elision and the telemetry ring.
pub fn sweep_tenants_corpus() -> Vec<SweepRequest> {
    smoke_corpus()
        .into_iter()
        .map(|r| SweepRequest {
            tenants: 8,
            elide: ElideKind::Online,
            telemetry: TelemetryKind::Ring,
            ..r
        })
        .collect()
}

/// Order-free fingerprint of a sweep's outputs: FNV over (name, config,
/// elide, tenants, memory digest, makespan, tenant rows) of every cell,
/// cells sorted by request digest.
pub fn cells_fnv(corpus: &[SweepRequest], results: &[SweepResult]) -> u64 {
    assert_eq!(corpus.len(), results.len(), "corpus/result misalignment");
    let mut order: Vec<(u64, usize)> = corpus
        .iter()
        .enumerate()
        .map(|(i, r)| (r.digest(), i))
        .collect();
    order.sort_unstable();
    let mut h = Fnv1a::new();
    for (_, i) in order {
        let (req, r) = (&corpus[i], &results[i]);
        for s in [req.name.as_str(), req.config.token(), req.elide.token()] {
            h.write_u64(s.len() as u64);
            h.write_str(s);
        }
        h.write_u64(u64::from(req.tenants));
        h.write_u64(r.memory_digest);
        h.write_u64(r.makespan.as_nanos());
        for t in &r.tenant_rows {
            h.write_u64(t.memory_digest);
            h.write_u64(t.makespan.as_nanos());
        }
    }
    h.finish()
}

/// Simulated totals over a pass's results.
pub fn virtual_totals(results: &[SweepResult]) -> Virtual {
    results.iter().fold(Virtual::default(), |v, r| Virtual {
        total_ns: v.total_ns + r.makespan.as_nanos(),
        mm_ns: v.mm_ns + r.ledger.mm_total().as_nanos(),
        mi_ns: v.mi_ns + r.ledger.mi_total().as_nanos(),
    })
}

/// One task of a pass: a solo cell, or one tenant of a prepared cell.
#[derive(Debug, Clone, Copy)]
enum Task {
    Solo(usize),
    Tenant(usize, u32),
}

/// Flatten `corpus` into tasks the way `run_sweep` does, preparing each
/// multi-tenant cell once with `prepare`.
fn plan<P>(
    corpus: &[SweepRequest],
    mut prepare: impl FnMut(&SweepRequest) -> P,
) -> (Vec<P>, Vec<(usize, Task)>) {
    let mut prepared = Vec::new();
    let mut tasks = Vec::new();
    for (i, req) in corpus.iter().enumerate() {
        if req.tenants == 1 {
            tasks.push((i, Task::Solo(i)));
        } else {
            let p = prepared.len();
            prepared.push(prepare(req));
            tasks.extend((0..req.tenants).map(|t| (i, Task::Tenant(p, t))));
        }
    }
    (prepared, tasks)
}

/// Fold task outputs (in task order) back into one result per cell.
fn assemble(corpus: &[SweepRequest], outs: Vec<SweepResult>) -> Vec<SweepResult> {
    let mut it = outs.into_iter();
    corpus
        .iter()
        .map(|req| {
            let per: Vec<SweepResult> = (0..req.tenants)
                .map(|_| it.next().expect("one output per task"))
                .collect();
            if req.tenants == 1 {
                per.into_iter().next().expect("solo output")
            } else {
                PreparedCell::assemble(per)
            }
        })
        .collect()
}

/// What one pass produced and how long it took.
#[derive(Debug)]
pub struct Pass {
    /// One result per cell, corpus order.
    pub results: Vec<SweepResult>,
    /// Wall-clock seconds of every task (a solo cell or one tenant).
    pub task_secs: Vec<f64>,
    /// Wall-clock seconds of the whole pass.
    pub wall: f64,
    /// Work-stealing scheduler counters.
    pub pool: DriveStats,
}

/// One untraced pass at `jobs` workers.
pub fn plain_pass(corpus: &[SweepRequest], jobs: usize) -> Result<Pass, OmpError> {
    let t0 = Instant::now();
    let (prepared, tasks) = plan(corpus, |req| {
        PreparedCell::prepare(
            req,
            req.preset.model(),
            req.elide.mode_with(|| omp_mapcheck::elision_plan(&req.ir)),
        )
    });
    let (outs, pool) = drive_stats(tasks.len(), jobs, |k| {
        let t = Instant::now();
        let r = match tasks[k].1 {
            Task::Solo(i) => execute(&corpus[i]),
            Task::Tenant(p, t) => prepared[p].run_tenant(t),
        };
        (r, t.elapsed().as_secs_f64())
    });
    let mut task_secs = Vec::with_capacity(outs.len());
    let mut results = Vec::with_capacity(outs.len());
    for (r, s) in outs {
        results.push(r?);
        task_secs.push(s);
    }
    Ok(Pass {
        results: assemble(corpus, results),
        task_secs,
        wall: t0.elapsed().as_secs_f64(),
        pool,
    })
}

/// Work and contention counts of traced cells, summed over tasks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Tasks (solo cells or tenants) executed.
    pub tasks: u64,
    /// Captured records replayed.
    pub ops: u64,
    /// Bytes of live memory the digests read.
    pub digest_bytes: u64,
    /// Mapping-table lock acquisitions.
    pub table_acquisitions: u64,
    /// Acquisitions that found the lock held.
    pub table_contended: u64,
    /// Presence lookup-cache hits and misses.
    pub lookup_hits: u64,
    /// See `lookup_hits`.
    pub lookup_misses: u64,
    /// Telemetry events kept, and dropped by ring overflow.
    pub telemetry_events: u64,
    /// See `telemetry_events`.
    pub telemetry_dropped: u64,
    /// `elision_plan` and `optimize` calls made on the cell path.
    pub elision_calls: u64,
    /// See `elision_calls`.
    pub optimize_calls: u64,
}

impl Counts {
    /// Fold another set of counts into this one.
    pub fn add(&mut self, o: &Counts) {
        self.tasks += o.tasks;
        self.ops += o.ops;
        self.digest_bytes += o.digest_bytes;
        self.table_acquisitions += o.table_acquisitions;
        self.table_contended += o.table_contended;
        self.lookup_hits += o.lookup_hits;
        self.lookup_misses += o.lookup_misses;
        self.telemetry_events += o.telemetry_events;
        self.telemetry_dropped += o.telemetry_dropped;
        self.elision_calls += o.elision_calls;
        self.optimize_calls += o.optimize_calls;
    }
}

/// A traced pass: the plain pass's outputs plus spans and counts.
#[derive(Debug)]
pub struct TracedPass {
    /// Results, timings and scheduler counters, as for [`plain_pass`].
    pub pass: Pass,
    /// Every span the pass recorded.
    pub spans: Vec<crate::trace::Span>,
    /// Work and contention counts.
    pub counts: Counts,
}

/// The program a cell replays (rewritten first for `opt`) and its
/// runtime recipe, with the check-layer calls timed.
fn resolve(req: &SweepRequest, b: &mut SpanBuf, c: &mut Counts) -> (Arc<MapIr>, RuntimeBuilder) {
    let ir = if req.elide == ElideKind::Opt {
        c.optimize_calls += 1;
        match b.time("check.optimize", |_| omp_mapcheck::optimize(&req.ir)) {
            Ok(o) => Arc::new(o.ir),
            Err(_) => Arc::clone(&req.ir),
        }
    } else {
        Arc::clone(&req.ir)
    };
    let elide = req.elide.mode_with(|| {
        c.elision_calls += 1;
        b.time("check.elision_plan", |_| {
            omp_mapcheck::elision_plan(&req.ir)
        })
    });
    let mut builder = OmpRuntime::builder(req.preset.model(), Topology::default())
        .config(req.config)
        .threads(replay_threads(&ir))
        .sanitize(true)
        .elide(elide)
        .telemetry(req.telemetry.mode())
        .metrics(MetricsMode::On);
    if let Some(seed) = req.fault_seed {
        builder = builder.fault_plan(FaultPlan::from_seed(seed));
    }
    (ir, builder)
}

/// Replay, digest and finish one built runtime, each in its span.
fn run_built(
    mut rt: OmpRuntime,
    ir: &MapIr,
    b: &mut SpanBuf,
    c: &mut Counts,
    own_table: bool,
) -> Result<SweepResult, OmpError> {
    let out = b.time("core.replay", |_| replay(&mut rt, ir))?;
    let digest = b.time("core.memory_digest", |_| rt.memory_digest());
    c.tasks += 1;
    c.ops += out.ops as u64;
    c.digest_bytes += rt.mem().vmas().map(|v| v.range.len).sum::<u64>();
    if own_table {
        let t = rt.contention();
        c.table_acquisitions += t.total_acquisitions();
        c.table_contended += t.total_contended();
    }
    let report = b.time("core.finish", |_| rt.finish());
    c.lookup_hits += report.mapping_cache.0;
    c.lookup_misses += report.mapping_cache.1;
    if let Some(t) = &report.telemetry {
        c.telemetry_events += t.events.len() as u64;
        c.telemetry_dropped += t.dropped_events;
    }
    Ok(distill(out, digest, report))
}

/// The sweep layer's per-cell result, built as `omp_batch` builds it.
fn distill(out: ReplayOutcome, memory_digest: u64, report: RunReport) -> SweepResult {
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
    result
}

struct TracedCell {
    ir: Arc<MapIr>,
    pool: TenantPool,
}

/// One pass with every layer call in its own span. `req_base` numbers the
/// cells' request ids.
pub fn traced_pass(
    corpus: &[SweepRequest],
    jobs: usize,
    epoch: Instant,
    req_base: u64,
) -> Result<TracedPass, OmpError> {
    let t0 = Instant::now();
    let mut prep_buf = SpanBuf::new(epoch, req_base);
    let mut counts = Counts::default();
    let (prepared, tasks) = plan(corpus, |req| {
        prep_buf.time("batch.prepare", |b| {
            let (ir, builder) = resolve(req, b, &mut counts);
            TracedCell {
                ir,
                pool: TenantPool::new(builder),
            }
        })
    });
    let (outs, pool) = drive_stats(tasks.len(), jobs, |k| {
        let (cell, task) = tasks[k];
        let mut b = SpanBuf::new(epoch, req_base + cell as u64);
        let mut c = Counts::default();
        let t = Instant::now();
        let r = b.time("cell", |b| match task {
            Task::Solo(i) => {
                let (ir, builder) = resolve(&corpus[i], b, &mut c);
                let rt = b.time("core.build", |_| builder.build())?;
                run_built(rt, &ir, b, &mut c, true)
            }
            Task::Tenant(p, t) => {
                let cell = &prepared[p];
                let tenant = b.time("core.build", |_| cell.pool.tenant(t))?;
                run_built(tenant.into_runtime(), &cell.ir, b, &mut c, false)
            }
        });
        (r, t.elapsed().as_secs_f64(), b.spans, c)
    });
    let mut spans = prep_buf.spans;
    let mut results = Vec::with_capacity(outs.len());
    let mut task_secs = Vec::with_capacity(outs.len());
    for (r, s, sp, c) in outs {
        results.push(r?);
        task_secs.push(s);
        spans.extend(sp);
        counts.add(&c);
    }
    // Tenants share their cell's table: read its contention once, after
    // every tenant has finished.
    for cell in &prepared {
        let t = cell.pool.table().contention();
        counts.table_acquisitions += t.total_acquisitions();
        counts.table_contended += t.total_contended();
    }
    Ok(TracedPass {
        pass: Pass {
            results: assemble(corpus, results),
            task_secs,
            wall: t0.elapsed().as_secs_f64(),
            pool,
        },
        spans,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_batch::{run_sweep, CacheMode};
    use omp_offload::RuntimeConfig;

    /// Small cells covering every path the benchmark decomposes: each
    /// elide kind, a fault plan, telemetry, and a multi-tenant cell.
    fn small_corpus() -> Vec<SweepRequest> {
        let w = workloads::Stream::scaled(0.02);
        let ir = Arc::new(omp_mapcheck::capture_workload(&w, 1).unwrap());
        let cell = |config, elide| {
            SweepRequest::builder(workloads::Workload::name(&w), Arc::clone(&ir))
                .config(config)
                .elide(elide)
        };
        vec![
            cell(RuntimeConfig::LegacyCopy, ElideKind::Off)
                .build()
                .unwrap(),
            cell(RuntimeConfig::LegacyCopy, ElideKind::Plan)
                .build()
                .unwrap(),
            cell(RuntimeConfig::EagerMaps, ElideKind::Opt)
                .fault_seed(11)
                .build()
                .unwrap(),
            cell(RuntimeConfig::ImplicitZeroCopy, ElideKind::Online)
                .telemetry(TelemetryKind::Ring)
                .tenants(3)
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn decomposed_and_plain_passes_equal_run_sweep() {
        let corpus = small_corpus();
        let reference = run_sweep(&corpus, 1, &CacheMode::Off).unwrap().results;
        for r in corpus.iter().zip(&reference) {
            if r.0.tenants == 1 {
                assert_eq!(&execute(r.0).unwrap(), r.1);
            }
        }
        let plain = plain_pass(&corpus, 2).unwrap();
        assert_eq!(plain.results, reference);
        assert_eq!(plain.task_secs.len(), 3 + 3);
        let traced = traced_pass(&corpus, 2, Instant::now(), 0).unwrap();
        assert_eq!(traced.pass.results, reference);
        assert_eq!(
            cells_fnv(&corpus, &traced.pass.results),
            cells_fnv(&corpus, &reference)
        );
        let c = traced.counts;
        assert_eq!((c.tasks, c.elision_calls, c.optimize_calls), (6, 1, 1));
        assert!(c.ops > 0 && c.digest_bytes > 0 && c.table_acquisitions > 0);
        assert!(c.telemetry_events > 0);
        assert!(c.lookup_hits > 0, "online elision probes the lookup cache");
        let names = |n: &str| traced.spans.iter().filter(|s| s.name == n).count();
        assert_eq!(names("cell"), 6);
        assert_eq!(names("core.replay"), 6);
        assert_eq!(names("batch.prepare"), 1);
    }

    #[test]
    fn fingerprint_ignores_order_but_not_outputs() {
        let mut corpus = small_corpus();
        corpus.truncate(2);
        let results = plain_pass(&corpus, 1).unwrap().results;
        let fnv = cells_fnv(&corpus, &results);
        let (mut rc, mut rr) = (corpus.clone(), results.clone());
        rc.reverse();
        rr.reverse();
        assert_eq!(cells_fnv(&rc, &rr), fnv);
        rr[0].memory_digest ^= 1;
        assert_ne!(cells_fnv(&rc, &rr), fnv);
    }
}

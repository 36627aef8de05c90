//! Whole-program static optimization of MapIR: mapping-plan synthesis.
//!
//! Where [`elision_plan`](crate::elision_plan()) marks individual MC007 sites
//! for the runtime to promote, this pass rewrites the *program*: it computes
//! per-extent liveness and reaching-transfer facts across the whole capture
//! (presence from a [`MapModel`] walked like the planner's, version clocks
//! from a Copy-mode replay of the checker's interpreter) and emits a new
//! [`MapIr`] with the redundant map traffic removed before the runtime ever
//! sees it (the paper's conclusion that map handling, not data movement,
//! dominates zero-copy overhead — so the biggest win is map work that never
//! happens). Four rewrite rules, applied in order:
//!
//! 1. **Hoist** — a run of structurally identical op windows (a loop body,
//!    recognized by repeated-window equality) that re-maps the same extent
//!    every iteration is rewritten to map it once: a single enter/exit data
//!    pair brackets the loop and the per-iteration pairs disappear.
//! 2. **Dead `to`** — transfer-direction re-maps of already-present extents
//!    (the MC007 pattern [`elision_plan`](crate::elision_plan()) finds) are
//!    downgraded to `alloc` statically, baking the plan into the program so
//!    replay pays neither the transfer-decision service nor a lookup.
//! 3. **Dead `from`** — a from-copy whose host destination is never read
//!    again (no later `HostRead`, to-transfer, `update to`, or raw kernel
//!    access of the extent) is deleted by downgrading the map's direction.
//! 4. **Update downgrade** — `target update` ranges whose host and device
//!    version clocks (the [`check`](crate::check()) staleness model) already
//!    agree transfer nothing and are dropped; an update with no ranges left
//!    is deleted.
//!
//! Every rewrite preserves allocation order, refcount/presence behavior and
//! kernel launches, which is what the **equivalence contract** checks on
//! replay: bit-identical FNV memory digest, a sanitizer report no worse
//! than the baseline's (and free of errors), identical kernel count, and
//! `mm_total(optimized) <= mm_total(baseline)`. Ill-formed programs — any
//! error-severity diagnostic under an admissible configuration — are
//! refused outright, never rewritten.
//!
//! [`optimize`] only checks and rewrites; it replays nothing. Ranking the
//! admissible configurations is a separate call, [`rank_configs`]: it
//! replays the optimized program under each with the calibrated cost model
//! and orders them by makespan. Only the callers that print a
//! recommendation (`apusim optimize`, the Table III optimizer delta) rank.

use crate::checker::Interp;
use crate::elision::track;
use crate::{check, elision_plan};
use apu_mem::{AddrRange, CostModel};
use hsa_rocr::Topology;
use omp_offload::{
    replay, replay_threads, DiagCode, Diagnostic, MapDir, MapEntry, MapIr, MapModel, MapOp,
    MapRecord, OmpError, OmpRuntime, Presence, RuntimeConfig, Severity,
};
use sim_des::VirtDuration;
use std::collections::BTreeMap;
use std::fmt;

/// Longest op window considered a loop body by the hoist pass.
const MAX_WINDOW: usize = 64;

/// Per-rule rewrite counts.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// Extents whose per-iteration map pairs were hoisted out of a loop.
    pub hoisted: usize,
    /// Dead to-transfers downgraded to `alloc` (static MC007 elision).
    pub dead_to: usize,
    /// Dead from-transfers deleted by direction downgrade.
    pub dead_from: usize,
    /// `target update` ranges dropped because the clocks already agreed.
    pub updates_dropped: usize,
}

/// One configuration's cost when replaying the optimized program.
#[derive(Debug, Clone, Copy)]
pub struct ConfigScore {
    /// The configuration replayed.
    pub config: RuntimeConfig,
    /// Total virtual execution time.
    pub makespan: VirtDuration,
    /// Memory-management overhead total (Table III).
    pub mm_total: VirtDuration,
}

impl OptReport {
    /// Total rewrites applied across all rules.
    pub fn rewrites(&self) -> usize {
        self.hoisted + self.dead_to + self.dead_from + self.updates_dropped
    }
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rewrites: {} hoisted, {} dead-to, {} dead-from, {} update range(s) dropped",
            self.hoisted, self.dead_to, self.dead_from, self.updates_dropped
        )
    }
}

/// The optimizer's output: the rewritten program plus its report.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The rewritten program.
    pub ir: MapIr,
    /// Per-rule rewrite counts.
    pub report: OptReport,
}

/// Why the optimizer refused a program.
#[derive(Debug)]
pub enum OptError {
    /// An error-severity diagnostic under an admissible configuration:
    /// ill-formed programs are rejected, never rewritten.
    IllFormed {
        /// The configuration the error was found under.
        config: RuntimeConfig,
        /// The error-severity diagnostics.
        diagnostics: Vec<Diagnostic>,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::IllFormed {
                config,
                diagnostics,
            } => {
                write!(
                    f,
                    "refusing to optimize an ill-formed program: {} error(s) under {}",
                    diagnostics.len(),
                    config.label()
                )?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for OptError {}

/// Configurations a captured program can legally replay under: everything,
/// unless a kernel dereferences a raw host range outside every device-pool
/// allocation — then only the XNACK-enabled pair (elsewhere the access
/// faults fatally, which MC005 reports).
pub fn admissible_configs(ir: &MapIr) -> Vec<RuntimeConfig> {
    if has_unpooled_raw_access(ir) {
        vec![
            RuntimeConfig::UnifiedSharedMemory,
            RuntimeConfig::ImplicitZeroCopy,
        ]
    } else {
        RuntimeConfig::ALL.to_vec()
    }
}

/// Does any kernel dereference a raw host range not fully contained in a
/// device-pool allocation?
fn has_unpooled_raw_access(ir: &MapIr) -> bool {
    let pools: Vec<(u64, u64)> = ir
        .records
        .iter()
        .filter_map(|r| match &r.op {
            MapOp::PoolAlloc { range } => Some((range.start.as_u64(), range.end())),
            _ => None,
        })
        .collect();
    ir.records.iter().any(|r| match &r.op {
        MapOp::Kernel(k) => k.raw.iter().any(|raw| {
            let (lo, hi) = (raw.start.as_u64(), raw.end());
            !pools.iter().any(|&(plo, phi)| plo <= lo && hi <= phi)
        }),
        _ => false,
    })
}

/// Optimize a captured program.
///
/// Checks the program under every admissible configuration first and
/// refuses on any error-severity diagnostic; then applies the four rewrite
/// rules. It replays nothing: [`rank_configs`] ranks the configurations for
/// the callers that print a recommendation.
pub fn optimize(ir: &MapIr) -> Result<Optimized, OptError> {
    let configs = admissible_configs(ir);
    for &config in &configs {
        let errors: Vec<Diagnostic> = check(ir, config)
            .into_iter()
            .filter(|d| d.severity() == Severity::Error)
            .collect();
        if !errors.is_empty() {
            return Err(OptError::IllFormed {
                config,
                diagnostics: errors,
            });
        }
    }
    let mut out = ir.clone();
    let hoisted = hoist(&mut out);
    let dead_to = rewrite_planned(&mut out);
    let dead_from = rewrite_dead_from(&mut out);
    let updates_dropped = downgrade_updates(&mut out);
    Ok(Optimized {
        ir: out,
        report: OptReport {
            hoisted,
            dead_to,
            dead_from,
            updates_dropped,
        },
    })
}

/// Rank `configs` by replaying `ir` (normally an [`optimize`]d capture)
/// under each with the calibrated MI300A cost model: cheapest makespan
/// first, so the first entry is the recommendation.
pub fn rank_configs(ir: &MapIr, configs: &[RuntimeConfig]) -> Result<Vec<ConfigScore>, OmpError> {
    let mut scores = Vec::with_capacity(configs.len());
    for &config in configs {
        let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
            .config(config)
            .threads(replay_threads(ir))
            .build()?;
        replay(&mut rt, ir)?;
        let report = rt.finish();
        scores.push(ConfigScore {
            config,
            makespan: report.makespan,
            mm_total: report.ledger.mm_total(),
        });
    }
    scores.sort_by_key(|s| s.makespan);
    Ok(scores)
}

fn ranges_overlap(a: &AddrRange, b: &AddrRange) -> bool {
    a.start.as_u64() < b.end() && b.start.as_u64() < a.end()
}

// ---------------------------------------------------------------------------
// Rule 1: hoist per-iteration map pairs out of recognized loops.
// ---------------------------------------------------------------------------

/// One extent hoisted out of a loop region.
struct HoistSite {
    range: AddrRange,
    enter: MapEntry,
    exit: MapEntry,
}

/// Find `(window_len, repeats)` at `i`: the smallest window that repeats at
/// least twice and contains a kernel launch (a loop body, not a coincidence
/// of bookkeeping ops).
fn find_repeat(recs: &[MapRecord], i: usize) -> Option<(usize, usize)> {
    let n = recs.len();
    for l in 1..=((n - i) / 2).min(MAX_WINDOW) {
        if recs[i..i + l] != recs[i + l..i + 2 * l] {
            continue;
        }
        if !recs[i..i + l]
            .iter()
            .any(|r| matches!(r.op, MapOp::Kernel(_)))
        {
            continue;
        }
        let mut k = 2;
        while i + (k + 1) * l <= n && recs[i..i + l] == recs[i + k * l..i + (k + 1) * l] {
            k += 1;
        }
        return Some((l, k));
    }
    None
}

/// Every map entry of extent `e` inside the window, in order.
fn window_maps_of<'a>(win: &'a [MapRecord], e: &AddrRange) -> Vec<&'a MapEntry> {
    let mut v = Vec::new();
    for r in win {
        match &r.op {
            MapOp::MapEnter { entry } if entry.range == *e => v.push(entry),
            MapOp::MapExit { entry, .. } if entry.range == *e => v.push(entry),
            MapOp::Kernel(k) => v.extend(k.maps.iter().filter(|m| m.range == *e)),
            _ => {}
        }
    }
    v
}

/// Is extent `e` safe to hoist out of this window? See the module docs for
/// the conditions; everything here is conservative — a rejected candidate
/// only costs an optimization.
fn hoistable(win: &[MapRecord], e: &AddrRange, pres: &MapModel<()>) -> bool {
    // Absent (and not partially overlapped) at the loop boundary.
    if pres.presence(e) != Presence::Absent {
        return false;
    }
    let mut rc: i64 = 0;
    for r in win {
        match &r.op {
            MapOp::MapEnter { entry } => {
                if entry.range == *e {
                    if entry.always {
                        return false;
                    }
                    rc += 1;
                } else if ranges_overlap(&entry.range, e) {
                    return false;
                }
            }
            MapOp::MapExit { entry, delete } => {
                if entry.range == *e {
                    if entry.always || *delete || rc == 0 {
                        return false;
                    }
                    rc -= 1;
                } else if ranges_overlap(&entry.range, e) {
                    return false;
                }
            }
            MapOp::Kernel(k) => {
                // Kernel map pairs are balanced within the construct; only
                // exact, modifier-free entries of `e` are tolerated.
                let mut of_e = 0;
                for m in &k.maps {
                    if m.range == *e {
                        if m.always {
                            return false;
                        }
                        of_e += 1;
                    } else if ranges_overlap(&m.range, e) {
                        return false;
                    }
                }
                // Double maps of one extent in one construct interleave
                // refcounts in ways the pre-construct rule cannot see.
                if of_e > 1 {
                    return false;
                }
                if k.raw.iter().any(|r| ranges_overlap(r, e)) {
                    return false;
                }
            }
            // Host traffic into the extent pins the per-iteration copies.
            MapOp::HostRead { range } | MapOp::HostWrite { range } => {
                if ranges_overlap(range, e) {
                    return false;
                }
            }
            MapOp::Update { to, from } => {
                if to.iter().chain(from).any(|r| ranges_overlap(r, e)) {
                    return false;
                }
            }
            MapOp::HostAlloc { range } | MapOp::PoolAlloc { range } => {
                if ranges_overlap(range, e) {
                    return false;
                }
            }
            MapOp::HostFree { addr } | MapOp::PoolFree { addr } => {
                if e.contains(*addr) {
                    return false;
                }
            }
            MapOp::GlobalDecl { host, .. } => {
                if ranges_overlap(host, e) {
                    return false;
                }
            }
            MapOp::Taskwait => unreachable!("windows with taskwait are rejected up front"),
        }
    }
    // Transient within the window: the extent leaves the table at the
    // window boundary, so hoisting cannot change anything outside the loop.
    rc == 0
}

/// Hoist candidates for one repeated window, with their boundary dirs: the
/// hoisted enter transfers iff any window map transferred to the device,
/// the hoisted exit iff any transferred back.
fn hoist_candidates(win: &[MapRecord], pres: &MapModel<()>) -> Vec<HoistSite> {
    if win
        .iter()
        .any(|r| matches!(r.op, MapOp::Taskwait) || matches!(&r.op, MapOp::Kernel(k) if k.nowait))
    {
        return Vec::new();
    }
    let mut seen: BTreeMap<u64, AddrRange> = BTreeMap::new();
    for r in win {
        match &r.op {
            MapOp::MapEnter { entry } | MapOp::MapExit { entry, .. } => {
                seen.insert(entry.range.start.as_u64(), entry.range);
            }
            MapOp::Kernel(k) => {
                for m in &k.maps {
                    seen.insert(m.range.start.as_u64(), m.range);
                }
            }
            _ => {}
        }
    }
    let mut sites = Vec::new();
    for e in seen.values() {
        if !hoistable(win, e, pres) {
            continue;
        }
        let maps = window_maps_of(win, e);
        let to = maps.iter().any(|m| m.dir.copies_to());
        let from = maps.iter().any(|m| m.dir.copies_from());
        sites.push(HoistSite {
            range: *e,
            enter: MapEntry {
                range: *e,
                dir: if to { MapDir::To } else { MapDir::Alloc },
                always: false,
            },
            exit: MapEntry {
                range: *e,
                dir: if from { MapDir::From } else { MapDir::Alloc },
                always: false,
            },
        });
    }
    sites
}

/// Rewrite recognized loops: bracket each with one enter/exit data pair per
/// hoisted extent and delete the per-iteration maps — standalone
/// enter/exit pairs vanish, and kernel constructs shed their map entries of
/// hoisted extents (the bracketing pair holds the extent present, so the
/// per-iteration entries are pure bookkeeping whose re-map cost Eager Maps
/// would still charge). Net map-entry count strictly drops: ≥2 entries
/// leave, exactly 2 arrive.
fn hoist(ir: &mut MapIr) -> usize {
    // Interleaved multi-threaded captures have no stable window structure.
    if ir.records.iter().any(|r| r.thread != 0) {
        return 0;
    }
    let recs = std::mem::take(&mut ir.records);
    let n = recs.len();
    let mut out: Vec<MapRecord> = Vec::with_capacity(n);
    let mut pres = MapModel::new();
    let mut hoisted = 0;
    let mut i = 0;
    while i < n {
        if let Some((l, k)) = find_repeat(&recs, i) {
            let sites = hoist_candidates(&recs[i..i + l], &pres);
            if !sites.is_empty() {
                for s in &sites {
                    out.push(MapRecord {
                        thread: 0,
                        op: MapOp::MapEnter { entry: s.enter },
                    });
                }
                for rec in &recs[i..i + k * l] {
                    match &rec.op {
                        MapOp::MapEnter { entry } | MapOp::MapExit { entry, .. }
                            if sites.iter().any(|s| s.range == entry.range) => {}
                        MapOp::Kernel(kop)
                            if kop
                                .maps
                                .iter()
                                .any(|m| sites.iter().any(|s| s.range == m.range)) =>
                        {
                            let mut k2 = kop.clone();
                            k2.maps
                                .retain(|m| !sites.iter().any(|s| s.range == m.range));
                            out.push(MapRecord {
                                thread: rec.thread,
                                op: MapOp::Kernel(k2),
                            });
                        }
                        _ => out.push(rec.clone()),
                    }
                }
                for s in sites.iter().rev() {
                    out.push(MapRecord {
                        thread: 0,
                        op: MapOp::MapExit {
                            entry: s.exit,
                            delete: false,
                        },
                    });
                }
                hoisted += sites.len();
                for rec in &recs[i..i + k * l] {
                    track(&mut pres, rec.thread, &rec.op);
                }
                i += k * l;
                continue;
            }
        }
        track(&mut pres, recs[i].thread, &recs[i].op);
        out.push(recs[i].clone());
        i += 1;
    }
    ir.records = out;
    hoisted
}

// ---------------------------------------------------------------------------
// Rule 2: bake the elision plan into the program.
// ---------------------------------------------------------------------------

/// Downgrade every planned MC007 site to `alloc`: the static form of plan-
/// mode elision, with no runtime mode needed on replay.
fn rewrite_planned(ir: &mut MapIr) -> usize {
    let plan = elision_plan(ir);
    if plan.is_empty() {
        return 0;
    }
    let mut n = 0;
    for (idx, rec) in ir.records.iter_mut().enumerate() {
        match &mut rec.op {
            MapOp::MapEnter { entry } if plan.contains(idx as u64, 0) => {
                *entry = MapEntry::alloc(entry.range);
                n += 1;
            }
            MapOp::Kernel(k) => {
                for (m, e) in k.maps.iter_mut().enumerate() {
                    if plan.contains(idx as u64, m as u32) {
                        *e = MapEntry::alloc(e.range);
                        n += 1;
                    }
                }
            }
            _ => {}
        }
    }
    n
}

// ---------------------------------------------------------------------------
// Rule 3: delete from-copies whose host destination is never read again.
// ---------------------------------------------------------------------------

/// Does anything at `recs` read the host content of `r`? A later host read,
/// to-transfer (re-publishing host content to the device), `update to`, or
/// raw kernel access keeps the from-copy live.
fn host_read_later(recs: &[MapRecord], r: &AddrRange) -> bool {
    recs.iter().any(|rec| match &rec.op {
        MapOp::HostRead { range } => ranges_overlap(range, r),
        MapOp::MapEnter { entry } => entry.dir.copies_to() && ranges_overlap(&entry.range, r),
        MapOp::Kernel(k) => {
            k.maps
                .iter()
                .any(|e| e.dir.copies_to() && ranges_overlap(&e.range, r))
                || k.raw.iter().any(|x| ranges_overlap(x, r))
        }
        MapOp::Update { to, .. } => to.iter().any(|x| ranges_overlap(x, r)),
        _ => false,
    })
}

/// The direction left after deleting an entry's from-copy.
fn drop_from(e: &MapEntry) -> MapEntry {
    MapEntry {
        range: e.range,
        dir: match e.dir {
            MapDir::ToFrom => MapDir::To,
            _ => MapDir::Alloc,
        },
        // `always` only modified the deleted from-copy on these sites (the
        // enter side of an always-from map transfers nothing).
        always: e.always && e.dir == MapDir::ToFrom,
    }
}

/// Rewrite every map whose from-copy actually fires on replay — an `always`
/// map, a transient kernel map, or a disappearing/`always` exit — but whose
/// host destination is never read afterwards.
fn rewrite_dead_from(ir: &mut MapIr) -> usize {
    let mut t = MapModel::new();
    let mut n = 0;
    for j in 0..ir.records.len() {
        let (head, tail) = ir.records.split_at_mut(j + 1);
        let rec = &mut head[j];
        match &mut rec.op {
            MapOp::MapExit { entry, delete } => {
                let fires = entry.dir.copies_from()
                    && (entry.always
                        || *delete
                        || t.containing(&entry.range).is_some_and(|m| m.refcount == 1));
                if fires && !host_read_later(tail, &entry.range) {
                    *entry = drop_from(entry);
                    n += 1;
                }
            }
            MapOp::Kernel(k) if !k.nowait => {
                // Judged against the pre-construct table, like the checker:
                // a transient map's exit disappears (copy fires); a present
                // re-map's exit only copies under `always`.
                let fires: Vec<bool> = k
                    .maps
                    .iter()
                    .map(|e| {
                        e.dir.copies_from()
                            && (e.always || t.containing(&e.range).is_none())
                            && k.maps.iter().filter(|m| m.range == e.range).count() == 1
                    })
                    .collect();
                for (e, f) in k.maps.iter_mut().zip(fires) {
                    if f && !host_read_later(tail, &e.range) {
                        *e = drop_from(e);
                        n += 1;
                    }
                }
            }
            _ => {}
        }
        track(&mut t, rec.thread, &rec.op);
    }
    n
}

// ---------------------------------------------------------------------------
// Rule 4: drop update ranges whose version clocks already agree.
// ---------------------------------------------------------------------------

/// Drop `target update` ranges that transfer between already-agreeing
/// clocks; delete updates left with no ranges at all.
fn downgrade_updates(ir: &mut MapIr) -> usize {
    // The checker's interpreter in Copy mode carries the version clocks.
    let mut clocks = Interp::new(RuntimeConfig::LegacyCopy);
    let mut n = 0;
    for rec in &mut ir.records {
        if let MapOp::Update { to, from } = &mut rec.op {
            for ranges in [to, from] {
                ranges.retain(|r| {
                    let keep = !clocks.clocks_agree(r);
                    n += usize::from(!keep);
                    keep
                });
            }
        }
        clocks.step(rec.thread, &rec.op);
    }
    if n > 0 {
        ir.records.retain(
            |r| !matches!(&r.op, MapOp::Update { to, from } if to.is_empty() && from.is_empty()),
        );
    }
    n
}

// ---------------------------------------------------------------------------
// The equivalence contract, checked on replay.
// ---------------------------------------------------------------------------

/// One sanitized replay leg: the facts the contract compares.
#[derive(Debug, Clone)]
pub struct ReplayProbe {
    /// FNV digest of live memory after the full replay.
    pub digest: u64,
    /// Kernel launches.
    pub kernels: u64,
    /// Memory-management overhead total (Table III).
    pub mm_total: VirtDuration,
    /// Sanitizer findings.
    pub codes: Vec<DiagCode>,
    /// Error-severity findings among them.
    pub errors: usize,
}

/// Replay `ir` under `config` with the sanitizer on and collect the facts
/// the equivalence contract compares.
pub fn replay_probe(ir: &MapIr, config: RuntimeConfig) -> Result<ReplayProbe, OmpError> {
    let mut rt = OmpRuntime::builder(CostModel::mi300a_no_thp(), Topology::default())
        .config(config)
        .threads(replay_threads(ir))
        .sanitize(true)
        .build()?;
    replay(&mut rt, ir)?;
    let digest = rt.memory_digest();
    let ledger = *rt.ledger();
    let diags = rt.sanitizer_finalize();
    let errors = diags
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    let mut codes: Vec<DiagCode> = diags.iter().map(|d| d.code).collect();
    codes.sort();
    Ok(ReplayProbe {
        digest,
        kernels: ledger.kernels,
        mm_total: ledger.mm_total(),
        codes,
        errors,
    })
}

/// The verdict of one `(baseline, optimized, config)` equivalence check.
#[derive(Debug, Clone)]
pub struct Equivalence {
    /// Configuration replayed under.
    pub config: RuntimeConfig,
    /// Baseline facts (unoptimized replay).
    pub baseline: ReplayProbe,
    /// Optimized facts.
    pub optimized: ReplayProbe,
}

impl Equivalence {
    /// The load-bearing contract: bit-identical memory digest, identical
    /// kernel count, an error-free sanitizer report introducing no code the
    /// baseline lacks, and no added memory-management overhead.
    pub fn holds(&self) -> bool {
        self.baseline.digest == self.optimized.digest
            && self.baseline.kernels == self.optimized.kernels
            && self.optimized.errors == 0
            && self
                .optimized
                .codes
                .iter()
                .all(|c| self.baseline.codes.contains(c))
            && self.optimized.mm_total <= self.baseline.mm_total
    }

    /// Map-management time the optimization removed.
    pub fn mm_saved(&self) -> VirtDuration {
        // Saturating: a broken contract (optimized costs more) reads as a
        // zero saving rather than a panic in reporting paths.
        self.baseline
            .mm_total
            .saturating_sub(self.optimized.mm_total)
    }
}

/// Replay both programs under `config` and compare them under the contract.
pub fn verify_equivalence(
    baseline: &MapIr,
    optimized: &MapIr,
    config: RuntimeConfig,
) -> Result<Equivalence, OmpError> {
    Ok(Equivalence {
        config,
        baseline: replay_probe(baseline, config)?,
        optimized: replay_probe(optimized, config)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture_run;
    use omp_offload::TargetRegion;

    const KB4: u64 = 4096;

    fn kernel(name: &'static str) -> TargetRegion<'static> {
        TargetRegion::new(name, VirtDuration::from_micros(5))
    }

    fn assert_contract(original: &MapIr, opt: &Optimized) {
        assert_eq!(original.kernels(), opt.ir.kernels(), "kernel count");
        for config in admissible_configs(original) {
            let eq = verify_equivalence(original, &opt.ir, config).expect("replays succeed");
            assert!(
                eq.holds(),
                "{}: contract broken: {eq:?}\nreport: {}",
                config.label(),
                opt.report
            );
        }
    }

    /// A loop of per-iteration enter/exit pairs around a kernel: hoisted to
    /// one pair, and the kernel maps (now present re-maps) elided.
    fn loop_pairs(rt: &mut OmpRuntime) -> Result<(), OmpError> {
        let a = rt.host_alloc(0, KB4)?;
        let r = AddrRange::new(a, KB4);
        rt.host_write(0, r)?;
        for _ in 0..4 {
            rt.target_enter_data(0, &[MapEntry::to(r)])?;
            rt.target(0, kernel("iter").map(MapEntry::alloc(r)))?;
            rt.target_exit_data(0, &[MapEntry::from(r)], false)?;
        }
        rt.host_read(0, r);
        rt.host_free(0, a)
    }

    #[test]
    fn hoists_per_iteration_pairs_into_one() {
        let ir = capture_run(1, loop_pairs).unwrap();
        let opt = optimize(&ir).unwrap();
        assert_eq!(opt.report.hoisted, 1, "{}", opt.report);
        // 4 enters + 4 exits collapse to 1 + 1.
        let enters = |ir: &MapIr| {
            ir.records
                .iter()
                .filter(|r| matches!(r.op, MapOp::MapEnter { .. }))
                .count()
        };
        assert_eq!(enters(&ir), 4);
        assert_eq!(enters(&opt.ir), 1);
        assert_contract(&ir, &opt);
    }

    /// Per-iteration transient kernel maps: the tofrom re-map itself is the
    /// loop body. Hoisting brackets the loop; the final from-copy survives
    /// because the host reads the buffer afterwards.
    fn loop_kernel_maps(rt: &mut OmpRuntime) -> Result<(), OmpError> {
        let a = rt.host_alloc(0, KB4)?;
        let r = AddrRange::new(a, KB4);
        rt.host_write(0, r)?;
        for _ in 0..5 {
            rt.target(0, kernel("body").map(MapEntry::tofrom(r)))?;
        }
        rt.host_read(0, r);
        rt.host_free(0, a)
    }

    #[test]
    fn hoists_transient_kernel_maps_and_keeps_the_live_from() {
        let ir = capture_run(1, loop_kernel_maps).unwrap();
        let opt = optimize(&ir).unwrap();
        assert_eq!(opt.report.hoisted, 1, "{}", opt.report);
        // The loop's kernel map entries are deleted outright — the
        // bracketing pair holds the extent; nothing is left for dead-to.
        assert_eq!(opt.report.dead_to, 0, "{}", opt.report);
        assert_eq!(opt.report.dead_from, 0, "{}", opt.report);
        let kernel_maps: usize = opt
            .ir
            .records
            .iter()
            .filter_map(|r| match &r.op {
                MapOp::Kernel(k) => Some(k.maps.len()),
                _ => None,
            })
            .sum();
        assert_eq!(kernel_maps, 0, "hoisted kernel maps must be deleted");
        let last = opt.ir.records.iter().rev().find_map(|r| match &r.op {
            MapOp::MapExit { entry, .. } => Some(*entry),
            _ => None,
        });
        assert_eq!(last.unwrap().dir, MapDir::From);
        assert_contract(&ir, &opt);
    }

    /// An always-from reduction map re-read never: the per-iteration
    /// device-to-host copies are dead, as is the final from-exit.
    fn dead_from_copies(rt: &mut OmpRuntime) -> Result<(), OmpError> {
        let a = rt.host_alloc(0, KB4)?;
        let r = AddrRange::new(a, KB4);
        rt.host_write(0, r)?;
        rt.target_enter_data(0, &[MapEntry::to(r)])?;
        rt.target(0, kernel("reduce").map(MapEntry::from(r).always()))?;
        rt.target(0, kernel("reduce").map(MapEntry::from(r).always()))?;
        rt.target_exit_data(0, &[MapEntry::from(r)], false)?;
        rt.host_free(0, a)
    }

    #[test]
    fn deletes_dead_from_transfers() {
        let ir = capture_run(1, dead_from_copies).unwrap();
        let opt = optimize(&ir).unwrap();
        assert_eq!(opt.report.dead_from, 3, "{}", opt.report);
        let copy_base = replay_probe(&ir, RuntimeConfig::LegacyCopy).unwrap();
        let copy_opt = replay_probe(&opt.ir, RuntimeConfig::LegacyCopy).unwrap();
        assert!(
            copy_opt.mm_total < copy_base.mm_total,
            "dead from-copies must cut mm_total: {copy_opt:?} vs {copy_base:?}"
        );
        assert_contract(&ir, &opt);
    }

    /// A host read pins the from-copy: nothing to delete.
    fn live_from_copy(rt: &mut OmpRuntime) -> Result<(), OmpError> {
        let a = rt.host_alloc(0, KB4)?;
        let r = AddrRange::new(a, KB4);
        rt.host_write(0, r)?;
        rt.target_enter_data(0, &[MapEntry::to(r)])?;
        rt.target(0, kernel("produce").map(MapEntry::from(r).always()))?;
        rt.target_exit_data(0, &[MapEntry::from(r)], false)?;
        rt.host_read(0, r);
        rt.host_free(0, a)
    }

    #[test]
    fn keeps_from_transfers_the_host_reads() {
        let ir = capture_run(1, live_from_copy).unwrap();
        let opt = optimize(&ir).unwrap();
        assert_eq!(opt.report.dead_from, 0, "{}", opt.report);
        assert_contract(&ir, &opt);
    }

    /// `update to` right after the to-transfer, with no host write between:
    /// the clocks agree, the update transfers nothing, the op disappears.
    fn redundant_update(rt: &mut OmpRuntime) -> Result<(), OmpError> {
        let a = rt.host_alloc(0, KB4)?;
        let r = AddrRange::new(a, KB4);
        rt.host_write(0, r)?;
        rt.target_enter_data(0, &[MapEntry::to(r)])?;
        rt.target_update(0, &[r], &[])?;
        rt.host_write(0, r)?;
        rt.target_update(0, &[r], &[])?; // live: republishes the new write
        rt.target(0, kernel("consume").map(MapEntry::alloc(r)))?;
        rt.target_exit_data(0, &[MapEntry::alloc(r)], false)?;
        rt.host_free(0, a)
    }

    #[test]
    fn drops_redundant_update_ranges_only() {
        let ir = capture_run(1, redundant_update).unwrap();
        let opt = optimize(&ir).unwrap();
        assert_eq!(opt.report.updates_dropped, 1, "{}", opt.report);
        let updates = |ir: &MapIr| {
            ir.records
                .iter()
                .filter(|r| matches!(r.op, MapOp::Update { .. }))
                .count()
        };
        assert_eq!(updates(&ir), 2);
        assert_eq!(updates(&opt.ir), 1);
        assert_contract(&ir, &opt);
    }

    #[test]
    fn refuses_ill_formed_programs() {
        for p in crate::corpus::all() {
            let ir = capture_run(1, |rt| (p.run)(rt)).expect("capture never faults");
            match optimize(&ir) {
                Err(OptError::IllFormed { diagnostics, .. }) => {
                    assert!(!diagnostics.is_empty(), "{}", p.name);
                }
                other => match p.code {
                    // MC007 is a warning, not an error: the redundant-remap
                    // program is accepted and rewritten.
                    DiagCode::Mc007 => {
                        let opt = other.expect("MC007 program optimizes");
                        assert_eq!(opt.report.dead_to, 1);
                        assert_contract(&ir, &opt);
                    }
                    // MC005's hazard only exists under XNACK-off
                    // configurations, which are not admissible for a raw-
                    // access program: it is accepted and left untouched.
                    DiagCode::Mc005 => {
                        let opt = other.expect("raw-access program optimizes");
                        assert_eq!(opt.report.rewrites(), 0);
                        assert_contract(&ir, &opt);
                    }
                    _ => panic!("{} must be refused, got {other:?}", p.name),
                },
            }
        }
    }

    #[test]
    fn ranks_every_admissible_config_and_recommends_the_cheapest() {
        let ir = capture_run(1, loop_pairs).unwrap();
        let opt = optimize(&ir).unwrap();
        let ranking = rank_configs(&opt.ir, &admissible_configs(&ir)).unwrap();
        assert_eq!(ranking.len(), RuntimeConfig::ALL.len());
        assert!(ranking.windows(2).all(|w| w[0].makespan <= w[1].makespan));
    }

    #[test]
    fn optimized_programs_round_trip_through_text() {
        type Program = fn(&mut OmpRuntime) -> Result<(), OmpError>;
        let programs: [Program; 3] = [loop_pairs, loop_kernel_maps, dead_from_copies];
        for program in programs {
            let ir = capture_run(1, program).unwrap();
            let opt = optimize(&ir).unwrap();
            let text = opt.ir.to_text();
            let parsed = MapIr::parse(&text).expect("optimizer output parses");
            assert_eq!(parsed, opt.ir, "parse(to_text(ir)) == ir");
            assert_eq!(parsed.to_text(), text, "byte-identical re-serialization");
        }
    }
}

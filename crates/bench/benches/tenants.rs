//! Multi-tenant runtime scaling: the smoke corpus replayed with 8
//! concurrent tenants per cell, driven through `run_sweep` at `-j 1`,
//! `-j 4` and `-j 8`. The metric is *maps per second* — mapping-table
//! operations retired per wall-clock second across every tenant — because
//! the shared mapping table is exactly the structure the tenants contend on.
//! Writes `BENCH_tenants.json` for CI to archive.
//!
//! Two identities are asserted alongside the timing, so the speedup can
//! never be bought with divergence:
//!
//! * every job count produces byte-identical result sets (the flattened
//!   (cell, tenant) schedule is order-free), and
//! * tenant 0 of every multi-tenant cell reports the same memory digest,
//!   makespan and map count as the classic single-tenant run of the same
//!   request (co-tenancy is observationally free).
//!
//! As with the sweep-throughput bench, the parallel speedup is bounded by
//! the host: `available_parallelism` is recorded so a reader can judge the
//! ratios in context (on a single-core runner they are honestly ~1.0).

use omp_batch::{run_sweep, smoke_corpus, CacheMode, SweepRequest, SweepResult};
use std::time::Instant;

const TENANTS: u32 = 8;

struct Pass {
    seconds: f64,
    maps_per_sec: f64,
    results: Vec<SweepResult>,
}

fn total_maps(results: &[SweepResult]) -> u64 {
    results
        .iter()
        .map(|r| {
            if r.tenant_rows.is_empty() {
                r.ledger.maps
            } else {
                r.tenant_rows.iter().map(|t| t.maps).sum()
            }
        })
        .sum()
}

/// One uncached pass at `jobs`, timed. With the cache off every tenant of
/// every cell really simulates.
fn pass(corpus: &[SweepRequest], jobs: usize) -> Pass {
    let t0 = Instant::now();
    let outcome = run_sweep(corpus, jobs, &CacheMode::Off).expect("sweep");
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(
        outcome.stats.simulated,
        corpus.len() as u64,
        "uncached pass must simulate every cell"
    );
    Pass {
        seconds,
        maps_per_sec: total_maps(&outcome.results) as f64 / seconds.max(1e-9),
        results: outcome.results,
    }
}

/// Best-of-`n` passes at `jobs`; all passes must agree byte-for-byte.
fn best(corpus: &[SweepRequest], jobs: usize, n: usize) -> Pass {
    (0..n)
        .map(|_| pass(corpus, jobs))
        .reduce(|a, b| {
            assert_eq!(a.results, b.results, "-j {jobs} passes diverged");
            if a.seconds <= b.seconds {
                a
            } else {
                b
            }
        })
        .expect("at least one pass")
}

fn main() {
    let solo_corpus = smoke_corpus();
    let corpus: Vec<SweepRequest> = solo_corpus
        .iter()
        .map(|r| SweepRequest {
            tenants: TENANTS,
            ..r.clone()
        })
        .collect();
    let cells = corpus.len();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let j1 = best(&corpus, 1, 2);
    let j4 = best(&corpus, 4, 2);
    let j8 = best(&corpus, 8, 2);
    assert_eq!(j1.results, j4.results, "-j 4 diverged from -j 1");
    assert_eq!(j1.results, j8.results, "-j 8 diverged from -j 1");

    // Single-tenant bit-identity: tenant 0 of every cell matches the
    // classic run of the same request.
    let solo = run_sweep(&solo_corpus, 1, &CacheMode::Off).expect("solo sweep");
    for (multi, alone) in j1.results.iter().zip(&solo.results) {
        let row0 = &multi.tenant_rows[0];
        assert_eq!(row0.memory_digest, alone.memory_digest);
        assert_eq!(row0.makespan, alone.makespan);
        assert_eq!(row0.maps, alone.ledger.maps);
    }

    let maps = total_maps(&j1.results);
    assert!(maps > 0, "corpus must exercise the mapping table");
    let speedup_j4 = j1.seconds / j4.seconds.max(1e-9);
    let speedup_j8 = j1.seconds / j8.seconds.max(1e-9);

    let json = format!(
        "{{\n  \"cells\": {cells},\n  \"tenants_per_cell\": {TENANTS},\n  \
         \"total_maps\": {maps},\n  \"available_parallelism\": {cores},\n  \
         \"j1\": {{\"seconds\": {:.6}, \"maps_per_sec\": {:.1}}},\n  \
         \"j4\": {{\"seconds\": {:.6}, \"maps_per_sec\": {:.1}}},\n  \
         \"j8\": {{\"seconds\": {:.6}, \"maps_per_sec\": {:.1}}},\n  \
         \"speedup_j4_vs_j1\": {:.3},\n  \"speedup_j8_vs_j1\": {:.3}\n}}\n",
        j1.seconds,
        j1.maps_per_sec,
        j4.seconds,
        j4.maps_per_sec,
        j8.seconds,
        j8.maps_per_sec,
        speedup_j4,
        speedup_j8,
    );
    std::fs::write("BENCH_tenants.json", &json).expect("write BENCH_tenants.json");
    println!(
        "tenants: {cells} cells x {TENANTS} tenants, {maps} maps | \
         -j1 {:.0} maps/s | -j4 {:.0} maps/s ({speedup_j4:.2}x) | \
         -j8 {:.0} maps/s ({speedup_j8:.2}x) | {cores} core(s)",
        j1.maps_per_sec, j4.maps_per_sec, j8.maps_per_sec,
    );
    println!("wrote BENCH_tenants.json");
}

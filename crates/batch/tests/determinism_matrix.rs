//! The sweep determinism matrix — the load-bearing contract of the batch
//! subsystem, pinned byte-for-byte.
//!
//! One corpus (the CI smoke corpus) is swept at `-j 1`, `-j 4`, and `-j 8`,
//! each first against a cold cache and then against the warmed one, plus a
//! serial cache-off baseline. Every variant must produce *byte-identical*
//! outputs — serialized per-cell results, memory digests, and the rendered
//! report — and the cache counters must be exact: a cold sweep simulates
//! every cell and hits nothing, a warm sweep hits every cell and simulates
//! nothing. CI runs this test on every push (see `.github/workflows/`).

use omp_batch::{render_report, run_sweep, smoke_corpus, CacheMode, SweepRequest};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "apusim-determinism-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Serialize a whole sweep to one byte string: every per-cell result in
/// corpus order plus the rendered report. Two sweeps are byte-identical
/// exactly when these strings are equal.
fn sweep_bytes(corpus: &[SweepRequest], results: &[omp_batch::SweepResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.to_text());
        out.push('\n');
    }
    out.push_str(&render_report(corpus, results));
    out
}

#[test]
fn sweep_is_byte_identical_across_jobs_and_cache_states() {
    let corpus = smoke_corpus();
    let n = corpus.len() as u64;
    assert!(n >= 4, "smoke corpus is non-trivial");

    // The reference: serial, cache off.
    let baseline = run_sweep(&corpus, 1, &CacheMode::Off).expect("serial uncached sweep");
    assert_eq!(baseline.stats.simulated, n);
    assert_eq!(baseline.stats.hits, 0);
    let expected = sweep_bytes(&corpus, &baseline.results);

    for jobs in [1usize, 4, 8] {
        let dir = scratch_dir(&format!("j{jobs}"));
        let cache = CacheMode::Dir(dir.clone());

        // Cold: every cell simulates, nothing hits.
        let cold = run_sweep(&corpus, jobs, &cache).expect("cold sweep");
        assert_eq!(cold.stats.simulated, n, "-j {jobs} cold simulated count");
        assert_eq!(cold.stats.hits, 0, "-j {jobs} cold hit count");
        assert_eq!(
            sweep_bytes(&corpus, &cold.results),
            expected,
            "-j {jobs} cold output diverged from serial uncached"
        );

        // Warm: every cell hits, nothing simulates — and the bytes still
        // match, so a cache recall is indistinguishable from a simulation.
        let warm = run_sweep(&corpus, jobs, &cache).expect("warm sweep");
        assert_eq!(warm.stats.hits, n, "-j {jobs} warm hit count");
        assert_eq!(warm.stats.simulated, 0, "-j {jobs} warm simulated count");
        assert_eq!(warm.stats.hit_rate(), 1.0, "-j {jobs} warm hit rate");
        assert_eq!(
            sweep_bytes(&corpus, &warm.results),
            expected,
            "-j {jobs} warm output diverged from serial uncached"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn schedule_metrics_never_touch_sweep_bytes() {
    // The pool's scheduling counters (own-pops, steals, queue depths) are
    // schedule-class: their *shape* changes with `-j N`, yet every byte of
    // every result and report stays pinned to the serial baseline. This is
    // the metrics half of the determinism contract: observability rides
    // the stats channel, never the results.
    let corpus = smoke_corpus();
    let n = corpus.len() as u64;
    let baseline = run_sweep(&corpus, 1, &CacheMode::Off).expect("serial baseline");
    let expected = sweep_bytes(&corpus, &baseline.results);
    for jobs in [1usize, 4, 8] {
        let out = run_sweep(&corpus, jobs, &CacheMode::Off).expect("sweep");
        // The stats channel reflects the actual schedule shape...
        let workers = if jobs <= 1 { 1 } else { jobs.min(corpus.len()) };
        assert_eq!(out.pool.workers.len(), workers, "-j {jobs} worker count");
        assert_eq!(out.pool.tasks(), n, "-j {jobs} accounts every cell");
        // ...while the result bytes never move.
        assert_eq!(
            sweep_bytes(&corpus, &out.results),
            expected,
            "-j {jobs} schedule leaked into result bytes"
        );
    }
}

#[test]
fn caches_are_shareable_across_job_counts() {
    // A cache warmed at one job count answers a sweep at another: the
    // content address depends on the request alone, never on the schedule.
    let corpus = smoke_corpus();
    let n = corpus.len() as u64;
    let dir = scratch_dir("cross");
    let cache = CacheMode::Dir(dir.clone());

    let cold = run_sweep(&corpus, 4, &cache).expect("cold at -j 4");
    assert_eq!(cold.stats.simulated, n);
    let warm = run_sweep(&corpus, 1, &cache).expect("warm at -j 1");
    assert_eq!(warm.stats.hits, n);
    assert_eq!(warm.stats.simulated, 0);
    assert_eq!(cold.results, warm.results);

    let _ = std::fs::remove_dir_all(&dir);
}

//! Hand-rolled work-stealing parallel map with deterministic output order.
//!
//! [`drive`] runs `f(0..n)` across `jobs` workers. Each worker owns a deque
//! seeded round-robin from the injection order; it pops its own work from
//! the back (LIFO, cache-warm) and, when empty, steals from the *front* of
//! the currently most-loaded victim (FIFO, grabbing the work that victim
//! will touch last). Results carry their injection index and are re-sorted
//! after the join, so output order — and therefore every byte of every
//! downstream report — is independent of worker count and steal schedule.
//! That is the scheduling half of the sweep determinism contract; the other
//! half (cell independence) is each simulation owning its runtime.
//!
//! [`drive_stats`] additionally returns per-worker scheduling counters
//! ([`DriveStats`]): own-pops, steals, steal failures, and each worker's
//! seeded queue-depth high-water mark. These are schedule-dependent —
//! which worker stole what depends on wall-clock timing — so they travel
//! on the stats channel only and never into result bytes.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One worker's scheduling counters for a [`drive_stats`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks popped from the worker's own deque (LIFO fast path).
    pub own_pops: u64,
    /// Tasks stolen from another worker's deque.
    pub steals: u64,
    /// Steal attempts that lost the race to another thief (the victim's
    /// deque was drained between the scan and the pop).
    pub steal_failures: u64,
    /// High-water mark of the worker's own queue depth. Deques are
    /// seeded once and only shrink, so this is the seeded share.
    pub queue_depth_hwm: u64,
}

/// Scheduling counters of one [`drive_stats`] run: one entry per worker
/// (a single entry with `own_pops == n` for the serial path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Per-worker counters in worker-index order.
    pub workers: Vec<WorkerStats>,
}

impl DriveStats {
    /// The serial-path stats: one pseudo-worker that popped everything.
    fn serial(n: usize) -> Self {
        DriveStats {
            workers: vec![WorkerStats {
                own_pops: n as u64,
                queue_depth_hwm: n as u64,
                ..WorkerStats::default()
            }],
        }
    }

    /// Total tasks executed (own pops + steals).
    pub fn tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.own_pops + w.steals).sum()
    }

    /// Total successful steals across workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total failed steal attempts across workers.
    pub fn steal_failures(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_failures).sum()
    }

    /// Largest seeded queue depth across workers.
    pub fn queue_depth_hwm(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.queue_depth_hwm)
            .max()
            .unwrap_or(0)
    }

    /// Fold `other`'s workers into this one index-by-index (for
    /// accumulating many drives into one pool-level view).
    pub fn absorb(&mut self, other: &DriveStats) {
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerStats::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.own_pops += theirs.own_pops;
            mine.steals += theirs.steals;
            mine.steal_failures += theirs.steal_failures;
            mine.queue_depth_hwm = mine.queue_depth_hwm.max(theirs.queue_depth_hwm);
        }
    }
}

/// The worker count of every `--jobs N` surface: `0` is one per available core.
pub fn resolve_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Run `f` over `0..n` with `jobs` workers and return the results in index
/// order. `jobs <= 1` (or `n <= 1`) runs serially on the caller's thread
/// with no queues, locks, or spawns — the baseline the determinism matrix
/// compares every parallel schedule against.
pub fn drive<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    drive_stats(n, jobs, f).0
}

/// [`drive`], also returning the run's scheduling counters. The result
/// vector is byte-for-byte what `drive` returns; only the stats side
/// channel differs run to run.
pub fn drive_stats<T, F>(n: usize, jobs: usize, f: F) -> (Vec<T>, DriveStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return ((0..n).map(f).collect(), DriveStats::serial(n));
    }
    let workers = jobs.min(n);
    // Per-worker deques, seeded round-robin so every worker starts with a
    // near-equal share regardless of how uneven the cells turn out.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();
    // Read before any worker starts: a thief may drain a deque whose owner
    // has not run yet.
    let seeded: Vec<u64> = deques
        .iter()
        .map(|d| d.lock().expect("deque poisoned").len() as u64)
        .collect();

    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut stats = DriveStats {
        workers: vec![WorkerStats::default(); workers],
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let deques = &deques;
                let f = &f;
                let queue_depth_hwm = seeded[me];
                scope.spawn(move || {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    let mut ws = WorkerStats {
                        queue_depth_hwm,
                        ..WorkerStats::default()
                    };
                    loop {
                        // Own work first, newest-first.
                        let own = deques[me].lock().expect("deque poisoned").pop_back();
                        if let Some(i) = own {
                            ws.own_pops += 1;
                            out.push((i, f(i)));
                            continue;
                        }
                        // Steal oldest-first from the most-loaded victim.
                        // Jobs only leave deques when a worker takes them,
                        // so one full empty scan proves global exhaustion.
                        let victim = (0..workers)
                            .filter(|&v| v != me)
                            .map(|v| (deques[v].lock().expect("deque poisoned").len(), v))
                            .max()
                            .filter(|&(len, _)| len > 0)
                            .map(|(_, v)| v);
                        match victim {
                            Some(v) => {
                                let stolen = deques[v].lock().expect("deque poisoned").pop_front();
                                match stolen {
                                    Some(i) => {
                                        ws.steals += 1;
                                        out.push((i, f(i)));
                                    }
                                    // Lost the race to another thief: rescan.
                                    None => ws.steal_failures += 1,
                                }
                            }
                            None => break,
                        }
                    }
                    (out, ws)
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            let (out, ws) = h.join().expect("sweep worker panicked");
            tagged.extend(out);
            stats.workers[w] = ws;
        }
    });

    tagged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    (tagged.into_iter().map(|(_, t)| t).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_zero_is_one_worker_per_core_and_counts_pass_through() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_jobs(0), cores);
        for jobs in [1, 2, 3, 64] {
            assert_eq!(resolve_jobs(jobs), jobs);
        }
    }

    #[test]
    fn serial_path_preserves_order() {
        assert_eq!(drive(5, 1, |i| i * 10), vec![0, 10, 20, 30, 40]);
        assert_eq!(drive(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(drive(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn parallel_output_matches_serial_for_any_worker_count() {
        let serial = drive(97, 1, |i| i * i + 3);
        for jobs in [2, 3, 4, 8, 97, 200] {
            assert_eq!(drive(97, jobs, |i| i * i + 3), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        const N: usize = 64;
        let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        drive(N, 4, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn uneven_cells_still_complete_and_order() {
        // Make worker 0's seeded share much heavier so others must steal.
        let out = drive(32, 4, |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn stats_account_for_every_task_without_touching_results() {
        let (serial, s0) = drive_stats(10, 1, |i| i);
        assert_eq!(serial, (0..10).collect::<Vec<_>>());
        assert_eq!(s0.workers.len(), 1);
        assert_eq!(s0.tasks(), 10);
        assert_eq!(s0.steals(), 0);
        assert_eq!(s0.queue_depth_hwm(), 10);

        let (out, s) = drive_stats(33, 4, |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i * 2
        });
        assert_eq!(out, (0..33).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(s.workers.len(), 4);
        // Every task is either an own pop or a steal, exactly once.
        assert_eq!(s.tasks(), 33);
        // Worker 0's seeded share of 33 tasks over 4 workers is 9.
        assert_eq!(s.workers[0].queue_depth_hwm, 9);
        assert_eq!(s.queue_depth_hwm(), 9);
    }

    #[test]
    fn absorb_folds_worker_counters() {
        let mut total = DriveStats::default();
        let (_, a) = drive_stats(8, 2, |i| i);
        let (_, b) = drive_stats(12, 4, |i| i);
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.workers.len(), 4);
        assert_eq!(total.tasks(), 20);
        assert_eq!(
            total.queue_depth_hwm(),
            a.queue_depth_hwm().max(b.queue_depth_hwm())
        );
    }
}

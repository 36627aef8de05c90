//! Load generators. A closed loop sends its next request when the last
//! one answered (callers that wait for replies); an open loop sends on a
//! fixed schedule whatever happens (independent users), so a stall shows
//! up as waiting in every request due behind it.

use crate::rng::Rng;
use std::time::{Duration, Instant};

/// Latencies kept per loop. Beyond this a loop keeps a uniform random
/// sample (Algorithm R), so its memory — and the process's peak RSS —
/// does not grow with the request rate it achieves.
pub const SAMPLE_CAP: usize = 20_000;

/// A uniform random sample of at most [`SAMPLE_CAP`] values.
#[derive(Debug)]
pub struct Reservoir {
    /// The sampled values.
    pub values: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    /// An empty sample whose replacement choices are drawn from `rng`.
    pub fn new(rng: Rng) -> Reservoir {
        Reservoir {
            values: Vec::with_capacity(SAMPLE_CAP),
            seen: 0,
            rng,
        }
    }

    /// Offer one value.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < SAMPLE_CAP {
            self.values.push(v);
        } else {
            let j = self.rng.below(self.seen as usize);
            if j < SAMPLE_CAP {
                self.values[j] = v;
            }
        }
    }
}

/// What a loop saw.
#[derive(Debug)]
pub struct Tally {
    /// Latencies (ms) of successful requests, sampled.
    pub ms: Reservoir,
    /// Open loop only: how late each request was sent, in ms, sampled.
    pub late_ms: Reservoir,
    /// Requests that succeeded.
    pub ok: u64,
    /// Requests that failed or were answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// An empty tally sampling with `rng`.
    pub fn new(rng: Rng) -> Tally {
        let mut late = rng.clone();
        late.next_u64();
        Tally {
            ms: Reservoir::new(rng),
            late_ms: Reservoir::new(late),
            ok: 0,
            failed: 0,
        }
    }

    /// Fold another loop's tally into this one. Each loop's sample stays
    /// as drawn, so loops count equally in the percentiles (the loops of
    /// one workload are symmetric).
    pub fn absorb(&mut self, other: Tally) {
        self.ms.values.extend(other.ms.values);
        self.late_ms.values.extend(other.late_ms.values);
        self.ok += other.ok;
        self.failed += other.failed;
    }

    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    fn record(&mut self, ok: bool, latency: Duration) {
        if ok {
            self.ok += 1;
            self.ms.push(ms(latency));
        } else {
            self.failed += 1;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Issue `send(i)` back to back until `until`; `send` reports success.
pub fn closed_loop(tally: &mut Tally, until: Instant, mut send: impl FnMut(u64) -> bool) {
    let mut i = 0;
    while Instant::now() < until {
        let t0 = Instant::now();
        let ok = send(i);
        tally.record(ok, t0.elapsed());
        i += 1;
    }
}

/// Issue `send(i)` at `start + i·interval` for every due time inside
/// `window`. Latency runs from the due time, so it includes any wait
/// behind a slow predecessor; `late_ms` records that wait on its own.
pub fn open_loop(
    tally: &mut Tally,
    start: Instant,
    interval: Duration,
    window: Duration,
    mut send: impl FnMut(u64) -> bool,
) {
    let mut i: u32 = 0;
    loop {
        let offset = interval * i;
        if offset >= window {
            return;
        }
        let due = start + offset;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        tally
            .late_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        let ok = send(u64::from(i));
        tally.record(ok, due.elapsed());
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Stream;

    fn tally() -> Tally {
        Tally::new(Rng::new(0, Stream::Sample(0)))
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_records_lateness() {
        let start = Instant::now();
        let mut t = tally();
        open_loop(
            &mut t,
            start,
            Duration::from_millis(10),
            Duration::from_millis(60),
            |i| {
                // The first request stalls for three intervals.
                std::thread::sleep(Duration::from_millis(if i == 0 { 35 } else { 1 }));
                i != 5
            },
        );
        assert_eq!((t.attempted(), t.failed), (6, 1));
        let (late, lat) = (&t.late_ms.values, &t.ms.values);
        assert_eq!(late.len(), 6);
        // Requests due at 10, 20 and 30 ms wait for the stall to end at 35.
        assert!(late[1] >= 20.0, "{late:?}");
        assert!(late[3] < late[1]);
        // Latency from the due time covers the wait plus the service.
        assert!(lat[0] >= 35.0);
        assert!(lat[1] >= late[1] + 1.0);
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn closed_loop_runs_until_the_deadline() {
        let until = Instant::now() + Duration::from_millis(30);
        let mut t = tally();
        closed_loop(&mut t, until, |i| {
            std::thread::sleep(Duration::from_millis(2));
            i % 4 != 3
        });
        assert!(Instant::now() >= until);
        assert!(t.attempted() >= 5 && t.failed >= 1);
        assert_eq!(t.ms.values.len() as u64, t.ok);
        assert!(t.ms.values.iter().all(|&m| m >= 2.0));
        assert!(t.late_ms.values.is_empty());
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(Rng::new(9, Stream::Sample(0)));
        let n = 10 * SAMPLE_CAP;
        for i in 0..n {
            r.push(i as f64);
        }
        assert_eq!(r.values.len(), SAMPLE_CAP);
        assert_eq!(r.values.capacity(), SAMPLE_CAP);
        // A uniform sample of 0..n has its median near n/2.
        let median = crate::stats::percentile(&r.values, 0.5).unwrap();
        assert!((median / n as f64 - 0.5).abs() < 0.02, "{median}");
    }
}

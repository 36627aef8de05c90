//! The four workloads: set-up, the measured window, output checks, and
//! the metrics each run reports.

use crate::cells::{self, Counts, Virtual};
use crate::loadgen::{closed_loop, open_loop, Tally};
use crate::probe::{self, Probe};
use crate::report::{metric, Metric, Outcome};
use crate::rng::{Rng, Stream, Zipf};
use crate::serve::{ok_body, Scrape, Served};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{self, Span, SpanBuf};
use omp_batch::{
    full_corpus, smoke_corpus, Client, ElideKind, Response, SweepRequest, SweepResult,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Zipf exponent of warm-cell popularity.
const ZIPF_S: f64 = 1.1;
/// Open-loop writers of `serve-cold`, and the interval each keeps between
/// its cold cells: together 4.4 cells/s, about a third of two cores, so
/// one writer's cells rarely queue behind each other.
const COLD_WRITERS: u32 = 2;
const COLD_INTERVAL: Duration = Duration::from_millis(450);
/// Cold cells of `serve-cold` replayed offline, decomposed, when traced.
const COLD_DECOMPOSED: usize = 20;
/// Set-up repeats at least this often, and until it has taken this long
/// (a sub-millisecond corpus capture then runs often enough for its median
/// to settle), but no more than the cap.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_S: f64 = 0.25;
const SETUP_MAX_REPEATS: usize = 5_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full corpus, cache off: the simulation-bound sweep.
    SweepCold,
    /// Smoke corpus × 8 tenants, online elision, telemetry ring.
    SweepTenants,
    /// Open-loop cold cells through the server.
    ServeCold,
    /// Closed-loop cache hits through the server.
    ServeWarm,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepCold,
        Workload::SweepTenants,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::SweepTenants => "sweep-tenants",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCold => "serve-cold",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run parameters.
#[derive(Debug)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Decompose into spans and report per-layer metrics.
    pub traced: bool,
    /// Sweep and server workers (the host's parallelism).
    pub jobs: usize,
}

/// A finished run: its outcome and, when traced, its spans.
pub struct Run {
    /// Checks, counts and metrics.
    pub outcome: Outcome,
    /// Every recorded span (empty when untraced).
    pub spans: Vec<Span>,
}

/// Run workload `w` with scratch files under `work`.
pub fn run(w: Workload, o: &Opts, work: &Path) -> Result<Run, String> {
    match w {
        Workload::SweepCold | Workload::SweepTenants => sweep(w, o, work),
        Workload::ServeWarm | Workload::ServeCold => serve(w, o, work),
    }
}

/// Set up [`SETUP_REPEATS`] times or more, tearing down all but the last,
/// and return it with every set-up's duration in seconds.
fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let v = setup(times.len())?;
        times.push(t.elapsed().as_secs_f64());
        let total: f64 = times.iter().sum();
        if times.len() >= SETUP_REPEATS
            && (total >= SETUP_MIN_S || times.len() >= SETUP_MAX_REPEATS)
        {
            return Ok((v, times));
        }
        teardown(v);
    }
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn end_to_end(
    setup: &[f64],
    rates: &[f64],
    rate_n: usize,
    op_ms: &[f64],
) -> Result<Vec<Metric>, String> {
    Ok(vec![
        metric("setup_s", median(setup), setup.len()),
        metric("ops_per_s", median(rates), rate_n),
        metric("op_ms_p50", percentile(op_ms, 0.5)?, op_ms.len()),
        metric("op_ms_p90", percentile(op_ms, 0.9)?, op_ms.len()),
        metric("peak_rss_mb", peak_rss_mb()?, 1),
    ])
}

fn extra(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

fn sweep(w: Workload, o: &Opts, work: &Path) -> Result<Run, String> {
    let (build, pin_fnv, pin_virtual): (fn() -> Vec<SweepRequest>, u64, Virtual) = match w {
        Workload::SweepCold => (
            cells::sweep_cold_corpus,
            cells::SWEEP_COLD_FNV,
            cells::SWEEP_COLD_VIRTUAL,
        ),
        _ => (
            cells::sweep_tenants_corpus,
            cells::SWEEP_TENANTS_FNV,
            cells::SWEEP_TENANTS_VIRTUAL,
        ),
    };
    let (mut corpus, mut setup) = repeat_setup(|_| Ok(build()), drop)?;
    Rng::new(o.seed, Stream::CorpusOrder).shuffle(&mut corpus);

    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let mut spans = Vec::new();
    let mut counts = Counts::default();
    let epoch = Instant::now();
    loop {
        let pass = if o.traced {
            let base = (passes.len() * corpus.len()) as u64;
            let tp = cells::traced_pass(&corpus, o.jobs, epoch, base).map_err(|e| e.to_string())?;
            spans.extend(tp.spans);
            counts.add(&tp.counts);
            tp.pass
        } else {
            cells::plain_pass(&corpus, o.jobs).map_err(|e| e.to_string())?
        };
        let fnv = cells::cells_fnv(&corpus, &pass.results);
        let virt = cells::virtual_totals(&pass.results);
        let n = corpus.len() as u64;
        out.tally(
            n,
            if fnv == pin_fnv && virt == pin_virtual {
                0
            } else {
                n
            },
        );
        if passes.is_empty() {
            out.notes.push(("cells_fnv", format!("{fnv:016x}")));
            for (name, ns) in [
                ("virtual_ms", virt.total_ns),
                ("virtual_mm_ms", virt.mm_ns),
                ("virtual_mi_ms", virt.mi_ns),
            ] {
                out.extras
                    .push(extra(name, ns as f64 / 1e6, "ms", corpus.len()));
            }
        }
        passes.push(pass);
        // Capture takes well under a millisecond, so one burst of set-ups
        // can land wholly inside a spell of noise from other tenants of
        // the host: set up again after every pass, spreading the samples
        // over the run.
        setup.extend(repeat_setup(|_| Ok(build()), drop)?.1);
        // Stop at the pass count whose total lands nearest `--seconds`.
        let elapsed: f64 = passes.iter().map(|p| p.wall).sum();
        let mean_pass = elapsed / passes.len() as f64;
        if passes.len() >= 2 && elapsed >= o.seconds - mean_pass / 2.0 {
            break;
        }
    }

    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.task_secs.len() as f64 / p.wall)
        .collect();
    let task_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.task_secs.iter().map(|s| s * 1e3))
        .collect();
    let e2e = end_to_end(&setup, &rates, rates.len(), &task_ms)?;
    if !o.traced {
        out.metrics = e2e;
        out.correct = out.failed == 0;
        return Ok(Run {
            outcome: out,
            spans,
        });
    }
    out.extras.extend(e2e);

    let results = &passes[0].results;
    let probe_dir = work.join("probe");
    let probe = probe::run(&corpus, results, &probe_dir.join("cache"));
    out.tally(probe.request_codec_us.len() as u64, probe.mismatches);
    let (delta, rtt_us, bad) = warm_probe(&corpus, results, &probe_dir, o.jobs)?;
    out.tally(corpus.len() as u64, bad);
    let handle_us = ratio(delta.handle_us.0 as f64, delta.handle_us.1 as f64);

    let busy: f64 = passes.iter().map(|p| p.task_secs.iter().sum::<f64>()).sum();
    let capacity: f64 = passes
        .iter()
        .map(|p| p.wall * p.pool.workers.len() as f64)
        .sum();
    let setup_ms: Vec<f64> = setup.iter().map(|s| s * 1e3).collect();
    out.metrics = per_layer(&Layers {
        spans: &spans,
        counts,
        capture_ms: &setup_ms,
        probe: &probe,
        busy_ratio: busy / capacity,
        steals: (
            passes.iter().map(|p| p.pool.steals()).sum(),
            passes.iter().map(|p| p.pool.steal_failures()).sum(),
        ),
        // The sweeps run with the cache off.
        hit_ratio: 0.0,
        handle_us,
        transport_us: mean(&rtt_us) - handle_us,
        coalesced: delta.stats.coalesced,
        busy_rejections: delta.stats.busy_rejections,
    })?;
    push_self_times(&mut out, &spans);
    out.correct = out.failed == 0;
    Ok(Run {
        outcome: out,
        spans,
    })
}

/// Serve `cells` warm from a cache `probe::run` filled in `dir/cache`:
/// one `RESULT` per cell on one connection. Returns the server counters
/// over those requests, each round trip in µs, and wrong answers.
fn warm_probe(
    cells: &[SweepRequest],
    results: &[SweepResult],
    dir: &Path,
    jobs: usize,
) -> Result<(Scrape, Vec<f64>, u64), String> {
    let mut served = Served::start(dir, jobs)?;
    served.upload(cells)?;
    let before = served.scrape(jobs, "warm")?;
    let mut client = served.connect()?;
    let mut rtt_us = Vec::with_capacity(cells.len());
    let mut bad = 0;
    for (req, res) in cells.iter().zip(results) {
        let t = Instant::now();
        let r = ok_body(client.result(&req.name, req));
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        if r.map(|(_, body)| body != res.to_text()).unwrap_or(true) {
            bad += 1;
        }
    }
    drop(client);
    let delta = served.scrape(jobs, "warm")?.since(&before);
    served.stop()?;
    Ok((delta, rtt_us, bad))
}

/// One serve set-up: server, captures, filled cache, expected answers.
struct Setup {
    dir: PathBuf,
    served: Served,
    fill: Vec<SweepRequest>,
    cold_src: Vec<SweepRequest>,
    expected: Vec<String>,
    /// `cells_fnv` of the fill as the server answered it (0 if unparseable).
    fill_fnv: u64,
}

fn serve(w: Workload, o: &Opts, work: &Path) -> Result<Run, String> {
    let cold_mode = w == Workload::ServeCold;
    let mut capture_ms = Vec::new();
    let (mut st, setup) = repeat_setup(
        |k| {
            let dir = work.join(format!("setup-{k}"));
            let t = Instant::now();
            let fill = smoke_corpus();
            let cold_src = if cold_mode { full_corpus() } else { Vec::new() };
            capture_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let mut served = Served::start(&dir, o.jobs)?;
            served.upload(&fill)?;
            served.upload(&cold_src)?;
            let expected = served.fill(&fill)?;
            let fill_fnv = expected
                .iter()
                .map(|t| SweepResult::parse(t))
                .collect::<Result<Vec<_>, _>>()
                .map_or(0, |r| cells::cells_fnv(&fill, &r));
            Ok(Setup {
                dir,
                served,
                fill,
                cold_src,
                expected,
                fill_fnv,
            })
        },
        |s| {
            if let Err(e) = s.served.stop() {
                eprintln!("perfbench: set-up teardown: {e}");
            }
            let _ = std::fs::remove_dir_all(&s.dir);
        },
    )?;
    let mut out = Outcome::default();
    let n_fill = st.fill.len() as u64;
    let fill_bad = if st.fill_fnv == cells::FILL_FNV {
        0
    } else {
        n_fill
    };
    out.tally(n_fill, fill_bad);
    out.notes
        .push(("fill_fnv", format!("{:016x}", st.fill_fnv)));

    // Popularity ranks follow corpus order for every seed: the seed draws
    // which cells are asked for, not which are hot, so every seed offers
    // the same mix of cheap and expensive cells.
    let zipf = Zipf::new(st.fill.len(), ZIPF_S);
    let window = Duration::from_secs_f64(o.seconds);
    let cold = if cold_mode {
        let per_writer = (o.seconds / COLD_INTERVAL.as_secs_f64()).ceil() as usize + 1;
        cold_cells(&st.cold_src, o.seed, per_writer * COLD_WRITERS as usize)?
    } else {
        Vec::new()
    };
    let temp = if cold_mode { "cold" } else { "warm" };
    let before = if o.traced {
        Some(st.served.scrape(o.jobs, temp)?)
    } else {
        None
    };
    let epoch = Instant::now();
    let load = Load {
        served: &st.served,
        fill: &st.fill,
        expected: &st.expected,
        zipf: &zipf,
        cold: &cold,
        seed: o.seed,
        epoch,
        traced: o.traced,
    };
    let start = Instant::now();
    let (tally, mut spans) = std::thread::scope(|s| {
        let load = &load;
        let handles: Vec<_> = if cold_mode {
            (0..COLD_WRITERS)
                .map(|c| s.spawn(move || load.cold_loop(c, start, window)))
                .collect()
        } else {
            vec![s.spawn(move || load.warm_loop(start + window))]
        };
        let mut spans = Vec::new();
        let mut all: Option<Tally> = None;
        for h in handles {
            let (t, sp) = h.join().expect("load thread panicked")?;
            spans.extend(sp);
            match &mut all {
                Some(a) => a.absorb(t),
                None => all = Some(t),
            }
        }
        Ok::<_, String>((all.expect("at least one load thread"), spans))
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    out.tally(tally.attempted(), tally.failed);
    let (ms, late) = (&tally.ms.values, &tally.late_ms.values);
    let e2e = end_to_end(&setup, &[tally.ok as f64 / elapsed], ms.len(), ms)?;
    if cold_mode {
        out.extras.push(extra(
            "loadgen.late_ms_p90",
            percentile(late, 0.9)?,
            "ms",
            late.len(),
        ));
    }
    let Some(before) = before else {
        out.metrics = e2e;
        st.served.stop()?;
        out.correct = out.failed == 0;
        return Ok(Run {
            outcome: out,
            spans,
        });
    };
    out.extras.extend(e2e);
    let delta = st.served.scrape(o.jobs, temp)?.since(&before);
    st.served.stop()?;

    // Attribute the cells this workload simulates: the fill (twice, for
    // enough samples), or the first cold cells the writers sent.
    let decomposed: Vec<SweepRequest> = if cold_mode {
        cold[..COLD_DECOMPOSED.min(cold.len())].to_vec()
    } else {
        st.fill.iter().chain(&st.fill).cloned().collect()
    };
    let tp = cells::traced_pass(&decomposed, 1, epoch, 1 << 48).map_err(|e| e.to_string())?;
    let bad = if cold_mode {
        decomposed
            .iter()
            .zip(&tp.pass.results)
            .filter(|(req, r)| cells::healthy_digest(&req.name) != Some(r.memory_digest))
            .count() as u64
    } else {
        let (a, b) = tp.pass.results.split_at(st.fill.len());
        let good = |r: &[SweepResult]| cells::cells_fnv(&st.fill, r) == cells::FILL_FNV;
        if good(a) && good(b) {
            0
        } else {
            decomposed.len() as u64
        }
    };
    out.tally(decomposed.len() as u64, bad);
    let probe = probe::run(
        &decomposed,
        &tp.pass.results,
        &work.join("probe").join("cache"),
    );
    out.tally(probe.request_codec_us.len() as u64, probe.mismatches);

    let handle_us = ratio(delta.handle_us.0 as f64, delta.handle_us.1 as f64);
    // Round trips run from the send, which is the due time plus lateness.
    let rtt_us = (mean(ms) - mean(late)) * 1e3;
    let s = delta.stats;
    out.metrics = per_layer(&Layers {
        spans: &tp.spans,
        counts: tp.counts,
        capture_ms: &capture_ms,
        probe: &probe,
        // The server's workers are not observable from outside.
        busy_ratio: 0.0,
        steals: delta.steals,
        hit_ratio: ratio(s.hits as f64, (s.hits + s.simulated) as f64),
        handle_us,
        transport_us: rtt_us - handle_us,
        coalesced: s.coalesced,
        busy_rejections: s.busy_rejections,
    })?;
    push_self_times(&mut out, &tp.spans);
    spans.extend(tp.spans);
    out.correct = out.failed == 0;
    Ok(Run {
        outcome: out,
        spans,
    })
}

/// `n` seeded cold cells, each with a fresh fault seed so no two share a
/// cache entry. Programs take turns in a seeded order, and each turn draws
/// one of the program's cells and an elide mode: every seed then offers
/// about the same simulation work, whatever cells it picks.
fn cold_cells(src: &[SweepRequest], seed: u64, n: usize) -> Result<Vec<SweepRequest>, String> {
    let mut programs: Vec<Vec<&SweepRequest>> = Vec::new();
    for req in src {
        match programs
            .iter_mut()
            .find(|p| p[0].name == req.name && Arc::ptr_eq(&p[0].ir, &req.ir))
        {
            Some(p) => p.push(req),
            None => programs.push(vec![req]),
        }
    }
    let mut rng = Rng::new(seed, Stream::ColdCells);
    rng.shuffle(&mut programs);
    let elides = [ElideKind::Off, ElideKind::Plan, ElideKind::Opt];
    (0..n)
        .map(|i| {
            let cells = &programs[i % programs.len()];
            let base = cells[rng.below(cells.len())];
            SweepRequest::builder(base.name.clone(), Arc::clone(&base.ir))
                .config(base.config)
                .elide(elides[rng.below(elides.len())])
                .fault_seed(rng.next_u64())
                .build()
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// What the load threads share.
struct Load<'a> {
    served: &'a Served,
    fill: &'a [SweepRequest],
    expected: &'a [String],
    zipf: &'a Zipf,
    cold: &'a [SweepRequest],
    seed: u64,
    epoch: Instant,
    traced: bool,
}

impl Load<'_> {
    /// One request on `client`, in a span when traced; a broken connection
    /// is replaced so the loop can go on counting failures.
    fn ask(
        &self,
        client: &mut Client,
        buf: &mut SpanBuf,
        span: &'static str,
        req: &SweepRequest,
    ) -> Option<(Response, String)> {
        let r = if self.traced {
            buf.time(span, |_| client.result(&req.name, req))
        } else {
            client.result(&req.name, req)
        };
        match ok_body(r) {
            Ok(ok) => Some(ok),
            Err(_) => {
                if let Ok(c) = self.served.connect() {
                    *client = c;
                }
                None
            }
        }
    }

    /// Closed loop: Zipf-popular warm `RESULT`s, each checked byte for byte
    /// against the fill's answer.
    fn warm_loop(&self, until: Instant) -> Result<(Tally, Vec<Span>), String> {
        let mut client = self.served.connect()?;
        let mut rng = Rng::new(self.seed, Stream::WarmCells);
        let mut buf = SpanBuf::new(self.epoch, 0);
        let mut tally = Tally::new(Rng::new(self.seed, Stream::Sample(0)));
        closed_loop(&mut tally, until, |i| {
            let idx = self.zipf.draw(&mut rng);
            buf.req = i;
            self.ask(&mut client, &mut buf, "client.result", &self.fill[idx])
                .is_some_and(|(_, body)| body == self.expected[idx])
        });
        Ok((tally, buf.spans))
    }

    /// Open loop of cold writer `writer`: every [`COLD_INTERVAL`], offset
    /// from the other writers, one cold cell, checked to have simulated
    /// and to leave its program's healthy memory digest.
    fn cold_loop(
        &self,
        writer: u32,
        start: Instant,
        window: Duration,
    ) -> Result<(Tally, Vec<Span>), String> {
        let mut client = self.served.connect()?;
        let mut buf = SpanBuf::new(self.epoch, 0);
        let mut tally = Tally::new(Rng::new(self.seed, Stream::Sample(u64::from(writer))));
        let offset = COLD_INTERVAL * writer / COLD_WRITERS;
        open_loop(
            &mut tally,
            start + offset,
            COLD_INTERVAL,
            window - offset,
            |i| {
                let req = &self.cold[(i * u64::from(COLD_WRITERS) + u64::from(writer)) as usize];
                buf.req = (u64::from(writer) << 32) | i;
                self.ask(&mut client, &mut buf, "client.cold", req)
                    .is_some_and(|(resp, body)| {
                        resp.info_get("simulated") == Some("1")
                            && SweepResult::parse(&body).ok().map(|r| r.memory_digest)
                                == cells::healthy_digest(&req.name)
                    })
            },
        );
        Ok((tally, buf.spans))
    }
}

/// Inputs of the per-layer metrics.
struct Layers<'a> {
    spans: &'a [Span],
    counts: Counts,
    capture_ms: &'a [f64],
    probe: &'a Probe,
    busy_ratio: f64,
    steals: (u64, u64),
    hit_ratio: f64,
    handle_us: f64,
    transport_us: f64,
    coalesced: u64,
    busy_rejections: u64,
}

fn per_layer(l: &Layers) -> Result<Vec<Metric>, String> {
    let durs = |name: &str| -> Vec<f64> {
        l.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    };
    let total = |name: &str| durs(name).iter().sum::<f64>();
    let selfs = trace::self_times(l.spans);
    let covered: f64 = l
        .spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| (s.dur_ns - selfs[&s.id]) as f64)
        .sum();
    let c = &l.counts;
    let n = c.tasks as usize;
    let cells = c.tasks as f64;
    let (cell_ns, digest_ns, replay_ns) = (
        total("cell"),
        total("core.memory_digest"),
        total("core.replay"),
    );
    let scaled = |v: Vec<f64>, div: f64| v.into_iter().map(|x| x / div).collect::<Vec<_>>();
    let p = l.probe;
    let count = |name, v: u64| metric(name, v as f64, n);
    Ok(vec![
        metric("core.memory_digest.ms_per_cell", digest_ns / 1e6 / cells, n),
        metric(
            "core.memory_digest.mb_per_cell",
            c.digest_bytes as f64 / 1e6 / cells,
            n,
        ),
        metric(
            "core.memory_digest.gb_per_s",
            c.digest_bytes as f64 / digest_ns,
            n,
        ),
        metric("core.memory_digest.share", digest_ns / cell_ns, n),
        metric("core.replay.ms_per_cell", replay_ns / 1e6 / cells, n),
        metric("core.replay.ops_per_cell", c.ops as f64 / cells, n),
        metric("core.replay.ns_per_op", replay_ns / c.ops as f64, n),
        metric(
            "core.build.us_p50",
            percentile(&scaled(durs("core.build"), 1e3), 0.5)?,
            n,
        ),
        metric(
            "core.finish.ms_per_cell",
            total("core.finish") / 1e6 / cells,
            n,
        ),
        metric(
            "core.cell.ms_p50",
            percentile(&scaled(durs("cell"), 1e6), 0.5)?,
            n,
        ),
        metric("core.cell.coverage", covered / cell_ns, n),
        metric(
            "core.table.acquisitions_per_cell",
            c.table_acquisitions as f64 / cells,
            n,
        ),
        metric(
            "core.table.contended_ratio",
            ratio(c.table_contended as f64, c.table_acquisitions as f64),
            n,
        ),
        metric(
            "core.lookup_cache.hit_ratio",
            ratio(
                c.lookup_hits as f64,
                (c.lookup_hits + c.lookup_misses) as f64,
            ),
            n,
        ),
        metric(
            "core.telemetry.events_per_cell",
            c.telemetry_events as f64 / cells,
            n,
        ),
        count("core.telemetry.dropped", c.telemetry_dropped),
        metric("check.capture.ms", median(l.capture_ms), l.capture_ms.len()),
        metric(
            "check.elision_plan.us_p50",
            percentile(&p.elision_us, 0.5)?,
            p.elision_us.len(),
        ),
        count("check.elision_plan.calls", c.elision_calls),
        metric(
            "check.optimize.ms_p50",
            percentile(&p.optimize_ms, 0.5)?,
            p.optimize_ms.len(),
        ),
        count("check.optimize.calls", c.optimize_calls),
        metric("batch.driver.busy_ratio", l.busy_ratio, n),
        count("batch.driver.steals", l.steals.0),
        count("batch.driver.steal_failures", l.steals.1),
        metric(
            "batch.cache.lookup_us_p50",
            percentile(&p.lookup_us, 0.5)?,
            p.lookup_us.len(),
        ),
        metric("batch.cache.hit_ratio", l.hit_ratio, n),
        metric(
            "batch.cache.store_ms_p50",
            percentile(&p.store_ms, 0.5)?,
            p.store_ms.len(),
        ),
        metric(
            "batch.request.codec_us_p50",
            percentile(&p.request_codec_us, 0.5)?,
            p.request_codec_us.len(),
        ),
        metric(
            "batch.result.codec_us_p50",
            percentile(&p.result_codec_us, 0.5)?,
            p.result_codec_us.len(),
        ),
        metric(
            "batch.proto.frame_us_p50",
            percentile(&p.frame_us, 0.5)?,
            p.frame_us.len(),
        ),
        metric("batch.serve.handle_us_mean", l.handle_us, n),
        metric("batch.serve.transport_us_mean", l.transport_us, n),
        count("batch.serve.coalesced", l.coalesced),
        count("batch.serve.busy_rejections", l.busy_rejections),
    ])
}

/// Self time per span name, as `self_ms <name> <ms> <share of all>`.
fn push_self_times(out: &mut Outcome, spans: &[Span]) {
    let by_name = trace::self_by_name(spans);
    let all: u64 = by_name.values().sum();
    for (name, ns) in by_name {
        out.notes.push((
            "self_ms",
            format!(
                "{name} {:.3} {:.4}",
                ns as f64 / 1e6,
                ratio(ns as f64, all as f64)
            ),
        ));
    }
}

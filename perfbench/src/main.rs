//! `perfbench`: the end-to-end and per-layer performance benchmark of the
//! MI300A zero-copy simulator's sweep and serve paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]
//! ```
//!
//! Without `--workload` every workload runs in a child process of its own
//! (so set-up time and peak memory belong to one workload), the metric
//! lines are printed, and all results are written to
//! `target/perf/results.json`; with `--trace` each workload also runs
//! traced, and the tracing overhead is printed. With `--workload` one
//! workload runs in this process and the last line of output is its JSON
//! result. Scratch caches and sockets live under
//! `target/perf/<workload>-<pid>/` and are deleted at exit.
//!
//! Host time is wall-clock time on the machine running the benchmark.
//! Simulated time (`virtual_*`) is what the modelled MI300A would take; it
//! is deterministic, pinned exactly as an output check, and compared with
//! the paper only by the repository's `tests/paper_calibration.rs`. There
//! is no hardware measurement here, so no error figure against hardware.
//!
//! # Workloads
//!
//! All sizes assume 2 cores: sweeps and the server run `nproc` workers,
//! and load comes from this process over at most 2 connections. The seed
//! permutes corpus order and draws the warm cells asked for and the cold
//! cells with their fault seeds. Warm popularity ranks follow corpus
//! order, so every seed offers the same mix of cheap and costly cells.
//!
//! | name | what | why |
//! |---|---|---|
//! | `sweep-cold` | `full_corpus()` (84 cells), cache off, the number of passes that fills `--seconds` best | The simulation-bound `repro --sweep --full` path: `core.memory_digest`, `core.replay`, `check.elision_plan` and the driver do the work; cache, proto and serve do none. |
//! | `sweep-tenants` | `smoke_corpus()` × 8 tenants, `elide online`, telemetry ring, cache off | The same runtime used differently: a shared sharded mapping table, lookup-cache probes and the telemetry ring, all of which `sweep-cold` bypasses. |
//! | `serve-cold` | in-process server, cache filled with the smoke corpus; 2 open-loop writers each send a cold cell every 450 ms (full-corpus cell × elide off/plan/opt × fresh fault seed) | The serve path that simulates: stanza parsing, resident plans, `optimize`, fault recovery and cache stores, under a fixed offered load whatever the cell cost. |
//! | `serve-warm` | same set-up; 1 closed-loop connection issues `RESULT` for Zipf(1.1)-popular cells | Every request is a cache hit: framing, stanza parsing, cache lookup and verify and result encoding do all the work, simulation none. |
//!
//! `BENCHMARK.json` lists the first three. `serve-warm` runs from this
//! command only: its host time is text formatting, parsing and system
//! calls, and on a shared 2-core host it swung by 1.45× between minutes
//! (10-run spreads up to 0.29 of the median), more than any regression
//! bound can absorb. The warm path's per-call costs are still timed in
//! every traced run (`batch.*`).
//!
//! # End-to-end metrics (untraced run)
//!
//! An *op* is the workload's measured unit: one cell task (a solo cell or
//! one tenant) in the sweeps, one cold `RESULT` timed from its due time in
//! `serve-cold`, one warm `RESULT` in `serve-warm`.
//!
//! - `setup_s` (s): median of repeated set-ups — corpus capture (repeated
//!   after every sweep pass too), and for serve also server start, capture
//!   upload and cache fill.
//! - `ops_per_s` (1/s): sweeps, median over passes; serve, ops completed
//!   per second of the window.
//! - `op_ms_p50`, `op_ms_p90` (ms): nearest-rank percentiles of op latency.
//! - `peak_rss_mb` (MiB): the workload process's `VmHWM`.
//!
//! Beside them each run prints `error_rate` (failed share of attempted
//! operations: errors, `BUSY`, wrong outputs), `correct yes|no`, and
//! workload figures: `virtual_ms`, `virtual_mm_ms`, `virtual_mi_ms`
//! (simulated Σ makespan, Σ MM and Σ MI overhead) and `cells_fnv` for the
//! sweeps, `loadgen.late_ms_p90` (how late the writers sent) for
//! `serve-cold`. Latencies are kept as a uniform sample of at most 20 000
//! per loop, so memory does not grow with throughput.
//!
//! # Output checks
//!
//! Every sweep pass, untraced or decomposed, must reproduce the pinned
//! `cells_fnv` and simulated totals. The serve fill must reproduce the
//! pinned fill fingerprint; every warm response must equal the fill's
//! `RESULT` text byte for byte; every cold response must have simulated
//! and must leave its program's healthy memory digest (fault recovery
//! preserves results). Every mismatch counts as a failed operation.
//!
//! # Per-layer metrics (traced run) and what they should move
//!
//! The traced run times the calls into each layer from this benchmark's
//! code: a sweep cell is decomposed into the calls `execute_prepared`
//! makes (`elision_plan`/`optimize`, `RuntimeBuilder::build` or
//! `TenantPool::tenant`, `replay`, `memory_digest`, `finish`), each in a
//! span, with `MetricsMode::On` for the table-contention counters. Serve
//! workloads time each client round trip, scrape `STATS` and `METRICS`,
//! and replay the cells they simulate through the same decomposition.
//! Codec, framing, cache and check-layer calls are timed on each
//! workload's own request mix. Spans are written as Chrome trace JSON to
//! `<trace dir>/<workload>.trace.json`, and `self_ms` lines give each
//! span name's self time (duration minus child coverage).
//!
//! | layer metrics | should move | on |
//! |---|---|---|
//! | `core.memory_digest.{ms_per_cell,mb_per_cell,gb_per_s,share}` | `ops_per_s`, `op_ms_*`; `setup_s` | sweeps and `serve-cold`; serve set-up (no move on `serve-warm` ops) |
//! | `core.replay.{ms_per_cell,ops_per_cell,ns_per_op}`, `core.build.us_p50`, `core.finish.ms_per_cell`, `core.cell.{ms_p50,coverage}` | `ops_per_s` | mostly `sweep-tenants` |
//! | `core.table.{acquisitions_per_cell,contended_ratio}`, `core.lookup_cache.hit_ratio`, `core.telemetry.{events_per_cell,dropped}` | `ops_per_s` | `sweep-tenants` only |
//! | `check.capture.ms`, `check.elision_plan.{us_p50,calls}`, `check.optimize.{ms_p50,calls}` | `setup_s`; `ops_per_s`; `op_ms_*` | all; `sweep-cold`; `serve-cold` |
//! | `batch.driver.{busy_ratio,steals,steal_failures}` | `ops_per_s` (mini-cg/qmcpack stragglers) | `sweep-cold` |
//! | `batch.cache.{lookup_us_p50,hit_ratio}`, `batch.request.codec_us_p50`, `batch.result.codec_us_p50`, `batch.proto.frame_us_p50`, `batch.serve.{handle_us_mean,transport_us_mean,coalesced,busy_rejections}` | `op_ms_*`, `ops_per_s` | `serve-warm` (sweeps: no move) |
//! | `batch.cache.store_ms_p50`, `loadgen.late_ms_p90` | `op_ms_*` | `serve-cold` |

mod cells;
mod loadgen;
mod probe;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Opts, Workload};

const USAGE: &str =
    "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]\n\
     workloads: sweep-cold sweep-tenants serve-cold serve-warm";

/// Where results, traces and scratch files go, relative to the checkout.
const OUT_DIR: &str = "target/perf";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds {v}"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(OUT_DIR)),
                    dir => Some(PathBuf::from(dir)),
                };
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("perfbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(w) => run_one(w, &cli),
        None => run_all(&cli),
    }
}

/// Removes a workload's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(w: Workload, cli: &Cli) -> ExitCode {
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.trace.is_some(),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("{}-{}", w.name(), std::process::id())));
    let run = match workloads::run(w, &opts, &scratch.0) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    drop(scratch);
    if let Some(dir) = &cli.trace {
        let path = dir.join(format!("{}.trace.json", w.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(w.name(), &run.spans)));
        if let Err(e) = written {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: wrote {}", path.display());
    }
    print!("{}", run.outcome.lines(w.name()));
    println!("{}", run.outcome.json());
    ExitCode::SUCCESS
}

/// One child run's output: its metric lines and final JSON.
struct Child {
    lines: Vec<String>,
    json: String,
}

impl Child {
    /// The value of metric `name` among the lines.
    fn value(&self, name: &str) -> Option<f64> {
        self.lines.iter().find_map(|l| {
            let mut f = l.split_whitespace().skip(1);
            (f.next() == Some(name)).then(|| f.next()?.parse().ok())?
        })
    }
}

fn child(w: Workload, cli: &Cli, trace: Option<&Path>) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace = trace.map_or_else(|| "0".to_string(), |d| d.display().to_string());
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string(), "--trace", &trace])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let json = lines
        .pop()
        .filter(|l| l.starts_with('{'))
        .ok_or("no result line")?;
    Ok(Child { lines, json })
}

fn run_all(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut records = Vec::new();
    for w in Workload::ALL {
        let mut runs = vec![(false, child(w, cli, None))];
        if let Some(dir) = &cli.trace {
            runs.push((true, child(w, cli, Some(dir))));
        }
        for (traced, r) in &runs {
            match r {
                Ok(c) => {
                    for l in &c.lines {
                        println!("{}{l}", if *traced { "traced " } else { "" });
                    }
                    ok &= c.json.starts_with("{\"correct\": true");
                    records.push(format!(
                        "    {{\"workload\": \"{}\", \"traced\": {traced}, \"result\": {}}}",
                        w.name(),
                        c.json
                    ));
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", w.name());
                    ok = false;
                }
            }
        }
        if let [(_, Ok(plain)), (_, Ok(traced))] = &runs[..] {
            for name in ["ops_per_s", "op_ms_p50"] {
                if let (Some(a), Some(b)) = (plain.value(name), traced.value(name)) {
                    println!(
                        "{} tracing_overhead {name} {a} -> {b} ({:+.1}%)",
                        w.name(),
                        100.0 * (b / a - 1.0)
                    );
                }
            }
        }
    }
    let path = Path::new(OUT_DIR).join("results.json");
    let json = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        cli.seed,
        cli.seconds,
        records.join(",\n")
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("perfbench: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("correct {}", if ok { "yes" } else { "no" });
    eprintln!("perfbench: wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

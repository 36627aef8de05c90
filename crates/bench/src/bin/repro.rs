//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick|--full] [--ARTIFACT ...] [--elide] [--optimize] [--profile] [--csv DIR]
//!       [--report FILE.md] [--faults SEED] [--jobs N] [--cache DIR|off]
//!       [--timing] [--list-artifacts]
//! repro --check [--json]
//! ```
//!
//! With no artifact flags, everything is produced (`--list-artifacts`
//! enumerates them). `--quick` (default) runs a reduced sweep in tens of
//! seconds; `--full` runs the complete configuration (all sizes, 1–8
//! threads, ref-scale SPECaccel — several minutes of virtual-machine
//! simulation). `--faults SEED` runs every experiment under the
//! deterministic fault plan derived from SEED: the runtime's recovery
//! policies absorb the injected failures, so all numeric results match the
//! healthy run while the recovery activity is charged in virtual time.
//! `--elide` (with `--table3`) appends the map-elision delta table: each
//! steady-state workload is measured under Copy data handling with elision
//! off and with online MC007 elision, and the table reports the map-service
//! time recovered — the headline experiments themselves are never elided,
//! so the paper's numbers are untouched. `--optimize` (with `--table3`)
//! appends the static-optimizer delta table: each steady-state capture is
//! replayed under Copy as-is, with the profile-guided elision plan, and
//! after whole-program optimization (`omp_mapcheck::optimize`), with the
//! equivalence contract verified per row — the table's headline column is
//! the MM time recovered *beyond* what plan elision achieves. `--timing`
//! additionally writes
//! `BENCH_repro.json` with per-artifact wall-clock and sweep throughput
//! (simulated cells per second) — the simulator's own performance, not the
//! modeled machine's — and, with `--elide`, `BENCH_elision.json` with the
//! per-workload elision deltas. `--profile` runs the Table III workloads
//! under every configuration with the telemetry ring on and writes
//! per-map-site MM and per-kernel MI attribution CSVs
//! (`profile_sites.csv`, `profile_kernels.csv`) next to the other
//! artifacts, printing the top charges per cell.
//!
//! `--sweep` runs the batched capture-replay sweep: every shipped
//! workload's capture is replayed under every compatible configuration on
//! the batch subsystem's work-stealing driver (`--jobs N` workers, 0 = one
//! per core), with each cell memoized in the content-addressed result
//! cache (`--cache DIR`, default `.apusim-cache/`; `--cache off`
//! disables). The sweep report — including the merged per-site/per-kernel
//! aggregate — is byte-identical at any job count, cached or cold; cache
//! statistics are printed to stderr only. `--jobs` also drives the
//! QMCPack and SPECaccel sweeps behind the figures and Table II.
//!
//! `--check` runs the mapcheck harness instead of the experiments: every
//! shipped workload's data-environment op stream is captured once, checked
//! statically against each compatible configuration, and cross-validated
//! with a sanitized real run (`--json` switches to machine-readable
//! output, for CI).
//!
//! Exit codes: 0 on success, 1 when `--check` finds error-severity
//! diagnostics or a static/sanitizer mismatch, 2 for unknown arguments,
//! unknown artifacts, missing or malformed option values.

use analysis::paper::{
    fig3_from_cells, fig4_from_cells, markdown_report, profile_cells, profile_kernels_csv,
    profile_sites_csv, qmc_sweep, table1, table2, table3, table3_elision, table3_optimize,
    ElisionRow, OptimizeRow, PaperConfig,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Every artifact the binary can produce, with the paper element it
/// reproduces. Artifact flags (`--fig3`, ...) are matched against this
/// list, so adding an artifact is one row here plus its `main` stanza.
const ARTIFACTS: &[(&str, &str)] = &[
    ("fig3", "Figure 3: QMCPack NiO time ratios per problem size"),
    ("fig4", "Figure 4: QMCPack NiO thread-scaling ratios"),
    ("table1", "Table I: HSA call statistics (rocprof analog)"),
    ("table2", "Table II: SPECaccel time ratios and CoV"),
    ("table3", "Table III: MM/MI overhead orders (microseconds)"),
    (
        "sweep",
        "Batched capture-replay sweep over the shipped workloads (cached)",
    ),
];

/// Every option flag: name, value placeholder (empty for booleans), help
/// line. The usage line and `--help` listing are both generated from this
/// table (and [`ARTIFACTS`]), so a new flag cannot drift out of the usage
/// text — adding one is a row here plus its `parse_args` arm.
const FLAGS: &[(&str, &str, &str)] = &[
    ("--quick", "", "reduced sweep, tens of seconds (default)"),
    (
        "--full",
        "",
        "complete configuration: all sizes, 1-8 threads",
    ),
    (
        "--elide",
        "",
        "with --table3: append the map-elision delta table (MM saved under Copy)",
    ),
    (
        "--optimize",
        "",
        "with --table3: append the static-optimizer delta table (MM saved beyond plan elision)",
    ),
    (
        "--profile",
        "",
        "write telemetry-derived per-site/per-kernel attribution CSVs",
    ),
    ("--csv", "DIR", "also write each artifact as CSV into DIR"),
    (
        "--report",
        "FILE.md",
        "write the full markdown report to FILE.md",
    ),
    (
        "--faults",
        "SEED",
        "run under the deterministic fault plan derived from SEED",
    ),
    (
        "--jobs",
        "N",
        "sweep worker count (0 = one per core); outputs are byte-identical at any N",
    ),
    (
        "--cache",
        "DIR|off",
        "with --sweep: memoize results in DIR (default .apusim-cache)",
    ),
    (
        "--timing",
        "",
        "write BENCH_repro.json (BENCH_elision.json with --elide, BENCH_optimize.json with --optimize)",
    ),
    ("--list-artifacts", "", "list artifact flags and exit"),
    (
        "--check",
        "",
        "run the mapcheck harness instead of the experiments",
    ),
    ("--json", "", "with --check: machine-readable output"),
    ("--help", "", "print this help"),
];

/// Flags that only apply to the `--check` form; kept out of the first
/// usage line.
const CHECK_ONLY: &[&str] = &["--check", "--json", "--help"];

struct Args {
    cfg: PaperConfig,
    full: bool,
    fig3: bool,
    fig4: bool,
    table1: bool,
    table2: bool,
    table3: bool,
    sweep: bool,
    elide: bool,
    optimize: bool,
    profile: bool,
    csv_dir: Option<PathBuf>,
    report: Option<PathBuf>,
    timing: bool,
    fault_seed: Option<u64>,
    cache: omp_batch::CacheMode,
    check: bool,
    json: bool,
}

fn usage() -> String {
    let opts: Vec<String> = FLAGS
        .iter()
        .filter(|(f, _, _)| !CHECK_ONLY.contains(f))
        .map(|(f, v, _)| {
            if v.is_empty() {
                format!("[{f}]")
            } else {
                format!("[{f} {v}]")
            }
        })
        .collect();
    let names: Vec<String> = ARTIFACTS.iter().map(|(n, _)| format!("[--{n}]")).collect();
    format!(
        "usage: repro {} {}\n       repro --check [--json]",
        opts.join(" "),
        names.join(" ")
    )
}

fn help() -> String {
    let mut out = usage();
    out.push_str("\n\noptions:\n");
    for (f, v, what) in FLAGS {
        let head = if v.is_empty() {
            (*f).to_string()
        } else {
            format!("{f} {v}")
        };
        out.push_str(&format!("  {head:<18} {what}\n"));
    }
    out.push_str("\nartifacts (default: all):\n");
    for (n, what) in ARTIFACTS {
        let flag = format!("--{n}");
        out.push_str(&format!("  {flag:<18} {what}\n"));
    }
    out
}

/// Exit with status 2 (usage error), printing `msg` and the usage line.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

/// The value of option `flag`, or a consistent exit-2 diagnostic.
fn required_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    match args.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => usage_error(&format!("{flag} requires a value")),
    }
}

/// Wall-clock of one produced artifact; `cells` is set for sweep-backed
/// artifacts and yields cells/second throughput *and* per-cell simulator
/// cost (seconds_per_cell) in the JSON.
struct ArtifactTiming {
    name: &'static str,
    seconds: f64,
    cells: Option<usize>,
}

fn timing_json(
    cfg_name: &str,
    jobs: usize,
    total_seconds: f64,
    artifacts: &[ArtifactTiming],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"config\": \"{cfg_name}\",\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"total_seconds\": {total_seconds:.6},\n"));
    out.push_str("  \"artifacts\": [\n");
    for (i, a) in artifacts.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds\": {:.6}",
            a.name, a.seconds
        ));
        if let Some(cells) = a.cells {
            let rate = cells as f64 / a.seconds.max(1e-9);
            let per_cell = a.seconds / cells.max(1) as f64;
            out.push_str(&format!(
                ", \"cells\": {cells}, \"cells_per_sec\": {rate:.3}, \"seconds_per_cell\": {per_cell:.6}"
            ));
        }
        out.push_str(if i + 1 < artifacts.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Machine-readable form of the elision delta table, written next to
/// `BENCH_repro.json` under `--timing --elide` so CI can archive the
/// savings alongside the simulator's own timings.
fn elision_json(rows: &[ElisionRow]) -> String {
    let mut out = String::from("{\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"mm_unelided_us\": {:.3}, \"mm_elided_us\": {:.3}, \
             \"mm_saved_us\": {:.3}, \"maps_elided\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}}}{}\n",
            r.workload,
            r.mm_unelided.as_micros_f64(),
            r.mm_elided.as_micros_f64(),
            r.mm_saved.as_micros_f64(),
            r.maps_elided,
            r.cache_hits,
            r.cache_misses,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Machine-readable form of the static-optimizer delta table, written next
/// to `BENCH_repro.json` under `--timing --optimize` (CI archives it as
/// `BENCH_optimize.json`).
fn optimize_json(rows: &[OptimizeRow]) -> String {
    let mut out = String::from("{\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"mm_baseline_us\": {:.3}, \"mm_plan_us\": {:.3}, \
             \"mm_optimized_us\": {:.3}, \"beyond_plan_us\": {:.3}, \"hoisted\": {}, \
             \"dead_to\": {}, \"dead_from\": {}, \"updates_dropped\": {}, \
             \"recommended\": \"{}\", \"verified\": {}}}{}\n",
            r.workload,
            r.mm_baseline.as_micros_f64(),
            r.mm_plan.as_micros_f64(),
            r.mm_optimized.as_micros_f64(),
            r.saved_beyond_plan().as_micros_f64(),
            r.hoisted,
            r.dead_to,
            r.dead_from,
            r.updates_dropped,
            r.recommended.map(|c| c.token()).unwrap_or("-"),
            r.verified,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn parse_args() -> Args {
    let mut full = false;
    let mut selected: Vec<String> = Vec::new();
    let mut elide = false;
    let mut optimize = false;
    let mut profile = false;
    let mut csv_dir = None;
    let mut report = None;
    let mut timing = false;
    let mut fault_seed = None;
    let mut jobs = 0usize;
    let mut cache = omp_batch::CacheMode::default_dir(std::path::Path::new("."));
    let mut check = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => full = false,
            "--full" => full = true,
            "--elide" => elide = true,
            "--optimize" => optimize = true,
            "--profile" => profile = true,
            "--timing" => timing = true,
            "--check" => check = true,
            "--json" => json = true,
            "--jobs" => {
                let raw = required_value(&mut args, "--jobs");
                match raw.parse::<usize>() {
                    Ok(n) => jobs = n,
                    Err(_) => usage_error(&format!("--jobs needs a worker count, got '{raw}'")),
                }
            }
            "--cache" => {
                cache = required_value(&mut args, "--cache")
                    .parse()
                    .expect("cache operands always parse")
            }
            "--csv" => csv_dir = Some(PathBuf::from(required_value(&mut args, "--csv"))),
            "--report" => report = Some(PathBuf::from(required_value(&mut args, "--report"))),
            "--faults" => {
                let raw = required_value(&mut args, "--faults");
                match raw.parse::<u64>() {
                    Ok(seed) => fault_seed = Some(seed),
                    Err(_) => usage_error(&format!("--faults needs an integer seed, got '{raw}'")),
                }
            }
            "--list-artifacts" => {
                for (name, what) in ARTIFACTS {
                    println!("{name:<8} {what}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                eprintln!("{}", help());
                std::process::exit(0);
            }
            other => {
                if let Some(name) = other.strip_prefix("--") {
                    if ARTIFACTS.iter().any(|(n, _)| *n == name) {
                        selected.push(name.to_string());
                        continue;
                    }
                    usage_error(&format!(
                        "unknown artifact or argument: {other} (see --list-artifacts)"
                    ));
                }
                usage_error(&format!("unknown argument: {other}"));
            }
        }
    }
    if json && !check {
        usage_error("--json only applies to --check");
    }
    if check
        && (full
            || timing
            || elide
            || optimize
            || profile
            || fault_seed.is_some()
            || !selected.is_empty())
    {
        usage_error("--check does not combine with experiment flags");
    }
    let all = selected.is_empty();
    let has = |n: &str| all || selected.iter().any(|s| s == n);
    if elide && !has("table3") {
        usage_error("--elide requires --table3");
    }
    if optimize && !has("table3") {
        usage_error("--optimize requires --table3");
    }
    let mut cfg = if full {
        PaperConfig::full()
    } else {
        PaperConfig::quick()
    };
    cfg.exp.fault_seed = fault_seed;
    cfg.jobs = jobs;
    // The env var is translated into typed options exactly once, here.
    cfg.exp.mem_options = apu_mem::MemOptions::from_env();
    Args {
        cfg,
        full,
        fig3: has("fig3"),
        fig4: has("fig4"),
        table1: has("table1"),
        table2: has("table2"),
        table3: has("table3"),
        sweep: has("sweep"),
        elide,
        optimize,
        profile,
        csv_dir,
        report,
        timing,
        fault_seed,
        cache,
        check,
        json,
    }
}

/// `repro --check`: run the mapcheck harness over every shipped workload
/// and exit 0 (clean) or 1 (error diagnostics or cross-validation
/// mismatch). Warnings are reported but do not fail the run.
fn run_check(json: bool) -> ! {
    let cells = match omp_mapcheck::check_all(None) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("repro: mapcheck capture failed: {e}");
            std::process::exit(1);
        }
    };
    if json {
        println!("{}", omp_mapcheck::render_json(&cells));
    } else {
        print!("{}", omp_mapcheck::render_text(&cells));
    }
    std::process::exit(if omp_mapcheck::has_errors(&cells) {
        1
    } else {
        0
    });
}

fn write_csv(dir: &Option<PathBuf>, name: &str, content: &str) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create csv file");
        f.write_all(content.as_bytes()).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args = parse_args();
    if args.check {
        run_check(args.json);
    }
    let started = Instant::now();
    let mut timings: Vec<ArtifactTiming> = Vec::new();
    if let Some(seed) = args.fault_seed {
        eprintln!(
            "fault injection enabled (seed {seed}): runs replay a deterministic \
             fault plan; recovery keeps results identical to a healthy run"
        );
    }

    if args.fig3 || args.fig4 {
        eprintln!(
            "running QMCPack sweep ({} sizes x {} thread counts x 4 configs)...",
            args.cfg.sizes.len(),
            args.cfg.threads.len()
        );
        let t0 = Instant::now();
        let cells = qmc_sweep(&args.cfg).expect("QMCPack sweep");
        timings.push(ArtifactTiming {
            name: "qmc_sweep",
            seconds: t0.elapsed().as_secs_f64(),
            cells: Some(cells.len()),
        });
        if args.fault_seed.is_some() {
            let reports = cells.iter().flat_map(|c| c.measurements.iter());
            let episodes: usize = reports.clone().map(|m| m.report.recovery_log.len()).sum();
            let retries: u64 = reports.clone().map(|m| m.report.ledger.retries).sum();
            let degradations: u64 = reports.map(|m| m.report.ledger.degradations).sum();
            println!(
                "fault recovery: {episodes} episodes across the sweep \
                 ({retries} retries, {degradations} degradations)\n"
            );
        }
        if args.fig3 {
            let t0 = Instant::now();
            for fig in fig3_from_cells(&cells, &args.cfg) {
                println!("{fig}");
                write_csv(
                    &args.csv_dir,
                    &format!(
                        "fig3_{}.csv",
                        fig.title
                            .split(['(', ')'])
                            .nth(1)
                            .unwrap_or("size")
                            .to_lowercase()
                    ),
                    &fig.to_csv(),
                );
            }
            timings.push(ArtifactTiming {
                name: "fig3",
                seconds: t0.elapsed().as_secs_f64(),
                cells: None,
            });
        }
        if args.fig4 {
            let t0 = Instant::now();
            let fig = fig4_from_cells(&cells, &args.cfg);
            println!("{fig}");
            write_csv(&args.csv_dir, "fig4.csv", &fig.to_csv());
            timings.push(ArtifactTiming {
                name: "fig4",
                seconds: t0.elapsed().as_secs_f64(),
                cells: None,
            });
        }
    }

    if args.table1 {
        eprintln!("running Table I (HSA call statistics)...");
        let t0 = Instant::now();
        let t = table1(&args.cfg).expect("table1");
        println!("{t}");
        write_csv(&args.csv_dir, "table1.csv", &t.to_csv());
        timings.push(ArtifactTiming {
            name: "table1",
            seconds: t0.elapsed().as_secs_f64(),
            cells: None,
        });
    }

    if args.table2 {
        eprintln!("running Table II (SPECaccel ratios)...");
        let t0 = Instant::now();
        let (t, max_cov) = table2(&args.cfg).expect("table2");
        println!("{t}");
        println!("highest observed CoV: {max_cov:.3} (paper: <= 0.03)\n");
        write_csv(&args.csv_dir, "table2.csv", &t.to_csv());
        timings.push(ArtifactTiming {
            name: "table2",
            seconds: t0.elapsed().as_secs_f64(),
            cells: None,
        });
    }

    if args.table3 {
        eprintln!("running Table III (MM/MI overhead orders)...");
        let t0 = Instant::now();
        let t = table3(&args.cfg).expect("table3");
        println!("{t}");
        write_csv(&args.csv_dir, "table3.csv", &t.to_csv());
        timings.push(ArtifactTiming {
            name: "table3",
            seconds: t0.elapsed().as_secs_f64(),
            cells: None,
        });
    }

    if args.sweep {
        eprintln!("running batched capture-replay sweep (shipped workloads x configurations)...");
        let t0 = Instant::now();
        let corpus = if args.full {
            omp_batch::full_corpus()
        } else {
            omp_batch::smoke_corpus()
        };
        let jobs = args.cfg.worker_count(corpus.len());
        let outcome = omp_batch::run_sweep(&corpus, jobs, &args.cache).expect("sweep");
        print!("{}", omp_batch::render_report(&corpus, &outcome.results));
        println!();
        eprintln!(
            "sweep cache: {} hit(s), {} simulated ({:.0}% hit rate)",
            outcome.stats.hits,
            outcome.stats.simulated,
            100.0 * outcome.stats.hit_rate()
        );
        let mut csv = String::from(
            "workload,config,elide,makespan_us,copies,maps_elided,diagnostics,memory_digest\n",
        );
        for (req, r) in corpus.iter().zip(&outcome.results) {
            csv.push_str(&format!(
                "{},{},{},{:.3},{},{},{},{:016x}\n",
                req.name,
                req.config.token(),
                req.elide.token(),
                r.makespan.as_nanos() as f64 / 1_000.0,
                r.ledger.copies,
                r.ledger.maps_elided,
                r.diagnostics.len(),
                r.memory_digest,
            ));
        }
        write_csv(&args.csv_dir, "sweep.csv", &csv);
        timings.push(ArtifactTiming {
            name: "sweep",
            seconds: t0.elapsed().as_secs_f64(),
            cells: Some(corpus.len()),
        });
    }

    if args.elide {
        eprintln!("running Table III elision delta (MM recovered by map elision)...");
        let t0 = Instant::now();
        let (t, rows) = table3_elision(&args.cfg).expect("table3 elision");
        println!("{t}");
        for r in &rows {
            println!(
                "{}: mapping cache {} hits / {} misses",
                r.workload, r.cache_hits, r.cache_misses
            );
        }
        println!();
        write_csv(&args.csv_dir, "table3_elision.csv", &t.to_csv());
        timings.push(ArtifactTiming {
            name: "elision",
            seconds: t0.elapsed().as_secs_f64(),
            // Each workload is measured twice under Copy: elision off, on.
            cells: Some(rows.len() * 2),
        });
        if args.timing {
            std::fs::write("BENCH_elision.json", elision_json(&rows))
                .expect("write BENCH_elision.json");
            eprintln!("wrote BENCH_elision.json");
        }
    }

    if args.optimize {
        eprintln!("running Table III optimizer delta (MM recovered by static optimization)...");
        let t0 = Instant::now();
        let (t, rows) = table3_optimize(&args.cfg).expect("table3 optimize");
        println!("{t}");
        for r in &rows {
            if !r.verified {
                eprintln!(
                    "repro: {}: optimizer equivalence contract BROKEN",
                    r.workload
                );
                std::process::exit(1);
            }
        }
        println!();
        write_csv(&args.csv_dir, "table3_optimize.csv", &t.to_csv());
        timings.push(ArtifactTiming {
            name: "optimize",
            seconds: t0.elapsed().as_secs_f64(),
            // Each capture replays three times under Copy: baseline,
            // plan-elided, optimized.
            cells: Some(rows.len() * 3),
        });
        if args.timing {
            std::fs::write("BENCH_optimize.json", optimize_json(&rows))
                .expect("write BENCH_optimize.json");
            eprintln!("wrote BENCH_optimize.json");
        }
    }

    if args.profile {
        eprintln!("running telemetry attribution profile (Table III workloads x 4 configs)...");
        let t0 = Instant::now();
        let cells = profile_cells(&args.cfg).expect("profile");
        for c in &cells {
            println!("## {} under {}", c.workload, c.config.label());
            print!("{}", c.attribution.render_text(5));
            println!();
        }
        let sites = profile_sites_csv(&cells);
        let kernels = profile_kernels_csv(&cells);
        match &args.csv_dir {
            Some(_) => {
                write_csv(&args.csv_dir, "profile_sites.csv", &sites);
                write_csv(&args.csv_dir, "profile_kernels.csv", &kernels);
            }
            None => {
                // No --csv: still materialize the profiles, next to the
                // timing JSON in the working directory.
                std::fs::write("profile_sites.csv", &sites).expect("write profile_sites.csv");
                std::fs::write("profile_kernels.csv", &kernels).expect("write profile_kernels.csv");
                eprintln!("wrote profile_sites.csv");
                eprintln!("wrote profile_kernels.csv");
            }
        }
        timings.push(ArtifactTiming {
            name: "profile",
            seconds: t0.elapsed().as_secs_f64(),
            cells: Some(cells.len()),
        });
    }

    if let Some(path) = &args.report {
        eprintln!("generating markdown report...");
        let t0 = Instant::now();
        let report = markdown_report(&args.cfg).expect("report");
        std::fs::write(path, report).expect("write report");
        eprintln!("wrote {}", path.display());
        timings.push(ArtifactTiming {
            name: "report",
            seconds: t0.elapsed().as_secs_f64(),
            cells: None,
        });
    }

    let total = started.elapsed().as_secs_f64();
    if args.timing {
        let cfg_name = if args.full { "full" } else { "quick" };
        let json = timing_json(cfg_name, args.cfg.jobs, total, &timings);
        std::fs::write("BENCH_repro.json", &json).expect("write BENCH_repro.json");
        eprintln!("wrote BENCH_repro.json");
    }
    eprintln!("done in {total:.1}s");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_des::VirtDuration;

    /// The anti-drift contract of the flag table: every experiment flag and
    /// every artifact appears in the generated usage line, and every flag's
    /// help text appears in `--help`.
    #[test]
    fn usage_and_help_are_generated_from_the_flag_tables() {
        let u = usage();
        for (f, _, _) in FLAGS {
            if CHECK_ONLY.contains(f) {
                continue;
            }
            assert!(u.contains(f), "usage line is missing {f}");
        }
        assert!(u.contains("--check [--json]"));
        let h = help();
        for (f, _, what) in FLAGS {
            assert!(h.contains(f), "help is missing {f}");
            assert!(h.contains(what), "help is missing the {f} description");
        }
        for (n, what) in ARTIFACTS {
            assert!(u.contains(&format!("--{n}")), "usage missing --{n}");
            assert!(h.contains(what), "help missing the {n} description");
        }
    }

    #[test]
    fn optimize_json_carries_the_delta_fields() {
        let rows = vec![OptimizeRow {
            workload: "w".into(),
            mm_baseline: VirtDuration::from_micros(10),
            mm_plan: VirtDuration::from_micros(6),
            mm_optimized: VirtDuration::from_micros(4),
            hoisted: 1,
            dead_to: 2,
            dead_from: 3,
            updates_dropped: 4,
            recommended: Some(omp_offload::RuntimeConfig::EagerMaps),
            verified: true,
        }];
        let j = optimize_json(&rows);
        for needle in [
            "\"workload\": \"w\"",
            "\"mm_baseline_us\": 10.000",
            "\"mm_plan_us\": 6.000",
            "\"mm_optimized_us\": 4.000",
            "\"beyond_plan_us\": 2.000",
            "\"hoisted\": 1",
            "\"dead_to\": 2",
            "\"dead_from\": 3",
            "\"updates_dropped\": 4",
            "\"recommended\": \"eager\"",
            "\"verified\": true",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }

    #[test]
    fn elision_json_carries_the_delta_fields() {
        let rows = vec![ElisionRow {
            workload: "w".into(),
            mm_unelided: VirtDuration::from_micros(10),
            mm_elided: VirtDuration::from_micros(4),
            mm_saved: VirtDuration::from_micros(6),
            maps_elided: 3,
            cache_hits: 2,
            cache_misses: 1,
        }];
        let j = elision_json(&rows);
        for needle in [
            "\"workload\": \"w\"",
            "\"mm_unelided_us\": 10.000",
            "\"mm_elided_us\": 4.000",
            "\"mm_saved_us\": 6.000",
            "\"maps_elided\": 3",
            "\"cache_hits\": 2",
            "\"cache_misses\": 1",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }
}

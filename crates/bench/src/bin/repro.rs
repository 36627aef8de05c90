//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick|--full] [--ARTIFACT ...] [--elide] [--optimize] [--profile] [--csv DIR]
//!       [--report FILE.md] [--faults SEED] [--jobs N] [--cache DIR|off]
//!       [--list-artifacts]
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
//! the MM time recovered *beyond* what plan elision achieves. `--ablations`
//! prints the three single-mechanism ablations behind the paper's
//! explanations: the prefault syscall cost behind the Eager Maps trade-off,
//! DMA-engine latency hiding, and 2 MiB vs 4 KiB pages (single-repeat and
//! noiseless). `--profile` runs the Table III workloads
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
//! `--report FILE.md` renders the QMCPack sweep and Tables I–III into one
//! markdown file. Every artifact is computed at most once per invocation:
//! the report reuses what the selected artifacts already printed and
//! computes the rest without printing it.
//!
//! Map checking (the mapcheck harness) runs through `apusim check`.
//!
//! Exit codes: 0 on success, 1 when `--optimize` finds a broken
//! equivalence contract, 2 for unknown arguments, unknown artifacts,
//! missing or malformed option values.

use analysis::paper::{
    ablation_eager_maps, ablation_page_size, ablation_streaming, fig3_from_cells, fig4_from_cells,
    markdown_report, profile_cells, profile_kernels_csv, profile_sites_csv, qmc_sweep, table1,
    table2, table3, table3_elision, table3_optimize, PaperConfig,
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
        "ablations",
        "Ablations: prefault syscall cost, DMA engines, 2MiB vs 4KiB pages",
    ),
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
    ("--list-artifacts", "", "list artifact flags and exit"),
    ("--help", "", "print this help"),
];

struct Args {
    cfg: PaperConfig,
    full: bool,
    fig3: bool,
    fig4: bool,
    table1: bool,
    table2: bool,
    table3: bool,
    ablations: bool,
    sweep: bool,
    elide: bool,
    optimize: bool,
    profile: bool,
    csv_dir: Option<PathBuf>,
    report: Option<PathBuf>,
    fault_seed: Option<u64>,
    cache: omp_batch::CacheMode,
}

fn usage() -> String {
    let opts: Vec<String> = FLAGS
        .iter()
        .map(|(f, v, _)| {
            if v.is_empty() {
                format!("[{f}]")
            } else {
                format!("[{f} {v}]")
            }
        })
        .collect();
    let names: Vec<String> = ARTIFACTS.iter().map(|(n, _)| format!("[--{n}]")).collect();
    format!("usage: repro {} {}", opts.join(" "), names.join(" "))
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

fn parse_args() -> Args {
    let mut full = false;
    let mut selected: Vec<String> = Vec::new();
    let mut elide = false;
    let mut optimize = false;
    let mut profile = false;
    let mut csv_dir = None;
    let mut report = None;
    let mut fault_seed = None;
    let mut jobs = 0usize;
    let mut cache = omp_batch::CacheMode::default_dir(std::path::Path::new("."));
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => full = false,
            "--full" => full = true,
            "--elide" => elide = true,
            "--optimize" => optimize = true,
            "--profile" => profile = true,
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
                let width = ARTIFACTS.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
                for (name, what) in ARTIFACTS {
                    println!("{name:<width$} {what}");
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
    Args {
        cfg,
        full,
        fig3: has("fig3"),
        fig4: has("fig4"),
        table1: has("table1"),
        table2: has("table2"),
        table3: has("table3"),
        ablations: has("ablations"),
        sweep: has("sweep"),
        elide,
        optimize,
        profile,
        csv_dir,
        report,
        fault_seed,
        cache,
    }
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
    let started = Instant::now();
    if let Some(seed) = args.fault_seed {
        eprintln!(
            "fault injection enabled (seed {seed}): runs replay a deterministic \
             fault plan; recovery keeps results identical to a healthy run"
        );
    }

    // The report renders the QMCPack sweep and Tables I-III: each is
    // computed once, when printed or reported, and kept for the report.
    let report = args.report.is_some();
    let cells = (args.fig3 || args.fig4 || report).then(|| {
        eprintln!(
            "running QMCPack sweep ({} sizes x {} thread counts x 4 configs)...",
            args.cfg.sizes.len(),
            args.cfg.threads.len()
        );
        qmc_sweep(&args.cfg).expect("QMCPack sweep")
    });
    if let Some(cells) = cells.as_ref().filter(|_| args.fig3 || args.fig4) {
        if args.fault_seed.is_some() {
            let ledgers = cells
                .iter()
                .flat_map(|c| c.measurements.iter())
                .map(|m| &m.report.ledger);
            let episodes: u64 = ledgers.clone().map(|l| l.recoveries + l.degradations).sum();
            let retries: u64 = ledgers.clone().map(|l| l.retries).sum();
            let degradations: u64 = ledgers.map(|l| l.degradations).sum();
            println!(
                "fault recovery: {episodes} episodes across the sweep \
                 ({retries} retries, {degradations} degradations)\n"
            );
        }
        if args.fig3 {
            for fig in fig3_from_cells(cells, &args.cfg) {
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
        }
        if args.fig4 {
            let fig = fig4_from_cells(cells, &args.cfg);
            println!("{fig}");
            write_csv(&args.csv_dir, "fig4.csv", &fig.to_csv());
        }
    }

    let t1 = (args.table1 || report).then(|| {
        eprintln!("running Table I (HSA call statistics)...");
        table1(&args.cfg).expect("table1")
    });
    if let Some(t) = t1.as_ref().filter(|_| args.table1) {
        println!("{t}");
        write_csv(&args.csv_dir, "table1.csv", &t.to_csv());
    }

    let t2 = (args.table2 || report).then(|| {
        eprintln!("running Table II (SPECaccel ratios)...");
        table2(&args.cfg).expect("table2")
    });
    if let Some((t, max_cov)) = t2.as_ref().filter(|_| args.table2) {
        println!("{t}");
        println!("highest observed CoV: {max_cov:.3} (paper: <= 0.03)\n");
        write_csv(&args.csv_dir, "table2.csv", &t.to_csv());
    }

    let t3 = (args.table3 || report).then(|| {
        eprintln!("running Table III (MM/MI overhead orders)...");
        table3(&args.cfg).expect("table3")
    });
    if let Some(t) = t3.as_ref().filter(|_| args.table3) {
        println!("{t}");
        write_csv(&args.csv_dir, "table3.csv", &t.to_csv());
    }

    if args.ablations {
        eprintln!("running ablations (prefault syscall cost, DMA engines, page size)...");
        for (name, table) in [
            ("ablation_eager_maps", ablation_eager_maps(&args.cfg)),
            ("ablation_streaming", ablation_streaming(&args.cfg)),
            ("ablation_page_size", ablation_page_size(&args.cfg)),
        ] {
            let t = table.expect(name);
            println!("{t}");
            write_csv(&args.csv_dir, &format!("{name}.csv"), &t.to_csv());
        }
    }

    if args.sweep {
        eprintln!("running batched capture-replay sweep (shipped workloads x configurations)...");
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
    }

    if args.elide {
        eprintln!("running Table III elision delta (MM recovered by map elision)...");
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
    }

    if args.optimize {
        eprintln!("running Table III optimizer delta (MM recovered by static optimization)...");
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
    }

    if args.profile {
        eprintln!("running telemetry attribution profile (Table III workloads x 4 configs)...");
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
                // No --csv: still materialize the profiles in the working
                // directory.
                std::fs::write("profile_sites.csv", &sites).expect("write profile_sites.csv");
                std::fs::write("profile_kernels.csv", &kernels).expect("write profile_kernels.csv");
                eprintln!("wrote profile_sites.csv");
                eprintln!("wrote profile_kernels.csv");
            }
        }
    }

    if let (Some(path), Some(cells), Some(t1), Some((t2, max_cov)), Some(t3)) =
        (&args.report, &cells, &t1, &t2, &t3)
    {
        eprintln!("generating markdown report...");
        let md = markdown_report(&args.cfg, cells, t1, t2, *max_cov, t3);
        std::fs::write(path, md).expect("write report");
        eprintln!("wrote {}", path.display());
    }

    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The anti-drift contract of the flag table: every experiment flag and
    /// every artifact appears in the generated usage line, and every flag's
    /// help text appears in `--help`.
    #[test]
    fn usage_and_help_are_generated_from_the_flag_tables() {
        let u = usage();
        for (f, _, _) in FLAGS {
            assert!(u.contains(f), "usage line is missing {f}");
        }
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
}

//! `apusim` — command-line driver for the simulated APU OpenMP stack.
//!
//! ```text
//! apusim list
//! apusim costs
//! apusim sweep [--sizes 2,8,32] [--threads 1,4,8] [--steps N] [--jobs N]
//! apusim env [--no-apu] [--no-xnack] [--apu-maps] [--eager] [--usm]
//! apusim run <workload> [--config copy|usm|izc|eager] [--threads N]
//!            [--scale F] [--steps N] [--discrete] [--mem-report]
//!            [--trace FILE [--trace-format chrome|jsonl]] [--capture FILE.mapir]
//! apusim replay FILE.mapir... [--config copy|usm|izc|eager]
//!               [--elide off|online|plan|opt] [--jobs N] [--cache DIR|off]
//!               [--trace FILE [--trace-format chrome|jsonl]]
//! apusim check [--json] [NAME]
//! apusim serve [--socket PATH | --tcp ADDR] [--jobs N] [--cache DIR|off]
//!              [--cache-max-bytes SIZE] [--max-inflight N] [--timeout-ms N]
//! apusim request [--socket PATH | --tcp ADDR] [FILE.mapir...]
//!                [--config C] [--elide K] [--telemetry K] [--fault SEED]
//!                [--preset P] [--ping] [--stats] [--metrics] [--gc]
//!                [--shutdown]
//! apusim cache gc [--cache DIR] [--max-bytes SIZE] [--dry-run]
//! ```
//!
//! `run` executes one workload under one configuration and prints the
//! makespan, the MM/MI ledger and the HSA call statistics; `--trace` turns
//! the runtime telemetry ring on and writes the merged trace — by default a
//! Chrome/Perfetto timeline interleaving the HSA schedule with the resolved
//! runtime event spans on one virtual clock, or the raw event stream as
//! JSONL with `--trace-format jsonl`. `--capture` writes the workload's
//! data-environment op stream as MapIR text.
//!
//! `replay` re-executes a saved MapIR capture under any configuration the
//! capture admits, with the sanitizer on, optionally applying map elision:
//! `online` consults the live mapping table per map, `plan` derives the
//! profile-guided elision plan from the capture itself (the static MC007
//! sites) and applies it by op index, and `opt` replays the statically
//! optimized program. A single capture runs the same cell recipe as a
//! batch cell and prints the makespan, ledger (including maps elided and MM
//! saved), memory digest, and sanitizer verdict; `--trace` works exactly as
//! under `run`, so an elision decision stream can be inspected span by span.
//! With several capture files — or with `--jobs`/`--cache` — replay routes
//! through the batch subsystem instead: cells are scheduled on the
//! work-stealing driver and memoized in the content-addressed result cache
//! (default `.apusim-cache/`, `--cache off` disables), and the per-capture
//! report is byte-identical for any `--jobs` count, cached or cold.
//!
//! `check` runs the mapcheck harness (static map-clause analysis of a
//! captured MapIR, cross-validated by a sanitized real run) over the
//! shipped workloads, optionally filtered by a case-insensitive name
//! substring; exits 1 if any cell has error diagnostics or a
//! static/sanitizer mismatch.
//!
//! `serve` keeps the batch subsystem resident behind a Unix-domain socket
//! (or `--tcp ADDR`): parsed captures and the open result cache survive
//! between requests, every sweep runs the offline cell path, and every
//! `SWEEP` response is byte-identical to the offline `apusim replay` stdout
//! for the same corpus. `request` is the matching client: it uploads captures, sends one
//! `SWEEP` for the given files (report to stdout, cache counters to
//! stderr), and can probe (`--ping`), inspect (`--stats`), scrape the
//! Prometheus-style exposition (`--metrics`, body to stdout),
//! garbage-collect (`--gc`), or stop (`--shutdown`) a running server.
//! `cache gc` bounds an offline cache directory by evicting
//! least-recently-used entries.

use mi300a_zerocopy::analysis::paper::{qmc_sweep, PaperConfig};
use mi300a_zerocopy::analysis::timeline::merged_chrome_trace;
use mi300a_zerocopy::analysis::ExperimentConfig;
use mi300a_zerocopy::batch;
use mi300a_zerocopy::hsa::Topology;
use mi300a_zerocopy::mem::{CostModel, DiscreteSpec, SystemKind};
use mi300a_zerocopy::omp::{
    replay, replay_threads, telemetry, MapIr, OmpRuntime, RunEnv, RunReport, RuntimeConfig,
    TelemetryMode,
};
use mi300a_zerocopy::workloads::{
    spec::{Bt, Ep, Lbm, SpC, Stencil},
    MiniCg, NioSize, OpenFoamMini, QmcPack, Stream, Workload,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  apusim list\n  apusim costs\n  apusim sweep [--sizes 2,8,32] [--threads 1,4,8] [--steps N] [--jobs N]\n  apusim env [--no-apu] [--no-xnack] [--apu-maps] [--eager] [--usm]\n  apusim run <workload> [--config copy|usm|izc|eager] [--threads N] [--scale F] [--steps N] [--discrete] [--mem-report] [--trace FILE [--trace-format chrome|jsonl]] [--capture FILE.mapir]\n  apusim replay FILE.mapir... [--config copy|usm|izc|eager] [--elide off|online|plan|opt] [--jobs N] [--cache DIR|off] [--trace FILE [--trace-format chrome|jsonl]]\n  apusim optimize IN.mapir [-o OUT.mapir] [--report]\n  apusim check [--json] [NAME]\n  apusim serve [--socket PATH | --tcp ADDR] [--jobs N] [--cache DIR|off] [--cache-max-bytes SIZE] [--max-inflight N] [--timeout-ms N]\n  apusim request [--socket PATH | --tcp ADDR] [FILE.mapir...] [--config C] [--elide K] [--telemetry K] [--fault SEED] [--preset P] [--ping] [--stats] [--metrics] [--gc] [--shutdown]\n  apusim cache gc [--cache DIR] [--max-bytes SIZE] [--dry-run]"
    );
    std::process::exit(2);
}

/// Parse a shared mode token through its one `FromStr` surface, exiting
/// with the canonical diagnostic on rejection.
fn parse_mode<T>(s: &str) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    s.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

fn parse_config(s: &str) -> RuntimeConfig {
    parse_mode(s)
}

fn parse_trace_format(s: &str) -> &'static str {
    match s {
        "chrome" => "chrome",
        "jsonl" => "jsonl",
        other => {
            eprintln!("unknown trace format '{other}' (chrome | jsonl)");
            usage()
        }
    }
}

/// Render and write the requested trace sink. The event and drop counts are
/// printed here and embedded in the sink's own header, so ring overflow is
/// never silent.
fn write_trace(
    path: &str,
    format: &str,
    report: &RunReport,
) -> Result<(), Box<dyn std::error::Error>> {
    let telemetry = report
        .telemetry
        .as_ref()
        .expect("--trace builds the runtime with the telemetry ring on");
    let (out, hint) = match format {
        "jsonl" => (telemetry::to_jsonl(telemetry), ""),
        _ => (
            merged_chrome_trace(&report.schedule, telemetry),
            " — open in chrome://tracing or Perfetto",
        ),
    };
    std::fs::write(path, out)?;
    println!(
        "\nwrote {format} trace to {path}: {} event(s), {} dropped{hint}",
        telemetry.events.len(),
        telemetry.dropped_events
    );
    Ok(())
}

fn make_workload(name: &str, scale: f64, steps: usize) -> Option<Box<dyn Workload>> {
    if let Some(s_factor) = name
        .strip_prefix("qmcpack-s")
        .or_else(|| name.strip_prefix("nio-s"))
    {
        let factor: u32 = s_factor.parse().ok()?;
        return Some(Box::new(QmcPack::nio(NioSize { factor }).with_steps(steps)));
    }
    match name {
        "stencil" | "403.stencil" => Some(Box::new(Stencil::scaled(scale))),
        "lbm" | "404.lbm" => Some(Box::new(Lbm::scaled(scale))),
        "ep" | "452.ep" => Some(Box::new(Ep::scaled(scale))),
        "spc" | "457.spC" => Some(Box::new(SpC::scaled(scale))),
        "bt" | "470.bt" => Some(Box::new(Bt::scaled(scale))),
        "stream" | "babelstream" => Some(Box::new(Stream::scaled(scale))),
        "openfoam" | "openfoam-mini" => Some(Box::new(OpenFoamMini::scaled(scale))),
        "cg" | "mini-cg" => Some(Box::new(MiniCg::scaled(scale))),
        "cg-nowait" => Some(Box::new(MiniCg::scaled(scale).with_nowait())),
        _ => None,
    }
}

fn cmd_list() {
    println!("workloads:");
    println!("  qmcpack-s<N>   mini-QMCPack NiO, N in {{2,4,8,16,24,32,64,128}} (--steps)");
    println!("  stencil        403.stencil analog (--scale)");
    println!("  lbm            404.lbm analog (--scale)");
    println!("  ep             452.ep analog (--scale)");
    println!("  spc            457.spC analog (--scale)");
    println!("  bt             470.bt analog (--scale)");
    println!("  stream         BabelStream-style microbenchmark (--scale)");
    println!("  openfoam       unified_shared_memory mini-solver (--scale; izc/usm only)");
    println!("  cg, cg-nowait  HPCG-class CG solver, optionally nowait-pipelined (--scale)");
    println!("configs: copy | usm | izc | eager");
}

fn cmd_costs() {
    let c = CostModel::mi300a();
    println!("CostModel::mi300a() — calibrated preset (see crates/mem/src/cost.rs)");
    println!("  page size                    {}", c.page_size);
    println!(
        "  HBM copy bandwidth           {} GiB/s",
        c.hbm_copy_bandwidth >> 30
    );
    println!(
        "  copy submit / handler        {} / {}",
        c.copy_submit, c.copy_handler
    );
    println!("  kernel dispatch              {}", c.kernel_dispatch);
    println!("  signal wait service          {}", c.signal_wait_service);
    println!("  runtime-stack call service   {}", c.runtime_call_service);
    println!(
        "  pool alloc base / per page   {} / {}",
        c.pool_alloc_base, c.pool_alloc_per_page
    );
    println!(
        "  pool free base / per page    {} / {}",
        c.pool_free_base, c.pool_free_per_page
    );
    println!("  XNACK fault base             {}", c.xnack_fault_base);
    println!("  XNACK replay per page        {}", c.xnack_replay_per_page);
    println!(
        "  GPU zero-fill per page       {}",
        c.xnack_zero_fill_per_page
    );
    println!("  prefault syscall             {}", c.prefault_syscall);
    println!(
        "  prefault insert per page     {}",
        c.prefault_insert_per_page
    );
    println!(
        "  prefault zero-fill per page  {}",
        c.prefault_zero_fill_per_page
    );
    println!(
        "  prefault check per page      {}",
        c.prefault_check_per_page
    );
    println!(
        "  TLB miss / entries           {} / {}",
        c.tlb_miss, c.gpu_tlb_entries
    );
}

fn cmd_env(args: &[String]) {
    let mut env = RunEnv::mi300a();
    for a in args {
        match a.as_str() {
            "--no-apu" => env.is_apu = false,
            "--no-xnack" => env.hsa_xnack = false,
            "--apu-maps" => env.ompx_apu_maps = true,
            "--eager" => env.eager_maps = true,
            "--usm" => env.requires_usm = true,
            _ => usage(),
        }
    }
    println!(
        "environment: is_apu={} HSA_XNACK={} OMPX_APU_MAPS={} eager={} requires_usm={}",
        env.is_apu, env.hsa_xnack, env.ompx_apu_maps, env.eager_maps, env.requires_usm
    );
    match env.resolve() {
        Some(config) => println!("resolved configuration: {config}"),
        None => println!("UNSUPPORTED: unified_shared_memory binary without XNACK support"),
    }
}

fn cmd_sweep(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut sizes = vec![2u32, 8, 32];
    let mut threads = vec![1usize, 4, 8];
    let mut steps = 150usize;
    let mut jobs = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "-j" => jobs = it.next().unwrap_or_else(|| usage()).parse()?,
            "--sizes" => {
                sizes = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|v| v.parse())
                    .collect::<Result<_, _>>()?;
            }
            "--threads" => {
                threads = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|v| v.parse())
                    .collect::<Result<_, _>>()?;
            }
            "--steps" => steps = it.next().unwrap_or_else(|| usage()).parse()?,
            _ => usage(),
        }
    }
    let cfg = PaperConfig {
        exp: ExperimentConfig::noiseless(),
        qmc_steps: steps,
        qmc_repeats: 1,
        sizes: sizes
            .iter()
            .map(|&factor| mi300a_zerocopy::workloads::NioSize { factor })
            .collect(),
        threads: threads.clone(),
        spec_scale: 0.04,
        table1_steps: 100,
        jobs,
    };
    let cells = qmc_sweep(&cfg)?;
    println!(
        "QMCPack Copy/zero-copy ratio sweep ({} steps/thread, noiseless)\n",
        steps
    );
    println!(
        "{:>6} {:>8} | {:>12} {:>8} {:>12}",
        "size", "threads", "Implicit Z-C", "USM", "Eager Maps"
    );
    for c in &cells {
        println!(
            "{:>6} {:>8} | {:>12.2} {:>8.2} {:>12.2}",
            c.size.label(),
            c.threads,
            c.ratio_of(RuntimeConfig::ImplicitZeroCopy),
            c.ratio_of(RuntimeConfig::UnifiedSharedMemory),
            c.ratio_of(RuntimeConfig::EagerMaps)
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(name) = args.first() else { usage() };
    let mut config = RuntimeConfig::ImplicitZeroCopy;
    let mut threads = 1usize;
    let mut scale = 0.1f64;
    let mut steps = 100usize;
    let mut discrete = false;
    let mut mem_report = false;
    let mut trace_path: Option<String> = None;
    let mut trace_format = "chrome";
    let mut capture_path: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => config = parse_config(it.next().unwrap_or_else(|| usage())),
            "--threads" => threads = it.next().unwrap_or_else(|| usage()).parse()?,
            "--scale" => scale = it.next().unwrap_or_else(|| usage()).parse()?,
            "--steps" => steps = it.next().unwrap_or_else(|| usage()).parse()?,
            "--discrete" => discrete = true,
            "--mem-report" => mem_report = true,
            "--trace" => trace_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--trace-format" => {
                trace_format = parse_trace_format(it.next().unwrap_or_else(|| usage()));
            }
            "--capture" => capture_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            _ => usage(),
        }
    }
    let Some(w) = make_workload(name, scale, steps) else {
        eprintln!("unknown workload '{name}' (try `apusim list`)");
        std::process::exit(2);
    };
    let kind = if discrete {
        SystemKind::Discrete(DiscreteSpec::mi200_class())
    } else {
        SystemKind::Apu
    };
    let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
        .config(config)
        .system(kind)
        .threads(threads)
        .telemetry(if trace_path.is_some() {
            TelemetryMode::ring()
        } else {
            TelemetryMode::Off
        })
        .build()?;
    w.run(&mut rt)?;
    let mem_snapshot = mem_report.then(|| mi300a_zerocopy::mem::MemoryReport::capture(rt.mem()));
    let report = rt.finish();

    println!(
        "{} | {} | {} host thread(s) | {}",
        w.name(),
        config,
        threads,
        if discrete {
            "discrete GPU"
        } else {
            "MI300A APU"
        }
    );
    println!("makespan: {}\n", report.makespan);
    println!("{}", report.ledger);
    println!("{}", report.api_stats);
    for rs in report.schedule.resource_stats() {
        println!(
            "resource {:<16} busy {:>12} ({:>5.1}% utilization)",
            rs.name,
            rs.busy.to_string(),
            100.0 * rs.utilization(report.makespan)
        );
    }
    if let Some(snapshot) = mem_snapshot {
        println!("\n{snapshot}");
    }
    if let Some(path) = trace_path {
        write_trace(&path, trace_format, &report)?;
    }
    if let Some(path) = capture_path {
        // Captures record the op stream, not the timing, so they always run
        // under the zero-copy capture configuration regardless of --config.
        let ir = mi300a_zerocopy::mapcheck::capture_workload(w.as_ref(), threads)?;
        std::fs::write(&path, ir.to_text())?;
        println!("\nwrote MapIR capture to {path} (re-execute with `apusim replay`)");
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut paths: Vec<String> = Vec::new();
    let mut config = RuntimeConfig::ImplicitZeroCopy;
    let mut elide_arg = String::from("off");
    let mut trace_path: Option<String> = None;
    let mut trace_format = "chrome";
    let mut jobs: Option<usize> = None;
    let mut cache_arg: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => config = parse_config(it.next().unwrap_or_else(|| usage())),
            "--elide" => elide_arg = it.next().unwrap_or_else(|| usage()).clone(),
            "--trace" => trace_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--trace-format" => {
                trace_format = parse_trace_format(it.next().unwrap_or_else(|| usage()));
            }
            "--jobs" | "-j" => jobs = Some(it.next().unwrap_or_else(|| usage()).parse()?),
            "--cache" => cache_arg = Some(it.next().unwrap_or_else(|| usage()).clone()),
            other if !other.starts_with("--") => paths.push(other.to_string()),
            _ => usage(),
        }
    }
    if paths.is_empty() {
        usage()
    }
    // More than one capture, or an explicit --jobs/--cache, routes through
    // the batch driver; a plain single-file replay keeps the detailed
    // single-run output below.
    if paths.len() > 1 || jobs.is_some() || cache_arg.is_some() {
        if trace_path.is_some() {
            eprintln!("--trace applies to single-file replay only");
            usage();
        }
        return cmd_replay_batch(&paths, config, &elide_arg, jobs.unwrap_or(1), cache_arg);
    }
    // The same request and cell recipe a batch cell runs: the request gate
    // refuses configurations the capture cannot run under, and `opt`
    // rewrites the program before replay.
    let path = &paths[0];
    let ir = MapIr::parse(&std::fs::read_to_string(path)?)?;
    let req = batch::SweepRequest::builder(path.clone(), std::sync::Arc::new(ir))
        .config(config)
        .elide(parse_mode(&elide_arg))
        .telemetry(if trace_path.is_some() {
            batch::TelemetryKind::Ring
        } else {
            batch::TelemetryKind::Off
        })
        .build()?;
    let (model, elide) = batch::derive_inputs(&req);
    let (program, builder) = batch::cell_recipe(&req, model, elide);
    let threads = replay_threads(&program);
    let mut rt = builder.build()?;
    let outcome = replay(&mut rt, &program)?;
    let digest = rt.memory_digest();
    let diagnostics = rt.sanitizer_finalize().to_vec();
    let report = rt.finish();

    println!(
        "{path} | {config} | {threads} host thread(s) | {} ops, {} kernels replayed",
        outcome.ops, outcome.kernels
    );
    println!("makespan: {}", report.makespan);
    println!("memory digest: {digest:#018x}\n");
    println!("{}", report.ledger);
    if diagnostics.is_empty() {
        println!("sanitizer: clean");
    } else {
        println!("sanitizer: {} diagnostic(s)", diagnostics.len());
        for d in &diagnostics {
            println!("  {d}");
        }
    }
    if let Some(path) = trace_path {
        write_trace(&path, trace_format, &report)?;
    }
    Ok(())
}

/// `apusim replay` over several captures (or with `--jobs`/`--cache`): each
/// file becomes one [`SweepRequest`](batch::SweepRequest) and the corpus
/// runs on the work-stealing driver with the result cache around each cell.
/// The stdout report is byte-identical for any job count and any cache
/// state; cache statistics go to stderr.
fn cmd_replay_batch(
    paths: &[String],
    config: RuntimeConfig,
    elide_arg: &str,
    jobs: usize,
    cache_arg: Option<String>,
) -> Result<(), Box<dyn std::error::Error>> {
    let elide: batch::ElideKind = parse_mode(elide_arg);
    let mut corpus = Vec::with_capacity(paths.len());
    for path in paths {
        let ir = MapIr::parse(&std::fs::read_to_string(path)?)?;
        corpus.push(
            batch::SweepRequest::builder(path.clone(), std::sync::Arc::new(ir))
                .config(config)
                .elide(elide)
                .build()?,
        );
    }
    let cache = match cache_arg {
        Some(arg) => parse_mode(&arg),
        None => batch::CacheMode::default_dir(std::path::Path::new(".")),
    };
    let outcome = batch::run_sweep(&corpus, jobs.max(1), &cache)?;
    print!("{}", batch::render_report(&corpus, &outcome.results));
    eprintln!(
        "cache: {} hit(s), {} simulated ({:.0}% hit rate)",
        outcome.stats.hits,
        outcome.stats.simulated,
        100.0 * outcome.stats.hit_rate()
    );
    Ok(())
}

/// `apusim optimize`: run the whole-program static optimizer over one
/// capture and rank the admissible configurations by replaying the
/// rewrite. Writes the rewritten capture with `-o` (stdout report either
/// way); `--report` adds the per-config equivalence evidence. Exit codes:
/// 0 optimized, 2 ill-formed input (refused, never rewritten) or usage.
fn cmd_optimize(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut report = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => output = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--report" => report = true,
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(other.to_string());
            }
            _ => usage(),
        }
    }
    let Some(input) = input else { usage() };
    let ir = MapIr::parse(&std::fs::read_to_string(&input)?)?;
    let opt = match mi300a_zerocopy::mapcheck::optimize(&ir) {
        Ok(opt) => opt,
        Err(e) => {
            eprintln!("apusim optimize: {input}: {e}");
            std::process::exit(2);
        }
    };
    println!("{input}: {}", opt.report);
    let configs = mi300a_zerocopy::mapcheck::admissible_configs(&ir);
    let ranking = mi300a_zerocopy::mapcheck::rank_configs(&opt.ir, &configs)?;
    println!("config ranking (optimized replay, cheapest first):");
    for s in &ranking {
        println!(
            "  {:<6} makespan {:>14}  mm_total {:>14}",
            s.config.token(),
            s.makespan.to_string(),
            s.mm_total.to_string()
        );
    }
    if let Some(best) = ranking.first() {
        println!("recommended: {}", best.config.token());
    }
    if report {
        println!("equivalence (baseline vs optimized replay):");
        for config in configs {
            let eq = mi300a_zerocopy::mapcheck::verify_equivalence(&ir, &opt.ir, config)?;
            println!(
                "  {:<6} {}  digest {:#018x}  kernels {}  mm {} -> {} (saved {})",
                config.token(),
                if eq.holds() { "ok" } else { "BROKEN" },
                eq.optimized.digest,
                eq.optimized.kernels,
                eq.baseline.mm_total,
                eq.optimized.mm_total,
                eq.mm_saved()
            );
        }
    }
    if let Some(out) = output {
        std::fs::write(&out, opt.ir.to_text())?;
        println!(
            "wrote optimized capture to {out}: {} record(s) (was {})",
            opt.ir.records.len(),
            ir.records.len()
        );
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> ! {
    let mut json = false;
    let mut filter: Option<String> = None;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            other if !other.starts_with("--") && filter.is_none() => {
                filter = Some(other.to_string());
            }
            _ => usage(),
        }
    }
    let cells = match mi300a_zerocopy::mapcheck::check_all(filter.as_deref()) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("apusim check: capture failed: {e}");
            std::process::exit(1);
        }
    };
    if cells.is_empty() {
        eprintln!(
            "apusim check: no shipped workload matches '{}'",
            filter.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }
    if json {
        println!("{}", mi300a_zerocopy::mapcheck::render_json(&cells));
    } else {
        print!("{}", mi300a_zerocopy::mapcheck::render_text(&cells));
    }
    std::process::exit(if mi300a_zerocopy::mapcheck::has_errors(&cells) {
        1
    } else {
        0
    });
}

/// Conventional socket path `apusim serve` binds and `apusim request`
/// dials when neither `--socket` nor `--tcp` is given.
const DEFAULT_SOCKET: &str = ".apusim-serve.sock";

/// Parse a byte size with an optional `K`/`M`/`G` suffix (powers of 1024).
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1u64 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1u64 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1u64),
    };
    digits.parse::<u64>().ok().and_then(|n| n.checked_mul(mult))
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut socket = String::from(DEFAULT_SOCKET);
    let mut tcp: Option<String> = None;
    let mut cfg = batch::ServerConfig {
        cache: batch::CacheMode::default_dir(std::path::Path::new(".")),
        ..batch::ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().unwrap_or_else(|| usage()).clone(),
            "--tcp" => tcp = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--jobs" | "-j" => cfg.jobs = it.next().unwrap_or_else(|| usage()).parse()?,
            "--cache" => cfg.cache = parse_mode(it.next().unwrap_or_else(|| usage())),
            "--cache-max-bytes" => {
                cfg.cache_max_bytes = Some(
                    parse_size(it.next().unwrap_or_else(|| usage())).unwrap_or_else(|| {
                        eprintln!("bad --cache-max-bytes (want N, NK, NM, or NG)");
                        usage()
                    }),
                );
            }
            "--max-inflight" => cfg.max_inflight = it.next().unwrap_or_else(|| usage()).parse()?,
            "--timeout-ms" => {
                cfg.timeout =
                    std::time::Duration::from_millis(it.next().unwrap_or_else(|| usage()).parse()?);
            }
            _ => usage(),
        }
    }
    let server = match &tcp {
        Some(addr) => batch::Server::bind_tcp(addr, cfg)?,
        None => batch::Server::bind_unix(std::path::Path::new(&socket), cfg)?,
    };
    match server.tcp_addr() {
        Some(addr) => eprintln!("apusim serve: listening on tcp {addr}"),
        None => eprintln!("apusim serve: listening on {socket}"),
    }
    eprintln!("apusim serve: stop with `apusim request --shutdown`");
    server.run()?;
    eprintln!("apusim serve: drained, exiting");
    Ok(())
}

/// The `key=value` pairs of an `OK` response header, one line.
fn info_line(resp: &batch::Response) -> String {
    match resp {
        batch::Response::Ok { verb, info, .. } => {
            let mut line = verb.lower().to_string();
            for (k, v) in info {
                line.push_str(&format!(" {k}={v}"));
            }
            line
        }
        batch::Response::Err { message } => format!("error: {message}"),
        batch::Response::Busy { in_flight, max } => format!("busy: {in_flight}/{max} in flight"),
    }
}

/// Fail fast on anything but `OK`: server errors and `BUSY` rejections
/// become a nonzero exit, never a silent partial result.
fn expect_ok(resp: batch::Response) -> batch::Response {
    match resp {
        ok @ batch::Response::Ok { .. } => ok,
        other => {
            eprintln!("apusim request: {}", info_line(&other));
            std::process::exit(1);
        }
    }
}

fn cmd_request(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut socket = String::from(DEFAULT_SOCKET);
    let mut tcp: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut config = RuntimeConfig::ImplicitZeroCopy;
    let mut elide = batch::ElideKind::Off;
    let mut telemetry = batch::TelemetryKind::Off;
    let mut preset = batch::CostPreset::Mi300a;
    let mut fault: Option<u64> = None;
    let (mut ping, mut stats, mut gc, mut shutdown) = (false, false, false, false);
    let mut metrics = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().unwrap_or_else(|| usage()).clone(),
            "--tcp" => tcp = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--config" => config = parse_config(it.next().unwrap_or_else(|| usage())),
            "--elide" => elide = parse_mode(it.next().unwrap_or_else(|| usage())),
            "--telemetry" => telemetry = parse_mode(it.next().unwrap_or_else(|| usage())),
            "--preset" => preset = parse_mode(it.next().unwrap_or_else(|| usage())),
            "--fault" => fault = Some(it.next().unwrap_or_else(|| usage()).parse()?),
            "--ping" => ping = true,
            "--stats" => stats = true,
            "--metrics" => metrics = true,
            "--gc" => gc = true,
            "--shutdown" => shutdown = true,
            other if !other.starts_with("--") => paths.push(other.to_string()),
            _ => usage(),
        }
    }
    if paths.is_empty() && !(ping || stats || metrics || gc || shutdown) {
        usage();
    }
    let mut client = match &tcp {
        Some(addr) => batch::Client::connect_tcp(addr)?,
        None => batch::Client::connect_unix(std::path::Path::new(&socket))?,
    };
    if ping {
        let resp = expect_ok(client.ping()?);
        eprintln!("{}", info_line(&resp));
    }
    if !paths.is_empty() {
        // Upload each capture, then one SWEEP over all of them — the exact
        // corpus `apusim replay FILE...` builds, so the stdout report is
        // byte-identical to the offline path.
        let mut cells = Vec::with_capacity(paths.len());
        for path in &paths {
            let text = std::fs::read_to_string(path)?;
            expect_ok(client.capture(&text)?);
            let ir = MapIr::parse(&text)?;
            let mut b = batch::SweepRequest::builder(path.clone(), std::sync::Arc::new(ir))
                .preset(preset)
                .config(config)
                .elide(elide)
                .telemetry(telemetry);
            if let Some(seed) = fault {
                b = b.fault_seed(seed);
            }
            cells.push((path.clone(), b.build()?));
        }
        let resp = expect_ok(client.sweep(&cells)?);
        eprintln!("{}", info_line(&resp));
        if let batch::Response::Ok { body, .. } = resp {
            print!("{body}");
        }
    }
    if stats {
        let resp = expect_ok(client.stats()?);
        println!("{}", info_line(&resp));
    }
    if metrics {
        // The exposition body is the payload; the family count goes to
        // stderr with the rest of the response headers.
        let resp = expect_ok(client.metrics()?);
        eprintln!("{}", info_line(&resp));
        if let batch::Response::Ok { body, .. } = resp {
            print!("{body}");
        }
    }
    if gc {
        let resp = expect_ok(client.gc()?);
        println!("{}", info_line(&resp));
    }
    if shutdown {
        let resp = expect_ok(client.shutdown()?);
        eprintln!("{}", info_line(&resp));
    }
    Ok(())
}

fn cmd_cache(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.first().map(String::as_str) != Some("gc") {
        usage();
    }
    let mut cache = batch::CacheMode::default_dir(std::path::Path::new("."));
    let mut max_bytes: u64 = 256 << 20;
    let mut dry_run = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache" => cache = parse_mode(it.next().unwrap_or_else(|| usage())),
            "--max-bytes" => {
                max_bytes = parse_size(it.next().unwrap_or_else(|| usage())).unwrap_or_else(|| {
                    eprintln!("bad --max-bytes (want N, NK, NM, or NG)");
                    usage()
                });
            }
            "--dry-run" => dry_run = true,
            _ => usage(),
        }
    }
    let summary = batch::ResultCache::open(&cache).gc(max_bytes, dry_run)?;
    println!("{summary}");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("costs") => cmd_costs(),
        Some("env") => cmd_env(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..])?,
        Some("run") => cmd_run(&args[1..])?,
        Some("replay") => cmd_replay(&args[1..])?,
        Some("optimize") => cmd_optimize(&args[1..])?,
        Some("check") => cmd_check(&args[1..]),
        Some("serve") => cmd_serve(&args[1..])?,
        Some("request") => cmd_request(&args[1..])?,
        Some("cache") => cmd_cache(&args[1..])?,
        _ => usage(),
    }
    Ok(())
}

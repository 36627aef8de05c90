//! Builders for every table and figure in the paper's evaluation (§V).
//!
//! Each function regenerates one artifact:
//!
//! * [`fig3`] — QMCPack Copy/zero-copy ratios vs OpenMP threads, one figure
//!   per NiO problem size.
//! * [`fig4`] — the same data sliced at 8 threads, ratio vs problem size.
//! * [`table1`] — HSA API call statistics for QMCPack S2, Copy vs Implicit
//!   Zero-Copy, at 1 and 8 threads.
//! * [`table2`] — SPECaccel Copy/zero-copy ratios for the five benchmarks.
//! * [`table3`] — MM/MI overhead orders for 403.stencil and 452.ep.
//! * [`ablation_eager_maps`], [`ablation_streaming`] and
//!   [`ablation_page_size`] — one mechanism each behind the paper's
//!   explanations: the prefault syscall floor, DMA latency hiding, and THP.

use crate::experiment::{measure, measure_all_configs, ratio, ExperimentConfig, Measurement};
use crate::figure::Figure;
use crate::stats::order_of_magnitude_us;
use crate::table::Table;
use apu_mem::PageSize;
use hsa_rocr::HsaApiKind;
use omp_offload::telemetry::{attribution, AttributionReport};
use omp_offload::{ElideMode, OmpError, RuntimeConfig, TelemetryMode};
use sim_des::{NoiseModel, VirtDuration};
use workloads::{spec, MiniCg, NioSize, QmcPack, Stream, Workload};

/// Scope of a reproduction pass.
#[derive(Debug, Clone)]
pub struct PaperConfig {
    /// Shared run settings (cost model, topology, repeats, noise).
    pub exp: ExperimentConfig,
    /// QMCPack MC steps per thread for the figures.
    pub qmc_steps: usize,
    /// Repeats for QMCPack (the paper uses 4; SPECaccel 8).
    pub qmc_repeats: usize,
    /// NiO sizes to sweep.
    pub sizes: Vec<NioSize>,
    /// Host-thread counts to sweep.
    pub threads: Vec<usize>,
    /// SPECaccel benchmark scale (1.0 = ref-like).
    pub spec_scale: f64,
    /// QMCPack steps for the Table I call-count run.
    pub table1_steps: usize,
    /// Sweep worker count (`repro --jobs`; `0` is one per core, as
    /// [`omp_batch::resolve_jobs`] reads every `--jobs`).
    /// Whatever the value, sweep outputs are byte-identical — the batch
    /// driver launders the schedule out (see `omp_batch`).
    pub jobs: usize,
}

impl PaperConfig {
    /// Full reproduction: every size, 1–8 threads, ref-scale SPECaccel.
    pub fn full() -> Self {
        PaperConfig {
            exp: ExperimentConfig::default(),
            qmc_steps: 400,
            qmc_repeats: 4,
            sizes: NioSize::ALL.to_vec(),
            threads: vec![1, 2, 4, 8],
            spec_scale: 1.0,
            table1_steps: 4000,
            jobs: 0,
        }
    }

    /// Fast pass for tests and smoke runs (minutes → seconds).
    pub fn quick() -> Self {
        PaperConfig {
            exp: ExperimentConfig {
                repeats: 2,
                ..ExperimentConfig::default()
            },
            qmc_steps: 60,
            qmc_repeats: 2,
            sizes: vec![
                NioSize { factor: 2 },
                NioSize { factor: 8 },
                NioSize { factor: 32 },
            ],
            threads: vec![1, 4],
            spec_scale: 0.04,
            table1_steps: 150,
            jobs: 0,
        }
    }

    fn qmc_exp(&self) -> ExperimentConfig {
        ExperimentConfig {
            repeats: self.qmc_repeats,
            ..self.exp.clone()
        }
    }

    fn max_threads(&self) -> usize {
        self.threads.iter().copied().max().unwrap_or(1)
    }
}

/// One QMCPack measurement cell.
pub struct QmcCell {
    /// NiO size.
    pub size: NioSize,
    /// Host threads.
    pub threads: usize,
    /// Measurements in `RuntimeConfig::ALL` order.
    pub measurements: Vec<Measurement>,
}

impl QmcCell {
    /// Copy-to-`config` median ratio.
    pub fn ratio_of(&self, config: RuntimeConfig) -> f64 {
        let copy = &self.measurements[0];
        let other = self
            .measurements
            .iter()
            .find(|m| m.config == config)
            .expect("all configs measured");
        ratio(copy, other)
    }
}

/// The full QMCPack sweep behind Figures 3 and 4.
///
/// Cells run on the batch subsystem's work-stealing driver
/// ([`omp_batch::drive`]) — each cell owns its entire simulated machine, so
/// the sweep is embarrassingly parallel, and the driver restores injection
/// order on the way out, so results stay bit-identical to a sequential pass
/// at any `--jobs` count.
pub fn qmc_sweep(cfg: &PaperConfig) -> Result<Vec<QmcCell>, OmpError> {
    let exp = cfg.qmc_exp();
    let mut grid: Vec<(NioSize, usize)> = Vec::new();
    for &size in &cfg.sizes {
        for &threads in &cfg.threads {
            grid.push((size, threads));
        }
    }
    omp_batch::drive(grid.len(), omp_batch::resolve_jobs(cfg.jobs), |i| {
        let (size, threads) = grid[i];
        let w = QmcPack::nio(size).with_steps(cfg.qmc_steps);
        measure_all_configs(&w, threads, &exp).map(|measurements| QmcCell {
            size,
            threads,
            measurements,
        })
    })
    .into_iter()
    .collect()
}

/// Figure 3: one ratio-vs-threads figure per problem size.
pub fn fig3_from_cells(cells: &[QmcCell], cfg: &PaperConfig) -> Vec<Figure> {
    cfg.sizes
        .iter()
        .map(|&size| {
            let mut fig = Figure::new(
                format!(
                    "Fig. 3 ({}): Copy / zero-copy execution-time ratio vs OpenMP threads",
                    size.label()
                ),
                "OpenMP host threads",
                "ratio (higher = zero-copy wins)",
            );
            for config in RuntimeConfig::ZERO_COPY {
                let pts: Vec<(f64, f64)> = cells
                    .iter()
                    .filter(|c| c.size == size)
                    .map(|c| (c.threads as f64, c.ratio_of(config)))
                    .collect();
                fig.push_series(config.label(), pts);
            }
            fig
        })
        .collect()
}

/// Figure 3, computed from scratch.
pub fn fig3(cfg: &PaperConfig) -> Result<Vec<Figure>, OmpError> {
    let cells = qmc_sweep(cfg)?;
    Ok(fig3_from_cells(&cells, cfg))
}

/// Figure 4: ratio vs problem size at the highest thread count.
pub fn fig4_from_cells(cells: &[QmcCell], cfg: &PaperConfig) -> Figure {
    let threads = cfg.max_threads();
    let mut fig = Figure::new(
        format!("Fig. 4: Copy / zero-copy ratio vs problem size ({threads} OpenMP threads)"),
        "NiO problem size (S-factor)",
        "ratio (higher = zero-copy wins)",
    );
    for config in RuntimeConfig::ZERO_COPY {
        let pts: Vec<(f64, f64)> = cells
            .iter()
            .filter(|c| c.threads == threads)
            .map(|c| (c.size.factor as f64, c.ratio_of(config)))
            .collect();
        fig.push_series(config.label(), pts);
    }
    fig
}

/// Figure 4, computed from scratch.
pub fn fig4(cfg: &PaperConfig) -> Result<Figure, OmpError> {
    let cells = qmc_sweep(cfg)?;
    Ok(fig4_from_cells(&cells, cfg))
}

/// The HSA calls Table I reports.
const TABLE1_CALLS: [(HsaApiKind, &str); 4] = [
    (HsaApiKind::SignalWaitScacquire, "Kernel Completion"),
    (HsaApiKind::MemoryPoolAllocate, "Allocate device memory"),
    (HsaApiKind::MemoryAsyncCopy, "Memory copy"),
    (HsaApiKind::SignalAsyncHandler, "Memory copy"),
];

/// Table I: HSA API call statistics for QMCPack S2, Copy vs Implicit
/// Zero-Copy, at 1 and `max_threads` OpenMP threads.
pub fn table1(cfg: &PaperConfig) -> Result<Table, OmpError> {
    let exp = ExperimentConfig {
        repeats: 1,
        ..cfg.exp.clone()
    };
    let w = QmcPack::nio(NioSize { factor: 2 }).with_steps(cfg.table1_steps);
    let tmax = cfg.max_threads();
    let copy_1 = measure(&w, RuntimeConfig::LegacyCopy, 1, &exp)?;
    let izc_1 = measure(&w, RuntimeConfig::ImplicitZeroCopy, 1, &exp)?;
    let copy_n = measure(&w, RuntimeConfig::LegacyCopy, tmax, &exp)?;
    let izc_n = measure(&w, RuntimeConfig::ImplicitZeroCopy, tmax, &exp)?;

    let mut t = Table::new(
        format!(
            "Table I: HSA API call statistics, QMCPack S2, Copy vs Implicit Z-C (1 and {tmax} threads)"
        ),
        &[
            "ROCr/HSA Call",
            "Used for",
            "#Calls Copy(1T)",
            "#Calls IZC(1T)",
            "Lat ratio(1T)",
            &format!("#Calls Copy({tmax}T)"),
            &format!("#Calls IZC({tmax}T)"),
            &format!("Lat ratio({tmax}T)"),
        ],
    );
    let fmt_ratio = |r: Option<f64>| match r {
        Some(v) if v >= 1000.0 => format!("{:.2e}", v),
        Some(v) => format!("{v:.2}"),
        None => "N/A".to_string(),
    };
    for (kind, used_for) in TABLE1_CALLS {
        t.push_row(vec![
            kind.symbol().to_string(),
            used_for.to_string(),
            copy_1.report.api_stats.get(kind).calls.to_string(),
            izc_1.report.api_stats.get(kind).calls.to_string(),
            fmt_ratio(
                copy_1
                    .report
                    .api_stats
                    .latency_ratio(&izc_1.report.api_stats, kind),
            ),
            copy_n.report.api_stats.get(kind).calls.to_string(),
            izc_n.report.api_stats.get(kind).calls.to_string(),
            fmt_ratio(
                copy_n
                    .report
                    .api_stats
                    .latency_ratio(&izc_n.report.api_stats, kind),
            ),
        ]);
    }
    Ok(t)
}

/// The SPECaccel suite at `scale`.
pub fn spec_suite(scale: f64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(spec::Stencil::scaled(scale)),
        Box::new(spec::Lbm::scaled(scale)),
        Box::new(spec::Ep::scaled(scale)),
        Box::new(spec::SpC::scaled(scale)),
        Box::new(spec::Bt::scaled(scale)),
    ]
}

/// Table II: Copy / zero-copy ratios for the five SPECaccel benchmarks.
/// Also returns the highest CoV observed (the paper reports ≤ 0.03).
pub fn table2(cfg: &PaperConfig) -> Result<(Table, f64), OmpError> {
    let suite = spec_suite(cfg.spec_scale);
    // One driver cell per benchmark; each owns its simulated machines.
    let measured: Vec<Result<(String, Vec<Measurement>), OmpError>> =
        omp_batch::drive(suite.len(), omp_batch::resolve_jobs(cfg.jobs), |i| {
            let w = &suite[i];
            Ok((w.name(), measure_all_configs(w.as_ref(), 1, &cfg.exp)?))
        });
    let mut per_bench: Vec<(String, Vec<Measurement>)> = Vec::new();
    let mut max_cov: f64 = 0.0;
    for r in measured {
        let (name, ms) = r?;
        for m in &ms {
            max_cov = max_cov.max(m.cov());
        }
        per_bench.push((name, ms));
    }
    let mut headers: Vec<&str> = vec!["Benchmark"];
    let names: Vec<String> = per_bench
        .iter()
        .map(|(n, _)| n.split('.').nth(1).unwrap_or(n).to_string())
        .collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    headers.extend(name_refs);
    let mut t = Table::new(
        "Table II: Copy / zero-copy ratios, SPECaccel 2023 C/C++ (ratio > 1: zero-copy wins)",
        &headers,
    );
    for config in RuntimeConfig::ZERO_COPY {
        let mut row = vec![config.label().to_string()];
        for (_, ms) in &per_bench {
            let copy = &ms[0];
            let other = ms.iter().find(|m| m.config == config).expect("measured");
            row.push(format!("{:.2}", ratio(copy, other)));
        }
        t.push_row(row);
    }
    Ok((t, max_cov))
}

/// Table III: MM and MI overhead orders for 403.stencil and 452.ep.
pub fn table3(cfg: &PaperConfig) -> Result<Table, OmpError> {
    let exp = ExperimentConfig {
        repeats: 1,
        ..cfg.exp.clone()
    };
    let stencil = spec::Stencil::scaled(cfg.spec_scale);
    let ep = spec::Ep::scaled(cfg.spec_scale);
    let mut t = Table::new(
        "Table III: overhead orders (microseconds) for 403.stencil and 452.ep",
        &[
            "Configuration",
            "stencil MM",
            "stencil MI",
            "ep MM",
            "ep MI",
        ],
    );
    // The paper groups Implicit Z-C with USM (identical behaviour here).
    let rows: [(&str, RuntimeConfig); 3] = [
        ("Copy", RuntimeConfig::LegacyCopy),
        ("Implicit Z-C or USM", RuntimeConfig::ImplicitZeroCopy),
        ("Eager Maps", RuntimeConfig::EagerMaps),
    ];
    for (label, config) in rows {
        let s = measure(&stencil, config, 1, &exp)?;
        let e = measure(&ep, config, 1, &exp)?;
        t.push_row(vec![
            label.to_string(),
            order_of_magnitude_us(s.report.ledger.mm_total()),
            order_of_magnitude_us(s.report.ledger.mi_total()),
            order_of_magnitude_us(e.report.ledger.mm_total()),
            order_of_magnitude_us(e.report.ledger.mi_total()),
        ]);
    }
    Ok(t)
}

/// One row of the elision delta table: the same workload measured under
/// Copy data handling with elision off and online.
#[derive(Debug)]
pub struct ElisionRow {
    /// Workload name.
    pub workload: String,
    /// MM overhead without elision.
    pub mm_unelided: VirtDuration,
    /// MM overhead with online elision.
    pub mm_elided: VirtDuration,
    /// Map-service time recovered (`mm_unelided − mm_elided`, exactly).
    pub mm_saved: VirtDuration,
    /// Maps promoted to `alloc`.
    pub maps_elided: u64,
    /// Presence-lookup cache hits during the elided run.
    pub cache_hits: u64,
    /// Presence-lookup cache misses during the elided run.
    pub cache_misses: u64,
}

/// Table III elision delta (`repro --table3 --elide`): MM overhead saved by
/// online map elision under Copy data handling for the steady-state
/// workloads, whose per-iteration re-maps of resident extents are exactly
/// the MC007 pattern. Zero-copy configurations fold the map path entirely,
/// so Copy is where the service cost — and the saving — lives.
pub fn table3_elision(cfg: &PaperConfig) -> Result<(Table, Vec<ElisionRow>), OmpError> {
    let exp_off = ExperimentConfig {
        repeats: 1,
        ..cfg.exp.clone()
    };
    let exp_on = ExperimentConfig {
        elide: ElideMode::Online,
        ..exp_off.clone()
    };
    let suite: Vec<Box<dyn Workload>> = vec![
        Box::new(QmcPack::nio(NioSize { factor: 2 }).with_steps(cfg.qmc_steps)),
        Box::new(Stream::scaled(cfg.spec_scale.max(0.02))),
        Box::new(MiniCg::scaled(cfg.spec_scale.max(0.02))),
    ];
    let mut t = Table::new(
        "Table III addendum: map-service time recovered by elision (Copy data handling)",
        &[
            "Workload",
            "MM unelided (us)",
            "MM elided (us)",
            "MM saved (us)",
            "Maps elided",
        ],
    );
    let mut rows = Vec::new();
    for w in &suite {
        let off = measure(w.as_ref(), RuntimeConfig::LegacyCopy, 1, &exp_off)?;
        let on = measure(w.as_ref(), RuntimeConfig::LegacyCopy, 1, &exp_on)?;
        let row = ElisionRow {
            workload: w.name(),
            mm_unelided: off.report.ledger.mm_total(),
            mm_elided: on.report.ledger.mm_total(),
            mm_saved: on.report.ledger.mm_saved,
            maps_elided: on.report.ledger.maps_elided,
            cache_hits: on.report.mapping_cache.0,
            cache_misses: on.report.mapping_cache.1,
        };
        t.push_row(vec![
            row.workload.clone(),
            format!("{:.1}", row.mm_unelided.as_micros_f64()),
            format!("{:.1}", row.mm_elided.as_micros_f64()),
            format!("{:.1}", row.mm_saved.as_micros_f64()),
            row.maps_elided.to_string(),
        ]);
        rows.push(row);
    }
    Ok((t, rows))
}

/// One row of the static-optimizer delta table: the same capture replayed
/// under Copy data handling as-is, with the profile-guided elision plan,
/// and after whole-program optimization.
#[derive(Debug)]
pub struct OptimizeRow {
    /// Workload name.
    pub workload: String,
    /// MM overhead of the unmodified capture's replay.
    pub mm_baseline: VirtDuration,
    /// MM overhead with plan-mode elision (`--elide plan`'s mechanism).
    pub mm_plan: VirtDuration,
    /// MM overhead of the statically optimized capture's replay.
    pub mm_optimized: VirtDuration,
    /// Extents hoisted out of recognized loops.
    pub hoisted: usize,
    /// Dead to-transfers downgraded to `alloc`.
    pub dead_to: usize,
    /// Dead from-transfers deleted.
    pub dead_from: usize,
    /// Redundant `target update` ranges dropped.
    pub updates_dropped: usize,
    /// The optimizer's cheapest-configuration recommendation.
    pub recommended: Option<RuntimeConfig>,
    /// The equivalence contract held under Copy replay.
    pub verified: bool,
}

impl OptimizeRow {
    /// Saving over the plan-elided replay — what static rewriting recovers
    /// *beyond* profile-guided elision (dead from-transfers, hoisted loops).
    pub fn saved_beyond_plan(&self) -> VirtDuration {
        self.mm_plan.saturating_sub(self.mm_optimized)
    }
}

/// Table III optimizer delta (`repro --table3 --optimize`): MM overhead of
/// the steady-state captures replayed under Copy data handling before and
/// after whole-program static optimization, next to what plan-mode elision
/// alone recovers. The optimizer subsumes the plan (rule 2 bakes it in) and
/// goes further — dead from-transfer deletion and loop hoisting are
/// rewrites no elision mode can express — so `MM optimized` is never above
/// `MM plan`, and strictly below it wherever those rules fire.
pub fn table3_optimize(cfg: &PaperConfig) -> Result<(Table, Vec<OptimizeRow>), OmpError> {
    let suite: Vec<Box<dyn Workload>> = vec![
        Box::new(QmcPack::nio(NioSize { factor: 2 }).with_steps(cfg.qmc_steps)),
        Box::new(Stream::scaled(cfg.spec_scale.max(0.02))),
        Box::new(MiniCg::scaled(cfg.spec_scale.max(0.02))),
    ];
    let mut t = Table::new(
        "Table III addendum: map-service time recovered by static optimization (Copy replay)",
        &[
            "Workload",
            "MM baseline (us)",
            "MM plan (us)",
            "MM optimized (us)",
            "Beyond plan (us)",
            "Rewrites",
            "Recommended",
        ],
    );
    let mut rows = Vec::new();
    for w in &suite {
        let ir = omp_mapcheck::capture_workload(w.as_ref(), 1)?;
        let opt = omp_mapcheck::optimize(&ir)
            .expect("shipped workloads are well-formed; the optimizer never refuses them");
        let equivalence =
            omp_mapcheck::verify_equivalence(&ir, &opt.ir, RuntimeConfig::LegacyCopy)?;
        let plan = omp_mapcheck::replay_probe(
            &ir,
            RuntimeConfig::LegacyCopy,
            ElideMode::Plan(omp_mapcheck::elision_plan(&ir)),
            false,
        )?;
        let row = OptimizeRow {
            workload: w.name(),
            mm_baseline: equivalence.baseline.ledger.mm_total(),
            mm_plan: plan.ledger.mm_total(),
            mm_optimized: equivalence.optimized.ledger.mm_total(),
            hoisted: opt.report.hoisted,
            dead_to: opt.report.dead_to,
            dead_from: opt.report.dead_from,
            updates_dropped: opt.report.updates_dropped,
            recommended: omp_mapcheck::rank_configs(
                &opt.ir,
                &omp_mapcheck::admissible_configs(&ir),
            )?
            .first()
            .map(|(config, _)| *config),
            verified: equivalence.holds(),
        };
        t.push_row(vec![
            row.workload.clone(),
            format!("{:.1}", row.mm_baseline.as_micros_f64()),
            format!("{:.1}", row.mm_plan.as_micros_f64()),
            format!("{:.1}", row.mm_optimized.as_micros_f64()),
            format!("{:.1}", row.saved_beyond_plan().as_micros_f64()),
            format!(
                "{}h/{}t/{}f/{}u",
                row.hoisted, row.dead_to, row.dead_from, row.updates_dropped
            ),
            row.recommended
                .map(|c| c.token().to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
        rows.push(row);
    }
    Ok((t, rows))
}

/// Settings for the ablations: single-repeat and noiseless, everything else
/// from `cfg.exp`. Without a fault seed this is exactly
/// [`ExperimentConfig::noiseless`], so each ablation isolates one mechanism.
fn ablation_exp(cfg: &PaperConfig) -> ExperimentConfig {
    ExperimentConfig {
        repeats: 1,
        noise: NoiseModel::NONE,
        ..cfg.exp.clone()
    }
}

/// Eager Maps ablation (paper §V-A.4, §VI): IZC time / EM time for QMCPack
/// S2 (frequent small maps) and 457.spC (bulk re-touch) while sweeping the
/// prefault syscall cost. Above 1, Eager Maps wins.
pub fn ablation_eager_maps(cfg: &PaperConfig) -> Result<Table, OmpError> {
    let qmc = QmcPack::nio(NioSize { factor: 2 }).with_steps(60);
    let spc = spec::SpC::scaled(0.05);
    let mut t = Table::new(
        "Ablation: IZC / EM time vs prefault syscall cost (above 1: Eager Maps wins)",
        &["Syscall (us)", "QMCPack S2 IZC/EM", "457.spC IZC/EM"],
    );
    for syscall_us in [0u64, 1, 3, 10, 30] {
        let mut exp = ablation_exp(cfg);
        exp.cost.prefault_syscall = VirtDuration::from_micros(syscall_us);
        let izc_over_em = |w: &dyn Workload| -> Result<String, OmpError> {
            let izc = measure(w, RuntimeConfig::ImplicitZeroCopy, 1, &exp)?;
            let em = measure(w, RuntimeConfig::EagerMaps, 1, &exp)?;
            Ok(format!("{:.3}", ratio(&izc, &em)))
        };
        t.push_row(vec![
            syscall_us.to_string(),
            izc_over_em(&qmc)?,
            izc_over_em(&spc)?,
        ]);
    }
    Ok(t)
}

/// Streaming ablation (paper §V-A.3): Copy-mode QMCPack S8 makespan as the
/// DMA engine count grows, at 1 and 8 host threads — how much transfer cost
/// multi-threaded streaming hides behind kernels.
pub fn ablation_streaming(cfg: &PaperConfig) -> Result<Table, OmpError> {
    let w = QmcPack::nio(NioSize { factor: 8 }).with_steps(60);
    let mut t = Table::new(
        "Ablation: Copy-mode QMCPack S8 makespan vs DMA engines and threads",
        &["DMA engines", "Threads", "Makespan"],
    );
    for dma_engines in [1usize, 2, 4] {
        let mut exp = ablation_exp(cfg);
        exp.topo.dma_engines = dma_engines;
        for threads in [1usize, 8] {
            let m = measure(&w, RuntimeConfig::LegacyCopy, threads, &exp)?;
            t.push_row(vec![
                dma_engines.to_string(),
                threads.to_string(),
                m.median().to_string(),
            ]);
        }
    }
    Ok(t)
}

/// Page-size ablation (paper §V, THP note): 452.ep first touch on 2 MiB
/// transparent huge pages vs 4 KiB pages under the two zero-copy
/// configurations that pay for it — zero-fill page counts and makespan.
pub fn ablation_page_size(cfg: &PaperConfig) -> Result<Table, OmpError> {
    let w = spec::Ep::scaled(0.01);
    let mut t = Table::new(
        "Ablation: 452.ep first-touch under THP (2MiB) vs 4KiB pages",
        &["Pages", "Config", "Zero-fill pages", "Makespan"],
    );
    for (label, page_size) in [("2MiB", PageSize::Huge), ("4KiB", PageSize::Small)] {
        let mut exp = ablation_exp(cfg);
        exp.cost.page_size = page_size;
        for config in [RuntimeConfig::ImplicitZeroCopy, RuntimeConfig::EagerMaps] {
            let m = measure(&w, config, 1, &exp)?;
            let zero_filled =
                m.report.ledger.zero_filled_pages + m.report.mem_stats.prefault_zero_fill_pages;
            t.push_row(vec![
                label.to_string(),
                config.label().to_string(),
                zero_filled.to_string(),
                m.median().to_string(),
            ]);
        }
    }
    Ok(t)
}

/// Per-site/per-kernel attribution for one (workload, configuration) cell
/// of the profiling pass (`repro --profile`).
#[derive(Debug)]
pub struct ProfileCell {
    /// Configuration profiled.
    pub config: RuntimeConfig,
    /// Workload name.
    pub workload: String,
    /// Attribution folded from the run's telemetry stream — by the
    /// derivability contract, its totals equal the run's ledger exactly.
    pub attribution: AttributionReport,
}

/// Profile the Table III workloads (403.stencil and 452.ep) under every
/// configuration with the telemetry ring on: per-map-site MM charges and
/// per-kernel MI stalls, one cell per (workload, configuration).
pub fn profile_cells(cfg: &PaperConfig) -> Result<Vec<ProfileCell>, OmpError> {
    let exp = ExperimentConfig {
        repeats: 1,
        telemetry: TelemetryMode::ring(),
        ..cfg.exp.clone()
    };
    let suite: Vec<Box<dyn Workload>> = vec![
        Box::new(spec::Stencil::scaled(cfg.spec_scale)),
        Box::new(spec::Ep::scaled(cfg.spec_scale)),
    ];
    let mut out = Vec::new();
    for w in &suite {
        for &config in RuntimeConfig::ALL.iter() {
            let m = measure(w.as_ref(), config, 1, &exp)?;
            let telemetry = m.report.telemetry.as_ref().expect("telemetry ring was on");
            out.push(ProfileCell {
                config,
                workload: w.name(),
                attribution: attribution(telemetry),
            });
        }
    }
    Ok(out)
}

/// CSV of every profiled map site — one row per (workload, configuration,
/// site), sites in attribution order (MM-heaviest first).
pub fn profile_sites_csv(cells: &[ProfileCell]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "workload,config,addr,len,maps,allocs,copies,bytes,elided,\
         mm_alloc_us,mm_copy_us,mm_free_us,mm_prefault_us,mm_map_us,mm_saved_us,mm_total_us\n",
    );
    for c in cells {
        for s in &c.attribution.sites {
            let _ = writeln!(
                out,
                "{},{},0x{:x},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
                c.workload,
                c.config.label(),
                s.range.start.as_u64(),
                s.range.len,
                s.ledger.maps,
                s.allocs,
                s.ledger.copies,
                s.ledger.bytes_copied,
                s.ledger.maps_elided,
                s.ledger.mm_alloc.as_micros_f64(),
                s.ledger.mm_copy.as_micros_f64(),
                s.ledger.mm_free.as_micros_f64(),
                s.ledger.mm_prefault.as_micros_f64(),
                s.ledger.mm_map.as_micros_f64(),
                s.ledger.mm_saved.as_micros_f64(),
                s.ledger.mm_total().as_micros_f64(),
            );
        }
    }
    out
}

/// CSV of every profiled kernel — one row per (workload, configuration,
/// kernel), kernels in attribution order (fault-stall-heaviest first).
pub fn profile_kernels_csv(cells: &[ProfileCell]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "workload,config,kernel,launches,compute_us,fault_stall_us,tlb_stall_us,\
         replayed_pages,zero_filled_pages\n",
    );
    for c in cells {
        for k in &c.attribution.kernels {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.3},{:.3},{:.3},{},{}",
                c.workload,
                c.config.label(),
                k.name,
                k.ledger.kernels,
                k.ledger.kernel_compute.as_micros_f64(),
                k.ledger.mi_fault_stall.as_micros_f64(),
                k.ledger.tlb_stall.as_micros_f64(),
                k.ledger.replayed_pages,
                k.ledger.zero_filled_pages,
            );
        }
    }
    out
}

/// Render a complete markdown reproduction report from artifacts already
/// computed under `cfg`: the QMCPack sweep ([`qmc_sweep`]) and Tables I–III
/// ([`table1`], [`table2`] with its highest CoV, [`table3`]), ready to diff
/// against EXPERIMENTS.md.
pub fn markdown_report(
    cfg: &PaperConfig,
    cells: &[QmcCell],
    t1: &Table,
    t2: &Table,
    max_cov: f64,
    t3: &Table,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Reproduction report\n");
    let _ = writeln!(
        out,
        "Generated by `analysis::paper::markdown_report` ({} sizes, threads {:?}, SPECaccel scale {}, {} repeats).\n",
        cfg.sizes.len(),
        cfg.threads,
        cfg.spec_scale,
        cfg.exp.repeats
    );

    let _ = writeln!(out, "## QMCPack ratios (Figures 3 and 4)\n");
    let mut header = String::from("| Size |");
    for &t in &cfg.threads {
        header.push_str(&format!(" IZC {t}T | EM {t}T |"));
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "|{}", "---|".repeat(1 + 2 * cfg.threads.len()));
    for &size in &cfg.sizes {
        let mut row = format!("| {} |", size.label());
        for &t in &cfg.threads {
            let cell = cells
                .iter()
                .find(|c| c.size == size && c.threads == t)
                .expect("cell measured");
            row.push_str(&format!(
                " {:.2} | {:.2} |",
                cell.ratio_of(RuntimeConfig::ImplicitZeroCopy),
                cell.ratio_of(RuntimeConfig::EagerMaps)
            ));
        }
        let _ = writeln!(out, "{row}");
    }

    let _ = writeln!(out, "\n## Table I (HSA call statistics)\n");
    let _ = writeln!(out, "```\n{t1}```");

    let _ = writeln!(out, "\n## Table II (SPECaccel ratios)\n");
    let _ = writeln!(out, "```\n{t2}```");
    let _ = writeln!(
        out,
        "\nHighest observed CoV: {max_cov:.3} (paper: <= 0.03)."
    );

    let _ = writeln!(out, "\n## Table III (MM/MI overhead orders)\n");
    let _ = writeln!(out, "```\n{t3}```");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_cells_cover_every_config_with_exact_streams() {
        let mut cfg = PaperConfig::quick();
        cfg.spec_scale = 0.02;
        let cells = profile_cells(&cfg).unwrap();
        assert_eq!(cells.len(), 2 * RuntimeConfig::ALL.len());
        for c in &cells {
            assert_eq!(c.attribution.dropped_events, 0);
            assert!(!c.attribution.kernels.is_empty());
            assert!(!c.attribution.sites.is_empty());
        }
        let sites = profile_sites_csv(&cells);
        assert!(sites.starts_with("workload,config,addr,len,"));
        assert!(sites.lines().count() > cells.len());
        let kernels = profile_kernels_csv(&cells);
        assert!(kernels.starts_with("workload,config,kernel,"));
        assert!(kernels.lines().count() > cells.len());
    }

    #[test]
    fn quick_fig3_has_expected_shape() {
        let cfg = PaperConfig::quick();
        let cells = qmc_sweep(&cfg).unwrap();
        assert_eq!(cells.len(), cfg.sizes.len() * cfg.threads.len());
        let figs = fig3_from_cells(&cells, &cfg);
        assert_eq!(figs.len(), cfg.sizes.len());
        assert_eq!(figs[0].series.len(), 3);
        // Zero-copy wins at S2 in every cell.
        for c in cells.iter().filter(|c| c.size.factor == 2) {
            assert!(c.ratio_of(RuntimeConfig::ImplicitZeroCopy) > 1.0);
        }
    }

    #[test]
    fn spec_suite_matches_table_order() {
        let names: Vec<String> = spec_suite(0.01).iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec!["403.stencil", "404.lbm", "452.ep", "457.spC", "470.bt"]
        );
    }

    #[test]
    fn quick_table2_has_five_benchmarks() {
        let mut cfg = PaperConfig::quick();
        cfg.exp.repeats = 2;
        let (t, max_cov) = table2(&cfg).unwrap();
        assert_eq!(t.headers.len(), 6);
        assert_eq!(t.rows.len(), 3);
        assert!(max_cov < 0.2, "cov {max_cov}");
    }

    #[test]
    fn quick_table3_has_three_config_rows() {
        let cfg = PaperConfig::quick();
        let t = table3(&cfg).unwrap();
        assert_eq!(t.rows.len(), 3);
        // Copy never pays MI.
        assert_eq!(t.rows[0][2], "O(0)");
        assert_eq!(t.rows[0][4], "O(0)");
        // Eager Maps never pays MI either.
        assert_eq!(t.rows[2][2], "O(0)");
        assert_eq!(t.rows[2][4], "O(0)");
    }

    #[test]
    fn elision_table_reports_strictly_positive_savings() {
        let cfg = PaperConfig::quick();
        let (t, rows) = table3_elision(&cfg).unwrap();
        assert_eq!(t.rows.len(), 3);
        for row in &rows {
            assert!(row.maps_elided > 0, "{}: no maps elided", row.workload);
            assert!(
                row.mm_saved > VirtDuration::ZERO,
                "{}: nothing saved",
                row.workload
            );
            // The accounting identity is exact, not approximate.
            assert_eq!(
                row.mm_unelided - row.mm_elided,
                row.mm_saved,
                "{}: identity broken",
                row.workload
            );
        }
    }

    #[test]
    fn optimize_table_beats_plan_elision_on_stream() {
        let cfg = PaperConfig::quick();
        let (t, rows) = table3_optimize(&cfg).unwrap();
        assert_eq!(t.rows.len(), 3);
        for row in &rows {
            assert!(row.verified, "{}: contract broken", row.workload);
            assert!(
                row.mm_optimized <= row.mm_plan,
                "{}: optimizer must subsume the plan ({:?} vs {:?})",
                row.workload,
                row.mm_optimized,
                row.mm_plan
            );
            assert!(
                row.mm_optimized <= row.mm_baseline,
                "{}: contract mm bound broken",
                row.workload
            );
        }
        // The acceptance bar: at least one shipped workload recovers MM
        // time *beyond* plan elision. Stream's dead from-copies (its host
        // never reads the device results) are invisible to every elision
        // mode but deleted statically.
        let stream = rows
            .iter()
            .find(|r| r.workload.contains("stream"))
            .expect("stream row");
        assert!(stream.dead_from > 0, "{:?}", stream);
        assert!(
            stream.saved_beyond_plan() > VirtDuration::ZERO,
            "stream must beat plan elision: {stream:?}"
        );
    }

    #[test]
    fn markdown_report_contains_all_artifacts() {
        let mut cfg = PaperConfig::quick();
        cfg.exp.repeats = 1;
        cfg.qmc_repeats = 1;
        let cells = qmc_sweep(&cfg).unwrap();
        let (t2, max_cov) = table2(&cfg).unwrap();
        let t1 = table1(&cfg).unwrap();
        let t3 = table3(&cfg).unwrap();
        let report = markdown_report(&cfg, &cells, &t1, &t2, max_cov, &t3);
        assert!(report.contains("## QMCPack ratios"));
        assert!(report.contains("## Table I"));
        assert!(report.contains("## Table II"));
        assert!(report.contains("## Table III"));
        assert!(report.contains("hsa_amd_memory_async_copy"));
        assert!(report.contains("| S2 |"));
    }

    #[test]
    fn quick_table1_shows_copy_dominating_call_counts() {
        let cfg = PaperConfig::quick();
        let t = table1(&cfg).unwrap();
        assert_eq!(t.rows.len(), 4);
        // memory_async_copy: Copy calls >> IZC calls (3 from device init).
        let copy_calls: u64 = t.rows[2][2].parse().unwrap();
        let izc_calls: u64 = t.rows[2][3].parse().unwrap();
        assert!(copy_calls > 100 * izc_calls.max(1));
        assert_eq!(izc_calls, 3);
    }
}

//! The experiment driver: run a workload under a configuration N times
//! (recording once, scheduling per seed) and summarize per the paper's
//! methodology — median for ratios, CoV for robustness.

use crate::stats::{cov_duration, median_duration};
use apu_mem::CostModel;
use hsa_rocr::Topology;
use omp_offload::{ElideMode, OmpError, OmpRuntime, RunReport, RuntimeConfig, TelemetryMode};
use sim_des::{FaultPlan, NoiseModel, RunOptions, VirtDuration};
use workloads::Workload;

/// Shared experiment settings.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Cost model (default: the calibrated MI300A preset).
    pub cost: CostModel,
    /// Socket topology.
    pub topo: Topology,
    /// Repeats per measurement (the paper: 8 for SPECaccel, 4 for QMCPack).
    pub repeats: usize,
    /// Measurement-noise model.
    pub noise: NoiseModel,
    /// Base RNG seed; repeat `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// When set, each run is executed under the deterministic fault plan
    /// derived from this seed ([`FaultPlan::from_seed`]); recovery keeps the
    /// results semantically identical to healthy runs.
    pub fault_seed: Option<u64>,
    /// Map-elision mode for every run (`repro --elide` sets Online).
    pub elide: ElideMode,
    /// Telemetry collection for every run (`repro --profile` turns the
    /// ring on; the default `Off` keeps the hot paths event-free).
    pub telemetry: TelemetryMode,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            cost: CostModel::mi300a(),
            topo: Topology::default(),
            repeats: 8,
            noise: NoiseModel::os_interference(),
            base_seed: 0x5EED,
            fault_seed: None,
            elide: ElideMode::Off,
            telemetry: TelemetryMode::Off,
        }
    }
}

impl ExperimentConfig {
    /// Noise-free single-run settings (deterministic unit tests).
    pub fn noiseless() -> Self {
        ExperimentConfig {
            repeats: 1,
            noise: NoiseModel::NONE,
            ..Default::default()
        }
    }
}

/// Summary of N repeats of one (workload, configuration, threads) cell.
#[derive(Debug)]
pub struct Measurement {
    /// The configuration measured.
    pub config: RuntimeConfig,
    /// Host threads used.
    pub threads: usize,
    /// All makespans (one per repeat).
    pub makespans: Vec<VirtDuration>,
    /// Full report from the first repeat (ledger, API stats, traces).
    pub report: RunReport,
}

impl Measurement {
    /// Median makespan (the paper's ratio basis).
    pub fn median(&self) -> VirtDuration {
        median_duration(&self.makespans)
    }

    /// Coefficient of Variation across repeats.
    pub fn cov(&self) -> f64 {
        cov_duration(&self.makespans)
    }
}

/// Ratio of Copy's median time to this configuration's median time —
/// the paper's headline metric. Ratio > 1 means zero-copy wins.
pub fn ratio(copy: &Measurement, other: &Measurement) -> f64 {
    copy.median().as_nanos() as f64 / other.median().as_nanos() as f64
}

/// Run `workload` under `config` with `threads` host threads, `repeats`
/// times (one recording pass, per-seed scheduling).
pub fn measure(
    workload: &dyn Workload,
    config: RuntimeConfig,
    threads: usize,
    exp: &ExperimentConfig,
) -> Result<Measurement, OmpError> {
    let mut builder = OmpRuntime::builder(exp.cost.clone(), exp.topo)
        .config(config)
        .threads(threads)
        .elide(exp.elide.clone())
        .telemetry(exp.telemetry);
    if let Some(seed) = exp.fault_seed {
        builder = builder.fault_plan(FaultPlan::from_seed(seed));
    }
    let mut rt = builder.build()?;
    workload.run(&mut rt)?;
    let opts = RunOptions::with_noise(exp.noise, exp.base_seed);
    let seeds: Vec<u64> = (0..exp.repeats as u64).map(|i| exp.base_seed + i).collect();
    let (report, makespans) = rt.finish_replicated(&opts, &seeds);
    Ok(Measurement {
        config,
        threads,
        makespans,
        report,
    })
}

/// Measure all four configurations for one (workload, threads) cell.
/// Returns them in `RuntimeConfig::ALL` order (Copy first).
pub fn measure_all_configs(
    workload: &dyn Workload,
    threads: usize,
    exp: &ExperimentConfig,
) -> Result<Vec<Measurement>, OmpError> {
    RuntimeConfig::ALL
        .iter()
        .map(|&c| measure(workload, c, threads, exp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec::Ep;

    #[test]
    fn measurement_summaries_behave() {
        let exp = ExperimentConfig {
            repeats: 4,
            ..ExperimentConfig::default()
        };
        let m = measure(&Ep::scaled(0.02), RuntimeConfig::LegacyCopy, 1, &exp).unwrap();
        assert_eq!(m.makespans.len(), 4);
        assert!(m.median() > VirtDuration::ZERO);
        // Quiet-node jitter: small but nonzero CoV.
        assert!(m.cov() > 0.0 && m.cov() < 0.1, "cov = {}", m.cov());
    }

    #[test]
    fn noiseless_runs_are_identical() {
        let exp = ExperimentConfig {
            repeats: 3,
            noise: NoiseModel::NONE,
            ..ExperimentConfig::default()
        };
        let m = measure(&Ep::scaled(0.02), RuntimeConfig::ImplicitZeroCopy, 1, &exp).unwrap();
        assert_eq!(m.cov(), 0.0);
        assert!(m.makespans.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn faulted_runs_are_deterministic_and_equivalent() {
        let healthy = ExperimentConfig::noiseless();
        let faulty = ExperimentConfig {
            fault_seed: Some(0xF00D),
            ..ExperimentConfig::noiseless()
        };
        let w = Ep::scaled(0.02);
        let h = measure(&w, RuntimeConfig::LegacyCopy, 1, &healthy).unwrap();
        let f1 = measure(&w, RuntimeConfig::LegacyCopy, 1, &faulty).unwrap();
        let f2 = measure(&w, RuntimeConfig::LegacyCopy, 1, &faulty).unwrap();
        // Same fault seed => bit-identical replay.
        assert_eq!(f1.makespans, f2.makespans);
        assert_eq!(
            f1.report.fault_stats.total_injected(),
            f2.report.fault_stats.total_injected()
        );
        // Recovery keeps the functional work identical to a healthy run.
        assert_eq!(h.report.fault_stats.total_injected(), 0);
        assert_eq!(f1.report.ledger.kernels, h.report.ledger.kernels);
        assert_eq!(f1.report.ledger.bytes_copied, h.report.ledger.bytes_copied);
    }

    #[test]
    fn ratio_direction() {
        let exp = ExperimentConfig::noiseless();
        let all = measure_all_configs(&Ep::scaled(0.05), 1, &exp).unwrap();
        let copy = &all[0];
        let izc = all
            .iter()
            .find(|m| m.config == RuntimeConfig::ImplicitZeroCopy)
            .unwrap();
        // ep: zero-copy loses => ratio < 1.
        assert!(ratio(copy, izc) < 1.0);
        // Ratio of Copy against itself is exactly 1.
        assert_eq!(ratio(copy, copy), 1.0);
    }
}

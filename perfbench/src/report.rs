//! Metric tables and result output.
//!
//! Every run prints one line per metric, `workload metric value unit
//! n=<samples>`, then `correct yes|no` and `error_rate`, and ends with one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`, where
//! `metrics` holds the end-to-end metrics of an untraced run or the
//! per-layer metrics of a traced one, each as `{"value", "unit"}`.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload's untraced run, with
/// their units. `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.memory_digest.ms_per_cell", "ms"),
    ("core.memory_digest.mb_per_cell", "MB"),
    ("core.memory_digest.gb_per_s", "GB/s"),
    ("core.memory_digest.share", "ratio"),
    ("core.replay.ms_per_cell", "ms"),
    ("core.replay.ops_per_cell", "count"),
    ("core.replay.ns_per_op", "ns"),
    ("core.build.us_p50", "us"),
    ("core.finish.ms_per_cell", "ms"),
    ("core.cell.ms_p50", "ms"),
    ("core.cell.coverage", "ratio"),
    ("core.table.acquisitions_per_cell", "count"),
    ("core.table.contended_ratio", "ratio"),
    ("core.lookup_cache.hit_ratio", "ratio"),
    ("core.telemetry.events_per_cell", "count"),
    ("core.telemetry.dropped", "count"),
    ("check.capture.ms", "ms"),
    ("check.elision_plan.us_p50", "us"),
    ("check.elision_plan.calls", "count"),
    ("check.optimize.ms_p50", "ms"),
    ("check.optimize.calls", "count"),
    ("batch.driver.busy_ratio", "ratio"),
    ("batch.driver.steals", "count"),
    ("batch.driver.steal_failures", "count"),
    ("batch.cache.lookup_us_p50", "us"),
    ("batch.cache.hit_ratio", "ratio"),
    ("batch.cache.store_ms_p50", "ms"),
    ("batch.request.codec_us_p50", "us"),
    ("batch.result.codec_us_p50", "us"),
    ("batch.proto.frame_us_p50", "us"),
    ("batch.serve.handle_us_mean", "us"),
    ("batch.serve.transport_us_mean", "us"),
    ("batch.serve.coalesced", "count"),
    ("batch.serve.busy_rejections", "count"),
];

/// One measured value.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit token.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// Build a table metric, taking its unit from the tables.
pub fn metric(name: &'static str, value: f64, n: usize) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(m, _)| *m == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is in no table"));
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output matched its check.
    pub correct: bool,
    /// Operations attempted (cells, or requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// The table metrics this run reports (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed beside them (simulated time,
    /// load-generator lateness, ...), outside the tables.
    pub extras: Vec<Metric>,
    /// Free-form `key value` lines (fingerprints).
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Failed share of attempted operations.
    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Count `n` more operations, `bad` of them failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The human-readable lines.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extras) {
            let _ = writeln!(
                out,
                "{workload} {} {} {} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        for (k, v) in &self.notes {
            let _ = writeln!(out, "{workload} {k} {v}");
        }
        let _ = writeln!(
            out,
            "{workload} error_rate {} ratio n={}",
            self.error_rate(),
            self.attempted
        );
        let _ = writeln!(
            out,
            "{workload} correct {}",
            if self.correct { "yes" } else { "no" }
        );
        out
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables and `BENCHMARK.json` name the same metrics and units.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("setup_s", 0.25, 3), metric("ops_per_s", 12.5, 3)],
            ..Outcome::default()
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        assert!(o.lines("w").contains("w setup_s 0.25 s n=3\n"));
        assert!(o.lines("w").ends_with("w correct yes\n"));
    }
}

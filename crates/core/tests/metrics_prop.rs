//! Property tests for the metrics exposition: every family an owner can
//! build from the instruments — counters, gauges or histograms, any
//! number of series, any labels (including ones that need escaping), any
//! recorded values — renders to text that re-parses to the identical
//! snapshot and re-renders to the identical bytes. This is the
//! property half of the `METRICS` round-trip pin; the golden half lives in
//! `omp-batch/tests/serve_matrix.rs`.

use omp_offload::metrics::{
    Counter, FamilySnapshot, Gauge, Histogram, MetricKind, MetricsSnapshot, Sample,
};
use proptest::prelude::*;

/// Family-name stems (all valid exposition names).
const STEMS: &[&str] = &[
    "omp_a_total",
    "omp_b_level",
    "lat_us",
    "ns:scoped",
    "_hidden",
];

/// Label keys (all valid label names).
const KEYS: &[&str] = &["verb", "field", "worker_0", "_k"];

/// Ascending histogram bound sets to pick from.
const BOUNDS: &[&[u64]] = &[&[10], &[1, 100, 10_000], &[5, 6, 7, 1 << 40]];

/// Label values over an alphabet that stresses the escaper: quotes,
/// backslashes, newlines, spaces.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..8, 0..6).prop_map(|ix| {
        ix.into_iter()
            .map(|i| ['a', 'Z', '9', '_', '"', '\\', '\n', ' '][i as usize])
            .collect()
    })
}

/// One series: its labels and the values fed to a fresh instrument.
type Series = (Vec<(u8, String)>, Vec<u64>);

/// One family to build: which stem, which kind, the histogram bounds,
/// and its series.
#[derive(Debug, Clone)]
struct Fam {
    stem: u8,
    kind: u8,
    bounds: u8,
    series: Vec<Series>,
}

fn arb_fam() -> impl Strategy<Value = Fam> {
    let series = (
        proptest::collection::vec(((0u8..KEYS.len() as u8), arb_text()), 0..3),
        proptest::collection::vec(any::<u64>(), 0..5),
    );
    (
        (0u8..STEMS.len() as u8, 0u8..3, 0u8..BOUNDS.len() as u8),
        proptest::collection::vec(series, 0..4),
    )
        .prop_map(|((stem, kind, bounds), series)| Fam {
            stem,
            kind,
            bounds,
            series,
        })
}

/// Build `f`'s snapshot the way an owner does: one live instrument per
/// series, read back into samples. `i` keeps the family names distinct.
fn build(i: usize, f: &Fam) -> FamilySnapshot {
    let plain = |labels, value| Sample {
        suffix: String::new(),
        labels,
        value,
    };
    let samples = f
        .series
        .iter()
        .flat_map(|(labels, ops)| {
            let labels: Vec<(String, String)> = labels
                .iter()
                .map(|(k, v)| (KEYS[*k as usize].to_string(), v.clone()))
                .collect();
            match f.kind {
                0 => {
                    let c = Counter::new();
                    ops.iter().for_each(|&v| c.add(v));
                    vec![plain(labels, c.get())]
                }
                1 => {
                    let g = Gauge::new();
                    ops.iter().for_each(|&v| g.set(v));
                    vec![plain(labels, g.get())]
                }
                _ => {
                    let h = Histogram::new(BOUNDS[f.bounds as usize]);
                    ops.iter().for_each(|&v| h.observe(v));
                    h.samples(&labels)
                }
            }
        })
        .collect();
    let k = f.kind as usize;
    FamilySnapshot {
        name: format!("{}_{}{i}", STEMS[f.stem as usize], ["c", "g", "h"][k]),
        help: ["counted\nthings \\ etc.", "", "observed things."][k].into(),
        kind: [
            MetricKind::Counter,
            MetricKind::Gauge,
            MetricKind::Histogram,
        ][k],
        samples,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_registered_instrument_renders_and_reparses_exactly(
        fams in proptest::collection::vec(arb_fam(), 0..8),
    ) {
        let mut snap = MetricsSnapshot::default();
        for (i, f) in fams.iter().enumerate() {
            snap.push(build(i, f));
        }
        let text = snap.render();
        let parsed = MetricsSnapshot::parse(&text);
        prop_assert!(parsed.is_ok(), "render output must parse: {:?}", parsed);
        let parsed = parsed.unwrap();
        prop_assert_eq!(&parsed, &snap);
        prop_assert_eq!(parsed.render(), text);
    }
}

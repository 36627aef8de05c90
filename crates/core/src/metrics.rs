//! Metrics: cheap atomic instruments and a Prometheus-style text
//! exposition with an exact parse/render round-trip.
//!
//! The runtime has two records of each simulated run: the
//! [`OverheadLedger`](crate::OverheadLedger) (per-run virtual-time
//! accounting, exposed as `SweepResult` text) and the telemetry event
//! stream it is applied from. What neither can see is the *concurrent
//! machinery* — mapping-table lock contention, work-stealing pool behaviour,
//! serve-side request latency — because those are properties of the
//! wall-clock schedule, not of any single simulated run.
//!
//! This module holds the instruments for that ([`Counter`], [`Gauge`],
//! fixed-bucket [`Histogram`] — no dependencies, no allocation on the hot
//! path) and the exposition they are rendered into: an owner builds each
//! [`FamilySnapshot`] from its live instruments, series for series, and
//! pushes it into a [`MetricsSnapshot`], which renders as Prometheus text.
//! That is the only way a family is built; the serve layer's `METRICS`
//! verb is its one user. It carries only what the instruments alone can
//! see: the server's request counters have one view, `STATS`, and no
//! family restates them. Every value here depends on the wall-clock
//! schedule, so it travels on the stats channel only (stderr, `STATS`,
//! `METRICS`) and never appears in sweep/serve *response* bytes; the
//! `-j N` byte-identity contract is untouched.
//!
//! ## Exposition format
//!
//! Standard Prometheus text format, restricted to exactly-representable
//! values: every sample is a `u64` (durations are integer nanoseconds,
//! latencies integer microseconds), so
//! `render(parse(text)) == text` holds byte-for-byte. Each family is a
//! `# HELP` line, exactly one `# TYPE` line naming it, then its samples:
//!
//! ```text
//! # HELP omp_pool_ops_total Work-stealing pool scheduling events, accumulated across sweeps.
//! # TYPE omp_pool_ops_total counter
//! omp_pool_ops_total{worker="0",event="own_pop"} 2
//! ```

use crate::modes::Tokens;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Whether the concurrency instruments are armed.
///
/// `Off` must cost a single predictable branch on every instrumented
/// path (the `metrics_overhead` bench measures this); `On` arms the
/// mapping table's lock contention counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// No concurrency metrics: one branch per instrumented site.
    #[default]
    Off,
    /// Arm every instrument.
    On,
}

impl MetricsMode {
    /// True when instruments are armed.
    pub fn is_on(self) -> bool {
        matches!(self, MetricsMode::On)
    }
}

/// The Prometheus instrument kind of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time level.
    Gauge,
    /// Fixed-bucket cumulative histogram.
    Histogram,
}

impl MetricKind {
    /// The exposition token of each kind, as `# TYPE` lines print and
    /// parse it.
    pub const TOKENS: Tokens<MetricKind, 3> = Tokens {
        what: "metric kind",
        table: [
            (MetricKind::Counter, "counter"),
            (MetricKind::Gauge, "gauge"),
            (MetricKind::Histogram, "histogram"),
        ],
    };

    /// The exposition token (`counter` / `gauge` / `histogram`).
    pub fn token(self) -> &'static str {
        Self::TOKENS.token(self)
    }

    /// Whether a series of this kind may carry the series-name `suffix`:
    /// histograms take exactly `_bucket`, `_sum` and `_count`; counters
    /// and gauges take none.
    fn takes_suffix(self, suffix: &str) -> bool {
        match self {
            MetricKind::Histogram => matches!(suffix, "_bucket" | "_sum" | "_count"),
            MetricKind::Counter | MetricKind::Gauge => suffix.is_empty(),
        }
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A point-in-time atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the level.
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Raise the level to at least `n` (a high-water mark).
    pub fn raise_to(&self, n: u64) {
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket cumulative histogram over `u64` observations.
///
/// Bounds are inclusive upper edges in ascending order; an implicit
/// `+Inf` bucket catches the tail. Observation is lock-free: one
/// linear scan over the (small, fixed) bound slice plus three
/// relaxed atomic adds.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// New histogram with the given ascending inclusive upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        for (bound, bucket) in self.bounds.iter().zip(&self.buckets) {
            if value <= *bound {
                bucket.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The exposition samples of this histogram (cumulative `_bucket`
    /// series, `_sum`, `_count`), with `labels` on every series.
    pub fn samples(&self, labels: &[(String, String)]) -> Vec<Sample> {
        let mut out = Vec::with_capacity(self.bounds.len() + 3);
        let mut cumulative = 0u64;
        for (bound, bucket) in self.bounds.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            let mut l = labels.to_vec();
            l.push(("le".into(), bound.to_string()));
            out.push(Sample {
                suffix: "_bucket".into(),
                labels: l,
                value: cumulative,
            });
        }
        let mut l = labels.to_vec();
        l.push(("le".into(), "+Inf".into()));
        out.push(Sample {
            suffix: "_bucket".into(),
            labels: l,
            value: self.count(),
        });
        out.push(Sample {
            suffix: "_sum".into(),
            labels: labels.to_vec(),
            value: self.sum(),
        });
        out.push(Sample {
            suffix: "_count".into(),
            labels: labels.to_vec(),
            value: self.count(),
        });
        out
    }
}

/// One exposition series: `<family><suffix>{labels} <value>`.
///
/// `suffix` is empty for counters and gauges; histogram series use
/// `_bucket` / `_sum` / `_count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Series-name suffix appended to the family name.
    pub suffix: String,
    /// Label pairs in render order.
    pub labels: Vec<(String, String)>,
    /// The sample value (all values are exact `u64`s).
    pub value: u64,
}

impl Sample {
    /// A plain unlabelled sample (counter/gauge).
    pub fn plain(value: u64) -> Self {
        Sample {
            suffix: String::new(),
            labels: Vec::new(),
            value,
        }
    }

    /// A single-label sample (counter/gauge).
    pub fn labelled(key: &str, label: &str, value: u64) -> Self {
        Sample {
            suffix: String::new(),
            labels: vec![(key.into(), label.into())],
            value,
        }
    }
}

/// One metric family: header metadata plus its samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Family name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Samples in render order.
    pub samples: Vec<Sample>,
}

/// A point-in-time capture of a set of metric families, renderable as
/// Prometheus text exposition and parseable back exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Families in render order.
    pub families: Vec<FamilySnapshot>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape_help(s: &str) -> String {
    unescape(s, false)
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn unescape(s: &str, quote: bool) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some('"') if quote => out.push('"'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

impl MetricsSnapshot {
    /// Append one family, panicking on what [`parse`](Self::parse) would
    /// reject (instrument registration is program text, not input): an
    /// invalid or repeated name, or a suffix the kind cannot have.
    pub fn push(&mut self, family: FamilySnapshot) {
        assert!(
            valid_name(&family.name),
            "invalid metric name {:?}",
            family.name
        );
        assert!(
            self.families.iter().all(|f| f.name != family.name),
            "repeated metric family {:?}",
            family.name
        );
        for s in &family.samples {
            assert!(
                family.kind.takes_suffix(&s.suffix),
                "suffix {:?} in {} family {:?}",
                s.suffix,
                family.kind.token(),
                family.name
            );
            for (k, _) in &s.labels {
                assert!(valid_label_name(k), "invalid label name {k:?}");
            }
        }
        self.families.push(family);
    }

    /// The value of series `name+suffix` whose labels are exactly
    /// `labels` (order-sensitive, matching render order).
    pub fn value(&self, name: &str, suffix: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let family = self.families.iter().find(|f| f.name == name)?;
        family
            .samples
            .iter()
            .find(|s| {
                s.suffix == suffix
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (wk, wv))| k == wk && v == wv)
            })
            .map(|s| s.value)
    }

    /// Render as Prometheus text exposition. The output is canonical:
    /// [`parse`](Self::parse) followed by `render` reproduces it
    /// byte-for-byte, and `render` followed by `parse` reproduces the
    /// snapshot value-for-value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.token());
            for s in &f.samples {
                let _ = write!(out, "{}{}", f.name, s.suffix);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}=\"{}\"", k, escape_label(v));
                    }
                    out.push('}');
                }
                let _ = writeln!(out, " {}", s.value);
            }
        }
        out
    }

    /// Parse a text exposition produced by [`render`](Self::render).
    /// Strict: a family is a `# HELP` line, exactly one `# TYPE` line
    /// naming it, then its samples; no family name repeats; only
    /// histograms take the `_bucket`/`_sum`/`_count` suffixes, and
    /// histograms take only those; every value is a decimal `u64`.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let mut snap = MetricsSnapshot::default();
        // Whether the last family read has its TYPE line.
        let mut typed = true;
        for (no, line) in text.lines().enumerate() {
            let err = |msg: &str| format!("metrics line {}: {msg}: {line:?}", no + 1);
            if let Some(rest) = line.strip_prefix("# HELP ") {
                if !typed {
                    return Err(err("HELP of a family without TYPE"));
                }
                let (name, help) = rest.split_once(' ').ok_or_else(|| err("malformed HELP"))?;
                if !valid_name(name) {
                    return Err(err("invalid family name"));
                }
                if snap.families.iter().any(|f| f.name == name) {
                    return Err(err("repeated family"));
                }
                snap.families.push(FamilySnapshot {
                    name: name.to_string(),
                    help: unescape_help(help),
                    kind: MetricKind::Counter,
                    samples: Vec::new(),
                });
                typed = false;
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let f = snap
                    .families
                    .last_mut()
                    .ok_or_else(|| err("TYPE before HELP"))?;
                if typed {
                    return Err(err("repeated TYPE"));
                }
                let (name, kind) = rest.split_once(' ').ok_or_else(|| err("malformed TYPE"))?;
                if name != f.name {
                    return Err(err("TYPE family mismatch"));
                }
                f.kind = MetricKind::TOKENS
                    .get(kind)
                    .ok_or_else(|| err("unknown kind"))?;
                typed = true;
            } else {
                let f = match snap.families.last_mut() {
                    Some(f) if typed => f,
                    _ => return Err(err("sample before TYPE")),
                };
                let sample = parse_sample(line, f).map_err(|m| err(&m))?;
                f.samples.push(sample);
            }
        }
        if !typed {
            return Err("metrics: last family has no TYPE".to_string());
        }
        Ok(snap)
    }
}

/// Parse one sample line of `family`, whose kind is already known.
fn parse_sample(line: &str, family: &FamilySnapshot) -> Result<Sample, String> {
    let rest = line
        .strip_prefix(family.name.as_str())
        .ok_or_else(|| format!("sample outside family {}", family.name))?;
    // Split off the series-name suffix (up to '{' or ' ').
    let suffix_end = rest.find(['{', ' ']).ok_or("missing value")?;
    let suffix = &rest[..suffix_end];
    if !family.kind.takes_suffix(suffix) {
        return Err(format!(
            "series suffix {suffix:?} in a {} family",
            family.kind.token()
        ));
    }
    let rest = &rest[suffix_end..];
    let (labels, rest) = if let Some(body) = rest.strip_prefix('{') {
        let close = find_label_close(body).ok_or("unterminated labels")?;
        (parse_labels(&body[..close])?, &body[close + 1..])
    } else {
        (Vec::new(), rest)
    };
    let value = rest
        .strip_prefix(' ')
        .ok_or("missing value separator")?
        .parse::<u64>()
        .map_err(|e| format!("bad value: {e}"))?;
    Ok(Sample {
        suffix: suffix.to_string(),
        labels,
        value,
    })
}

/// Index of the unescaped closing `}` of a label body.
fn find_label_close(body: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
        } else if in_quotes && c == '\\' {
            escaped = true;
        } else if c == '"' {
            in_quotes = !in_quotes;
        } else if !in_quotes && c == '}' {
            return Some(i);
        }
    }
    None
}

/// Parse `k1="v1",k2="v2"` with escape handling.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find("=\"").ok_or("malformed label")?;
        let key = &rest[..eq];
        if !valid_label_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        let vstart = eq + 2;
        // Find the unescaped closing quote.
        let mut escaped = false;
        let mut vend = None;
        for (i, c) in rest[vstart..].char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                vend = Some(vstart + i);
                break;
            }
        }
        let vend = vend.ok_or("unterminated label value")?;
        out.push((key.to_string(), unescape(&rest[vstart..vend], true)));
        rest = &rest[vend + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err("junk after label value".into());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn family(name: &str, kind: MetricKind, samples: Vec<Sample>) -> FamilySnapshot {
        FamilySnapshot {
            name: name.into(),
            help: format!("The {name} family."),
            kind,
            samples,
        }
    }

    #[test]
    fn render_parse_round_trip_is_exact() {
        let c = Counter::new();
        c.add(7);
        let g = Gauge::new();
        g.set(42);
        let h = Histogram::new(&[10, 100, 1000]);
        h.observe(5);
        h.observe(250);
        h.observe(9999);
        let mut snap = MetricsSnapshot::default();
        snap.push(family(
            "a_total",
            MetricKind::Counter,
            vec![Sample::plain(c.get())],
        ));
        snap.push(family(
            "b_level",
            MetricKind::Gauge,
            vec![Sample {
                suffix: String::new(),
                labels: labels(&[("verb", "sweep"), ("temp", "warm")]),
                value: g.get(),
            }],
        ));
        snap.push(family(
            "lat_us",
            MetricKind::Histogram,
            h.samples(&labels(&[("verb", "ping")])),
        ));
        let text = snap.render();
        let parsed = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&[10, 100]);
        h.observe(1);
        h.observe(50);
        h.observe(5000);
        let samples = h.samples(&[]);
        let get = |le: &str| {
            samples
                .iter()
                .find(|s| s.suffix == "_bucket" && s.labels[0].1 == le)
                .unwrap()
                .value
        };
        assert_eq!(get("10"), 1);
        assert_eq!(get("100"), 2);
        assert_eq!(get("+Inf"), 3);
        assert_eq!(h.sum(), 5051);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn label_escaping_survives_round_trip() {
        let mut snap = MetricsSnapshot::default();
        snap.push(FamilySnapshot {
            name: "weird".into(),
            help: "help with \\ backslash\nand newline".into(),
            kind: MetricKind::Gauge,
            samples: vec![Sample {
                suffix: String::new(),
                labels: vec![("k".into(), "a\"b\\c\nd".into())],
                value: 3,
            }],
        });
        let text = snap.render();
        let parsed = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        let rejects = |text: &str| assert!(MetricsSnapshot::parse(text).is_err(), "{text:?}");
        rejects("a_total 1"); // sample before HELP
        rejects("# HELP a x\n# TYPE a widget\n");
        rejects("# HELP a x\n# TYPE a counter\na -1\n");
        rejects("# HELP a x\n# TYPE a counter\nb_z 1\n");
        rejects("# HELP a x\n# TYPE a counter\n\na 1\n"); // blank line
        rejects("# HELP a x\n# TYPE a counter\n# CLASS a schedule\n");
        // A family is HELP, exactly one TYPE naming it, then samples.
        rejects("# HELP a x\na 1\n");
        rejects("# HELP a x\n# TYPE a counter\n# TYPE a gauge\na 1\n");
        // A family name appears once.
        rejects("# HELP a x\n# TYPE a counter\na 1\n# HELP a y\n# TYPE a counter\na 2\n");
        // Only histograms take `_bucket`/`_sum`/`_count`, and only those.
        rejects("# HELP a x\n# TYPE a counter\na_bucket{le=\"1\"} 1\n");
        rejects("# HELP h x\n# TYPE h histogram\nh 1\n");
    }

    #[test]
    #[should_panic(expected = "repeated metric family")]
    fn push_rejects_a_repeated_family() {
        let mut snap = MetricsSnapshot::default();
        snap.push(family("a", MetricKind::Counter, vec![Sample::plain(1)]));
        snap.push(family("a", MetricKind::Gauge, vec![Sample::plain(2)]));
    }

    #[test]
    fn value_lookup_distinguishes_labels_and_suffixes() {
        let h = Histogram::new(&[10]);
        h.observe(3);
        let mut snap = MetricsSnapshot::default();
        snap.push(family(
            "h",
            MetricKind::Histogram,
            h.samples(&labels(&[("v", "a")])),
        ));
        assert_eq!(snap.value("h", "_count", &[("v", "a")]), Some(1));
        assert_eq!(snap.value("h", "_sum", &[("v", "a")]), Some(3));
        assert_eq!(
            snap.value("h", "_bucket", &[("v", "a"), ("le", "10")]),
            Some(1)
        );
        assert_eq!(snap.value("h", "", &[("v", "b")]), None);
    }
}

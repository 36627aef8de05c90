//! In-memory spans around the calls the benchmark makes into each layer,
//! written out as Chrome trace JSON when the run ends.
//!
//! A span records its name, start, duration, the worker thread it ran on,
//! its parent span and the request it belongs to. Spans are buffered per
//! task ([`SpanBuf`]) and merged by the caller, so recording takes no lock.
//! A layer's *self time* is its duration minus the part of it that its
//! child spans cover ([`self_times`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Layer call name, e.g. `core.replay`.
    pub name: &'static str,
    /// Request (cell or wire request) the span serves.
    pub req: u64,
    /// Small per-thread id of the worker that ran it.
    pub tid: u32,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Spans of one task, nested by call structure.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    /// Request id stamped on the spans opened from now on.
    pub req: u64,
    stack: Vec<u64>,
    /// Completed spans, children before their parents.
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// An empty buffer for request `req`, timed against `epoch`.
    pub fn new(epoch: Instant, req: u64) -> SpanBuf {
        SpanBuf {
            epoch,
            req,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanBuf) -> T) -> T {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let t0 = Instant::now();
        let out = f(self);
        let dur = t0.elapsed();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            req: self.req,
            tid: TID.with(|t| *t),
            start_ns: nanos(t0.saturating_duration_since(self.epoch)),
            dur_ns: nanos(dur),
        });
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span, by id: duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.start_ns + s.dur_ns));
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, lo);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns - covered)
        })
        .collect()
}

/// Total self time per span name, nanoseconds.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += selfs[&s.id];
    }
    out
}

/// The spans as Chrome trace JSON (complete `X` events, microseconds).
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent,
            s.req,
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\"}}}}\n"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, dur: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "cell" } else { "leaf" },
            req: 0,
            tid: 1,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30), // 10..40
            span(3, 1, 30, 20), // 30..50, overlaps the first child
            span(4, 1, 90, 40), // 90..130, clipped to 90..100
            span(5, 2, 15, 5),  // grandchild: not the root's direct child
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 25);
        assert_eq!(st[&3], 20);
        assert_eq!(self_by_name(&spans)["cell"], 50);
    }

    #[test]
    fn nested_spans_link_parent_and_request() {
        let mut buf = SpanBuf::new(Instant::now(), 42);
        let v = buf.time("cell", |b| b.time("core.replay", |_| 7));
        assert_eq!(v, 7);
        let (child, root) = (&buf.spans[0], &buf.spans[1]);
        assert_eq!((child.name, root.name), ("core.replay", "cell"));
        assert_eq!(child.parent, root.id);
        assert_eq!((root.parent, root.req, child.req), (0, 42, 42));
        assert!(root.dur_ns >= child.dur_ns);
        let json = chrome_json("w", &buf.spans);
        assert!(json.contains("\"name\":\"core.replay\",\"cat\":\"core\",\"ph\":\"X\""));
        assert!(json.ends_with("}}\n"));
    }
}

//! Typed, virtually-timestamped runtime telemetry.
//!
//! The runtime's hot paths emit [`Event`]s into a bounded ring buffer
//! ([`EventRing`]) when telemetry is enabled through
//! [`RuntimeBuilder::telemetry`](crate::RuntimeBuilder::telemetry). Every
//! event carries the issuing host thread and a pair of *op-stream anchors*:
//! the number of operations the thread had recorded when the charged work
//! began and when it ended. Because the discrete-event engine resolves
//! per-thread operations in issue order, an anchor `k` names one exact point
//! on the resolved schedule's clock — the completion time of the thread's
//! `k-1`-th operation ([`resolve`] performs that lookup). Events therefore
//! get real virtual timestamps without the runtime ever consulting a clock,
//! preserving the simulator's determinism.
//!
//! The load-bearing contract is *ledger derivability*: [`fold`] replays an
//! event stream into an [`OverheadLedger`] and the result equals the ledger
//! the runtime accumulated, field for field, whenever no events were dropped.
//! It holds by construction. [`OverheadLedger::apply`] is the one place that
//! defines what each event charges, and the runtime keeps its ledger and its
//! ring in one recorder, whose one mutator applies each event and (ring
//! on) records that same event. The ledger is thus the running fold of the
//! stream, not a parallel bookkeeping path; [`attribution`] folds each site's
//! and each kernel's events through `apply` as well, into the ledger each
//! of its rows holds. What can still break
//! the contract is ring overflow, so the check harness's `telemetry_exact`
//! verdict is the drop count.
//!
//! Overflow is never silent: when the ring is full the oldest event is
//! evicted and [`TelemetryReport::dropped_events`] is incremented; every sink
//! (JSONL header, merged Chrome trace metadata, attribution report) carries
//! the counter, and the fold contract is only claimed when it is zero.
//!
//! The sinks only write. [`to_jsonl`] has no reader in the workspace; its
//! golden bytes are pinned instead. Every JSON sink escapes strings with
//! [`json_escape`] and writes payload values with [`FieldVal::write_json`].

use crate::diag::DiagCode;
use crate::mapping::MapDir;
use crate::trace::{OverheadLedger, RecoveryAction, RecoveryEvent};
use apu_mem::AddrRange;
use sim_des::{Schedule, VirtDuration, VirtInstant};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// Telemetry collection mode for a runtime instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No collection. The hot paths see one predictable branch per charge;
    /// `benches/telemetry_overhead.rs` measures what that costs.
    #[default]
    Off,
    /// Collect into a drop-oldest ring holding at most this many events.
    Ring(usize),
}

impl TelemetryMode {
    /// Default ring capacity: ample for every shipped workload while
    /// bounding a runaway run to ~64 MiB of events.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Ring mode at the default capacity.
    pub fn ring() -> Self {
        TelemetryMode::Ring(Self::DEFAULT_CAPACITY)
    }

    /// The parseable strategy this mode embodies (drops the capacity).
    pub fn kind(self) -> crate::modes::TelemetryKind {
        match self {
            TelemetryMode::Off => crate::modes::TelemetryKind::Off,
            TelemetryMode::Ring(_) => crate::modes::TelemetryKind::Ring,
        }
    }
}

impl std::fmt::Display for TelemetryMode {
    /// Prints the shared mode token (`off | ring`); the ring capacity is
    /// not rendered. One spelling across every surface.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind().token())
    }
}

/// How an elision decision resolved its presence probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElideProbe {
    /// Online probe answered by the mapping-table lookup cache.
    CacheHit,
    /// Online probe fell through to the full table walk.
    CacheMiss,
    /// Decided ahead of time by a static elision plan (no probe).
    Planned,
}

/// One telemetry event payload.
///
/// What each variant charges to the [`OverheadLedger`] is defined once, in
/// [`OverheadLedger::apply`]; the runtime's recorder charges its ledger
/// by applying the very event it records, which is what makes [`fold`]
/// exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A map construct entered for one entry (counts toward `maps`).
    MapBegin {
        /// Host extent of the entry — the site id used by attribution.
        range: AddrRange,
        /// Declared direction.
        dir: MapDir,
        /// `always` modifier present.
        always: bool,
    },
    /// A map construct exited for one entry (counts toward `maps`).
    MapEnd {
        /// Host extent of the entry.
        range: AddrRange,
        /// Declared direction.
        dir: MapDir,
        /// `delete` semantics (refcount forced to zero).
        delete: bool,
    },
    /// Per-entry map-service charge for a transfer-direction re-map of a
    /// present extent (`mm_map`).
    MapService {
        /// Host extent of the entry.
        range: AddrRange,
        /// Service time charged.
        cost: VirtDuration,
    },
    /// Device-pool allocation charge (`mm_alloc`).
    PoolAlloc {
        /// Host extent backed by the new pool block.
        range: AddrRange,
        /// Allocation time charged.
        cost: VirtDuration,
    },
    /// Device-pool free charge (`mm_free`).
    PoolFree {
        /// Host extent whose backing was released.
        range: AddrRange,
        /// Free time charged.
        cost: VirtDuration,
    },
    /// Map-triggered copy (`mm_copy`, `copies`, `bytes_copied`).
    Copy {
        /// Host-side extent of the transfer (the attribution site).
        range: AddrRange,
        /// Bytes moved.
        bytes: u64,
        /// DMA duration charged.
        cost: VirtDuration,
        /// Direction: true for device-to-host.
        to_host: bool,
    },
    /// Prefault syscall. `recovery: false` is the Eager-Maps map path
    /// (`mm_prefault`); `recovery: true` is the degraded post-XNACK-loss
    /// dispatch path (`recovery_prefault`).
    Prefault {
        /// Host extent prefaulted.
        range: AddrRange,
        /// Syscall time charged.
        cost: VirtDuration,
        /// Charged to the recovery ledger rather than MM.
        recovery: bool,
    },
    /// A kernel was submitted (no ledger effect; completion carries the
    /// charges).
    KernelLaunch {
        /// Region name.
        name: Arc<str>,
        /// Modeled compute time of the submission.
        compute: VirtDuration,
    },
    /// A kernel completed (`kernels`, `kernel_compute`, `mi_fault_stall`,
    /// `tlb_stall`, page counters). Its `compute + stall` is the kernel's
    /// GPU service in the schedule; the ledger charges `fault_stall` and
    /// `tlb_stall` instead of `stall`. A run's completions, in `seq`
    /// order, are its kernel trace (the `LIBOMPTARGET_KERNEL_TRACE`
    /// analog).
    KernelComplete {
        /// Region name.
        name: Arc<str>,
        /// Modeled compute time.
        compute: VirtDuration,
        /// XNACK first-touch stall charged to MI.
        fault_stall: VirtDuration,
        /// TLB-miss stall.
        tlb_stall: VirtDuration,
        /// The schedule's stall: what faults, migrations and TLB misses
        /// added to the kernel's GPU service. Not a ledger charge.
        stall: VirtDuration,
        /// Pages XNACK-replayed by this launch.
        replayed_pages: u64,
        /// Pages zero-filled in the fault handler.
        zero_filled_pages: u64,
    },
    /// A redundant re-map was promoted to a no-transfer `alloc` map
    /// (`maps_elided`, lookup into `mm_map`, recovered time into
    /// `mm_saved`).
    Elide {
        /// Host extent of the elided entry.
        range: AddrRange,
        /// How the presence probe was answered.
        probe: ElideProbe,
        /// Lookup cost charged to `mm_map` (zero under zero-copy or a plan).
        lookup: VirtDuration,
        /// Map-service time recovered.
        saved: VirtDuration,
    },
    /// One recovery backoff wait between retries (`retries`,
    /// `recovery_backoff`).
    Backoff {
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Backoff wait charged.
        delay: VirtDuration,
    },
    /// Unified-memory pages evicted from VRAM to relieve pool exhaustion
    /// (`evicted_for_retry`, and the teardown into `recovery_backoff`, the
    /// recovery work the eviction's op is tagged as). Separate from the
    /// episode's [`EventKind::Recovery`] so the counter stays exact even
    /// when the episode ultimately fails.
    Evicted {
        /// Pages evicted by this pass.
        pages: u64,
        /// Page-table teardown time charged.
        cost: VirtDuration,
    },
    /// A recovery episode resolved, or a degradation engaged
    /// (`recoveries` / `degradations`).
    Recovery {
        /// The logged episode.
        event: RecoveryEvent,
    },
    /// The runtime sanitizer issued a verdict (no ledger effect).
    Sanitizer {
        /// Diagnostic code of the verdict.
        code: DiagCode,
    },
}

impl EventKind {
    /// Stable snake_case name: the JSONL `kind` field and the merged-trace
    /// event name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MapBegin { .. } => "map_begin",
            EventKind::MapEnd { .. } => "map_end",
            EventKind::MapService { .. } => "map_service",
            EventKind::PoolAlloc { .. } => "pool_alloc",
            EventKind::PoolFree { .. } => "pool_free",
            EventKind::Copy { .. } => "copy",
            EventKind::Prefault { .. } => "prefault",
            EventKind::KernelLaunch { .. } => "kernel_launch",
            EventKind::KernelComplete { .. } => "kernel_complete",
            EventKind::Elide { .. } => "elide",
            EventKind::Backoff { .. } => "backoff",
            EventKind::Evicted { .. } => "evicted",
            EventKind::Recovery { .. } => "recovery",
            EventKind::Sanitizer { .. } => "sanitizer",
        }
    }

    /// Flat key/value payload, shared by the JSONL writer and the merged
    /// Chrome trace's `args` object. Keys are stable; durations are integer
    /// nanoseconds with an `_ns` suffix.
    pub fn fields(&self) -> Vec<(&'static str, FieldVal)> {
        fn range(r: &AddrRange) -> Vec<(&'static str, FieldVal)> {
            vec![
                ("start", FieldVal::U64(r.start.as_u64())),
                ("len", FieldVal::U64(r.len)),
            ]
        }
        match self {
            EventKind::MapBegin {
                range: r,
                dir,
                always,
            } => {
                let mut f = range(r);
                f.push(("dir", FieldVal::Str(dir.token().into())));
                f.push(("always", FieldVal::Bool(*always)));
                f
            }
            EventKind::MapEnd {
                range: r,
                dir,
                delete,
            } => {
                let mut f = range(r);
                f.push(("dir", FieldVal::Str(dir.token().into())));
                f.push(("delete", FieldVal::Bool(*delete)));
                f
            }
            EventKind::MapService { range: r, cost }
            | EventKind::PoolAlloc { range: r, cost }
            | EventKind::PoolFree { range: r, cost } => {
                let mut f = range(r);
                f.push(("cost_ns", FieldVal::U64(cost.as_nanos())));
                f
            }
            EventKind::Copy {
                range: r,
                bytes,
                cost,
                to_host,
            } => {
                let mut f = range(r);
                f.push(("bytes", FieldVal::U64(*bytes)));
                f.push(("cost_ns", FieldVal::U64(cost.as_nanos())));
                f.push(("to_host", FieldVal::Bool(*to_host)));
                f
            }
            EventKind::Prefault {
                range: r,
                cost,
                recovery,
            } => {
                let mut f = range(r);
                f.push(("cost_ns", FieldVal::U64(cost.as_nanos())));
                f.push(("recovery", FieldVal::Bool(*recovery)));
                f
            }
            EventKind::KernelLaunch { name, compute } => vec![
                ("name", FieldVal::Str(name.to_string())),
                ("compute_ns", FieldVal::U64(compute.as_nanos())),
            ],
            EventKind::KernelComplete {
                name,
                compute,
                fault_stall,
                tlb_stall,
                stall,
                replayed_pages,
                zero_filled_pages,
            } => vec![
                ("name", FieldVal::Str(name.to_string())),
                ("compute_ns", FieldVal::U64(compute.as_nanos())),
                ("fault_stall_ns", FieldVal::U64(fault_stall.as_nanos())),
                ("tlb_stall_ns", FieldVal::U64(tlb_stall.as_nanos())),
                ("stall_ns", FieldVal::U64(stall.as_nanos())),
                ("replayed_pages", FieldVal::U64(*replayed_pages)),
                ("zero_filled_pages", FieldVal::U64(*zero_filled_pages)),
            ],
            EventKind::Elide {
                range: r,
                probe,
                lookup,
                saved,
            } => {
                let mut f = range(r);
                let p = match probe {
                    ElideProbe::CacheHit => "hit",
                    ElideProbe::CacheMiss => "miss",
                    ElideProbe::Planned => "planned",
                };
                f.push(("probe", FieldVal::Str(p.into())));
                f.push(("lookup_ns", FieldVal::U64(lookup.as_nanos())));
                f.push(("saved_ns", FieldVal::U64(saved.as_nanos())));
                f
            }
            EventKind::Backoff { attempt, delay } => vec![
                ("attempt", FieldVal::U64(u64::from(*attempt))),
                ("delay_ns", FieldVal::U64(delay.as_nanos())),
            ],
            EventKind::Evicted { pages, cost } => vec![
                ("pages", FieldVal::U64(*pages)),
                ("cost_ns", FieldVal::U64(cost.as_nanos())),
            ],
            EventKind::Recovery { event } => {
                let mut f = vec![("attempts", FieldVal::U64(u64::from(event.attempts)))];
                match event.action {
                    RecoveryAction::RetriedAlloc => {
                        f.push(("action", FieldVal::Str("retried_alloc".into())));
                    }
                    RecoveryAction::EvictedThenRetriedAlloc { pages } => {
                        f.push(("action", FieldVal::Str("evicted_then_retried_alloc".into())));
                        f.push(("pages", FieldVal::U64(pages)));
                    }
                    RecoveryAction::RetriedCopy => {
                        f.push(("action", FieldVal::Str("retried_copy".into())));
                    }
                    RecoveryAction::RetriedDispatch => {
                        f.push(("action", FieldVal::Str("retried_dispatch".into())));
                    }
                    RecoveryAction::XnackLost => {
                        f.push(("action", FieldVal::Str("xnack_lost".into())));
                    }
                    RecoveryAction::StartupDegradation { from, to } => {
                        f.push(("action", FieldVal::Str("startup_degradation".into())));
                        f.push(("from", FieldVal::Str(from.label().into())));
                        f.push(("to", FieldVal::Str(to.label().into())));
                    }
                }
                f
            }
            EventKind::Sanitizer { code } => {
                vec![("code", FieldVal::Str(code.as_str().into()))]
            }
        }
    }
}

/// A scalar value in an event's flat payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldVal {
    /// Unsigned integer (counts, bytes, nanoseconds, addresses).
    U64(u64),
    /// String (names, enums rendered as stable tokens).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

/// One telemetry event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number across the whole run (survives ring
    /// eviction, so gaps reveal exactly which events were dropped).
    pub seq: u64,
    /// Issuing host thread.
    pub thread: u32,
    /// Ops recorded on `thread`'s stream when the charged work began.
    pub anchor: u32,
    /// Ops recorded when the charged work ended (equal to `anchor` for
    /// instantaneous decisions such as elisions and sanitizer verdicts).
    pub anchor_end: u32,
    /// Payload.
    pub kind: EventKind,
}

/// Bounded drop-oldest event buffer with explicit overflow accounting.
#[derive(Debug)]
pub struct EventRing {
    buf: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl EventRing {
    /// An empty ring holding at most `capacity` events (minimum 1). Storage
    /// grows lazily; nothing is preallocated.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Record one event. When the ring is full the *oldest* event is evicted
    /// (flight-recorder semantics) and the dropped counter incremented —
    /// overflow is accounted, never silent.
    pub fn push(&mut self, thread: u32, anchor: u32, anchor_end: u32, kind: EventKind) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event {
            seq: self.next_seq,
            thread,
            anchor,
            anchor_end,
            kind,
        });
        self.next_seq += 1;
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finish collection, yielding the report consumed by the sinks.
    pub fn into_report(self) -> TelemetryReport {
        TelemetryReport {
            events: self.buf.into_iter().collect(),
            dropped_events: self.dropped,
            capacity: self.capacity,
        }
    }
}

/// The collected event stream of one run, as attached to
/// [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Events in emission order (oldest may have been evicted — check
    /// [`dropped_events`](Self::dropped_events)).
    pub events: Vec<Event>,
    /// Events lost to ring overflow. The `ledger == fold(events)` contract
    /// holds exactly when this is zero.
    pub dropped_events: u64,
    /// Ring capacity the run was collected with.
    pub capacity: usize,
}

impl OverheadLedger {
    /// Charge one event: the single definition of what each [`EventKind`]
    /// adds to the ledger. The runtime's recorder, [`fold`] and
    /// [`attribution`] all charge through here, so they agree by
    /// construction.
    pub fn apply(&mut self, kind: &EventKind) {
        match kind {
            EventKind::MapBegin { .. } | EventKind::MapEnd { .. } => self.maps += 1,
            EventKind::MapService { cost, .. } => self.mm_map += *cost,
            EventKind::PoolAlloc { cost, .. } => self.mm_alloc += *cost,
            EventKind::PoolFree { cost, .. } => self.mm_free += *cost,
            EventKind::Copy { bytes, cost, .. } => {
                self.mm_copy += *cost;
                self.copies += 1;
                self.bytes_copied += *bytes;
            }
            EventKind::Prefault {
                cost,
                recovery: true,
                ..
            } => {
                self.recovery_prefault += *cost;
                self.recovery_prefaults += 1;
            }
            EventKind::Prefault { cost, .. } => {
                self.mm_prefault += *cost;
                self.prefault_calls += 1;
            }
            // `stall` is the schedule's, not a charge: MI is `fault_stall`.
            EventKind::KernelComplete {
                compute,
                fault_stall,
                tlb_stall,
                replayed_pages,
                zero_filled_pages,
                ..
            } => {
                self.kernel_compute += *compute;
                self.kernels += 1;
                self.mi_fault_stall += *fault_stall;
                self.tlb_stall += *tlb_stall;
                self.replayed_pages += *replayed_pages;
                self.zero_filled_pages += *zero_filled_pages;
            }
            EventKind::Elide { lookup, saved, .. } => {
                self.mm_map += *lookup;
                self.mm_saved += *saved;
                self.maps_elided += 1;
            }
            EventKind::Backoff { delay, .. } => {
                self.retries += 1;
                self.recovery_backoff += *delay;
            }
            EventKind::Evicted { pages, cost } => {
                self.evicted_for_retry += *pages;
                self.recovery_backoff += *cost;
            }
            EventKind::Recovery { event } => match event.action {
                RecoveryAction::XnackLost | RecoveryAction::StartupDegradation { .. } => {
                    self.degradations += 1;
                }
                _ => self.recoveries += 1,
            },
            EventKind::KernelLaunch { .. } | EventKind::Sanitizer { .. } => {}
        }
    }
}

/// The runtime's charge recorder: the [`OverheadLedger`] and, when telemetry
/// is on, the [`EventRing`]. Its one mutator, [`record`](Self::record),
/// applies an event to the ledger and records the same event in the ring,
/// so the ledger is the running fold of the stream.
#[derive(Debug)]
pub(crate) struct Recorder {
    ledger: OverheadLedger,
    ring: Option<EventRing>,
}

impl Recorder {
    /// An empty ledger, plus a ring when `mode` collects.
    pub(crate) fn new(mode: TelemetryMode) -> Self {
        Recorder {
            ledger: OverheadLedger::default(),
            ring: match mode {
                TelemetryMode::Off => None,
                TelemetryMode::Ring(capacity) => Some(EventRing::new(capacity)),
            },
        }
    }

    /// Charge `kind` to the ledger and, ring on, record it on `thread`
    /// covering the op-stream anchors `anchor..anchor_end`.
    pub(crate) fn record(&mut self, thread: u32, anchor: u32, anchor_end: u32, kind: EventKind) {
        self.ledger.apply(&kind);
        if let Some(ring) = &mut self.ring {
            ring.push(thread, anchor, anchor_end, kind);
        }
    }

    /// The ledger so far.
    pub(crate) fn ledger(&self) -> &OverheadLedger {
        &self.ledger
    }

    /// Events evicted by ring overflow so far (0 when off).
    pub(crate) fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, EventRing::dropped)
    }

    /// Finish recording: the ledger, and the stream when the ring was on.
    pub(crate) fn into_report(self) -> (OverheadLedger, Option<TelemetryReport>) {
        (self.ledger, self.ring.map(EventRing::into_report))
    }
}

/// Replay an event stream into the ledger it implies: [`OverheadLedger::apply`]
/// over every event.
///
/// For a complete stream (`dropped_events == 0`) the result equals the
/// runtime's [`OverheadLedger`] field for field, because the runtime's
/// recorder built that ledger by applying the same events.
pub fn fold(events: &[Event]) -> OverheadLedger {
    let mut l = OverheadLedger::default();
    for e in events {
        l.apply(&e.kind);
    }
    l
}

/// An event placed on the resolved schedule's virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// When the charged work began.
    pub start: VirtInstant,
    /// When it ended (equal to `start` for instantaneous events).
    pub end: VirtInstant,
    /// The event.
    pub event: Event,
}

/// Resolve anchors against a finished schedule: anchor `k` on thread `t`
/// maps to the completion time of `t`'s `k-1`-th operation (simulation start
/// for `k == 0`). Anchors past the stream end clamp to the thread's finish
/// time, so partially dropped streams still resolve.
pub fn resolve(report: &TelemetryReport, schedule: &Schedule) -> Vec<TimedEvent> {
    let ends = schedule.per_thread_op_ends();
    let at = |thread: u32, anchor: u32| -> VirtInstant {
        let Some(ops) = ends.get(thread as usize) else {
            return VirtInstant::ZERO;
        };
        if anchor == 0 {
            return VirtInstant::ZERO;
        }
        let idx = (anchor as usize - 1).min(ops.len().saturating_sub(1));
        ops.get(idx).copied().unwrap_or(VirtInstant::ZERO)
    };
    report
        .events
        .iter()
        .map(|e| TimedEvent {
            start: at(e.thread, e.anchor),
            end: at(e.thread, e.anchor_end),
            event: e.clone(),
        })
        .collect()
}

/// Escape `s` for a JSON string literal: quote, backslash, `\n`, `\r` and
/// `\t` get their short escapes, other control characters `\u00XX`. Every
/// JSON sink of the workspace (JSONL, the merged Chrome trace, the check
/// report) escapes through this one function.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl FieldVal {
    /// Append this value as a JSON scalar (strings through
    /// [`json_escape`]).
    pub fn write_json(&self, out: &mut String) {
        let _ = match self {
            FieldVal::U64(n) => write!(out, "{n}"),
            FieldVal::Str(s) => write!(out, "\"{}\"", json_escape(s)),
            FieldVal::Bool(b) => write!(out, "{b}"),
        };
    }
}

/// Serialize a report as JSONL: a header object (carrying
/// `dropped_events`) followed by one flat object per event. The format is
/// write-only: no library code reads it back, and the header's
/// `events` count plus gap-free `seq` numbers from `dropped_events` are
/// what a reader checks for completeness.
pub fn to_jsonl(report: &TelemetryReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"header\",\"version\":1,\"capacity\":{},\"events\":{},\"dropped_events\":{}}}",
        report.capacity,
        report.events.len(),
        report.dropped_events
    );
    for e in &report.events {
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"seq\":{},\"thread\":{},\"anchor\":{},\"anchor_end\":{},\"kind\":\"{}\"",
            e.seq,
            e.thread,
            e.anchor,
            e.anchor_end,
            e.kind.name()
        );
        for (k, v) in e.kind.fields() {
            let _ = write!(out, ",\"{k}\":");
            v.write_json(&mut out);
        }
        out.push_str("}\n");
    }
    out
}

/// Aggregated charges for one map site (keyed by host extent): the ledger
/// of the site's events, plus the one count a ledger lacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteProfile {
    /// The host extent identifying the site.
    pub range: AddrRange,
    /// Pool allocations backing the site.
    pub allocs: u64,
    /// What the site's events charged, folded through
    /// [`OverheadLedger::apply`]: maps, copies and their bytes, elisions,
    /// eager prefaults and the MM micro-charges.
    pub ledger: OverheadLedger,
}

impl SiteProfile {
    /// An empty profile for the site at `range`.
    pub fn new(range: AddrRange) -> Self {
        SiteProfile {
            range,
            allocs: 0,
            ledger: OverheadLedger::default(),
        }
    }

    /// Fold another profile of the same site into this one.
    pub fn absorb(&mut self, other: &SiteProfile) {
        self.allocs += other.allocs;
        self.ledger.absorb(&other.ledger);
    }
}

/// Aggregated charges for one kernel (keyed by region name): the ledger of
/// its completions (launches, compute, MI and TLB stalls, faulted pages).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelProfile {
    /// Region name.
    pub name: String,
    /// What the kernel's completions charged, folded through
    /// [`OverheadLedger::apply`].
    pub ledger: OverheadLedger,
}

/// Per-site / per-kernel drill-down of the Table III decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionReport {
    /// Map sites, ranked by total MM charge (descending, ties by address).
    pub sites: Vec<SiteProfile>,
    /// Kernels, ranked by XNACK fault stall (descending, ties by name).
    pub kernels: Vec<KernelProfile>,
    /// Events lost to ring overflow; nonzero means the profile is a lower
    /// bound, not an exact decomposition.
    pub dropped_events: u64,
}

/// The map site (host extent) an event's charge is attributed to. A
/// recovery prefault charges the recovery ledger, not a site; kernel,
/// retry, recovery and sanitizer events have no site.
fn site_of(kind: &EventKind) -> Option<&AddrRange> {
    match kind {
        EventKind::MapBegin { range, .. }
        | EventKind::MapEnd { range, .. }
        | EventKind::MapService { range, .. }
        | EventKind::PoolAlloc { range, .. }
        | EventKind::PoolFree { range, .. }
        | EventKind::Copy { range, .. }
        | EventKind::Prefault {
            range,
            recovery: false,
            ..
        }
        | EventKind::Elide { range, .. } => Some(range),
        EventKind::Prefault { recovery: true, .. }
        | EventKind::KernelLaunch { .. }
        | EventKind::KernelComplete { .. }
        | EventKind::Backoff { .. }
        | EventKind::Evicted { .. }
        | EventKind::Recovery { .. }
        | EventKind::Sanitizer { .. } => None,
    }
}

/// Build the per-site attribution report from an event stream. Each site's
/// events and each kernel's completions fold through
/// [`OverheadLedger::apply`] into the profile's own ledger; only a site's
/// `allocs` is counted here.
pub fn attribution(report: &TelemetryReport) -> AttributionReport {
    let mut sites: HashMap<(u64, u64), SiteProfile> = HashMap::new();
    let mut kernels: HashMap<&str, OverheadLedger> = HashMap::new();
    for e in &report.events {
        if let Some(range) = site_of(&e.kind) {
            let site = sites
                .entry((range.start.as_u64(), range.len))
                .or_insert_with(|| SiteProfile::new(*range));
            site.ledger.apply(&e.kind);
            if let EventKind::PoolAlloc { .. } = e.kind {
                site.allocs += 1;
            }
        } else if let EventKind::KernelComplete { name, .. } = &e.kind {
            kernels.entry(&**name).or_default().apply(&e.kind);
        }
    }
    let mut sites: Vec<SiteProfile> = sites.into_values().collect();
    let mut kernels: Vec<KernelProfile> = kernels
        .into_iter()
        .map(|(name, ledger)| KernelProfile {
            name: name.to_string(),
            ledger,
        })
        .collect();
    rank_profiles(&mut sites, &mut kernels);
    AttributionReport {
        sites,
        kernels,
        dropped_events: report.dropped_events,
    }
}

/// Attribution order: sites by total MM charge (descending, ties by address
/// then length), kernels by XNACK fault stall (descending, ties by name).
/// [`attribution`] and the sweep's merged aggregate both rank through here.
pub fn rank_profiles(sites: &mut [SiteProfile], kernels: &mut [KernelProfile]) {
    sites.sort_by(|a, b| {
        b.ledger
            .mm_total()
            .cmp(&a.ledger.mm_total())
            .then(a.range.start.as_u64().cmp(&b.range.start.as_u64()))
            .then(a.range.len.cmp(&b.range.len))
    });
    kernels.sort_by(|a, b| {
        b.ledger
            .mi_fault_stall
            .cmp(&a.ledger.mi_fault_stall)
            .then(a.name.cmp(&b.name))
    });
}

impl AttributionReport {
    /// Human-readable drill-down: top-`top_n` map sites by MM charge and
    /// kernels by MI stall, with the overflow counter in the header.
    pub fn render_text(&self, top_n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "attribution: {} sites, {} kernels (dropped events: {})",
            self.sites.len(),
            self.kernels.len(),
            self.dropped_events
        );
        let _ = writeln!(
            out,
            "{:>18} | {:>5} | {:>6} | {:>12} | {:>11} | {:>10}",
            "site [start+len]", "maps", "elided", "MM total (us)", "copies (us)", "saved (us)"
        );
        for s in self.sites.iter().take(top_n) {
            let _ = writeln!(
                out,
                "{:>18} | {:>5} | {:>6} | {:>13.1} | {:>11.1} | {:>10.1}",
                format!("{:#x}+{}", s.range.start.as_u64(), s.range.len),
                s.ledger.maps,
                s.ledger.maps_elided,
                s.ledger.mm_total().as_micros_f64(),
                s.ledger.mm_copy.as_micros_f64(),
                s.ledger.mm_saved.as_micros_f64()
            );
        }
        let _ = writeln!(
            out,
            "{:>18} | {:>8} | {:>12} | {:>14} | {:>9}",
            "kernel", "launches", "compute (us)", "MI stall (us)", "replayed"
        );
        for k in self.kernels.iter().take(top_n) {
            let _ = writeln!(
                out,
                "{:>18} | {:>8} | {:>12.1} | {:>14.1} | {:>9}",
                k.name,
                k.ledger.kernels,
                k.ledger.kernel_compute.as_micros_f64(),
                k.ledger.mi_fault_stall.as_micros_f64(),
                k.ledger.replayed_pages
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use apu_mem::VirtAddr;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            thread: 0,
            anchor: 0,
            anchor_end: 0,
            kind,
        }
    }

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(VirtAddr(start), len)
    }

    /// An eviction of `pages` that charges no teardown time.
    fn evicted(pages: u64) -> EventKind {
        EventKind::Evicted {
            pages,
            cost: VirtDuration::ZERO,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts_at_the_capacity_boundary() {
        let mut ring = EventRing::new(3);
        for i in 0..3 {
            ring.push(0, i, i, evicted(u64::from(i)));
        }
        // Exactly full: nothing dropped yet.
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 0);
        // One past capacity: the oldest event (seq 0) is evicted, accounted.
        ring.push(0, 3, 3, evicted(3));
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 1);
        let report = ring.into_report();
        assert_eq!(report.dropped_events, 1);
        assert_eq!(report.events.len(), 3);
        // Sequence numbers survive eviction, exposing the gap.
        assert_eq!(
            report.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn ring_capacity_zero_is_clamped_to_one() {
        let mut ring = EventRing::new(0);
        ring.push(0, 0, 0, evicted(1));
        ring.push(0, 0, 0, evicted(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn fold_replays_every_charge() {
        let us = VirtDuration::from_micros;
        let events = vec![
            ev(
                0,
                EventKind::MapBegin {
                    range: r(0x1000, 64),
                    dir: MapDir::ToFrom,
                    always: false,
                },
            ),
            ev(
                1,
                EventKind::PoolAlloc {
                    range: r(0x1000, 64),
                    cost: us(3),
                },
            ),
            ev(
                2,
                EventKind::Copy {
                    range: r(0x1000, 64),
                    bytes: 64,
                    cost: us(5),
                    to_host: false,
                },
            ),
            ev(
                3,
                EventKind::Prefault {
                    range: r(0x1000, 64),
                    cost: us(2),
                    recovery: false,
                },
            ),
            ev(
                4,
                EventKind::KernelComplete {
                    name: Arc::from("k"),
                    compute: us(100),
                    fault_stall: us(40),
                    tlb_stall: us(1),
                    stall: us(51),
                    replayed_pages: 7,
                    zero_filled_pages: 2,
                },
            ),
            ev(
                5,
                EventKind::Elide {
                    range: r(0x1000, 64),
                    probe: ElideProbe::CacheHit,
                    lookup: us(1),
                    saved: us(9),
                },
            ),
            ev(
                6,
                EventKind::Backoff {
                    attempt: 1,
                    delay: us(8),
                },
            ),
            ev(
                7,
                EventKind::Evicted {
                    pages: 16,
                    cost: us(11),
                },
            ),
            ev(
                8,
                EventKind::Recovery {
                    event: RecoveryEvent {
                        thread: 0,
                        attempts: 2,
                        action: RecoveryAction::RetriedAlloc,
                    },
                },
            ),
            ev(
                9,
                EventKind::Recovery {
                    event: RecoveryEvent {
                        thread: 0,
                        attempts: 0,
                        action: RecoveryAction::XnackLost,
                    },
                },
            ),
            ev(
                10,
                EventKind::MapEnd {
                    range: r(0x1000, 64),
                    dir: MapDir::ToFrom,
                    delete: false,
                },
            ),
            ev(
                11,
                EventKind::PoolFree {
                    range: r(0x1000, 64),
                    cost: us(1),
                },
            ),
            ev(
                12,
                EventKind::Prefault {
                    range: r(0x2000, 64),
                    cost: us(4),
                    recovery: true,
                },
            ),
            ev(
                13,
                EventKind::KernelLaunch {
                    name: Arc::from("k"),
                    compute: us(100),
                },
            ),
            ev(
                14,
                EventKind::MapService {
                    range: r(0x1000, 64),
                    cost: us(6),
                },
            ),
            ev(
                15,
                EventKind::Sanitizer {
                    code: DiagCode::Mc007,
                },
            ),
        ];
        // Every variant appears: this match has no wildcard, so a new
        // variant fails to compile here until the test covers it.
        let mut seen = [false; 14];
        for e in &events {
            seen[match e.kind {
                EventKind::MapBegin { .. } => 0,
                EventKind::MapEnd { .. } => 1,
                EventKind::MapService { .. } => 2,
                EventKind::PoolAlloc { .. } => 3,
                EventKind::PoolFree { .. } => 4,
                EventKind::Copy { .. } => 5,
                EventKind::Prefault { .. } => 6,
                EventKind::KernelLaunch { .. } => 7,
                EventKind::KernelComplete { .. } => 8,
                EventKind::Elide { .. } => 9,
                EventKind::Backoff { .. } => 10,
                EventKind::Evicted { .. } => 11,
                EventKind::Recovery { .. } => 12,
                EventKind::Sanitizer { .. } => 13,
            }] = true;
        }
        assert!(seen.iter().all(|s| *s), "{seen:?}");
        assert_eq!(
            fold(&events),
            OverheadLedger {
                mm_alloc: us(3),
                mm_copy: us(5),
                mm_free: us(1),
                mm_prefault: us(2),
                // Map service plus the elision lookup.
                mm_map: us(6 + 1),
                mm_saved: us(9),
                maps_elided: 1,
                // The completion's schedule `stall` (51 µs) is not charged.
                mi_fault_stall: us(40),
                tlb_stall: us(1),
                kernel_compute: us(100),
                kernels: 1,
                copies: 1,
                bytes_copied: 64,
                maps: 2,
                replayed_pages: 7,
                zero_filled_pages: 2,
                prefault_calls: 1,
                // The backoff wait plus the eviction's teardown.
                recovery_backoff: us(8 + 11),
                recovery_prefault: us(4),
                retries: 1,
                // RetriedAlloc takes the recovery arm, XnackLost the
                // degradation arm.
                recoveries: 1,
                degradations: 1,
                evicted_for_retry: 16,
                recovery_prefaults: 1,
            }
        );
        // The two marker variants charge nothing.
        let mut l = OverheadLedger::default();
        l.apply(&events[13].kind);
        l.apply(&events[15].kind);
        assert_eq!(l, OverheadLedger::default());
    }

    /// [`to_jsonl`] of [`every_kind_report`], byte for byte.
    const JSONL_EVERY_KIND: &str = r#"{"type":"header","version":1,"capacity":128,"events":15,"dropped_events":5}
{"type":"event","seq":0,"thread":2,"anchor":0,"anchor_end":1,"kind":"map_begin","start":16,"len":8,"dir":"to","always":true}
{"type":"event","seq":1,"thread":2,"anchor":1,"anchor_end":2,"kind":"map_end","start":16,"len":8,"dir":"from","delete":true}
{"type":"event","seq":2,"thread":2,"anchor":2,"anchor_end":3,"kind":"map_service","start":32,"len":8,"cost_ns":2000}
{"type":"event","seq":3,"thread":2,"anchor":3,"anchor_end":4,"kind":"pool_alloc","start":32,"len":8,"cost_ns":3000}
{"type":"event","seq":4,"thread":2,"anchor":4,"anchor_end":5,"kind":"pool_free","start":32,"len":8,"cost_ns":4000}
{"type":"event","seq":5,"thread":2,"anchor":5,"anchor_end":6,"kind":"copy","start":48,"len":16,"bytes":16,"cost_ns":5000,"to_host":true}
{"type":"event","seq":6,"thread":2,"anchor":6,"anchor_end":7,"kind":"prefault","start":64,"len":32,"cost_ns":6000,"recovery":true}
{"type":"event","seq":7,"thread":2,"anchor":7,"anchor_end":8,"kind":"kernel_launch","name":"stencil \"hot\"\nloop","compute_ns":7000}
{"type":"event","seq":8,"thread":2,"anchor":8,"anchor_end":9,"kind":"kernel_complete","name":"stencil \"hot\"\nloop","compute_ns":7000,"fault_stall_ns":8000,"tlb_stall_ns":1000,"stall_ns":19000,"replayed_pages":3,"zero_filled_pages":1}
{"type":"event","seq":9,"thread":2,"anchor":9,"anchor_end":10,"kind":"elide","start":80,"len":64,"probe":"miss","lookup_ns":1000,"saved_ns":9000}
{"type":"event","seq":10,"thread":2,"anchor":10,"anchor_end":11,"kind":"backoff","attempt":3,"delay_ns":10000}
{"type":"event","seq":11,"thread":2,"anchor":11,"anchor_end":12,"kind":"evicted","pages":12,"cost_ns":11000}
{"type":"event","seq":12,"thread":2,"anchor":12,"anchor_end":13,"kind":"recovery","attempts":1,"action":"evicted_then_retried_alloc","pages":12}
{"type":"event","seq":13,"thread":2,"anchor":13,"anchor_end":14,"kind":"recovery","attempts":0,"action":"startup_degradation","from":"USM","to":"Copy"}
{"type":"event","seq":14,"thread":2,"anchor":14,"anchor_end":15,"kind":"sanitizer","code":"MC007"}
"#;

    /// One event of every kind on thread 2, anchors `i..i + 1`, after 5
    /// dropped events: the fixture behind the JSONL and attribution goldens.
    fn every_kind_report() -> TelemetryReport {
        let us = VirtDuration::from_micros;
        let kinds = vec![
            EventKind::MapBegin {
                range: r(0x10, 8),
                dir: MapDir::To,
                always: true,
            },
            EventKind::MapEnd {
                range: r(0x10, 8),
                dir: MapDir::From,
                delete: true,
            },
            EventKind::MapService {
                range: r(0x20, 8),
                cost: us(2),
            },
            EventKind::PoolAlloc {
                range: r(0x20, 8),
                cost: us(3),
            },
            EventKind::PoolFree {
                range: r(0x20, 8),
                cost: us(4),
            },
            EventKind::Copy {
                range: r(0x30, 16),
                bytes: 16,
                cost: us(5),
                to_host: true,
            },
            EventKind::Prefault {
                range: r(0x40, 32),
                cost: us(6),
                recovery: true,
            },
            EventKind::KernelLaunch {
                name: Arc::from("stencil \"hot\"\nloop"),
                compute: us(7),
            },
            EventKind::KernelComplete {
                name: Arc::from("stencil \"hot\"\nloop"),
                compute: us(7),
                fault_stall: us(8),
                tlb_stall: us(1),
                stall: us(19),
                replayed_pages: 3,
                zero_filled_pages: 1,
            },
            EventKind::Elide {
                range: r(0x50, 64),
                probe: ElideProbe::CacheMiss,
                lookup: us(1),
                saved: us(9),
            },
            EventKind::Backoff {
                attempt: 3,
                delay: us(10),
            },
            EventKind::Evicted {
                pages: 12,
                cost: us(11),
            },
            EventKind::Recovery {
                event: RecoveryEvent {
                    thread: 2,
                    attempts: 1,
                    action: RecoveryAction::EvictedThenRetriedAlloc { pages: 12 },
                },
            },
            EventKind::Recovery {
                event: RecoveryEvent {
                    thread: 2,
                    attempts: 0,
                    action: RecoveryAction::StartupDegradation {
                        from: RuntimeConfig::UnifiedSharedMemory,
                        to: RuntimeConfig::LegacyCopy,
                    },
                },
            },
            EventKind::Sanitizer {
                code: DiagCode::Mc007,
            },
        ];
        let events: Vec<Event> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: i as u64,
                thread: 2,
                anchor: i as u32,
                anchor_end: i as u32 + 1,
                kind,
            })
            .collect();
        TelemetryReport {
            events,
            dropped_events: 5,
            capacity: 128,
        }
    }

    #[test]
    fn jsonl_of_every_kind_is_pinned() {
        assert_eq!(to_jsonl(&every_kind_report()), JSONL_EVERY_KIND);
    }

    /// Every site and kernel ledger of the every-kind fixture, plus one
    /// eager prefault so that `mm_prefault` and `prefault_calls` are charged
    /// too. The recovery prefault at 0x40 creates no site.
    #[test]
    fn attribution_of_every_kind_is_pinned() {
        let us = VirtDuration::from_micros;
        let mut report = every_kind_report();
        report.events.push(Event {
            seq: 15,
            thread: 2,
            anchor: 15,
            anchor_end: 16,
            kind: EventKind::Prefault {
                range: r(0x10, 8),
                cost: us(6),
                recovery: false,
            },
        });
        let site = |start, len, allocs, ledger| SiteProfile {
            range: r(start, len),
            allocs,
            ledger,
        };
        assert_eq!(
            attribution(&report),
            AttributionReport {
                sites: vec![
                    site(
                        0x20,
                        8,
                        1,
                        OverheadLedger {
                            mm_alloc: us(3),
                            mm_free: us(4),
                            mm_map: us(2),
                            ..OverheadLedger::default()
                        }
                    ),
                    site(
                        0x10,
                        8,
                        0,
                        OverheadLedger {
                            maps: 2,
                            mm_prefault: us(6),
                            prefault_calls: 1,
                            ..OverheadLedger::default()
                        }
                    ),
                    site(
                        0x30,
                        16,
                        0,
                        OverheadLedger {
                            copies: 1,
                            bytes_copied: 16,
                            mm_copy: us(5),
                            ..OverheadLedger::default()
                        }
                    ),
                    site(
                        0x50,
                        64,
                        0,
                        OverheadLedger {
                            maps_elided: 1,
                            mm_map: us(1),
                            mm_saved: us(9),
                            ..OverheadLedger::default()
                        }
                    ),
                ],
                kernels: vec![KernelProfile {
                    name: "stencil \"hot\"\nloop".into(),
                    ledger: OverheadLedger {
                        kernels: 1,
                        kernel_compute: us(7),
                        mi_fault_stall: us(8),
                        tlb_stall: us(1),
                        replayed_pages: 3,
                        zero_filled_pages: 1,
                        ..OverheadLedger::default()
                    },
                }],
                dropped_events: 5,
            }
        );
    }

    #[test]
    fn attribution_ranks_sites_by_mm_and_kernels_by_stall() {
        let us = VirtDuration::from_micros;
        let events = vec![
            ev(
                0,
                EventKind::PoolAlloc {
                    range: r(0x1000, 64),
                    cost: us(10),
                },
            ),
            ev(
                1,
                EventKind::Copy {
                    range: r(0x2000, 64),
                    bytes: 64,
                    cost: us(50),
                    to_host: false,
                },
            ),
            ev(
                2,
                EventKind::KernelComplete {
                    name: Arc::from("cold"),
                    compute: us(5),
                    fault_stall: us(1),
                    tlb_stall: us(0),
                    stall: us(11),
                    replayed_pages: 1,
                    zero_filled_pages: 0,
                },
            ),
            ev(
                3,
                EventKind::KernelComplete {
                    name: Arc::from("hot"),
                    compute: us(5),
                    fault_stall: us(100),
                    tlb_stall: us(0),
                    stall: us(110),
                    replayed_pages: 9,
                    zero_filled_pages: 4,
                },
            ),
        ];
        let report = TelemetryReport {
            events,
            dropped_events: 0,
            capacity: 16,
        };
        let attr = attribution(&report);
        assert_eq!(attr.sites.len(), 2);
        assert_eq!(attr.sites[0].range, r(0x2000, 64));
        assert_eq!(attr.sites[0].ledger.mm_copy, us(50));
        assert_eq!(attr.kernels[0].name, "hot");
        assert_eq!(attr.kernels[1].name, "cold");
        let text = attr.render_text(10);
        assert!(text.contains("dropped events: 0"));
        assert!(text.contains("hot"));
    }

    #[test]
    fn resolve_places_anchors_on_the_schedule_clock() {
        // Build a tiny schedule by hand through the sim engine.
        use sim_des::{schedule, Machine, Op, OpStreams, RunOptions, Tag};
        let machine = Machine::new();
        let mut streams = OpStreams::new(1);
        streams.push(0, Op::local(Tag(1), VirtDuration::from_nanos(100)));
        streams.push(0, Op::local(Tag(2), VirtDuration::from_nanos(50)));
        let sched = schedule(machine, streams, &RunOptions::noiseless());
        let report = TelemetryReport {
            events: vec![
                Event {
                    seq: 0,
                    thread: 0,
                    anchor: 0,
                    anchor_end: 1,
                    kind: evicted(1),
                },
                Event {
                    seq: 1,
                    thread: 0,
                    anchor: 1,
                    anchor_end: 2,
                    kind: evicted(2),
                },
                // Unknown thread and overlong anchors clamp, never panic.
                Event {
                    seq: 2,
                    thread: 7,
                    anchor: 9,
                    anchor_end: 9,
                    kind: evicted(3),
                },
            ],
            dropped_events: 0,
            capacity: 8,
        };
        let timed = resolve(&report, &sched);
        assert_eq!(timed[0].start, VirtInstant::ZERO);
        assert_eq!(timed[0].end, VirtInstant::from_nanos(100));
        assert_eq!(timed[1].start, VirtInstant::from_nanos(100));
        assert_eq!(timed[1].end, VirtInstant::from_nanos(150));
        assert_eq!(timed[2].start, VirtInstant::ZERO);
        assert_eq!(timed[2].end, VirtInstant::ZERO);
    }
}

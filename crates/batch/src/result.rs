//! Sweep results: the exact, serializable outcome of one request.
//!
//! A [`SweepResult`] carries everything the sweep surfaces report — replay
//! op counts, the virtual makespan, the full [`OverheadLedger`], the memory
//! digest, the sanitizer's findings, and (when the request ran with the
//! telemetry ring) the per-site/per-kernel attribution aggregate. The
//! line-oriented `sweepresult v2` text form round-trips exactly, which is
//! what the content-addressed cache stores: a cache hit *parses* the stored
//! result and is therefore byte-indistinguishable from a fresh simulation
//! in every downstream report. The determinism matrix test pins that
//! contract at `-j {1,4,8}`, cold and warm.

use apu_mem::{AddrRange, VirtAddr};
use omp_offload::telemetry::{rank_profiles, KernelProfile, SiteProfile};
use omp_offload::{KernelOp, LedgerField, LedgerUnit, OverheadLedger, LEDGER_FIELDS};
use sim_des::VirtDuration;
use std::fmt::Write as _;

/// The serialized-result schema version, folded into the cache salt.
/// Version 2 appends `prefault_calls` to each `site` row.
pub const RESULT_VERSION: u32 = 2;

/// Outcome of one executed (or cache-recalled) sweep request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepResult {
    /// Captured records re-executed.
    pub ops: u64,
    /// Kernel launches among them.
    pub kernels: u64,
    /// Virtual makespan of the replay.
    pub makespan: VirtDuration,
    /// FNV-1a digest of live memory after the program body (before
    /// teardown of the runtime).
    pub memory_digest: u64,
    /// The complete overhead ledger.
    pub ledger: OverheadLedger,
    /// Sanitizer findings, rendered, in detection order.
    pub diagnostics: Vec<String>,
    /// Telemetry events collected (0 when the ring was off).
    pub telemetry_events: u64,
    /// Telemetry events lost to ring overflow.
    pub dropped_events: u64,
    /// Per-map-site attribution (empty when the ring was off), in
    /// attribution rank order (MM-heaviest first, ties by address).
    pub sites: Vec<SiteProfile>,
    /// Per-kernel attribution (empty when the ring was off), in rank order
    /// (fault-stall-heaviest first, ties by name).
    pub kernel_rows: Vec<KernelProfile>,
    /// Per-tenant rows for multi-tenant cells, in tenant-id order (empty
    /// for classic single-tenant cells). The primary fields above are
    /// tenant 0's result — byte-equal to running tenant 0 alone.
    pub tenant_rows: Vec<TenantRow>,
}

/// One tenant's summary within a multi-tenant sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantRow {
    /// Tenant id (VA-window index).
    pub tenant: u32,
    /// FNV-1a digest of the tenant's live memory after its program body.
    pub memory_digest: u64,
    /// The tenant's virtual makespan.
    pub makespan: VirtDuration,
    /// Map operations the tenant's ledger charged.
    pub maps: u64,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// A `site` row's columns after its extent, in wire order: `allocs` is the
/// profile's own count, every other column the [`LEDGER_FIELDS`] field of
/// that name. The one column list the writer and the reader walk.
const SITE_COLUMNS: &str = "maps allocs copies bytes_copied maps_elided \
    mm_alloc mm_copy mm_free mm_prefault mm_map mm_saved prefault_calls";

/// A `kernelrow`'s columns after its name: [`LEDGER_FIELDS`] names.
const KERNEL_COLUMNS: &str =
    "kernels kernel_compute mi_fault_stall tlb_stall replayed_pages zero_filled_pages";

/// The [`LEDGER_FIELDS`] field row column `c` names (`None` for `allocs`).
fn ledger_column(c: &str) -> Option<&'static LedgerField> {
    let field = LEDGER_FIELDS.iter().find(|f| f.name == c);
    assert!(
        field.is_some() || c == "allocs",
        "row column {c} is no ledger field"
    );
    field
}

/// Append one row's `columns`, read from `allocs` and `ledger`.
fn write_columns(out: &mut String, columns: &str, allocs: u64, ledger: &OverheadLedger) {
    for c in columns.split_whitespace() {
        let v = ledger_column(c).map_or(allocs, |f| (f.get)(ledger));
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

/// Set one row's `columns` from `values`, into `allocs` and `ledger`.
fn read_columns(columns: &str, values: &[u64], allocs: &mut u64, ledger: &mut OverheadLedger) {
    for (c, &v) in columns.split_whitespace().zip(values) {
        match ledger_column(c) {
            Some(f) => (f.set)(ledger, v),
            None => *allocs = v,
        }
    }
}

/// The form's first line, for its writer and its reader.
fn header() -> String {
    format!("sweepresult v{RESULT_VERSION}")
}

/// A decimal field.
fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// A 16-hex-digit digest field.
fn hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|_| format!("bad digest {s:?}"))
}

/// Exactly `n` decimal fields.
fn nums<'a>(fields: impl Iterator<Item = &'a str>, n: usize) -> Result<Vec<u64>, String> {
    let v: Vec<u64> = fields.map(num).collect::<Result<_, _>>()?;
    if v.len() != n {
        return Err(format!("{n} numbers expected, got {}", v.len()));
    }
    Ok(v)
}

/// One kind of line after the header: its key, every line of it a result
/// writes (each starts with `key`, handed in so [`LINES`] spells it once),
/// and how one line's text after the key lands.
struct Line {
    key: &'static str,
    write: fn(&SweepResult, &str, &mut String) -> std::fmt::Result,
    read: fn(&mut SweepResult, &str) -> Result<(), String>,
}

/// The line of the decimal `u64` field `$f`.
macro_rules! scalar {
    ($f:ident) => {
        Line {
            key: stringify!($f),
            write: |r, key, out| writeln!(out, "{key} {}", r.$f),
            read: |r, text| num(text).map(|v| r.$f = v),
        }
    };
}

/// The lines of the [`LEDGER_FIELDS`] counted in `$unit`, one per field in
/// list order: the key, the field's name and its raw value.
macro_rules! ledger {
    ($key:literal, $unit:ident) => {
        Line {
            key: $key,
            write: |r, key, out| {
                let mut fields = LEDGER_FIELDS.iter().filter(|f| f.unit == LedgerUnit::$unit);
                fields.try_for_each(|f| writeln!(out, "{key} {} {}", f.name, (f.get)(&r.ledger)))
            },
            read: |r, text| {
                let (name, v) = text.split_once(' ').unwrap_or_default();
                let f = LEDGER_FIELDS.iter().find(|f| f.name == name);
                let f = f.filter(|f| f.unit == LedgerUnit::$unit);
                let f = f.ok_or_else(|| format!("unknown ledger field {name:?}"))?;
                num(v).map(|v| (f.set)(&mut r.ledger, v))
            },
        }
    };
}

/// Every kind of line after the header, in wire order: the one key list
/// [`SweepResult::to_text`] writes and [`SweepResult::parse`] looks each
/// line's key up in. Scalars, the ledger, then the repeated rows:
/// diagnostics, attribution sites, tenants and attribution kernels.
const LINES: [Line; 12] = [
    scalar!(ops),
    scalar!(kernels),
    Line {
        key: "makespan_ns",
        write: |r, key, out| writeln!(out, "{key} {}", r.makespan.as_nanos()),
        read: |r, text| num(text).map(|v| r.makespan = VirtDuration::from_nanos(v)),
    },
    Line {
        key: "memory_digest",
        write: |r, key, out| writeln!(out, "{key} {:016x}", r.memory_digest),
        read: |r, text| hex(text).map(|v| r.memory_digest = v),
    },
    ledger!("ledger_ns", Ns),
    ledger!("ledger", Count),
    Line {
        key: "diag",
        write: |r, key, out| {
            let mut diags = r.diagnostics.iter();
            diags.try_for_each(|d| writeln!(out, "{key} {}", esc(d)))
        },
        read: |r, text| {
            r.diagnostics.push(unesc(text));
            Ok(())
        },
    },
    scalar!(telemetry_events),
    scalar!(dropped_events),
    Line {
        key: "site",
        write: |r, key, out| {
            for s in &r.sites {
                write!(out, "{key} {} {}", s.range.start.as_u64(), s.range.len)?;
                write_columns(out, SITE_COLUMNS, s.allocs, &s.ledger);
            }
            Ok(())
        },
        read: |r, text| {
            let width = 2 + SITE_COLUMNS.split_whitespace().count();
            let v = nums(text.split_whitespace(), width)?;
            let mut site = SiteProfile::new(AddrRange::new(VirtAddr(v[0]), v[1]));
            read_columns(SITE_COLUMNS, &v[2..], &mut site.allocs, &mut site.ledger);
            r.sites.push(site);
            Ok(())
        },
    },
    Line {
        key: "tenant",
        write: |r, key, out| {
            r.tenant_rows.iter().try_for_each(|t| {
                let (id, digest, ns) = (t.tenant, t.memory_digest, t.makespan.as_nanos());
                writeln!(out, "{key} {id} {digest:016x} {ns} {}", t.maps)
            })
        },
        read: |r, text| {
            let mut f = text.split_whitespace();
            let (id, digest) = (f.next().unwrap_or_default(), f.next().unwrap_or_default());
            let v = nums(f, 2)?;
            r.tenant_rows.push(TenantRow {
                tenant: num(id)?,
                memory_digest: hex(digest)?,
                makespan: VirtDuration::from_nanos(v[0]),
                maps: v[1],
            });
            Ok(())
        },
    },
    Line {
        key: "kernelrow",
        write: |r, key, out| {
            for k in &r.kernel_rows {
                write!(out, "{key} {}", KernelOp::name_token(&k.name))?;
                write_columns(out, KERNEL_COLUMNS, 0, &k.ledger);
            }
            Ok(())
        },
        read: |r, text| {
            let mut f = text.split_whitespace();
            let name = f.next().unwrap_or_default().to_string();
            let v = nums(f, KERNEL_COLUMNS.split_whitespace().count())?;
            let mut ledger = OverheadLedger::default();
            read_columns(KERNEL_COLUMNS, &v, &mut 0, &mut ledger);
            r.kernel_rows.push(KernelProfile { name, ledger });
            Ok(())
        },
    },
];

impl SweepResult {
    /// Serialize to the line-oriented `sweepresult v2` text form: the
    /// header, then every `LINES` row's lines. The output is canonical:
    /// equal results serialize to equal bytes.
    pub fn to_text(&self) -> String {
        let mut out = format!("{}\n", header());
        for line in &LINES {
            let _ = (line.write)(self, line.key, &mut out);
        }
        out
    }

    /// Parse the `sweepresult v2` form produced by
    /// [`to_text`](Self::to_text).
    pub fn parse(text: &str) -> Result<SweepResult, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l == header() => {}
            other => return Err(format!("bad result header: {other:?}")),
        }
        let mut r = SweepResult::default();
        let lines = lines.map(str::trim).enumerate();
        for (no, text) in lines.filter(|(_, l)| !l.is_empty()) {
            let (key, rest) = text.split_once(' ').unwrap_or((text, ""));
            let read = match LINES.iter().find(|l| l.key == key) {
                Some(line) => (line.read)(&mut r, rest),
                None => Err(format!("unknown key {key:?}")),
            };
            read.map_err(|e| format!("line {}: {e}", no + 2))?;
        }
        Ok(r)
    }
}

/// Merge per-request attribution aggregates across a sweep into one
/// profile: each row's ledger [absorbed](OverheadLedger::absorb) into its
/// site's (by extent) or kernel's (by name), re-ranked by
/// [`rank_profiles`], the order
/// [`attribution`](omp_offload::telemetry::attribution) ranks in.
/// Deterministic for a given result sequence, independent of worker
/// scheduling.
pub fn merge_attribution(results: &[SweepResult]) -> (Vec<SiteProfile>, Vec<KernelProfile>) {
    use std::collections::BTreeMap;
    let mut sites: BTreeMap<(u64, u64), SiteProfile> = BTreeMap::new();
    let mut kernels: BTreeMap<&str, OverheadLedger> = BTreeMap::new();
    for r in results {
        for s in &r.sites {
            sites
                .entry((s.range.start.as_u64(), s.range.len))
                .or_insert_with(|| SiteProfile::new(s.range))
                .absorb(s);
        }
        for k in &r.kernel_rows {
            kernels.entry(&k.name).or_default().absorb(&k.ledger);
        }
    }
    let mut site_rows: Vec<SiteProfile> = sites.into_values().collect();
    let mut kernel_rows: Vec<KernelProfile> = kernels
        .into_iter()
        .map(|(name, ledger)| KernelProfile {
            name: name.to_string(),
            ledger,
        })
        .collect();
    rank_profiles(&mut site_rows, &mut kernel_rows);
    (site_rows, kernel_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepResult {
        let mut r = SweepResult {
            ops: 12,
            kernels: 3,
            makespan: VirtDuration::from_micros(42),
            memory_digest: 0xdead_beef_0042_1234,
            diagnostics: vec!["MC001: stray\nexit".to_string(), "back\\slash".to_string()],
            telemetry_events: 99,
            dropped_events: 0,
            ..SweepResult::default()
        };
        r.ledger.mm_alloc = VirtDuration::from_nanos(1234);
        r.ledger.maps = 7;
        r.ledger.bytes_copied = 1 << 30;
        r.sites.push(SiteProfile {
            ledger: OverheadLedger {
                maps: 2,
                mm_map: VirtDuration::from_nanos(55),
                ..OverheadLedger::default()
            },
            ..SiteProfile::new(AddrRange::new(VirtAddr(4096), 8192))
        });
        r.kernel_rows.push(KernelProfile {
            name: "axpy".into(),
            ledger: OverheadLedger {
                kernels: 3,
                kernel_compute: VirtDuration::from_micros(5),
                tlb_stall: VirtDuration::from_nanos(9),
                ..OverheadLedger::default()
            },
        });
        r.tenant_rows.push(TenantRow {
            tenant: 0,
            memory_digest: 0xdead_beef_0042_1234,
            makespan: VirtDuration::from_micros(42),
            maps: 7,
        });
        r.tenant_rows.push(TenantRow {
            tenant: 3,
            memory_digest: 0x0123_4567_89ab_cdef,
            makespan: VirtDuration::from_micros(40),
            maps: 7,
        });
        r
    }

    #[test]
    fn text_round_trips_exactly() {
        let r = sample();
        let text = r.to_text();
        let back = SweepResult::parse(&text).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn text_bytes_are_pinned() {
        // Cache entries and wire bodies are these bytes: every ledger field
        // gets a distinct value so any reordering or renaming shows up.
        let ns = VirtDuration::from_nanos;
        let r = SweepResult {
            ledger: OverheadLedger {
                mm_alloc: ns(101),
                mm_copy: ns(102),
                mm_free: ns(103),
                mm_prefault: ns(104),
                mm_map: ns(105),
                mm_saved: ns(106),
                mi_fault_stall: ns(107),
                tlb_stall: ns(108),
                kernel_compute: ns(109),
                recovery_backoff: ns(110),
                recovery_prefault: ns(111),
                maps_elided: 201,
                kernels: 202,
                copies: 203,
                bytes_copied: 204,
                maps: 205,
                replayed_pages: 206,
                zero_filled_pages: 207,
                prefault_calls: 208,
                retries: 209,
                recoveries: 210,
                degradations: 211,
                evicted_for_retry: 212,
                recovery_prefaults: 213,
            },
            ..sample()
        };
        let golden = r"sweepresult v2
ops 12
kernels 3
makespan_ns 42000
memory_digest deadbeef00421234
ledger_ns mm_alloc 101
ledger_ns mm_copy 102
ledger_ns mm_free 103
ledger_ns mm_prefault 104
ledger_ns mm_map 105
ledger_ns mm_saved 106
ledger_ns mi_fault_stall 107
ledger_ns tlb_stall 108
ledger_ns kernel_compute 109
ledger_ns recovery_backoff 110
ledger_ns recovery_prefault 111
ledger maps_elided 201
ledger kernels 202
ledger copies 203
ledger bytes_copied 204
ledger maps 205
ledger replayed_pages 206
ledger zero_filled_pages 207
ledger prefault_calls 208
ledger retries 209
ledger recoveries 210
ledger degradations 211
ledger evicted_for_retry 212
ledger recovery_prefaults 213
diag MC001: stray\nexit
diag back\\slash
telemetry_events 99
dropped_events 0
site 4096 8192 2 0 0 0 0 0 0 0 0 55 0 0
tenant 0 deadbeef00421234 42000 7
tenant 3 0123456789abcdef 40000 7
kernelrow axpy 3 5000 0 9 0 0
";
        assert_eq!(r.to_text(), golden);
        assert_eq!(SweepResult::parse(golden).unwrap(), r);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SweepResult::parse("nope").is_err());
        assert!(SweepResult::parse("sweepresult v2\nfrob 3").is_err());
        assert!(SweepResult::parse("sweepresult v2\nledger bogus 3").is_err());
        // A field under the other unit's key is unknown, not coerced.
        assert!(SweepResult::parse("sweepresult v2\nledger mm_alloc 3").is_err());
        assert!(SweepResult::parse("sweepresult v2\nledger_ns maps 3").is_err());
        assert!(SweepResult::parse("sweepresult v2\nsite 1 2 3").is_err());
        assert!(SweepResult::parse("sweepresult v2\ntenant 1 beef").is_err());
        assert!(SweepResult::parse("sweepresult v2\ntenant x beef 1 2").is_err());
        // A v1 entry (13-number site rows) is a stale schema, not a result.
        assert!(SweepResult::parse("sweepresult v1\nops 3").is_err());
        assert!(SweepResult::parse("sweepresult v2\nsite 1 2 3 4 5 6 7 8 9 10 11 12 13").is_err());
    }

    /// One event of each kind that charges a site, and a kernel completion.
    fn charging_kinds() -> Vec<omp_offload::telemetry::EventKind> {
        use omp_offload::telemetry::{ElideProbe, EventKind};
        use omp_offload::MapDir;
        let us = VirtDuration::from_micros;
        let range = AddrRange::new(VirtAddr(0x4000), 4096);
        vec![
            EventKind::MapBegin {
                range,
                dir: MapDir::To,
                always: false,
            },
            EventKind::MapEnd {
                range,
                dir: MapDir::From,
                delete: true,
            },
            EventKind::MapService { range, cost: us(2) },
            EventKind::PoolAlloc { range, cost: us(3) },
            EventKind::PoolFree { range, cost: us(4) },
            EventKind::Copy {
                range,
                bytes: 4096,
                cost: us(5),
                to_host: false,
            },
            EventKind::Prefault {
                range,
                cost: us(6),
                recovery: false,
            },
            EventKind::Elide {
                range,
                probe: ElideProbe::CacheHit,
                lookup: us(1),
                saved: us(9),
            },
            EventKind::KernelComplete {
                name: "axpy".into(),
                compute: us(7),
                fault_stall: us(8),
                tlb_stall: us(1),
                stall: us(16),
                replayed_pages: 3,
                zero_filled_pages: 1,
            },
        ]
    }

    /// A one-event stream of `kind`.
    fn one_event(
        kind: omp_offload::telemetry::EventKind,
    ) -> omp_offload::telemetry::TelemetryReport {
        use omp_offload::telemetry::{Event, TelemetryReport};
        TelemetryReport {
            events: vec![Event {
                seq: 0,
                thread: 0,
                anchor: 0,
                anchor_end: 1,
                kind,
            }],
            dropped_events: 0,
            capacity: 1,
        }
    }

    /// A one-event stream of each charging kind: its one attribution row
    /// carries the stream's whole ledger and survives `to_text` then
    /// `parse` exactly.
    #[test]
    fn attribution_rows_of_every_charging_kind_round_trip() {
        use omp_offload::telemetry::{attribution, fold};
        for kind in charging_kinds() {
            let report = one_event(kind.clone());
            let attr = attribution(&report);
            let rows: Vec<OverheadLedger> = attr
                .sites
                .iter()
                .map(|s| s.ledger)
                .chain(attr.kernels.iter().map(|k| k.ledger))
                .collect();
            assert_eq!(rows, [fold(&report.events)], "{kind:?}");
            let r = SweepResult {
                sites: attr.sites,
                kernel_rows: attr.kernels,
                ..SweepResult::default()
            };
            assert_eq!(SweepResult::parse(&r.to_text()), Ok(r), "{kind:?}");
        }
    }

    /// Every ledger field a site's events change is a `site` column, and
    /// every field a kernel completion changes a `kernelrow` column, so
    /// neither row can drop a charge (as v1 site rows dropped
    /// `prefault_calls`); and both rows round-trip with every column set.
    #[test]
    fn row_columns_cover_every_field_attribution_charges() {
        use omp_offload::telemetry::attribution;
        for kind in charging_kinds() {
            let attr = attribution(&one_event(kind.clone()));
            let (columns, row) = match (&attr.sites[..], &attr.kernels[..]) {
                ([site], []) => (SITE_COLUMNS, site.ledger),
                ([], [kernel]) => (KERNEL_COLUMNS, kernel.ledger),
                _ => panic!("{kind:?} files one row"),
            };
            for f in LEDGER_FIELDS.iter().filter(|f| (f.get)(&row) != 0) {
                let mut names = columns.split_whitespace();
                assert!(names.any(|c| c == f.name), "{} of {kind:?}", f.name);
            }
        }
        let mut site = SiteProfile::new(AddrRange::new(VirtAddr(4096), 8192));
        let mut kernel = KernelProfile {
            name: "k".into(),
            ledger: OverheadLedger::default(),
        };
        let site_values: Vec<u64> = (100..112).collect();
        read_columns(
            SITE_COLUMNS,
            &site_values,
            &mut site.allocs,
            &mut site.ledger,
        );
        read_columns(
            KERNEL_COLUMNS,
            &[200, 201, 202, 203, 204, 205],
            &mut 0,
            &mut kernel.ledger,
        );
        let r = SweepResult {
            sites: vec![site],
            kernel_rows: vec![kernel],
            ..SweepResult::default()
        };
        let text = r.to_text();
        assert!(text.contains("\nsite 4096 8192 100 101 102 103 104 105 106 107 108 109 110 111\n"));
        assert!(text.ends_with("\nkernelrow k 200 201 202 203 204 205\n"));
        assert_eq!(SweepResult::parse(&text), Ok(r));
    }

    #[test]
    fn escaping_round_trips_diagnostics() {
        assert_eq!(unesc(&esc("a\nb\\c")), "a\nb\\c");
    }

    #[test]
    fn merge_sums_and_ranks() {
        let a = sample();
        let mut b = sample();
        b.sites[0].ledger.mm_map = VirtDuration::from_nanos(45);
        b.sites.push(SiteProfile {
            allocs: 1,
            ledger: OverheadLedger {
                maps: 1,
                mm_map: VirtDuration::from_nanos(500),
                ..OverheadLedger::default()
            },
            ..SiteProfile::new(AddrRange::new(VirtAddr(1 << 20), 4096))
        });
        let (sites, kernels) = merge_attribution(&[a, b]);
        assert_eq!(sites.len(), 2);
        // The 500ns site outranks the merged 100ns site.
        assert_eq!(sites[0].range.start.as_u64(), 1 << 20);
        assert_eq!(sites[0].allocs, 1);
        assert_eq!(sites[1].ledger.mm_map, VirtDuration::from_nanos(100));
        assert_eq!(sites[1].ledger.maps, 4);
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].ledger.kernels, 6);
    }
}

//! Sweep results: the exact, serializable outcome of one request.
//!
//! A [`SweepResult`] carries everything the sweep surfaces report — replay
//! op counts, the virtual makespan, the full [`OverheadLedger`], the memory
//! digest, the sanitizer's findings, and (when the request ran with the
//! telemetry ring) the per-site/per-kernel attribution aggregate. The
//! line-oriented `sweepresult v1` text form round-trips exactly, which is
//! what the content-addressed cache stores: a cache hit *parses* the stored
//! result and is therefore byte-indistinguishable from a fresh simulation
//! in every downstream report. The determinism matrix test pins that
//! contract at `-j {1,4,8}`, cold and warm.

use omp_offload::telemetry::{rank_profiles, KernelProfile, SiteProfile};
use omp_offload::{LedgerUnit, OverheadLedger, LEDGER_FIELDS};
use sim_des::VirtDuration;
use std::fmt::Write as _;

/// The serialized-result schema version, folded into the cache salt.
pub const RESULT_VERSION: u32 = 1;

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

/// The line key a ledger field is serialized under.
fn ledger_key(unit: LedgerUnit) -> &'static str {
    match unit {
        LedgerUnit::Ns => "ledger_ns",
        LedgerUnit::Count => "ledger",
    }
}

impl SweepResult {
    /// Serialize to the line-oriented `sweepresult v1` text form. The
    /// output is canonical: equal results serialize to equal bytes.
    pub fn to_text(&self) -> String {
        let mut out = format!("sweepresult v{RESULT_VERSION}\n");
        let _ = writeln!(out, "ops {}", self.ops);
        let _ = writeln!(out, "kernels {}", self.kernels);
        let _ = writeln!(out, "makespan_ns {}", self.makespan.as_nanos());
        let _ = writeln!(out, "memory_digest {:016x}", self.memory_digest);
        for f in &LEDGER_FIELDS {
            let key = ledger_key(f.unit);
            let _ = writeln!(out, "{key} {} {}", f.name, (f.get)(&self.ledger));
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "diag {}", esc(d));
        }
        let _ = writeln!(out, "telemetry_events {}", self.telemetry_events);
        let _ = writeln!(out, "dropped_events {}", self.dropped_events);
        for s in &self.sites {
            let _ = writeln!(
                out,
                "site {} {} {} {} {} {} {} {} {} {} {} {} {}",
                s.range.start.as_u64(),
                s.range.len,
                s.maps,
                s.allocs,
                s.copies,
                s.bytes,
                s.elided,
                s.mm_alloc.as_nanos(),
                s.mm_copy.as_nanos(),
                s.mm_free.as_nanos(),
                s.mm_prefault.as_nanos(),
                s.mm_map.as_nanos(),
                s.mm_saved.as_nanos(),
            );
        }
        for t in &self.tenant_rows {
            let _ = writeln!(
                out,
                "tenant {} {:016x} {} {}",
                t.tenant,
                t.memory_digest,
                t.makespan.as_nanos(),
                t.maps,
            );
        }
        for k in &self.kernel_rows {
            let name: String = k
                .name
                .chars()
                .map(|c| if c.is_whitespace() { '_' } else { c })
                .collect();
            let _ = writeln!(
                out,
                "kernelrow {name} {} {} {} {} {} {}",
                k.launches,
                k.compute.as_nanos(),
                k.fault_stall.as_nanos(),
                k.tlb_stall.as_nanos(),
                k.replayed_pages,
                k.zero_filled_pages,
            );
        }
        out
    }

    /// Parse the `sweepresult v1` form produced by
    /// [`to_text`](Self::to_text).
    pub fn parse(text: &str) -> Result<SweepResult, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l == format!("sweepresult v{RESULT_VERSION}") => {}
            other => return Err(format!("bad result header: {other:?}")),
        }
        let mut r = SweepResult::default();
        for (no, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("line {}: bad number {s:?}", no + 2))
            };
            match key {
                "ops" => r.ops = num(rest)?,
                "kernels" => r.kernels = num(rest)?,
                "makespan_ns" => r.makespan = VirtDuration::from_nanos(num(rest)?),
                "memory_digest" => {
                    r.memory_digest = u64::from_str_radix(rest, 16)
                        .map_err(|_| format!("line {}: bad digest {rest:?}", no + 2))?;
                }
                "ledger_ns" | "ledger" => {
                    let (f, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("line {}: bad {key}", no + 2))?;
                    let field = LEDGER_FIELDS
                        .iter()
                        .find(|d| d.name == f && ledger_key(d.unit) == key)
                        .ok_or_else(|| format!("line {}: unknown ledger field {f:?}", no + 2))?;
                    (field.set)(&mut r.ledger, num(v)?);
                }
                "diag" => r.diagnostics.push(unesc(rest)),
                "telemetry_events" => r.telemetry_events = num(rest)?,
                "dropped_events" => r.dropped_events = num(rest)?,
                "site" => {
                    let v: Vec<u64> = rest.split_whitespace().map(num).collect::<Result<_, _>>()?;
                    if v.len() != 13 {
                        return Err(format!("line {}: site needs 13 fields", no + 2));
                    }
                    r.sites.push(SiteProfile {
                        range: apu_mem::AddrRange::new(apu_mem::VirtAddr(v[0]), v[1]),
                        maps: v[2],
                        allocs: v[3],
                        copies: v[4],
                        bytes: v[5],
                        elided: v[6],
                        mm_alloc: VirtDuration::from_nanos(v[7]),
                        mm_copy: VirtDuration::from_nanos(v[8]),
                        mm_free: VirtDuration::from_nanos(v[9]),
                        mm_prefault: VirtDuration::from_nanos(v[10]),
                        mm_map: VirtDuration::from_nanos(v[11]),
                        mm_saved: VirtDuration::from_nanos(v[12]),
                    });
                }
                "tenant" => {
                    let mut tok = rest.split_whitespace();
                    let id = tok
                        .next()
                        .ok_or_else(|| format!("line {}: tenant needs an id", no + 2))?;
                    let id: u32 = id
                        .parse()
                        .map_err(|_| format!("line {}: bad tenant id {id:?}", no + 2))?;
                    let digest = tok
                        .next()
                        .ok_or_else(|| format!("line {}: tenant needs a digest", no + 2))?;
                    let memory_digest = u64::from_str_radix(digest, 16)
                        .map_err(|_| format!("line {}: bad digest {digest:?}", no + 2))?;
                    let v: Vec<u64> = tok.map(num).collect::<Result<_, _>>()?;
                    if v.len() != 2 {
                        return Err(format!("line {}: tenant needs 2 numbers", no + 2));
                    }
                    r.tenant_rows.push(TenantRow {
                        tenant: id,
                        memory_digest,
                        makespan: VirtDuration::from_nanos(v[0]),
                        maps: v[1],
                    });
                }
                "kernelrow" => {
                    let mut tok = rest.split_whitespace();
                    let name = tok
                        .next()
                        .ok_or_else(|| format!("line {}: kernelrow needs a name", no + 2))?
                        .to_string();
                    let v: Vec<u64> = tok.map(num).collect::<Result<_, _>>()?;
                    if v.len() != 6 {
                        return Err(format!("line {}: kernelrow needs 6 numbers", no + 2));
                    }
                    r.kernel_rows.push(KernelProfile {
                        name,
                        launches: v[0],
                        compute: VirtDuration::from_nanos(v[1]),
                        fault_stall: VirtDuration::from_nanos(v[2]),
                        tlb_stall: VirtDuration::from_nanos(v[3]),
                        replayed_pages: v[4],
                        zero_filled_pages: v[5],
                    });
                }
                other => return Err(format!("line {}: unknown key {other:?}", no + 2)),
            }
        }
        Ok(r)
    }
}

/// Merge per-request attribution aggregates across a sweep into one
/// profile: sites summed by extent, kernels summed by name, re-ranked by
/// [`rank_profiles`], the order
/// [`attribution`](omp_offload::telemetry::attribution) ranks in.
/// Deterministic for a given result sequence, independent of worker
/// scheduling.
pub fn merge_attribution(results: &[SweepResult]) -> (Vec<SiteProfile>, Vec<KernelProfile>) {
    use std::collections::BTreeMap;
    let mut sites: BTreeMap<(u64, u64), SiteProfile> = BTreeMap::new();
    let mut kernels: BTreeMap<String, KernelProfile> = BTreeMap::new();
    for r in results {
        for s in &r.sites {
            let e = sites
                .entry((s.range.start.as_u64(), s.range.len))
                .or_default();
            e.range = s.range;
            e.maps += s.maps;
            e.allocs += s.allocs;
            e.copies += s.copies;
            e.bytes += s.bytes;
            e.elided += s.elided;
            e.mm_alloc += s.mm_alloc;
            e.mm_copy += s.mm_copy;
            e.mm_free += s.mm_free;
            e.mm_prefault += s.mm_prefault;
            e.mm_map += s.mm_map;
            e.mm_saved += s.mm_saved;
        }
        for k in &r.kernel_rows {
            let e = kernels
                .entry(k.name.clone())
                .or_insert_with(|| KernelProfile {
                    name: k.name.clone(),
                    launches: 0,
                    compute: VirtDuration::ZERO,
                    fault_stall: VirtDuration::ZERO,
                    tlb_stall: VirtDuration::ZERO,
                    replayed_pages: 0,
                    zero_filled_pages: 0,
                });
            e.launches += k.launches;
            e.compute += k.compute;
            e.fault_stall += k.fault_stall;
            e.tlb_stall += k.tlb_stall;
            e.replayed_pages += k.replayed_pages;
            e.zero_filled_pages += k.zero_filled_pages;
        }
    }
    let mut site_rows: Vec<SiteProfile> = sites.into_values().collect();
    let mut kernel_out: Vec<KernelProfile> = kernels.into_values().collect();
    rank_profiles(&mut site_rows, &mut kernel_out);
    (site_rows, kernel_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_mem::{AddrRange, VirtAddr};

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
            range: AddrRange::new(VirtAddr(4096), 8192),
            maps: 2,
            mm_map: VirtDuration::from_nanos(55),
            ..SiteProfile::default()
        });
        r.kernel_rows.push(KernelProfile {
            name: "axpy".into(),
            launches: 3,
            compute: VirtDuration::from_micros(5),
            fault_stall: VirtDuration::ZERO,
            tlb_stall: VirtDuration::from_nanos(9),
            replayed_pages: 0,
            zero_filled_pages: 0,
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
        let golden = r"sweepresult v1
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
site 4096 8192 2 0 0 0 0 0 0 0 0 55 0
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
        assert!(SweepResult::parse("sweepresult v1\nfrob 3").is_err());
        assert!(SweepResult::parse("sweepresult v1\nledger bogus 3").is_err());
        // A field under the other unit's key is unknown, not coerced.
        assert!(SweepResult::parse("sweepresult v1\nledger mm_alloc 3").is_err());
        assert!(SweepResult::parse("sweepresult v1\nledger_ns maps 3").is_err());
        assert!(SweepResult::parse("sweepresult v1\nsite 1 2 3").is_err());
        assert!(SweepResult::parse("sweepresult v1\ntenant 1 beef").is_err());
        assert!(SweepResult::parse("sweepresult v1\ntenant x beef 1 2").is_err());
    }

    #[test]
    fn escaping_round_trips_diagnostics() {
        assert_eq!(unesc(&esc("a\nb\\c")), "a\nb\\c");
    }

    #[test]
    fn merge_sums_and_ranks() {
        let a = sample();
        let mut b = sample();
        b.sites[0].mm_map = VirtDuration::from_nanos(45);
        b.sites.push(SiteProfile {
            range: AddrRange::new(VirtAddr(1 << 20), 4096),
            maps: 1,
            mm_map: VirtDuration::from_nanos(500),
            ..SiteProfile::default()
        });
        let (sites, kernels) = merge_attribution(&[a, b]);
        assert_eq!(sites.len(), 2);
        // The 500ns site outranks the merged 100ns site.
        assert_eq!(sites[0].range.start.as_u64(), 1 << 20);
        assert_eq!(sites[1].mm_map, VirtDuration::from_nanos(100));
        assert_eq!(sites[1].maps, 4);
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].launches, 6);
    }
}

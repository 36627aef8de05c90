//! Runtime map sanitizer: dynamic validation of data-environment invariants.
//!
//! Enabled with [`RuntimeBuilder::sanitize`](crate::RuntimeBuilder); the
//! runtime then feeds every data-environment operation — with the *real*
//! mapping-table state it observed (presence, disappearing-on-exit) — into a
//! [`MapSanitizer`], which layers a shadow model on top: per-extent
//! host/device version clocks (Copy mode), the set of live device-pool
//! allocations, and dedup bookkeeping. The sanitizer emits the same
//! [`Diagnostic`](crate::Diagnostic) codes as the static `omp-mapcheck`
//! checker, through the same [`msg`](crate::diag::msg) builders, so a run
//! can be cross-validated verdict-for-verdict against a static analysis of
//! the captured MapIR (DESIGN.md §10).
//!
//! The sanitizer observes but never alters execution: a program that
//! fatal-faults without the sanitizer still fatal-faults with it — the
//! diagnostics recorded up to the fault describe why.

use crate::config::RuntimeConfig;
use crate::diag::{msg, DiagCode, Diagnostic};
use crate::mapping::{MapEntry, Mapping, Presence};
use apu_mem::{AddrRange, VirtAddr};
use std::collections::{BTreeMap, BTreeSet};

/// The sanitizer's findings for one run, attached to
/// [`RunReport`](crate::RunReport) when the sanitizer was enabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizerReport {
    /// All diagnostics, in detection order.
    pub diagnostics: Vec<Diagnostic>,
}

impl SanitizerReport {
    /// Error-severity diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == crate::diag::Severity::Error)
    }

    /// Warning-severity diagnostics only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == crate::diag::Severity::Warning)
    }

    /// True when no diagnostics (of any severity) were recorded.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Shadow staleness state for one live extent (Copy mode only).
#[derive(Debug, Clone, Copy)]
struct ExtentClock {
    range: AddrRange,
    /// Version of the host copy.
    host_v: u64,
    /// Version of the device copy (0 = never transferred: a device read
    /// before any to-transfer observes uninitialized memory).
    dev_v: u64,
}

/// Dynamic invariant checker driven by runtime hooks.
///
/// Presence and disappearing verdicts come from the caller (the runtime's
/// real mapping table); the sanitizer owns only what the runtime does not
/// track: version clocks, pool-allocation extents, and diagnostics.
#[derive(Debug)]
pub(crate) struct MapSanitizer {
    config: RuntimeConfig,
    /// Version clocks keyed by extent host start (Copy mode only).
    clocks: BTreeMap<u64, ExtentClock>,
    /// Live `omp_target_alloc` pool extents: start → len. Pool memory is
    /// GPU-translated in every configuration, so raw accesses inside it are
    /// exempt from MC005.
    pool: BTreeMap<u64, u64>,
    tick: u64,
    seen: BTreeSet<(DiagCode, u64)>,
    diags: Vec<Diagnostic>,
    finalized: bool,
}

impl MapSanitizer {
    pub(crate) fn new(config: RuntimeConfig) -> Self {
        MapSanitizer {
            config,
            clocks: BTreeMap::new(),
            pool: BTreeMap::new(),
            tick: 0,
            seen: BTreeSet::new(),
            diags: Vec::new(),
            finalized: false,
        }
    }

    pub(crate) fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    pub(crate) fn into_report(self) -> SanitizerReport {
        SanitizerReport {
            diagnostics: self.diags,
        }
    }

    fn report(&mut self, code: DiagCode, thread: u32, extent: AddrRange, detail: String) {
        // One report per (code, extent): iteration loops re-trigger the same
        // hazard every pass; repeating it adds nothing.
        if self.seen.insert((code, extent.start.as_u64())) {
            self.diags
                .push(Diagnostic::new(code, self.config, thread, extent, detail));
        }
    }

    fn staleness_tracked(&self) -> bool {
        // Staleness only exists where host and device hold separate copies.
        self.config == RuntimeConfig::LegacyCopy
    }

    fn clock_containing(&mut self, range: &AddrRange) -> Option<&mut ExtentClock> {
        let (_, c) = self.clocks.range_mut(..=range.start.as_u64()).next_back()?;
        c.range.contains_range(range).then_some(c)
    }

    fn pool_covers(&self, range: &AddrRange) -> bool {
        self.pool
            .range(..=range.start.as_u64())
            .next_back()
            .is_some_and(|(start, len)| range.end() <= start + len)
    }

    // ---- hooks, called by OmpRuntime -----------------------------------

    pub(crate) fn on_pool_alloc(&mut self, range: AddrRange) {
        self.pool.insert(range.start.as_u64(), range.len);
    }

    pub(crate) fn on_pool_free(&mut self, addr: VirtAddr) {
        self.pool.remove(&addr.as_u64());
    }

    /// An entry map is about to execute; `presence` is the real table's
    /// verdict for the entry's range.
    pub(crate) fn on_map_enter(&mut self, thread: u32, e: &MapEntry, presence: Presence) {
        match presence {
            Presence::Partial => {
                self.report(DiagCode::Mc006, thread, e.range, msg::double_map_mismatch());
            }
            Presence::Present => {
                if e.dir != crate::mapping::MapDir::Alloc && !e.always {
                    self.report(
                        DiagCode::Mc007,
                        thread,
                        e.range,
                        msg::redundant_remap(e.dir),
                    );
                }
                if self.staleness_tracked() && e.always && e.dir.copies_to() {
                    if let Some(c) = self.clock_containing(&e.range) {
                        c.dev_v = c.host_v;
                    }
                }
            }
            Presence::Absent => {
                if self.staleness_tracked() {
                    self.tick += 1;
                    let tick = self.tick;
                    self.clocks.insert(
                        e.range.start.as_u64(),
                        ExtentClock {
                            range: e.range,
                            host_v: tick,
                            dev_v: if e.dir.copies_to() { tick } else { 0 },
                        },
                    );
                }
            }
        }
    }

    /// An exit map is about to execute. `disappearing` is the real table's
    /// verdict: this release removes the extent (refcount 1 or `delete`).
    pub(crate) fn on_map_exit(
        &mut self,
        thread: u32,
        e: &MapEntry,
        presence: Presence,
        disappearing: bool,
    ) {
        match presence {
            Presence::Absent => {
                self.report(
                    DiagCode::Mc002,
                    thread,
                    e.range,
                    msg::release_never_mapped(),
                );
                return;
            }
            Presence::Partial => {
                self.report(DiagCode::Mc002, thread, e.range, msg::release_partial());
                return;
            }
            Presence::Present => {}
        }
        if self.staleness_tracked() {
            if e.dir.copies_from() && (disappearing || e.always) {
                if let Some(c) = self.clock_containing(&e.range) {
                    c.host_v = c.dev_v;
                }
            }
            if disappearing {
                if let Some((start, _)) = self
                    .clocks
                    .range(..=e.range.start.as_u64())
                    .next_back()
                    .filter(|(_, c)| c.range.contains_range(&e.range))
                    .map(|(s, c)| (*s, *c))
                {
                    self.clocks.remove(&start);
                }
            }
        }
    }

    /// A kernel is about to dispatch; its entry maps already ran (and went
    /// through [`on_map_enter`](Self::on_map_enter)).
    pub(crate) fn on_kernel(&mut self, thread: u32, maps: &[MapEntry], raw: &[AddrRange]) {
        if self.config.xnack() == apu_mem::XnackMode::Disabled {
            for r in raw {
                if !self.pool_covers(r) {
                    self.report(DiagCode::Mc005, thread, *r, msg::raw_access_without_xnack());
                }
            }
        }
        if self.staleness_tracked() {
            // Reads first: the kernel observes the device copy as it stands
            // at dispatch.
            for e in maps.iter().filter(|e| e.dir.copies_to()) {
                let stale = self
                    .clock_containing(&e.range)
                    .is_some_and(|c| c.dev_v < c.host_v);
                if stale {
                    self.report(DiagCode::Mc003, thread, e.range, msg::stale_device_read());
                }
            }
            // Then writes: `from`/`tofrom` results advance the device clock.
            for e in maps.iter().filter(|e| e.dir.copies_from()) {
                self.tick += 1;
                let tick = self.tick;
                if let Some(c) = self.clock_containing(&e.range) {
                    c.dev_v = tick;
                }
            }
        }
    }

    pub(crate) fn on_host_write(&mut self, _thread: u32, range: AddrRange) {
        if self.staleness_tracked() {
            self.tick += 1;
            let tick = self.tick;
            for c in self.clocks.values_mut() {
                if overlaps(&c.range, &range) {
                    c.host_v = tick;
                }
            }
        }
    }

    pub(crate) fn on_host_read(&mut self, thread: u32, range: AddrRange) {
        if self.staleness_tracked() {
            let stale: Vec<AddrRange> = self
                .clocks
                .values()
                .filter(|c| overlaps(&c.range, &range) && c.dev_v > c.host_v)
                .map(|c| c.range)
                .collect();
            for extent in stale {
                self.report(DiagCode::Mc004, thread, extent, msg::stale_host_read());
            }
        }
    }

    /// A `target update`; presence verdicts are precomputed by the runtime
    /// from the real table. Only meaningful in Copy mode — zero-copy
    /// configurations have a single copy and the update is a no-op.
    pub(crate) fn on_update(
        &mut self,
        thread: u32,
        to: &[(AddrRange, Presence)],
        from: &[(AddrRange, Presence)],
    ) {
        if !self.staleness_tracked() {
            return;
        }
        for (range, presence) in to.iter().chain(from.iter()) {
            if *presence != Presence::Present {
                self.report(DiagCode::Mc002, thread, *range, msg::update_not_mapped());
            }
        }
        for (range, presence) in to {
            if *presence == Presence::Present {
                if let Some(c) = self.clock_containing(range) {
                    c.dev_v = c.host_v;
                }
            }
        }
        for (range, presence) in from {
            if *presence == Presence::Present {
                if let Some(c) = self.clock_containing(range) {
                    c.host_v = c.dev_v;
                }
            }
        }
    }

    /// End of program: whatever the real table still holds is a leak
    /// (MC001) — including extents kept live by `nowait` exit maps that no
    /// `taskwait` ever reclaimed. Takes the caller's snapshot of its live
    /// entries (a shared-table tenant passes only its own VA window's
    /// slice), sorted by host start. Idempotent.
    pub(crate) fn end_of_program(&mut self, live: &[Mapping]) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let leaked: Vec<(AddrRange, u32)> = live.iter().map(|m| (m.host, m.refcount)).collect();
        for (extent, refcount) in leaked {
            self.report(DiagCode::Mc001, 0, extent, msg::leaked(refcount));
        }
    }
}

fn overlaps(a: &AddrRange, b: &AddrRange) -> bool {
    a.start.as_u64() < b.end() && b.start.as_u64() < a.end()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(VirtAddr(start), len)
    }

    #[test]
    fn copy_mode_stale_device_read_flags_mc003() {
        let mut s = MapSanitizer::new(RuntimeConfig::LegacyCopy);
        let buf = r(4096, 8192);
        s.on_map_enter(0, &MapEntry::to(buf), Presence::Absent);
        s.on_host_write(0, buf);
        s.on_kernel(0, &[MapEntry::to(buf)], &[]);
        assert_eq!(s.diagnostics().len(), 1);
        assert_eq!(s.diagnostics()[0].code, DiagCode::Mc003);
    }

    #[test]
    fn always_resyncs_and_suppresses_mc003() {
        let mut s = MapSanitizer::new(RuntimeConfig::LegacyCopy);
        let buf = r(4096, 8192);
        s.on_map_enter(0, &MapEntry::to(buf), Presence::Absent);
        s.on_host_write(0, buf);
        // `always to` at the kernel re-transfers before the read.
        s.on_map_enter(0, &MapEntry::to(buf).always(), Presence::Present);
        s.on_kernel(0, &[MapEntry::to(buf).always()], &[]);
        assert!(s.diagnostics().is_empty(), "{:?}", s.diagnostics());
    }

    #[test]
    fn stale_host_read_flags_mc004_and_from_exit_suppresses_it() {
        let buf = r(4096, 8192);
        // Without a from-transfer: MC004.
        let mut s = MapSanitizer::new(RuntimeConfig::LegacyCopy);
        s.on_map_enter(0, &MapEntry::to(buf), Presence::Absent);
        s.on_kernel(0, &[MapEntry::tofrom(buf).always()], &[]);
        s.on_host_read(0, buf);
        assert_eq!(s.diagnostics()[0].code, DiagCode::Mc004);

        // With the exit's from-transfer first: clean.
        let mut s = MapSanitizer::new(RuntimeConfig::LegacyCopy);
        s.on_map_enter(0, &MapEntry::to(buf), Presence::Absent);
        s.on_kernel(0, &[MapEntry::alloc(buf)], &[]);
        s.on_kernel(0, &[MapEntry::from(buf)], &[]);
        s.on_map_exit(0, &MapEntry::from(buf), Presence::Present, true);
        s.on_host_read(0, buf);
        // The bare `from` kernel map on a present extent is the MC007 case;
        // filter to errors for this assertion.
        assert!(
            s.diagnostics().iter().all(|d| d.code == DiagCode::Mc007),
            "{:?}",
            s.diagnostics()
        );
    }

    #[test]
    fn raw_access_without_pool_backing_flags_mc005_only_without_xnack() {
        let range = r(1 << 20, 4096);
        for (config, expect) in [
            (RuntimeConfig::LegacyCopy, true),
            (RuntimeConfig::EagerMaps, true),
            (RuntimeConfig::UnifiedSharedMemory, false),
            (RuntimeConfig::ImplicitZeroCopy, false),
        ] {
            let mut s = MapSanitizer::new(config);
            s.on_kernel(0, &[], &[range]);
            assert_eq!(
                s.diagnostics().iter().any(|d| d.code == DiagCode::Mc005),
                expect,
                "{config:?}"
            );
        }
        // Pool-backed raw access is fine even with XNACK off.
        let mut s = MapSanitizer::new(RuntimeConfig::LegacyCopy);
        s.on_pool_alloc(r(1 << 20, 1 << 16));
        s.on_kernel(0, &[], &[range]);
        assert!(s.diagnostics().is_empty());
    }

    #[test]
    fn duplicate_findings_dedup_on_code_and_extent() {
        let mut s = MapSanitizer::new(RuntimeConfig::ImplicitZeroCopy);
        let buf = r(4096, 64);
        for _ in 0..5 {
            s.on_map_exit(0, &MapEntry::from(buf), Presence::Absent, true);
        }
        assert_eq!(s.diagnostics().len(), 1);
        assert_eq!(s.diagnostics()[0].code, DiagCode::Mc002);
        assert_eq!(s.diagnostics()[0].detail, msg::release_never_mapped());
    }

    #[test]
    fn redundant_remap_warns_mc007_in_every_config() {
        for config in RuntimeConfig::ALL {
            let mut s = MapSanitizer::new(config);
            let buf = r(4096, 64);
            s.on_map_enter(0, &MapEntry::to(buf), Presence::Absent);
            s.on_map_enter(0, &MapEntry::to(buf), Presence::Present);
            let codes: Vec<_> = s.diagnostics().iter().map(|d| d.code).collect();
            assert_eq!(codes, [DiagCode::Mc007], "{config:?}");
            // alloc / always re-maps are not redundant.
            s.on_map_enter(0, &MapEntry::alloc(buf), Presence::Present);
            s.on_map_enter(0, &MapEntry::to(buf).always(), Presence::Present);
            assert_eq!(s.diagnostics().len(), 1, "{config:?}");
        }
    }
}

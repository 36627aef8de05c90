//! The static checker: abstract interpretation of a [`MapIr`] stream
//! against a symbolic mapping table.
//!
//! The table is a [`MapModel`], the same model the runtime's mapping table
//! holds, so presence classification, refcounting and `nowait`
//! exit-map deferral are the runtime's. Its per-extent payload carries the
//! staleness model the runtime sanitizer uses: host/device version clocks,
//! advanced by host writes, to-transfers, kernel writes, and
//! from-transfers. The optimizer replays this interpreter to find no-op
//! `target update` ranges. Because addresses in MapIR are real
//! (capture executes the allocation calls), the symbolic table operates on
//! concrete extents and the analysis is exact for the captured program, not
//! an over-approximation.
//!
//! Diagnostics are constructed through the canonical
//! [`msg`](omp_offload::diag::msg) builders, so a hazard found here renders
//! byte-identically to the sanitizer's dynamic finding — the
//! cross-validation contract (DESIGN.md §10).

use apu_mem::{AddrRange, XnackMode};
use omp_offload::diag::msg;
use omp_offload::{
    DiagCode, Diagnostic, KernelOp, MapDir, MapEntry, MapIr, MapModel, MapOp, Presence,
    RuntimeConfig,
};
use std::collections::{BTreeMap, BTreeSet};

/// Statically check a captured program against one runtime configuration.
///
/// Returns every diagnostic, warnings included, deduplicated on
/// `(code, extent start)`. Order follows the record stream.
pub fn check(ir: &MapIr, config: RuntimeConfig) -> Vec<Diagnostic> {
    let mut interp = Interp::new(config);
    for r in &ir.records {
        interp.step(r.thread, &r.op);
    }
    interp.finish()
}

/// Per-extent version clocks of the Copy-mode staleness model: the tick of
/// the host copy's last write and the tick of the content the device copy
/// holds. The device copy is stale when `dev_v < host_v`, the host copy
/// when `dev_v > host_v`.
struct Versions {
    host_v: u64,
    dev_v: u64,
}

/// The abstract interpreter. The optimizer replays it in Copy mode to
/// read the version clocks at each `target update`.
pub(crate) struct Interp {
    config: RuntimeConfig,
    /// Symbolic mapping table, with the runtime's refcount and deferral
    /// rules, carrying version clocks per extent.
    table: MapModel<Versions>,
    /// Live `omp_target_alloc` extents: start → len.
    pool: BTreeMap<u64, u64>,
    tick: u64,
    seen: BTreeSet<(DiagCode, u64)>,
    diags: Vec<Diagnostic>,
}

impl Interp {
    pub(crate) fn new(config: RuntimeConfig) -> Self {
        Interp {
            config,
            table: MapModel::new(),
            pool: BTreeMap::new(),
            tick: 0,
            seen: BTreeSet::new(),
            diags: Vec::new(),
        }
    }

    fn copy_mode(&self) -> bool {
        self.config == RuntimeConfig::LegacyCopy
    }

    fn report(&mut self, code: DiagCode, thread: u32, extent: AddrRange, detail: String) {
        if self.seen.insert((code, extent.start.as_u64())) {
            self.diags
                .push(Diagnostic::new(code, self.config, thread, extent, detail));
        }
    }

    fn pool_covers(&self, range: &AddrRange) -> bool {
        self.pool
            .range(..=range.start.as_u64())
            .next_back()
            .is_some_and(|(start, len)| range.end() <= start + len)
    }

    /// Is `range` inside a live extent whose host and device copies hold
    /// the same version? An `update` of it then transfers nothing new.
    pub(crate) fn clocks_agree(&self, range: &AddrRange) -> bool {
        self.table
            .containing(range)
            .is_some_and(|x| x.payload.host_v == x.payload.dev_v)
    }

    /// The clocks of the live extent containing `range`, which the caller
    /// has classified `Present`.
    fn versions_mut(&mut self, range: &AddrRange) -> &mut Versions {
        self.table.payload_mut(range.start).expect("present extent")
    }

    // -- directive semantics ---------------------------------------------

    fn map_enter(&mut self, thread: u32, e: &MapEntry) {
        match self.table.presence(&e.range) {
            Presence::Partial => {
                self.report(DiagCode::Mc006, thread, e.range, msg::double_map_mismatch());
            }
            Presence::Present => {
                if e.dir != MapDir::Alloc && !e.always {
                    self.report(
                        DiagCode::Mc007,
                        thread,
                        e.range,
                        msg::redundant_remap(e.dir),
                    );
                }
                self.table.retain(&e.range).expect("present extent");
                if self.copy_mode() && e.always && e.dir.copies_to() {
                    let v = self.versions_mut(&e.range);
                    v.dev_v = v.host_v;
                }
            }
            Presence::Absent => {
                self.tick += 1;
                let versions = Versions {
                    host_v: self.tick,
                    dev_v: if e.dir.copies_to() { self.tick } else { 0 },
                };
                self.table.insert(e.range, versions);
            }
        }
    }

    fn map_exit(&mut self, thread: u32, e: &MapEntry, delete: bool) {
        match self.table.presence(&e.range) {
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
        // The copy-back fires when the extent disappears or under `always`.
        let refcount = self
            .table
            .find(e.range.start)
            .expect("present extent")
            .refcount;
        if self.copy_mode() && e.dir.copies_from() && (refcount == 1 || delete || e.always) {
            let v = self.versions_mut(&e.range);
            v.host_v = v.dev_v;
        }
        self.table
            .release(&e.range, delete)
            .expect("present extent");
    }

    fn kernel(&mut self, thread: u32, k: &KernelOp) {
        // The construct's implicit data environment enters first, exactly
        // like the runtime's begin_map loop.
        for e in &k.maps {
            self.map_enter(thread, e);
        }
        // Raw accesses need GPU translation the configuration may not have.
        if self.config.xnack() == XnackMode::Disabled {
            for r in &k.raw {
                if !self.pool_covers(r) {
                    self.report(DiagCode::Mc005, thread, *r, msg::raw_access_without_xnack());
                }
            }
        }
        if self.copy_mode() {
            // Reads observe the device copy as it stands at dispatch.
            for e in k.maps.iter().filter(|e| e.dir.copies_to()) {
                let stale = self
                    .table
                    .find(e.range.start)
                    .is_some_and(|x| x.payload.dev_v < x.payload.host_v);
                if stale {
                    self.report(DiagCode::Mc003, thread, e.range, msg::stale_device_read());
                }
            }
            // Kernel writes advance the device clock of `from`-flavored maps.
            for e in k.maps.iter().filter(|e| e.dir.copies_from()) {
                self.tick += 1;
                if let Some(v) = self.table.payload_mut(e.range.start) {
                    v.dev_v = self.tick;
                }
            }
        }
        if k.nowait {
            // Exit maps are deferred until the thread's taskwait.
            self.table.defer(thread, &k.maps);
        } else {
            for e in &k.maps {
                self.map_exit(thread, e, false);
            }
        }
    }

    pub(crate) fn step(&mut self, thread: u32, op: &MapOp) {
        match op {
            MapOp::HostAlloc { .. } | MapOp::HostFree { .. } | MapOp::GlobalDecl { .. } => {}
            MapOp::PoolAlloc { range } => {
                self.pool.insert(range.start.as_u64(), range.len);
            }
            MapOp::PoolFree { addr } => {
                self.pool.remove(&addr.as_u64());
            }
            MapOp::HostWrite { range } => {
                if self.copy_mode() {
                    self.tick += 1;
                    for (extent, v) in self.table.payloads_mut() {
                        if overlaps(&extent, range) {
                            v.host_v = self.tick;
                        }
                    }
                }
            }
            MapOp::HostRead { range } => {
                if self.copy_mode() {
                    let stale: Vec<AddrRange> = self
                        .table
                        .iter()
                        .filter(|x| overlaps(&x.host, range) && x.payload.dev_v > x.payload.host_v)
                        .map(|x| x.host)
                        .collect();
                    for extent in stale {
                        self.report(DiagCode::Mc004, thread, extent, msg::stale_host_read());
                    }
                }
            }
            MapOp::MapEnter { entry } => self.map_enter(thread, entry),
            MapOp::MapExit { entry, delete } => self.map_exit(thread, entry, *delete),
            MapOp::Update { to, from } => {
                if self.copy_mode() {
                    for range in to.iter().chain(from.iter()) {
                        if self.table.presence(range) != Presence::Present {
                            self.report(DiagCode::Mc002, thread, *range, msg::update_not_mapped());
                        }
                    }
                    for range in to {
                        if self.table.presence(range) == Presence::Present {
                            let v = self.versions_mut(range);
                            v.dev_v = v.host_v;
                        }
                    }
                    for range in from {
                        if self.table.presence(range) == Presence::Present {
                            let v = self.versions_mut(range);
                            v.host_v = v.dev_v;
                        }
                    }
                }
            }
            MapOp::Kernel(k) => self.kernel(thread, k),
            MapOp::Taskwait => {
                for e in self.table.drain(thread) {
                    self.map_exit(thread, &e, false);
                }
            }
        }
    }

    fn finish(mut self) -> Vec<Diagnostic> {
        // Exit maps still deferred at program end never ran: their extents
        // stay live and surface below as MC001, matching the sanitizer's
        // view of the real table.
        let leaked: Vec<(AddrRange, u32)> =
            self.table.iter().map(|x| (x.host, x.refcount)).collect();
        for (extent, refcount) in leaked {
            self.report(DiagCode::Mc001, 0, extent, msg::leaked(refcount));
        }
        self.diags
    }
}

fn overlaps(a: &AddrRange, b: &AddrRange) -> bool {
    a.start.as_u64() < b.end() && b.start.as_u64() < a.end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_mem::VirtAddr;

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(VirtAddr(start), len)
    }

    fn ir(ops: Vec<(u32, MapOp)>) -> MapIr {
        let mut ir = MapIr::new();
        for (t, op) in ops {
            ir.push(t, op);
        }
        ir
    }

    fn kernel(maps: Vec<MapEntry>, raw: Vec<AddrRange>, nowait: bool) -> MapOp {
        MapOp::Kernel(KernelOp {
            name: "k".to_string(),
            maps,
            raw,
            globals: vec![],
            nowait,
        })
    }

    #[test]
    fn balanced_program_is_clean_in_every_config() {
        let buf = r(4096, 8192);
        let program = ir(vec![
            (0, MapOp::HostWrite { range: buf }),
            (
                0,
                MapOp::MapEnter {
                    entry: MapEntry::to(buf),
                },
            ),
            (0, kernel(vec![MapEntry::alloc(buf)], vec![], false)),
            (
                0,
                MapOp::MapExit {
                    entry: MapEntry::from(buf),
                    delete: false,
                },
            ),
            (0, MapOp::HostRead { range: buf }),
        ]);
        for config in RuntimeConfig::ALL {
            assert!(
                check(&program, config).is_empty(),
                "{config:?}: {:?}",
                check(&program, config)
            );
        }
    }

    #[test]
    fn leak_reports_mc001_with_refcount() {
        let buf = r(4096, 64);
        let program = ir(vec![
            (
                0,
                MapOp::MapEnter {
                    entry: MapEntry::to(buf),
                },
            ),
            (
                0,
                MapOp::MapEnter {
                    entry: MapEntry::alloc(buf),
                },
            ),
        ]);
        let diags = check(&program, RuntimeConfig::LegacyCopy);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Mc001);
        assert!(diags[0].detail.contains("refcount still 2"));
    }

    #[test]
    fn nowait_without_taskwait_leaks_and_taskwait_drains() {
        let buf = r(4096, 64);
        let launch = |tail: Vec<(u32, MapOp)>| {
            let mut ops = vec![
                (0, MapOp::HostWrite { range: buf }),
                (0, kernel(vec![MapEntry::tofrom(buf)], vec![], true)),
            ];
            ops.extend(tail);
            ir(ops)
        };
        let no_wait = check(&launch(vec![]), RuntimeConfig::ImplicitZeroCopy);
        assert_eq!(no_wait.len(), 1);
        assert_eq!(no_wait[0].code, DiagCode::Mc001);
        let waited = check(
            &launch(vec![(0, MapOp::Taskwait)]),
            RuntimeConfig::ImplicitZeroCopy,
        );
        assert!(waited.is_empty(), "{waited:?}");
    }

    #[test]
    fn partial_overlap_reports_mc006_and_release_mismatch_mc002() {
        let program = ir(vec![
            (
                0,
                MapOp::MapEnter {
                    entry: MapEntry::to(r(4096, 4096)),
                },
            ),
            (
                0,
                MapOp::MapEnter {
                    entry: MapEntry::to(r(6144, 4096)),
                },
            ),
            (
                0,
                MapOp::MapExit {
                    entry: MapEntry::alloc(r(1 << 20, 64)),
                    delete: false,
                },
            ),
        ]);
        let codes: Vec<_> = check(&program, RuntimeConfig::UnifiedSharedMemory)
            .iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, [DiagCode::Mc006, DiagCode::Mc002, DiagCode::Mc001]);
    }

    #[test]
    fn copy_only_update_of_unmapped_data_is_mc002() {
        let program = ir(vec![(
            0,
            MapOp::Update {
                to: vec![r(4096, 64)],
                from: vec![],
            },
        )]);
        assert_eq!(
            check(&program, RuntimeConfig::LegacyCopy)[0].detail,
            msg::update_not_mapped()
        );
        assert!(check(&program, RuntimeConfig::EagerMaps).is_empty());
    }

    #[test]
    fn usm_raw_access_flags_mc005_under_xnack_off_only() {
        let raw = r(1 << 20, 4096);
        let program = ir(vec![(0, kernel(vec![], vec![raw], false))]);
        for config in RuntimeConfig::ALL {
            let diags = check(&program, config);
            if config.xnack() == XnackMode::Disabled {
                assert_eq!(diags.len(), 1, "{config:?}");
                assert_eq!(diags[0].code, DiagCode::Mc005);
            } else {
                assert!(diags.is_empty(), "{config:?}");
            }
        }
        // Pool-backed raw accesses are exempt.
        let backed = ir(vec![
            (
                0,
                MapOp::PoolAlloc {
                    range: r(1 << 20, 1 << 16),
                },
            ),
            (0, kernel(vec![], vec![raw], false)),
            (
                0,
                MapOp::PoolFree {
                    addr: VirtAddr(1 << 20),
                },
            ),
        ]);
        assert!(check(&backed, RuntimeConfig::LegacyCopy).is_empty());
    }

    #[test]
    fn stale_read_mc003_only_in_copy_mode_and_always_fixes_it() {
        let buf = r(4096, 8192);
        let hazard = |always: bool| {
            let m = if always {
                MapEntry::to(buf).always()
            } else {
                MapEntry::to(buf)
            };
            ir(vec![
                (0, MapOp::HostWrite { range: buf }),
                (
                    0,
                    MapOp::MapEnter {
                        entry: MapEntry::to(buf),
                    },
                ),
                (0, MapOp::HostWrite { range: buf }),
                (0, kernel(vec![m], vec![], false)),
                (
                    0,
                    MapOp::MapExit {
                        entry: MapEntry::alloc(buf),
                        delete: false,
                    },
                ),
            ])
        };
        let diags = check(&hazard(false), RuntimeConfig::LegacyCopy);
        assert!(diags.iter().any(|d| d.code == DiagCode::Mc003), "{diags:?}");
        let fixed = check(&hazard(true), RuntimeConfig::LegacyCopy);
        assert!(
            !fixed.iter().any(|d| d.code == DiagCode::Mc003),
            "{fixed:?}"
        );
        // Zero-copy configurations share storage: no staleness.
        assert!(check(&hazard(false), RuntimeConfig::ImplicitZeroCopy)
            .iter()
            .all(|d| d.code != DiagCode::Mc003));
    }
}

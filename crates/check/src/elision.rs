//! Profile-guided elision: derive an [`ElisionPlan`] from a capture.
//!
//! The planner walks the [`MapIr`] stream over a presence-only
//! [`MapModel`] (the model the [`check`](crate::check) interpreter and the
//! runtime's table are built from, with no payload) and marks
//! every map site the runtime's online elision would promote: a re-map of an
//! already-present extent carrying a transfer direction and no `always`
//! modifier — the MC007 pattern. Under the refcount model such a map's
//! transfers can never be observed (see DESIGN.md §11), so it can be
//! rewritten to `alloc` on replay.
//!
//! Eligibility is evaluated against the table state *before the construct
//! begins any of its own maps* — the same pre-construct rule the runtime
//! applies. Eliding against mid-construct state would be unsound: the
//! second `tofrom` map of an extent the *same* construct just made present
//! carries that extent's final `from` copy, and promoting it to `alloc`
//! would lose the copy-back. A pre-construct-present extent, by contrast,
//! has an enclosing reference that outlives the construct, so the construct
//! can neither trigger its first `to` copy nor its last `from` copy.
//!
//! Sites are addressed as `(op_index, map_index)`: the operation's position
//! in the capture stream (which the runtime's op counter reproduces on
//! replay) and the map's position in the construct's clause list
//! (`MapEnter` sites use map index 0).

use omp_offload::{ElisionPlan, MapDir, MapEntry, MapIr, MapModel, MapOp, Presence};

/// Compute the elision plan for a captured program.
///
/// The plan is deterministic in the capture: replaying `ir` under
/// [`ElideMode::Plan`](omp_offload::ElideMode) applies exactly these sites,
/// and the planner's eligibility rule matches the runtime's online mode, so
/// plan-mode replay elides the same maps an online run of the same program
/// would.
pub fn elision_plan(ir: &MapIr) -> ElisionPlan {
    let mut live = MapModel::new();
    let mut plan = ElisionPlan::new();
    for (idx, rec) in ir.records.iter().enumerate() {
        // Every map of the op is judged against the pre-construct table,
        // before any of the construct's own enters take effect.
        let maps = match &rec.op {
            MapOp::MapEnter { entry } => std::slice::from_ref(entry),
            MapOp::Kernel(k) => &k.maps[..],
            _ => &[],
        };
        for (i, e) in maps.iter().enumerate() {
            // Partial overlaps are never eligible.
            if e.dir != MapDir::Alloc && !e.always && live.presence(&e.range) == Presence::Present {
                plan.insert(idx as u64, i as u32);
            }
        }
        track(&mut live, rec.thread, &rec.op);
    }
    plan
}

/// Apply `op`'s presence and refcount effect to `live`: the runtime's
/// enter/exit rules with `nowait` exits deferred to the thread's taskwait.
/// Shared by the planner and the optimizer's hoist and dead-from passes.
pub(crate) fn track(live: &mut MapModel<()>, thread: u32, op: &MapOp) {
    match op {
        MapOp::MapEnter { entry } => enter(live, entry),
        MapOp::MapExit { entry, delete } => exit(live, entry, *delete),
        MapOp::Kernel(k) => {
            for e in &k.maps {
                enter(live, e);
            }
            if k.nowait {
                live.defer(thread, &k.maps);
            } else {
                for e in &k.maps {
                    exit(live, e, false);
                }
            }
        }
        MapOp::Taskwait => {
            for e in live.drain(thread) {
                exit(live, &e, false);
            }
        }
        _ => {}
    }
}

fn enter(live: &mut MapModel<()>, e: &MapEntry) {
    match live.presence(&e.range) {
        Presence::Present => {
            live.retain(&e.range).expect("present extent");
        }
        Presence::Absent => live.insert(e.range, ()),
        // Partial overlaps abort the real run (PartialOverlap); nothing
        // useful to model past this point.
        Presence::Partial => {}
    }
}

fn exit(live: &mut MapModel<()>, e: &MapEntry, delete: bool) {
    if live.presence(&e.range) == Presence::Present {
        live.release(&e.range, delete).expect("present extent");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_mem::{AddrRange, VirtAddr};
    use omp_offload::KernelOp;

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(VirtAddr(start), len)
    }

    fn kernel(maps: Vec<MapEntry>, nowait: bool) -> MapOp {
        MapOp::Kernel(KernelOp {
            name: "k".to_string(),
            maps,
            raw: vec![],
            globals: vec![],
            nowait,
        })
    }

    #[test]
    fn plans_remaps_of_present_extents_only() {
        let buf = r(4096, 8192);
        let mut ir = MapIr::new();
        ir.push(
            0,
            MapOp::MapEnter {
                entry: MapEntry::tofrom(buf),
            },
        ); // op 0: absent — not planned
        ir.push(0, kernel(vec![MapEntry::tofrom(buf)], false)); // op 1 map 0: planned
        ir.push(0, kernel(vec![MapEntry::tofrom(buf).always()], false)); // always — never
        ir.push(0, kernel(vec![MapEntry::alloc(buf)], false)); // alloc — never
        ir.push(
            0,
            MapOp::MapExit {
                entry: MapEntry::from(buf),
                delete: false,
            },
        );
        let plan = elision_plan(&ir);
        assert!(plan.contains(1, 0));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn same_construct_double_map_is_not_planned() {
        // The second tofrom of an extent made present by the *same*
        // construct carries the final from-copy — pre-construct evaluation
        // must leave both maps alone.
        let buf = r(4096, 4096);
        let mut ir = MapIr::new();
        ir.push(
            0,
            kernel(vec![MapEntry::tofrom(buf), MapEntry::tofrom(buf)], false),
        );
        assert!(elision_plan(&ir).is_empty());
    }

    #[test]
    fn empty_capture_yields_an_empty_plan() {
        assert!(elision_plan(&MapIr::new()).is_empty());
    }

    #[test]
    fn zero_map_kernels_only_capture_yields_an_empty_plan() {
        let mut ir = MapIr::new();
        ir.push(0, MapOp::HostAlloc { range: r(4096, 64) });
        ir.push(0, kernel(vec![], false));
        ir.push(0, kernel(vec![], true));
        ir.push(0, MapOp::Taskwait);
        ir.push(
            0,
            MapOp::HostFree {
                addr: VirtAddr(4096),
            },
        );
        assert!(elision_plan(&ir).is_empty());
    }

    #[test]
    fn nowait_deferred_exits_keep_refcounts_exact() {
        let buf = r(4096, 4096);
        let mut ir = MapIr::new();
        ir.push(0, kernel(vec![MapEntry::tofrom(buf)], true)); // op 0: absent
        ir.push(0, kernel(vec![MapEntry::tofrom(buf)], true)); // op 1: present — planned
        ir.push(0, MapOp::Taskwait); // drains both exits
        ir.push(0, kernel(vec![MapEntry::tofrom(buf)], false)); // op 3: absent again
        let plan = elision_plan(&ir);
        assert!(plan.contains(1, 0));
        assert_eq!(plan.len(), 1);
    }
}

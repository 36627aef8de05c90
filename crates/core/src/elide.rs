//! Map-elision modes: acting on what MC007 detects.
//!
//! The checker's MC007 diagnostic flags a re-map of a *present* extent with a
//! transfer direction (`to` / `from` / `tofrom`) and no `always` modifier.
//! Under the OpenMP reference-count model such a map performs no transfer in
//! either direction — the enclosing entry keeps the data present across it —
//! so the runtime can rewrite it to a no-transfer `alloc` map and skip the
//! per-entry transfer-decision path entirely. The elision pass does exactly
//! that, in one of two modes:
//!
//! * **Online** — the runtime probes the live [`MappingTable`] at map
//!   entry (through its extent-keyed [`MapLookupCache`]) and promotes
//!   eligible entries on the fly, charging only the probe.
//! * **Plan** — a capture is analyzed once (see `omp-mapcheck`'s
//!   `elision_plan`) and the resulting per-site plan is applied on replay,
//!   charging nothing at all.
//!
//! Eligibility is always evaluated against the table state *before* the
//! enclosing construct begins any of its own maps: presence then implies an
//! enclosing reference that outlives the construct, which is what makes the
//! skip safe (see DESIGN.md §11).
//!
//! [`MappingTable`]: crate::MappingTable
//! [`MapLookupCache`]: crate::MapLookupCache

use std::collections::BTreeSet;

/// How the runtime handles MC007-eligible (redundant) maps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ElideMode {
    /// No elision: every map takes the full transfer-decision path.
    #[default]
    Off,
    /// Probe the live mapping table at map entry and promote eligible
    /// entries to `alloc`, charging only the (cached) lookup.
    Online,
    /// Apply a precomputed per-site plan, charging nothing per map. Sites
    /// not in the plan take the normal path.
    Plan(ElisionPlan),
}

impl ElideMode {
    /// The parseable strategy this mode embodies (drops the plan payload).
    pub fn kind(&self) -> crate::modes::ElideKind {
        match self {
            ElideMode::Off => crate::modes::ElideKind::Off,
            ElideMode::Online => crate::modes::ElideKind::Online,
            ElideMode::Plan(_) => crate::modes::ElideKind::Plan,
        }
    }
}

impl std::fmt::Display for ElideMode {
    /// Prints the shared mode token (`off | online | plan`); the plan
    /// payload is not rendered. One spelling across every surface.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind().token())
    }
}

/// A profile-guided elision plan: the set of map sites to promote.
///
/// Sites are keyed by `(op_index, map_index)` against the operation stream
/// of a [`MapIr`](crate::MapIr) capture: `op_index` is the zero-based index
/// of the record in the capture (the runtime's internal operation counter
/// advances identically on capture and on execution), and `map_index` is the
/// position of the entry within a kernel's map list (always 0 for
/// `target enter data` sites).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElisionPlan {
    sites: BTreeSet<(u64, u32)>,
}

impl ElisionPlan {
    /// An empty plan (elides nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the map at `(op_index, map_index)` for promotion to `alloc`.
    pub fn insert(&mut self, op_index: u64, map_index: u32) {
        self.sites.insert((op_index, map_index));
    }

    /// Is the map at `(op_index, map_index)` planned for promotion?
    pub fn contains(&self, op_index: u64, map_index: u32) -> bool {
        self.sites.contains(&(op_index, map_index))
    }

    /// Number of planned sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the plan elides nothing.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterate the planned `(op_index, map_index)` sites in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.sites.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_set_semantics() {
        let mut p = ElisionPlan::new();
        assert!(p.is_empty());
        p.insert(3, 0);
        p.insert(3, 2);
        p.insert(3, 0); // idempotent
        assert_eq!(p.len(), 2);
        assert!(p.contains(3, 0));
        assert!(p.contains(3, 2));
        assert!(!p.contains(3, 1));
        assert!(!p.contains(4, 0));
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![(3, 0), (3, 2)]);
    }

    #[test]
    fn mode_default_is_off() {
        assert_eq!(ElideMode::default(), ElideMode::Off);
    }
}

//! Overhead attribution: the [`OverheadLedger`] (the paper's MM / MI
//! decomposition, Table III), [`LEDGER_FIELDS`] (its one field list for
//! serialization), and the [`RecoveryAction`]/[`RecoveryEvent`] payloads
//! that telemetry `Recovery` events carry.

use crate::config::RuntimeConfig;
use sim_des::VirtDuration;
use std::fmt;

/// Accumulated overheads for one run, split by cause.
///
/// * **MM** (memory management): device-pool allocation/free, map-triggered
///   copies, and — for Eager Maps — host-side prefault syscalls.
/// * **MI** (memory initialization): GPU stalls from XNACK replays on first
///   touch, charged to the kernels that fault.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadLedger {
    /// Device-pool allocation time.
    pub mm_alloc: VirtDuration,
    /// Map-triggered copy time (DMA durations).
    pub mm_copy: VirtDuration,
    /// Device-pool free time.
    pub mm_free: VirtDuration,
    /// Host-side GPU page-table prefault time (Eager Maps).
    pub mm_prefault: VirtDuration,
    /// Per-entry map-service time: the transfer-decision path for
    /// transfer-direction re-maps of present extents, or the (cached)
    /// elision lookups that replace it.
    pub mm_map: VirtDuration,
    /// Map-service time recovered by elision: what the elided maps would
    /// have been charged minus what their lookups cost. Informational —
    /// *not* part of [`mm_total`](Self::mm_total).
    pub mm_saved: VirtDuration,
    /// Maps promoted to no-transfer `alloc` by the elision pass.
    pub maps_elided: u64,
    /// GPU stall from XNACK first-touch replays.
    pub mi_fault_stall: VirtDuration,
    /// GPU stall from TLB misses on present translations.
    pub tlb_stall: VirtDuration,
    /// Modeled kernel compute time (excludes stalls).
    pub kernel_compute: VirtDuration,
    /// Kernels launched.
    pub kernels: u64,
    /// Map-triggered copies issued.
    pub copies: u64,
    /// Bytes moved by map-triggered copies.
    pub bytes_copied: u64,
    /// Map operations processed (begin + end).
    pub maps: u64,
    /// Pages XNACK-replayed (CPU-touched regime, cheap).
    pub replayed_pages: u64,
    /// Pages zero-filled inside the GPU fault handler (expensive).
    pub zero_filled_pages: u64,
    /// Prefault syscalls issued.
    pub prefault_calls: u64,
    /// Virtual time spent in recovery backoff waits between retries, and
    /// in tearing down the unified-memory pages evicted to relieve pool
    /// exhaustion.
    pub recovery_backoff: VirtDuration,
    /// Virtual time spent prefaulting access sets after XNACK was lost
    /// mid-run (the degraded Eager-Maps-style dispatch path).
    pub recovery_prefault: VirtDuration,
    /// Failed attempts that were retried by a recovery policy.
    pub retries: u64,
    /// Failure episodes that recovery resolved (the call later succeeded).
    pub recoveries: u64,
    /// Configuration degradations (startup XNACK-unavailable fallback and
    /// mid-run XNACK loss).
    pub degradations: u64,
    /// Unified-memory pages evicted from VRAM by eviction-then-retry.
    pub evicted_for_retry: u64,
    /// Prefault syscalls issued by the degraded dispatch path.
    pub recovery_prefaults: u64,
}

impl OverheadLedger {
    /// Total memory-management overhead (the paper's MM column; prefault
    /// cost is MM because it is paid on the map path, not in kernels).
    pub fn mm_total(&self) -> VirtDuration {
        self.mm_alloc + self.mm_copy + self.mm_free + self.mm_prefault + self.mm_map
    }

    /// Total memory-initialization overhead (the paper's MI column).
    pub fn mi_total(&self) -> VirtDuration {
        self.mi_fault_stall
    }

    /// Total virtual time charged by recovery policies (kept out of
    /// [`mm_total`](Self::mm_total) so the paper's tables are unchanged on
    /// healthy runs).
    pub fn recovery_total(&self) -> VirtDuration {
        self.recovery_backoff + self.recovery_prefault
    }

    /// True when any recovery or degradation activity was recorded.
    pub fn has_recovery_activity(&self) -> bool {
        self.retries != 0
            || self.recoveries != 0
            || self.degradations != 0
            || self.evicted_for_retry != 0
            || self.recovery_prefaults != 0
            || self.recovery_total() != VirtDuration::ZERO
    }

    /// Add every field of `other` into this ledger: the sum of two ledgers
    /// is the ledger of their two event streams together.
    pub fn absorb(&mut self, other: &OverheadLedger) {
        for f in &LEDGER_FIELDS {
            (f.set)(self, (f.get)(self) + (f.get)(other));
        }
    }
}

/// How a ledger field's raw value reads: virtual nanoseconds or a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerUnit {
    /// A [`VirtDuration`], as integer nanoseconds.
    Ns,
    /// A plain event or page count.
    Count,
}

/// One [`OverheadLedger`] field: its stable name, its unit, and accessors
/// over the raw `u64` value.
#[derive(Debug, Clone, Copy)]
pub struct LedgerField {
    /// Field name, as spelled in serialized results and metric labels.
    pub name: &'static str,
    /// Whether the raw value is nanoseconds or a count.
    pub unit: LedgerUnit,
    /// Read the raw value.
    pub get: fn(&OverheadLedger) -> u64,
    /// Overwrite the field from a raw value.
    pub set: fn(&mut OverheadLedger, u64),
}

macro_rules! ledger_field {
    (ns $f:ident) => {
        LedgerField {
            name: stringify!($f),
            unit: LedgerUnit::Ns,
            get: |l| l.$f.as_nanos(),
            set: |l, v| l.$f = VirtDuration::from_nanos(v),
        }
    };
    (count $f:ident) => {
        LedgerField {
            name: stringify!($f),
            unit: LedgerUnit::Count,
            get: |l| l.$f,
            set: |l, v| l.$f = v,
        }
    };
}

/// Every ledger field exactly once — durations first, then counts — in the
/// order serialized results list them. The one field list that result
/// serialization and the metrics exposition iterate.
pub const LEDGER_FIELDS: [LedgerField; 24] = [
    ledger_field!(ns mm_alloc),
    ledger_field!(ns mm_copy),
    ledger_field!(ns mm_free),
    ledger_field!(ns mm_prefault),
    ledger_field!(ns mm_map),
    ledger_field!(ns mm_saved),
    ledger_field!(ns mi_fault_stall),
    ledger_field!(ns tlb_stall),
    ledger_field!(ns kernel_compute),
    ledger_field!(ns recovery_backoff),
    ledger_field!(ns recovery_prefault),
    ledger_field!(count maps_elided),
    ledger_field!(count kernels),
    ledger_field!(count copies),
    ledger_field!(count bytes_copied),
    ledger_field!(count maps),
    ledger_field!(count replayed_pages),
    ledger_field!(count zero_filled_pages),
    ledger_field!(count prefault_calls),
    ledger_field!(count retries),
    ledger_field!(count recoveries),
    ledger_field!(count degradations),
    ledger_field!(count evicted_for_retry),
    ledger_field!(count recovery_prefaults),
];

impl fmt::Display for OverheadLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MM total: {}", self.mm_total())?;
        writeln!(f, "  alloc:    {}", self.mm_alloc)?;
        writeln!(
            f,
            "  copy:     {} ({} copies, {} bytes)",
            self.mm_copy, self.copies, self.bytes_copied
        )?;
        writeln!(f, "  free:     {}", self.mm_free)?;
        writeln!(
            f,
            "  prefault: {} ({} calls)",
            self.mm_prefault, self.prefault_calls
        )?;
        // Map-service and elision lines only appear on runs that exercise
        // them, keeping older output byte-identical.
        if self.mm_map != VirtDuration::ZERO {
            writeln!(f, "  map:      {}", self.mm_map)?;
        }
        if self.maps_elided != 0 {
            writeln!(
                f,
                "elision: {} maps promoted to alloc, {} saved",
                self.maps_elided, self.mm_saved
            )?;
        }
        writeln!(
            f,
            "MI total: {} ({} replayed + {} zero-filled pages)",
            self.mi_total(),
            self.replayed_pages,
            self.zero_filled_pages
        )?;
        writeln!(
            f,
            "kernels: {} ({} compute)",
            self.kernels, self.kernel_compute
        )?;
        // Only faulty runs print the recovery section, keeping healthy-run
        // output byte-identical to pre-fault-subsystem builds.
        if self.has_recovery_activity() {
            writeln!(
                f,
                "recovery: {} ({} retries, {} recovered, {} degradations)",
                self.recovery_total(),
                self.retries,
                self.recoveries,
                self.degradations
            )?;
            writeln!(
                f,
                "  backoff:  {} | prefault: {} ({} calls) | evicted: {} pages",
                self.recovery_backoff,
                self.recovery_prefault,
                self.recovery_prefaults,
                self.evicted_for_retry
            )?;
        }
        Ok(())
    }
}

/// What a recovery policy did about one failure episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A transient pool-allocation failure was retried until it succeeded.
    RetriedAlloc,
    /// Pool exhaustion was relieved by evicting resident unified-memory
    /// pages from VRAM, then the allocation was retried.
    EvictedThenRetriedAlloc {
        /// Pages evicted across the episode.
        pages: u64,
    },
    /// A transient DMA error was retried until the copy submitted.
    RetriedCopy,
    /// Queue-full backpressure was retried until the dispatch enqueued.
    RetriedDispatch,
    /// XNACK capability was lost mid-run; subsequent dispatches prefault
    /// their access sets host-side (Eager-Maps-style degradation).
    XnackLost,
    /// The requested configuration could not run in this deployment and was
    /// degraded at startup.
    StartupDegradation {
        /// The configuration the caller asked for.
        from: RuntimeConfig,
        /// The configuration that actually engaged.
        to: RuntimeConfig,
    },
}

/// One recovery event, recorded in order on the owning runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Host thread on which the episode played out (0 for startup events).
    pub thread: u32,
    /// Call attempts the episode consumed (0 for degradations).
    pub attempts: u32,
    /// What the recovery policy did.
    pub action: RecoveryAction,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> VirtDuration {
        VirtDuration::from_micros(v)
    }

    #[test]
    fn totals_compose() {
        let ledger = OverheadLedger {
            mm_alloc: us(10),
            mm_copy: us(20),
            mm_free: us(5),
            mm_prefault: us(7),
            mi_fault_stall: us(100),
            ..Default::default()
        };
        assert_eq!(ledger.mm_total(), us(42));
        assert_eq!(ledger.mi_total(), us(100));
    }

    #[test]
    fn field_table_covers_each_ledger_field_once() {
        // Writing field i through its setter must show up in its own getter
        // and no other: the 24 entries address 24 distinct fields, which is
        // all of them.
        for (i, field) in LEDGER_FIELDS.iter().enumerate() {
            let mut l = OverheadLedger::default();
            (field.set)(&mut l, 1000 + i as u64);
            for (j, other) in LEDGER_FIELDS.iter().enumerate() {
                let want = if i == j { 1000 + i as u64 } else { 0 };
                assert_eq!((other.get)(&l), want, "{} via {}", other.name, field.name);
            }
        }
        // Durations first, then counts.
        assert!(LEDGER_FIELDS
            .windows(2)
            .all(|w| !(w[0].unit == LedgerUnit::Count && w[1].unit == LedgerUnit::Ns)));
    }

    #[test]
    fn absorb_sums_every_field() {
        let mut a = OverheadLedger::default();
        let mut b = OverheadLedger::default();
        for (i, field) in LEDGER_FIELDS.iter().enumerate() {
            (field.set)(&mut a, i as u64);
            (field.set)(&mut b, 100 * i as u64);
        }
        a.absorb(&b);
        for (i, field) in LEDGER_FIELDS.iter().enumerate() {
            assert_eq!((field.get)(&a), 101 * i as u64, "{}", field.name);
        }
    }

    #[test]
    fn display_mentions_sections() {
        let text = OverheadLedger::default().to_string();
        assert!(text.contains("MM total"));
        assert!(text.contains("MI total"));
        assert!(text.contains("kernels"));
    }
}

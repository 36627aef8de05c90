//! Send/Sync audit for the batch-sweep subsystem.
//!
//! The work-stealing driver (`omp_batch::drive`) moves whole simulations
//! across worker threads: each cell builds an [`OmpRuntime`] on whatever
//! worker steals it and sends the distilled result back to the injector.
//! That is only sound if the types crossing the boundary are `Send` — and
//! shared inputs (the capture behind an `Arc`) additionally `Sync`. These
//! are compile-time assertions: a `Rc`, `RefCell`-captured pointer, or
//! raw-pointer field sneaking into any of these types fails this test at
//! build time, long before it could corrupt a parallel sweep.

use apu_mem::ApuMemory;
use omp_offload::telemetry::TelemetryReport;
use omp_offload::{
    ElisionPlan, MapIr, MapLookupCache, MappingTable, OmpRuntime, OverheadLedger, RunReport,
    SanitizerReport, Tenant, TenantPool,
};
use sim_des::FaultPlan;
use std::marker::PhantomData;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

/// Compile-time `Sync` probe usable for *negative* assertions: the
/// inherent `SYNC` const shadows the trait default exactly when `T: Sync`,
/// so `SyncProbe::<T>::SYNC` is `false` only for `!Sync` types.
struct SyncProbe<T>(PhantomData<T>);

trait DefaultNotSync {
    const SYNC: bool = false;
}

impl<T> DefaultNotSync for SyncProbe<T> {}

impl<T: Sync> SyncProbe<T> {
    const SYNC: bool = true;
}

#[test]
fn runtime_and_memory_move_across_workers() {
    // A sweep cell owns its runtime and memory image; both migrate to the
    // worker that executes the cell.
    assert_send::<OmpRuntime>();
    assert_send::<ApuMemory>();
}

#[test]
fn results_and_reports_move_back_to_the_injector() {
    assert_send::<RunReport>();
    assert_sync::<RunReport>();
    assert_send::<OverheadLedger>();
    assert_sync::<OverheadLedger>();
    assert_send::<TelemetryReport>();
    assert_sync::<TelemetryReport>();
    assert_send::<SanitizerReport>();
    assert_sync::<SanitizerReport>();
}

#[test]
fn shared_sweep_inputs_are_sync() {
    // Captures are shared read-only across workers via Arc<MapIr>; elision
    // plans and fault plans are built per cell but may be precomputed and
    // shared the same way.
    assert_send::<MapIr>();
    assert_sync::<MapIr>();
    assert_send::<ElisionPlan>();
    assert_sync::<ElisionPlan>();
    assert_send::<FaultPlan>();
    assert_sync::<FaultPlan>();
}

#[test]
fn mapping_table_and_tenant_pool_are_shared_across_workers() {
    // The mapping table is the one mapping structure many tenants mutate
    // concurrently through `&self`; the pool hands it out from any worker.
    assert_send::<MappingTable>();
    assert_sync::<MappingTable>();
    assert_send::<TenantPool>();
    assert_sync::<TenantPool>();
}

#[test]
fn tenants_migrate_but_lookup_caches_never_cross_threads() {
    // A tenant (like the runtime it wraps) migrates whole to the worker
    // that drives it...
    assert_send::<Tenant>();
    assert_send::<MapLookupCache>();
    // ...but its map-lookup cache is deliberately `!Sync`: the zero-
    // contention fast path is interior mutability (`Cell`/`RefCell`), only
    // sound because a cache is owned by exactly one thread at a time. If a
    // refactor ever made this `Sync` (say, by swapping in atomics), this
    // assertion flags the contract change.
    const {
        assert!(
            !SyncProbe::<MapLookupCache>::SYNC,
            "MapLookupCache must stay single-owner (!Sync)"
        );
        // The probe itself must not be trivially false.
        assert!(SyncProbe::<MappingTable>::SYNC);
    }
}

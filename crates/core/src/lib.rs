//! # omp-offload — the OpenMP offloading runtime with zero-copy support
//!
//! This crate is the reproduction of the paper's contribution: an OpenMP
//! offloading runtime (libomptarget analog) for the MI300A APU that can run
//! the *same program* in four configurations (paper Section IV):
//!
//! | Configuration | `map` clauses | Globals | GPU page table |
//! |---|---|---|---|
//! | [`RuntimeConfig::LegacyCopy`] | pool alloc + HBM-to-HBM copies | device copies | bulk prefault at alloc |
//! | [`RuntimeConfig::UnifiedSharedMemory`] | folded | double indirection | XNACK demand faulting |
//! | [`RuntimeConfig::ImplicitZeroCopy`] | folded | Copy-style transfers | XNACK demand faulting |
//! | [`RuntimeConfig::EagerMaps`] | folded + prefault syscall per map | Copy-style transfers | host-side eager prefault |
//!
//! All four are OpenMP-semantically equivalent: the test suite runs real
//! kernel bodies under each configuration and asserts identical results,
//! while the virtual-time layer exposes their different cost compositions —
//! memory management (MM) for Copy, first-touch memory initialization (MI)
//! for the XNACK-based configurations, prefault syscalls for Eager Maps.
//!
//! ```
//! use omp_offload::{MapEntry, OmpRuntime, RuntimeConfig, TargetRegion};
//! use apu_mem::{AddrRange, CostModel};
//! use hsa_rocr::Topology;
//! use sim_des::VirtDuration;
//!
//! let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
//!     .config(RuntimeConfig::ImplicitZeroCopy)
//!     .build()
//!     .unwrap();
//! let a = rt.host_alloc(0, 1 << 20).unwrap();
//! rt.target(0, TargetRegion::new("saxpy", VirtDuration::from_micros(50))
//!     .map(MapEntry::tofrom(AddrRange::new(a, 1 << 20)))).unwrap();
//! let report = rt.finish();
//! assert_eq!(report.ledger.copies, 0); // zero-copy folded the transfers
//! ```
//!
//! Runs can carry a deterministic fault-injection plan
//! ([`sim_des::FaultPlan`]) attached through the builder; the runtime's
//! recovery policies (bounded retry-with-backoff, eviction-then-retry,
//! configuration degradation) keep faulty runs semantically equivalent to
//! healthy ones and charge every episode as a telemetry `Recovery` event:
//! the [`OverheadLedger`] counts it, and a telemetry ring keeps it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod card;
mod config;
pub mod diag;
pub mod digest;
mod elide;
mod error;
mod globals;
mod kernel;
mod mapir;
mod mapping;
pub mod metrics;
pub mod modes;
mod replay;
mod runtime;
mod sanitize;
mod table;
pub mod telemetry;
mod tenant;
mod trace;

pub use builder::RuntimeBuilder;
pub use card::{CardReport, CardRuntime, Fabric};
pub use config::{RunEnv, RuntimeConfig};
pub use diag::{DiagCode, Diagnostic, Severity};
pub use elide::{ElideMode, ElisionPlan};
pub use error::OmpError;
pub use globals::{GlobalEntry, GlobalId, GlobalRegistry};
pub use kernel::{GpuPerf, KernelBody, KernelCtx, TargetRegion};
pub use mapir::{KernelOp, MapIr, MapOp, MapRecord};
pub use mapping::{MapDir, MapEntry, MapModel, Mapped, Mapping, Presence};
pub use metrics::{MetricKind, MetricsMode, MetricsSnapshot};
pub use modes::{CacheMode, ElideKind, ModeParseError, TelemetryKind};
pub use replay::{replay, replay_threads, ReplayOutcome, REPLAY_KERNEL_COMPUTE_US};
pub use runtime::{OmpRuntime, RunReport};
pub use sanitize::SanitizerReport;
pub use table::{MapLookupCache, MappingTable, TableContention};
pub use telemetry::{TelemetryMode, TelemetryReport};
pub use tenant::{Tenant, TenantPool, MAX_TENANTS, TENANT_VA_STRIDE};
pub use trace::{
    LedgerField, LedgerUnit, OverheadLedger, RecoveryAction, RecoveryEvent, LEDGER_FIELDS,
};

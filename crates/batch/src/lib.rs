//! # omp-batch — replay-at-scale: batched sweeps with a result cache
//!
//! The simulator's surfaces kept re-growing the same loop: take a set of
//! captures, replay each under a set of `(cost preset, configuration,
//! elision, fault seed, telemetry)` tuples, fold the ledgers into a report.
//! `repro` did it serially, `apusim replay` one file at a time, the paper
//! sweeps with ad-hoc scoped threads. This crate makes that loop a
//! first-class subsystem:
//!
//! - [`SweepRequest`] canonicalizes one cell — every result-determining
//!   field enters a stable line-oriented encoding whose FNV-1a digest is
//!   the cell's content address ([`request`]).
//! - [`drive`] schedules cells across a hand-rolled work-stealing pool
//!   (round-robin-seeded per-worker deques, LIFO own-pop, FIFO steal from
//!   the most-loaded victim) and restores injection order on the way out
//!   ([`driver`]).
//! - [`ResultCache`] memoizes [`SweepResult`]s on disk under the digest,
//!   verifying the stored canonical block byte-for-byte on every hit and
//!   self-invalidating on schema bumps via a header salt ([`cache`],
//!   [`result`]).
//! - [`run_sweep`] composes the three around a corpus and
//!   [`render_report`] folds the ordered results — including the merged
//!   cross-run attribution profile — into the sweep report ([`sweep`]).
//! - [`Server`] keeps parsed captures and the open cache resident behind a
//!   long-lived socket: the `PROTO v1` line protocol ([`proto`]) frames the
//!   *same* canonical encodings over the wire, and every sweep runs
//!   through the offline cell path ([`run_sweep_in`]), so every response
//!   is byte-identical to the offline path by construction ([`serve`]).
//!
//! ## The determinism contract
//!
//! A sweep at `-j N` — for any `N`, cold cache, warm cache, or no cache —
//! produces byte-identical reports, CSVs, ledgers, and memory digests to
//! the serial uncached sweep. The contract has three independent legs:
//! cells are *independent* (each owns its runtime and memory image), cells
//! are *deterministic* (the simulator is a deterministic DES; equal
//! requests yield equal results), and the *schedule is laundered out*
//! (driver output is re-sorted to injection order; cache and worker
//! statistics travel beside the results, never inside them). The
//! determinism matrix test in `tests/determinism_matrix.rs` pins all
//! three at `-j {1,4,8}` × {cold, warm}.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod driver;
pub mod proto;
pub mod request;
pub mod result;
pub mod serve;
pub mod sweep;

pub use cache::{cache_salt, CacheMode, GcSummary, ResultCache};
pub use driver::{drive, drive_stats, resolve_jobs, DriveStats, WorkerStats};
pub use proto::{Frame, ProtoError, Response, Verb, PROTO_VERSION};
pub use request::{
    CostPreset, ElideKind, ModeParseError, RequestError, SweepRequest, SweepRequestBuilder,
    TelemetryKind, REQUEST_VERSION,
};
pub use result::{merge_attribution, SweepResult, TenantRow, RESULT_VERSION};
pub use serve::{Client, Server, ServerConfig, ServerHandle, ServerStats};
pub use sweep::{
    cell_recipe, derive_inputs, execute, full_corpus, render_report, run_sweep, run_sweep_in,
    smoke_corpus, PreparedCell, SweepOutcome, SweepStats,
};

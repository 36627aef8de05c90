//! # omp-mapcheck — static map-clause & data-environment analyzer
//!
//! The paper's central premise is that the four runtime configurations
//! (Copy / USM / Implicit Zero-Copy / Eager Maps) are semantically
//! equivalent implementations of the OpenMP data-environment model — but
//! that equivalence only holds for *well-formed* programs: balanced
//! enter/exit refcounts, no stale-copy reads in Copy mode, no raw
//! `unified_shared_memory`-style accesses under XNACK-off configurations.
//! This crate makes those properties checkable without running a workload
//! to a fatal fault or a silently-stale value:
//!
//! 1. [`capture_workload`] runs a workload against a *recording* runtime
//!    (`RuntimeBuilder::capture`): the data-environment op stream is
//!    captured as a [`MapIr`](omp_offload::MapIr) without executing maps,
//!    transfers, or kernels.
//! 2. [`check`] abstractly interprets that stream against a symbolic
//!    mapping table — a [`MapModel`](omp_offload::MapModel) whose
//!    per-extent payload is a pair of host/device version clocks — once
//!    per configuration, emitting structured
//!    [`Diagnostic`](omp_offload::Diagnostic)s with stable `MC00x` codes.
//! 3. The same invariants are checked dynamically by the runtime sanitizer
//!    (`RuntimeBuilder::sanitize`); [`harness`] cross-validates the two
//!    verdicts for every shipped workload, and [`corpus`] holds the golden
//!    ill-formed programs that each trip one specific code in both passes.
//! 4. [`optimize`] upgrades the checker into a whole-program optimizing
//!    pass: liveness and reaching-transfer dataflow over the capture drives
//!    four rewrite rules (loop hoisting, dead to/from transfer deletion,
//!    update downgrade), and the rewritten program is verified equivalent
//!    on replay — bit-identical memory digest, error-free sanitizer,
//!    identical kernel count, never more map-management time ([`opt`]).
//!
//! | Code | Severity | Meaning |
//! |---|---|---|
//! | MC001 | error | refcount imbalance: mapping leaked at program end |
//! | MC002 | error | release/update of never-mapped or partially-overlapping extent |
//! | MC003 | error | stale device read in Copy mode (host wrote after last to-transfer) |
//! | MC004 | error | stale host read of device-written data without `from` |
//! | MC005 | error | raw USM access under a non-XNACK configuration (fatal fault, paper §IV-B) |
//! | MC006 | error | overlapping double-map with mismatched extents |
//! | MC007 | warning | redundant re-map of a present extent — zero-copy promotion candidate |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
mod checker;
pub mod corpus;
mod elision;
pub mod harness;
pub mod opt;

pub use capture::{capture_run, capture_workload};
pub use checker::check;
pub use elision::elision_plan;
pub use harness::{check_all, check_workload, has_errors, render_json, render_text, CheckCell};
pub use opt::{
    admissible_configs, optimize, rank_configs, replay_probe, verify_equivalence, Equivalence,
    OptError, OptReport, Optimized, ReplayProbe,
};

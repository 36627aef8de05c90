//! # mi300a-zerocopy — umbrella crate
//!
//! Reproduction of *"Performance Analysis of Runtime Handling of Zero-Copy
//! for OpenMP Programs on MI300A APUs"* (SC 2024) as a pure-Rust simulation.
//!
//! This crate re-exports the public API of the workspace members so examples
//! and downstream users can depend on a single crate:
//!
//! * [`sim`] — deterministic virtual-time discrete-event engine
//! * [`mem`] — simulated APU memory subsystem (pages, page tables, XNACK)
//! * [`hsa`] — simulated HSA/ROCr runtime layer with API statistics
//! * [`omp`] — the OpenMP offloading runtime and its four zero-copy
//!   configurations (the paper's contribution)
//! * [`workloads`] — mini-QMCPack and SPECaccel-like benchmark programs
//! * [`analysis`] — experiment driver, statistics, tables and figures
//! * [`mapcheck`] — static map-clause analyzer cross-validated by the
//!   runtime sanitizer (`apusim check`)
//! * [`batch`] — replay-at-scale: work-stealing batched sweep driver with
//!   a content-addressed result cache (`repro --jobs/--cache`,
//!   `apusim replay FILE...`)
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use analysis;
pub use apu_mem as mem;
pub use hsa_rocr as hsa;
pub use omp_batch as batch;
pub use omp_mapcheck as mapcheck;
pub use omp_offload as omp;
pub use sim_des as sim;
pub use workloads;

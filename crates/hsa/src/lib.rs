//! # hsa-rocr — simulated HSA/ROCr runtime layer
//!
//! The OpenMP offloading runtime in this reproduction does not talk to a
//! driver; it talks to this crate, which plays the role ROCr plays in the
//! paper's software stack (Fig. 1): device memory pools, asynchronous DMA
//! copies, kernel dispatch with completion signals, and the
//! `svm_attributes_set` prefault path used by Eager Maps.
//!
//! [`HsaRuntime::new`] builds a runtime over a fresh system of a given kind
//! and memory options. Every call has a *functional* effect (real content
//! moves in the simulated HBM; page tables are populated) and a *timing*
//! effect (operations are recorded into per-thread streams, later resolved
//! against the socket's shared resources: the serialized runtime stack, the
//! SDMA engines and the GPU kernel slots), and returns what it scheduled:
//! `pool_allocate` an [`AllocOutcome`](apu_mem::AllocOutcome), `pool_free`
//! and `evict_um_pages` a [`FreeOutcome`](apu_mem::FreeOutcome),
//! `async_copy` its DMA time and
//! `dispatch_kernel` the access set's fault outcome (and, `nowait`, its
//! completion token). So a caller charges each call's cost without working
//! it out again. `finish(opts, seeds)` schedules the streams once per noise
//! seed; [`ApiStats::from_schedule`] reads the per-API statistics
//! equivalent to the paper's rocprof HSA traces (Table I) off a schedule.
//!
//! ```
//! use hsa_rocr::{ApiStats, HsaApiKind, HsaRuntime, Topology};
//! use apu_mem::{CostModel, MemOptions, SystemKind};
//! use sim_des::RunOptions;
//!
//! let mut hsa = HsaRuntime::new(
//!     CostModel::mi300a(),
//!     Topology::default(),
//!     SystemKind::Apu,
//!     MemOptions::default(),
//! );
//! let host = hsa.host_alloc(0, 1 << 20).unwrap();
//! let dev = hsa.pool_allocate(0, 1 << 20).unwrap();
//! let dma = hsa.async_copy(0, host, dev.addr, 1 << 20, false).unwrap();
//! let schedules = hsa.finish(&RunOptions::noiseless(), &[0]);
//! let stats = ApiStats::from_schedule(&schedules[0]);
//! assert_eq!(stats.get(HsaApiKind::MemoryAsyncCopy).calls, 1);
//! assert!(schedules[0].makespan() > dev.cost + dma);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod runtime;
mod stats;
mod topology;

pub use api::{HsaApiKind, ALL_API_KINDS, API_KIND_COUNT};
pub use runtime::HsaRuntime;
pub use stats::{ApiEntry, ApiStats};
pub use topology::{Resources, Topology};

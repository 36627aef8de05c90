//! # analysis — experiment driver, statistics, tables and figures
//!
//! Turns workload runs into the paper's artifacts: medians and CoV per the
//! paper's methodology, Copy/zero-copy ratio computation, aligned text
//! tables and ASCII line figures with CSV export, builders for every
//! table and figure in the evaluation section ([`paper`]), launch-indexed
//! warm-up comparison ([`warmup`], paper §V-A.4), the measurements behind
//! EXPERIMENTS.md's extensions ([`extensions`]), and Chrome-trace timeline
//! export of schedules ([`timeline`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
pub mod extensions;
mod figure;
pub mod kernels;
pub mod paper;
mod stats;
mod table;
pub mod timeline;
pub mod warmup;

pub use experiment::{measure, measure_all_configs, ratio, ExperimentConfig, Measurement};
pub use figure::{Figure, Series};
pub use stats::{cov, cov_duration, mean, median, median_duration, order_of_magnitude_us, stddev};
pub use table::Table;

//! # bench-harness — the `repro` binary and simulator wall-clock benches
//!
//! `repro` is the one printer of the paper's artifacts: every table, figure
//! and ablation (`cargo run -p bench-harness --bin repro --release --
//! --full`). The benches under `benches/` are plain `fn main()` programs
//! that time the simulator itself, not the modeled machine.

#![forbid(unsafe_code)]

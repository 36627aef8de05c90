//! SPECaccel 2023 C/C++ benchmark analogs (paper §V-B).
//!
//! Each mini-app reproduces the *offload pattern* the paper describes for
//! its benchmark — allocation cadence, copy placement, first-touch regime,
//! kernel-to-allocation time ratios — at ref-like scale. A `scale` knob
//! shrinks sizes and iteration counts proportionally for fast tests.

mod bt;
mod ep;
mod lbm;
mod sp;
mod stencil;

pub use bt::Bt;
pub use ep::Ep;
pub use lbm::Lbm;
pub use sp::SpC;
pub use stencil::Stencil;

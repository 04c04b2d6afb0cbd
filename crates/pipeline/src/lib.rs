//! # wsc-pipeline — 1F1B scheduling and recomputation
//!
//! The pipeline substrate of the WATOS reproduction: exact 1F1B timing
//! with heterogeneous stages ([`onefb`]), per-stage recomputation plans
//! and the naive baseline of Fig. 8a ([`recompute`]), and the GCMR
//! dynamic program with Sender/Helper pairing of Alg. 2 ([`mod@gcmr`]).
//!
//! ```
//! use wsc_pipeline::onefb::{simulate, StageTiming};
//! use wsc_arch::units::Time;
//!
//! let stage = StageTiming {
//!     fwd: Time::from_millis(1.0),
//!     bwd: Time::from_millis(2.0),
//!     p2p: Time::ZERO,
//! };
//! let iteration = simulate(&vec![stage; 4], 8);
//! assert!(iteration.as_millis() >= 8.0 * 3.0);
//! ```

pub mod gcmr;
pub mod onefb;
pub mod recompute;

pub use crate::gcmr::{gcmr, GcmrPlan, MemPair};
pub use crate::onefb::{bubble_fraction, simulate, StageTiming};
pub use crate::recompute::{naive_recompute, planned_memory, RecomputePlan, StageRecomputeInput};

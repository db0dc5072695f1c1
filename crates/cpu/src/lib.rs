//! # tdo-cpu — the SMT processor substrate
//!
//! A cycle-based model of the paper's two-context SMT core (Table 1): 4-wide
//! shared issue, a register scoreboard with non-blocking loads, a hybrid
//! gshare/bimodal branch predictor with a 20-stage-pipeline misprediction
//! penalty, and a *helper context* on which Trident's dynamic optimizer runs
//! concurrently with — and at lower priority than — the main thread.
//!
//! The core executes [`tdo_isa`] programs functionally while computing
//! timing against a [`tdo_mem::Hierarchy`]. Every committed instruction is
//! reported as a [`Commit`] record; the simulation driver feeds those records
//! to Trident's monitoring hardware (branch profiler, watch table) and the
//! prefetcher's delinquent load table.
//!
//! Code is fetched from a mutable [`CodeImage`], so the optimizer can patch
//! the running binary: linking hot traces by rewriting their entry
//! instruction into a jump, and repairing prefetch distances by rewriting
//! instruction bits inside the code cache.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod branch;
pub mod code;
pub mod commit;
pub mod config;
pub mod core;
pub mod stats;

pub use crate::core::{Core, HelperJob};
pub use branch::BranchPredictor;
pub use code::{CodeImage, FetchError, PatchError, PredecodedOp, NO_USE};
pub use commit::{Commit, CommitKind};
pub use config::CpuConfig;
pub use stats::CpuStats;

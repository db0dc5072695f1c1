//! # tdo-mem — the memory-system substrate
//!
//! Everything below the core: a functional sparse [`Memory`] carrying the
//! program's bytes, and a timing [`Hierarchy`] modelling the paper's
//! three-level cache system (Table 1) with
//!
//! * set-associative LRU tag arrays ([`cache`]),
//! * in-flight fill tracking so late prefetches become *partial hits*,
//! * an MSHR limit and a DRAM bus occupancy model,
//! * prefetch displacement logging (the Figure 6 "miss due to prefetching"
//!   attribution the paper describes in §5.3), and
//! * a pluggable hardware prefetcher *arm* slot in front of the L2, filled
//!   by any [`tdo_arms::Prefetcher`] implementation (the paper's
//!   stride-predictor-directed stream buffers are the default arm) and
//!   swappable at run time via [`Hierarchy::set_arm`].
//!
//! ## Example
//!
//! ```
//! use tdo_mem::{Hierarchy, MemConfig, LoadClass, PrefetchOutcome};
//!
//! let mut hier = Hierarchy::new(MemConfig::no_prefetch());
//! // Cold miss to memory...
//! let r = hier.load(0, 0x400, 0x10_0000);
//! assert!(r.latency >= 350);
//! // ...but a timely software prefetch turns the next line into a hit.
//! assert_eq!(hier.sw_prefetch(0, 0x400, 0x10_0040), PrefetchOutcome::Issued);
//! let r = hier.load(1000, 0x400, 0x10_0040);
//! assert_eq!(r.class, LoadClass::HitPrefetched);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod memory;
pub mod stats;

pub use cache::{Cache, CacheConfig};
pub use config::MemConfig;
pub use hierarchy::Hierarchy;
pub use memory::Memory;
pub use stats::{AccessResult, LoadClass, MemStats, PrefetchOutcome, ServiceLevel};
// Re-exported so downstream crates keep a single import surface for the
// memory system even though the arms now live in their own crate.
pub use tdo_arms::{
    AdaptiveNextLineConfig, ArmConfig, ArmKind, ArmStats, DeltaConfig, NextLineConfig, Prefetcher,
    StreamBufferConfig, StreamBuffers, StridePredictor,
};

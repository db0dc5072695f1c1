//! # tdo-core — the self-repairing software prefetcher
//!
//! The primary contribution of *"A Self-Repairing Prefetcher in an
//! Event-Driven Dynamic Optimization Framework"* (CGO 2006), built on the
//! Trident substrate (`tdo-trident`):
//!
//! * [`dlt`] — the **Delinquent Load Table**, the hardware monitor that
//!   tracks per-load access/miss counters, total miss latency, stride and
//!   stride confidence, and the mature flag, raising *delinquent load*
//!   events when a hot-trace load misses often with high latency;
//! * [`mod@classify`] — delinquent-load classification into *Stride*, *Pointer*
//!   and *Same Object* classes;
//! * [`insert`] — prefetch insertion: stride-based same-object prefetching
//!   with cache-line skipping (plus one extra block after a skipped load)
//!   and pointer-dereference prefetching through non-faulting loads;
//! * [`optimizer`] — the event handler the helper thread runs: insertion on
//!   the first event, and **self-repair** afterwards — walking a group's
//!   prefetch distance up while the load's average access latency improves,
//!   backing off when it worsens, patching only the distance bits of the
//!   installed prefetch instructions, and maturing loads whose repair
//!   budget (2 × maximum distance) is spent.
//!
//! ```
//! use tdo_core::{Dlt, DltConfig};
//!
//! // A hot-trace load missing to memory every other access becomes
//! // delinquent at the end of its 256-access monitoring window.
//! let mut dlt = Dlt::new(DltConfig::paper_baseline());
//! let mut event = false;
//! for i in 0..256u64 {
//!     event |= dlt.observe(0x10_0000, 0x8000 + i * 64, i % 2 == 0, 350);
//! }
//! assert!(event);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod classify;
pub mod dlt;
pub mod insert;
pub mod optimizer;

pub use classify::{classify, Classification, LoadClass, LoadInfo, ObjectGroup};
pub use dlt::{Dlt, DltConfig, DltEntry, LoadSnapshot};
pub use insert::{plan_insertion, GroupKind, InsertOptions, InsertionPlan, PlannedGroup};
pub use optimizer::{
    GroupState, OptimizerConfig, OptimizerStats, PrefetchOptimizer, PreparedAction, SwPrefetchMode,
    REPAIR_TOLERANCE_MILLI,
};

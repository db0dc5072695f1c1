//! # tdo-sim — the experiment driver
//!
//! Assembles the whole system — the SMT core (`tdo-cpu`), memory hierarchy
//! and hardware stream buffers (`tdo-mem`), the Trident dynamic optimization
//! framework (`tdo-trident`), the self-repairing prefetcher (`tdo-core`) and
//! the benchmark programs (`tdo-workloads`) — and runs the paper's
//! experiments end to end.
//!
//! ```no_run
//! use tdo_sim::{run, PrefetchSetup, SimConfig};
//! use tdo_workloads::{build, Scale};
//!
//! let workload = build("mcf", Scale::Test).unwrap();
//! let baseline = run(&workload, &SimConfig::test(PrefetchSetup::Hw8x8));
//! let repaired = run(&workload, &SimConfig::test(PrefetchSetup::SwSelfRepair));
//! println!("speedup: {:.2}×", repaired.speedup_over(&baseline));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod engine;
pub mod lru;
pub mod machine;
pub mod persist;
pub mod profile;
pub mod report;
pub mod result;
pub mod timeline;

pub use config::{policy_candidates, JobCostModel, PolicyConfig, PrefetchSetup, SimConfig};
pub use engine::{Cell, ExperimentSpec, Runner, TableMetrics};
pub use machine::{run, run_profiled, run_traced, Machine};
pub use persist::{cell_key, decode_result, encode_result, SCHEMA_VERSION};
pub use profile::{MachineProfile, MachineProfiler};
pub use report::{Format, Report};
pub use result::{DriverCounters, SimResult};
pub use timeline::Timeline;

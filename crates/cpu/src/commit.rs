//! Commit records — the event stream the core hands to the monitoring
//! hardware (branch profiler, watch table, delinquent load table) each cycle.

use tdo_mem::{AccessResult, PrefetchOutcome};

/// What one committed instruction did.
#[derive(Clone, Copy, Debug)]
pub enum CommitKind {
    /// ALU/move/nop — nothing the monitors care about beyond the PC.
    Simple,
    /// A conditional branch.
    Branch {
        /// Whether it was taken.
        taken: bool,
        /// The taken-path target.
        target: u64,
        /// Whether the predictor got it wrong.
        mispredicted: bool,
    },
    /// An unconditional control transfer (br/jmp).
    Jump {
        /// The target address.
        target: u64,
    },
    /// A demand load.
    Load {
        /// Effective address.
        addr: u64,
        /// Timing classification from the hierarchy.
        result: AccessResult,
    },
    /// A store.
    Store {
        /// Effective address.
        addr: u64,
    },
    /// A software prefetch.
    Prefetch {
        /// Prefetched effective address.
        addr: u64,
        /// What the hierarchy did with it.
        outcome: PrefetchOutcome,
    },
    /// The context halted.
    Halt,
}

/// One committed main-thread instruction (the helper context's synthetic
/// optimizer instructions are not reported).
#[derive(Clone, Copy, Debug)]
pub struct Commit {
    /// Address of the instruction.
    pub pc: u64,
    /// Cycle of issue.
    pub cycle: u64,
    /// Payload.
    pub kind: CommitKind,
}

impl Commit {
    /// Whether this commit is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self.kind, CommitKind::Branch { .. })
    }
}

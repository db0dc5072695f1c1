//! The machine self-profiler: attributes host wall time to the driver's
//! phases and simulated cycles to helper-context job kinds.
//!
//! The profiler is the performance counterpart to the event probe
//! (`tdo_obs::Probe`): disabled it costs one `Option` test per phase
//! (the default — [`crate::machine::Machine`] is built with no
//! profiler), enabled it adds a handful of `Instant::now()` calls per
//! simulated cycle. Because it only *reads* the clock, an enabled
//! profiler can never perturb the simulation: the architectural result
//! is byte-identical with the profiler off, on, or absent — the parity
//! test in `tests/timeline.rs` pins this down.
//!
//! Wall-time numbers are host measurements and therefore
//! nondeterministic; everything else (simulated cycles, job counts) is
//! part of the deterministic simulation. Consumers that need
//! reproducible output must segregate the wall fields.
//!
//! The benchmark (`perfbench/`) is the one consumer outside tests: its
//! traced passes (`--trace 1`) print the phase split as `cpu.cycle_ms`,
//! `trident.monitors_ms`, `trident.events_ms`, `core.commit_ms` and
//! `sim.other_ms`. Its untraced passes, whose `sim_insts_per_s` CI gates,
//! run no profiler.

use tdo_obs::{HelperJobKind, PhaseTimer};

/// Number of driver phases a step is split into.
pub const NPHASES: usize = 6;

/// The core's fetch/execute/mem cycle (including commit buffering).
pub const PHASE_CORE: usize = 0;
/// Feeding committed instructions to the branch profiler, DLT and
/// watch table.
pub const PHASE_MONITORS: usize = 1;
/// Windowed timeline sampling.
pub const PHASE_SAMPLING: usize = 2;
/// Trident event-queue dispatch (helper-job start, optimizer analysis).
pub const PHASE_EVENTS: usize = 3;
/// Committing finished helper jobs (trace install, prefetch insertion,
/// in-place distance repair).
pub const PHASE_OPTIMIZER: usize = 4;
/// Periodic mature-load clearing (phase-change extension).
pub const PHASE_MATURE: usize = 5;

/// Number of helper-context job kinds tracked.
pub const NKINDS: usize = 4;

/// The fixed index of a helper-job kind.
#[must_use]
pub fn kind_index(kind: HelperJobKind) -> usize {
    match kind {
        HelperJobKind::FormTrace => 0,
        HelperJobKind::InsertPrefetches => 1,
        HelperJobKind::RepairDistance => 2,
        HelperJobKind::AnalyzeOnly => 3,
    }
}

/// Live profiler state owned by a running machine.
#[derive(Debug, Default, Clone)]
pub struct MachineProfiler {
    /// Per-phase wall-clock attribution.
    pub timer: PhaseTimer<NPHASES>,
    /// The in-flight helper job's kind and start cycle.
    job_start: Option<(HelperJobKind, u64)>,
    /// Simulated cycles the helper context spent per job kind.
    pub helper_cycles: [u64; NKINDS],
    /// Helper jobs finished per kind.
    pub helper_jobs: [u64; NKINDS],
}

impl MachineProfiler {
    /// Marks a helper job of `kind` starting at simulated cycle `now`.
    pub fn job_begin(&mut self, kind: HelperJobKind, now: u64) {
        self.job_start = Some((kind, now));
    }

    /// Attributes the simulated span of the in-flight job ending at
    /// `now` to its kind.
    pub fn job_end(&mut self, now: u64) {
        if let Some((kind, t0)) = self.job_start.take() {
            let i = kind_index(kind);
            self.helper_cycles[i] += now.saturating_sub(t0);
            self.helper_jobs[i] += 1;
        }
    }
}

/// The finished profile returned by a profiled run.
#[derive(Debug, Clone, Default)]
pub struct MachineProfile {
    /// Host nanoseconds attributed to each driver phase, indexed by the
    /// `PHASE_*` constants.
    pub phase_wall_ns: [u64; NPHASES],
    /// Host nanoseconds for the whole run (superset of the phases:
    /// includes setup and result assembly).
    pub run_wall_ns: u64,
    /// Total simulated cycles of the run.
    pub cycles: u64,
    /// Simulated helper-context cycles per job kind, in [`kind_index`]
    /// order.
    pub helper_cycles: [u64; NKINDS],
    /// Helper jobs finished per kind.
    pub helper_jobs: [u64; NKINDS],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_attribution_by_kind() {
        let mut p = MachineProfiler::default();
        p.job_begin(HelperJobKind::RepairDistance, 100);
        p.job_end(350);
        p.job_begin(HelperJobKind::FormTrace, 400);
        p.job_end(1000);
        p.job_end(2000); // no job in flight: ignored
        assert_eq!(p.helper_cycles[kind_index(HelperJobKind::RepairDistance)], 250);
        assert_eq!(p.helper_cycles[kind_index(HelperJobKind::FormTrace)], 600);
        assert_eq!(p.helper_jobs, [1, 0, 1, 0]);
    }

    #[test]
    fn kind_indices_follow_declaration_order() {
        for (i, kind) in [
            HelperJobKind::FormTrace,
            HelperJobKind::InsertPrefetches,
            HelperJobKind::RepairDistance,
            HelperJobKind::AnalyzeOnly,
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(kind_index(kind), i);
        }
    }
}

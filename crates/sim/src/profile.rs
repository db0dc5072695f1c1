//! The machine self-profiler: attributes host wall time to the driver's
//! phases and simulated cycles to helper-context job kinds.
//!
//! Host time is attributed by sampling one phase word, not by reading the
//! clock. A profiled run lends the machine an `AtomicU8`: the run loop
//! stores [`PHASE_CORE`] at the top of every iteration (the idle skip is
//! core work), and each later phase of the step stores its own `PHASE_*`
//! when it starts and `OUTSIDE` when it ends: one relaxed store each, and
//! no clock read. A sampler thread reads the word every half millisecond
//! and counts what it sees; the counts, scaled to the run's wall time, are
//! the phase split. Time spent outside every phase (the guard tests
//! between phases, policy epochs, result assembly) belongs to no phase,
//! and consumers report it as the remainder.
//!
//! On plain runs there is no word, and each store point is one test of an
//! `Option` held in a register. Because the word is only written by the
//! simulation and only read by the sampler, profiling can never perturb
//! the simulation: the architectural result is byte-identical with the
//! profiler off, on, or absent — the parity test in `tests/timeline.rs`
//! pins this down.
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

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tdo_obs::HelperJobKind;

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

/// The phase word's value between phases.
pub(crate) const OUTSIDE: usize = NPHASES;
/// The value stored once the run has returned; it stops the sampler.
const DONE: u8 = OUTSIDE as u8 + 1;
/// The pause between two reads of the phase word. Each wake-up of the
/// sampler costs the simulating thread time on a 2-vCPU guest: at 50 µs a
/// profiled run took 6–10% longer than a plain one, at 500 µs within noise
/// of it, while a paper-scale cell still spans some 200 periods.
const SAMPLE_PERIOD: Duration = Duration::from_micros(500);

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

/// Stores `phase` in the phase word of a profiled run.
#[inline(always)]
pub(crate) fn mark(word: Option<&AtomicU8>, phase: usize) {
    if let Some(w) = word {
        w.store(phase as u8, Ordering::Relaxed);
    }
}

/// Runs `run` on the calling thread while a scoped sampler thread reads
/// the phase word it is given. Returns `run`'s value, the run's host wall
/// nanoseconds and the per-phase share of them.
///
/// The sampler takes its first read before the run starts, while the word
/// still holds [`PHASE_CORE`], so even a run shorter than one sampling
/// period has a sample. The word publishes no other data, so every access
/// is `Relaxed`; the counts come back through `join`.
pub(crate) fn sampled<R>(run: impl FnOnce(&AtomicU8) -> R) -> (R, u64, [u64; NPHASES]) {
    let word = AtomicU8::new(PHASE_CORE as u8);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut counts = [0u64; NPHASES + 1];
            let mut seen = word.load(Ordering::Relaxed);
            start.wait();
            while seen != DONE {
                counts[usize::from(seen)] += 1;
                std::thread::sleep(SAMPLE_PERIOD);
                seen = word.load(Ordering::Relaxed);
            }
            counts
        });
        start.wait();
        // Stops the sampler on return and on unwind alike, so a run that
        // panics cannot leave the scope waiting for the sampler forever.
        let stop = Stop(&word);
        let t0 = Instant::now();
        let out = run(&word);
        let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        drop(stop);
        let counts = sampler.join().expect("phase sampler panicked");
        (out, wall_ns, scale(&counts, wall_ns))
    })
}

/// Stores `DONE` in the phase word when dropped.
struct Stop<'a>(&'a AtomicU8);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(DONE, Ordering::Relaxed);
    }
}

/// Splits `wall_ns` over the phases in proportion to their sample counts.
/// The share of the samples taken outside every phase goes to none.
fn scale(counts: &[u64; NPHASES + 1], wall_ns: u64) -> [u64; NPHASES] {
    let total = u128::from(counts.iter().sum::<u64>()).max(1);
    std::array::from_fn(|p| {
        u64::try_from(u128::from(wall_ns) * u128::from(counts[p]) / total).unwrap_or(u64::MAX)
    })
}

/// Live profiler state owned by a running machine.
#[derive(Debug, Default, Clone)]
pub struct MachineProfiler {
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
    /// includes the time between phases and result assembly).
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

    #[test]
    fn samples_split_the_wall_and_outside_goes_to_no_phase() {
        // 6 core, 3 monitor and 1 outside sample of a 1000 ns run.
        let mut counts = [0; NPHASES + 1];
        counts[PHASE_CORE] = 6;
        counts[PHASE_MONITORS] = 3;
        counts[OUTSIDE] = 1;
        let split = scale(&counts, 1000);
        assert_eq!(split[PHASE_CORE], 600);
        assert_eq!(split[PHASE_MONITORS], 300);
        assert_eq!(split.iter().sum::<u64>(), 900, "the outside tenth is no phase's");
        assert_eq!(scale(&[0; NPHASES + 1], 1000), [0; NPHASES], "no samples, no split");
    }

    #[test]
    fn the_sampler_reads_the_phase_the_run_is_in() {
        // A run that parks in one phase for 100 sampling periods is
        // sampled there, and a run that never stores still has its first
        // sample in the core phase.
        let ((), wall, split) = sampled(|w| {
            w.store(PHASE_EVENTS as u8, Ordering::Relaxed);
            std::thread::sleep(100 * SAMPLE_PERIOD);
        });
        assert!(split[PHASE_EVENTS] > 0 && split.iter().sum::<u64>() <= wall, "{split:?}");
        let ((), wall, split) = sampled(|_| {});
        assert_eq!(split[PHASE_CORE], wall, "{split:?}");
    }

    #[test]
    #[should_panic(expected = "the run failed")]
    fn a_panicking_run_stops_the_sampler() {
        sampled(|_| -> () { panic!("the run failed") });
    }
}

//! Simulation results and the per-figure aggregates derived from them.

use tdo_core::OptimizerStats;
use tdo_cpu::CpuStats;
use tdo_mem::MemStats;
use tdo_trident::TridentStats;

/// Counters the driver keeps itself (main-thread, measurement-window only).
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverCounters {
    /// Original-equivalent instructions committed.
    pub orig_insts: u64,
    /// Main-thread demand loads, split by Figure 6 class.
    pub loads_hit: u64,
    /// First touches of prefetched lines.
    pub loads_hit_prefetched: u64,
    /// Loads that caught their prefetch in flight.
    pub loads_partial: u64,
    /// Plain misses.
    pub loads_miss: u64,
    /// Misses attributed to prefetch displacement.
    pub loads_miss_due_to_prefetch: u64,
    /// L1 misses (loads) total.
    pub load_misses: u64,
    /// L1 misses occurring while executing inside a hot trace.
    pub load_misses_in_traces: u64,
    /// L1 misses at loads currently covered by an inserted prefetch group.
    pub load_misses_covered: u64,
    /// Delinquent-load events queued.
    pub dlt_events_queued: u64,
    /// Hot-trace events processed.
    pub hot_trace_events: u64,
    /// Traces backed out by the watch table.
    pub trace_backouts: u64,
}

impl DriverCounters {
    /// Total classified loads.
    #[must_use]
    pub fn loads(&self) -> u64 {
        self.loads_hit
            + self.loads_hit_prefetched
            + self.loads_partial
            + self.loads_miss
            + self.loads_miss_due_to_prefetch
    }

    fn sub(&self, other: &DriverCounters) -> DriverCounters {
        DriverCounters {
            orig_insts: self.orig_insts - other.orig_insts,
            loads_hit: self.loads_hit - other.loads_hit,
            loads_hit_prefetched: self.loads_hit_prefetched - other.loads_hit_prefetched,
            loads_partial: self.loads_partial - other.loads_partial,
            loads_miss: self.loads_miss - other.loads_miss,
            loads_miss_due_to_prefetch: self.loads_miss_due_to_prefetch
                - other.loads_miss_due_to_prefetch,
            load_misses: self.load_misses - other.load_misses,
            load_misses_in_traces: self.load_misses_in_traces - other.load_misses_in_traces,
            load_misses_covered: self.load_misses_covered - other.load_misses_covered,
            dlt_events_queued: self.dlt_events_queued - other.dlt_events_queued,
            hot_trace_events: self.hot_trace_events - other.hot_trace_events,
            trace_backouts: self.trace_backouts - other.trace_backouts,
        }
    }
}

/// A measurement-window snapshot used to subtract warmup.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Snapshot {
    pub cycles: u64,
    pub helper_active: u64,
    pub helper_committed: u64,
    pub counters: DriverCounters,
}

/// The outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Workload name.
    pub name: String,
    /// Cycles in the measurement window.
    pub cycles: u64,
    /// Original-equivalent instructions in the measurement window.
    pub orig_insts: u64,
    /// Cycles the helper context was active in the window (Figure 3).
    pub helper_active_cycles: u64,
    /// Helper instructions committed in the window.
    pub helper_committed: u64,
    /// Driver counters for the window.
    pub window: DriverCounters,
    /// Whole-run core stats (includes warmup).
    pub cpu: CpuStats,
    /// Whole-run memory stats (includes warmup).
    pub mem: MemStats,
    /// Whole-run Trident stats.
    pub trident: TridentStats,
    /// Whole-run optimizer stats.
    pub optimizer: OptimizerStats,
    /// Decision-audit ledger: every distance repair and arm switch the run
    /// performed, chronological (the machine's one ring, bounded by
    /// [`tdo_obs::LEDGER_CAPACITY`]).
    pub ledger: Vec<tdo_obs::LedgerRecord>,
    /// Whether the program halted before the instruction budget.
    pub halted: bool,
}

impl SimResult {
    /// Original-equivalent IPC over the measurement window — the paper's
    /// performance metric ("IPC results correspond to only the number of
    /// instructions the original code would have executed", §4.1).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.orig_insts as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline run of the same workload.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if baseline.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / baseline.ipc()
        }
    }

    /// Fraction of window cycles the helper thread was active (Figure 3).
    #[must_use]
    pub fn helper_active_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.helper_active_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of load misses that occurred inside hot traces (Figure 4).
    #[must_use]
    pub fn miss_coverage_by_traces(&self) -> f64 {
        if self.window.load_misses == 0 {
            0.0
        } else {
            self.window.load_misses_in_traces as f64 / self.window.load_misses as f64
        }
    }

    /// Fraction of load misses covered by inserted prefetches (Figure 4).
    #[must_use]
    pub fn miss_coverage_by_prefetcher(&self) -> f64 {
        if self.window.load_misses == 0 {
            0.0
        } else {
            self.window.load_misses_covered as f64 / self.window.load_misses as f64
        }
    }

    /// The Figure 6 load breakdown as fractions
    /// `[hit, hit-prefetched, partial, miss, miss-due-to-prefetch]`.
    #[must_use]
    pub fn load_breakdown(&self) -> [f64; 5] {
        let total = self.window.loads().max(1) as f64;
        [
            self.window.loads_hit as f64 / total,
            self.window.loads_hit_prefetched as f64 / total,
            self.window.loads_partial as f64 / total,
            self.window.loads_miss as f64 / total,
            self.window.loads_miss_due_to_prefetch as f64 / total,
        ]
    }

    /// Average in-place distance repairs per inserted prefetch group — the
    /// self-repairing prefetcher's tuning effort.
    #[must_use]
    pub fn repairs_per_group(&self) -> f64 {
        if self.optimizer.groups == 0 {
            0.0
        } else {
            self.optimizer.repairs as f64 / self.optimizer.groups as f64
        }
    }

    /// Average cycles from a group's prefetch insertion to its last distance
    /// change (0 when the initial distance was never changed).
    #[must_use]
    pub fn avg_cycles_to_converge(&self) -> f64 {
        if self.optimizer.groups == 0 {
            0.0
        } else {
            self.optimizer.converge_cycles_total as f64 / self.optimizer.groups as f64
        }
    }

    pub(crate) fn window_from(
        snapshot: &Snapshot,
        end: &Snapshot,
    ) -> (u64, u64, u64, DriverCounters) {
        (
            end.cycles - snapshot.cycles,
            end.helper_active - snapshot.helper_active,
            end.helper_committed - snapshot.helper_committed,
            end.counters.sub(&snapshot.counters),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(cycles: u64, insts: u64) -> SimResult {
        SimResult {
            name: "t".into(),
            cycles,
            orig_insts: insts,
            helper_active_cycles: 0,
            helper_committed: 0,
            window: DriverCounters::default(),
            cpu: CpuStats::default(),
            mem: MemStats::default(),
            trident: TridentStats::default(),
            optimizer: OptimizerStats::default(),
            ledger: Vec::new(),
            halted: false,
        }
    }

    #[test]
    fn ipc_and_speedup() {
        let base = result_with(1000, 500);
        let fast = result_with(500, 500);
        assert_eq!(base.ipc(), 0.5);
        assert_eq!(fast.speedup_over(&base), 2.0);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let mut r = result_with(10, 10);
        r.window.loads_hit = 6;
        r.window.loads_hit_prefetched = 2;
        r.window.loads_partial = 1;
        r.window.loads_miss = 1;
        let s: f64 = r.load_breakdown().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}

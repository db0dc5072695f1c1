//! Core-side statistics.

/// Counters kept by the SMT core.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions committed by the main thread (context 0).
    pub main_committed: u64,
    /// Synthetic optimizer instructions committed by the helper (context 1).
    pub helper_committed: u64,
    /// Cycles during which the helper context was active (starting up or
    /// executing) — the numerator of the paper's Figure 3.
    pub helper_active_cycles: u64,
    /// Helper jobs completed.
    pub helper_jobs: u64,
    /// Demand loads committed by the main thread.
    pub main_loads: u64,
    /// Stores committed by the main thread.
    pub main_stores: u64,
    /// Software prefetches committed by the main thread.
    pub main_prefetches: u64,
}

impl CpuStats {
    /// Fraction of cycles the helper was active (Figure 3).
    #[must_use]
    pub fn helper_active_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.helper_active_cycles as f64 / self.cycles as f64
        }
    }
}

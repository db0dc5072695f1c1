//! Sampling columns for a [`Registry`]: the fixed-width rows behind the
//! server's `GET /metrics/history` and `tdo top`.
//!
//! [`Registry::sample_columns`] flattens the registry into named integer
//! columns: every registered counter and gauge is one column, every
//! histogram expands into its cumulative buckets plus `sum`/`count` — so
//! windowed quantiles can be recovered from row deltas with
//! [`buckets_from_cumulative`] and [`crate::quantile_from_buckets`]. The
//! server's health plane owns the retention of sampled rows.

use crate::{Instrument, Registry, TOTAL_BUCKETS};

/// Version of the sampled-row layout, stamped into the history JSONL header
/// and the `tdo_build_info` labels; bump on any layout change.
pub const SERIES_SCHEMA_VERSION: u64 = 1;

/// How a column reads across rows: a counter is cumulative (consumers
/// difference consecutive rows), a gauge is a point-in-time level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColKind {
    /// Monotone cumulative count (includes histogram buckets/sum/count).
    Counter,
    /// Point-in-time level.
    Gauge,
}

/// One sampling column: its stable name and kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// `family{labels}` series name, suffixed `#bN`/`#sum`/`#count` for
    /// histogram expansions.
    pub name: String,
    /// Counter or gauge.
    pub kind: ColKind,
}

impl Registry {
    /// Samples every registered instrument whose series name passes `keep`
    /// into `(column, value)` pairs, in the registry's deterministic
    /// render order (sorted by family, then label set).
    ///
    /// Counters and gauges yield one column each; a histogram yields its
    /// `TOTAL_BUCKETS` *cumulative* bucket counts (`#b0`..`#b32`, the same
    /// `le`-cumulative form the exposition renders) then `#sum` and
    /// `#count`. Call once at startup for the schema and once per tick for
    /// values: registration is append-only, so as long as `keep` is pure
    /// the column list for a fixed registry population never changes.
    #[must_use]
    pub fn sample_columns(&self, keep: &dyn Fn(&str) -> bool) -> Vec<(Column, u64)> {
        let entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            (&entries[a].family, &entries[a].labels).cmp(&(&entries[b].family, &entries[b].labels))
        });
        let mut out = Vec::new();
        for &i in &order {
            let e = &entries[i];
            let name = format!("{}{}", e.family, crate::label_block(&e.labels, None));
            if !keep(&name) {
                continue;
            }
            let col = |suffix: &str, kind| Column { name: format!("{name}{suffix}"), kind };
            match &e.inst {
                Instrument::Counter(c) => out.push((col("", ColKind::Counter), c.get())),
                Instrument::Gauge(g) => out.push((col("", ColKind::Gauge), g.get())),
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (b, n) in snap.buckets.iter().enumerate() {
                        cum += n;
                        out.push((col(&format!("#b{b}"), ColKind::Counter), cum));
                    }
                    out.push((col("#sum", ColKind::Counter), snap.sum));
                    out.push((col("#count", ColKind::Counter), snap.count));
                }
            }
        }
        out
    }
}

/// Reassembles a histogram's per-bucket counts from `width` consecutive
/// cumulative-bucket columns (the `#b0..#b32` block a histogram expands
/// into), e.g. to feed [`crate::quantile_from_buckets`].
#[must_use]
pub fn buckets_from_cumulative(cum: &[u64]) -> [u64; TOTAL_BUCKETS] {
    let mut out = [0u64; TOTAL_BUCKETS];
    let mut prev = 0u64;
    for (i, slot) in out.iter_mut().enumerate() {
        let c = cum.get(i).copied().unwrap_or(prev);
        *slot = c.saturating_sub(prev);
        prev = c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_columns_expand_histograms_cumulatively() {
        let reg = Registry::new();
        let c = reg.counter("tdo_test_reqs_total", &[("endpoint", "run")], "Requests.");
        let g = reg.gauge("tdo_test_depth", &[], "Depth.");
        let h = reg.histogram("tdo_test_lat_us", &[], "Latency.");
        c.add(3);
        g.set(9);
        h.observe(3);
        h.observe(5);
        let cols = reg.sample_columns(&|_| true);
        assert_eq!(cols.len(), 2 + TOTAL_BUCKETS + 2);
        assert_eq!(cols[0].0.name, "tdo_test_depth");
        assert_eq!(cols[0].1, 9);
        let by_name = |n: &str| cols.iter().find(|(c, _)| c.name == n).expect(n).1;
        assert_eq!(by_name("tdo_test_lat_us#b2"), 1, "cumulative through le=4");
        assert_eq!(by_name("tdo_test_lat_us#b3"), 2);
        assert_eq!(by_name("tdo_test_lat_us#b32"), 2, "+Inf bucket is the total");
        assert_eq!(by_name("tdo_test_lat_us#count"), 2);
        assert_eq!(by_name("tdo_test_reqs_total{endpoint=\"run\"}"), 3);
        let filtered = reg.sample_columns(&|n| !n.contains("lat_us"));
        assert_eq!(filtered.len(), 2, "filter drops whole instruments");
        let cum: Vec<u64> =
            (0..TOTAL_BUCKETS).map(|b| by_name(&format!("tdo_test_lat_us#b{b}"))).collect();
        let per = buckets_from_cumulative(&cum);
        assert_eq!(per[2], 1);
        assert_eq!(per[3], 1);
        assert_eq!(per.iter().sum::<u64>(), 2);
    }
}

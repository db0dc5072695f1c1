//! The continuous health plane: periodic sampling of the server's metrics
//! registry into a retained [`Series`] ring, the `GET /metrics/history`
//! JSONL rendering, and the SLO/anomaly watchdog that turns sustained bad
//! windows into flight-recorder dumps.
//!
//! **Sampling model.** The column schema is captured once at bind time —
//! every registered counter/gauge/histogram whose series name passes
//! [`sampled`] — and never changes afterwards, so history rows are
//! fixed-width and byte-deterministic. A row is appended only when some
//! sampled value changed since the last row ("skip-if-unchanged"), and the
//! filter excludes everything a history scrape itself perturbs (the global
//! request counter, non-`run` endpoint counters/latencies, the flight
//! recorder's own counters, the uptime tick), so two scrapes of an idle
//! server return identical bytes.
//!
//! **Watchdog.** Each background tick converts the retained window into
//! per-row deltas ([`WatchRow`]) and evaluates four rules; a tripped rule
//! bumps `tdo_watchdog_trips_total{rule}` and fires the flight-dump path
//! with reason `slo_burn` (the SLO rule) or `anomaly` (everything else).
//!
//! | rule | trigger |
//! |---|---|
//! | `slo_burn` | ≥50% of short-window `/run` requests over the SLO bucket *and* ≥10% over the long window |
//! | `queue_depth` | queue ≥80% of capacity for 3 consecutive rows |
//! | `shed_rate` | ≥3 requests shed inside the short window |
//! | `arm_switch_storm` | ≥8 policy arm switches inside the short window |

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tdo_metrics::series::{ColKind, Column, Series, SERIES_SCHEMA_VERSION};
use tdo_metrics::{Gauge, Histogram, Registry};
use tdo_obs::json::escape;

use crate::relock;

/// Retained history rows; at the default ~100 ms cadence this is ~25 s of
/// change-bearing samples (idle periods append nothing).
pub const HISTORY_CAPACITY: usize = 256;

/// Every `rule` label on `tdo_watchdog_trips_total`.
pub const WATCHDOG_RULES: [&str; 4] = ["slo_burn", "queue_depth", "shed_rate", "arm_switch_storm"];

/// Ticks a tripped rule stays quiet before it may trip again — one dump
/// per sustained incident, not one per tick.
pub const WATCHDOG_COOLDOWN_TICKS: u64 = 100;

/// Rows in the watchdog's short (burst) window.
const SHORT_WINDOW: usize = 5;
/// Rows in the watchdog's long (burn) window.
const LONG_WINDOW: usize = 50;

/// The flight-dump reason a tripped rule maps to.
#[must_use]
pub fn dump_reason(rule: &str) -> &'static str {
    if rule == "slo_burn" {
        "slo_burn"
    } else {
        "anomaly"
    }
}

/// Whether a metrics series is retained in history. Excluded: anything a
/// history/health scrape itself moves (else idle scrapes would never be
/// byte-identical), the flight recorder's bookkeeping, and the static
/// build-info gauge.
#[must_use]
pub fn sampled(name: &str) -> bool {
    if name.starts_with("tdo_obs_") || name.starts_with("tdo_build_info") {
        return false;
    }
    if name == "tdo_server_requests_total" || name == "tdo_server_uptime_ticks" {
        return false;
    }
    if (name.starts_with("tdo_server_endpoint_requests_total")
        || name.starts_with("tdo_server_request_latency_us"))
        && !name.contains("endpoint=\"run\"")
    {
        return false;
    }
    true
}

/// One delta row of the watchdog's inputs: windowed `/run` traffic, how
/// much of it breached the SLO bucket, and the anomaly counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WatchRow {
    /// `/run` requests completed in the row's window.
    pub run_count: u64,
    /// Of those, requests slower than the SLO bucket.
    pub run_slow: u64,
    /// Queue depth at sample time (gauge, not a delta).
    pub queue_depth: u64,
    /// Requests shed in the window.
    pub shed: u64,
    /// Policy arm switches in the window.
    pub arm_switches: u64,
}

/// The rule engine. Pure over its inputs: `evaluate` depends only on the
/// rows, the tick and its own cooldown state, so tests drive it with
/// synthetic rows.
pub struct Watchdog {
    queue_cap: u64,
    cooldown_until: [u64; WATCHDOG_RULES.len()],
}

impl Watchdog {
    /// A watchdog for a run queue of the given capacity.
    #[must_use]
    pub fn new(queue_cap: u64) -> Watchdog {
        Watchdog { queue_cap, cooldown_until: [0; WATCHDOG_RULES.len()] }
    }

    /// Evaluates every rule over the delta rows (oldest first) and returns
    /// the rules that trip at `tick`, cooldowns applied.
    pub fn evaluate(&mut self, tick: u64, rows: &[WatchRow]) -> Vec<&'static str> {
        let short = &rows[rows.len().saturating_sub(SHORT_WINDOW)..];
        let long = &rows[rows.len().saturating_sub(LONG_WINDOW)..];
        let sum = |rows: &[WatchRow], f: fn(&WatchRow) -> u64| rows.iter().map(f).sum::<u64>();
        let burn_milli = |rows: &[WatchRow]| {
            (sum(rows, |r| r.run_slow) * 1000).checked_div(sum(rows, |r| r.run_count)).unwrap_or(0)
        };
        let fired = [
            // slo_burn: the burst window is badly over SLO *and* the long
            // window confirms it is not one stray request.
            sum(short, |r| r.run_count) >= 4 && burn_milli(short) >= 500 && burn_milli(long) >= 100,
            // queue_depth: sustained ≥80% occupancy of the bounded queue.
            self.queue_cap > 0
                && rows.len() >= 3
                && rows[rows.len() - 3..].iter().all(|r| r.queue_depth * 10 >= self.queue_cap * 8),
            // shed_rate: admission control is actively dropping load.
            sum(short, |r| r.shed) >= 3,
            // arm_switch_storm: the policy controller is thrashing.
            sum(short, |r| r.arm_switches) >= 8,
        ];
        let mut trips = Vec::new();
        for (i, rule) in WATCHDOG_RULES.iter().enumerate() {
            if fired[i] && tick >= self.cooldown_until[i] {
                self.cooldown_until[i] = tick + WATCHDOG_COOLDOWN_TICKS;
                trips.push(*rule);
            }
        }
        trips
    }
}

/// Column indices the watchdog reads, resolved against the schema once.
struct WatchColumns {
    run_count: Option<usize>,
    /// Cumulative run-latency bucket at the SLO boundary; `run_slow` is
    /// `Δcount − Δbucket`. `None` when the SLO is disabled.
    run_slo_bucket: Option<usize>,
    queue_depth: Option<usize>,
    shed: Option<usize>,
    arm_switches: Option<usize>,
}

/// The sampler + retained series + watchdog, owned by the server state.
/// Single-writer: only the accept thread samples (background tick and
/// history-scrape pre-sample both run there).
pub struct HealthPlane {
    series: Series,
    columns: Vec<Column>,
    index: HashMap<String, usize>,
    kinds: Vec<ColKind>,
    ticks: AtomicU64,
    last: Mutex<Option<Vec<u64>>>,
    watchdog: Mutex<Watchdog>,
    watch: WatchColumns,
}

impl HealthPlane {
    /// Captures the column schema from a fully-populated registry. Call
    /// after every instrument the server will ever sample is registered.
    #[must_use]
    pub fn new(reg: &Registry, slo_us: u64, queue_cap: u64) -> HealthPlane {
        let columns: Vec<Column> =
            reg.sample_columns(&|name| sampled(name)).into_iter().map(|(c, _)| c).collect();
        let index: HashMap<String, usize> =
            columns.iter().enumerate().map(|(i, c)| (c.name.clone(), i)).collect();
        let kinds: Vec<ColKind> = columns.iter().map(|c| c.kind).collect();
        let run_lat = "tdo_server_request_latency_us{endpoint=\"run\"}";
        let col = |name: &str| index.get(name).copied();
        let watch = WatchColumns {
            run_count: col(&format!("{run_lat}#count")),
            run_slo_bucket: (slo_us > 0)
                .then(|| col(&format!("{run_lat}#b{}", Histogram::bucket_index(slo_us))))
                .flatten(),
            queue_depth: col("tdo_server_queue_depth"),
            shed: col("tdo_server_shed_total"),
            arm_switches: col("tdo_arm_switches_total"),
        };
        HealthPlane {
            series: Series::new(HISTORY_CAPACITY, columns.len()),
            columns,
            index,
            kinds,
            ticks: AtomicU64::new(0),
            last: Mutex::new(None),
            watchdog: Mutex::new(Watchdog::new(queue_cap)),
            watch,
        }
    }

    /// Background ticks so far (the logical timestamp of history rows).
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Samples the registry and appends a row stamped with the current
    /// tick — only if some sampled value changed since the last row.
    /// Accept-thread only (single writer).
    pub fn sample(&self, reg: &Registry) {
        let mut values = vec![0u64; self.columns.len()];
        for (col, v) in reg.sample_columns(&|name| sampled(name)) {
            // Instruments registered after bind (e.g. lazily-created fault
            // counters) are not in the schema and are skipped: the row
            // width is part of the history contract.
            if let Some(&i) = self.index.get(&col.name) {
                values[i] = v;
            }
        }
        let mut last = relock(&self.last);
        if last.as_ref() == Some(&values) {
            return;
        }
        self.series.push(self.ticks(), &values);
        *last = Some(values);
    }

    /// One background tick: advance the clock, refresh the uptime gauge,
    /// sample, and run the watchdog over the retained window. Returns the
    /// tripped rules.
    pub fn tick(&self, reg: &Registry, uptime: &Gauge) -> Vec<&'static str> {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        uptime.set(tick);
        self.sample(reg);
        let rows = self.watch_rows();
        relock(&self.watchdog).evaluate(tick, &rows)
    }

    /// The retained window as watchdog delta rows, oldest first.
    fn watch_rows(&self) -> Vec<WatchRow> {
        let snap = self.series.snapshot();
        let deltas = snap.deltas(&self.kinds);
        let get = |row: &tdo_metrics::series::SeriesRow, col: Option<usize>| {
            col.map_or(0, |i| row.values[i])
        };
        deltas
            .iter()
            .map(|row| {
                let count = get(row, self.watch.run_count);
                let within = get(row, self.watch.run_slo_bucket);
                WatchRow {
                    run_count: count,
                    run_slow: if self.watch.run_slo_bucket.is_some() {
                        count.saturating_sub(within)
                    } else {
                        0
                    },
                    queue_depth: get(row, self.watch.queue_depth),
                    shed: get(row, self.watch.shed),
                    arm_switches: get(row, self.watch.arm_switches),
                }
            })
            .collect()
    }

    /// Renders the last `window` rows (0 = everything retained) as JSONL:
    /// one header object naming the schema, then one object per row with
    /// the raw sampled values (clients difference counters themselves).
    #[must_use]
    pub fn render_history(&self, window: usize) -> String {
        let snap = self.series.snapshot().window(window);
        let mut out = String::with_capacity(256 + snap.rows.len() * (self.columns.len() * 8 + 32));
        out.push_str(&format!(
            "{{\"series_schema\":{SERIES_SCHEMA_VERSION},\"rows\":{},\"columns\":[",
            snap.rows.len()
        ));
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", escape(&c.name)));
        }
        out.push_str("],\"kinds\":[");
        for (i, k) in self.kinds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(match k {
                ColKind::Counter => "\"counter\"",
                ColKind::Gauge => "\"gauge\"",
            });
        }
        out.push_str("]}\n");
        for row in &snap.rows {
            out.push_str(&format!("{{\"tick\":{},\"values\":[", row.tick));
            for (i, v) in row.values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push_str("]}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_burn_needs_both_windows_over_threshold() {
        let mut w = Watchdog::new(16);
        // Short burst entirely over SLO, long window quiet before it.
        let mut rows = vec![WatchRow { run_count: 10, ..WatchRow::default() }; 45];
        rows.extend(vec![WatchRow { run_count: 2, run_slow: 2, ..WatchRow::default() }; 5]);
        // short burn 1000‰, long burn 10/460 ≈ 21‰ < 100‰: no trip.
        assert!(w.evaluate(1, &rows).is_empty(), "long window must confirm the burn");
        let sustained = vec![WatchRow { run_count: 2, run_slow: 1, ..WatchRow::default() }; 50];
        assert_eq!(w.evaluate(2, &sustained), vec!["slo_burn"]);
    }

    #[test]
    fn queue_shed_and_storm_rules_trip_as_anomalies() {
        let mut w = Watchdog::new(10);
        let full = vec![WatchRow { queue_depth: 8, ..WatchRow::default() }; 3];
        assert_eq!(w.evaluate(1, &full), vec!["queue_depth"]);
        assert_eq!(dump_reason("queue_depth"), "anomaly");
        assert_eq!(dump_reason("slo_burn"), "slo_burn");

        let mut w = Watchdog::new(10);
        let shedding = vec![WatchRow { shed: 2, ..WatchRow::default() }; 2];
        assert_eq!(w.evaluate(1, &shedding), vec!["shed_rate"]);

        let mut w = Watchdog::new(10);
        let storm = vec![WatchRow { arm_switches: 8, ..WatchRow::default() }];
        assert_eq!(w.evaluate(1, &storm), vec!["arm_switch_storm"]);
        // Partial occupancy, light shedding, light switching: quiet.
        let mut w = Watchdog::new(10);
        let calm =
            vec![WatchRow { queue_depth: 7, shed: 2, arm_switches: 7, ..WatchRow::default() }];
        assert!(w.evaluate(1, &calm).is_empty());
    }

    #[test]
    fn cooldown_suppresses_repeat_trips_until_it_expires() {
        let mut w = Watchdog::new(10);
        let shedding = vec![WatchRow { shed: 5, ..WatchRow::default() }; 1];
        assert_eq!(w.evaluate(10, &shedding), vec!["shed_rate"]);
        assert!(w.evaluate(11, &shedding).is_empty(), "cooling down");
        assert!(w.evaluate(10 + WATCHDOG_COOLDOWN_TICKS - 1, &shedding).is_empty());
        assert_eq!(w.evaluate(10 + WATCHDOG_COOLDOWN_TICKS, &shedding), vec!["shed_rate"]);
    }

    #[test]
    fn sampling_filter_excludes_observer_effect_series() {
        assert!(!sampled("tdo_server_requests_total"));
        assert!(!sampled("tdo_server_uptime_ticks"));
        assert!(!sampled("tdo_obs_flight_recorded_total"));
        assert!(!sampled("tdo_build_info{result_schema=\"3\"}"));
        assert!(!sampled("tdo_server_endpoint_requests_total{endpoint=\"metrics\"}"));
        assert!(!sampled("tdo_server_request_latency_us{endpoint=\"health\"}"));
        assert!(sampled("tdo_server_endpoint_requests_total{endpoint=\"run\"}"));
        assert!(sampled("tdo_server_request_latency_us{endpoint=\"run\"}"));
        assert!(sampled("tdo_server_queue_depth"));
        assert!(sampled("tdo_arm_switches_total"));
        assert!(sampled("tdo_sim_sims_total"));
    }
}

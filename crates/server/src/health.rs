//! The continuous health plane: periodic sampling of the server's metrics
//! registry into a bounded history of rows, the `GET /metrics/history`
//! JSONL rendering, and the SLO/anomaly watchdog that turns sustained bad
//! windows into flight-recorder dumps.
//!
//! **Clock.** The server's `tdo-health` thread calls [`HealthPlane::tick`]
//! every 100 ms, whatever the accept loop is doing. The tick count lives
//! only in the `tdo_server_uptime_ticks` gauge: it stamps history rows and
//! times the watchdog cooldowns and admission's degraded window.
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
//! **One lock.** Two threads sample: the ticker, and the accept thread's
//! pre-sample for a history scrape. One mutex guards the retained rows,
//! the watchdog's window and the watchdog; a sample is taken, compared and
//! appended under it, so rows stay in sample order.
//!
//! **Watchdog.** Every appended row after the first also appends one
//! [`WatchRow`] — five column deltas against the previous row — to the
//! watchdog's window of the last `LONG_WINDOW` rows, so a tick costs the
//! same however much history is retained. Each tick evaluates four rules
//! over that window; a tripped rule bumps `tdo_watchdog_trips_total{rule}`
//! and fires the flight-dump path with reason `slo_burn` (the SLO rule) or
//! `anomaly` (everything else).
//!
//! | rule | trigger |
//! |---|---|
//! | `slo_burn` | ≥50% of short-window `/run` requests over the SLO bucket *and* ≥10% over the long window |
//! | `queue_depth` | queue ≥80% of capacity for 3 consecutive rows |
//! | `shed_rate` | ≥3 requests shed inside the short window |
//! | `arm_switch_storm` | ≥8 policy arm switches inside the short window |

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use tdo_metrics::series::{ColKind, Column, SERIES_SCHEMA_VERSION};
use tdo_metrics::{Gauge, Histogram, Registry};
use tdo_obs::json::escape;

use crate::relock;

/// Retained history rows. A 100 ms tick appends at most one row (none
/// when nothing changed), so unless history scrapes add rows between
/// ticks they span at least the last 25.6 s. A 4-shard daemon samples 699
/// columns: ~1.4 MB at full history.
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

/// Everything behind the plane's one lock.
struct Retained {
    /// `(tick, values)` rows, oldest first, at most [`HISTORY_CAPACITY`];
    /// the newest row is the last sample.
    rows: VecDeque<(u64, Vec<u64>)>,
    /// The watchdog's inputs, one per appended row after the first; the
    /// last `LONG_WINDOW` are kept.
    window: VecDeque<WatchRow>,
    watchdog: Watchdog,
}

/// The sampler, retained rows and watchdog, owned by the server state.
pub struct HealthPlane {
    columns: Vec<Column>,
    index: HashMap<String, usize>,
    watch: WatchColumns,
    retained: Mutex<Retained>,
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
        let retained = Mutex::new(Retained {
            rows: VecDeque::with_capacity(HISTORY_CAPACITY),
            window: VecDeque::with_capacity(LONG_WINDOW),
            watchdog: Watchdog::new(queue_cap),
        });
        HealthPlane { columns, index, watch, retained }
    }

    /// Samples the registry and appends a row stamped with the current
    /// `uptime` tick — only if some sampled value changed since the last
    /// row.
    pub fn sample(&self, reg: &Registry, uptime: &Gauge) {
        let mut retained = relock(&self.retained);
        self.append(&mut retained, reg, uptime.get());
    }

    /// One background tick: advance `uptime`, sample, and run the watchdog
    /// over its window. Returns the tripped rules.
    pub fn tick(&self, reg: &Registry, uptime: &Gauge) -> Vec<&'static str> {
        let mut retained = relock(&self.retained);
        let tick = uptime.get() + 1;
        uptime.set(tick);
        self.append(&mut retained, reg, tick);
        let Retained { window, watchdog, .. } = &mut *retained;
        watchdog.evaluate(tick, window.make_contiguous())
    }

    /// Samples under the lock; appends the row (and its watchdog delta)
    /// unless nothing changed.
    fn append(&self, retained: &mut Retained, reg: &Registry, tick: u64) {
        let mut values = vec![0u64; self.columns.len()];
        for (col, v) in reg.sample_columns(&|name| sampled(name)) {
            // Instruments registered after bind (e.g. lazily-created fault
            // counters) are not in the schema and are skipped: the row
            // width is part of the history contract.
            if let Some(&i) = self.index.get(&col.name) {
                values[i] = v;
            }
        }
        if let Some((_, prev)) = retained.rows.back() {
            if *prev == values {
                return;
            }
            let row = self.watch_row(prev, &values);
            if retained.window.len() == LONG_WINDOW {
                retained.window.pop_front();
            }
            retained.window.push_back(row);
        }
        if retained.rows.len() == HISTORY_CAPACITY {
            retained.rows.pop_front();
        }
        retained.rows.push_back((tick, values));
    }

    /// The watchdog's delta row between two consecutive retained rows:
    /// counters as increments (a reset reads as 0), gauges as the later
    /// level.
    fn watch_row(&self, prev: &[u64], cur: &[u64]) -> WatchRow {
        let delta = |col: Option<usize>| {
            col.map_or(0, |i| match self.columns[i].kind {
                ColKind::Counter => cur[i].saturating_sub(prev[i]),
                ColKind::Gauge => cur[i],
            })
        };
        let run_count = delta(self.watch.run_count);
        WatchRow {
            run_count,
            run_slow: self
                .watch
                .run_slo_bucket
                .map_or(0, |b| run_count.saturating_sub(delta(Some(b)))),
            queue_depth: delta(self.watch.queue_depth),
            shed: delta(self.watch.shed),
            arm_switches: delta(self.watch.arm_switches),
        }
    }

    /// Renders the last `window` rows (0 = everything retained) as JSONL:
    /// one header object naming the schema, then one object per row with
    /// the raw sampled values (clients difference counters themselves).
    #[must_use]
    pub fn render_history(&self, window: usize) -> String {
        let retained = relock(&self.retained);
        let n = retained.rows.len();
        let keep = if window == 0 { n } else { window.min(n) };
        let mut out = String::with_capacity(256 + keep * (self.columns.len() * 8 + 32));
        out.push_str(&format!(
            "{{\"series_schema\":{SERIES_SCHEMA_VERSION},\"rows\":{keep},\"columns\":["
        ));
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", escape(&c.name)));
        }
        out.push_str("],\"kinds\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(match c.kind {
                ColKind::Counter => "\"counter\"",
                ColKind::Gauge => "\"gauge\"",
            });
        }
        out.push_str("]}\n");
        for (tick, values) in retained.rows.range(n - keep..) {
            out.push_str(&format!("{{\"tick\":{tick},\"values\":["));
            for (i, v) in values.iter().enumerate() {
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
    use std::collections::BTreeSet;

    use tdo_obs::json::{self, Value};
    use tdo_rand::Rng;

    use super::*;

    /// Parses `render_history(0)` back into the schema and the
    /// `(tick, values)` rows, oldest first.
    fn history(plane: &HealthPlane) -> (Vec<Column>, Vec<(u64, Vec<u64>)>) {
        let text = plane.render_history(0);
        let mut lines = text.lines();
        let header = json::parse(lines.next().expect("header")).expect("header parses");
        let strings = |key| -> Vec<String> {
            let items = json::get(&header, key).and_then(Value::as_array).expect(key);
            items.iter().map(|v| v.as_str().expect("string").to_string()).collect()
        };
        let kinds = strings("kinds").into_iter().map(|k| match k.as_str() {
            "gauge" => ColKind::Gauge,
            _ => ColKind::Counter,
        });
        let columns =
            strings("columns").into_iter().zip(kinds).map(|(name, kind)| Column { name, kind });
        let rows = lines
            .map(|line| {
                let row = json::parse(line).expect("row parses");
                let tick = json::get(&row, "tick").and_then(Value::as_u64).expect("tick");
                let values = json::get(&row, "values").and_then(Value::as_array).expect("values");
                (tick, values.iter().map(|v| v.as_u64().expect("integer")).collect())
            })
            .collect();
        (columns.collect(), rows)
    }

    #[test]
    fn ring_retains_the_last_capacity_rows_in_order() {
        let reg = Registry::new();
        let events = reg.counter("tdo_test_events_total", &[], "Events.");
        let uptime = Gauge::new();
        let plane = HealthPlane::new(&reg, 0, 16);
        let n = HISTORY_CAPACITY as u64 + 4;
        for _ in 0..n {
            events.inc();
            plane.tick(&reg, &uptime);
        }
        plane.tick(&reg, &uptime); // unchanged: appends nothing
        let (_, rows) = history(&plane);
        assert_eq!(rows.len(), HISTORY_CAPACITY);
        assert_eq!(rows[0], (5, vec![5]), "the oldest four rows were evicted");
        assert_eq!(rows.last(), Some(&(n, vec![n])));
        assert!(rows.windows(2).all(|w| w[0].0 + 1 == w[1].0), "oldest first, no gaps");
        let narrow = plane.render_history(2);
        assert_eq!(narrow.lines().count(), 3, "header + two rows");
        assert_eq!(
            narrow.lines().nth(1),
            Some(format!("{{\"tick\":{0},\"values\":[{0}]}}", n - 1).as_str())
        );
        assert_eq!(plane.render_history(0), plane.render_history(2 * HISTORY_CAPACITY));
    }

    /// The watchdog rows a full recompute over the rendered history gives
    /// (what every tick computed before the window was kept incrementally).
    fn recomputed_window(plane: &HealthPlane, slo_bucket: usize) -> Vec<WatchRow> {
        let (columns, rows) = history(plane);
        let run = "tdo_server_request_latency_us{endpoint=\"run\"}";
        let at = |name: &str| columns.iter().position(|c| c.name == name).expect(name);
        let (count, within) = (at(&format!("{run}#count")), at(&format!("{run}#b{slo_bucket}")));
        let (queue, shed, switches) = (
            at("tdo_server_queue_depth"),
            at("tdo_server_shed_total"),
            at("tdo_arm_switches_total"),
        );
        rows.windows(2)
            .map(|w| {
                let delta = |i: usize| match columns[i].kind {
                    ColKind::Counter => w[1].1[i].saturating_sub(w[0].1[i]),
                    ColKind::Gauge => w[1].1[i],
                };
                WatchRow {
                    run_count: delta(count),
                    run_slow: delta(count).saturating_sub(delta(within)),
                    queue_depth: delta(queue),
                    shed: delta(shed),
                    arm_switches: delta(switches),
                }
            })
            .collect()
    }

    #[test]
    fn watchdog_window_trips_as_a_full_recompute_over_the_ring_does() {
        let reg = Registry::new();
        let run_lat = reg.histogram("tdo_server_request_latency_us", &[("endpoint", "run")], "L.");
        let queue = reg.gauge("tdo_server_queue_depth", &[], "Depth.");
        let shed = reg.counter("tdo_server_shed_total", &[], "Shed.");
        let switches = reg.counter("tdo_arm_switches_total", &[], "Switches.");
        let unwatched = reg.counter("tdo_test_events_total", &[], "Events.");
        let (slo_us, queue_cap) = (1_000, 8);
        let slo_bucket = Histogram::bucket_index(slo_us);
        let plane = HealthPlane::new(&reg, slo_us, queue_cap);
        let mut reference = Watchdog::new(queue_cap);
        let uptime = Gauge::new();
        let mut rng = Rng::new(0x5eed);
        let mut tripped = BTreeSet::new();
        for step in 0..400u64 {
            // Rotating 40-tick phases, each leaning on one rule; a quarter
            // of the ticks change nothing, and a fifth of the others
            // pre-sample as a history scrape does.
            let phase = (step / 40) % 4;
            if rng.gen_index(4) > 0 {
                for _ in 0..rng.gen_index(4) {
                    let slow = rng.gen_bool(if phase == 1 { 0.9 } else { 0.05 });
                    run_lat.observe(if slow { 50_000 } else { 100 });
                }
                if rng.gen_bool(0.2) {
                    plane.sample(&reg, &uptime);
                }
                let depth = if phase == 2 { 6 + rng.gen_index(3) } else { rng.gen_index(5) };
                queue.set(depth as u64);
                shed.add(if phase == 0 { rng.gen_index(2) as u64 } else { 0 });
                switches.add(if phase == 3 { rng.gen_index(4) as u64 } else { 0 });
                unwatched.add(u64::from(rng.gen_bool(0.3)));
            }
            let trips = plane.tick(&reg, &uptime);
            let expected = reference.evaluate(uptime.get(), &recomputed_window(&plane, slo_bucket));
            assert_eq!(trips, expected, "tick {}", uptime.get());
            tripped.extend(trips);
        }
        let (_, rows) = history(&plane);
        assert_eq!(rows.len(), HISTORY_CAPACITY);
        assert!(rows[0].0 > 1, "the ring wrapped: the oldest rows were evicted");
        assert_eq!(relock(&plane.retained).window.len(), LONG_WINDOW, "the window is bounded");
        assert_eq!(tripped.len(), WATCHDOG_RULES.len(), "every rule tripped: {tripped:?}");
    }

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

//! Timeline reports derived from a recorded event log: the per-group
//! repair-convergence table and the windowed performance series shown by
//! `tdo timeline`.
//!
//! Everything here is computed from the cycle-stamped events alone (see
//! [`crate::machine::run_traced`]), so the rendered text inherits the log's
//! byte-determinism.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tdo_obs::{Event, LedgerRecord};

/// Convergence facts for one prefetch group, accumulated over the run.
#[derive(Clone, Debug)]
pub struct GroupRow {
    /// Group key: the representative load's original PC.
    pub group: u64,
    /// Group kind name (`stride`/`pointer`).
    pub kind: &'static str,
    /// Trace ids that carried the group over its lifetime.
    pub traces: Vec<u32>,
    /// Initial prefetch distance.
    pub initial_distance: u64,
    /// Distance after the last repair decision.
    pub final_distance: u64,
    /// Times the group's prefetches were (re-)inserted.
    pub inserts: u64,
    /// Repair decisions run for the group (including holds).
    pub repairs: u64,
    /// Repair decisions that actually changed the distance.
    pub distance_changes: u64,
    /// Cycle of the first insertion.
    pub inserted_at: u64,
    /// Cycle of the last distance change (`inserted_at` when none).
    pub last_change_at: u64,
    /// Back-outs of traces that carried this group.
    pub backouts: u64,
}

impl GroupRow {
    /// Cycles from insertion to the last distance change.
    #[must_use]
    pub fn cycles_to_converge(&self) -> u64 {
        self.last_change_at.saturating_sub(self.inserted_at)
    }
}

/// One windowed performance sample (integer milli-units).
#[derive(Clone, Copy, Debug)]
pub struct SampleRow {
    /// Original-equivalent instructions committed at sample time.
    pub insts: u64,
    /// Simulated cycle of the sample.
    pub cycle: u64,
    /// Cycles elapsed in the window.
    pub dcycles: u64,
    /// Window IPC ×1000.
    pub ipc_milli: u64,
    /// Window L1 load-miss rate ×1000.
    pub l1_miss_milli: u64,
    /// Window beyond-L2 service rate ×1000.
    pub l2_miss_milli: u64,
    /// Window prefetch accuracy ×1000.
    pub pf_acc_milli: u64,
}

/// One policy-controller arm switch, with the window metrics that
/// triggered it.
#[derive(Clone, Copy, Debug)]
pub struct ArmSwitchRow {
    /// Simulated cycle of the switch.
    pub cycle: u64,
    /// Arm being replaced (`none` when the controller had no arm yet).
    pub from: &'static str,
    /// Arm being installed.
    pub to: &'static str,
    /// IPC ×1000 of the epoch window that triggered the decision.
    pub ipc_milli: u64,
    /// L1 misses per kilo-instruction ×1000 of the same window.
    pub mpki_milli: u64,
}

/// A digest of one run's event log.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Per-group convergence rows, ordered by group PC.
    pub groups: Vec<GroupRow>,
    /// Windowed samples in emission order.
    pub samples: Vec<SampleRow>,
    /// Policy-controller arm switches in emission order.
    pub arm_switches: Vec<ArmSwitchRow>,
    /// Traces installed over the run.
    pub traces_installed: u64,
    /// Traces backed out over the run.
    pub backouts: u64,
    /// Loads matured over the run.
    pub matured: u64,
    /// Cycle of the last recorded event (closes the final occupancy span).
    pub last_cycle: u64,
}

impl Timeline {
    /// Digests a recorded `(cycle, event)` log.
    #[must_use]
    pub fn from_events(events: &[(u64, Event)]) -> Timeline {
        let mut groups: BTreeMap<u64, GroupRow> = BTreeMap::new();
        let mut trace_backouts: BTreeMap<u32, u64> = BTreeMap::new();
        let mut out = Timeline::default();
        for &(cycle, ev) in events {
            out.last_cycle = out.last_cycle.max(cycle);
            match ev {
                Event::TraceInstalled { .. } => out.traces_installed += 1,
                Event::TraceBackedOut { trace, .. } => {
                    out.backouts += 1;
                    *trace_backouts.entry(trace).or_insert(0) += 1;
                }
                Event::LoadMatured { .. } => out.matured += 1,
                Event::PrefetchInserted { trace, group, kind, distance, .. } => {
                    let row = groups.entry(group).or_insert_with(|| GroupRow {
                        group,
                        kind: kind.name(),
                        traces: Vec::new(),
                        initial_distance: u64::from(distance),
                        final_distance: u64::from(distance),
                        inserts: 0,
                        repairs: 0,
                        distance_changes: 0,
                        inserted_at: cycle,
                        last_change_at: cycle,
                        backouts: 0,
                    });
                    row.inserts += 1;
                    if !row.traces.contains(&trace) {
                        row.traces.push(trace);
                    }
                }
                Event::DistanceRepaired { trace, record: LedgerRecord { group, old, new, .. } } => {
                    let row = groups.entry(group).or_insert_with(|| GroupRow {
                        group,
                        kind: "stride",
                        traces: Vec::new(),
                        initial_distance: old,
                        final_distance: old,
                        inserts: 0,
                        repairs: 0,
                        distance_changes: 0,
                        inserted_at: cycle,
                        last_change_at: cycle,
                        backouts: 0,
                    });
                    row.repairs += 1;
                    row.final_distance = new;
                    if !row.traces.contains(&trace) {
                        row.traces.push(trace);
                    }
                    if new != old {
                        row.distance_changes += 1;
                        row.last_change_at = cycle;
                    }
                }
                Event::Sample {
                    insts,
                    dcycles,
                    ipc_milli,
                    l1_miss_milli,
                    l2_miss_milli,
                    pf_acc_milli,
                } => out.samples.push(SampleRow {
                    insts,
                    cycle,
                    dcycles,
                    ipc_milli,
                    l1_miss_milli,
                    l2_miss_milli,
                    pf_acc_milli,
                }),
                Event::ArmSwitch {
                    from,
                    to,
                    record: LedgerRecord { evidence_a: ipc_milli, evidence_b: mpki_milli, .. },
                } => {
                    out.arm_switches.push(ArmSwitchRow { cycle, from, to, ipc_milli, mpki_milli });
                }
                _ => {}
            }
        }
        let mut rows: Vec<GroupRow> = groups.into_values().collect();
        for row in &mut rows {
            row.backouts =
                row.traces.iter().map(|t| trace_backouts.get(t).copied().unwrap_or(0)).sum();
        }
        out.groups = rows;
        out
    }

    /// Whether any group's distance actually moved — the self-repairing
    /// behaviour the timeline exists to show.
    #[must_use]
    pub fn any_distance_change(&self) -> bool {
        self.groups.iter().any(|g| g.distance_changes > 0)
    }

    /// Renders the repair-convergence table.
    #[must_use]
    pub fn render_convergence(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<12} {:<7} {:>5} {:>7} {:>7} {:>8} {:>9} {:>12} {:>8}",
            "group",
            "kind",
            "trace",
            "inserts",
            "repairs",
            "d0->d",
            "changes",
            "conv_cycles",
            "backouts"
        );
        for g in &self.groups {
            let trace = g.traces.last().map_or_else(|| "-".into(), |t| t.to_string());
            let _ = writeln!(
                s,
                "{:<#12x} {:<7} {:>5} {:>7} {:>7} {:>8} {:>9} {:>12} {:>8}",
                g.group,
                g.kind,
                trace,
                g.inserts,
                g.repairs,
                format!("{}->{}", g.initial_distance, g.final_distance),
                g.distance_changes,
                g.cycles_to_converge(),
                g.backouts,
            );
        }
        if self.groups.is_empty() {
            s.push_str("(no prefetch groups were inserted)\n");
        }
        let _ = writeln!(
            s,
            "traces installed: {}   backouts: {}   loads matured: {}",
            self.traces_installed, self.backouts, self.matured
        );
        s
    }

    /// Renders the windowed performance series. Milli-unit rates print as
    /// integer-derived fixed-point decimals so the text stays deterministic.
    #[must_use]
    pub fn render_samples(&self) -> String {
        fn milli(v: u64) -> String {
            format!("{}.{:03}", v / 1000, v % 1000)
        }
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>12} {:>12} {:>9} {:>7} {:>8} {:>8} {:>7}",
            "insts", "cycle", "dcycles", "ipc", "l1_miss", "l2_miss", "pf_acc"
        );
        for r in &self.samples {
            let _ = writeln!(
                s,
                "{:>12} {:>12} {:>9} {:>7} {:>8} {:>8} {:>7}",
                r.insts,
                r.cycle,
                r.dcycles,
                milli(r.ipc_milli),
                milli(r.l1_miss_milli),
                milli(r.l2_miss_milli),
                milli(r.pf_acc_milli),
            );
        }
        if self.samples.is_empty() {
            s.push_str("(no samples; run was shorter than one sample window)\n");
        }
        s
    }

    /// Cycles each prefetcher arm was installed, in order of first
    /// appearance. The run is split into spans at each switch; the first
    /// span (from cycle 0) belongs to the first switch's `from` arm and
    /// the last span is closed at [`Timeline::last_cycle`]. Empty when the
    /// run recorded no switches.
    #[must_use]
    pub fn arm_occupancy(&self) -> Vec<(&'static str, u64)> {
        let mut spans: Vec<(&'static str, u64)> = Vec::new();
        let mut add = |arm: &'static str, cycles: u64| {
            if let Some(e) = spans.iter_mut().find(|(a, _)| *a == arm) {
                e.1 += cycles;
            } else {
                spans.push((arm, cycles));
            }
        };
        let mut span_start = 0u64;
        for sw in &self.arm_switches {
            add(sw.from, sw.cycle.saturating_sub(span_start));
            span_start = sw.cycle;
        }
        if let Some(last) = self.arm_switches.last() {
            add(last.to, self.last_cycle.saturating_sub(span_start));
        }
        spans
    }

    /// Renders the arm-switch log and the per-arm occupancy table.
    /// Callers should skip this section entirely when
    /// [`Timeline::arm_switches`] is empty (static-arm runs).
    #[must_use]
    pub fn render_arms(&self) -> String {
        fn milli(v: u64) -> String {
            format!("{}.{:03}", v / 1000, v % 1000)
        }
        let mut s = String::new();
        let _ = writeln!(s, "{:>12} {:<18} {:>7} {:>8}", "cycle", "switch", "ipc", "mpki");
        for sw in &self.arm_switches {
            let _ = writeln!(
                s,
                "{:>12} {:<18} {:>7} {:>8}",
                sw.cycle,
                format!("{} -> {}", sw.from, sw.to),
                milli(sw.ipc_milli),
                milli(sw.mpki_milli),
            );
        }
        let total: u64 = self.arm_occupancy().iter().map(|(_, c)| c).sum();
        let _ = writeln!(s, "arm occupancy over {total} recorded cycles:");
        for (arm, cycles) in self.arm_occupancy() {
            let pct_milli = (cycles * 100_000).checked_div(total).unwrap_or(0);
            let _ = writeln!(s, "  {:<10} {:>12} cycles  {:>7}%", arm, cycles, milli(pct_milli));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdo_obs::{LedgerKind, PrefetchGroupKind};

    /// A decision record for group 0x2000 with the given values.
    fn record(kind: LedgerKind, (old, new): (u64, u64), evidence: (u64, u64)) -> LedgerRecord {
        LedgerRecord {
            cycle: 0,
            kind,
            group: 0x2000,
            pc: 0x2000,
            old,
            new,
            evidence_a: evidence.0,
            evidence_b: evidence.1,
            margin_milli: 20,
            epoch: 3,
        }
    }

    #[test]
    fn digest_tracks_convergence_and_backouts() {
        let events = vec![
            (
                100,
                Event::PrefetchInserted {
                    trace: 1,
                    group: 0x2000,
                    kind: PrefetchGroupKind::Stride,
                    distance: 1,
                    prefetches: 2,
                },
            ),
            (
                500,
                Event::DistanceRepaired {
                    trace: 1,
                    record: record(LedgerKind::Repair, (1, 2), (900, 0)),
                },
            ),
            (
                900,
                Event::DistanceRepaired {
                    trace: 1,
                    record: record(LedgerKind::Repair, (2, 2), (880, 900)),
                },
            ),
            (1200, Event::TraceBackedOut { trace: 1, head: 0x1000 }),
        ];
        let t = Timeline::from_events(&events);
        assert_eq!(t.groups.len(), 1);
        let g = &t.groups[0];
        assert_eq!(g.inserts, 1);
        assert_eq!(g.repairs, 2);
        assert_eq!(g.distance_changes, 1);
        assert_eq!(g.final_distance, 2);
        assert_eq!(g.cycles_to_converge(), 400);
        assert_eq!(g.backouts, 1);
        assert!(t.any_distance_change());
        let table = t.render_convergence();
        assert!(table.contains("1->2"));
        assert!(table.contains("backouts: 1"));
    }

    #[test]
    fn arm_switches_digest_into_occupancy_spans() {
        let events = vec![
            (
                1000,
                Event::ArmSwitch {
                    from: "stream",
                    to: "nextline",
                    record: record(LedgerKind::ArmSwitch, (0, 1), (500, 42_000)),
                },
            ),
            (
                4000,
                Event::ArmSwitch {
                    from: "nextline",
                    to: "stream",
                    record: record(LedgerKind::ArmSwitch, (1, 0), (1200, 3_000)),
                },
            ),
            (5000, Event::LoadMatured { pc: 0x1000 }),
        ];
        let t = Timeline::from_events(&events);
        assert_eq!(t.arm_switches.len(), 2);
        assert_eq!(t.last_cycle, 5000);
        // Spans: stream [0,1000) + [4000,5000], nextline [1000,4000).
        assert_eq!(t.arm_occupancy(), vec![("stream", 2000), ("nextline", 3000)]);
        let table = t.render_arms();
        assert!(table.contains("stream -> nextline"), "{table}");
        assert!(table.contains("42.000"), "{table}");
        assert!(table.contains("arm occupancy over 5000 recorded cycles"), "{table}");
        assert!(table.contains("60.000%"), "{table}");
    }

    #[test]
    fn runs_without_switches_render_no_arm_section() {
        let t = Timeline::from_events(&[]);
        assert!(t.arm_switches.is_empty());
        assert!(t.arm_occupancy().is_empty());
    }

    #[test]
    fn sample_rendering_is_fixed_point() {
        let events = vec![(
            1000,
            Event::Sample {
                insts: 10_000,
                dcycles: 9000,
                ipc_milli: 1111,
                l1_miss_milli: 50,
                l2_miss_milli: 7,
                pf_acc_milli: 0,
            },
        )];
        let t = Timeline::from_events(&events);
        let s = t.render_samples();
        assert!(s.contains("1.111"));
        assert!(s.contains("0.050"));
        assert!(s.contains("0.007"));
    }
}

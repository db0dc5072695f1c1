//! The dynamic prefetch optimizer (paper §3.4–3.5): the code the helper
//! thread runs on a delinquent-load event.
//!
//! First event for a load → identify *all* delinquent loads in the trace,
//! classify them, and re-install the trace with prefetches spliced in.
//! Subsequent events for a prefetched, stride-predictable load → *repair*:
//! patch the distance bits of its group's prefetch instructions in place,
//! walking the distance up while the load's average access latency improves
//! and backing off when it worsens, within a repair budget of twice the
//! maximum distance (after which the load is *mature*).

use tdo_isa::{encode, patch_prefetch_distance, Inst, Reg, Word};
use tdo_obs::{
    Event, LedgerKind, LedgerRecord, LoadClassKind, PrefetchGroupKind, SharedLedger, SharedProbe,
};
use tdo_rand::FastMap;
use tdo_trident::{
    CodeSource, HotEvent, InstallError, Patch, PendingInstall, TraceId, TraceOp, Trident,
};

use crate::classify::{classify, LoadClass};
use crate::dlt::Dlt;
use crate::insert::{plan_insertion, GroupKind, InsertOptions};

/// Software prefetching modes evaluated in the paper (Figure 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwPrefetchMode {
    /// No software prefetching.
    Off,
    /// Prior-work baseline: per-load prefetches at an estimated fixed
    /// distance (eq. 2), no grouping, no repair.
    Basic,
    /// Adds same-object grouping and pointer dereferencing; distance still
    /// estimated once and fixed.
    WholeObject,
    /// The paper's contribution: whole-object insertion starting at
    /// distance 1, adaptively repaired.
    SelfRepair,
}

impl SwPrefetchMode {
    fn grouping(self) -> bool {
        matches!(self, SwPrefetchMode::WholeObject | SwPrefetchMode::SelfRepair)
    }

    fn repairs(self) -> bool {
        self == SwPrefetchMode::SelfRepair
    }
}

/// Optimizer configuration.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Mode.
    pub mode: SwPrefetchMode,
    /// Cache line size in bytes.
    pub line_bytes: i64,
    /// L1 hit latency (for average-access-latency computation).
    pub l1_latency: u64,
    /// Full memory access latency (numerator of the maximum distance).
    pub mem_latency: u64,
    /// Scratch registers for pointer dereferencing (dead by workload ABI).
    pub scratch_pool: Vec<Reg>,
    /// Use the estimated initial distance even in self-repair mode (the
    /// paper's §3.5.1 alternate strategy; found equivalent).
    pub estimated_initial_distance: bool,
}

impl OptimizerConfig {
    /// The paper's configuration for a given mode.
    #[must_use]
    pub fn paper_baseline(mode: SwPrefetchMode) -> OptimizerConfig {
        OptimizerConfig {
            mode,
            line_bytes: 64,
            l1_latency: 3,
            mem_latency: 350,
            scratch_pool: (20..=27).map(Reg::int).collect(),
            estimated_initial_distance: !matches!(mode, SwPrefetchMode::SelfRepair),
        }
    }
}

/// Per-group repair state, kept in the optimizer's memory buffer
/// (paper §3.5.2: repairs left, maximal distance, latency history).
#[derive(Clone, Debug)]
pub struct GroupState {
    /// Trace currently carrying the group's prefetches.
    pub trace: TraceId,
    /// Current prefetch distance.
    pub distance: u8,
    /// Maximum distance = memory latency / trace minimal execution time.
    pub max_distance: u8,
    /// Remaining repair budget (starts at 2 × max distance).
    pub repairs_left: u32,
    /// Previous average access latency **per member load** (keyed by the
    /// load's original PC): the improve/worsen decision must compare a
    /// load's latency with its *own* history, not with another member's.
    pub prev_avg_latency: Vec<(u64, f64)>,
    /// The group's stride.
    pub stride: i64,
    /// Whether repairs still apply (groups with a known stride).
    pub repairable: bool,
    /// For jump-pointer groups: base offset of the dereference load, whose
    /// encoded offset is repaired to `deref_base_off + stride·distance`.
    pub deref_base_off: Option<i64>,
    /// Cycle the group's prefetches were first inserted.
    pub inserted_at: u64,
    /// Cycle of the last distance change (equals `inserted_at` while the
    /// initial distance still stands). `last_change_at - inserted_at` is the
    /// group's cycles-to-converge.
    pub last_change_at: u64,
}

/// What the optimizer decided for one event; committed at helper completion.
#[derive(Debug)]
pub enum PreparedAction {
    /// Replace the trace with a prefetch-augmented version.
    Install(PendingInstall),
    /// Patch prefetch distances in place.
    Repair {
        /// The trace being repaired.
        trace: TraceId,
        /// (instruction index, new encoded word) pairs.
        patches: Vec<(usize, Word)>,
    },
    /// Nothing to do (load matured, not prefetchable, or stats vanished).
    Nothing,
}

/// Counters for the optimizer.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimizerStats {
    /// Delinquent-load events handled.
    pub events: u64,
    /// Trace re-installations with prefetches.
    pub insertions: u64,
    /// Prefetch instructions inserted.
    pub prefetches_inserted: u64,
    /// In-place distance repairs performed.
    pub repairs: u64,
    /// Distance increments during repair.
    pub distance_up: u64,
    /// Distance decrements during repair.
    pub distance_down: u64,
    /// Loads matured (budget exhausted or unprefetchable).
    pub matured: u64,
    /// Prefetch groups tracked over the run (filled by
    /// [`PrefetchOptimizer::finalize`]).
    pub groups: u64,
    /// Sum over groups of cycles from insertion to last distance change
    /// (filled by [`PrefetchOptimizer::finalize`]).
    pub converge_cycles_total: u64,
    /// The slowest group's cycles-to-converge (filled by
    /// [`PrefetchOptimizer::finalize`]).
    pub converge_cycles_max: u64,
}

/// The prefetch optimizer.
pub struct PrefetchOptimizer {
    cfg: OptimizerConfig,
    /// Group state keyed by (trace head, representative load original PC) —
    /// stable across trace re-installations. Iterated only by
    /// order-independent folds and per-entry updates.
    states: FastMap<(u64, u64), GroupState>,
    /// Member original PC → representative PC, per trace head. Probed for
    /// every L1-missing trace load ([`PrefetchOptimizer::is_covered`]);
    /// never iterated.
    member_to_rep: FastMap<(u64, u64), u64>,
    /// Counters.
    pub stats: OptimizerStats,
    /// The ring each repair decision lands in (see
    /// [`PrefetchOptimizer::set_ledger`]).
    ledger: SharedLedger,
    probe: SharedProbe,
    probe_on: bool,
    finalized: bool,
}

/// The repair rule's noise tolerance (the `avg <= prev * 1.02` test) in
/// milli-units, recorded as each repair record's decision margin.
pub const REPAIR_TOLERANCE_MILLI: u64 = 20;

impl PrefetchOptimizer {
    /// Builds an optimizer.
    #[must_use]
    pub fn new(cfg: OptimizerConfig) -> PrefetchOptimizer {
        PrefetchOptimizer {
            cfg,
            states: FastMap::default(),
            member_to_rep: FastMap::default(),
            stats: OptimizerStats::default(),
            ledger: SharedLedger::default(),
            probe: tdo_obs::null_probe(),
            probe_on: false,
            finalized: false,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// Attaches an observability probe; classification, insertion and
    /// maturity events are recorded through it from now on (repair events
    /// too, through the ledger).
    pub fn set_probe(&mut self, probe: SharedProbe) {
        self.probe_on = probe.borrow().enabled();
        self.probe = probe;
    }

    /// Records repair decisions in `ledger` — the driver's ring, so the
    /// machine keeps one — instead of this optimizer's own.
    pub fn set_ledger(&mut self, ledger: SharedLedger) {
        self.ledger = ledger;
    }

    /// Records one event when a probe is attached.
    fn emit(&self, now: u64, ev: Event) {
        if self.probe_on {
            self.probe.borrow_mut().record(now, ev);
        }
    }

    /// Folds per-group convergence figures into [`OptimizerStats`]. Called
    /// once at end of simulation; further calls are no-ops.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        for st in self.states.values() {
            self.stats.groups += 1;
            let c = st.last_change_at.saturating_sub(st.inserted_at);
            self.stats.converge_cycles_total += c;
            self.stats.converge_cycles_max = self.stats.converge_cycles_max.max(c);
        }
    }

    /// Whether the load at `orig_pc` (in the trace headed at `head`) is
    /// covered by an inserted prefetch group — the Figure 4 "potentially
    /// software prefetched" criterion.
    #[must_use]
    #[inline]
    pub fn is_covered(&self, head: u64, orig_pc: u64) -> bool {
        self.member_to_rep.contains_key(&(head, orig_pc))
    }

    /// Refreshes every group's repair budget and latency history —
    /// the companion to [`Dlt::clear_all_mature`] for the §3.5.2
    /// phase-change extension: a re-opened load must be allowed to re-tune,
    /// and its pre-phase latency history no longer applies.
    pub fn refresh_budgets(&mut self) {
        for st in self.states.values_mut() {
            st.repairs_left = st.repairs_left.max(2 * u32::from(st.max_distance));
            st.prev_avg_latency.clear();
        }
    }

    /// Handles one delinquent-load event raised at cycle `now`. DLT
    /// bookkeeping (window clears, mature flags) happens immediately — the
    /// helper thread owns those counters — while code changes are returned
    /// as a [`PreparedAction`] for the caller to commit when the helper job
    /// completes.
    pub fn handle_event(
        &mut self,
        now: u64,
        ev: HotEvent,
        trident: &mut Trident,
        dlt: &mut Dlt,
        code: &impl CodeSource,
    ) -> PreparedAction {
        let HotEvent::DelinquentLoad { load_pc, trace: trace_id } = ev else {
            return PreparedAction::Nothing;
        };
        self.stats.events += 1;
        let Some(trace) = trident.trace(trace_id) else {
            return PreparedAction::Nothing;
        };
        let Some(index) = trace.index_of_cc(load_pc) else {
            return PreparedAction::Nothing;
        };
        let head = trace.head;
        let orig_pc = trace.insts[index].orig_pc;

        // Repair path: this load's group already has prefetches in place.
        let rep = self.member_to_rep.get(&(head, orig_pc)).copied();
        if let Some(rep_pc) = rep {
            if self.states.contains_key(&(head, rep_pc)) {
                return self.repair(now, head, rep_pc, orig_pc, load_pc, trace_id, trident, dlt);
            }
        }

        // Insertion path.
        self.insert(now, trace_id, trident, dlt, code)
    }

    fn max_distance(&self, trident: &Trident, trace: TraceId) -> (u8, u64) {
        // Max distance = memory access latency / trace minimal execution
        // time (paper §3.5.2). Before any measurement, fall back to an
        // estimate from the trace length at one instruction per cycle.
        let min_time = trident
            .watch
            .min_exec_time(trace)
            .unwrap_or_else(|| trident.trace(trace).map_or(16, |t| t.insts.len() as u64).max(1));
        let d = (self.cfg.mem_latency / min_time.max(1)).clamp(1, 255) as u8;
        (d, min_time)
    }

    fn insert(
        &mut self,
        now: u64,
        trace_id: TraceId,
        trident: &mut Trident,
        dlt: &mut Dlt,
        code: &impl CodeSource,
    ) -> PreparedAction {
        let (max_dist, iter_time) = self.max_distance(trident, trace_id);
        let trace = trident.trace(trace_id).expect("checked by caller");
        let head = trace.head;
        let mut classification = classify(trace, dlt, |i| trace.cc_pc(i));
        // Loads already covered by an installed prefetch group are the
        // repair path's business — masking them here keeps a later
        // insertion (for a newly exposed load) from emitting duplicate
        // prefetches and forking the group state.
        for li in &mut classification.loads {
            if li.delinquent && self.is_covered(head, trace.insts[li.index].orig_pc) {
                li.delinquent = false;
            }
        }
        if self.probe_on {
            for li in &classification.loads {
                if !li.delinquent {
                    continue;
                }
                let (class, stride) = match li.class {
                    LoadClass::Stride { stride } => (LoadClassKind::Stride, stride),
                    LoadClass::Pointer => (LoadClassKind::Pointer, 0),
                    LoadClass::Other => (LoadClassKind::Other, 0),
                };
                let pc = trace.insts[li.index].orig_pc;
                self.emit(now, Event::LoadClassified { pc, class, stride });
            }
        }

        let use_estimate = self.cfg.estimated_initial_distance || !self.cfg.mode.repairs();
        // Estimated initial distance (eq. 2): average miss latency divided
        // by the trace's iteration time, per load, from DLT snapshots.
        let cc_of: Vec<u64> = (0..trace.insts.len()).map(|i| trace.cc_pc(i)).collect();
        let loads = classification.loads.clone();
        let dlt_ref: &Dlt = dlt;
        let mem_latency = self.cfg.mem_latency;
        let estimate = move |li: usize| -> u8 {
            if !use_estimate {
                return 1;
            }
            let pc = cc_of[loads[li].index];
            let avg = dlt_ref.snapshot(pc).map_or(mem_latency as f64, |s| s.avg_miss_latency);
            let d = (avg / iter_time.max(1) as f64).ceil();
            (d as u64).clamp(1, u64::from(max_dist)) as u8
        };

        let opts = InsertOptions {
            line_bytes: self.cfg.line_bytes,
            same_object: self.cfg.mode.grouping(),
            pointer_deref: self.cfg.mode.grouping(),
            distance_of: &estimate,
            scratch_pool: &self.cfg.scratch_pool,
        };
        let Some(plan) = plan_insertion(trace, &classification, &opts) else {
            // Nothing prefetchable: mature every delinquent load so it stops
            // firing events (paper §3.5.2).
            for li in &classification.loads {
                if li.delinquent {
                    let pc = trace.cc_pc(li.index);
                    dlt.set_mature(pc);
                    self.stats.matured += 1;
                    self.emit(now, Event::LoadMatured { pc });
                }
            }
            return PreparedAction::Nothing;
        };

        // DLT bookkeeping for covered and uncovered loads.
        for li in &classification.loads {
            if li.delinquent {
                dlt.clear_window(trace.cc_pc(li.index));
            }
        }
        for pc in &plan.unprefetchable_orig_pcs {
            // Original PC → current cc PC of that load.
            if let Some(i) = trace.insts.iter().position(|t| t.orig_pc == *pc && !t.synthetic) {
                let cc_pc = trace.cc_pc(i);
                dlt.set_mature(cc_pc);
                self.stats.matured += 1;
                self.emit(now, Event::LoadMatured { pc: cc_pc });
            }
        }

        // Record group states keyed by stable original PCs.
        for g in &plan.groups {
            let repairable = (g.kind == GroupKind::Stride
                || (g.kind == GroupKind::Pointer && g.deref_base_off.is_some()))
                && self.cfg.mode.repairs();
            self.states.insert(
                (head, g.rep_orig_pc),
                GroupState {
                    trace: trace_id, // updated to the new id at commit
                    distance: g.distance.max(1),
                    max_distance: max_dist,
                    repairs_left: 2 * u32::from(max_dist),
                    prev_avg_latency: Vec::new(),
                    stride: g.stride,
                    repairable,
                    deref_base_off: g.deref_base_off,
                    inserted_at: now,
                    last_change_at: now,
                },
            );
            for m in &g.covered_orig_pcs {
                self.member_to_rep.insert((head, *m), g.rep_orig_pc);
            }
            self.stats.prefetches_inserted += g.prefetch_indices.len() as u64;
        }
        self.stats.insertions += 1;

        match trident.prepare_reinstall(now, code, trace_id, plan.new_insts) {
            Ok(pending) => {
                if self.probe_on {
                    for g in &plan.groups {
                        let kind = match g.kind {
                            GroupKind::Stride => PrefetchGroupKind::Stride,
                            GroupKind::Pointer => PrefetchGroupKind::Pointer,
                        };
                        self.emit(
                            now,
                            Event::PrefetchInserted {
                                trace: pending.trace.id.0,
                                group: g.rep_orig_pc,
                                kind,
                                distance: g.distance.max(1),
                                prefetches: g.prefetch_indices.len() as u32,
                            },
                        );
                    }
                }
                PreparedAction::Install(pending)
            }
            Err(_) => PreparedAction::Nothing,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn repair(
        &mut self,
        now: u64,
        head: u64,
        rep_pc: u64,
        orig_pc: u64,
        load_pc: u64,
        trace_id: TraceId,
        trident: &mut Trident,
        dlt: &mut Dlt,
    ) -> PreparedAction {
        let (max_dist, _) = self.max_distance(trident, trace_id);
        let state = self.states.get_mut(&(head, rep_pc)).expect("checked by caller");
        state.max_distance = max_dist;

        if !state.repairable {
            // E.g. a pointer group, or a non-repair mode: mature the load.
            dlt.set_mature(load_pc);
            self.stats.matured += 1;
            self.emit(now, Event::LoadMatured { pc: load_pc });
            return PreparedAction::Nothing;
        }
        if state.repairs_left == 0 {
            dlt.set_mature(load_pc);
            self.stats.matured += 1;
            self.emit(now, Event::LoadMatured { pc: load_pc });
            return PreparedAction::Nothing;
        }
        state.repairs_left -= 1;

        // Average access latency over the load's window (paper: computed
        // from the access counter, miss counter and total miss latency).
        let Some(snap) = dlt.snapshot(load_pc) else {
            return PreparedAction::Nothing;
        };
        let hits = f64::from(snap.accesses - snap.misses);
        let avg_access = (snap.avg_miss_latency * f64::from(snap.misses)
            + hits * self.cfg.l1_latency as f64)
            / f64::from(snap.accesses);

        // Improve → keep increasing; worsen → back off one step. A small
        // tolerance keeps measurement noise (bus contention, window
        // alignment) from ping-ponging the distance.
        let prev = state.prev_avg_latency.iter().find(|(pc, _)| *pc == orig_pc).map(|(_, l)| *l);
        let increase = match prev {
            None => true,
            Some(prev) => avg_access <= prev * 1.02,
        };
        let old = state.distance;
        state.distance = if increase {
            (state.distance.saturating_add(1)).min(state.max_distance)
        } else {
            state.distance.saturating_sub(1).max(1)
        };
        if state.distance > old {
            self.stats.distance_up += 1;
        } else if state.distance < old {
            self.stats.distance_down += 1;
        }
        if state.distance != old {
            state.last_change_at = now;
        }
        match state.prev_avg_latency.iter_mut().find(|(pc, _)| *pc == orig_pc) {
            Some(slot) => slot.1 = avg_access,
            None => state.prev_avg_latency.push((orig_pc, avg_access)),
        }
        let new_distance = state.distance;
        let deref = state.deref_base_off.map(|b| (b, state.stride));
        let repairs_left = u64::from(state.repairs_left);
        let exhausted = state.repairs_left == 0;
        let record = LedgerRecord {
            cycle: now,
            kind: LedgerKind::Repair,
            group: rep_pc,
            pc: orig_pc,
            old: u64::from(old),
            new: u64::from(new_distance),
            evidence_a: (avg_access * 100.0).round() as u64,
            evidence_b: prev.map_or(0, |p| (p * 100.0).round() as u64),
            margin_milli: REPAIR_TOLERANCE_MILLI,
            epoch: repairs_left,
        };
        self.ledger.borrow_mut().record(record, &self.probe, |record| Event::DistanceRepaired {
            trace: trace_id.0,
            record,
        });

        dlt.clear_window(load_pc);
        if exhausted {
            dlt.set_mature(load_pc);
            self.stats.matured += 1;
            self.emit(now, Event::LoadMatured { pc: load_pc });
        }
        self.stats.repairs += 1;

        if new_distance == old {
            return PreparedAction::Nothing;
        }

        // Patch every prefetch of the group (the paper repairs whole-object
        // distances as a group), plus the dereference load of a jump-pointer
        // group, whose offset advances with the distance.
        let Some(trace) = trident.trace(trace_id) else {
            return PreparedAction::Nothing;
        };
        let mut patches = Vec::new();
        for (i, ti) in trace.insts.iter().enumerate() {
            if !ti.synthetic || ti.orig_pc != rep_pc {
                continue;
            }
            match ti.op {
                TraceOp::Real(inst @ Inst::Prefetch { stride, .. }) if stride != 0 => {
                    let word = encode(&inst).expect("prefetch encodes");
                    let patched =
                        patch_prefetch_distance(word, new_distance).expect("is a prefetch");
                    patches.push((i, patched));
                }
                TraceOp::Real(Inst::Load {
                    ra,
                    rb,
                    off: _,
                    kind: kind @ tdo_isa::LoadKind::NonFaulting,
                }) => {
                    if let Some((base_off, stride)) = deref {
                        let off = base_off + stride * i64::from(new_distance);
                        let word =
                            encode(&Inst::Load { ra, rb, off, kind }).expect("deref offset fits");
                        patches.push((i, word));
                    }
                }
                _ => {}
            }
        }
        if patches.is_empty() {
            return PreparedAction::Nothing;
        }
        PreparedAction::Repair { trace: trace_id, patches }
    }

    /// Commits a prepared action at helper completion: registers trace
    /// changes with Trident and returns the code patches to apply.
    ///
    /// # Errors
    ///
    /// Propagates [`InstallError`] when a replacement trace cannot be
    /// registered (the caller must then drop the patches).
    pub fn commit(
        &mut self,
        now: u64,
        action: PreparedAction,
        trident: &mut Trident,
        dlt: &mut Dlt,
    ) -> Result<Vec<Patch>, InstallError> {
        match action {
            PreparedAction::Nothing => Ok(Vec::new()),
            PreparedAction::Install(pending) => {
                let head = pending.trace.head;
                let new_id = pending.trace.id;
                let forwards = trident.commit_install(now, &pending)?;
                // Re-point group states at the new trace.
                for ((h, _), st) in self.states.iter_mut() {
                    if *h == head {
                        st.trace = new_id;
                    }
                }
                let mut patches = pending.patches;
                patches.extend(forwards);
                Ok(patches)
            }
            PreparedAction::Repair { trace, patches } => {
                let mut out = Vec::with_capacity(patches.len());
                let mut rep = None;
                for (index, word) in patches {
                    let (addr, mut ti) = {
                        let t = trident.trace(trace).ok_or(InstallError::UnknownTrace(trace))?;
                        rep = Some(t.insts[index].orig_pc);
                        (t.cc_pc(index), t.insts[index])
                    };
                    ti.op = TraceOp::Real(tdo_isa::decode(word).expect("patched word decodes"));
                    trident.update_trace_inst(trace, index, ti)?;
                    out.push(Patch { addr, word });
                }
                // Restart the monitoring windows of the repaired group's
                // loads now that the new distance is live: the next window
                // samples post-patch behaviour only, so the improve/worsen
                // decision compares like with like.
                if let (Some(rep_pc), Some(t)) = (rep, trident.trace(trace)) {
                    let head = t.head;
                    for (i, ti) in t.insts.iter().enumerate() {
                        if ti.synthetic {
                            continue;
                        }
                        let m = self
                            .member_to_rep
                            .get(&(head, ti.orig_pc))
                            .copied()
                            .unwrap_or(ti.orig_pc);
                        if m == rep_pc {
                            dlt.clear_window(t.cc_pc(i));
                        }
                    }
                }
                Ok(out)
            }
        }
    }
}

//! The full-system simulation driver.
//!
//! Wires the SMT core, the memory hierarchy, the Trident framework, and the
//! self-repairing prefetcher together, exactly mirroring the paper's flow:
//!
//! 1. the core commits instructions; the driver feeds original-code branches
//!    to the branch profiler and hot-trace loads to the DLT;
//! 2. hot events (hot trace, delinquent load) queue until the helper
//!    context is free; the optimizer's *analysis* runs at event time while
//!    its *simulated cost* occupies the helper context (startup 2000 cycles
//!    plus a work charge);
//! 3. when the helper job completes, the prepared code changes — trace
//!    linking, prefetch insertion, or in-place distance repair — are patched
//!    into the running binary;
//! 4. the watch table monitors per-trace minimal execution time and backs
//!    out under-performing traces.

use std::collections::HashMap;

use tdo_core::{Dlt, OptimizerConfig, PrefetchOptimizer, PreparedAction};
use tdo_cpu::{CodeImage, Commit, CommitKind, Core, HelperJob};
use tdo_mem::{ArmConfig, Hierarchy, LoadClass, Memory};
use tdo_obs::{
    Event, HelperJobKind, LedgerKind, LedgerRecord, QueueEventKind, Recorder, SharedLedger,
    SharedProbe,
};
use tdo_trident::{HotEvent, PendingInstall, TraceId, Trident};
use tdo_workloads::Workload;

use crate::config::{policy_candidates, PolicyConfig, SimConfig};
use crate::profile::{
    MachineProfile, MachineProfiler, PHASE_CORE, PHASE_EVENTS, PHASE_MATURE, PHASE_MONITORS,
    PHASE_OPTIMIZER, PHASE_SAMPLING,
};
use crate::result::{DriverCounters, SimResult, Snapshot};

#[derive(Clone, Copy)]
struct PcInfo {
    trace: TraceId,
    /// Index within the trace; `usize::MAX` marks a patched trace head
    /// (glue jump, zero weight).
    index: usize,
    weight: u32,
}

enum PendingJob {
    InstallTrace(PendingInstall),
    Opt { action: PreparedAction, trace: TraceId },
}

/// Dense-slot cap for the code-cache side of [`PcMap`] (the 4 MB code
/// cache holds at most 512 K instructions).
const PC_MAP_CC_MAX: usize = 1 << 20;

/// PC → trace-membership map, consulted once per committed instruction.
///
/// Was a `HashMap<u64, PcInfo>`; the commit path is hot enough that the
/// hash + probe showed up in the phase profile, so the two address ranges
/// commits actually come from — the original program and the code cache —
/// are dense slot arrays indexed by `(pc - base) / INST_BYTES`, with a
/// spill map for anything else (never hit in practice).
struct PcMap {
    orig_base: u64,
    orig: Vec<Option<PcInfo>>,
    cc_base: u64,
    cc: Vec<Option<PcInfo>>,
    spill: HashMap<u64, PcInfo>,
}

impl PcMap {
    fn new(orig_base: u64, orig_len: usize, cc_base: u64) -> PcMap {
        PcMap {
            orig_base,
            orig: vec![None; orig_len],
            cc_base,
            cc: Vec::new(),
            spill: HashMap::new(),
        }
    }

    #[inline]
    fn slot_index(base: u64, len: usize, pc: u64) -> Option<usize> {
        if pc < base {
            return None;
        }
        let idx = ((pc - base) / tdo_isa::INST_BYTES) as usize;
        (idx < len).then_some(idx)
    }

    #[inline]
    fn get(&self, pc: u64) -> Option<PcInfo> {
        if let Some(i) = Self::slot_index(self.orig_base, self.orig.len(), pc) {
            return self.orig[i];
        }
        if let Some(i) = Self::slot_index(self.cc_base, self.cc.len(), pc) {
            return self.cc[i];
        }
        if self.spill.is_empty() {
            return None;
        }
        self.spill.get(&pc).copied()
    }

    fn insert(&mut self, pc: u64, info: PcInfo) {
        if let Some(i) = Self::slot_index(self.orig_base, self.orig.len(), pc) {
            self.orig[i] = Some(info);
            return;
        }
        if pc >= self.cc_base {
            let idx = ((pc - self.cc_base) / tdo_isa::INST_BYTES) as usize;
            if idx < PC_MAP_CC_MAX {
                if idx >= self.cc.len() {
                    self.cc.resize(idx + 1, None);
                }
                self.cc[idx] = Some(info);
                return;
            }
        }
        self.spill.insert(pc, info);
    }

    fn remove(&mut self, pc: u64) {
        if let Some(i) = Self::slot_index(self.orig_base, self.orig.len(), pc) {
            self.orig[i] = None;
            return;
        }
        if let Some(i) = Self::slot_index(self.cc_base, self.cc.len(), pc) {
            self.cc[i] = None;
            return;
        }
        self.spill.remove(&pc);
    }
}

/// Where the policy controller is in its sample-then-commit cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PolicyState {
    /// Sweeping the candidate arms, one epoch each; `idx` is the candidate
    /// currently installed and being measured.
    Sampling {
        /// Index into [`policy_candidates`].
        idx: usize,
    },
    /// Running the chosen incumbent until its IPC degrades.
    Committed,
}

/// The runtime arm-selection controller: an epoch-gated sample-then-commit
/// hill climb over [`policy_candidates`], with hysteresis on replacement
/// and an IPC-degradation trigger for re-sampling (the phase-change
/// detector). Epochs are counted in committed original-equivalent
/// instructions, so decisions are independent of whether a probe is
/// attached — traced and untraced runs take identical switch sequences.
struct PolicyController {
    cfg: PolicyConfig,
    candidates: [ArmConfig; 4],
    state: PolicyState,
    /// Milli-IPC measured for each candidate in the current sweep.
    scores: [u64; 4],
    /// Candidate currently installed in the hierarchy.
    current: usize,
    /// Candidate holding the committed slot (sweep winners must beat it by
    /// the hysteresis margin to take over).
    incumbent: usize,
    /// Best committed-epoch milli-IPC seen since the last sweep.
    best_ipc: u64,
    /// `total_orig` threshold of the next epoch boundary.
    next_check: u64,
    /// Counter values at the epoch start, for window deltas.
    base_insts: u64,
    base_cycles: u64,
    base_misses: u64,
    /// Epochs closed so far — the ordinal stamped into ledger records.
    epochs: u64,
}

impl PolicyController {
    fn new(cfg: PolicyConfig) -> PolicyController {
        PolicyController {
            cfg,
            candidates: policy_candidates(),
            state: PolicyState::Sampling { idx: 0 },
            scores: [0; 4],
            current: 0,
            incumbent: 0,
            best_ipc: 0,
            next_check: cfg.epoch_insts.max(1),
            base_insts: 0,
            base_cycles: 0,
            base_misses: 0,
            epochs: 0,
        }
    }

    /// Closes an epoch with its measured milli-IPC; returns the candidate
    /// indices `(from, to)` and the deciding rule's milli-margin (0 for an
    /// unconditional sweep advance, `hysteresis_milli` for a sweep commit,
    /// `degrade_milli` for a phase-change re-sweep) when the installed arm
    /// must change.
    fn on_epoch(&mut self, ipc_milli: u64) -> Option<(usize, usize, u64)> {
        self.epochs += 1;
        let from = self.current;
        let mut margin = 0;
        match self.state {
            PolicyState::Sampling { idx } => {
                self.scores[idx] = ipc_milli;
                if idx + 1 < self.candidates.len() {
                    self.state = PolicyState::Sampling { idx: idx + 1 };
                    self.current = idx + 1;
                } else {
                    // Sweep complete: strictly-greater scan from below, so
                    // ties keep the earlier (lower-index) candidate.
                    let mut winner = 0;
                    for (i, &s) in self.scores.iter().enumerate() {
                        if s > self.scores[winner] {
                            winner = i;
                        }
                    }
                    if winner != self.incumbent
                        && self.scores[winner] * 1000
                            > self.scores[self.incumbent] * (1000 + self.cfg.hysteresis_milli)
                    {
                        self.incumbent = winner;
                    }
                    self.best_ipc = self.scores[self.incumbent];
                    self.state = PolicyState::Committed;
                    self.current = self.incumbent;
                    margin = self.cfg.hysteresis_milli;
                }
            }
            PolicyState::Committed => {
                self.best_ipc = self.best_ipc.max(ipc_milli);
                if ipc_milli * 1000 < self.best_ipc * (1000 - self.cfg.degrade_milli.min(1000)) {
                    // Performance fell off a cliff relative to this commit
                    // window's best epoch: assume a phase change and re-sweep.
                    self.scores = [0; 4];
                    self.state = PolicyState::Sampling { idx: 0 };
                    self.current = 0;
                    margin = self.cfg.degrade_milli;
                }
            }
        }
        (from != self.current).then_some((from, self.current, margin))
    }
}

/// Counter values at the last windowed sample, for window deltas.
#[derive(Clone, Copy, Default)]
struct SampleBase {
    insts: u64,
    cycles: u64,
    loads: u64,
    load_misses: u64,
    l2_misses: u64,
    pf_issued: u64,
    pf_hits: u64,
}

/// The assembled machine for one run.
pub struct Machine {
    cfg: SimConfig,
    core: Core,
    code: CodeImage,
    data: Memory,
    hier: Hierarchy,
    trident: Trident,
    dlt: Dlt,
    optimizer: PrefetchOptimizer,
    pc_map: PcMap,
    cur_trace: Option<(TraceId, usize)>,
    pending_job: Option<(u64, PendingJob)>,
    next_job_id: u64,
    counters: DriverCounters,
    total_orig: u64,
    next_mature_clear: Option<u64>,
    commit_buf: Vec<Commit>,
    name: String,
    probe: SharedProbe,
    probe_on: bool,
    next_sample: u64,
    sample_base: SampleBase,
    /// Runtime arm-selection controller (policy setups only; locked
    /// policies install their arm at build time and need no controller).
    policy: Option<PolicyController>,
    /// The machine's one decision ring, shared with the optimizer: repair
    /// and arm-switch records both land here and become
    /// [`SimResult::ledger`].
    ledger: SharedLedger,
    /// Self-profiler; `None` (the default) is the zero-cost disabled
    /// path — every hook below is a single `Option` test.
    prof: Option<Box<MachineProfiler>>,
}

impl Machine {
    /// Builds a machine loaded with `workload`.
    #[must_use]
    pub fn new(workload: &Workload, cfg: SimConfig) -> Machine {
        let mut data = Memory::new();
        for seg in &workload.program.data {
            data.write_bytes(seg.base, &seg.bytes);
        }
        let code = CodeImage::new(&workload.program, cfg.trident.code_cache_base);
        // Policy runs configure `mem.arm = None` and install the starting
        // arm here through the same `set_arm` path the controller uses at
        // run time; `set_arm` counts no switch when no arm is live yet, so
        // a locked-policy run is state-identical to the static run of the
        // same arm.
        let mut hier = Hierarchy::new(cfg.mem);
        let policy = match &cfg.policy {
            None => None,
            Some(p) => match p.locked {
                Some(arm) => {
                    hier.set_arm(&arm);
                    None
                }
                None => {
                    let ctl = PolicyController::new(*p);
                    hier.set_arm(&ctl.candidates[ctl.current]);
                    Some(ctl)
                }
            },
        };
        let opt_cfg = OptimizerConfig {
            mode: cfg.sw_mode,
            line_bytes: cfg.mem.l1.line_bytes as i64,
            l1_latency: cfg.mem.l1.latency,
            mem_latency: cfg.mem.mem_latency,
            scratch_pool: tdo_workloads::abi::scratch_pool(),
            estimated_initial_distance: cfg.estimated_initial
                || !matches!(cfg.sw_mode, tdo_core::SwPrefetchMode::SelfRepair),
        };
        let ledger = SharedLedger::default();
        let mut optimizer = PrefetchOptimizer::new(opt_cfg);
        optimizer.set_ledger(ledger.clone());
        Machine {
            core: Core::new(cfg.cpu, workload.program.entry),
            code,
            data,
            hier,
            trident: Trident::new(cfg.trident),
            dlt: Dlt::new(cfg.dlt),
            optimizer,
            pc_map: PcMap::new(
                workload.program.code_base,
                workload.program.code.len(),
                cfg.trident.code_cache_base,
            ),
            cur_trace: None,
            pending_job: None,
            next_job_id: 0,
            counters: DriverCounters::default(),
            total_orig: 0,
            next_mature_clear: cfg.mature_clear_interval,
            commit_buf: Vec::with_capacity(8),
            name: workload.program.name.clone(),
            probe: tdo_obs::null_probe(),
            probe_on: false,
            next_sample: cfg.sample_insts.max(1),
            sample_base: SampleBase::default(),
            policy,
            ledger,
            prof: None,
            cfg,
        }
    }

    /// Turns on the self-profiler (see [`crate::profile`]). The profiler
    /// only reads the host clock, so the simulation result is unchanged.
    pub fn enable_profiler(&mut self) {
        self.prof = Some(Box::default());
    }

    /// Parity-test aid: switches the code image to decoding the stored
    /// word on every fetch instead of serving predecoded ops. The two
    /// modes are architecturally identical — the differential suite in
    /// `crates/cpu/tests/predecode_parity.rs` runs both and byte-compares
    /// the serialized results.
    pub fn set_per_fetch_decode(&mut self, on: bool) {
        self.code.set_per_fetch_decode(on);
    }

    /// Attributes the wall time since the profiler's last mark to
    /// `phase`. Disabled-path cost: one branch.
    fn prof_lap(&mut self, phase: usize) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.timer.lap(phase);
        }
    }

    /// Attaches an observability probe, shared with the Trident runtime and
    /// the prefetch optimizer: every layer's events land in one recorder, in
    /// deterministic simulation order, stamped with simulated cycles.
    pub fn set_probe(&mut self, probe: SharedProbe) {
        self.probe_on = probe.borrow().enabled();
        self.trident.set_probe(probe.clone());
        self.optimizer.set_probe(probe.clone());
        self.probe = probe;
    }

    /// Records one event when a probe is attached.
    fn emit(&self, now: u64, ev: Event) {
        if self.probe_on {
            self.probe.borrow_mut().record(now, ev);
        }
    }

    /// Runs the configured warmup + measurement window and returns the
    /// result.
    #[must_use]
    pub fn run(mut self) -> SimResult {
        self.run_inner()
    }

    /// Like [`Machine::run`], but hands the final data memory to `probe`
    /// before returning — used by tests asserting architectural equivalence
    /// across optimization arms.
    #[must_use]
    pub fn run_with_memory(mut self, probe: &mut dyn FnMut(&Memory)) -> SimResult {
        let r = self.run_inner();
        probe(&self.data);
        r
    }

    /// Like [`Machine::run`], but hands the whole finished machine to
    /// `inspect` before returning — tooling uses this to dump installed
    /// traces, DLT contents, or optimizer state after a run.
    #[must_use]
    pub fn run_with_inspect(mut self, inspect: &mut dyn FnMut(&Machine)) -> SimResult {
        let r = self.run_inner();
        inspect(&self);
        r
    }

    /// The Trident runtime (trace registry, watch table, profiler).
    #[must_use]
    pub fn trident(&self) -> &Trident {
        &self.trident
    }

    /// The delinquent load table.
    #[must_use]
    pub fn dlt(&self) -> &Dlt {
        &self.dlt
    }

    /// The prefetch optimizer (group repair states).
    #[must_use]
    pub fn optimizer(&self) -> &PrefetchOptimizer {
        &self.optimizer
    }

    /// Identifiers of all currently installed traces.
    #[must_use]
    pub fn installed_traces(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = self.trident.trace_ids().collect();
        ids.sort_unstable();
        ids
    }

    fn run_inner(&mut self) -> SimResult {
        let warmup_end = self.cfg.warmup_insts;
        let budget = self.cfg.warmup_insts.saturating_add(self.cfg.measure_insts);
        let mut warm_snapshot: Option<Snapshot> = None;

        while self.total_orig < budget
            && !self.core.halted()
            && self.core.now() < self.cfg.max_cycles
        {
            // Batch-step: when nothing in the whole machine can act before
            // some future cycle — the main context is stalled, the helper
            // is idle, no job awaits commit and no event awaits dispatch —
            // jump the clock there instead of stepping through empty
            // cycles. Every skipped cycle is one the baseline loop would
            // execute with zero state change (no commits, no monitors, no
            // sampling — it is instruction-gated — no dispatch, no finish),
            // so results are bit-identical; the mature-clear tick is the
            // one cycle-gated action, handled by capping the jump just
            // short of its deadline.
            if self.pending_job.is_none() && self.trident.events.is_empty() {
                if let Some(mut t) = self.core.idle_hint(&self.code) {
                    if let Some(at) = self.next_mature_clear {
                        t = t.min(at.saturating_sub(1));
                    }
                    t = t.min(self.cfg.max_cycles);
                    if t > self.core.now() {
                        self.core.skip_to(t);
                    }
                }
            }
            self.step();
            if warm_snapshot.is_none() && self.total_orig >= warmup_end {
                warm_snapshot = Some(self.snapshot());
            }
        }
        self.optimizer.finalize();
        // Close out the live arm's counters so the per-kind aggregates in
        // `MemStats` cover every arm the run used.
        self.hier.fold_arm_stats();
        let begin = warm_snapshot.unwrap_or_default();
        let end = self.snapshot();
        let (cycles, helper_active, helper_committed, window) =
            SimResult::window_from(&begin, &end);
        SimResult {
            name: self.name.clone(),
            cycles,
            orig_insts: window.orig_insts,
            helper_active_cycles: helper_active,
            helper_committed,
            window,
            cpu: self.core.stats,
            mem: self.hier.stats,
            trident: self.trident.stats,
            optimizer: self.optimizer.stats,
            ledger: self.ledger.borrow().records(),
            halted: self.core.halted(),
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            cycles: self.core.now(),
            helper_active: self.core.stats.helper_active_cycles,
            helper_committed: self.core.stats.helper_committed,
            counters: self.counters,
        }
    }

    fn optimization_enabled(&self) -> bool {
        self.cfg.trident_enabled && self.total_orig >= self.cfg.warmup_insts
    }

    fn step(&mut self) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.timer.start();
        }

        // 1. One core cycle.
        let commits = self.core.cycle(&self.code, &mut self.data, &mut self.hier);
        let mut buf = std::mem::take(&mut self.commit_buf);
        buf.clear();
        buf.extend_from_slice(commits);
        self.prof_lap(PHASE_CORE);

        // Phases 2–5 lap the profiler clock only when they actually did
        // work: an idle phase's guard test costs nanoseconds, and reading
        // the clock for it both distorts the attribution and — at 6–7
        // reads per simulated cycle — used to be a large fraction of the
        // profiled run's wall time. The guards' cost rolls into the next
        // phase that does lap (or goes unattributed at step end).

        // 2. Feed the monitors.
        if !buf.is_empty() {
            for c in &buf {
                self.observe_commit(c);
            }
            self.prof_lap(PHASE_MONITORS);
        }
        self.commit_buf = buf;

        // 2b. Windowed performance sample for the timeline.
        if self.probe_on && self.total_orig >= self.next_sample {
            self.emit_sample();
            self.prof_lap(PHASE_SAMPLING);
        }

        // 2c. Policy-controller epoch boundary. Gated on committed
        // instructions (never on probe_on), so arm-switch sequences are
        // identical with and without tracing attached.
        if self.policy.as_ref().is_some_and(|c| self.total_orig >= c.next_check) {
            self.policy_epoch();
        }

        // 3. Dispatch one pending event to the helper if it is free.
        if self.optimization_enabled()
            && self.pending_job.is_none()
            && self.core.helper_idle()
            && !self.trident.events.is_empty()
        {
            self.dispatch_event();
            self.prof_lap(PHASE_EVENTS);
        }

        // 4. Commit a finished helper job.
        if let Some(id) = self.core.take_finished_job() {
            self.finish_job(id);
            self.prof_lap(PHASE_OPTIMIZER);
        }

        // 5. Phase-change extension: periodically re-open matured loads.
        if let (Some(at), Some(interval)) = (self.next_mature_clear, self.cfg.mature_clear_interval)
        {
            if self.core.now() >= at {
                self.dlt.clear_all_mature();
                self.optimizer.refresh_budgets();
                self.next_mature_clear = Some(at + interval);
                self.prof_lap(PHASE_MATURE);
            }
        }
    }

    /// Closes one policy epoch: computes the window's milli-IPC and
    /// milli-MPKI, feeds them to the controller, and applies any arm change
    /// it decides (recording it, with the triggering window's metrics, in
    /// the ledger).
    fn policy_epoch(&mut self) {
        let now = self.core.now();
        let misses = self.hier.stats.l1_misses();
        let total = self.total_orig;
        let Some(ctl) = self.policy.as_mut() else { return };
        let dinsts = total - ctl.base_insts;
        let dcycles = (now - ctl.base_cycles).max(1);
        let ipc_milli = dinsts * 1000 / dcycles;
        let mpki_milli = (misses - ctl.base_misses) * 1_000_000 / dinsts.max(1);
        let decision = ctl.on_epoch(ipc_milli);
        ctl.base_insts = total;
        ctl.base_cycles = now;
        ctl.base_misses = misses;
        let step = ctl.cfg.epoch_insts.max(1);
        while ctl.next_check <= total {
            ctl.next_check += step;
        }
        let epoch = ctl.epochs;
        let decision =
            decision.map(|(f, t, margin)| (f, t, margin, ctl.candidates[f], ctl.candidates[t]));
        if let Some((from_idx, to_idx, margin_milli, from, to)) = decision {
            self.hier.set_arm(&to);
            let record = LedgerRecord {
                cycle: now,
                kind: LedgerKind::ArmSwitch,
                group: 0,
                pc: 0,
                old: from_idx as u64,
                new: to_idx as u64,
                evidence_a: ipc_milli,
                evidence_b: mpki_milli,
                margin_milli,
                epoch,
            };
            self.ledger.borrow_mut().record(record, &self.probe, |record| Event::ArmSwitch {
                from: from.kind().map_or("none", tdo_mem::ArmKind::name),
                to: to.kind().map_or("none", tdo_mem::ArmKind::name),
                record,
            });
        }
    }

    /// Emits one windowed [`Event::Sample`] and advances the window. Rates
    /// are integer milli-units over the window just ended, so serialized
    /// samples are byte-deterministic.
    fn emit_sample(&mut self) {
        let now = self.core.now();
        let mem = &self.hier.stats;
        let cur = SampleBase {
            insts: self.total_orig,
            cycles: now,
            loads: self.counters.loads(),
            load_misses: self.counters.load_misses,
            l2_misses: mem.serviced[3] + mem.serviced[4],
            pf_issued: mem.sw_prefetch_issued,
            pf_hits: mem.hits_prefetched,
        };
        let base = self.sample_base;
        let ratio = |num: u64, den: u64| (num * 1000).checked_div(den).unwrap_or(0);
        let dcycles = cur.cycles - base.cycles;
        self.emit(
            now,
            Event::Sample {
                insts: cur.insts,
                dcycles,
                ipc_milli: ratio(cur.insts - base.insts, dcycles),
                l1_miss_milli: ratio(cur.load_misses - base.load_misses, cur.loads - base.loads),
                l2_miss_milli: ratio(cur.l2_misses - base.l2_misses, cur.loads - base.loads),
                pf_acc_milli: ratio(cur.pf_hits - base.pf_hits, cur.pf_issued - base.pf_issued),
            },
        );
        self.sample_base = cur;
        let step = self.cfg.sample_insts.max(1);
        while self.next_sample <= self.total_orig {
            self.next_sample += step;
        }
    }

    fn observe_commit(&mut self, c: &Commit) {
        let info = self.pc_map.get(c.pc);
        let in_trace = info.filter(|i| i.index != usize::MAX);
        let weight = match info {
            Some(i) => u64::from(i.weight),
            None => 1,
        };
        self.total_orig += weight;
        self.counters.orig_insts += weight;

        // Trace entry/exit tracking for the watch table.
        let now = c.cycle;
        match (self.cur_trace, in_trace) {
            (Some((old, last_idx)), Some(i)) if i.trace == old => {
                if i.index == 0 {
                    self.trident.watch.on_enter(old, now); // loop-back
                }
                self.cur_trace = Some((old, i.index));
                let _ = last_idx;
            }
            (prev, Some(i)) => {
                if let Some((old, last_idx)) = prev {
                    self.exit_trace(old, last_idx, now);
                }
                self.trident.watch.on_enter(i.trace, now);
                self.cur_trace = Some((i.trace, i.index));
            }
            (Some((old, last_idx)), None) => {
                self.exit_trace(old, last_idx, now);
                self.cur_trace = None;
            }
            (None, None) => {}
        }

        match c.kind {
            CommitKind::Load { addr, result } => {
                match result.class {
                    LoadClass::Hit => self.counters.loads_hit += 1,
                    LoadClass::HitPrefetched => self.counters.loads_hit_prefetched += 1,
                    LoadClass::PartialHit => self.counters.loads_partial += 1,
                    LoadClass::Miss => self.counters.loads_miss += 1,
                    LoadClass::MissDueToPrefetch => {
                        self.counters.loads_miss_due_to_prefetch += 1;
                    }
                }
                if result.l1_miss {
                    self.counters.load_misses += 1;
                }
                if let Some(i) = in_trace {
                    if result.l1_miss {
                        self.counters.load_misses_in_traces += 1;
                        if let Some(t) = self.trident.trace(i.trace) {
                            let orig = t.insts[i.index].orig_pc;
                            if self.optimizer.is_covered(t.head, orig) {
                                self.counters.load_misses_covered += 1;
                            }
                        }
                    }
                    // DLT: hardware updates for hot-trace loads.
                    if self.cfg.sw_mode != tdo_core::SwPrefetchMode::Off
                        && self.optimization_enabled()
                        && self.dlt.observe(c.pc, addr, result.l1_miss, result.latency)
                    {
                        let suppressed =
                            self.trident.watch.get(i.trace).is_none_or(|e| e.being_optimized);
                        if !suppressed {
                            self.trident.push_event(
                                c.cycle,
                                HotEvent::DelinquentLoad { load_pc: c.pc, trace: i.trace },
                            );
                            self.counters.dlt_events_queued += 1;
                        }
                    }
                }
            }
            CommitKind::Branch { taken, target, .. }
                if info.is_none() && self.optimization_enabled() =>
            {
                self.trident.observe_branch(c.cycle, c.pc, taken, target, true);
            }
            CommitKind::Jump { target } if info.is_none() && self.optimization_enabled() => {
                self.trident.observe_branch(c.cycle, c.pc, true, target, false);
            }
            _ => {}
        }
    }

    fn exit_trace(&mut self, trace: TraceId, last_idx: usize, now: u64) {
        // Trident drops a trace and its watch entry together, so an exit
        // from a replaced or backed-out body has nothing to account.
        let Some((len, head)) = self.trident.trace(trace).map(|t| (t.insts.len(), t.head)) else {
            return;
        };
        let early = last_idx + 1 != len;
        let backout = self.trident.watch.on_exit(trace, now, early);
        if backout && !self.job_references(trace) {
            if let Ok(patches) = self.trident.backout(now, trace) {
                for p in patches {
                    let _ = self.code.write_word(p.addr, p.word);
                }
                // The original instruction (weight 1) lives at the head
                // again. The dead body's pc-map entries stay, as they do for
                // a replaced trace: a thread may still be draining out of it
                // (the loop-back forwards it at the next iteration
                // boundary), and those instructions must keep their
                // original-equivalent weights. Code-cache addresses are
                // never reallocated, so stale entries are harmless.
                if self.pc_map.get(head).is_some_and(|i| i.trace == trace) {
                    self.pc_map.remove(head);
                }
                self.counters.trace_backouts += 1;
            }
        }
    }

    fn job_references(&self, trace: TraceId) -> bool {
        match &self.pending_job {
            Some((_, PendingJob::Opt { trace: t, .. })) => *t == trace,
            _ => false,
        }
    }

    fn dispatch_event(&mut self) {
        let Some(ev) = self.trident.pop_event() else {
            return;
        };
        let now = self.core.now();
        if self.probe_on {
            let (kind, pc) = match ev {
                HotEvent::HotTrace { head, .. } => (QueueEventKind::HotTrace, head),
                HotEvent::DelinquentLoad { load_pc, .. } => {
                    (QueueEventKind::DelinquentLoad, load_pc)
                }
            };
            let pending = self.trident.events.len() as u32;
            self.emit(now, Event::EventDrained { kind, pc, pending });
        }
        match ev {
            HotEvent::HotTrace { head, bitmap, nbits } => {
                if self.trident.linked_at(head).is_some() {
                    return;
                }
                self.counters.hot_trace_events += 1;
                let code = &self.code;
                let fetch = |pc: u64| code.fetch(pc).expect("trace formation read a corrupt word");
                let Ok(pending) = self.trident.prepare_install(now, &fetch, head, bitmap, nbits)
                else {
                    return;
                };
                let cost = self.cfg.job_cost.form_base
                    + self.cfg.job_cost.form_per_inst * pending.trace.insts.len() as u64;
                let id = self.next_job_id;
                self.next_job_id += 1;
                self.core.start_helper(HelperJob { id, instructions: cost });
                self.emit(
                    now,
                    Event::HelperStart { job: id, kind: HelperJobKind::FormTrace, cost },
                );
                if let Some(p) = self.prof.as_deref_mut() {
                    p.job_begin(HelperJobKind::FormTrace, now);
                }
                self.pending_job = Some((id, PendingJob::InstallTrace(pending)));
            }
            HotEvent::DelinquentLoad { load_pc: _, trace } => {
                if self.cfg.sw_mode == tdo_core::SwPrefetchMode::Off {
                    return;
                }
                let Some(entry) = self.trident.watch.get_mut(trace) else {
                    return;
                };
                if entry.being_optimized {
                    return;
                }
                entry.being_optimized = true;
                let len = self.trident.trace(trace).map_or(16, |t| t.insts.len()) as u64;
                let code = &self.code;
                let fetch = |pc: u64| code.fetch(pc).expect("optimizer read a corrupt word");
                let action =
                    self.optimizer.handle_event(now, ev, &mut self.trident, &mut self.dlt, &fetch);
                let (cost, kind) = match &action {
                    PreparedAction::Install(_) => (
                        self.cfg.job_cost.insert_base + self.cfg.job_cost.insert_per_inst * len,
                        HelperJobKind::InsertPrefetches,
                    ),
                    PreparedAction::Repair { .. } => {
                        (self.cfg.job_cost.repair, HelperJobKind::RepairDistance)
                    }
                    PreparedAction::Nothing => {
                        (self.cfg.job_cost.analyze_only, HelperJobKind::AnalyzeOnly)
                    }
                };
                let id = self.next_job_id;
                self.next_job_id += 1;
                self.core.start_helper(HelperJob { id, instructions: cost });
                self.emit(now, Event::HelperStart { job: id, kind, cost });
                if let Some(p) = self.prof.as_deref_mut() {
                    p.job_begin(kind, now);
                }
                self.pending_job = Some((id, PendingJob::Opt { action, trace }));
            }
        }
    }

    fn finish_job(&mut self, id: u64) {
        let Some((job_id, job)) = self.pending_job.take() else {
            return;
        };
        debug_assert_eq!(job_id, id, "one helper job in flight at a time");
        let now = self.core.now();
        self.emit(now, Event::HelperFinish { job: id });
        if let Some(p) = self.prof.as_deref_mut() {
            p.job_end(now);
        }
        match job {
            PendingJob::InstallTrace(pending) => {
                if self.cfg.no_link {
                    // §5.1 overhead mode: the work was done, nothing links.
                    self.trident.profiler.mark_traced(pending.trace.head);
                    return;
                }
                let forwards = match self.trident.commit_install(now, &pending) {
                    Ok(f) => f,
                    Err(_) => {
                        self.trident.profiler.mark_traced(pending.trace.head);
                        return;
                    }
                };
                for p in pending.patches.iter().chain(forwards.iter()) {
                    let _ = self.code.write_word(p.addr, p.word);
                }
                self.add_trace_map(pending.trace.id);
            }
            PendingJob::Opt { action, trace } => {
                let replaces = match &action {
                    PreparedAction::Install(p) => Some((p.replaces, p.trace.id)),
                    _ => None,
                };
                match self.optimizer.commit(now, action, &mut self.trident, &mut self.dlt) {
                    Ok(patches) => {
                        for p in &patches {
                            let _ = self.code.write_word(p.addr, p.word);
                        }
                        if let Some((old, new_id)) = replaces {
                            if let Some(old_id) = old {
                                if self.cur_trace.is_some_and(|(t, _)| t == old_id) {
                                    self.cur_trace = None;
                                }
                            }
                            self.add_trace_map(new_id);
                        } else if let Some(e) = self.trident.watch.get_mut(trace) {
                            e.being_optimized = false;
                        }
                    }
                    Err(_) => {
                        if let Some(e) = self.trident.watch.get_mut(trace) {
                            e.being_optimized = false;
                        }
                    }
                }
            }
        }
    }

    fn add_trace_map(&mut self, id: TraceId) {
        let Some(trace) = self.trident.trace(id) else {
            return;
        };
        for (i, ti) in trace.insts.iter().enumerate() {
            let pc = trace.cc_pc(i);
            self.pc_map.insert(pc, PcInfo { trace: id, index: i, weight: ti.weight });
        }
        // The patched head is glue: zero weight.
        self.pc_map.insert(trace.head, PcInfo { trace: id, index: usize::MAX, weight: 0 });
    }
}

/// Runs `workload` under `cfg`.
#[must_use]
pub fn run(workload: &Workload, cfg: &SimConfig) -> SimResult {
    Machine::new(workload, cfg.clone()).run()
}

/// Runs `workload` under `cfg` with the self-profiler enabled, returning
/// the result plus the phase-attribution profile.
///
/// The profiler only reads the host clock, so the [`SimResult`] is
/// byte-identical to an unprofiled run; only the profile's `*_wall_ns`
/// fields are nondeterministic.
#[must_use]
pub fn run_profiled(workload: &Workload, cfg: &SimConfig) -> (SimResult, MachineProfile) {
    let mut machine = Machine::new(workload, cfg.clone());
    machine.enable_profiler();
    let t0 = std::time::Instant::now();
    let result = machine.run_inner();
    let run_wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let cycles = machine.core.now();
    let p = machine.prof.take().expect("profiler enabled above");
    let profile = MachineProfile {
        phase_wall_ns: p.timer.wall_ns,
        run_wall_ns,
        cycles,
        helper_cycles: p.helper_cycles,
        helper_jobs: p.helper_jobs,
    };
    (result, profile)
}

/// Runs `workload` under `cfg` with a recording probe attached, returning
/// the result plus the full cycle-stamped event log.
///
/// The log is a function of the (workload, config) pair alone — engine
/// worker counts and wall-clock time never influence it — so serialized
/// traces are byte-identical across runs.
#[must_use]
pub fn run_traced(workload: &Workload, cfg: &SimConfig) -> (SimResult, Recorder) {
    let recorder = Recorder::shared();
    let mut machine = Machine::new(workload, cfg.clone());
    machine.set_probe(recorder.clone());
    let result = machine.run();
    let recorder =
        std::rc::Rc::try_unwrap(recorder).expect("machine dropped its probe").into_inner();
    (result, recorder)
}

//! The Trident runtime: the software half of the event-driven optimization
//! framework. It owns the monitoring structures (branch profiler, watch
//! table), the code-cache allocator, the registry of installed traces, and
//! the pending-event queue, and it produces *patch lists* — encoded words at
//! code addresses — that the simulation driver applies to the running binary
//! at helper-thread completion, mirroring how the real system links traces
//! by patching the original code (paper §3.2).

use std::collections::HashMap;

use tdo_isa::{encode, Inst, Word};
use tdo_obs::{DropReason, Event, QueueEventKind, SharedProbe};

use crate::cache::CodeCache;
use crate::events::{EventQueue, HotEvent, PushOutcome, TraceId};
use crate::opt;
use crate::profiler::{BranchProfiler, ProfilerConfig};
use crate::trace::{form_trace, CodeSource, FormError, Trace, TraceInst};
use crate::watch::{WatchConfig, WatchTable};

/// Framework configuration.
#[derive(Clone, Copy, Debug)]
pub struct TridentConfig {
    /// Branch profiler configuration.
    pub profiler: ProfilerConfig,
    /// Watch table configuration.
    pub watch: WatchConfig,
    /// Base address of the code-cache region.
    pub code_cache_base: u64,
    /// Capacity of the code-cache region in bytes.
    pub code_cache_bytes: u64,
    /// Bound on pending optimization events.
    pub event_queue_cap: usize,
    /// Whether to run the classical optimizations on formed traces.
    pub classical_opts: bool,
}

impl TridentConfig {
    /// The paper's configuration with a 4 MB code cache.
    #[must_use]
    pub fn paper_baseline() -> TridentConfig {
        TridentConfig {
            profiler: ProfilerConfig::paper_baseline(),
            watch: WatchConfig::paper_baseline(),
            code_cache_base: 0x4000_0000,
            code_cache_bytes: 4 << 20,
            event_queue_cap: 64,
            classical_opts: true,
        }
    }
}

/// One code patch: write `word` at `addr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Patch {
    /// Code address to rewrite.
    pub addr: u64,
    /// New encoded instruction.
    pub word: Word,
}

/// A fully prepared trace installation, produced at event time and committed
/// when the helper thread finishes.
#[derive(Clone, Debug)]
pub struct PendingInstall {
    /// The trace, with its code-cache address assigned.
    pub trace: Trace,
    /// Body words plus the link patch rewriting the head into a jump.
    pub patches: Vec<Patch>,
    /// A previously installed trace this one replaces (re-optimization).
    pub replaces: Option<TraceId>,
}

/// Counters for the framework.
#[derive(Clone, Copy, Debug, Default)]
pub struct TridentStats {
    /// Traces formed and installed.
    pub traces_installed: u64,
    /// Traces replaced by re-optimized versions.
    pub reoptimizations: u64,
    /// Traces backed out for under-performance.
    pub backouts: u64,
    /// Installations abandoned because the code cache was full.
    pub cache_full: u64,
    /// Hot events accepted by the pending queue.
    pub events_queued: u64,
    /// Hot events dropped because the queue was at capacity.
    pub events_dropped_saturated: u64,
    /// Hot events dropped because an identical event was already pending.
    pub events_dropped_duplicate: u64,
}

/// Errors preparing a trace installation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstallError {
    /// Trace formation failed.
    Form(FormError),
    /// The code cache has no room.
    CacheFull,
    /// The watch table has no room.
    WatchFull,
    /// The referenced trace is not registered.
    UnknownTrace(TraceId),
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Form(e) => write!(f, "trace formation failed: {e}"),
            InstallError::CacheFull => write!(f, "code cache full"),
            InstallError::WatchFull => write!(f, "watch table full"),
            InstallError::UnknownTrace(t) => write!(f, "unknown trace {t:?}"),
        }
    }
}

impl std::error::Error for InstallError {}

impl From<FormError> for InstallError {
    fn from(e: FormError) -> Self {
        InstallError::Form(e)
    }
}

/// Rewrites a dead trace's loop-back branches into jumps to `target`, so a
/// thread still executing the old body escapes at its next iteration
/// boundary.
fn forward_loopbacks(old: &Trace, target: u64) -> Vec<Patch> {
    let mut out = Vec::new();
    for (i, ti) in old.insts.iter().enumerate() {
        if matches!(ti.op, crate::trace::TraceOp::LoopBack) {
            let pc = old.cc_pc(i);
            let disp = Inst::disp_between(pc, target).expect("aligned code");
            out.push(Patch { addr: pc, word: encode(&Inst::Br { disp }).expect("fits") });
        }
    }
    out
}

/// The Trident runtime.
pub struct Trident {
    /// The branch profiler (hardware).
    pub profiler: BranchProfiler,
    /// The watch table (hardware).
    pub watch: WatchTable,
    /// The code-cache allocator.
    pub code_cache: CodeCache,
    /// Pending optimization events.
    pub events: EventQueue,
    /// Counters.
    pub stats: TridentStats,
    cfg: TridentConfig,
    traces: HashMap<TraceId, Trace>,
    /// Original-code head → currently linked trace.
    head_of: HashMap<u64, TraceId>,
    /// Original instruction at each patched head, for unlinking.
    original_head: HashMap<u64, Inst>,
    next_id: u32,
    probe: SharedProbe,
    probe_on: bool,
}

impl Trident {
    /// Builds the runtime.
    #[must_use]
    pub fn new(cfg: TridentConfig) -> Trident {
        Trident {
            profiler: BranchProfiler::new(cfg.profiler),
            watch: WatchTable::new(cfg.watch),
            code_cache: CodeCache::new(cfg.code_cache_base, cfg.code_cache_bytes),
            events: EventQueue::new(cfg.event_queue_cap),
            stats: TridentStats::default(),
            cfg,
            traces: HashMap::new(),
            head_of: HashMap::new(),
            original_head: HashMap::new(),
            next_id: 0,
            probe: tdo_obs::null_probe(),
            probe_on: false,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TridentConfig {
        &self.cfg
    }

    /// Attaches an observability probe; trace and queue events are recorded
    /// through it from now on.
    pub fn set_probe(&mut self, probe: SharedProbe) {
        self.probe_on = probe.borrow().enabled();
        self.probe = probe;
    }

    /// Records one event when a probe is attached (cheap boolean test
    /// otherwise — disabled runs construct no [`Event`] values).
    fn emit(&self, now: u64, ev: Event) {
        if self.probe_on {
            self.probe.borrow_mut().record(now, ev);
        }
    }

    /// Pushes `ev`, keeping the queue counters mirrored into
    /// [`TridentStats`] and the probe informed.
    fn enqueue(&mut self, now: u64, ev: HotEvent) {
        let (kind, pc) = match ev {
            HotEvent::HotTrace { head, .. } => (QueueEventKind::HotTrace, head),
            HotEvent::DelinquentLoad { load_pc, .. } => (QueueEventKind::DelinquentLoad, load_pc),
        };
        match self.events.push(ev) {
            PushOutcome::Queued => {
                self.stats.events_queued += 1;
                if self.probe_on {
                    let pending = self.events.len() as u32;
                    self.emit(now, Event::EventQueued { kind, pc, pending });
                }
            }
            PushOutcome::DroppedSaturated => {
                self.stats.events_dropped_saturated += 1;
                if self.probe_on {
                    self.emit(now, Event::EventDropped { kind, pc, reason: DropReason::Saturated });
                }
            }
            PushOutcome::DroppedDuplicate => {
                self.stats.events_dropped_duplicate += 1;
                if self.probe_on {
                    self.emit(now, Event::EventDropped { kind, pc, reason: DropReason::Duplicate });
                }
            }
        }
    }

    /// Feeds an original-code branch to the profiler at cycle `now`; a
    /// resulting hot-trace event is queued.
    pub fn observe_branch(
        &mut self,
        now: u64,
        pc: u64,
        taken: bool,
        target: u64,
        conditional: bool,
    ) {
        if let Some(ev) = self.profiler.observe_branch(pc, taken, target, conditional) {
            self.enqueue(now, ev);
        }
    }

    /// Queues an externally generated event (e.g. a delinquent-load event
    /// from the DLT) raised at cycle `now`.
    pub fn push_event(&mut self, now: u64, ev: HotEvent) {
        self.enqueue(now, ev);
    }

    /// Pops the oldest pending event.
    pub fn pop_event(&mut self) -> Option<HotEvent> {
        self.events.pop()
    }

    /// A registered trace.
    #[must_use]
    pub fn trace(&self, id: TraceId) -> Option<&Trace> {
        self.traces.get(&id)
    }

    /// Identifiers of every registered trace, in no particular order.
    pub fn trace_ids(&self) -> impl Iterator<Item = TraceId> + '_ {
        self.traces.keys().copied()
    }

    /// The trace currently linked at original-code `head`.
    #[must_use]
    pub fn linked_at(&self, head: u64) -> Option<TraceId> {
        self.head_of.get(&head).copied()
    }

    fn fresh_id(&mut self) -> TraceId {
        let id = TraceId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Forms, optimizes, and lays out a new trace for a hot-trace event.
    ///
    /// Nothing is registered yet: the returned [`PendingInstall`] is
    /// committed via [`Trident::commit_install`] when the helper thread
    /// finishes, and its patches are applied to the code image then.
    ///
    /// # Errors
    ///
    /// [`InstallError::Form`] when the head is unmapped, or
    /// [`InstallError::CacheFull`]/[`InstallError::WatchFull`] when hardware
    /// resources are exhausted.
    pub fn prepare_install(
        &mut self,
        now: u64,
        code: &impl CodeSource,
        head: u64,
        bitmap: u16,
        nbits: u8,
    ) -> Result<PendingInstall, InstallError> {
        let id = self.fresh_id();
        let (mut trace, _end) = form_trace(code, id, head, bitmap, nbits)?;
        if self.cfg.classical_opts {
            opt::optimize(&mut trace.insts);
        }
        self.emit(now, Event::TraceFormed { trace: id.0, head, insts: trace.insts.len() as u32 });
        self.layout(trace, None, code)
    }

    /// Lays out a re-optimized body for an existing trace (e.g. with
    /// prefetches inserted). The new trace takes over the old head link.
    ///
    /// # Errors
    ///
    /// [`InstallError::UnknownTrace`] when `old` is not registered, or a
    /// capacity error.
    pub fn prepare_reinstall(
        &mut self,
        now: u64,
        code: &impl CodeSource,
        old: TraceId,
        new_insts: Vec<TraceInst>,
    ) -> Result<PendingInstall, InstallError> {
        let (head, is_loop) = {
            let old_trace = self.traces.get(&old).ok_or(InstallError::UnknownTrace(old))?;
            (old_trace.head, old_trace.is_loop)
        };
        let id = self.fresh_id();
        self.emit(now, Event::TraceFormed { trace: id.0, head, insts: new_insts.len() as u32 });
        let trace = Trace { id, head, insts: new_insts, is_loop, cc_addr: 0 };
        self.layout(trace, Some(old), code)
    }

    fn layout(
        &mut self,
        mut trace: Trace,
        replaces: Option<TraceId>,
        code: &impl CodeSource,
    ) -> Result<PendingInstall, InstallError> {
        let Some(cc_addr) = self.code_cache.alloc(trace.insts.len()) else {
            self.stats.cache_full += 1;
            return Err(InstallError::CacheFull);
        };
        trace.cc_addr = cc_addr;
        let words = trace.encode_at(cc_addr).expect("trace displacements fit");
        let mut patches: Vec<Patch> = words
            .iter()
            .enumerate()
            .map(|(i, w)| Patch { addr: trace.cc_pc(i), word: *w })
            .collect();
        // The link: rewrite the head into a jump to the trace.
        let disp = Inst::disp_between(trace.head, cc_addr).expect("aligned");
        patches.push(Patch { addr: trace.head, word: encode(&Inst::Br { disp }).expect("fits") });
        // Remember the original head instruction for unlinking (only the
        // first time this head is patched).
        self.original_head
            .entry(trace.head)
            .or_insert_with(|| code.fetch_inst(trace.head).expect("formed trace head is mapped"));
        Ok(PendingInstall { trace, patches, replaces })
    }

    /// Registers a prepared installation; the caller applies
    /// `pending.patches` **plus the returned forwarding patches** to the
    /// code image at the same instant.
    ///
    /// When the installation replaces an older trace, execution may still be
    /// looping inside the old body — its loop-back branch is rewritten to
    /// jump into the new trace, so the running thread migrates at the next
    /// iteration boundary ("a thread's execution will then automatically
    /// start using the new hot trace", §3.2).
    ///
    /// # Errors
    ///
    /// [`InstallError::WatchFull`] when the watch table cannot accept the
    /// trace (the installation must then be abandoned and no patches
    /// applied).
    pub fn commit_install(
        &mut self,
        now: u64,
        pending: &PendingInstall,
    ) -> Result<Vec<Patch>, InstallError> {
        let trace = &pending.trace;
        let mut forwards = Vec::new();
        if let Some(old) = pending.replaces {
            if let Some(old_trace) = self.traces.remove(&old) {
                self.watch.remove(old);
                self.code_cache.retire(old_trace.insts.len());
                self.head_of.remove(&old_trace.head);
                forwards = forward_loopbacks(&old_trace, trace.cc_addr);
            }
            self.stats.reoptimizations += 1;
        }
        if !self.watch.insert(trace.id, trace.cc_addr, trace.insts.len() as u32) {
            return Err(InstallError::WatchFull);
        }
        self.head_of.insert(trace.head, trace.id);
        self.profiler.mark_traced(trace.head);
        self.traces.insert(trace.id, trace.clone());
        self.stats.traces_installed += 1;
        self.emit(
            now,
            Event::TraceInstalled {
                trace: trace.id.0,
                head: trace.head,
                cc_addr: trace.cc_addr,
                replaces: pending.replaces.map(|t| t.0),
            },
        );
        Ok(forwards)
    }

    /// Unlinks an under-performing trace: returns the patches restoring the
    /// original head instruction and forwarding the dead body's loop-back to
    /// the original head (execution may still be inside it). The head may be
    /// re-profiled later.
    ///
    /// # Errors
    ///
    /// [`InstallError::UnknownTrace`] when `id` is not registered.
    pub fn backout(&mut self, now: u64, id: TraceId) -> Result<Vec<Patch>, InstallError> {
        let trace = self.traces.remove(&id).ok_or(InstallError::UnknownTrace(id))?;
        self.watch.remove(id);
        self.head_of.remove(&trace.head);
        self.code_cache.retire(trace.insts.len());
        self.profiler.clear_traced(trace.head);
        self.stats.backouts += 1;
        self.emit(now, Event::TraceBackedOut { trace: id.0, head: trace.head });
        let orig = self.original_head[&trace.head];
        let mut patches =
            vec![Patch { addr: trace.head, word: encode(&orig).expect("round trip") }];
        patches.extend(forward_loopbacks(&trace, trace.head));
        Ok(patches)
    }

    /// Updates the registered body of `id` at `index` (keeps the registry in
    /// sync with an in-place repair patch applied by the prefetch optimizer).
    ///
    /// # Errors
    ///
    /// [`InstallError::UnknownTrace`] when `id` is not registered.
    pub fn update_trace_inst(
        &mut self,
        id: TraceId,
        index: usize,
        ti: TraceInst,
    ) -> Result<(), InstallError> {
        let t = self.traces.get_mut(&id).ok_or(InstallError::UnknownTrace(id))?;
        t.insts[index] = ti;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;
    use tdo_isa::{AluOp, Asm, Cond, Reg};

    fn loop_code() -> (Asm, impl CodeSource) {
        let (r1, r2) = (Reg::int(1), Reg::int(2));
        let mut a = Asm::new(0x1000);
        a.label("head");
        a.op(AluOp::Add, r2, r1, r2);
        a.op_imm(AluOp::Sub, r1, 1, r1);
        a.bcond_to(Cond::Ne, r1, "head");
        a.halt();
        let words = a.assemble().unwrap();
        let map: Map<u64, Inst> = words
            .iter()
            .enumerate()
            .map(|(i, w)| (0x1000 + i as u64 * 8, tdo_isa::decode(*w).unwrap()))
            .collect();
        (a, move |pc: u64| map.get(&pc).copied())
    }

    fn runtime() -> Trident {
        let mut cfg = TridentConfig::paper_baseline();
        cfg.code_cache_base = 0x10_0000;
        Trident::new(cfg)
    }

    #[test]
    fn install_links_head_and_watches_trace() {
        let (_, code) = loop_code();
        let mut t = runtime();
        let pending = t.prepare_install(0, &code, 0x1000, 0b1, 1).unwrap();
        assert_eq!(pending.trace.cc_addr, 0x10_0000);
        // Link patch is last and rewrites the head.
        let link = *pending.patches.last().unwrap();
        assert_eq!(link.addr, 0x1000);
        let link_inst = tdo_isa::decode(link.word).unwrap();
        assert_eq!(link_inst.branch_target(0x1000), Some(0x10_0000));

        t.commit_install(0, &pending).unwrap();
        let id = pending.trace.id;
        assert_eq!(t.linked_at(0x1000), Some(id));
        assert_eq!(t.watch.trace_at(0x10_0000), Some(id));
        assert_eq!(t.stats.traces_installed, 1);
    }

    #[test]
    fn reinstall_replaces_old_trace() {
        let (_, code) = loop_code();
        let mut t = runtime();
        let p1 = t.prepare_install(0, &code, 0x1000, 0b1, 1).unwrap();
        t.commit_install(0, &p1).unwrap();
        let old = p1.trace.id;
        let body = t.trace(old).unwrap().insts.clone();
        let p2 = t.prepare_reinstall(0, &code, old, body).unwrap();
        assert_eq!(p2.replaces, Some(old));
        t.commit_install(0, &p2).unwrap();
        assert!(t.trace(old).is_none());
        assert_eq!(t.linked_at(0x1000), Some(p2.trace.id));
        assert_eq!(t.watch.trace_at(p2.trace.cc_addr), Some(p2.trace.id));
        assert_eq!(t.stats.reoptimizations, 1);
    }

    #[test]
    fn backout_restores_original_head() {
        let (_, code) = loop_code();
        let mut t = runtime();
        let p = t.prepare_install(0, &code, 0x1000, 0b1, 1).unwrap();
        t.commit_install(0, &p).unwrap();
        let patches = t.backout(0, p.trace.id).unwrap();
        assert_eq!(patches[0].addr, 0x1000);
        let inst = tdo_isa::decode(patches[0].word).unwrap();
        assert!(matches!(inst, Inst::Op { op: AluOp::Add, .. }), "original add restored");
        // The dead body's loop-back is forwarded to the restored head.
        let fwd = patches.iter().find(|p| p.addr >= 0x10_0000).expect("loop-back forward");
        let fwd_inst = tdo_isa::decode(fwd.word).unwrap();
        assert_eq!(fwd_inst.branch_target(fwd.addr), Some(0x1000));
        assert_eq!(t.linked_at(0x1000), None);
        assert_eq!(t.stats.backouts, 1);
    }

    #[test]
    fn cache_exhaustion_is_reported() {
        let (_, code) = loop_code();
        let mut cfg = TridentConfig::paper_baseline();
        cfg.code_cache_base = 0x10_0000;
        cfg.code_cache_bytes = 8; // room for one instruction
        let mut t = Trident::new(cfg);
        assert!(matches!(
            t.prepare_install(0, &code, 0x1000, 0b1, 1),
            Err(InstallError::CacheFull)
        ));
        assert_eq!(t.stats.cache_full, 1);
    }

    #[test]
    fn unknown_trace_operations_error() {
        let mut t = runtime();
        assert!(matches!(t.backout(0, TraceId(42)), Err(InstallError::UnknownTrace(_))));
        let ti = crate::trace::TraceInst {
            op: crate::trace::TraceOp::LoopBack,
            orig_pc: 0,
            weight: 0,
            synthetic: false,
        };
        assert!(matches!(
            t.update_trace_inst(TraceId(42), 0, ti),
            Err(InstallError::UnknownTrace(_))
        ));
    }
}

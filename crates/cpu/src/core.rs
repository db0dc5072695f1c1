//! The cycle-based SMT core.
//!
//! Two hardware contexts share the fetch/issue bandwidth of one pipeline.
//! Context 0 runs the simulated program; context 1 is the *helper* context
//! that Trident occupies to run the dynamic optimizer concurrently with the
//! main thread (paper §3.1). The main thread has issue priority; the helper
//! consumes only leftover slots, which is what keeps the measured optimizer
//! overhead small (paper §5.1).
//!
//! The timing model is in-order issue with out-of-order completion: a
//! register scoreboard delays consumers of long-latency results (loads in
//! particular are non-blocking), which preserves the property the paper's
//! evaluation rests on — exposed memory latency, not raw pipeline shape,
//! dominates performance.

use tdo_isa::{AluOp, FpuOp, Inst, INST_BYTES};
use tdo_mem::{Hierarchy, Memory};

use crate::branch::BranchPredictor;
use crate::code::{CodeImage, PredecodedOp};
use crate::commit::{Commit, CommitKind};
use crate::config::CpuConfig;
use crate::stats::CpuStats;

/// Synthetic PC base used for helper-thread memory accesses so they are
/// distinguishable in the hierarchy's PC-indexed structures.
const HELPER_PC_BASE: u64 = 0x7f00_0000;

#[derive(Clone)]
struct Context {
    pc: u64,
    regs: [u64; 64],
    /// Scoreboard, one slot per register plus a permanently-ready 65th
    /// slot that [`crate::code::NO_USE`] operand indices point at — the
    /// issue loop then needs no `Option` tests on its sources.
    ready_at: [u64; 65],
    stall_until: u64,
    halted: bool,
}

impl Context {
    fn new(entry: u64) -> Context {
        Context { pc: entry, regs: [0; 64], ready_at: [0; 65], stall_until: 0, halted: false }
    }
}

/// A unit of optimizer work executed on the helper context.
///
/// The real analysis runs natively (in the Trident/prefetcher crates); this
/// job charges its *simulated* cost: a startup delay followed by a synthetic
/// instruction stream that occupies issue slots and touches the optimizer's
/// scratch memory.
#[derive(Clone, Copy, Debug)]
pub struct HelperJob {
    /// Caller-chosen identifier, reported back on completion.
    pub id: u64,
    /// Number of optimizer instructions to simulate.
    pub instructions: u64,
}

enum HelperState {
    Idle,
    Starting { job: HelperJob, ready_at: u64 },
    Running { job: HelperJob, remaining: u64, index: u64, dep_ready: u64 },
}

/// The SMT core.
pub struct Core {
    cfg: CpuConfig,
    /// The conditional-branch predictor (public for inspection).
    pub bp: BranchPredictor,
    cycle: u64,
    ctx: Context,
    helper: HelperState,
    finished_job: Option<u64>,
    commits: Vec<Commit>,
    /// Counters.
    pub stats: CpuStats,
}

impl Core {
    /// Builds a core whose main context starts at `entry`.
    #[must_use]
    pub fn new(cfg: CpuConfig, entry: u64) -> Core {
        Core {
            cfg,
            bp: BranchPredictor::paper_baseline(),
            cycle: 0,
            ctx: Context::new(entry),
            helper: HelperState::Idle,
            finished_job: None,
            commits: Vec::with_capacity(8),
            stats: CpuStats::default(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.cycle
    }

    /// Whether the main context has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.ctx.halted
    }

    /// Current main-thread PC (test/debug aid).
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.ctx.pc
    }

    /// Reads a main-thread register (test/debug aid).
    #[must_use]
    pub fn reg(&self, r: tdo_isa::Reg) -> u64 {
        self.ctx.regs[r.index()]
    }

    /// Whether the helper context is free to accept a job.
    #[must_use]
    pub fn helper_idle(&self) -> bool {
        matches!(self.helper, HelperState::Idle)
    }

    /// Starts an optimizer job on the helper context.
    ///
    /// Returns `false` (and does nothing) if the helper is busy — the caller
    /// must queue the event, as Trident does when no context is available.
    pub fn start_helper(&mut self, job: HelperJob) -> bool {
        if !self.helper_idle() {
            return false;
        }
        self.helper =
            HelperState::Starting { job, ready_at: self.cycle + self.cfg.helper_startup_cycles };
        true
    }

    /// Takes the id of a helper job that completed, if one just did.
    pub fn take_finished_job(&mut self) -> Option<u64> {
        self.finished_job.take()
    }

    /// If the core provably cannot commit anything before some future
    /// cycle, returns that cycle; `None` means work may happen right now.
    ///
    /// Only valid when the helper context is idle (a running helper makes
    /// progress every cycle). The main context is stalled until the later
    /// of its pipeline stall and the scoreboard readiness of the next
    /// instruction's sources; nothing else in the core advances state on
    /// an idle cycle, so the driver may batch-skip the clock to the hint
    /// (see [`Core::skip_to`]) without changing architectural behaviour.
    #[must_use]
    pub fn idle_hint(&self, code: &CodeImage) -> Option<u64> {
        if !matches!(self.helper, HelperState::Idle) || self.ctx.halted {
            return None;
        }
        let op = code.fetch_op(self.ctx.pc)?;
        if op.is_invalid() {
            return None; // let the issue path fault loudly
        }
        let t = self
            .ctx
            .stall_until
            .max(self.ctx.ready_at[op.use0 as usize])
            .max(self.ctx.ready_at[op.use1 as usize]);
        (t > self.cycle).then_some(t)
    }

    /// Advances the clock to `target` without issuing — the batched
    /// equivalent of running `target - now` empty cycles. Callers must
    /// first prove idleness via [`Core::idle_hint`].
    pub fn skip_to(&mut self, target: u64) {
        debug_assert!(target >= self.cycle, "skip_to may not rewind");
        self.stats.cycles += target - self.cycle;
        self.cycle = target;
    }

    /// Hands the commits of the last [`Core::cycle`] to the caller by
    /// swapping buffers: `buf` receives them, and its previous contents
    /// become the core's buffer, which the next cycle clears. No commit is
    /// copied, and once both buffers have grown nothing allocates.
    pub fn swap_commits(&mut self, buf: &mut Vec<Commit>) {
        std::mem::swap(&mut self.commits, buf);
    }

    /// Runs one cycle. Its commits are taken with [`Core::swap_commits`].
    pub fn cycle(&mut self, code: &CodeImage, data: &mut Memory, hier: &mut Hierarchy) {
        self.commits.clear();
        let mut budget = self.cfg.issue_width;
        let mut mem_ports = self.cfg.mem_ports;
        let mut fp_units = self.cfg.fp_units;

        self.issue_main(code, data, hier, &mut budget, &mut mem_ports, &mut fp_units);
        self.issue_helper(hier, &mut budget, &mut mem_ports);

        self.cycle += 1;
        self.stats.cycles += 1;
    }

    #[allow(clippy::too_many_lines)]
    fn issue_main(
        &mut self,
        code: &CodeImage,
        data: &mut Memory,
        hier: &mut Hierarchy,
        budget: &mut u32,
        mem_ports: &mut u32,
        fp_units: &mut u32,
    ) {
        let now = self.cycle;
        while *budget > 0 {
            if self.ctx.halted || self.ctx.stall_until > now {
                return;
            }
            let pc = self.ctx.pc;
            let Some(op) = code.fetch_op(pc) else {
                // Ran off mapped code: treat as halt.
                self.ctx.halted = true;
                self.commits.push(Commit { pc, cycle: now, kind: CommitKind::Halt });
                return;
            };
            if op.is_invalid() {
                // A mapped word that does not decode is image corruption
                // (bad optimizer patch, predecoder bug) — fail loudly.
                panic!("invalid instruction word {:#018x} at pc {pc:#x}", op.target);
            }

            // Scoreboard: in-order issue waits for source operands. The
            // predecoded indices point at real registers or the
            // always-ready 65th slot.
            if self.ctx.ready_at[op.use0 as usize] > now
                || self.ctx.ready_at[op.use1 as usize] > now
            {
                return;
            }
            // Structural hazards, from predecoded flags.
            if op.flags & PredecodedOp::F_MEM != 0 && *mem_ports == 0 {
                return;
            }
            if op.flags & PredecodedOp::F_FP != 0 && *fp_units == 0 {
                return;
            }

            let mut next_pc = pc + INST_BYTES;
            let mut kind = CommitKind::Simple;
            let mut redirect = false;

            match op.inst {
                Inst::Nop => {}
                Inst::Op { op, ra, rb, rc } => {
                    let v = op.apply(self.ctx.regs[ra.index()], self.ctx.regs[rb.index()]);
                    self.write_reg(rc, v, now + self.int_latency(op));
                }
                Inst::OpImm { op, ra, imm, rc } => {
                    let v = op.apply(self.ctx.regs[ra.index()], imm as u64);
                    self.write_reg(rc, v, now + self.int_latency(op));
                }
                Inst::Lda { ra, rb, imm } => {
                    let v = self.ctx.regs[rb.index()].wrapping_add(imm as u64);
                    self.write_reg(ra, v, now + 1);
                }
                Inst::Move { ra, rc } => {
                    let v = self.ctx.regs[ra.index()];
                    self.write_reg(rc, v, now + 1);
                }
                Inst::FOp { op, ra, rb, rc } => {
                    let v = op.apply(self.ctx.regs[ra.index()], self.ctx.regs[rb.index()]);
                    let lat = match op {
                        FpuOp::Add | FpuOp::Sub => self.cfg.fp_add_latency,
                        FpuOp::Mul => self.cfg.fp_mul_latency,
                        FpuOp::Div => self.cfg.fp_div_latency,
                    };
                    self.write_reg(rc, v, now + lat);
                    *fp_units -= 1;
                }
                Inst::Load { ra, rb, off, kind: _ } => {
                    let addr = self.ctx.regs[rb.index()].wrapping_add(off as u64);
                    let value = data.read_u64(addr);
                    let result = hier.load(now, pc, addr);
                    self.write_reg(ra, value, now + result.latency);
                    self.stats.main_loads += 1;
                    *mem_ports -= 1;
                    kind = CommitKind::Load { addr, result };
                }
                Inst::Store { ra, rb, off } => {
                    let addr = self.ctx.regs[rb.index()].wrapping_add(off as u64);
                    data.write_u64(addr, self.ctx.regs[ra.index()]);
                    hier.store(now, pc, addr);
                    self.stats.main_stores += 1;
                    *mem_ports -= 1;
                    kind = CommitKind::Store { addr };
                }
                Inst::Prefetch { base, off, stride, dist } => {
                    let delta = i64::from(off) + i64::from(stride) * i64::from(dist);
                    let addr = self.ctx.regs[base.index()].wrapping_add(delta as u64);
                    let outcome = hier.sw_prefetch(now, pc, addr);
                    self.stats.main_prefetches += 1;
                    *mem_ports -= 1;
                    kind = CommitKind::Prefetch { addr, outcome };
                }
                Inst::Br { .. } => {
                    let target = op.target;
                    next_pc = target;
                    redirect = true;
                    kind = CommitKind::Jump { target };
                }
                Inst::Bcond { cond, ra, .. } => {
                    let taken = cond.eval(self.ctx.regs[ra.index()]);
                    let target = op.target;
                    let mispredicted = self.bp.predict_and_update(pc, taken);
                    if taken {
                        next_pc = target;
                        redirect = true;
                    }
                    if mispredicted {
                        self.ctx.stall_until = now + self.cfg.mispredict_penalty;
                        redirect = true;
                    }
                    kind = CommitKind::Branch { taken, target, mispredicted };
                }
                Inst::Jmp { rb } => {
                    let target = self.ctx.regs[rb.index()];
                    next_pc = target;
                    redirect = true;
                    kind = CommitKind::Jump { target };
                }
                Inst::Halt => {
                    self.ctx.halted = true;
                    kind = CommitKind::Halt;
                }
            }

            self.ctx.pc = next_pc;
            self.stats.main_committed += 1;
            *budget -= 1;
            self.commits.push(Commit { pc, cycle: now, kind });
            if redirect || self.ctx.halted {
                // Cannot fetch past a taken control transfer in the same cycle.
                return;
            }
        }
    }

    fn int_latency(&self, op: AluOp) -> u64 {
        match op {
            AluOp::Mul => self.cfg.int_mul_latency,
            _ => 1,
        }
    }

    fn write_reg(&mut self, r: tdo_isa::Reg, value: u64, ready_at: u64) {
        if r.is_zero() {
            return;
        }
        self.ctx.regs[r.index()] = value;
        self.ctx.ready_at[r.index()] = ready_at;
    }

    fn issue_helper(&mut self, hier: &mut Hierarchy, budget: &mut u32, mem_ports: &mut u32) {
        let now = self.cycle;
        match self.helper {
            HelperState::Idle => return,
            HelperState::Starting { job, ready_at } => {
                self.stats.helper_active_cycles += 1;
                if now >= ready_at {
                    self.helper = HelperState::Running {
                        job,
                        remaining: job.instructions,
                        index: 0,
                        dep_ready: 0,
                    };
                }
                return;
            }
            HelperState::Running { .. } => {}
        }
        self.stats.helper_active_cycles += 1;
        let HelperState::Running { job, mut remaining, mut index, mut dep_ready } = self.helper
        else {
            unreachable!("matched above");
        };
        while *budget > 0 && remaining > 0 {
            if dep_ready > now {
                break;
            }
            // Every eighth optimizer instruction reads the optimizer's
            // in-memory work buffer (trace bodies, DLT snapshots, repair
            // history); the next instruction consumes the loaded value.
            if index % 8 == 0 {
                if *mem_ports == 0 {
                    break;
                }
                let addr =
                    self.cfg.helper_scratch_base + (index * 64) % self.cfg.helper_scratch_bytes;
                let r = hier.load(now, HELPER_PC_BASE + (index % 64) * 8, addr);
                dep_ready = now + r.latency;
                *mem_ports -= 1;
            }
            remaining -= 1;
            index += 1;
            *budget -= 1;
            self.stats.helper_committed += 1;
        }
        if remaining == 0 {
            self.finished_job = Some(job.id);
            self.stats.helper_jobs += 1;
            self.helper = HelperState::Idle;
        } else {
            self.helper = HelperState::Running { job, remaining, index, dep_ready };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdo_isa::{Asm, Cond, Program, Reg};
    use tdo_mem::MemConfig;

    fn run_program(asm: &Asm, max_cycles: u64) -> (Core, Memory) {
        let code = asm.assemble().expect("assembles");
        let prog = Program {
            name: "t".into(),
            entry: asm.base(),
            code_base: asm.base(),
            code,
            data: vec![],
        };
        let img = CodeImage::new(&prog, 0x100_0000);
        let mut data = Memory::new();
        let mut hier = Hierarchy::new(MemConfig::tiny_for_tests());
        let mut core = Core::new(CpuConfig::paper_baseline(), prog.entry);
        for _ in 0..max_cycles {
            core.cycle(&img, &mut data, &mut hier);
            if core.halted() {
                break;
            }
        }
        (core, data)
    }

    #[test]
    fn computes_a_sum_loop() {
        let (r1, r2) = (Reg::int(1), Reg::int(2));
        let mut a = Asm::new(0x1000);
        a.li(r1, 10);
        a.label("loop");
        a.op(AluOp::Add, r2, r1, r2); // r2 += r1
        a.op_imm(AluOp::Sub, r1, 1, r1);
        a.bcond_to(Cond::Ne, r1, "loop");
        a.halt();
        let (core, _) = run_program(&a, 100_000);
        assert!(core.halted());
        assert_eq!(core.reg(r2), 10 + 9 + 8 + 7 + 6 + 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let (rp, rv) = (Reg::int(1), Reg::int(2));
        let mut a = Asm::new(0x1000);
        a.li(rp, 0x8000);
        a.li(rv, 1234);
        a.stq(rv, rp, 0);
        a.ldq(Reg::int(3), rp, 0);
        a.halt();
        let (core, data) = run_program(&a, 100_000);
        assert_eq!(core.reg(Reg::int(3)), 1234);
        assert_eq!(data.read_u64(0x8000), 1234);
    }

    #[test]
    fn zero_register_stays_zero() {
        let mut a = Asm::new(0x1000);
        a.lda(Reg::ZERO, Reg::ZERO, 99);
        a.op_imm(AluOp::Add, Reg::ZERO, 5, Reg::ZERO);
        a.halt();
        let (core, _) = run_program(&a, 1000);
        assert_eq!(core.reg(Reg::ZERO), 0);
    }

    #[test]
    fn load_latency_stalls_dependent_instruction() {
        // A load from cold memory followed immediately by a consumer: the
        // total runtime must include the full memory latency.
        let (rp, rv, rs) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let mut a = Asm::new(0x1000);
        a.li(rp, 0x10_0000);
        a.ldq(rv, rp, 0);
        a.op(AluOp::Add, rs, rv, rs);
        a.halt();
        let (core, _) = run_program(&a, 100_000);
        assert!(core.stats.cycles >= 350, "cycles: {}", core.stats.cycles);
    }

    #[test]
    fn independent_instructions_issue_during_load_miss() {
        // The same cold load, but followed by 200 independent ALU ops before
        // the consumer: most of the miss is overlapped.
        let (rp, rv, rs, rt) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        let mut with_work = Asm::new(0x1000);
        with_work.li(rp, 0x10_0000);
        with_work.ldq(rv, rp, 0);
        for _ in 0..200 {
            with_work.op_imm(AluOp::Add, rt, 1, rt);
        }
        with_work.op(AluOp::Add, rs, rv, rs);
        with_work.halt();
        let (c1, _) = run_program(&with_work, 100_000);
        // Upper bound: latency + independent work serialized would be ~560.
        assert!(
            c1.stats.cycles < 450,
            "independent work should overlap the miss: {}",
            c1.stats.cycles
        );
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // A data-dependent unpredictable branch pattern costs more cycles
        // than a fixed pattern of the same instruction count.
        fn loop_with(pattern: fn(u64) -> i64) -> u64 {
            let (ri, rx, rc) = (Reg::int(1), Reg::int(2), Reg::int(3));
            let mut a = Asm::new(0x1000);
            a.li(ri, 2000);
            a.label("loop");
            // rx = pseudo-random-ish value derived from ri
            a.op_imm(AluOp::Mul, ri, pattern(0), rx);
            a.op_imm(AluOp::And, rx, 1, rx);
            a.bcond_to(Cond::Ne, rx, "skip");
            a.op_imm(AluOp::Add, rc, 1, rc);
            a.label("skip");
            a.op_imm(AluOp::Sub, ri, 1, ri);
            a.bcond_to(Cond::Ne, ri, "loop");
            a.halt();
            let (core, _) = run_program(&a, 1_000_000);
            core.stats.cycles
        }
        // Multiplier 2 => rx always even => branch never taken (predictable).
        let predictable = loop_with(|_| 2);
        // Multiplier 0x9E3779B97F4A7C15 & odd => alternating-ish pattern is
        // still learnable; use a multiplier that yields an irregular bit.
        let noisy = loop_with(|_| 0x5DEECE66D_i64);
        assert!(noisy >= predictable, "noisy {noisy} < predictable {predictable}");
    }

    #[test]
    fn helper_job_runs_at_low_priority_and_completes() {
        let (r1, r2) = (Reg::int(1), Reg::int(2));
        let mut a = Asm::new(0x1000);
        a.li(r1, 500_000);
        a.label("loop");
        a.op(AluOp::Add, r2, r1, r2);
        a.op_imm(AluOp::Sub, r1, 1, r1);
        a.bcond_to(Cond::Ne, r1, "loop");
        a.halt();
        let code = a.assemble().unwrap();
        let prog =
            Program { name: "t".into(), entry: 0x1000, code_base: 0x1000, code, data: vec![] };
        let img = CodeImage::new(&prog, 0x100_0000);
        let mut data = Memory::new();
        let mut hier = Hierarchy::new(MemConfig::tiny_for_tests());
        let mut core = Core::new(CpuConfig::paper_baseline(), prog.entry);
        assert!(core.start_helper(HelperJob { id: 7, instructions: 3000 }));
        assert!(!core.start_helper(HelperJob { id: 8, instructions: 1 }), "busy");
        let mut finished = None;
        for _ in 0..2_000_000 {
            core.cycle(&img, &mut data, &mut hier);
            if let Some(id) = core.take_finished_job() {
                finished = Some((id, core.now()));
            }
            if core.halted() {
                break;
            }
        }
        let (id, at) = finished.expect("job finishes");
        assert_eq!(id, 7);
        assert!(at >= 2000, "startup latency respected, finished at {at}");
        assert!(core.stats.helper_active_cycles >= 2000);
        assert!(core.stats.helper_committed == 3000);
        // Main thread still made progress to completion.
        assert!(core.halted());
    }

    #[test]
    #[should_panic(expected = "invalid instruction word")]
    fn executing_an_invalid_word_panics() {
        let mut a = Asm::new(0x1000);
        a.halt();
        let code = a.assemble().unwrap();
        let prog =
            Program { name: "t".into(), entry: 0x1000, code_base: 0x1000, code, data: vec![] };
        let mut img = CodeImage::new(&prog, 0x100_0000);
        img.write_word(0x1000, 0xff << 56).unwrap(); // unknown opcode
        let mut data = Memory::new();
        let mut hier = Hierarchy::new(MemConfig::tiny_for_tests());
        let mut core = Core::new(CpuConfig::paper_baseline(), prog.entry);
        core.cycle(&img, &mut data, &mut hier);
    }

    #[test]
    fn idle_skip_matches_cycle_by_cycle_execution() {
        // A cold load followed by a dependent consumer exposes a long
        // scoreboard stall; driving it with idle_hint/skip_to must land on
        // the same architectural state and cycle count as stepping through
        // every stall cycle.
        fn program() -> Asm {
            let (rp, rv, rs) = (Reg::int(1), Reg::int(2), Reg::int(3));
            let mut a = Asm::new(0x1000);
            a.li(rp, 0x10_0000);
            a.ldq(rv, rp, 0);
            a.op(AluOp::Add, rs, rv, rs);
            a.halt();
            a
        }
        let run = |skip: bool| {
            let code = program().assemble().unwrap();
            let prog =
                Program { name: "t".into(), entry: 0x1000, code_base: 0x1000, code, data: vec![] };
            let img = CodeImage::new(&prog, 0x100_0000);
            let mut data = Memory::new();
            let mut hier = Hierarchy::new(MemConfig::tiny_for_tests());
            let mut core = Core::new(CpuConfig::paper_baseline(), prog.entry);
            for _ in 0..100_000 {
                if skip {
                    if let Some(t) = core.idle_hint(&img) {
                        core.skip_to(t);
                    }
                }
                core.cycle(&img, &mut data, &mut hier);
                if core.halted() {
                    break;
                }
            }
            (core.stats.cycles, core.reg(Reg::int(3)), core.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn halt_commit_is_reported() {
        let mut a = Asm::new(0x1000);
        a.halt();
        let code = a.assemble().unwrap();
        let prog =
            Program { name: "t".into(), entry: 0x1000, code_base: 0x1000, code, data: vec![] };
        let img = CodeImage::new(&prog, 0x100_0000);
        let mut data = Memory::new();
        let mut hier = Hierarchy::new(MemConfig::tiny_for_tests());
        let mut core = Core::new(CpuConfig::paper_baseline(), prog.entry);
        core.cycle(&img, &mut data, &mut hier);
        let mut commits = Vec::new();
        core.swap_commits(&mut commits);
        assert!(matches!(commits[0].kind, CommitKind::Halt));
    }
}

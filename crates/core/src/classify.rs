//! Delinquent-load classification (paper §3.4.1).
//!
//! The optimizer partitions the delinquent loads of a hot trace into
//! *Stride*, *Pointer*, and *Same Object* classes:
//!
//! * **Stride** — the recurrence between instances of the load's base
//!   register is a single simple arithmetic instruction with a constant
//!   (`lda`/`add`/`sub` immediate), *or* the DLT found the load stride
//!   predictable in hardware (which catches pointer chains over
//!   sequentially allocated objects);
//! * **Pointer** — the load's destination is used, before modification, as
//!   the base register of another load;
//! * **Same Object** — loads sharing the same live base-register value form
//!   a group that one prefetch per cache line can cover.

use std::collections::HashMap;

use tdo_isa::{AluOp, Inst, LoadKind, Reg};
use tdo_trident::{Trace, TraceOp};

use crate::dlt::Dlt;

/// How a load's address recurs across trace iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadClass {
    /// Stride-recurrent with the given byte stride per iteration.
    Stride {
        /// Byte stride per iteration.
        stride: i64,
    },
    /// Pointer load (destination feeds another load's base).
    Pointer,
    /// Neither: not prefetchable by this optimizer.
    Other,
}

/// One classified load in the trace.
#[derive(Clone, Copy, Debug)]
pub struct LoadInfo {
    /// Index of the load in the trace body.
    pub index: usize,
    /// Base register.
    pub base: Reg,
    /// SSA-like version of the base value this load observes.
    pub base_version: u32,
    /// Byte offset from the base register.
    pub off: i64,
    /// Destination register.
    pub dest: Reg,
    /// Load flavour.
    pub kind: LoadKind,
    /// Classification.
    pub class: LoadClass,
    /// Whether the destination feeds another load's base before being
    /// redefined — true for [`LoadClass::Pointer`] loads but also for
    /// stride-classified pointer loads (e.g. a strided walk over an array
    /// of pointers), which enables jump-pointer prefetching (§3.4.3).
    pub is_pointer: bool,
    /// Whether the DLT currently reports this load delinquent.
    pub delinquent: bool,
}

/// A *Same Object* group: loads seeing the same base value.
#[derive(Clone, Debug)]
pub struct ObjectGroup {
    /// Shared base register.
    pub base: Reg,
    /// Shared base-value version.
    pub base_version: u32,
    /// Indices into the classification's load list, sorted by offset.
    pub members: Vec<usize>,
    /// The group's stride, when at least one delinquent member is a stride
    /// load (making the whole group stride-address predictable, §3.4.2).
    pub stride: Option<i64>,
    /// Whether the shared base register is itself loaded by a pointer load
    /// in the trace (enables pointer-dereference prefetching for the group).
    pub pointer_base: bool,
}

/// Result of analyzing one trace.
#[derive(Clone, Debug, Default)]
pub struct Classification {
    /// All loads in the trace, in trace order.
    pub loads: Vec<LoadInfo>,
    /// Same-object groups over those loads.
    pub groups: Vec<ObjectGroup>,
}

/// Finds the single-instruction constant recurrence of `reg` in the trace
/// body, if any: exactly one instruction writes `reg`, and it is
/// `lda reg, c(reg)` or `addi/subi reg, c, reg`.
fn code_stride_of(trace: &Trace, reg: Reg) -> Option<i64> {
    let mut stride = None;
    let mut writes = 0;
    for ti in &trace.insts {
        let TraceOp::Real(inst) = ti.op else { continue };
        if inst.def() != Some(reg) {
            continue;
        }
        writes += 1;
        if writes > 1 {
            return None;
        }
        stride = match inst {
            Inst::Lda { ra, rb, imm } if ra == reg && rb == reg => Some(imm),
            Inst::OpImm { op: AluOp::Add, ra, imm, rc } if ra == reg && rc == reg => Some(imm),
            Inst::OpImm { op: AluOp::Sub, ra, imm, rc } if ra == reg && rc == reg => Some(-imm),
            _ => None,
        };
    }
    // Only loop traces see the recurrence again next iteration.
    if trace.is_loop {
        stride.filter(|s| *s != 0)
    } else {
        None
    }
}

/// Whether `dest` of the load at `index` feeds the base of another load
/// before being redefined (scanning forward, wrapping on loop traces).
fn is_pointer_load(trace: &Trace, index: usize, dest: Reg) -> bool {
    let n = trace.insts.len();
    let limit = if trace.is_loop { n } else { n - index - 1 };
    for step in 1..=limit {
        let i = (index + step) % n;
        let TraceOp::Real(inst) = trace.insts[i].op else { continue };
        if let Inst::Load { rb, .. } = inst {
            if rb == dest {
                return true;
            }
        }
        if inst.def() == Some(dest) {
            return false;
        }
    }
    false
}

/// Analyzes the trace against the DLT's current statistics.
///
/// `cc_pc_of` maps a trace index to the load's monitored PC (its code-cache
/// address, or its original PC for a not-yet-prefetched trace being
/// re-optimized — the DLT is tagged with the address the load *executes* at).
#[must_use]
pub fn classify(trace: &Trace, dlt: &Dlt, cc_pc_of: impl Fn(usize) -> u64) -> Classification {
    // Pass 1: base-value versioning.
    let mut version: HashMap<Reg, u32> = HashMap::new();
    let mut loads: Vec<LoadInfo> = Vec::new();
    for (i, ti) in trace.insts.iter().enumerate() {
        let TraceOp::Real(inst) = ti.op else { continue };
        // Optimizer-inserted loads (pointer dereferences) are not
        // classification subjects — they already are prefetch machinery.
        if let (Inst::Load { ra, rb, off, kind }, false) = (inst, ti.synthetic) {
            loads.push(LoadInfo {
                index: i,
                base: rb,
                base_version: version.get(&rb).copied().unwrap_or(0),
                off,
                dest: ra,
                kind,
                class: LoadClass::Other,
                is_pointer: false,
                delinquent: false,
            });
        }
        if let Some(d) = inst.def() {
            *version.entry(d).or_insert(0) += 1;
        }
    }

    // Pass 2: per-load classification.
    for li in &mut loads {
        let pc = cc_pc_of(li.index);
        li.delinquent = dlt.is_delinquent(pc);
        let code_stride = code_stride_of(trace, li.base);
        let hw_stride = dlt.snapshot(pc).filter(|s| s.stride_predictable).map(|s| s.stride);
        li.is_pointer = is_pointer_load(trace, li.index, li.dest);
        li.class = if let Some(s) = code_stride.or(hw_stride) {
            LoadClass::Stride { stride: s }
        } else if li.is_pointer {
            LoadClass::Pointer
        } else {
            LoadClass::Other
        };
    }

    // Pass 3: same-object grouping by (base, version).
    let mut group_of: HashMap<(Reg, u32), usize> = HashMap::new();
    let mut groups: Vec<ObjectGroup> = Vec::new();
    for (li_idx, li) in loads.iter().enumerate() {
        let key = (li.base, li.base_version);
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(ObjectGroup {
                base: li.base,
                base_version: li.base_version,
                members: Vec::new(),
                stride: None,
                pointer_base: false,
            });
            groups.len() - 1
        });
        groups[g].members.push(li_idx);
    }
    for g in &mut groups {
        g.members.sort_by_key(|&m| loads[m].off);
        // Group stride: from any delinquent stride member (paper: "as long
        // as a same object group has at least one delinquent load that is
        // Stride predictable, the whole group is stride address
        // predictable"); fall back to any stride member.
        let stride_of = |m: &usize| match loads[*m].class {
            LoadClass::Stride { stride } => Some(stride),
            _ => None,
        };
        g.stride = g
            .members
            .iter()
            .filter(|&&m| loads[m].delinquent)
            .find_map(stride_of)
            .or_else(|| g.members.iter().find_map(stride_of));
        // Pointer base: the group's base register is produced by a load.
        g.pointer_base = loads.iter().any(|other| {
            other.dest == g.base
                && matches!(other.class, LoadClass::Pointer | LoadClass::Stride { .. })
        }) || trace
            .insts
            .iter()
            .any(|ti| matches!(ti.op, TraceOp::Real(Inst::Load { ra, .. }) if ra == g.base));
    }

    Classification { loads, groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlt::DltConfig;
    use tdo_isa::Cond;
    use tdo_trident::{TraceId, TraceInst};

    fn ti(op: TraceOp) -> TraceInst {
        TraceInst { op, orig_pc: 0, weight: 1, synthetic: false }
    }

    fn r(i: u8) -> Reg {
        Reg::int(i)
    }

    fn mk_trace(ops: Vec<TraceOp>, is_loop: bool) -> Trace {
        Trace {
            id: TraceId(0),
            head: 0x1000,
            insts: ops.into_iter().map(ti).collect(),
            is_loop,
            cc_addr: 0x10_0000,
        }
    }

    fn empty_dlt() -> Dlt {
        Dlt::new(DltConfig { entries: 64, assoc: 2, ..DltConfig::paper_baseline() })
    }

    /// Makes `pc` delinquent and stride-predictable (or not) in the DLT.
    fn prime(dlt: &mut Dlt, pc: u64, stride: u64) {
        for i in 0..64u64 {
            dlt.observe(pc, 0x9_0000 + i * stride, i % 2 == 0, 300);
        }
    }

    #[test]
    fn code_stride_via_lda_recurrence() {
        // loop: ldq r2, 0(r1); ldq r3, 8(r1); lda r1, 16(r1); exit; loopback
        let t = mk_trace(
            vec![
                TraceOp::Real(Inst::Load { ra: r(2), rb: r(1), off: 0, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Load { ra: r(3), rb: r(1), off: 8, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Lda { ra: r(1), rb: r(1), imm: 16 }),
                TraceOp::CondExit { cond: Cond::Eq, ra: r(4), to: 0x2000 },
                TraceOp::LoopBack,
            ],
            true,
        );
        let mut dlt = empty_dlt();
        prime(&mut dlt, t.cc_pc(0), 16);
        let c = classify(&t, &dlt, |i| t.cc_pc(i));
        assert_eq!(c.loads.len(), 2);
        assert_eq!(c.loads[0].class, LoadClass::Stride { stride: 16 });
        assert!(c.loads[0].delinquent);
        // Both loads share base version 0 of r1 → one group, sorted by off.
        assert_eq!(c.groups.len(), 1);
        assert_eq!(c.groups[0].members, vec![0, 1]);
        assert_eq!(c.groups[0].stride, Some(16));
    }

    #[test]
    fn base_update_splits_same_object_groups() {
        // ldq r2, 0(r1); lda r1, 8(r1); ldq r3, 0(r1) — different versions.
        let t = mk_trace(
            vec![
                TraceOp::Real(Inst::Load { ra: r(2), rb: r(1), off: 0, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Lda { ra: r(1), rb: r(1), imm: 8 }),
                TraceOp::Real(Inst::Load { ra: r(3), rb: r(1), off: 0, kind: LoadKind::Int }),
                TraceOp::LoopBack,
            ],
            true,
        );
        let dlt = empty_dlt();
        let c = classify(&t, &dlt, |i| t.cc_pc(i));
        assert_eq!(c.groups.len(), 2);
    }

    #[test]
    fn pointer_chase_is_pointer_class() {
        // loop: ldq r1, 8(r1) — dest feeds its own base next iteration.
        let t = mk_trace(
            vec![
                TraceOp::Real(Inst::Load { ra: r(1), rb: r(1), off: 8, kind: LoadKind::Int }),
                TraceOp::CondExit { cond: Cond::Eq, ra: r(1), to: 0x2000 },
                TraceOp::LoopBack,
            ],
            true,
        );
        let dlt = empty_dlt();
        let c = classify(&t, &dlt, |i| t.cc_pc(i));
        assert_eq!(c.loads[0].class, LoadClass::Pointer);
    }

    #[test]
    fn hardware_stride_promotes_pointer_chains() {
        // Same pointer chase, but the DLT saw a constant stride (sequential
        // allocation): classified Stride.
        let t = mk_trace(
            vec![
                TraceOp::Real(Inst::Load { ra: r(1), rb: r(1), off: 8, kind: LoadKind::Int }),
                TraceOp::CondExit { cond: Cond::Eq, ra: r(1), to: 0x2000 },
                TraceOp::LoopBack,
            ],
            true,
        );
        let mut dlt = empty_dlt();
        prime(&mut dlt, t.cc_pc(0), 48);
        let c = classify(&t, &dlt, |i| t.cc_pc(i));
        assert_eq!(c.loads[0].class, LoadClass::Stride { stride: 48 });
    }

    #[test]
    fn dest_redefinition_blocks_pointer_class() {
        // ldq r2, 0(r1); lda r2, 1(r31) — r2 overwritten before any use as base.
        let t = mk_trace(
            vec![
                TraceOp::Real(Inst::Load { ra: r(2), rb: r(1), off: 0, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Lda { ra: r(2), rb: Reg::ZERO, imm: 1 }),
                TraceOp::Real(Inst::Load { ra: r(3), rb: r(2), off: 0, kind: LoadKind::Int }),
                TraceOp::LoopBack,
            ],
            true,
        );
        let dlt = empty_dlt();
        let c = classify(&t, &dlt, |i| t.cc_pc(i));
        // Load 0 dest r2 is redefined before use as a base... but the lda
        // makes r2 a new value whose load is unrelated. Load 0 is Other.
        assert_eq!(c.loads[0].class, LoadClass::Other);
    }

    #[test]
    fn two_base_writes_disqualify_code_stride() {
        let t = mk_trace(
            vec![
                TraceOp::Real(Inst::Load { ra: r(2), rb: r(1), off: 0, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Lda { ra: r(1), rb: r(1), imm: 8 }),
                TraceOp::Real(Inst::Lda { ra: r(1), rb: r(1), imm: 8 }),
                TraceOp::LoopBack,
            ],
            true,
        );
        let dlt = empty_dlt();
        let c = classify(&t, &dlt, |i| t.cc_pc(i));
        assert_eq!(c.loads[0].class, LoadClass::Other);
    }

    #[test]
    fn non_loop_traces_have_no_code_stride() {
        let t = mk_trace(
            vec![
                TraceOp::Real(Inst::Load { ra: r(2), rb: r(1), off: 0, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Lda { ra: r(1), rb: r(1), imm: 8 }),
                TraceOp::JumpBack { to: 0x2000 },
            ],
            false,
        );
        let dlt = empty_dlt();
        let c = classify(&t, &dlt, |i| t.cc_pc(i));
        assert_eq!(c.loads[0].class, LoadClass::Other);
    }

    #[test]
    fn group_members_are_sorted_by_offset() {
        let t = mk_trace(
            vec![
                TraceOp::Real(Inst::Load { ra: r(2), rb: r(1), off: 24, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Load { ra: r(3), rb: r(1), off: 0, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Load { ra: r(4), rb: r(1), off: 8, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Lda { ra: r(1), rb: r(1), imm: 32 }),
                TraceOp::LoopBack,
            ],
            true,
        );
        let dlt = empty_dlt();
        let c = classify(&t, &dlt, |i| t.cc_pc(i));
        assert_eq!(c.groups.len(), 1);
        let offs: Vec<i64> = c.groups[0].members.iter().map(|&m| c.loads[m].off).collect();
        assert_eq!(offs, vec![0, 8, 24]);
    }

    #[test]
    fn pointer_base_groups_are_detected() {
        // `pointer_base` detects a base register fed by a load.
        let t = mk_trace(
            vec![
                TraceOp::Real(Inst::Load { ra: r(5), rb: r(1), off: 0, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Load { ra: r(6), rb: r(5), off: 8, kind: LoadKind::Int }),
                TraceOp::Real(Inst::Load { ra: r(7), rb: r(5), off: 16, kind: LoadKind::Int }),
                TraceOp::LoopBack,
            ],
            true,
        );
        let dlt = empty_dlt();
        let c = classify(&t, &dlt, |i| t.cc_pc(i));
        let g5 = c.groups.iter().find(|g| g.base == r(5)).unwrap();
        assert!(g5.pointer_base);
        assert_eq!(g5.members.len(), 2);
    }
}

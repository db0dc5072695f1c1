//! Instruction definitions, operand accessors and def/use analysis.

use std::fmt;

use crate::reg::Reg;

/// Width of one encoded instruction in bytes. The program counter advances by
/// this amount after every non-branching instruction.
pub const INST_BYTES: u64 = 8;

/// Integer ALU operations (register/register and register/immediate forms).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// `rc = ra + rb`
    Add,
    /// `rc = ra - rb`
    Sub,
    /// `rc = ra * rb` (low 64 bits)
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Sll,
    /// Logical shift right (shift amount masked to 6 bits).
    Srl,
    /// Signed compare less-than, producing 0 or 1.
    CmpLt,
    /// Compare equal, producing 0 or 1.
    CmpEq,
    /// Signed compare less-or-equal, producing 0 or 1.
    CmpLe,
    /// Unsigned compare less-than, producing 0 or 1.
    CmpUlt,
}

impl AluOp {
    /// All ALU operations, in encoding order.
    pub const ALL: [AluOp; 12] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::CmpLt,
        AluOp::CmpEq,
        AluOp::CmpLe,
        AluOp::CmpUlt,
    ];

    /// Applies the operation to two 64-bit operands.
    #[must_use]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Srl => a.wrapping_shr((b & 63) as u32),
            AluOp::CmpLt => u64::from((a as i64) < (b as i64)),
            AluOp::CmpEq => u64::from(a == b),
            AluOp::CmpLe => u64::from((a as i64) <= (b as i64)),
            AluOp::CmpUlt => u64::from(a < b),
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::CmpLt => "cmplt",
            AluOp::CmpEq => "cmpeq",
            AluOp::CmpLe => "cmple",
            AluOp::CmpUlt => "cmpult",
        }
    }
}

/// Floating-point operations. Operands are `f64` values held in FP registers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpuOp {
    /// `rc = ra + rb`
    Add,
    /// `rc = ra - rb`
    Sub,
    /// `rc = ra * rb`
    Mul,
    /// `rc = ra / rb`
    Div,
}

impl FpuOp {
    /// All FP operations, in encoding order.
    pub const ALL: [FpuOp; 4] = [FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Div];

    /// Applies the operation to two operands interpreted as `f64` bit patterns.
    #[must_use]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match self {
            FpuOp::Add => x + y,
            FpuOp::Sub => x - y,
            FpuOp::Mul => x * y,
            FpuOp::Div => x / y,
        };
        r.to_bits()
    }

    fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::Add => "fadd",
            FpuOp::Sub => "fsub",
            FpuOp::Mul => "fmul",
            FpuOp::Div => "fdiv",
        }
    }
}

/// Conditional-branch conditions, evaluated against a single register value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Branch if the register equals zero.
    Eq,
    /// Branch if the register is non-zero.
    Ne,
    /// Branch if the register is negative (signed).
    Lt,
    /// Branch if the register is non-negative (signed).
    Ge,
    /// Branch if the register is `<= 0` (signed).
    Le,
    /// Branch if the register is `> 0` (signed).
    Gt,
}

impl Cond {
    /// All conditions, in encoding order.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Le, Cond::Gt];

    /// Evaluates the condition against a register value.
    #[must_use]
    pub fn eval(self, v: u64) -> bool {
        let s = v as i64;
        match self {
            Cond::Eq => s == 0,
            Cond::Ne => s != 0,
            Cond::Lt => s < 0,
            Cond::Ge => s >= 0,
            Cond::Le => s <= 0,
            Cond::Gt => s > 0,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
        }
    }
}

/// Flavours of load instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LoadKind {
    /// Ordinary 8-byte integer load.
    Int,
    /// Non-faulting 8-byte load: an unmapped or wild address yields zero
    /// instead of a fault. Inserted by the prefetch optimizer to dereference
    /// speculative pointer values (paper §3.4.3).
    NonFaulting,
    /// 8-byte floating-point load (destination must be an FP register).
    Float,
}

/// One decoded instruction.
///
/// Instructions are encoded into a fixed-width 64-bit word
/// (see [`mod@crate::encode`]); the [`Inst::Prefetch`] encoding reserves a
/// dedicated *distance* bit-field so the dynamic optimizer can re-tune a
/// prefetch by patching those bits in place, exactly as the paper's
/// self-repairing mechanism does.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Integer ALU, register form: `rc = ra <op> rb`.
    Op {
        /// Operation.
        op: AluOp,
        /// First source.
        ra: Reg,
        /// Second source.
        rb: Reg,
        /// Destination.
        rc: Reg,
    },
    /// Integer ALU, immediate form: `rc = ra <op> imm`.
    OpImm {
        /// Operation.
        op: AluOp,
        /// Source register.
        ra: Reg,
        /// Sign-extended immediate (must fit in 32 bits when encoded).
        imm: i64,
        /// Destination.
        rc: Reg,
    },
    /// Load address: `ra = rb + imm`. This is the canonical induction-variable
    /// update the stride classifier looks for (paper §3.4.1).
    Lda {
        /// Destination.
        ra: Reg,
        /// Base register.
        rb: Reg,
        /// Sign-extended displacement.
        imm: i64,
    },
    /// Register move: `rc = ra`. Also the instruction Trident substitutes for
    /// store/load conversion pairs in legacy code (paper §3.2).
    Move {
        /// Source.
        ra: Reg,
        /// Destination.
        rc: Reg,
    },
    /// Memory load: `ra = mem[rb + off]`.
    Load {
        /// Destination register.
        ra: Reg,
        /// Base address register.
        rb: Reg,
        /// Byte offset.
        off: i64,
        /// Load flavour.
        kind: LoadKind,
    },
    /// Memory store: `mem[rb + off] = ra`.
    Store {
        /// Source register.
        ra: Reg,
        /// Base address register.
        rb: Reg,
        /// Byte offset.
        off: i64,
    },
    /// Software prefetch of `mem[base + off + stride * dist]`.
    ///
    /// `dist` is the *prefetch distance* in loop iterations; it lives in its
    /// own bit-field of the encoded word so it can be repaired in place.
    Prefetch {
        /// Base address register.
        base: Reg,
        /// Byte offset of the target load from the base register.
        off: i32,
        /// Byte stride per iteration.
        stride: i32,
        /// Prefetch distance in iterations.
        dist: u8,
    },
    /// Floating point ALU: `rc = ra <op> rb`.
    FOp {
        /// Operation.
        op: FpuOp,
        /// First source (FP register).
        ra: Reg,
        /// Second source (FP register).
        rb: Reg,
        /// Destination (FP register).
        rc: Reg,
    },
    /// Unconditional PC-relative branch. `disp` is in instruction slots:
    /// the target is `pc + 8 + disp * 8`.
    Br {
        /// Signed displacement in instruction slots.
        disp: i64,
    },
    /// Conditional PC-relative branch on `ra`.
    Bcond {
        /// Condition.
        cond: Cond,
        /// Register tested.
        ra: Reg,
        /// Signed displacement in instruction slots.
        disp: i64,
    },
    /// Indirect jump to the address held in `rb`.
    Jmp {
        /// Register holding the target address.
        rb: Reg,
    },
    /// Stop the executing context.
    Halt,
}

/// Up to two register uses of one instruction.
pub type Uses = [Option<Reg>; 2];

impl Inst {
    /// The register written by this instruction, if any.
    ///
    /// The hard-wired zero register is never reported as a definition.
    #[must_use]
    pub fn def(&self) -> Option<Reg> {
        let d = match *self {
            Inst::Op { rc, .. }
            | Inst::OpImm { rc, .. }
            | Inst::Move { rc, .. }
            | Inst::FOp { rc, .. } => rc,
            Inst::Lda { ra, .. } | Inst::Load { ra, .. } => ra,
            _ => return None,
        };
        (!d.is_zero()).then_some(d)
    }

    /// The registers read by this instruction (zero register included, since
    /// it still participates in address formation).
    #[must_use]
    pub fn uses(&self) -> Uses {
        match *self {
            Inst::Op { ra, rb, .. } | Inst::FOp { ra, rb, .. } => [Some(ra), Some(rb)],
            Inst::OpImm { ra, .. } | Inst::Move { ra, .. } => [Some(ra), None],
            Inst::Lda { rb, .. } | Inst::Jmp { rb } => [Some(rb), None],
            Inst::Load { rb, .. } => [Some(rb), None],
            Inst::Store { ra, rb, .. } => [Some(ra), Some(rb)],
            Inst::Prefetch { base, .. } => [Some(base), None],
            Inst::Bcond { ra, .. } => [Some(ra), None],
            Inst::Nop | Inst::Br { .. } | Inst::Halt => [None, None],
        }
    }

    /// Whether this is any control transfer (branch, jump, or halt).
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(self, Inst::Br { .. } | Inst::Bcond { .. } | Inst::Jmp { .. } | Inst::Halt)
    }

    /// Whether this is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Bcond { .. })
    }

    /// The taken-path target of a PC-relative branch at address `pc`.
    ///
    /// Returns `None` for non-branching or indirect instructions.
    #[must_use]
    pub fn branch_target(&self, pc: u64) -> Option<u64> {
        let disp = match *self {
            Inst::Br { disp } | Inst::Bcond { disp, .. } => disp,
            _ => return None,
        };
        Some(pc.wrapping_add(INST_BYTES).wrapping_add((disp as u64).wrapping_mul(INST_BYTES)))
    }

    /// Builds a PC-relative displacement (in instruction slots) from a branch
    /// at `pc` to `target`.
    ///
    /// Returns `None` when `target - pc - 8` is not a multiple of the
    /// instruction width.
    #[must_use]
    pub fn disp_between(pc: u64, target: u64) -> Option<i64> {
        let delta = (target as i64).wrapping_sub(pc as i64).wrapping_sub(INST_BYTES as i64);
        (delta % INST_BYTES as i64 == 0).then(|| delta / INST_BYTES as i64)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Nop => write!(f, "nop"),
            Inst::Op { op, ra, rb, rc } => write!(f, "{} {rc}, {ra}, {rb}", op.mnemonic()),
            Inst::OpImm { op, ra, imm, rc } => {
                write!(f, "{}i {rc}, {ra}, {imm}", op.mnemonic())
            }
            Inst::Lda { ra, rb, imm } => write!(f, "lda {ra}, {imm}({rb})"),
            Inst::Move { ra, rc } => write!(f, "mov {rc}, {ra}"),
            Inst::Load { ra, rb, off, kind } => {
                let m = match kind {
                    LoadKind::Int => "ldq",
                    LoadKind::NonFaulting => "ldnf",
                    LoadKind::Float => "ldf",
                };
                write!(f, "{m} {ra}, {off}({rb})")
            }
            Inst::Store { ra, rb, off } => write!(f, "stq {ra}, {off}({rb})"),
            Inst::Prefetch { base, off, stride, dist } => {
                write!(f, "prefetch {off}+{stride}*{dist}({base})")
            }
            Inst::FOp { op, ra, rb, rc } => write!(f, "{} {rc}, {ra}, {rb}", op.mnemonic()),
            Inst::Br { disp } => write!(f, "br {disp}"),
            Inst::Bcond { cond, ra, disp } => write!(f, "{} {ra}, {disp}", cond.mnemonic()),
            Inst::Jmp { rb } => write!(f, "jmp ({rb})"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), u64::MAX);
        assert_eq!(AluOp::Mul.apply(6, 7), 42);
        assert_eq!(AluOp::Sll.apply(1, 10), 1024);
        assert_eq!(AluOp::Srl.apply(1024, 4), 64);
        assert_eq!(AluOp::CmpLt.apply(u64::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::CmpUlt.apply(u64::MAX, 0), 0, "max !< 0 unsigned");
        assert_eq!(AluOp::CmpEq.apply(5, 5), 1);
        assert_eq!(AluOp::CmpLe.apply(5, 5), 1);
    }

    #[test]
    fn fpu_semantics() {
        let a = 1.5f64.to_bits();
        let b = 2.0f64.to_bits();
        assert_eq!(f64::from_bits(FpuOp::Add.apply(a, b)), 3.5);
        assert_eq!(f64::from_bits(FpuOp::Mul.apply(a, b)), 3.0);
        assert_eq!(f64::from_bits(FpuOp::Div.apply(a, b)), 0.75);
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Eq.eval(0));
        assert!(!Cond::Eq.eval(1));
        assert!(Cond::Lt.eval((-3i64) as u64));
        assert!(Cond::Ge.eval(0));
        assert!(Cond::Le.eval(0));
        assert!(Cond::Gt.eval(9));
        assert!(!Cond::Gt.eval(0));
    }

    #[test]
    fn def_never_reports_zero_register() {
        let i = Inst::Lda { ra: Reg::ZERO, rb: Reg::int(1), imm: 8 };
        assert_eq!(i.def(), None);
        let i = Inst::Lda { ra: Reg::int(2), rb: Reg::int(1), imm: 8 };
        assert_eq!(i.def(), Some(Reg::int(2)));
    }

    #[test]
    fn uses_of_store_and_prefetch() {
        let s = Inst::Store { ra: Reg::int(1), rb: Reg::int(2), off: 0 };
        assert_eq!(s.uses(), [Some(Reg::int(1)), Some(Reg::int(2))]);
        let p = Inst::Prefetch { base: Reg::int(3), off: 8, stride: 64, dist: 2 };
        assert_eq!(p.uses(), [Some(Reg::int(3)), None]);
        assert_eq!(p.def(), None);
    }

    #[test]
    fn branch_target_round_trips_with_disp_between() {
        let pc = 0x1000;
        for target in [0x1008u64, 0x0FF0, 0x2000, 0x1000] {
            let disp = Inst::disp_between(pc, target).unwrap();
            let b = Inst::Br { disp };
            assert_eq!(b.branch_target(pc), Some(target));
        }
        assert_eq!(Inst::disp_between(pc, 0x1009), None);
    }

    #[test]
    fn control_classification() {
        assert!(Inst::Halt.is_control());
        assert!(Inst::Br { disp: 0 }.is_control());
        assert!(Inst::Bcond { cond: Cond::Eq, ra: Reg::R0, disp: 1 }.is_cond_branch());
        assert!(!Inst::Nop.is_control());
    }
}

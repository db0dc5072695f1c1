//! The mutable runtime code image, predecoded for the interpreter hot loop.
//!
//! Holds the original program's instructions plus a sparse overlay for the
//! code-cache region where Trident installs hot traces. Both the original
//! code (for linking a trace: the first instruction of a hot region is
//! patched into a jump) and installed traces (for prefetch-distance repair)
//! can be rewritten at runtime through [`CodeImage::write_word`].
//!
//! # Predecoded op arrays
//!
//! The per-cycle fetch path used to be `word_at(pc)` followed by a fresh
//! `decode(w)` — a bounds check, an overlay probe, and a full bit-field
//! unpack on *every* issued instruction. The image now predecodes each word
//! exactly once into a dense [`PredecodedOp`] array: a flat struct carrying
//! the decoded [`Inst`] alongside everything the issue loop needs without
//! re-deriving it per fetch — scoreboard source indices, structural-hazard
//! flags, and the precomputed branch target.
//!
//! Two dense regions are maintained: the original program (`ops`, mirroring
//! `words`) and the code cache (`cc_ops`, indexed from `code_cache_base`,
//! grown on demand as Trident installs traces). Addresses outside both
//! regions (never produced by the optimizer) are predecoded into a sparse
//! op map beside the sparse word overlay. Every [`CodeImage::write_word`]
//! re-predecodes the single affected entry — the patch→invalidate protocol
//! that keeps in-place prefetch-distance repair coherent with predecoded
//! execution — so every fetch is a borrow of an op decoded at write time:
//! [`CodeImage::fetch_op`] returns `&PredecodedOp`, and the core reads its
//! fields in place instead of copying the op out.
//! [`CodeImage::check_predecode`] re-derives every slot from its stored
//! word; the tests run it after whole simulations, and debug builds check
//! each written slot inside `write_word`.
//!
//! A word that fails to decode predecodes into an op carrying
//! [`PredecodedOp::F_INVALID`]; executing it is a loud, distinct fault
//! (see [`FetchError`]) rather than a silent halt.

use std::collections::HashMap;

use tdo_isa::{decode, Inst, Program, Word, INST_BYTES};

/// Errors from patching the code image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchError {
    /// The address is not 8-byte aligned.
    Unaligned {
        /// Offending address.
        addr: u64,
    },
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::Unaligned { addr } => write!(f, "unaligned code address {addr:#x}"),
        }
    }
}

impl std::error::Error for PatchError {}

/// Error from fetching a mapped word that does not decode.
///
/// Distinct from "no code at pc" (which is a graceful halt): an invalid
/// word means the image was corrupted — a bad optimizer patch or a bug in
/// the predecoder — and must be loud, never silently swallowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchError {
    /// The word at `pc` is not a valid instruction encoding.
    InvalidWord {
        /// Address of the offending word.
        pc: u64,
        /// The raw word that failed to decode.
        word: Word,
    },
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::InvalidWord { pc, word } => {
                write!(f, "invalid instruction word {word:#018x} at pc {pc:#x}")
            }
        }
    }
}

impl std::error::Error for FetchError {}

/// Scoreboard index meaning "no source operand": one past the register
/// file, pointing at a permanently-ready slot.
pub const NO_USE: u8 = 64;

/// One instruction, decoded once, with the issue loop's derived facts
/// precomputed so the per-cycle path is flat loads and compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredecodedOp {
    /// The decoded instruction.
    pub inst: Inst,
    /// Scoreboard index of the first source operand ([`NO_USE`] if none).
    pub use0: u8,
    /// Scoreboard index of the second source operand ([`NO_USE`] if none).
    pub use1: u8,
    /// Derived-fact bits (`F_*`).
    pub flags: u8,
    /// Precomputed taken-path target for PC-relative branches; for an
    /// invalid op, the raw word that failed to decode.
    pub target: u64,
}

impl Default for PredecodedOp {
    /// An absent slot: no `F_PRESENT`, never served to the core.
    fn default() -> PredecodedOp {
        PredecodedOp { inst: Inst::Nop, use0: NO_USE, use1: NO_USE, flags: 0, target: 0 }
    }
}

impl PredecodedOp {
    /// Needs a load/store port this cycle.
    pub const F_MEM: u8 = 1 << 0;
    /// Needs an FP unit this cycle.
    pub const F_FP: u8 = 1 << 1;
    /// The underlying word failed to decode; executing this op faults.
    pub const F_INVALID: u8 = 1 << 2;
    /// Slot holds real code (distinguishes dense-array entries from the
    /// never-written default).
    pub const F_PRESENT: u8 = 1 << 3;

    /// Predecodes one instruction located at `pc`.
    #[must_use]
    pub fn new(inst: Inst, pc: u64) -> PredecodedOp {
        let [u0, u1] = inst.uses();
        let mut flags = Self::F_PRESENT;
        if matches!(inst, Inst::Load { .. } | Inst::Store { .. } | Inst::Prefetch { .. }) {
            flags |= Self::F_MEM;
        }
        if matches!(inst, Inst::FOp { .. }) {
            flags |= Self::F_FP;
        }
        PredecodedOp {
            inst,
            use0: u0.map_or(NO_USE, |r| r.index() as u8),
            use1: u1.map_or(NO_USE, |r| r.index() as u8),
            flags,
            target: inst.branch_target(pc).unwrap_or(0),
        }
    }

    /// Predecodes a word at `pc`: a valid op, or an invalid-marked op
    /// carrying the raw word.
    #[must_use]
    pub fn from_word(word: Word, pc: u64) -> PredecodedOp {
        match decode(word) {
            Ok(inst) => PredecodedOp::new(inst, pc),
            Err(_) => PredecodedOp {
                inst: Inst::Nop,
                use0: NO_USE,
                use1: NO_USE,
                flags: Self::F_PRESENT | Self::F_INVALID,
                target: word,
            },
        }
    }

    /// Whether the op is an undecodable word.
    #[must_use]
    pub fn is_invalid(&self) -> bool {
        self.flags & Self::F_INVALID != 0
    }
}

/// Dense code-cache mirror growth cap, in ops. The 4 MB code cache holds
/// at most 512 K instructions; anything addressed beyond this (impossible
/// through the Trident allocator) stays overlay-only.
const CC_DENSE_MAX: usize = 1 << 20;

/// The runtime code store: original program + code-cache overlay, both
/// mirrored as predecoded op arrays.
pub struct CodeImage {
    base: u64,
    words: Vec<Word>,
    /// Predecoded mirror of `words`, index-for-index.
    ops: Vec<PredecodedOp>,
    /// Sparse storage for everything outside the original program — the code
    /// cache region lives here.
    overlay: HashMap<u64, Word>,
    /// Predecoded mirror of the code-cache region, indexed from
    /// `code_cache_base` and grown on demand. Entries without
    /// [`PredecodedOp::F_PRESENT`] are holes.
    cc_ops: Vec<PredecodedOp>,
    /// Predecoded mirror of the overlay words outside both dense regions.
    far_ops: HashMap<u64, PredecodedOp>,
    /// First address of the code-cache region (everything at or above is
    /// "inside a hot trace" for the monitoring hardware).
    code_cache_base: u64,
}

impl CodeImage {
    /// Builds the image from a program, placing the code cache at
    /// `code_cache_base` (must be above the program's code).
    ///
    /// # Panics
    ///
    /// Panics if the code-cache region overlaps the program code.
    #[must_use]
    pub fn new(program: &Program, code_cache_base: u64) -> CodeImage {
        assert!(code_cache_base >= program.code_end(), "code cache must sit above program code");
        let base = program.code_base;
        let ops = program
            .code
            .iter()
            .enumerate()
            .map(|(i, &w)| PredecodedOp::from_word(w, base + i as u64 * INST_BYTES))
            .collect();
        CodeImage {
            base,
            words: program.code.clone(),
            ops,
            overlay: HashMap::new(),
            cc_ops: Vec::new(),
            far_ops: HashMap::new(),
            code_cache_base,
        }
    }

    /// Base address of the code-cache region.
    #[must_use]
    pub fn code_cache_base(&self) -> u64 {
        self.code_cache_base
    }

    /// Whether `pc` points into the code-cache region (i.e. into a hot
    /// trace). This is the test Trident's watch-table hardware performs to
    /// decide whether a committed load should update the DLT.
    #[must_use]
    pub fn in_code_cache(&self, pc: u64) -> bool {
        pc >= self.code_cache_base
    }

    /// The encoded word at `pc`, if any code exists there.
    #[must_use]
    pub fn word_at(&self, pc: u64) -> Option<Word> {
        if !pc.is_multiple_of(INST_BYTES) {
            return None;
        }
        if pc >= self.base {
            let idx = ((pc - self.base) / INST_BYTES) as usize;
            if idx < self.words.len() {
                return Some(self.words[idx]);
            }
        }
        self.overlay.get(&pc).copied()
    }

    /// Decodes the instruction at `pc`.
    ///
    /// Returns `Ok(None)` where no code is mapped (the core treats that as
    /// a halt).
    ///
    /// # Errors
    ///
    /// [`FetchError::InvalidWord`] when a word exists at `pc` but does not
    /// decode — a corrupted image must never be silently swallowed.
    pub fn fetch(&self, pc: u64) -> Result<Option<Inst>, FetchError> {
        match self.word_at(pc) {
            None => Ok(None),
            Some(w) => match decode(w) {
                Ok(inst) => Ok(Some(inst)),
                Err(_) => Err(FetchError::InvalidWord { pc, word: w }),
            },
        }
    }

    /// The predecoded op at `pc` — the interpreter's hot fetch path. One
    /// alignment test plus one or two range compares reach a dense array
    /// slot, which is borrowed, not copied: the caller reads the fields it
    /// needs in place.
    #[must_use]
    #[inline]
    pub fn fetch_op(&self, pc: u64) -> Option<&PredecodedOp> {
        if pc & (INST_BYTES - 1) != 0 {
            return None;
        }
        if pc >= self.base {
            let idx = ((pc - self.base) / INST_BYTES) as usize;
            if idx < self.ops.len() {
                return Some(&self.ops[idx]);
            }
        }
        if pc >= self.code_cache_base {
            let idx = ((pc - self.code_cache_base) / INST_BYTES) as usize;
            if idx < self.cc_ops.len() {
                let op = &self.cc_ops[idx];
                return (op.flags & PredecodedOp::F_PRESENT != 0).then_some(op);
            }
        }
        // Cold: addresses outside both dense regions.
        self.far_ops.get(&pc)
    }

    /// Whether the op served at `pc` is exactly what predecoding `word`
    /// afresh gives.
    fn slot_is_coherent(&self, pc: u64, word: Word) -> bool {
        self.fetch_op(pc) == Some(&PredecodedOp::from_word(word, pc))
    }

    /// Checks the predecoded mirror against the stored words: every mapped
    /// word's op must equal [`PredecodedOp::from_word`] of that word at its
    /// pc, and no op may be served where no word is mapped. Returns the
    /// number of slots checked.
    ///
    /// # Errors
    ///
    /// Names the first incoherent pc (original code first, then overlay
    /// words in address order), or reports a count mismatch when an op
    /// outlives its word.
    pub fn check_predecode(&self) -> Result<usize, String> {
        let original =
            self.words.iter().enumerate().map(|(i, &w)| (self.base + i as u64 * INST_BYTES, w));
        let mut overlay: Vec<(u64, Word)> = self.overlay.iter().map(|(&pc, &w)| (pc, w)).collect();
        overlay.sort_unstable();
        let mut checked = 0;
        for (pc, w) in original.chain(overlay) {
            if !self.slot_is_coherent(pc, w) {
                return Err(format!(
                    "stale predecode at pc {pc:#x}: word {w:#018x} decodes to {:?}, slot serves {:?}",
                    PredecodedOp::from_word(w, pc),
                    self.fetch_op(pc)
                ));
            }
            checked += 1;
        }
        // Overlay words never lie inside the original program, so each one
        // owns exactly one code-cache slot or far op; anything beyond that
        // is an op with no word behind it.
        let served =
            self.cc_ops.iter().filter(|op| op.flags & PredecodedOp::F_PRESENT != 0).count()
                + self.far_ops.len();
        if served != self.overlay.len() {
            return Err(format!(
                "{served} overlay ops served for {} overlay words",
                self.overlay.len()
            ));
        }
        Ok(checked)
    }

    /// Re-predecodes the single entry covering `pc` after a word write —
    /// the targeted invalidation step of the patch protocol.
    fn repredecode(&mut self, pc: u64, word: Word) {
        if pc >= self.base {
            let idx = ((pc - self.base) / INST_BYTES) as usize;
            if idx < self.ops.len() {
                self.ops[idx] = PredecodedOp::from_word(word, pc);
                return;
            }
        }
        if pc >= self.code_cache_base {
            let idx = ((pc - self.code_cache_base) / INST_BYTES) as usize;
            if idx < CC_DENSE_MAX {
                if idx >= self.cc_ops.len() {
                    self.cc_ops.resize(idx + 1, PredecodedOp::default());
                }
                self.cc_ops[idx] = PredecodedOp::from_word(word, pc);
                return;
            }
        }
        self.far_ops.insert(pc, PredecodedOp::from_word(word, pc));
    }

    /// Writes an encoded word at `pc` — patching original code or installing
    /// or repairing code-cache contents. The predecoded mirror entry is
    /// refreshed in the same call, so a patched distance is visible to the
    /// very next fetch.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::Unaligned`] for misaligned addresses.
    pub fn write_word(&mut self, pc: u64, word: Word) -> Result<(), PatchError> {
        if !pc.is_multiple_of(INST_BYTES) {
            return Err(PatchError::Unaligned { addr: pc });
        }
        let idx = (pc.wrapping_sub(self.base) / INST_BYTES) as usize;
        if pc >= self.base && idx < self.words.len() {
            self.words[idx] = word;
        } else {
            self.overlay.insert(pc, word);
        }
        self.repredecode(pc, word);
        debug_assert!(self.slot_is_coherent(pc, word), "write at {pc:#x} left a stale predecode");
        Ok(())
    }

    /// Convenience: installs a sequence of words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates [`PatchError`] from individual writes.
    pub fn write_block(&mut self, addr: u64, words: &[Word]) -> Result<(), PatchError> {
        for (i, w) in words.iter().enumerate() {
            self.write_word(addr + i as u64 * INST_BYTES, *w)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdo_isa::{encode, patch_prefetch_distance, Reg};

    fn img() -> CodeImage {
        let prog = Program {
            name: "t".into(),
            entry: 0x1000,
            code_base: 0x1000,
            code: vec![encode(&Inst::Nop).unwrap(), encode(&Inst::Halt).unwrap()],
            data: vec![],
        };
        CodeImage::new(&prog, 0x10_0000)
    }

    #[test]
    fn fetch_original_and_overlay() {
        let mut c = img();
        assert_eq!(c.fetch(0x1000), Ok(Some(Inst::Nop)));
        assert_eq!(c.fetch(0x1008), Ok(Some(Inst::Halt)));
        assert_eq!(c.fetch(0x1010), Ok(None));
        let w = encode(&Inst::Move { ra: Reg::int(1), rc: Reg::int(2) }).unwrap();
        c.write_word(0x10_0000, w).unwrap();
        assert_eq!(c.fetch(0x10_0000), Ok(Some(Inst::Move { ra: Reg::int(1), rc: Reg::int(2) })));
    }

    #[test]
    fn patching_original_code_takes_effect() {
        let mut c = img();
        let w = encode(&Inst::Br { disp: 10 }).unwrap();
        c.write_word(0x1000, w).unwrap();
        assert_eq!(c.fetch(0x1000), Ok(Some(Inst::Br { disp: 10 })));
        // The predecoded mirror was refreshed too, target included.
        let op = c.fetch_op(0x1000).expect("predecoded");
        assert_eq!(op.inst, Inst::Br { disp: 10 });
        assert_eq!(op.target, 0x1000 + 8 + 10 * 8);
    }

    #[test]
    fn unaligned_patch_is_rejected() {
        let mut c = img();
        assert_eq!(c.write_word(0x1001, 0), Err(PatchError::Unaligned { addr: 0x1001 }));
        assert_eq!(c.word_at(0x1001), None);
        assert!(c.fetch_op(0x1001).is_none());
    }

    #[test]
    fn code_cache_membership() {
        let c = img();
        assert!(!c.in_code_cache(0x1000));
        assert!(c.in_code_cache(0x10_0000));
        assert!(c.in_code_cache(0x10_0008));
    }

    #[test]
    fn write_block_is_contiguous() {
        let mut c = img();
        let words = [encode(&Inst::Nop).unwrap(), encode(&Inst::Halt).unwrap()];
        c.write_block(0x10_0000, &words).unwrap();
        assert_eq!(c.fetch(0x10_0008), Ok(Some(Inst::Halt)));
        assert_eq!(c.fetch_op(0x10_0008).unwrap().inst, Inst::Halt);
    }

    #[test]
    fn invalid_word_is_a_loud_fetch_error() {
        let mut c = img();
        let bad: Word = 0xff << 56; // unknown opcode
        c.write_word(0x1000, bad).unwrap();
        assert_eq!(c.fetch(0x1000), Err(FetchError::InvalidWord { pc: 0x1000, word: bad }));
        let op = c.fetch_op(0x1000).expect("slot is mapped");
        assert!(op.is_invalid());
        assert_eq!(op.target, bad, "invalid op carries the raw word");
        // Same behaviour through the overlay/code-cache path.
        c.write_word(0x10_0000, bad).unwrap();
        assert_eq!(c.fetch(0x10_0000), Err(FetchError::InvalidWord { pc: 0x10_0000, word: bad }));
        assert!(c.fetch_op(0x10_0000).unwrap().is_invalid());
    }

    #[test]
    fn predecoded_ops_carry_issue_facts() {
        let prog = Program {
            name: "t".into(),
            entry: 0x1000,
            code_base: 0x1000,
            code: vec![
                encode(&Inst::Store { ra: Reg::int(1), rb: Reg::int(2), off: 0 }).unwrap(),
                encode(&Inst::FOp {
                    op: tdo_isa::FpuOp::Add,
                    ra: Reg::fp(1),
                    rb: Reg::fp(2),
                    rc: Reg::fp(3),
                })
                .unwrap(),
                encode(&Inst::Bcond { cond: tdo_isa::Cond::Ne, ra: Reg::int(3), disp: -2 })
                    .unwrap(),
            ],
            data: vec![],
        };
        let c = CodeImage::new(&prog, 0x10_0000);
        let st = c.fetch_op(0x1000).unwrap();
        assert_eq!(st.flags & PredecodedOp::F_MEM, PredecodedOp::F_MEM);
        assert_eq!((st.use0, st.use1), (Reg::int(1).index() as u8, Reg::int(2).index() as u8));
        let f = c.fetch_op(0x1008).unwrap();
        assert_eq!(f.flags & PredecodedOp::F_FP, PredecodedOp::F_FP);
        let b = c.fetch_op(0x1010).unwrap();
        assert_eq!(b.target, 0x1010 + 8 - 2 * 8, "branch target precomputed");
        assert_eq!(b.use1, NO_USE);
    }

    #[test]
    fn distance_patch_invalidates_predecoded_entry() {
        // The cache-invalidation regression test: an in-place distance
        // repair must be visible through `fetch_op` immediately.
        let mut c = img();
        let pf = Inst::Prefetch { base: Reg::int(4), off: 8, stride: 64, dist: 1 };
        let w = encode(&pf).unwrap();
        c.write_word(0x10_0000, w).unwrap();
        match c.fetch_op(0x10_0000).unwrap().inst {
            Inst::Prefetch { dist, .. } => assert_eq!(dist, 1),
            other => panic!("expected prefetch, got {other}"),
        }
        let patched = patch_prefetch_distance(w, 17).unwrap();
        c.write_word(0x10_0000, patched).unwrap();
        match c.fetch_op(0x10_0000).unwrap().inst {
            Inst::Prefetch { dist, .. } => assert_eq!(dist, 17, "stale predecode served"),
            other => panic!("expected prefetch, got {other}"),
        }
        // And in the original-program region too.
        c.write_word(0x1008, w).unwrap();
        c.write_word(0x1008, patch_prefetch_distance(w, 9).unwrap()).unwrap();
        match c.fetch_op(0x1008).unwrap().inst {
            Inst::Prefetch { dist, .. } => assert_eq!(dist, 9),
            other => panic!("expected prefetch, got {other}"),
        }
    }

    #[test]
    fn every_region_serves_the_op_its_word_decodes_to() {
        // Original code, the dense code cache, and an address outside both
        // dense regions (below the program) are each served by reference
        // from an op predecoded at write time.
        let mut c = img();
        let w = encode(&Inst::Bcond { cond: tdo_isa::Cond::Eq, ra: Reg::int(1), disp: 3 }).unwrap();
        c.write_word(0x10_0000, w).unwrap();
        c.write_word(0x800, w).unwrap();
        let far = c.fetch_op(0x800).expect("far word is predecoded");
        assert_eq!(*far, PredecodedOp::from_word(w, 0x800));
        assert_eq!(far.target, 0x800 + 8 + 3 * 8, "target relative to the far pc");
        assert_eq!(c.check_predecode(), Ok(4), "two original words, two overlay words");
        assert!(c.fetch_op(0x10_0008).is_none(), "a hole past the written slot serves nothing");
    }
}

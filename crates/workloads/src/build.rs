//! Common workload-construction machinery.

use tdo_isa::{Asm, DataSegment, Program};

/// Simulation scale: how large the working sets and iteration counts are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small but still larger than the L3 cache; finite, halts quickly.
    /// Meant for tests (hundreds of thousands of instructions).
    Test,
    /// Paper-like working sets; long-running (the simulator's instruction
    /// budget, not the program, ends the measurement).
    Full,
}

impl Scale {
    /// A working-set size in bytes: `full` at full scale, a small (but
    /// still far beyond the *test* hierarchy's 16 KB L3,
    /// `tdo_mem::MemConfig::tiny_for_tests`) size at test scale.
    #[must_use]
    pub fn ws(&self, full: u64) -> u64 {
        match self {
            Scale::Test => (full / 64).max(512 << 10),
            Scale::Full => full,
        }
    }

    /// An outer-loop repetition count.
    #[must_use]
    pub fn outer(&self, test: u64, full: u64) -> u64 {
        match self {
            Scale::Test => test,
            Scale::Full => full,
        }
    }
}

/// A complete, runnable workload.
pub struct Workload {
    /// The executable image.
    pub program: Program,
    /// What this workload models and why it is shaped this way.
    pub description: String,
}

/// Register conventions shared by every generated workload.
///
/// The dynamic optimizer splices `ldnf` instructions that need scratch
/// registers; the workload ABI reserves r20–r27 for it (they are never
/// live in generated code), matching how a production system would obtain
/// dead registers from liveness analysis.
pub mod abi {
    use tdo_isa::Reg;

    /// First register the optimizer may clobber.
    pub const SCRATCH_FIRST: u8 = 20;
    /// Last register the optimizer may clobber.
    pub const SCRATCH_LAST: u8 = 27;

    /// The optimizer scratch pool.
    #[must_use]
    pub fn scratch_pool() -> Vec<Reg> {
        (SCRATCH_FIRST..=SCRATCH_LAST).map(Reg::int).collect()
    }
}

/// Base address for workload code.
pub const CODE_BASE: u64 = 0x1_0000;
/// Base address for workload data (segments are bump-allocated from here).
pub const DATA_BASE: u64 = 0x100_0000;

/// Bump allocator for data segments.
pub struct DataAlloc {
    next: u64,
    /// Segments produced so far.
    pub segments: Vec<DataSegment>,
}

impl DataAlloc {
    /// Creates an allocator at [`DATA_BASE`].
    #[must_use]
    pub fn new() -> DataAlloc {
        DataAlloc { next: DATA_BASE, segments: Vec::new() }
    }

    /// Reserves `bytes` (64-byte aligned) without initial contents; memory
    /// reads as zero.
    pub fn reserve(&mut self, bytes: u64) -> u64 {
        let addr = self.next;
        self.next = (self.next + bytes + 63) & !63;
        addr
    }

    /// Allocates a segment initialized with 64-bit words.
    pub fn words(&mut self, values: &[u64]) -> u64 {
        let addr = self.reserve(values.len() as u64 * 8);
        self.segments.push(DataSegment::from_words(addr, values));
        addr
    }
}

impl Default for DataAlloc {
    fn default() -> Self {
        DataAlloc::new()
    }
}

/// Finishes a workload: assembles the code and bundles the data.
///
/// # Panics
///
/// Panics on assembler errors — workload builders are static constructions
/// and a failure is a bug in the generator.
#[must_use]
pub fn finish(name: &str, description: String, asm: &Asm, data: DataAlloc) -> Workload {
    let code = asm.assemble().unwrap_or_else(|e| panic!("workload {name}: {e}"));
    Workload {
        program: Program {
            name: name.to_string(),
            entry: asm.base(),
            code_base: asm.base(),
            code,
            data: data.segments,
        },
        description,
    }
}

/// Handy register names for generators (r20–r27 are reserved; see [`abi`]).
pub mod regs {
    use tdo_isa::Reg;

    /// General workload registers.
    #[must_use]
    pub fn r(i: u8) -> Reg {
        assert!(!(20..=27).contains(&i), "r20-r27 are optimizer scratch");
        Reg::int(i)
    }

    /// FP registers.
    #[must_use]
    pub fn f(i: u8) -> Reg {
        Reg::fp(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_alloc_is_aligned_and_monotonic() {
        let mut d = DataAlloc::new();
        let a = d.reserve(100);
        let b = d.reserve(8);
        assert_eq!(a % 64, 0);
        assert!(b >= a + 100);
        assert_eq!(b % 64, 0);
    }

    #[test]
    fn scale_keeps_test_working_sets_beyond_the_test_l3() {
        assert!(Scale::Test.ws(32 << 20) >= 512 << 10, "must exceed the test L3");
        assert_eq!(Scale::Full.ws(32 << 20), 32 << 20);
    }

    #[test]
    #[should_panic(expected = "optimizer scratch")]
    fn scratch_registers_are_fenced() {
        let _ = regs::r(23);
    }
}

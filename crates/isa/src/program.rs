//! Program images: code, initial data, and entry point.

use crate::encode::Word;
use crate::inst::INST_BYTES;

/// A contiguous initial-data segment.
#[derive(Clone, Debug)]
pub struct DataSegment {
    /// Base byte address of the segment.
    pub base: u64,
    /// Raw bytes to load at `base`.
    pub bytes: Vec<u8>,
}

impl DataSegment {
    /// Builds a segment of little-endian 64-bit words.
    #[must_use]
    pub fn from_words(base: u64, words: &[u64]) -> DataSegment {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        DataSegment { base, bytes }
    }
}

/// A complete executable image produced by a workload builder.
#[derive(Clone, Debug)]
pub struct Program {
    /// Human-readable name (benchmark name for the paper workloads).
    pub name: String,
    /// Address of the first instruction executed.
    pub entry: u64,
    /// Byte address of `code[0]`.
    pub code_base: u64,
    /// Encoded instruction words, contiguous from `code_base`.
    pub code: Vec<Word>,
    /// Initial data segments.
    pub data: Vec<DataSegment>,
}

impl Program {
    /// Byte address one past the last instruction.
    #[must_use]
    pub fn code_end(&self) -> u64 {
        self.code_base + self.code.len() as u64 * INST_BYTES
    }

    /// Whether `pc` lies within this program's static code.
    #[must_use]
    pub fn contains_pc(&self, pc: u64) -> bool {
        (self.code_base..self.code_end()).contains(&pc)
    }

    /// The encoded word at instruction address `pc`, if in range and aligned.
    #[must_use]
    pub fn word_at(&self, pc: u64) -> Option<Word> {
        if !self.contains_pc(pc) || !pc.is_multiple_of(INST_BYTES) {
            return None;
        }
        let idx = ((pc - self.code_base) / INST_BYTES) as usize;
        self.code.get(idx).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_at_respects_bounds_and_alignment() {
        let p = Program {
            name: "t".into(),
            entry: 0x1000,
            code_base: 0x1000,
            code: vec![1, 2, 3],
            data: vec![],
        };
        assert_eq!(p.word_at(0x1000), Some(1));
        assert_eq!(p.word_at(0x1010), Some(3));
        assert_eq!(p.word_at(0x1018), None);
        assert_eq!(p.word_at(0x1004), None, "unaligned");
        assert_eq!(p.word_at(0xff8), None);
        assert_eq!(p.code_end(), 0x1018);
    }

    #[test]
    fn data_segment_word_layout_is_little_endian() {
        let s = DataSegment::from_words(0, &[0x0102_0304_0506_0708]);
        assert_eq!(s.bytes[0], 0x08);
        assert_eq!(s.bytes[7], 0x01);
    }
}

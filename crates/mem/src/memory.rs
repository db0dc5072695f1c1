//! Functional (value-carrying) main memory.
//!
//! The timing side of the hierarchy ([`crate::hierarchy`]) is tag-only; this
//! sparse paged store holds the actual bytes the simulated program reads and
//! writes. Reads of unmapped memory return zero without allocating, which
//! also gives the non-faulting load (`ldnf`) its defined semantics.

use tdo_rand::{FastMap, Fnv1a};

const PAGE_BITS: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_BITS;

/// Sparse, page-granular byte-addressable memory.
///
/// The page table is keyed with `tdo-rand`'s [`tdo_rand::FastHasher`]:
/// every simulated load walks it, so the default SipHash was pure overhead.
#[derive(Default)]
pub struct Memory {
    pages: FastMap<u64, Box<[u8; PAGE_BYTES]>>,
}

impl Memory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (allocated) pages.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte; unmapped memory reads as zero.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p[(addr as usize) & (PAGE_BYTES - 1)],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page on demand.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page =
            self.pages.entry(addr >> PAGE_BITS).or_insert_with(|| Box::new([0u8; PAGE_BYTES]));
        page[(addr as usize) & (PAGE_BYTES - 1)] = value;
    }

    /// Reads a little-endian 64-bit value (fast path for aligned, page-local
    /// accesses; byte-wise otherwise).
    #[must_use]
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + 8 <= PAGE_BYTES {
            match self.pages.get(&(addr >> PAGE_BITS)) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            let mut b = [0u8; 8];
            for (i, slot) in b.iter_mut().enumerate() {
                *slot = self.read_u8(addr + i as u64);
            }
            u64::from_le_bytes(b)
        }
    }

    /// Writes a little-endian 64-bit value.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        let bytes = value.to_le_bytes();
        if off + 8 <= PAGE_BYTES {
            let page =
                self.pages.entry(addr >> PAGE_BITS).or_insert_with(|| Box::new([0u8; PAGE_BYTES]));
            page[off..off + 8].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
        }
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        // Page-sized chunks keep initial-image loading fast.
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - off).min(rest.len());
            let page =
                self.pages.entry(a >> PAGE_BITS).or_insert_with(|| Box::new([0u8; PAGE_BYTES]));
            page[off..off + n].copy_from_slice(&rest[..n]);
            a += n as u64;
            rest = &rest[n..];
        }
    }

    /// An FNV-1a checksum of all resident pages (keys and bytes, in key
    /// order), used by integration tests to assert architectural
    /// equivalence across optimization modes.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut keys: Vec<&u64> = self.pages.keys().collect();
        keys.sort_unstable();
        let mut h = Fnv1a::new();
        for k in keys {
            h.update(&k.to_le_bytes());
            h.update(&self.pages[k][..]);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero_and_do_not_allocate() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u64_round_trip_aligned_and_straddling() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(0x1000), 0x1122_3344_5566_7788);
        // Straddle a page boundary.
        m.write_u64(0x1ffc, 0xaabb_ccdd_eeff_0011);
        assert_eq!(m.read_u64(0x1ffc), 0xaabb_ccdd_eeff_0011);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn write_bytes_spans_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..10000u32).map(|i| (i % 251) as u8).collect();
        m.write_bytes(0xfff0, &data);
        for (i, b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(0xfff0 + i as u64), *b);
        }
    }

    #[test]
    fn checksum_is_order_independent_but_content_sensitive() {
        let mut a = Memory::new();
        a.write_u64(0x1000, 7);
        a.write_u64(0x9000, 9);
        let mut b = Memory::new();
        b.write_u64(0x9000, 9);
        b.write_u64(0x1000, 7);
        assert_eq!(a.checksum(), b.checksum());
        b.write_u64(0x1000, 8);
        assert_ne!(a.checksum(), b.checksum());
    }
}

//! The workspace's stable hashes: FNV-1a and the SplitMix64 finalizer.
//!
//! FNV-1a is stable across platforms and Rust versions (unlike
//! `DefaultHasher`, which documents no such guarantee), trivially
//! implementable without dependencies, and good enough for content
//! addressing a few thousand experiment cells. Store keys, checksums and
//! ledger digests live on disk or in baselines, and seeded xoshiro streams,
//! fault schedules and shard routes derive from SplitMix64, so both
//! algorithms must stay bit-exact.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64's state increment: 2^64 divided by the golden ratio, made odd.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 64-bit FNV-1a hash of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// A streaming FNV-1a hasher for checksumming records as they serialize.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    #[must_use]
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The SplitMix64 finalizer alone: a bijective avalanche of `z`. Use it to
/// stir a hash whose high bits are weak (FNV-1a of short, similar keys).
#[must_use]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 output for state `z`: the golden-ratio increment, then
/// [`mix64`]. A strong pure function of a 64-bit key.
#[must_use]
pub fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // The first two outputs of the SplitMix64 reference seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(GOLDEN_GAMMA.wrapping_mul(2)), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}

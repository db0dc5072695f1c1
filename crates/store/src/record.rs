//! The on-disk format of `records.log`, the store's only file: a 16-byte
//! header ([`LOG_MAGIC`], [`FORMAT_VERSION`], four reserved bytes) and then
//! the records, back to back. No index is kept beside it; opening a store
//! rebuilds the key map from one scan of the log.
//!
//! Everything is little-endian and integer-only. A record is
//!
//! ```text
//! offset  size  field
//!      0     4  record magic  (REC_MAGIC)
//!      4     4  schema version (the caller's payload schema)
//!      8     8  key           (FNV-1a of the cell fingerprint)
//!     16     4  words         (payload length in u64 words)
//!     20     4  reserved      (zero)
//!     24  8×w   payload
//!   24+8w     8  checksum     (FNV-1a over bytes 0 .. 24+8w)
//! ```
//!
//! The length is inside the checksummed region, so a corrupt length cannot
//! silently mis-frame a record: either the checksum at the claimed end
//! matches (and the length was good) or the record is quarantined.

use tdo_rand::{fnv1a64, Fnv1a};

/// Magic number opening the record log file.
pub const LOG_MAGIC: u64 = 0x5444_4f53_544f_5231; // "TDOSTOR1"
/// Magic number opening every record.
pub const REC_MAGIC: u32 = 0x5444_5245; // "TDRE"
/// On-disk container format version (bumped only when the framing changes;
/// payload schema versions are per-record and owned by the caller).
pub const FORMAT_VERSION: u32 = 1;

/// Log file header size in bytes.
pub const LOG_HEADER_BYTES: u64 = 16;
/// Fixed part of a record before the payload.
pub const REC_HEADER_BYTES: usize = 24;
/// Sanity cap on a record's payload length (1 MiB of words).
pub const MAX_WORDS: u32 = 1 << 17;

/// One decoded record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Payload schema version.
    pub version: u32,
    /// Content-address key.
    pub key: u64,
    /// The integer payload.
    pub payload: Vec<u64>,
}

impl Record {
    /// Total encoded size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        REC_HEADER_BYTES + self.payload.len() * 8 + 8
    }
}

/// Encoded size in bytes of a record with `words` payload words.
#[must_use]
pub fn record_len(words: u32) -> usize {
    REC_HEADER_BYTES + words as usize * 8 + 8
}

/// The log file header.
#[must_use]
pub fn log_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(LOG_HEADER_BYTES as usize);
    out.extend_from_slice(&LOG_MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out
}

/// Whether `bytes` starts with a valid log header.
#[must_use]
pub fn check_log_header(bytes: &[u8]) -> bool {
    bytes.len() >= LOG_HEADER_BYTES as usize
        && bytes[0..8] == LOG_MAGIC.to_le_bytes()
        && bytes[8..12] == FORMAT_VERSION.to_le_bytes()
}

/// Serializes one record (header, payload, checksum).
#[must_use]
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(rec.encoded_len());
    out.extend_from_slice(&REC_MAGIC.to_le_bytes());
    out.extend_from_slice(&rec.version.to_le_bytes());
    out.extend_from_slice(&rec.key.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(rec.payload.len()).expect("payload fits u32").to_le_bytes(),
    );
    out.extend_from_slice(&0u32.to_le_bytes());
    for w in &rec.payload {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let mut h = Fnv1a::new();
    h.update(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Outcome of decoding the bytes at one log offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decoded {
    /// A record with a valid checksum; `len` is its encoded size.
    Good {
        /// The record.
        rec: Record,
        /// Encoded size in bytes.
        len: usize,
    },
    /// The framing was plausible (magic and length in range) but the
    /// checksum failed; `len` bytes can be skipped to stay in sync.
    BadChecksum {
        /// Encoded size claimed by the (untrusted) header.
        len: usize,
    },
    /// The bytes do not frame a record at all; resynchronization is not
    /// possible past this point.
    Garbage,
}

/// Decodes the record starting at `bytes[0]`.
#[must_use]
pub fn decode_record(bytes: &[u8]) -> Decoded {
    if bytes.len() < record_len(0) || u32_at(bytes, 0) != REC_MAGIC {
        return Decoded::Garbage;
    }
    let words = u32_at(bytes, 16);
    if words > MAX_WORDS {
        return Decoded::Garbage;
    }
    let len = record_len(words);
    if bytes.len() < len {
        return Decoded::Garbage;
    }
    let body = &bytes[..len - 8];
    let stored = u64_at(bytes, len - 8);
    if fnv1a64(body) != stored {
        return Decoded::BadChecksum { len };
    }
    let payload =
        (0..words as usize).map(|i| u64_at(bytes, REC_HEADER_BYTES + i * 8)).collect::<Vec<u64>>();
    Decoded::Good { rec: Record { version: u32_at(bytes, 4), key: u64_at(bytes, 8), payload }, len }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip() {
        let rec = Record { version: 3, key: 0xdead_beef, payload: vec![1, 2, u64::MAX] };
        let bytes = encode_record(&rec);
        assert_eq!(bytes.len(), rec.encoded_len());
        assert_eq!(decode_record(&bytes), Decoded::Good { rec, len: bytes.len() });
    }

    #[test]
    fn bit_flip_is_bad_checksum_not_garbage() {
        let rec = Record { version: 1, key: 7, payload: vec![42; 4] };
        let mut bytes = encode_record(&rec);
        let len = bytes.len();
        bytes[REC_HEADER_BYTES + 3] ^= 0x10; // flip a payload bit
        assert_eq!(decode_record(&bytes), Decoded::BadChecksum { len });
    }

    #[test]
    fn truncation_is_garbage() {
        let rec = Record { version: 1, key: 7, payload: vec![42; 4] };
        let bytes = encode_record(&rec);
        assert_eq!(decode_record(&bytes[..bytes.len() - 9]), Decoded::Garbage);
        assert_eq!(decode_record(&[]), Decoded::Garbage);
    }
}

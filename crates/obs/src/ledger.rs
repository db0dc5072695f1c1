//! The decision-audit ledger: a bounded ring of structured records, one per
//! runtime adaptation decision — every in-place distance repair the
//! optimizer performs and every arm switch the policy controller commits.
//!
//! The paper's self-repair story (§3.3, Figure 7) is a *trajectory*: a
//! group's distance walks up while latency improves and backs off when it
//! worsens. Aggregate counters (`repairs`, `distance_up`) prove the loop
//! ran but cannot explain any single decision. The ledger keeps the
//! evidence: who triggered it, what changed, and the windowed measurements
//! that justified it — rendered by `tdo why` and persisted with results.
//!
//! Each decision site builds its [`LedgerRecord`] once and hands it to
//! [`DecisionLedger::record`] on the machine's one ring, which the driver
//! and the prefetch optimizer share through [`SharedLedger`]. The record
//! always lands in the ring; it reaches the probe, inside the
//! `distance_repaired` / `arm_switch` [`Event`], only when the probe is
//! enabled — so `tdo why`, persist and `tdo timeline` read the same records.
//!
//! Records are fixed-width integer words (milli/×100 units, no floats), so
//! encoded ledgers are byte-deterministic and digest-comparable across
//! serial and parallel runs. The ring is always-on: pushes happen only on
//! repair/switch decisions — control-plane occurrences orders of magnitude
//! rarer than simulated cycles — so it stays off the hot path by
//! construction.

use std::cell::RefCell;
use std::rc::Rc;

use tdo_rand::Fnv1a;

use crate::{Event, SharedProbe};

/// Retained records per run; older decisions fall off the front.
pub const LEDGER_CAPACITY: usize = 256;

/// Encoded words per [`LedgerRecord`].
pub const LEDGER_RECORD_WORDS: usize = 10;

/// What kind of adaptation decision a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LedgerKind {
    /// The optimizer patched a prefetch group's distance in place; `old` /
    /// `new` are distances, evidence is average access latency ×100.
    Repair,
    /// The policy controller installed a different prefetcher arm; `old` /
    /// `new` are candidate indices, evidence is the closing epoch's
    /// milli-IPC / milli-MPKI.
    ArmSwitch,
}

impl LedgerKind {
    /// Stable integer code used by the codec.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            LedgerKind::Repair => 0,
            LedgerKind::ArmSwitch => 1,
        }
    }

    /// Inverse of [`LedgerKind::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Option<LedgerKind> {
        match code {
            0 => Some(LedgerKind::Repair),
            1 => Some(LedgerKind::ArmSwitch),
            _ => None,
        }
    }
}

/// One audited decision. All fields are integers; interpretation of
/// `old`/`new` and the evidence pair depends on `kind` (see [`LedgerKind`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerRecord {
    /// Simulated cycle the decision was taken.
    pub cycle: u64,
    /// Decision kind.
    pub kind: LedgerKind,
    /// Triggering group: representative load PC (repair) or 0 (arm switch).
    pub group: u64,
    /// Triggering member load PC (repair) or 0 (arm switch).
    pub pc: u64,
    /// Value before: distance (repair) or candidate index (arm switch).
    pub old: u64,
    /// Value after.
    pub new: u64,
    /// Primary evidence: avg access latency ×100 (repair) or milli-IPC.
    pub evidence_a: u64,
    /// Secondary evidence: previous avg latency ×100, 0 on the group's
    /// first repair (repair) or milli-MPKI (arm switch).
    pub evidence_b: u64,
    /// The decision rule's margin in milli-units: the repair tolerance, or
    /// the controller's hysteresis (sweep commit) / degrade (re-sweep)
    /// threshold; 0 for an unconditional sampling-sweep advance.
    pub margin_milli: u64,
    /// Ordinal of the decision window: controller epochs closed so far, or
    /// the group's remaining repair budget after this repair.
    pub epoch: u64,
}

impl LedgerRecord {
    /// Fixed-width integer encoding, [`LEDGER_RECORD_WORDS`] long.
    #[must_use]
    pub fn encode(&self) -> [u64; LEDGER_RECORD_WORDS] {
        [
            self.cycle,
            self.kind.code(),
            self.group,
            self.pc,
            self.old,
            self.new,
            self.evidence_a,
            self.evidence_b,
            self.margin_milli,
            self.epoch,
        ]
    }

    /// Inverse of [`LedgerRecord::encode`]; `None` on a short slice or an
    /// unknown kind code.
    #[must_use]
    pub fn decode(words: &[u64]) -> Option<LedgerRecord> {
        if words.len() < LEDGER_RECORD_WORDS {
            return None;
        }
        Some(LedgerRecord {
            cycle: words[0],
            kind: LedgerKind::from_code(words[1])?,
            group: words[2],
            pc: words[3],
            old: words[4],
            new: words[5],
            evidence_a: words[6],
            evidence_b: words[7],
            margin_milli: words[8],
            epoch: words[9],
        })
    }
}

/// The bounded ring itself: keeps the last [`LEDGER_CAPACITY`] records.
#[derive(Clone, Debug, Default)]
pub struct DecisionLedger {
    records: std::collections::VecDeque<LedgerRecord>,
}

/// One machine's ring, shared by its driver and its prefetch optimizer.
pub type SharedLedger = Rc<RefCell<DecisionLedger>>;

impl DecisionLedger {
    /// The one entry point for a runtime decision: appends `record` to the
    /// ring, and records `event(record)` at `record.cycle` on `probe` only
    /// when the probe is enabled (a disabled probe never sees an [`Event`]).
    pub fn record(
        &mut self,
        record: LedgerRecord,
        probe: &SharedProbe,
        event: impl FnOnce(LedgerRecord) -> Event,
    ) {
        self.push(record);
        if probe.borrow().enabled() {
            probe.borrow_mut().record(record.cycle, event(record));
        }
    }

    /// Appends a record, evicting the oldest when the ring is full.
    fn push(&mut self, record: LedgerRecord) {
        if self.records.len() == LEDGER_CAPACITY {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    /// Retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<LedgerRecord> {
        self.records.iter().copied().collect()
    }
}

/// FNV-1a digest of a record slice's encoded words — the determinism
/// fingerprint compared across serial and `--jobs N` runs.
#[must_use]
pub fn ledger_digest(records: &[LedgerRecord]) -> u64 {
    let mut h = Fnv1a::new();
    for r in records {
        for w in r.encode() {
            h.update(&w.to_le_bytes());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycle: u64) -> LedgerRecord {
        LedgerRecord {
            cycle,
            kind: LedgerKind::Repair,
            group: 0x400,
            pc: 0x404,
            old: 2,
            new: 3,
            evidence_a: 18_250,
            evidence_b: 19_900,
            margin_milli: 20,
            epoch: 7,
        }
    }

    #[test]
    fn records_round_trip_and_reject_bad_kinds() {
        let r = LedgerRecord { kind: LedgerKind::ArmSwitch, ..record(99) };
        assert_eq!(LedgerRecord::decode(&r.encode()), Some(r));
        let mut words = record(1).encode();
        words[1] = 2;
        assert_eq!(LedgerRecord::decode(&words), None, "unknown kind code");
        assert_eq!(LedgerRecord::decode(&words[..5]), None, "short slice");
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut l = DecisionLedger::default();
        for c in 0..(LEDGER_CAPACITY as u64 + 10) {
            l.push(record(c));
        }
        assert_eq!(l.records().len(), LEDGER_CAPACITY);
        assert_eq!(l.records().first().map(|r| r.cycle), Some(10));
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = [record(1), record(2)];
        let b = [record(2), record(1)];
        assert_eq!(ledger_digest(&a), ledger_digest(&a));
        assert_ne!(ledger_digest(&a), ledger_digest(&b));
        assert_ne!(ledger_digest(&a), ledger_digest(&a[..1]));
        assert_eq!(ledger_digest(&[]), 0xcbf2_9ce4_8422_2325);
    }
}

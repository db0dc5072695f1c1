//! The persistent record schema for [`SimResult`] — how the experiment
//! engine's results serialize into the content-addressed store
//! (`tdo-store`).
//!
//! The store itself is generic (`u64` key → versioned `Vec<u64>` payload);
//! this module owns the `SimResult` encoding: a length-prefixed workload
//! name followed by every counter field in a fixed order. The encoding is
//! integer-only, so a decoded result is bit-identical to the simulated one
//! and warm-store report output is byte-identical to cold output.
//!
//! **Versioning.** [`SCHEMA_VERSION`] must be bumped whenever a field is
//! added, removed or reordered anywhere in the [`SimResult`] tree. Stale
//! records are simply misses (re-simulated and overwritten); `tdo store gc`
//! reclaims them.

use tdo_core::OptimizerStats;
use tdo_cpu::CpuStats;
use tdo_mem::MemStats;
use tdo_obs::{LedgerRecord, LEDGER_CAPACITY, LEDGER_RECORD_WORDS};
use tdo_trident::TridentStats;

use crate::engine::Cell;
use crate::result::{DriverCounters, SimResult};

/// Payload schema version for stored [`SimResult`] records.
/// v2: per-arm prefetch counters + arm switch count in [`MemStats`].
/// v3: decision-audit ledger section (length-prefixed records) after the
/// halt flag.
pub const SCHEMA_VERSION: u32 = 3;

/// Fixed counter words following the variable-length name prefix (up to
/// and including the halt flag; the ledger section follows).
const FIXED_WORDS: usize = 68;

/// The key of a cell in every per-cell table: the store, the engine's memo,
/// and the server's result cache and single-flight map. It is the stable
/// 64-bit FNV-1a hash of [`Cell::fingerprint`]. Two cells with equal
/// fingerprints simulate identically, so the hash is a sound content
/// address; two distinct cells whose hashes collided would share one
/// result in every table alike. Rendering the fingerprint is the cost, so
/// callers compute the key once per cell.
#[must_use]
pub fn cell_key(cell: &Cell) -> u64 {
    tdo_rand::fnv1a64(cell.fingerprint().as_bytes())
}

/// Serializes a result into the integer record payload.
#[must_use]
pub fn encode_result(r: &SimResult) -> Vec<u64> {
    let name = r.name.as_bytes();
    let name_words = name.len().div_ceil(8);
    let mut out = Vec::with_capacity(1 + name_words + FIXED_WORDS);
    out.push(name.len() as u64);
    for chunk in name.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        out.push(u64::from_le_bytes(word));
    }
    out.extend_from_slice(&[r.cycles, r.orig_insts, r.helper_active_cycles, r.helper_committed]);
    let w = &r.window;
    out.extend_from_slice(&[
        w.orig_insts,
        w.loads_hit,
        w.loads_hit_prefetched,
        w.loads_partial,
        w.loads_miss,
        w.loads_miss_due_to_prefetch,
        w.load_misses,
        w.load_misses_in_traces,
        w.load_misses_covered,
        w.dlt_events_queued,
        w.hot_trace_events,
        w.trace_backouts,
    ]);
    let c = &r.cpu;
    out.extend_from_slice(&[
        c.cycles,
        c.main_committed,
        c.helper_committed,
        c.helper_active_cycles,
        c.helper_jobs,
        c.main_loads,
        c.main_stores,
        c.main_prefetches,
    ]);
    let m = &r.mem;
    out.extend_from_slice(&[
        m.hits,
        m.hits_prefetched,
        m.partial_hits,
        m.misses,
        m.misses_due_to_prefetch,
    ]);
    out.extend_from_slice(&m.serviced);
    out.extend_from_slice(&[
        m.total_load_latency,
        m.total_miss_latency,
        m.stores,
        m.sw_prefetch_issued,
        m.sw_prefetch_redundant,
        m.sw_prefetch_dropped,
        m.writebacks,
    ]);
    out.extend_from_slice(&m.arm_issued);
    out.extend_from_slice(&m.arm_useful);
    out.push(m.arm_switches);
    let t = &r.trident;
    out.extend_from_slice(&[
        t.traces_installed,
        t.reoptimizations,
        t.backouts,
        t.cache_full,
        t.events_queued,
        t.events_dropped_saturated,
        t.events_dropped_duplicate,
    ]);
    let o = &r.optimizer;
    out.extend_from_slice(&[
        o.events,
        o.insertions,
        o.prefetches_inserted,
        o.repairs,
        o.distance_up,
        o.distance_down,
        o.matured,
        o.groups,
        o.converge_cycles_total,
        o.converge_cycles_max,
    ]);
    out.push(u64::from(r.halted));
    out.push(r.ledger.len() as u64);
    for rec in &r.ledger {
        out.extend_from_slice(&rec.encode());
    }
    out
}

/// Deserializes a record payload back into a result.
///
/// Returns `None` on any structural mismatch (wrong length, invalid name
/// bytes, non-boolean halt flag) — the caller treats that as a store miss
/// and re-simulates.
#[must_use]
pub fn decode_result(words: &[u64]) -> Option<SimResult> {
    let name_len = usize::try_from(*words.first()?).ok()?;
    if name_len > 4096 {
        return None;
    }
    let name_words = name_len.div_ceil(8);
    let ledger_at = 1 + name_words + FIXED_WORDS;
    if words.len() < ledger_at + 1 {
        return None;
    }
    let ledger_len = usize::try_from(words[ledger_at]).ok()?;
    if ledger_len > LEDGER_CAPACITY
        || words.len() != ledger_at + 1 + ledger_len * LEDGER_RECORD_WORDS
    {
        return None;
    }
    let mut ledger = Vec::with_capacity(ledger_len);
    for chunk in words[ledger_at + 1..].chunks_exact(LEDGER_RECORD_WORDS) {
        ledger.push(LedgerRecord::decode(chunk)?);
    }
    let mut name_bytes = Vec::with_capacity(name_words * 8);
    for w in &words[1..1 + name_words] {
        name_bytes.extend_from_slice(&w.to_le_bytes());
    }
    name_bytes.truncate(name_len);
    let name = String::from_utf8(name_bytes).ok()?;

    let mut it = words[1 + name_words..].iter().copied();
    let mut next = || it.next().expect("length checked above");
    let (cycles, orig_insts, helper_active_cycles, helper_committed) =
        (next(), next(), next(), next());
    let window = DriverCounters {
        orig_insts: next(),
        loads_hit: next(),
        loads_hit_prefetched: next(),
        loads_partial: next(),
        loads_miss: next(),
        loads_miss_due_to_prefetch: next(),
        load_misses: next(),
        load_misses_in_traces: next(),
        load_misses_covered: next(),
        dlt_events_queued: next(),
        hot_trace_events: next(),
        trace_backouts: next(),
    };
    let cpu = CpuStats {
        cycles: next(),
        main_committed: next(),
        helper_committed: next(),
        helper_active_cycles: next(),
        helper_jobs: next(),
        main_loads: next(),
        main_stores: next(),
        main_prefetches: next(),
    };
    let mem = MemStats {
        hits: next(),
        hits_prefetched: next(),
        partial_hits: next(),
        misses: next(),
        misses_due_to_prefetch: next(),
        serviced: [next(), next(), next(), next(), next()],
        total_load_latency: next(),
        total_miss_latency: next(),
        stores: next(),
        sw_prefetch_issued: next(),
        sw_prefetch_redundant: next(),
        sw_prefetch_dropped: next(),
        writebacks: next(),
        arm_issued: [next(), next(), next(), next()],
        arm_useful: [next(), next(), next(), next()],
        arm_switches: next(),
    };
    let trident = TridentStats {
        traces_installed: next(),
        reoptimizations: next(),
        backouts: next(),
        cache_full: next(),
        events_queued: next(),
        events_dropped_saturated: next(),
        events_dropped_duplicate: next(),
    };
    let optimizer = OptimizerStats {
        events: next(),
        insertions: next(),
        prefetches_inserted: next(),
        repairs: next(),
        distance_up: next(),
        distance_down: next(),
        matured: next(),
        groups: next(),
        converge_cycles_total: next(),
        converge_cycles_max: next(),
    };
    let halted = match next() {
        0 => false,
        1 => true,
        _ => return None,
    };
    Some(SimResult {
        name,
        cycles,
        orig_insts,
        helper_active_cycles,
        helper_committed,
        window,
        cpu,
        mem,
        trident,
        optimizer,
        ledger,
        halted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchSetup, SimConfig};
    use tdo_obs::LedgerKind;
    use tdo_workloads::Scale;

    fn sample() -> SimResult {
        let mut r = SimResult {
            name: "mcf".into(),
            cycles: 123_456,
            orig_insts: 7_890,
            helper_active_cycles: 42,
            helper_committed: 7,
            window: DriverCounters::default(),
            cpu: CpuStats::default(),
            mem: MemStats::default(),
            trident: TridentStats::default(),
            optimizer: OptimizerStats::default(),
            ledger: vec![
                LedgerRecord {
                    cycle: 500,
                    kind: LedgerKind::Repair,
                    group: 0x400,
                    pc: 0x408,
                    old: 2,
                    new: 3,
                    evidence_a: 18_250,
                    evidence_b: 19_900,
                    margin_milli: 20,
                    epoch: 9,
                },
                LedgerRecord {
                    cycle: 900,
                    kind: LedgerKind::ArmSwitch,
                    group: 0,
                    pc: 0,
                    old: 3,
                    new: 0,
                    evidence_a: 750,
                    evidence_b: 12_000,
                    margin_milli: 20,
                    epoch: 4,
                },
            ],
            halted: true,
        };
        r.window.loads_hit = 99;
        r.window.trace_backouts = 3;
        r.cpu.main_committed = 1_000_000;
        r.mem.serviced = [1, 2, 3, 4, 5];
        r.mem.writebacks = 17;
        r.mem.arm_issued = [10, 20, 30, 40];
        r.mem.arm_useful = [9, 19, 29, 39];
        r.mem.arm_switches = 6;
        r.trident.events_dropped_duplicate = 8;
        r.optimizer.converge_cycles_max = u64::MAX;
        r
    }

    #[test]
    fn round_trip_is_exact() {
        let r = sample();
        let decoded = decode_result(&encode_result(&r)).expect("decodes");
        assert_eq!(format!("{r:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn structural_damage_is_a_miss_not_a_panic() {
        let words = encode_result(&sample());
        assert!(decode_result(&words[..words.len() - 1]).is_none(), "short payload");
        let mut long = words.clone();
        long.push(0);
        assert!(decode_result(&long).is_none(), "long payload");
        let name_words = "mcf".len().div_ceil(8);
        let mut bad_halt = words.clone();
        bad_halt[name_words + FIXED_WORDS] = 2; // the halt flag word
        assert!(decode_result(&bad_halt).is_none(), "non-boolean halt flag");
        let mut bad_kind = words.clone();
        let first_record = 1 + name_words + FIXED_WORDS + 1;
        bad_kind[first_record + 1] = 7; // a record's kind code
        assert!(decode_result(&bad_kind).is_none(), "unknown ledger kind");
        let mut bad_len = words.clone();
        bad_len[first_record - 1] = u64::MAX; // the ledger length word
        assert!(decode_result(&bad_len).is_none(), "absurd ledger length");
        let mut bad_name = words;
        bad_name[0] = u64::MAX;
        assert!(decode_result(&bad_name).is_none(), "absurd name length");
        assert!(decode_result(&[]).is_none(), "empty payload");
    }

    #[test]
    fn key_stability_golden() {
        // The store key of a pinned cell. If this changes, every existing
        // store on disk silently stops matching: bump SCHEMA_VERSION and
        // re-pin instead of papering over it.
        let cell = Cell::new("mcf", Scale::Test, SimConfig::test(PrefetchSetup::SwSelfRepair));
        assert_eq!(cell_key(&cell), 8_819_226_722_879_979_877);
    }
}

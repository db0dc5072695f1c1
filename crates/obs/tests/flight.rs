//! Flight-recorder saturation behaviour: overwrite-oldest semantics, exact
//! overwrite accounting, and byte-deterministic dumps regardless of how
//! many threads fed the ring.

use tdo_obs::span::{EvKind, FlightRecord, FlightRecorder};
use tdo_obs::{validate_flight, FlightKind};

/// A point record in trace `trace` with payload `arg` at time `ts`.
fn rec(trace: u64, ts: u64, arg: u64) -> FlightRecord {
    FlightRecord { ts, trace, span: 0, parent: 0, kind: FlightKind::Mark, ev: EvKind::Point, arg }
}

#[test]
fn a_full_ring_overwrites_oldest_first() {
    let r = FlightRecorder::with_capacity(8);
    for i in 0..12u64 {
        r.record_raw(&rec(1, i, i));
    }
    assert_eq!(r.recorded(), 12);
    assert_eq!(r.overwritten(), 4, "exactly the displaced records count");
    let snap = r.snapshot();
    assert_eq!(snap.len(), 8, "ring holds its capacity");
    let args: Vec<u64> = snap.iter().map(|x| x.arg).collect();
    assert_eq!(args, (4..12).collect::<Vec<u64>>(), "oldest four gone, order kept");
}

#[test]
fn overwrite_accounting_is_exact_at_the_boundary() {
    let r = FlightRecorder::with_capacity(16);
    for i in 0..16u64 {
        r.record_raw(&rec(1, i, i));
    }
    assert_eq!(r.overwritten(), 0, "a ring filled exactly to capacity displaced nothing");
    r.record_raw(&rec(1, 16, 16));
    assert_eq!(r.overwritten(), 1);
    assert_eq!(r.recorded(), 17);
    assert_eq!(r.snapshot().len(), 16);
}

/// The records four worker threads would emit: four disjoint traces, each
/// with its own logical timeline.
fn workload() -> Vec<Vec<FlightRecord>> {
    (1..=4u64)
        .map(|trace| (0..50u64).map(|seq| rec(trace, seq, trace * 1000 + seq)).collect())
        .collect()
}

#[test]
fn dumps_are_byte_identical_one_thread_vs_four() {
    let _clock = tdo_obs::span::logical_clock_guard();

    // Serial reference: one thread records everything, trace by trace.
    let serial = FlightRecorder::with_capacity(1024);
    for trace in workload() {
        for r in &trace {
            serial.record_raw(r);
        }
    }
    let want = serial.dump();
    validate_flight(&want).expect("serial dump validates");

    // Concurrent: the same records from four racing threads. The ring is
    // big enough that nothing is displaced, and the dump's (trace, ts)
    // ordering erases the interleaving.
    for round in 0..8 {
        let concurrent = std::sync::Arc::new(FlightRecorder::with_capacity(1024));
        let handles: Vec<_> = workload()
            .into_iter()
            .map(|trace| {
                let rec = std::sync::Arc::clone(&concurrent);
                std::thread::spawn(move || {
                    for r in &trace {
                        rec.record_raw(r);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder thread");
        }
        assert_eq!(concurrent.recorded(), 200);
        assert_eq!(concurrent.overwritten(), 0);
        let got = concurrent.dump();
        assert_eq!(got, want, "round {round}: dump depends only on contents, not threading");
    }
}

#[test]
fn reset_clears_the_ring_but_counters_stay_monotonic() {
    let r = FlightRecorder::with_capacity(8);
    for i in 0..12u64 {
        r.record_raw(&rec(1, i, i));
    }
    r.reset();
    assert!(r.snapshot().is_empty());
    assert_eq!(r.dump(), "");
    // The lifetime counters are exported as Prometheus counters and so
    // must never move backwards.
    assert_eq!(r.recorded(), 12);
    assert_eq!(r.overwritten(), 4);
    // A post-reset ring starts overwrite accounting from empty again.
    r.record_raw(&rec(2, 0, 0));
    assert_eq!(r.overwritten(), 4);
    assert_eq!(r.snapshot().len(), 1);
}

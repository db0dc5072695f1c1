//! # tdo-obs — the cycle-stamped observability layer
//!
//! The paper's central claim is *dynamic*: prefetch distances start wrong
//! and are repaired in place until delinquent-load events stop firing. The
//! end-of-run aggregates (`SimResult`, `TridentStats`, `OptimizerStats`)
//! cannot show that convergence, so this crate records *when* things happen:
//! every event is stamped with the simulated cycle at which it occurred —
//! never wall clock — so recorded timelines are byte-identical across runs,
//! worker counts and machines.
//!
//! The design is pay-for-what-you-use:
//!
//! * [`Probe`] — the recording interface the simulation layers call into.
//!   Call sites guard on [`Probe::enabled`], so with the default
//!   [`NullProbe`] no [`Event`] value is ever constructed: the hot path
//!   does one boolean test and moves on.
//! * [`NullProbe`] — the zero-sized, always-disabled probe.
//! * [`Recorder`] — an enabled probe that appends `(cycle, event)` pairs to
//!   a vector and serializes them as a JSONL event log
//!   ([`Recorder::to_jsonl`]) or a Chrome `trace_event` file
//!   ([`Recorder::to_chrome_trace`]) viewable in `about:tracing`/Perfetto.
//! * [`validate`] — a schema check for emitted JSONL logs (used by tests
//!   and CI via `tdo trace-validate`).
//! * [`ledger`] — the decision-audit ledger: the [`LedgerRecord`] every
//!   repair and arm switch produces, and the bounded ring that keeps them
//!   and forwards each to an enabled probe.
//! * [`json`] — the workspace's one JSON reader and string escaper.
//!
//! Layers share one probe through [`SharedProbe`]
//! (`Rc<RefCell<dyn Probe>>`): the driver, the Trident runtime and the
//! prefetch optimizer all hold clones of the same recorder, and the whole
//! machine stays single-threaded per simulation (parallelism in the
//! experiment engine is *across* cells, never within one).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod event;
pub mod json;
pub mod ledger;
pub mod logline;
pub mod recorder;
pub mod span;
pub mod validate;

use std::cell::RefCell;
use std::rc::Rc;

pub use event::{
    DropReason, Event, HelperJobKind, LoadClassKind, PrefetchGroupKind, QueueEventKind,
};
pub use ledger::{
    ledger_digest, DecisionLedger, LedgerKind, LedgerRecord, SharedLedger, LEDGER_CAPACITY,
    LEDGER_RECORD_WORDS,
};
pub use logline::{validate_log, Level};
pub use recorder::Recorder;
pub use span::{
    render_flight, validate_flight, FlightKind, FlightRecorder, SpanScope, TraceCtx, TraceIdGen,
};
pub use validate::{validate_chrome_trace, validate_jsonl};

/// Registers the crate's process-global observability counters — the
/// flight recorder's recorded/overwritten/dropped counts and the per-level
/// structured-log line counts — with a metrics registry.
pub fn register_metrics(reg: &tdo_metrics::Registry) {
    span::global().register_metrics(reg);
    logline::register_metrics(reg);
}

/// The recording interface the simulation layers call into.
///
/// Contract for call sites: construct the [`Event`] (and call [`Probe::record`])
/// only when [`Probe::enabled`] returns `true`. That keeps the disabled path
/// free of event construction — a single boolean test.
pub trait Probe {
    /// Whether this probe records anything. Call sites skip event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool;

    /// Records one event at the given simulated cycle.
    fn record(&mut self, cycle: u64, event: Event);
}

/// The zero-sized, always-disabled probe — the default in every layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _cycle: u64, _event: Event) {}
}

/// A probe shared between the driver, the Trident runtime and the prefetch
/// optimizer of one machine.
pub type SharedProbe = Rc<RefCell<dyn Probe>>;

/// A fresh disabled probe (what every layer starts with).
#[must_use]
pub fn null_probe() -> SharedProbe {
    Rc::new(RefCell::new(NullProbe))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NullProbe>(), 0);
        assert!(!NullProbe.enabled());
        // Recording through it is a no-op (nothing to observe, nothing to
        // panic): the call compiles away once `enabled()` gates it.
        NullProbe.record(7, Event::HelperFinish { job: 0 });
    }

    #[test]
    fn shared_null_probe_reports_disabled() {
        let p = null_probe();
        assert!(!p.borrow().enabled());
    }
}

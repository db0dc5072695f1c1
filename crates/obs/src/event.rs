//! The event taxonomy and its JSONL serialization.
//!
//! Every event serializes to one flat JSON object per line:
//! `{"cycle":N,"event":"name",...fields}`. All values are integers or
//! fixed strings — floats are pre-scaled to integer milli-units by the
//! producer — so the byte output is trivially deterministic. Field order is
//! fixed by the serializer, never by a map.

use std::fmt::Write as _;

use crate::ledger::LedgerRecord;

/// Which kind of hot event moved through the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueEventKind {
    /// A hot-trace formation event from the branch profiler.
    HotTrace,
    /// A delinquent-load event from the DLT.
    DelinquentLoad,
}

impl QueueEventKind {
    /// The serialized kind name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueueEventKind::HotTrace => "hot_trace",
            QueueEventKind::DelinquentLoad => "delinquent_load",
        }
    }
}

/// Why the event queue refused an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The queue was at capacity.
    Saturated,
    /// An identical event was already pending (coalesced).
    Duplicate,
}

impl DropReason {
    /// The serialized reason name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Saturated => "saturated",
            DropReason::Duplicate => "duplicate",
        }
    }
}

/// What the helper context is busy doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HelperJobKind {
    /// Forming, optimizing and installing a hot trace.
    FormTrace,
    /// Re-installing a trace with prefetches spliced in.
    InsertPrefetches,
    /// Patching prefetch distance bits in place.
    RepairDistance,
    /// An event whose analysis ended in no code change.
    AnalyzeOnly,
}

impl HelperJobKind {
    /// The span name used in both the JSONL log and the Chrome trace.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HelperJobKind::FormTrace => "form_trace",
            HelperJobKind::InsertPrefetches => "insert_prefetches",
            HelperJobKind::RepairDistance => "repair_distance",
            HelperJobKind::AnalyzeOnly => "analyze_only",
        }
    }
}

/// How the optimizer classified a delinquent load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadClassKind {
    /// Stride-recurrent.
    Stride,
    /// Pointer-chasing.
    Pointer,
    /// Not prefetchable by this optimizer.
    Other,
}

impl LoadClassKind {
    /// The serialized class name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LoadClassKind::Stride => "stride",
            LoadClassKind::Pointer => "pointer",
            LoadClassKind::Other => "other",
        }
    }
}

/// The kind of an inserted prefetch group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchGroupKind {
    /// Stride-predictable; distance-repairable.
    Stride,
    /// Jump-pointer dereference.
    Pointer,
}

impl PrefetchGroupKind {
    /// The serialized kind name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PrefetchGroupKind::Stride => "stride",
            PrefetchGroupKind::Pointer => "pointer",
        }
    }
}

/// One cycle-stamped observation. See each variant for the producing layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Trident formed (and laid out) a new trace body.
    TraceFormed {
        /// Trace id.
        trace: u32,
        /// Original-code head address.
        head: u64,
        /// Body length in instructions.
        insts: u32,
    },
    /// Trident registered a trace and linked its head.
    TraceInstalled {
        /// Trace id.
        trace: u32,
        /// Original-code head address.
        head: u64,
        /// Code-cache address of the body.
        cc_addr: u64,
        /// The trace this one replaced (re-optimization), if any.
        replaces: Option<u32>,
    },
    /// The watch table backed an under-performing trace out.
    TraceBackedOut {
        /// Trace id.
        trace: u32,
        /// Original-code head address (restored).
        head: u64,
    },
    /// A hot event entered the pending queue.
    EventQueued {
        /// Event kind.
        kind: QueueEventKind,
        /// Head address (hot trace) or load PC (delinquent load).
        pc: u64,
        /// Queue depth after the push.
        pending: u32,
    },
    /// A hot event was refused by the queue.
    EventDropped {
        /// Event kind.
        kind: QueueEventKind,
        /// Head address or load PC.
        pc: u64,
        /// Why it was refused.
        reason: DropReason,
    },
    /// The driver dispatched a pending event to the helper context.
    EventDrained {
        /// Event kind.
        kind: QueueEventKind,
        /// Head address or load PC.
        pc: u64,
        /// Queue depth after the pop.
        pending: u32,
    },
    /// The helper context started a job (busy-span open).
    HelperStart {
        /// Job id.
        job: u64,
        /// What the job does.
        kind: HelperJobKind,
        /// Simulated helper instructions charged.
        cost: u64,
    },
    /// A helper job completed and its code changes were committed
    /// (busy-span close).
    HelperFinish {
        /// Job id.
        job: u64,
    },
    /// The optimizer classified a delinquent load.
    LoadClassified {
        /// The load's original PC.
        pc: u64,
        /// The class.
        class: LoadClassKind,
        /// Byte stride (stride class only; 0 otherwise).
        stride: i64,
    },
    /// The optimizer inserted a prefetch group into a trace.
    PrefetchInserted {
        /// Trace id carrying the group (the re-installed trace).
        trace: u32,
        /// Group key: the representative load's original PC.
        group: u64,
        /// Group kind.
        kind: PrefetchGroupKind,
        /// Initial prefetch distance.
        distance: u8,
        /// Number of prefetch instructions inserted.
        prefetches: u32,
    },
    /// The optimizer ran one repair decision for a group. The record's
    /// `group`, `pc`, `old`/`new` distance (equal when held) and
    /// `evidence_a` (the load's windowed average access latency ×100) are
    /// serialized; the rest lives in the ledger only.
    DistanceRepaired {
        /// Trace id carrying the group.
        trace: u32,
        /// The decision's ledger record ([`crate::LedgerKind::Repair`]).
        record: LedgerRecord,
    },
    /// A load matured: its repair budget is spent or it is unprefetchable,
    /// so it stops firing events.
    LoadMatured {
        /// Code-cache PC of the matured load.
        pc: u64,
    },
    /// A windowed performance sample from the driver (every N committed
    /// original instructions). Rates are integer milli-units.
    Sample {
        /// Original-equivalent instructions committed so far (x-axis).
        insts: u64,
        /// Cycles elapsed in this window.
        dcycles: u64,
        /// Window IPC ×1000.
        ipc_milli: u64,
        /// Window L1 load-miss rate ×1000.
        l1_miss_milli: u64,
        /// Window rate of loads serviced beyond the L2 ×1000.
        l2_miss_milli: u64,
        /// Window prefetch accuracy ×1000 (first-touch hits on prefetched
        /// lines per software prefetch issued).
        pf_acc_milli: u64,
    },
    /// The policy controller replaced the hardware prefetcher arm. The
    /// record's `evidence_a` / `evidence_b` (the triggering epoch's
    /// milli-IPC and milli-MPKI) are serialized next to the arm names.
    ArmSwitch {
        /// Arm kind name being retired (`tdo_arms::ArmKind::name`).
        from: &'static str,
        /// Arm kind name being installed.
        to: &'static str,
        /// The decision's ledger record ([`crate::LedgerKind::ArmSwitch`]).
        record: LedgerRecord,
    },
}

/// Every JSONL event name, in the order the variants are declared (the
/// validator's schema).
pub const EVENT_NAMES: [&str; 14] = [
    "trace_formed",
    "trace_installed",
    "trace_backed_out",
    "event_queued",
    "event_dropped",
    "event_drained",
    "helper_start",
    "helper_finish",
    "load_classified",
    "prefetch_inserted",
    "distance_repaired",
    "load_matured",
    "sample",
    "arm_switch",
];

impl Event {
    /// The event's JSONL name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::TraceFormed { .. } => "trace_formed",
            Event::TraceInstalled { .. } => "trace_installed",
            Event::TraceBackedOut { .. } => "trace_backed_out",
            Event::EventQueued { .. } => "event_queued",
            Event::EventDropped { .. } => "event_dropped",
            Event::EventDrained { .. } => "event_drained",
            Event::HelperStart { .. } => "helper_start",
            Event::HelperFinish { .. } => "helper_finish",
            Event::LoadClassified { .. } => "load_classified",
            Event::PrefetchInserted { .. } => "prefetch_inserted",
            Event::DistanceRepaired { .. } => "distance_repaired",
            Event::LoadMatured { .. } => "load_matured",
            Event::Sample { .. } => "sample",
            Event::ArmSwitch { .. } => "arm_switch",
        }
    }

    /// Appends the event as one JSONL line (newline included) to `out`.
    pub fn write_jsonl(&self, cycle: u64, out: &mut String) {
        let _ = write!(out, "{{\"cycle\":{cycle},\"event\":\"{}\"", self.name());
        match *self {
            Event::TraceFormed { trace, head, insts } => {
                let _ = write!(out, ",\"trace\":{trace},\"head\":{head},\"insts\":{insts}");
            }
            Event::TraceInstalled { trace, head, cc_addr, replaces } => {
                let _ = write!(out, ",\"trace\":{trace},\"head\":{head},\"cc_addr\":{cc_addr}");
                if let Some(old) = replaces {
                    let _ = write!(out, ",\"replaces\":{old}");
                }
            }
            Event::TraceBackedOut { trace, head } => {
                let _ = write!(out, ",\"trace\":{trace},\"head\":{head}");
            }
            Event::EventQueued { kind, pc, pending } => {
                let _ =
                    write!(out, ",\"kind\":\"{}\",\"pc\":{pc},\"pending\":{pending}", kind.name());
            }
            Event::EventDropped { kind, pc, reason } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"{}\",\"pc\":{pc},\"reason\":\"{}\"",
                    kind.name(),
                    reason.name()
                );
            }
            Event::EventDrained { kind, pc, pending } => {
                let _ =
                    write!(out, ",\"kind\":\"{}\",\"pc\":{pc},\"pending\":{pending}", kind.name());
            }
            Event::HelperStart { job, kind, cost } => {
                let _ = write!(out, ",\"job\":{job},\"kind\":\"{}\",\"cost\":{cost}", kind.name());
            }
            Event::HelperFinish { job } => {
                let _ = write!(out, ",\"job\":{job}");
            }
            Event::LoadClassified { pc, class, stride } => {
                let _ =
                    write!(out, ",\"pc\":{pc},\"class\":\"{}\",\"stride\":{stride}", class.name());
            }
            Event::PrefetchInserted { trace, group, kind, distance, prefetches } => {
                let _ = write!(
                    out,
                    ",\"trace\":{trace},\"group\":{group},\"kind\":\"{}\",\"distance\":{distance},\"prefetches\":{prefetches}",
                    kind.name()
                );
            }
            Event::DistanceRepaired {
                trace,
                record: LedgerRecord { group, pc, old, new, evidence_a, .. },
            } => {
                let _ = write!(
                    out,
                    ",\"trace\":{trace},\"group\":{group},\"pc\":{pc},\"old\":{old},\"new\":{new},\"avg_latency_x100\":{evidence_a}"
                );
            }
            Event::LoadMatured { pc } => {
                let _ = write!(out, ",\"pc\":{pc}");
            }
            Event::Sample {
                insts,
                dcycles,
                ipc_milli,
                l1_miss_milli,
                l2_miss_milli,
                pf_acc_milli,
            } => {
                let _ = write!(
                    out,
                    ",\"insts\":{insts},\"dcycles\":{dcycles},\"ipc_milli\":{ipc_milli},\"l1_miss_milli\":{l1_miss_milli},\"l2_miss_milli\":{l2_miss_milli},\"pf_acc_milli\":{pf_acc_milli}"
                );
            }
            Event::ArmSwitch { from, to, record: LedgerRecord { evidence_a, evidence_b, .. } } => {
                let _ = write!(
                    out,
                    ",\"from\":\"{from}\",\"to\":\"{to}\",\"ipc_milli\":{evidence_a},\"mpki_milli\":{evidence_b}"
                );
            }
        }
        out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LedgerKind;

    /// A decision record carrying the given evidence pair.
    fn record(kind: LedgerKind, evidence_a: u64, evidence_b: u64) -> LedgerRecord {
        LedgerRecord {
            cycle: 0,
            kind,
            group: 0x2000,
            pc: 0x2008,
            old: 2,
            new: 3,
            evidence_a,
            evidence_b,
            margin_milli: 20,
            epoch: 5,
        }
    }

    #[test]
    fn jsonl_lines_are_flat_objects_with_cycle_first() {
        let mut out = String::new();
        Event::DistanceRepaired { trace: 3, record: record(LedgerKind::Repair, 12345, 11_000) }
            .write_jsonl(900, &mut out);
        assert_eq!(
            out,
            "{\"cycle\":900,\"event\":\"distance_repaired\",\"trace\":3,\"group\":8192,\
             \"pc\":8200,\"old\":2,\"new\":3,\"avg_latency_x100\":12345}\n"
        );
    }

    #[test]
    fn optional_fields_are_omitted_when_absent() {
        let mut with = String::new();
        let mut without = String::new();
        Event::TraceInstalled { trace: 1, head: 16, cc_addr: 32, replaces: Some(0) }
            .write_jsonl(1, &mut with);
        Event::TraceInstalled { trace: 1, head: 16, cc_addr: 32, replaces: None }
            .write_jsonl(1, &mut without);
        assert!(with.contains("\"replaces\":0"));
        assert!(!without.contains("replaces"));
    }

    #[test]
    fn names_cover_every_variant() {
        // Spot checks that names() agrees with the published schema list.
        assert!(EVENT_NAMES.contains(&Event::HelperFinish { job: 0 }.name()));
        assert!(EVENT_NAMES.contains(
            &Event::Sample {
                insts: 0,
                dcycles: 0,
                ipc_milli: 0,
                l1_miss_milli: 0,
                l2_miss_milli: 0,
                pf_acc_milli: 0
            }
            .name()
        ));
        let record = record(LedgerKind::ArmSwitch, 0, 0);
        assert!(
            EVENT_NAMES.contains(&Event::ArmSwitch { from: "stream", to: "delta", record }.name())
        );
    }

    #[test]
    fn arm_switch_serializes_names_and_window_metrics() {
        let mut out = String::new();
        let record = record(LedgerKind::ArmSwitch, 850, 12_500);
        Event::ArmSwitch { from: "stream", to: "nextline", record }.write_jsonl(4242, &mut out);
        assert_eq!(
            out,
            "{\"cycle\":4242,\"event\":\"arm_switch\",\"from\":\"stream\",\"to\":\"nextline\",\
             \"ipc_milli\":850,\"mpki_milli\":12500}\n"
        );
    }
}

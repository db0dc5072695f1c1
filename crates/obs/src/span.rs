//! Request-scoped tracing and the always-on flight recorder.
//!
//! This module is the cross-process half of the observability story: where
//! [`crate::Recorder`] traces one simulation cycle-by-cycle, the span layer
//! ties a *request* together across the server, the experiment engine, the
//! result store and the fault plane.
//!
//! * **Trace ids** are 63-bit non-zero integers minted from the seeded
//!   deterministic rng ([`TraceIdGen`]) so tests and the chaos harness can
//!   reproduce the exact same ids run after run.
//! * **Trace context** is a thread-local `(trace, span, seq)` triple. It is
//!   [`Copy`] ([`TraceCtx`]) so it can be captured on one thread (say, the
//!   server accept loop) and [`resume`]d on another (a worker) — that is how
//!   a span survives the queue hand-off.
//! * **[`SpanScope`]** is an RAII guard recording integer-only begin/end
//!   events; [`begin`]/[`OpenSpan::end`] are the manual form for spans that
//!   cross threads.
//! * **[`FlightRecorder`]** is a fixed-capacity, overwrite-oldest ring of
//!   event slots written with relaxed atomics — cheap enough to leave armed
//!   on production paths. A per-slot sequence word makes reads best-effort
//!   consistent: a scrape concurrent with heavy writing may skip (never
//!   invent) records.
//!
//! Timestamps come from a process-wide clock with two modes: wall
//! microseconds since process start (the default), or a **logical clock**
//! ([`logical_clock_guard`]) where each trace stamps its events with its own
//! 0,1,2,… sequence — that is what makes flight dumps byte-deterministic in
//! tests and the chaos harness regardless of thread count.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use tdo_metrics::{Counter, Registry};
use tdo_rand::Rng;

use crate::json::Value;

/// Mask keeping ids and arguments within `i64` range so every value in a
/// flight dump round-trips through integer-only JSONL.
pub const ID_MASK: u64 = i64::MAX as u64;

/// Capacity (in events) of the process-global flight recorder.
pub const FLIGHT_CAPACITY: usize = 4096;

/// What a flight event describes. The names are the `"kind"` strings in
/// dumped JSONL and are stable schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A whole server request (root span of a trace).
    Request = 0,
    /// Time spent queued between accept and a worker picking the job up.
    QueueWait = 1,
    /// One experiment-engine cell execution (simulate or recall).
    RunCell = 2,
    /// A result-store read.
    StoreGet = 3,
    /// A result-store write.
    StorePut = 4,
    /// A result-store verification pass.
    StoreVerify = 5,
    /// Point event: a fault-plane site fired (`arg` = site index).
    Fault = 6,
    /// Point event: the request was shed at a full queue.
    Shed = 7,
    /// Point event: a follower coalesced onto a leader
    /// (`arg` = leader trace id).
    Coalesce = 8,
    /// Point event: a flight dump was triggered (`arg` = reason code).
    Dump = 9,
    /// A generic point marker.
    Mark = 10,
}

/// Kind names, indexed by the `FlightKind` discriminant.
pub const FLIGHT_KIND_NAMES: [&str; 11] = [
    "request",
    "queue_wait",
    "run_cell",
    "store_get",
    "store_put",
    "store_verify",
    "fault",
    "shed",
    "coalesce",
    "dump",
    "mark",
];

impl FlightKind {
    /// The stable schema name of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        FLIGHT_KIND_NAMES[self as usize]
    }

    fn from_index(i: u64) -> Option<FlightKind> {
        use FlightKind::{
            Coalesce, Dump, Fault, Mark, QueueWait, Request, RunCell, Shed, StoreGet, StorePut,
            StoreVerify,
        };
        [
            Request,
            QueueWait,
            RunCell,
            StoreGet,
            StorePut,
            StoreVerify,
            Fault,
            Shed,
            Coalesce,
            Dump,
            Mark,
        ]
        .get(i as usize)
        .copied()
    }
}

/// Whether a record opens a span, closes one, or is instantaneous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EvKind {
    /// Span opens.
    Begin = 0,
    /// Span closes.
    End = 1,
    /// Instantaneous point event.
    Point = 2,
}

/// Event names, indexed by the `EvKind` discriminant.
pub const EV_NAMES: [&str; 3] = ["span_begin", "span_end", "point"];

impl EvKind {
    /// The stable schema name of this event type.
    #[must_use]
    pub fn name(self) -> &'static str {
        EV_NAMES[self as usize]
    }

    fn from_index(i: u64) -> Option<EvKind> {
        [EvKind::Begin, EvKind::End, EvKind::Point].get(i as usize).copied()
    }
}

/// One decoded flight-recorder record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Timestamp: wall µs since process start, or the per-trace sequence
    /// number under the logical clock.
    pub ts: u64,
    /// Owning trace id (0 = recorded outside any trace).
    pub trace: u64,
    /// Span id the record belongs to (0 for points outside a span).
    pub span: u64,
    /// Parent span id (0 = trace root).
    pub parent: u64,
    /// What the record describes.
    pub kind: FlightKind,
    /// Begin / end / point.
    pub ev: EvKind,
    /// Kind-specific integer payload.
    pub arg: u64,
}

impl FlightRecord {
    /// Serializes the record as one flight-JSONL line (no newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace\":{},\"ts\":{},\"event\":\"{}\",\"kind\":\"{}\",\"span\":{},\"parent\":{},\"arg\":{}}}",
            self.trace,
            self.ts,
            self.ev.name(),
            self.kind.name(),
            self.span,
            self.parent,
            self.arg
        )
    }
}

const SLOT_WORDS: usize = 7; // seq, ts, trace, span, parent, meta, arg

struct Slot {
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot { words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// A fixed-capacity, overwrite-oldest ring buffer of flight records.
///
/// Writers claim a monotonically increasing ticket with one relaxed
/// `fetch_add`, then publish the record into slot `ticket % capacity`
/// guarded by a per-slot sequence word (0 = being written). Readers skip
/// slots that are empty, in-flight, or that change underneath them — a
/// snapshot is best-effort, never blocking a writer.
///
/// Overwrite accounting is exact by construction: every ticket at or past
/// `capacity` displaces exactly one older record.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    head: AtomicU64,
    recorded: Arc<Counter>,
    overwritten: Arc<Counter>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded.get())
            .finish()
    }
}

impl FlightRecorder {
    /// A fresh recorder holding up to `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            recorded: Arc::new(Counter::new()),
            overwritten: Arc::new(Counter::new()),
        }
    }

    /// Number of slots in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records accepted since creation (monotonic; survives
    /// [`FlightRecorder::reset`]).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Records displaced by newer ones (monotonic).
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten.get()
    }

    /// Writes one record into the ring.
    pub fn record_raw(&self, rec: &FlightRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        self.recorded.inc();
        if ticket >= self.slots.len() as u64 {
            self.overwritten.inc();
        }
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let meta = ((rec.kind as u64) << 8) | rec.ev as u64;
        slot.words[0].store(0, Ordering::Release); // mark in-flight
        slot.words[1].store(rec.ts, Ordering::Relaxed);
        slot.words[2].store(rec.trace, Ordering::Relaxed);
        slot.words[3].store(rec.span, Ordering::Relaxed);
        slot.words[4].store(rec.parent, Ordering::Relaxed);
        slot.words[5].store(meta, Ordering::Relaxed);
        slot.words[6].store(rec.arg, Ordering::Relaxed);
        slot.words[0].store(ticket + 1, Ordering::Release); // publish
    }

    /// Clears the ring (head and every slot). Counters are monotonic and
    /// keep their values. Intended for tests and the chaos harness, which
    /// need a dump that reflects only their own activity.
    pub fn reset(&self) {
        self.head.store(0, Ordering::Relaxed);
        for slot in &self.slots {
            slot.words[0].store(0, Ordering::Release);
        }
    }

    /// Best-effort consistent copy of the ring, sorted by
    /// `(trace, ts, …)` so the result is deterministic whenever per-trace
    /// timestamps are (which the logical clock guarantees).
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let seq0 = slot.words[0].load(Ordering::Acquire);
            if seq0 == 0 {
                continue; // never written, or mid-write
            }
            let words: [u64; SLOT_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            let seq1 = slot.words[0].load(Ordering::Acquire);
            if seq0 != seq1 {
                continue; // torn by a concurrent writer
            }
            let (Some(kind), Some(ev)) =
                (FlightKind::from_index(words[5] >> 8), EvKind::from_index(words[5] & 0xFF))
            else {
                continue;
            };
            out.push(FlightRecord {
                ts: words[1],
                trace: words[2],
                span: words[3],
                parent: words[4],
                kind,
                ev,
                arg: words[6],
            });
        }
        out.sort_by_key(|r| (r.trace, r.ts, r.ev as u8, r.kind as u8, r.span, r.arg));
        out
    }

    /// Serializes a snapshot as flight JSONL (one record per line).
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for rec in self.snapshot() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    /// Registers the recorder's record/overwrite counters with a metrics
    /// registry.
    pub fn register_metrics(&self, reg: &Registry) {
        reg.register_counter(
            "tdo_obs_flight_recorded_total",
            &[],
            "Flight-recorder events accepted.",
            Arc::clone(&self.recorded),
        );
        reg.register_counter(
            "tdo_obs_flight_overwritten_total",
            &[],
            "Flight-recorder events displaced by newer ones.",
            Arc::clone(&self.overwritten),
        );
    }
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-global always-on flight recorder.
pub fn global() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(FLIGHT_CAPACITY))
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static LOGICAL_CLOCK: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn wall_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Guard switching the flight clock to logical (per-trace 0,1,2,…) mode;
/// the previous mode is restored on drop. Logical mode is what makes
/// dumps byte-deterministic in tests and the chaos harness.
#[derive(Debug)]
pub struct ClockGuard {
    prev: bool,
}

/// Switches the flight clock to logical mode until the guard drops.
#[must_use]
pub fn logical_clock_guard() -> ClockGuard {
    ClockGuard { prev: LOGICAL_CLOCK.swap(true, Ordering::Relaxed) }
}

impl Drop for ClockGuard {
    fn drop(&mut self) {
        LOGICAL_CLOCK.store(self.prev, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// A copyable trace context: enough state to hand a trace from one thread
/// to another ([`current`] on the source, [`resume`] on the target).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// The owning trace id (0 = no trace).
    pub trace: u64,
    /// The innermost open span id (0 = at trace root).
    pub span: u64,
    /// Per-trace event sequence number; doubles as the timestamp under the
    /// logical clock and salts span-id minting.
    pub seq: u64,
}

impl TraceCtx {
    /// A fresh context at the root of `trace` with sequence zero.
    #[must_use]
    pub fn fresh(trace: u64) -> TraceCtx {
        TraceCtx { trace, span: 0, seq: 0 }
    }
}

thread_local! {
    static CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx { trace: 0, span: 0, seq: 0 }) };
}

/// The calling thread's current trace context.
#[must_use]
pub fn current() -> TraceCtx {
    CTX.with(Cell::get)
}

/// Guard installing a trace context on this thread; the previous context
/// is restored on drop.
#[derive(Debug)]
pub struct CtxGuard {
    prev: TraceCtx,
}

/// Installs `ctx` as this thread's trace context until the guard drops.
#[must_use]
pub fn resume(ctx: TraceCtx) -> CtxGuard {
    let prev = CTX.with(|c| c.replace(ctx));
    CtxGuard { prev }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Consumes one sequence number and returns the timestamp for a record:
/// the sequence itself under the logical clock, wall µs otherwise.
fn next_stamp() -> u64 {
    let mut ctx = current();
    let seq = ctx.seq;
    ctx.seq += 1;
    CTX.with(|c| c.set(ctx));
    if LOGICAL_CLOCK.load(Ordering::Relaxed) {
        seq
    } else {
        wall_us()
    }
}

/// Consumes one sequence number from the current context and returns a
/// timestamp for a log line (wall µs, or the per-trace logical sequence
/// under the logical clock). Used by [`crate::logline`] so log and flight
/// timestamps share one clock.
#[must_use]
pub fn log_stamp() -> u64 {
    next_stamp()
}

/// Mints a deterministic 63-bit non-zero span id from the trace id and the
/// per-trace sequence at span open.
fn mint_span_id(trace: u64, seq: u64) -> u64 {
    (Rng::new(trace ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64() & ID_MASK) | 1
}

/// Mints deterministic 63-bit non-zero trace ids from a seed. Two
/// generators with the same seed mint the same id sequence.
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    n: AtomicU64,
}

impl TraceIdGen {
    /// A generator whose id stream is a pure function of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> TraceIdGen {
        TraceIdGen { seed, n: AtomicU64::new(0) }
    }

    /// The next trace id.
    #[must_use]
    pub fn mint(&self) -> u64 {
        let n = self.n.fetch_add(1, Ordering::Relaxed);
        (Rng::new(self.seed ^ n.wrapping_mul(0xD134_2543_DE82_EF95)).next_u64() & ID_MASK) | 1
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A span opened with [`begin`] that has not been closed yet. `Copy` so it
/// can ride a queue to another thread; close it with [`OpenSpan::end`]
/// after [`resume`]-ing the context there.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    trace: u64,
    span: u64,
    parent: u64,
    kind: FlightKind,
}

impl OpenSpan {
    /// Records the span-end event and restores the parent as the current
    /// span on this thread.
    pub fn end(self, arg: u64) {
        let ts = next_stamp();
        global().record_raw(&FlightRecord {
            ts,
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            kind: self.kind,
            ev: EvKind::End,
            arg: arg & ID_MASK,
        });
        let mut ctx = current();
        if ctx.span == self.span {
            ctx.span = self.parent;
            CTX.with(|c| c.set(ctx));
        }
    }
}

/// Opens a span under the current trace context: records a begin event and
/// makes the new span the current one.
pub fn begin(kind: FlightKind, arg: u64) -> OpenSpan {
    let ctx = current();
    let ts = next_stamp(); // consumes ctx.seq; re-read below
    let after = current();
    let span = mint_span_id(ctx.trace, after.seq);
    global().record_raw(&FlightRecord {
        ts,
        trace: ctx.trace,
        span,
        parent: ctx.span,
        kind,
        ev: EvKind::Begin,
        arg: arg & ID_MASK,
    });
    CTX.with(|c| c.set(TraceCtx { span, ..c.get() }));
    OpenSpan { trace: ctx.trace, span, parent: ctx.span, kind }
}

/// Records an instantaneous point event at the current context.
pub fn point(kind: FlightKind, arg: u64) {
    let ctx = current();
    let ts = next_stamp();
    global().record_raw(&FlightRecord {
        ts,
        trace: ctx.trace,
        span: ctx.span,
        parent: 0,
        kind,
        ev: EvKind::Point,
        arg: arg & ID_MASK,
    });
}

/// RAII span guard: begin on construction, end on drop.
#[derive(Debug)]
pub struct SpanScope {
    open: Option<OpenSpan>,
    root: Option<CtxGuard>,
}

impl SpanScope {
    /// Opens a child span of whatever trace is current on this thread
    /// (possibly trace 0 — events outside a request still get recorded).
    #[must_use]
    pub fn enter(kind: FlightKind, arg: u64) -> SpanScope {
        SpanScope { open: Some(begin(kind, arg)), root: None }
    }

    /// Installs a fresh context for `trace` and opens its root span; drop
    /// order closes the span before restoring the previous context.
    #[must_use]
    pub fn root(trace: u64, kind: FlightKind, arg: u64) -> SpanScope {
        let guard = resume(TraceCtx::fresh(trace));
        SpanScope { open: Some(begin(kind, arg)), root: Some(guard) }
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            open.end(0);
        }
        self.root.take(); // restores the previous context after the end event
    }
}

// ---------------------------------------------------------------------------
// Parsing and rendering
// ---------------------------------------------------------------------------

/// Parses a flight JSONL dump back into records.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn parse_flight(log: &str) -> Result<Vec<FlightRecord>, String> {
    let mut out = Vec::new();
    for (no, line) in log.lines().enumerate() {
        out.push(parse_flight_line(line).map_err(|m| format!("line {}: {m}", no + 1))?);
    }
    Ok(out)
}

fn parse_flight_line(line: &str) -> Result<FlightRecord, String> {
    const KEYS: [&str; 7] = ["trace", "ts", "event", "kind", "span", "parent", "arg"];
    let fields = crate::validate::parse_schema_line(line)?;
    if fields.len() != KEYS.len() {
        return Err(format!("expected {} fields, found {}", KEYS.len(), fields.len()));
    }
    let mut ints = [0u64; 7];
    let mut ev = None;
    let mut kind = None;
    for (i, ((key, val), want)) in fields.iter().zip(KEYS).enumerate() {
        if key != want {
            return Err(format!("field {} must be `{want}`, found `{key}`", i + 1));
        }
        match (want, val) {
            ("event", Value::Str(s)) => {
                ev =
                    EV_NAMES.iter().position(|n| n == s).and_then(|p| EvKind::from_index(p as u64));
                if ev.is_none() {
                    return Err(format!("unknown event `{s}`"));
                }
            }
            ("kind", Value::Str(s)) => {
                kind = FLIGHT_KIND_NAMES
                    .iter()
                    .position(|n| n == s)
                    .and_then(|p| FlightKind::from_index(p as u64));
                if kind.is_none() {
                    return Err(format!("unknown kind `{s}`"));
                }
            }
            ("event" | "kind", _) => return Err(format!("`{want}` must be a string")),
            (_, v) => {
                ints[i] =
                    v.as_u64().ok_or_else(|| format!("`{want}` must be a non-negative integer"))?;
            }
        }
    }
    Ok(FlightRecord {
        trace: ints[0],
        ts: ints[1],
        ev: ev.expect("checked above"),
        kind: kind.expect("checked above"),
        span: ints[4],
        parent: ints[5],
        arg: ints[6],
    })
}

/// Validates a flight JSONL dump: schema per line, traces grouped in
/// non-decreasing order, timestamps non-decreasing within a trace.
///
/// Returns the number of records on success.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_flight(log: &str) -> Result<usize, String> {
    let records = parse_flight(log)?;
    let mut last: Option<(u64, u64)> = None;
    for (no, rec) in records.iter().enumerate() {
        if let Some((trace, ts)) = last {
            if rec.trace < trace {
                return Err(format!("line {}: trace {} goes backwards", no + 1, rec.trace));
            }
            if rec.trace == trace && rec.ts < ts {
                return Err(format!(
                    "line {}: ts {} goes backwards within trace {}",
                    no + 1,
                    rec.ts,
                    rec.trace
                ));
            }
        }
        last = Some((rec.trace, rec.ts));
    }
    Ok(records.len())
}

/// Renders a flight dump as one indented tree per trace, with integer-µs
/// (or logical-tick) timings. `resolve_arg` may pretty-print a kind's
/// argument (the CLI maps fault-site indices to names this way); return
/// `None` to fall back to `arg=N`.
///
/// # Errors
///
/// Returns a parse error message for malformed dumps.
pub fn render_flight(
    log: &str,
    resolve_arg: &dyn Fn(FlightKind, u64) -> Option<String>,
) -> Result<String, String> {
    let records = parse_flight(log)?;
    let mut out = String::new();
    let mut i = 0usize;
    while i < records.len() {
        let trace = records[i].trace;
        let mut j = i;
        while j < records.len() && records[j].trace == trace {
            j += 1;
        }
        let group = &records[i..j];
        let faults = group.iter().filter(|r| r.kind == FlightKind::Fault).count();
        out.push_str(&format!("trace {trace:016x}  events={}  faults={faults}\n", group.len()));
        render_trace(group, &mut out, resolve_arg);
        i = j;
    }
    Ok(out)
}

fn render_trace(
    group: &[FlightRecord],
    out: &mut String,
    resolve_arg: &dyn Fn(FlightKind, u64) -> Option<String>,
) {
    // Depth of a span = 1 + depth of its parent; roots (parent 0 or an
    // unknown parent) sit at depth 1 under the trace header.
    let depth_of = |span: u64| -> usize {
        let mut depth = 1usize;
        let mut cur = span;
        // Bounded walk so a corrupt dump cannot loop forever.
        for _ in 0..group.len() {
            let Some(parent) = group
                .iter()
                .find(|r| r.ev == EvKind::Begin && r.span == cur)
                .map(|r| r.parent)
                .filter(|&p| p != 0)
            else {
                break;
            };
            depth += 1;
            cur = parent;
        }
        depth
    };
    for rec in group {
        match rec.ev {
            EvKind::Begin => {
                let end =
                    group.iter().find(|r| r.ev == EvKind::End && r.span == rec.span).map(|r| r.ts);
                let arg =
                    resolve_arg(rec.kind, rec.arg).unwrap_or_else(|| format!("arg={}", rec.arg));
                let indent = "  ".repeat(depth_of(rec.span));
                match end {
                    Some(end) => out.push_str(&format!(
                        "{indent}{} {}..{} ({}us) {arg}\n",
                        rec.kind.name(),
                        rec.ts,
                        end,
                        end.saturating_sub(rec.ts)
                    )),
                    None => out.push_str(&format!(
                        "{indent}{} {}.. (open) {arg}\n",
                        rec.kind.name(),
                        rec.ts
                    )),
                }
            }
            EvKind::End => {}
            EvKind::Point => {
                let arg =
                    resolve_arg(rec.kind, rec.arg).unwrap_or_else(|| format!("arg={}", rec.arg));
                let depth = if rec.span == 0 { 1 } else { depth_of(rec.span) + 1 };
                let indent = "  ".repeat(depth);
                out.push_str(&format!("{indent}! {} @{} {arg}\n", rec.kind.name(), rec.ts));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder and thread-local context are process state;
    // serialize the tests that touch them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn trace_ids_are_seed_deterministic_and_nonzero() {
        let a = TraceIdGen::new(42);
        let b = TraceIdGen::new(42);
        let ids: Vec<u64> = (0..16).map(|_| a.mint()).collect();
        for id in &ids {
            assert_eq!(b.mint(), *id);
            assert_ne!(*id, 0);
            assert!(*id <= ID_MASK);
        }
        let other = TraceIdGen::new(43).mint();
        assert_ne!(other, ids[0], "different seeds, different streams");
    }

    #[test]
    fn span_scopes_nest_and_round_trip_through_the_dump() {
        let _g = lock();
        let _clock = logical_clock_guard();
        global().reset();
        {
            let _root = SpanScope::root(77, FlightKind::Request, 5);
            {
                let _child = SpanScope::enter(FlightKind::StoreGet, 9);
                point(FlightKind::Fault, 3);
            }
        }
        let dump = global().dump();
        assert_eq!(validate_flight(&dump), Ok(5));
        let recs = parse_flight(&dump).unwrap();
        assert!(recs.iter().all(|r| r.trace == 77));
        let child = recs.iter().find(|r| r.kind == FlightKind::StoreGet).unwrap();
        let root = recs.iter().find(|r| r.kind == FlightKind::Request).unwrap();
        assert_eq!(child.parent, root.span, "child nests under the root span");
        let fault = recs.iter().find(|r| r.kind == FlightKind::Fault).unwrap();
        assert_eq!(fault.span, child.span, "the fault is attributed to the open span");
        let tree = render_flight(&dump, &|_, _| None).unwrap();
        assert!(tree.contains("request"), "{tree}");
        assert!(tree.contains("! fault"), "{tree}");
    }

    #[test]
    fn context_hand_off_between_threads_preserves_the_trace() {
        let _g = lock();
        let _clock = logical_clock_guard();
        global().reset();
        let open;
        let ctx;
        {
            let _install = resume(TraceCtx::fresh(123));
            open = begin(FlightKind::QueueWait, 0);
            ctx = current();
        }
        std::thread::spawn(move || {
            let _install = resume(ctx);
            open.end(0);
        })
        .join()
        .unwrap();
        let recs = global().snapshot();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.trace == 123));
        assert_eq!(recs[0].ev, EvKind::Begin);
        assert_eq!(recs[1].ev, EvKind::End);
        assert!(recs[1].ts > recs[0].ts, "logical stamps keep ordering across the hand-off");
    }

    #[test]
    fn validator_rejects_bad_dumps() {
        assert!(validate_flight("not json").is_err());
        assert!(
            validate_flight(
                "{\"trace\":1,\"ts\":0,\"event\":\"nope\",\"kind\":\"request\",\"span\":1,\"parent\":0,\"arg\":0}"
            )
            .is_err(),
            "unknown event"
        );
        assert!(
            validate_flight(
                "{\"trace\":1,\"ts\":0,\"event\":\"point\",\"kind\":\"mark\",\"span\":0,\"parent\":0,\"arg\":0}\n\
                 {\"trace\":1,\"ts\":5,\"event\":\"point\",\"kind\":\"mark\",\"span\":0,\"parent\":0,\"arg\":0}\n"
            )
            .is_ok()
        );
        assert!(
            validate_flight(
                "{\"trace\":1,\"ts\":5,\"event\":\"point\",\"kind\":\"mark\",\"span\":0,\"parent\":0,\"arg\":0}\n\
                 {\"trace\":1,\"ts\":0,\"event\":\"point\",\"kind\":\"mark\",\"span\":0,\"parent\":0,\"arg\":0}\n"
            )
            .is_err(),
            "ts regression within a trace"
        );
    }
}

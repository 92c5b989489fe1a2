//! Flight-recorder event tracing: a bounded ring buffer of typed
//! lifecycle events forming per-transaction causal timelines.
//!
//! Metrics ([`crate::MetricsRegistry`]) answer *how fast* each layer is;
//! the flight recorder answers *what happened, in what order, caused by
//! whom* — the forensic record an operator replays after an intrusion.
//! Every event is stamped with the proxy transaction id, the proxy
//! session (connection) id and a monotonic tick, so a capture can be
//! joined against the `trans_dep` graph to reconstruct which transaction
//! tainted which.
//!
//! The recorder follows the same disabled-path discipline as
//! [`crate::Telemetry::span`] and the disarmed failpoint check: when
//! disabled (the default), [`FlightRecorder::emit`] returns after one
//! relaxed atomic load — no clock read, no lock, no allocation.
//!
//! Two exporters ship with the recorder: [`to_jsonl`] (one JSON object
//! per line, grep-friendly) and [`to_chrome_trace`] (Chrome Trace Event
//! Format, loadable in Perfetto with transactions as tracks). Both round
//! trip through [`parse_capture`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::{self, Json};

/// Default ring capacity (events) of a [`FlightRecorder`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Enforcement verdict attached to a [`EventKind::StmtRewrite`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceVerdict {
    /// The classifier was off the statement path (enforcement `Allow`,
    /// the paper's behaviour) or the statement was exempt.
    Unchecked,
    /// Classified fully soundly tracked.
    Sound,
    /// Classified degraded (tracked, but coarser).
    Degraded,
    /// Classified untracked (dependencies invisible), but forwarded.
    Untracked,
    /// Classified untracked and refused by the `Reject` policy.
    Rejected,
}

impl TraceVerdict {
    /// Stable wire name of the verdict.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceVerdict::Unchecked => "unchecked",
            TraceVerdict::Sound => "sound",
            TraceVerdict::Degraded => "degraded",
            TraceVerdict::Untracked => "untracked",
            TraceVerdict::Rejected => "rejected",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "unchecked" => TraceVerdict::Unchecked,
            "sound" => TraceVerdict::Sound,
            "degraded" => TraceVerdict::Degraded,
            "untracked" => TraceVerdict::Untracked,
            "rejected" => TraceVerdict::Rejected,
            _ => return None,
        })
    }
}

/// What happened. Statement-lifecycle events are emitted by the tracking
/// proxy (stamped with the proxy transaction id), WAL events by the
/// engine (stamped with the DBMS-internal id — the repair tool's
/// correlation step joins the two), fault events by the simulation
/// substrate, and repair-phase events by the repair pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The proxy allocated a transaction id (explicit `BEGIN` or the
    /// implicit transaction wrapping a bare write).
    TxnBegin,
    /// The proxy intercepted a statement: rewrite-cache outcome and
    /// enforcement verdict.
    StmtRewrite {
        /// Whether the statement shape was served from the rewrite cache.
        cache_hit: bool,
        /// The enforcement verdict applied to the statement.
        verdict: TraceVerdict,
    },
    /// A SELECT result row carried another transaction's trid stamp: a
    /// new read dependency was folded into the current transaction.
    DepHarvested {
        /// The depended-on proxy transaction id.
        dep: i64,
        /// The mediating table (empty when unknown).
        table: String,
    },
    /// The commit-time `trans_dep` record was written.
    TransDepInsert {
        /// Number of distinct dependencies recorded.
        deps: u32,
    },
    /// The proxy transaction committed (tracking rows durable).
    Commit,
    /// The proxy transaction aborted or was rolled back.
    Abort,
    /// The engine forced a commit record to the WAL.
    WalCommit {
        /// DBMS-internal transaction id.
        internal: u64,
    },
    /// The engine rolled a transaction back (abort record appended).
    WalAbort {
        /// DBMS-internal transaction id.
        internal: u64,
    },
    /// An armed failpoint fired.
    FaultHit {
        /// Failpoint name (see `resildb_sim::failpoints`).
        failpoint: String,
    },
    /// Repair phase: the transaction log was scanned.
    LogScan {
        /// Normalized log records recovered.
        records: u64,
    },
    /// Repair phase: proxy ↔ internal transaction ids were correlated.
    Correlate {
        /// Correlated id pairs.
        pairs: u64,
    },
    /// Repair phase: the damage closure was computed.
    ClosureComputed {
        /// Size of the initial attack set.
        initial: u32,
        /// Size of the resulting undo set.
        nodes: u32,
    },
    /// Repair phase: one undone transaction's compensation finished.
    Compensated {
        /// Compensating statements executed for this transaction.
        statements: u32,
    },
    /// Repair phase: an incident was opened for analysis — the
    /// detection mark on the incident timeline.
    IncidentDetected {
        /// 1-based incident id on the [`crate::IncidentTimeline`].
        incident: u64,
    },
    /// Repair phase: the compensation sweep converged (no fresh closure
    /// members left) — the sweep-complete mark on the incident timeline.
    SweepComplete {
        /// Sweep rounds executed (1 when no mid-sweep growth occurred).
        rounds: u32,
    },
    /// Live repair: the containment fence was raised over the static
    /// blast-radius surface (whole-table quarantine).
    FenceRaised {
        /// Number of wholly-fenced tables.
        tables: u32,
    },
    /// Live repair: correlation caught up and the fence shrank from the
    /// static table surface to the dynamic row-level closure.
    FenceShrunk {
        /// Tables still wholly fenced (no usable primary key).
        tables: u32,
        /// Individually fenced rows.
        rows: u32,
    },
    /// Live repair: re-analysis found new closure members and the fence
    /// grew to cover their rows mid-sweep.
    FenceExtended {
        /// Rows added to the fence.
        rows: u32,
    },
    /// Live repair: the sweep finished and the fence was lifted.
    FenceLifted,
}

impl EventKind {
    /// Stable wire name of the event kind.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TxnBegin => "txn_begin",
            EventKind::StmtRewrite { .. } => "stmt_rewrite",
            EventKind::DepHarvested { .. } => "dep_harvested",
            EventKind::TransDepInsert { .. } => "trans_dep_insert",
            EventKind::Commit => "commit",
            EventKind::Abort => "abort",
            EventKind::WalCommit { .. } => "wal_commit",
            EventKind::WalAbort { .. } => "wal_abort",
            EventKind::FaultHit { .. } => "fault_hit",
            EventKind::LogScan { .. } => "log_scan",
            EventKind::Correlate { .. } => "correlate",
            EventKind::ClosureComputed { .. } => "closure_computed",
            EventKind::Compensated { .. } => "compensated",
            EventKind::IncidentDetected { .. } => "incident_detected",
            EventKind::SweepComplete { .. } => "sweep_complete",
            EventKind::FenceRaised { .. } => "fence_raised",
            EventKind::FenceShrunk { .. } => "fence_shrunk",
            EventKind::FenceExtended { .. } => "fence_extended",
            EventKind::FenceLifted => "fence_lifted",
        }
    }

    /// Extra JSON fields (`,"k":v...`) carried by this kind; empty for
    /// payload-free kinds.
    fn detail_json(&self) -> String {
        match self {
            EventKind::TxnBegin | EventKind::Commit | EventKind::Abort => String::new(),
            EventKind::StmtRewrite { cache_hit, verdict } => format!(
                ",\"cache_hit\":{cache_hit},\"verdict\":\"{}\"",
                verdict.as_str()
            ),
            EventKind::DepHarvested { dep, table } => {
                format!(",\"dep\":{dep},\"table\":{}", json::escape(table))
            }
            EventKind::TransDepInsert { deps } => format!(",\"deps\":{deps}"),
            EventKind::WalCommit { internal } | EventKind::WalAbort { internal } => {
                format!(",\"internal\":{internal}")
            }
            EventKind::FaultHit { failpoint } => {
                format!(",\"failpoint\":{}", json::escape(failpoint))
            }
            EventKind::LogScan { records } => format!(",\"records\":{records}"),
            EventKind::Correlate { pairs } => format!(",\"pairs\":{pairs}"),
            EventKind::ClosureComputed { initial, nodes } => {
                format!(",\"initial\":{initial},\"nodes\":{nodes}")
            }
            EventKind::Compensated { statements } => format!(",\"statements\":{statements}"),
            EventKind::IncidentDetected { incident } => format!(",\"incident\":{incident}"),
            EventKind::SweepComplete { rounds } => format!(",\"rounds\":{rounds}"),
            EventKind::FenceRaised { tables } => format!(",\"tables\":{tables}"),
            EventKind::FenceShrunk { tables, rows } => {
                format!(",\"tables\":{tables},\"rows\":{rows}")
            }
            EventKind::FenceExtended { rows } => format!(",\"rows\":{rows}"),
            EventKind::FenceLifted => String::new(),
        }
    }
}

impl std::fmt::Display for EventKind {
    /// Human-readable one-line rendering: the wire name followed by
    /// `key=value` detail fields (for timeline listings).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::TxnBegin | EventKind::Commit | EventKind::Abort => {
                write!(f, "{}", self.name())
            }
            EventKind::StmtRewrite { cache_hit, verdict } => write!(
                f,
                "stmt_rewrite cache_hit={cache_hit} verdict={}",
                verdict.as_str()
            ),
            EventKind::DepHarvested { dep, table } => {
                write!(f, "dep_harvested dep={dep} table={table}")
            }
            EventKind::TransDepInsert { deps } => write!(f, "trans_dep_insert deps={deps}"),
            EventKind::WalCommit { internal } => write!(f, "wal_commit internal={internal}"),
            EventKind::WalAbort { internal } => write!(f, "wal_abort internal={internal}"),
            EventKind::FaultHit { failpoint } => write!(f, "fault_hit failpoint={failpoint}"),
            EventKind::LogScan { records } => write!(f, "log_scan records={records}"),
            EventKind::Correlate { pairs } => write!(f, "correlate pairs={pairs}"),
            EventKind::ClosureComputed { initial, nodes } => {
                write!(f, "closure_computed initial={initial} nodes={nodes}")
            }
            EventKind::Compensated { statements } => {
                write!(f, "compensated statements={statements}")
            }
            EventKind::IncidentDetected { incident } => {
                write!(f, "incident_detected incident={incident}")
            }
            EventKind::SweepComplete { rounds } => write!(f, "sweep_complete rounds={rounds}"),
            EventKind::FenceRaised { tables } => write!(f, "fence_raised tables={tables}"),
            EventKind::FenceShrunk { tables, rows } => {
                write!(f, "fence_shrunk tables={tables} rows={rows}")
            }
            EventKind::FenceExtended { rows } => write!(f, "fence_extended rows={rows}"),
            EventKind::FenceLifted => write!(f, "fence_lifted"),
        }
    }
}

/// One recorded event: a monotonic tick, the transaction and session it
/// belongs to, and [what happened](EventKind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic tick: allocation order across all threads. Gap-free
    /// while the recorder is enabled (wraparound drops old events from
    /// the ring, never ticks).
    pub seq: u64,
    /// Proxy transaction id (`0` when no transaction is in scope — e.g.
    /// engine WAL events, fault hits, repair-phase events).
    pub txn: i64,
    /// Proxy session (connection) id (`0` outside the proxy).
    pub session: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Point-in-time copy of the recorder's window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// The retained events, oldest first (ascending `seq`).
    pub events: Vec<TraceEvent>,
    /// Total events evicted by wraparound since creation (monotonic).
    pub dropped: u64,
    /// Ring capacity in events.
    pub capacity: usize,
}

impl TraceSnapshot {
    /// Wraps parsed capture events (e.g. from [`parse_capture`]) as a
    /// snapshot: the window is exactly the events given, nothing is
    /// known to have been dropped, and capacity equals the window size.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        let capacity = events.len();
        Self {
            events,
            dropped: 0,
            capacity,
        }
    }

    /// The events stamped with proxy transaction `txn`, oldest first.
    pub fn events_for(&self, txn: i64) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.txn == txn).collect()
    }

    /// Occurrences of `kind` name (e.g. `"commit"`) for `txn`.
    pub fn count_for(&self, txn: i64, kind_name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.txn == txn && e.kind.name() == kind_name)
            .count()
    }
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    /// Next tick to allocate. Lives under the ring mutex so that tick
    /// allocation and append are one atomic step: the buffer is always
    /// seq-sorted and wraparound always evicts the oldest event.
    seq: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lock-light bounded ring buffer of [`TraceEvent`]s.
///
/// Disabled (the default), [`emit`](Self::emit) costs one relaxed atomic
/// load. Enabled, it allocates a tick and appends under one short mutex
/// hold, so ticks and buffer order always agree; when the ring is full
/// the oldest event is dropped and the `dropped` counter advances —
/// recent history always wins, like an aircraft flight recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl FlightRecorder {
    /// A disabled recorder retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                capacity,
                seq: 0,
            }),
        }
    }

    /// Whether events are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start or stop recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Resizes the ring; excess oldest events are dropped (and counted).
    pub fn set_capacity(&self, capacity: usize) {
        let mut ring = lock(&self.ring);
        ring.capacity = capacity;
        while ring.buf.len() > capacity {
            ring.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one event. No-op (one relaxed load) when disabled.
    pub fn emit(&self, txn: i64, session: u64, kind: EventKind) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = lock(&self.ring);
        let seq = ring.seq;
        ring.seq += 1;
        let event = TraceEvent {
            seq,
            txn,
            session,
            kind,
        };
        if ring.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if ring.buf.len() >= ring.capacity {
            ring.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(event);
    }

    /// Total events evicted by wraparound since creation (monotonic).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently retained in the ring.
    pub fn occupancy(&self) -> usize {
        lock(&self.ring).buf.len()
    }

    /// Current ring capacity in events.
    pub fn capacity(&self) -> usize {
        lock(&self.ring).capacity
    }

    /// Fold the recorder's health into a metrics snapshot: the
    /// `telemetry.trace.dropped` eviction counter plus
    /// `telemetry.trace.occupancy`/`telemetry.trace.capacity` gauges —
    /// so silent trace data loss is visible on the metrics plane.
    pub fn fold_metrics(&self, snap: &mut crate::MetricsSnapshot) {
        snap.set_counter("telemetry.trace.dropped", self.dropped());
        let ring = lock(&self.ring);
        snap.set_gauge("telemetry.trace.occupancy", ring.buf.len() as f64);
        snap.set_gauge("telemetry.trace.capacity", ring.capacity as f64);
    }

    /// Copies the current window out.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = lock(&self.ring);
        TraceSnapshot {
            events: ring.buf.iter().cloned().collect(),
            dropped: self.dropped.load(Ordering::Relaxed),
            capacity: ring.capacity,
        }
    }

    /// Discards every retained event (counters keep advancing).
    pub fn clear(&self) {
        lock(&self.ring).buf.clear();
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

fn event_jsonl(e: &TraceEvent) -> String {
    format!(
        "{{\"seq\":{},\"txn\":{},\"session\":{},\"event\":\"{}\"{}}}",
        e.seq,
        e.txn,
        e.session,
        e.kind.name(),
        e.kind.detail_json()
    )
}

/// Exports a snapshot as JSONL: one event object per line, ascending
/// `seq`. Grep-friendly and concatenation-safe across captures.
pub fn to_jsonl(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    for e in &snap.events {
        out.push_str(&event_jsonl(e));
        out.push('\n');
    }
    out
}

/// Exports a snapshot in Chrome Trace Event Format (a `traceEvents`
/// array), loadable in Perfetto / `chrome://tracing`. Transactions map to
/// tracks (`pid` = proxy txn id, `tid` = session id); [`EventKind::TxnBegin`]
/// opens a duration span that [`EventKind::Commit`]/[`EventKind::Abort`]
/// closes, and every other kind renders as an instant event. The
/// monotonic tick doubles as the timestamp, so causality — not
/// wall-clock — orders the view.
pub fn to_chrome_trace(snap: &TraceSnapshot) -> String {
    let mut items: Vec<String> = Vec::with_capacity(snap.events.len());
    for e in &snap.events {
        let (name, ph, scope) = match &e.kind {
            EventKind::TxnBegin => ("txn", "B", ""),
            EventKind::Commit | EventKind::Abort => ("txn", "E", ""),
            other => (other.name(), "i", ",\"s\":\"g\""),
        };
        items.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"resildb\",\"ph\":\"{ph}\"{scope},\
             \"ts\":{},\"pid\":{},\"tid\":{},\
             \"args\":{{\"event\":\"{}\"{}}}}}",
            e.seq,
            e.txn,
            e.session,
            e.kind.name(),
            e.kind.detail_json()
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
        items.join(",")
    )
}

// ---------------------------------------------------------------------------
// Capture parsing (for the `resildb-trace` explorer and round-trip tests)
// ---------------------------------------------------------------------------

fn kind_from_fields(event: &str, detail: &Json) -> Result<EventKind, String> {
    let u64_field = |k: &str| {
        detail
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {event:?} missing field {k:?}"))
    };
    let text_field = |k: &str| {
        let text = detail.get(k).and_then(Json::as_str);
        text.unwrap_or_default().to_string()
    };
    Ok(match event {
        "txn_begin" => EventKind::TxnBegin,
        "commit" => EventKind::Commit,
        "abort" => EventKind::Abort,
        "stmt_rewrite" => EventKind::StmtRewrite {
            cache_hit: detail
                .get("cache_hit")
                .and_then(Json::as_bool)
                .ok_or("stmt_rewrite missing cache_hit")?,
            verdict: detail
                .get("verdict")
                .and_then(Json::as_str)
                .and_then(TraceVerdict::parse)
                .ok_or("stmt_rewrite missing verdict")?,
        },
        "dep_harvested" => EventKind::DepHarvested {
            dep: detail
                .get("dep")
                .and_then(Json::as_i64)
                .ok_or("dep_harvested missing dep")?,
            table: text_field("table"),
        },
        "trans_dep_insert" => EventKind::TransDepInsert {
            deps: u64_field("deps")? as u32,
        },
        "wal_commit" => EventKind::WalCommit {
            internal: u64_field("internal")?,
        },
        "wal_abort" => EventKind::WalAbort {
            internal: u64_field("internal")?,
        },
        "fault_hit" => EventKind::FaultHit {
            failpoint: text_field("failpoint"),
        },
        "log_scan" => EventKind::LogScan {
            records: u64_field("records")?,
        },
        "correlate" => EventKind::Correlate {
            pairs: u64_field("pairs")?,
        },
        "closure_computed" => EventKind::ClosureComputed {
            initial: u64_field("initial")? as u32,
            nodes: u64_field("nodes")? as u32,
        },
        "compensated" => EventKind::Compensated {
            statements: u64_field("statements")? as u32,
        },
        "incident_detected" => EventKind::IncidentDetected {
            incident: u64_field("incident")?,
        },
        "sweep_complete" => EventKind::SweepComplete {
            rounds: u64_field("rounds")? as u32,
        },
        "fence_raised" => EventKind::FenceRaised {
            tables: u64_field("tables")? as u32,
        },
        "fence_shrunk" => EventKind::FenceShrunk {
            tables: u64_field("tables")? as u32,
            rows: u64_field("rows")? as u32,
        },
        "fence_extended" => EventKind::FenceExtended {
            rows: u64_field("rows")? as u32,
        },
        "fence_lifted" => EventKind::FenceLifted,
        other => return Err(format!("unknown event kind {other:?}")),
    })
}

/// Parses a JSONL capture (the [`to_jsonl`] format) back into events.
///
/// # Errors
///
/// Malformed JSON or unknown event kinds.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let event = obj
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing event field", i + 1))?
            .to_string();
        out.push(TraceEvent {
            seq: obj.get("seq").and_then(Json::as_u64).unwrap_or(0),
            txn: obj.get("txn").and_then(Json::as_i64).unwrap_or(0),
            session: obj.get("session").and_then(Json::as_u64).unwrap_or(0),
            kind: kind_from_fields(&event, &obj).map_err(|e| format!("line {}: {e}", i + 1))?,
        });
    }
    Ok(out)
}

/// Parses a Chrome Trace Event Format capture (the [`to_chrome_trace`]
/// format) back into events. Both the wrapped object form and a bare
/// `traceEvents` array are accepted.
///
/// # Errors
///
/// Malformed JSON or unknown event kinds.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = json::parse(text)?;
    let events = match &doc {
        Json::Arr(_) => &doc,
        Json::Obj(_) => doc.get("traceEvents").ok_or("missing traceEvents array")?,
        _ => return Err("expected object or array".into()),
    };
    let items = events.as_array().ok_or("traceEvents is not an array")?;
    let no_args = Json::Obj(Default::default());
    let mut out = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let args = item.get("args").unwrap_or(&no_args);
        let event = args
            .get("event")
            .and_then(Json::as_str)
            .map(str::to_string)
            .or_else(|| item.get("name").and_then(Json::as_str).map(str::to_string))
            .ok_or_else(|| format!("traceEvents[{i}]: missing event name"))?;
        out.push(TraceEvent {
            seq: item.get("ts").and_then(Json::as_u64).unwrap_or(0),
            txn: item.get("pid").and_then(Json::as_i64).unwrap_or(0),
            session: item.get("tid").and_then(Json::as_u64).unwrap_or(0),
            kind: kind_from_fields(&event, args).map_err(|e| format!("traceEvents[{i}]: {e}"))?,
        });
    }
    Ok(out)
}

/// Parses a capture in either supported format, sniffing the container
/// structurally: the first non-empty line is parsed as standalone JSON.
/// An array, or an object whose *top-level* keys include `traceEvents`,
/// means Chrome trace; any other object means JSONL (so event payloads
/// that merely contain the string `"traceEvents"` are not misrouted);
/// a line that is not standalone JSON means the document spans multiple
/// lines — a pretty-printed Chrome trace.
///
/// # Errors
///
/// Malformed JSON or unknown event kinds.
pub fn parse_capture(text: &str) -> Result<Vec<TraceEvent>, String> {
    let Some(first_line) = text.lines().map(str::trim).find(|l| !l.is_empty()) else {
        return Ok(Vec::new());
    };
    match json::parse(first_line) {
        Ok(Json::Arr(_)) => parse_chrome_trace(text),
        Ok(doc) if doc.get("traceEvents").is_some() => parse_chrome_trace(text),
        Ok(_) => parse_jsonl(text),
        Err(_) => parse_chrome_trace(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<EventKind> {
        vec![
            EventKind::TxnBegin,
            EventKind::StmtRewrite {
                cache_hit: true,
                verdict: TraceVerdict::Sound,
            },
            EventKind::DepHarvested {
                dep: 3,
                table: "account".into(),
            },
            EventKind::TransDepInsert { deps: 1 },
            EventKind::Commit,
            EventKind::Abort,
            EventKind::WalCommit { internal: 9 },
            EventKind::WalAbort { internal: 10 },
            EventKind::FaultHit {
                failpoint: "proxy.before_commit".into(),
            },
            EventKind::LogScan { records: 31 },
            EventKind::Correlate { pairs: 7 },
            EventKind::ClosureComputed {
                initial: 1,
                nodes: 4,
            },
            EventKind::Compensated { statements: 3 },
            EventKind::IncidentDetected { incident: 1 },
            EventKind::SweepComplete { rounds: 2 },
            EventKind::FenceRaised { tables: 6 },
            EventKind::FenceShrunk {
                tables: 1,
                rows: 12,
            },
            EventKind::FenceExtended { rows: 2 },
            EventKind::FenceLifted,
        ]
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::default();
        r.emit(1, 1, EventKind::TxnBegin);
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn wraparound_drops_oldest_and_counts() {
        let r = FlightRecorder::with_capacity(4);
        r.set_enabled(true);
        for i in 0..10 {
            r.emit(i, 0, EventKind::TxnBegin);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.capacity, 4);
        // The window holds the newest events, in seq order.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // The dropped counter is monotonic: more wraparound, higher count.
        r.emit(10, 0, EventKind::TxnBegin);
        assert_eq!(r.snapshot().dropped, 7);
    }

    #[test]
    fn shrinking_capacity_trims_oldest() {
        let r = FlightRecorder::with_capacity(8);
        r.set_enabled(true);
        for i in 0..8 {
            r.emit(i, 0, EventKind::TxnBegin);
        }
        r.set_capacity(3);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped, 5);
        assert_eq!(snap.events[0].seq, 5);
    }

    #[test]
    fn concurrent_writers_lose_no_in_window_events() {
        use std::sync::Arc;
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 250;
        let r = Arc::new(FlightRecorder::with_capacity(
            (THREADS * PER_THREAD) as usize,
        ));
        r.set_enabled(true);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        r.emit(t as i64, t, EventKind::TransDepInsert { deps: i as u32 });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), (THREADS * PER_THREAD) as usize);
        assert_eq!(snap.dropped, 0);
        // Ticks are unique and the window is seq-sorted.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seqs.len());
        assert_eq!(seqs, sorted, "ring must preserve tick order");
        // Every thread's full event sequence is present.
        for t in 0..THREADS {
            assert_eq!(
                snap.events_for(t as i64).len() as u64,
                PER_THREAD,
                "thread {t} lost events"
            );
        }
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        for (i, kind) in sample_events().into_iter().enumerate() {
            r.emit(i as i64, 42, kind);
        }
        let snap = r.snapshot();
        let jsonl = to_jsonl(&snap);
        let parsed = parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, snap.events);
    }

    #[test]
    fn chrome_trace_round_trips_and_has_spans() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        for kind in sample_events() {
            r.emit(7, 1, kind);
        }
        let snap = r.snapshot();
        let chrome = to_chrome_trace(&snap);
        assert!(chrome.contains("\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        let parsed = parse_chrome_trace(&chrome).unwrap();
        assert_eq!(parsed, snap.events);
        // parse_capture sniffs the container correctly for both formats.
        assert_eq!(parse_capture(&chrome).unwrap(), snap.events);
        assert_eq!(parse_capture(&to_jsonl(&snap)).unwrap(), snap.events);
    }

    #[test]
    fn capture_sniff_is_structural() {
        // A JSONL payload containing the literal "traceEvents" must not
        // be misrouted to the Chrome-trace parser.
        let r = FlightRecorder::default();
        r.set_enabled(true);
        r.emit(
            1,
            0,
            EventKind::DepHarvested {
                dep: 2,
                table: "audit_\"traceEvents\"_log".into(),
            },
        );
        r.emit(
            1,
            0,
            EventKind::FaultHit {
                failpoint: "traceEvents".into(),
            },
        );
        let snap = r.snapshot();
        assert_eq!(parse_capture(&to_jsonl(&snap)).unwrap(), snap.events);
        // A pretty-printed Chrome trace (document spans multiple lines,
        // first line is not standalone JSON) still sniffs as Chrome.
        let pretty = "{\n  \"traceEvents\": [\n    {\"name\":\"txn\",\"ph\":\"B\",\"ts\":0,\
                      \"pid\":1,\"tid\":0,\"args\":{\"event\":\"txn_begin\"}}\n  ]\n}\n";
        let parsed = parse_capture(pretty).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].kind, EventKind::TxnBegin);
        // A bare traceEvents array (no wrapper object) sniffs as Chrome.
        let bare = "[{\"name\":\"txn\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0,\
                     \"args\":{\"event\":\"txn_begin\"}}]";
        assert_eq!(parse_capture(bare).unwrap(), parsed);
        // An empty capture parses to no events.
        assert_eq!(parse_capture("").unwrap(), Vec::new());
    }

    #[test]
    fn string_fields_escape_and_round_trip() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        r.emit(
            1,
            0,
            EventKind::DepHarvested {
                dep: 2,
                table: "we\"ird\\táble\n".into(),
            },
        );
        let snap = r.snapshot();
        assert_eq!(parse_jsonl(&to_jsonl(&snap)).unwrap(), snap.events);
        assert_eq!(
            parse_chrome_trace(&to_chrome_trace(&snap)).unwrap(),
            snap.events
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("{\"event\":\"nonsense\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":42}").is_err());
    }

    #[test]
    fn fold_metrics_exposes_ring_health() {
        let r = FlightRecorder::with_capacity(2);
        r.set_enabled(true);
        for i in 0..5 {
            r.emit(i, 0, EventKind::TxnBegin);
        }
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.occupancy(), 2);
        assert_eq!(r.capacity(), 2);
        let mut snap = crate::MetricsSnapshot::default();
        r.fold_metrics(&mut snap);
        assert_eq!(snap.counter("telemetry.trace.dropped"), 3);
        assert_eq!(snap.gauge("telemetry.trace.occupancy"), Some(2.0));
        assert_eq!(snap.gauge("telemetry.trace.capacity"), Some(2.0));
    }

    #[test]
    fn snapshot_filters_by_txn() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        r.emit(1, 0, EventKind::TxnBegin);
        r.emit(2, 0, EventKind::TxnBegin);
        r.emit(1, 0, EventKind::Commit);
        let snap = r.snapshot();
        assert_eq!(snap.events_for(1).len(), 2);
        assert_eq!(snap.count_for(1, "commit"), 1);
        assert_eq!(snap.count_for(2, "commit"), 0);
    }
}

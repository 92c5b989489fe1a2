//! Outside-in per-layer timing for the traced run.
//!
//! Nothing inside the program is instrumented. Two meters sit at layer
//! boundaries the public API already exposes:
//!
//! * a [`Meter`] around the client's tracked `Connection::execute` (the
//!   call into the proxy), and
//! * a [`TimingDriver`] wrapped around the `NativeDriver` *under* the
//!   proxy, timing every downstream call into the engine by statement
//!   kind. It sits at the wire's native-connection boundary, so engine
//!   numbers include the wire's in-process framing.
//!
//! With the client loop timing whole transactions, a transaction's time
//! splits exactly into client (TPC-C SQL generation), proxy self time and
//! engine time per statement kind: each share is the difference of two
//! nested intervals, so the shares add up to the transaction time by
//! construction.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use resildb_core::{Connection, Driver, MetricsSnapshot, NativeDriver, Response, WireError};

use crate::report::{ratio, Report};

/// Downstream statement kinds the engine time is split by. The proxy's
/// commit-time tracking rows (`trans_dep`, `trans_dep_prov`, `annot`)
/// are their own kind; `other` is BEGIN, ROLLBACK and anything else.
pub const KINDS: [&str; 7] = [
    "select",
    "update",
    "insert",
    "delete",
    "trans_dep_insert",
    "commit",
    "other",
];

fn classify(sql: &str) -> usize {
    let s = sql.trim_start();
    let head = |word: &str| {
        s.get(..word.len())
            .is_some_and(|h| h.eq_ignore_ascii_case(word))
    };
    if head("SELECT") {
        0
    } else if head("UPDATE") {
        1
    } else if head("INSERT") {
        // `head` matched six ASCII bytes, so both slices fall on char
        // boundaries.
        let rest = s["INSERT".len()..].trim_start();
        let rest = match rest.get(..4) {
            Some(into) if into.eq_ignore_ascii_case("INTO") => &rest[4..],
            _ => rest,
        };
        let table = rest
            .trim_start()
            .split(|c: char| c.is_whitespace() || c == '(')
            .next()
            .unwrap_or("");
        if resildb_proxy::TRACKING_TABLES
            .iter()
            .any(|t| t.eq_ignore_ascii_case(table))
        {
            4
        } else {
            2
        }
    } else if head("DELETE") {
        3
    } else if head("COMMIT") {
        5
    } else {
        6
    }
}

/// Calls and nanoseconds spent in one kind of call.
#[derive(Debug, Default)]
pub struct Meter {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Meter {
    fn record(&self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Statistics only: each meter belongs to one connection, and the
        // totals are read after the client threads are joined.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// `(calls, nanoseconds)` so far.
    pub fn get(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// The downstream meters of one connection, one per [`KINDS`] entry.
#[derive(Debug, Default)]
pub struct Tap([Meter; KINDS.len()]);

impl Tap {
    /// `(calls, nanoseconds)` per kind so far.
    pub fn get(&self) -> [(u64, u64); KINDS.len()] {
        std::array::from_fn(|k| self.0[k].get())
    }
}

/// The taps of every connection a [`TimingDriver`] made, in connect order.
pub type Taps = Arc<Mutex<Vec<Arc<Tap>>>>;

/// A `Driver` timing every statement its connections execute.
#[derive(Debug)]
pub struct TimingDriver {
    inner: NativeDriver,
    taps: Taps,
}

impl TimingDriver {
    /// Wraps `inner`; each connection's tap is appended to `taps`.
    pub fn new(inner: NativeDriver, taps: Taps) -> Self {
        Self { inner, taps }
    }
}

impl Driver for TimingDriver {
    fn connect(&self) -> Result<Box<dyn Connection>, WireError> {
        let tap = Arc::new(Tap::default());
        self.taps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&tap));
        Ok(Box::new(TimedConnection {
            inner: self.inner.connect()?,
            tap,
        }))
    }
}

struct TimedConnection {
    inner: Box<dyn Connection>,
    tap: Arc<Tap>,
}

impl Connection for TimedConnection {
    fn execute(&mut self, sql: &str) -> Result<Response, WireError> {
        let start = Instant::now();
        let result = self.inner.execute(sql);
        self.tap.0[classify(sql)].record(start);
        result
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

/// The client's tracked connection, timing each call into the proxy.
pub struct MeteredConnection {
    inner: Box<dyn Connection>,
    meter: Arc<Meter>,
}

impl MeteredConnection {
    /// Wraps `inner`, recording into `meter`.
    pub fn new(inner: Box<dyn Connection>, meter: Arc<Meter>) -> Self {
        Self { inner, meter }
    }
}

impl Connection for MeteredConnection {
    fn execute(&mut self, sql: &str) -> Result<Response, WireError> {
        let start = Instant::now();
        let result = self.inner.execute(sql);
        self.meter.record(start);
        result
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

/// What one client's meters read at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    /// Calls into the proxy and their nanoseconds.
    pub proxy: (u64, u64),
    /// Downstream calls and nanoseconds per kind.
    pub engine: [(u64, u64); KINDS.len()],
}

impl Reading {
    /// Reads `meter` and `tap` now.
    pub fn of(meter: &Meter, tap: &Tap) -> Self {
        Self {
            proxy: meter.get(),
            engine: tap.get(),
        }
    }

    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &Reading) -> Reading {
        let sub = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        Reading {
            proxy: sub(self.proxy, earlier.proxy),
            engine: std::array::from_fn(|k| sub(self.engine[k], earlier.engine[k])),
        }
    }

    /// Client statements issued into the proxy.
    pub fn client_stmts(&self) -> u64 {
        self.proxy.0
    }

    /// Downstream statements the proxy issued into the engine.
    pub fn downstream_stmts(&self) -> u64 {
        self.engine.iter().map(|k| k.0).sum()
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Reading) {
        let add = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        add(&mut self.proxy, other.proxy);
        for k in 0..KINDS.len() {
            add(&mut self.engine[k], other.engine[k]);
        }
    }
}

/// Transaction time of the traced pass split by layer.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    /// Committed client transactions.
    pub txns: u64,
    /// Client time spent in transaction attempts, nanoseconds.
    pub txn_ns: u64,
    /// Meter deltas over the pass, summed over clients.
    pub reading: Reading,
}

impl Ledger {
    fn engine_ns(&self) -> u64 {
        self.reading.engine.iter().map(|k| k.1).sum()
    }

    /// `(layer, nanoseconds)` rows; they sum to `txn_ns` exactly.
    pub fn rows(&self) -> Vec<(String, i128)> {
        let txn = i128::from(self.txn_ns);
        let proxy = i128::from(self.reading.proxy.1);
        let engine = i128::from(self.engine_ns());
        let mut rows = vec![
            ("tpcc.client".to_string(), txn - proxy),
            ("proxy.self".to_string(), proxy - engine),
        ];
        for (k, name) in KINDS.iter().enumerate() {
            rows.push((
                format!("engine.{name}"),
                i128::from(self.reading.engine[k].1),
            ));
        }
        rows
    }

    /// Records the ledger's per-layer metrics and table, and checks that
    /// the measured intervals nest (no layer's time is negative).
    pub fn report(&self, title: &str, overhead_share: f64, report: &mut Report) {
        let per_txn = |ns: f64| ns / 1e3 / self.txns.max(1) as f64;
        let rows = self.rows();
        let sum: i128 = rows.iter().map(|r| r.1).sum();
        report.check("layer_nesting", rows.iter().all(|r| r.1 >= 0), || {
            format!("negative layer time in {rows:?}")
        });
        let txn_ns = self.txn_ns as f64;
        let mut table = format!(
            "\n=== Per-layer transaction time: {title} ({} committed txns, {:.1} us/txn) ===\n\
             {:<24} {:>12} {:>8} {:>10} {:>10}\n",
            self.txns,
            per_txn(txn_ns),
            "layer",
            "us/txn",
            "share",
            "calls/txn",
            "us/call"
        );
        let mut share_sum = 0.0;
        for (i, (name, ns)) in rows.iter().enumerate() {
            let share = ratio(*ns as f64, txn_ns);
            share_sum += share;
            // Client statements for the proxy row (its self time per
            // statement), downstream calls for the engine rows.
            let calls = match i {
                0 => None,
                1 => Some(self.reading.proxy.0),
                _ => Some(self.reading.engine[i - 2].0),
            };
            let (calls, call_us) = calls.map_or((String::new(), String::new()), |c| {
                (
                    format!("{:.2}", c as f64 / self.txns.max(1) as f64),
                    format!("{:.2}", ratio(*ns as f64, c as f64) / 1e3),
                )
            });
            let _ = writeln!(
                table,
                "{name:<24} {:>12.2} {:>7.1}% {calls:>10} {call_us:>10}",
                per_txn(*ns as f64),
                share * 100.0
            );
        }
        let _ = writeln!(
            table,
            "{:<24} {:>12.2} {:>7.1}%   (trace.overhead_share {:.1}%)",
            "total",
            per_txn(sum as f64),
            share_sum * 100.0,
            overhead_share * 100.0
        );
        report.text.push_str(&table);

        report.metric("tpcc.client_us_per_txn", per_txn(rows[0].1 as f64), "us");
        report.metric("proxy.self_us_per_txn", per_txn(rows[1].1 as f64), "us");
        report.metric(
            "proxy.self_share",
            ratio(rows[1].1 as f64, txn_ns),
            "fraction",
        );
        for (k, name) in KINDS.iter().enumerate() {
            let (calls, ns) = self.reading.engine[k];
            report.metric(
                &format!("engine.{name}.us"),
                ratio(ns as f64, calls as f64) / 1e3,
                "us",
            );
            report.metric(
                &format!("engine.{name}.per_txn"),
                calls as f64 / self.txns.max(1) as f64,
                "count",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_statement_kinds() {
        assert_eq!(KINDS[classify("SELECT 1")], "select");
        assert_eq!(KINDS[classify("  update t SET a = 1")], "update");
        assert_eq!(
            KINDS[classify("INSERT INTO orders (a) VALUES (1)")],
            "insert"
        );
        assert_eq!(
            KINDS[classify("INSERT INTO trans_dep (tr_id, dep_tr_ids) VALUES (1, '')")],
            "trans_dep_insert"
        );
        assert_eq!(
            KINDS[classify("INSERT INTO trans_dep_prov(tr_id) VALUES (1)")],
            "trans_dep_insert"
        );
        assert_eq!(
            KINDS[classify("INSERT INTO annot (tr_id) VALUES (1)")],
            "trans_dep_insert"
        );
        assert_eq!(KINDS[classify("DELETE FROM new_order")], "delete");
        assert_eq!(KINDS[classify("COMMIT")], "commit");
        assert_eq!(KINDS[classify("BEGIN")], "other");
        assert_eq!(KINDS[classify("INSERT")], "insert");
    }

    #[test]
    fn ledger_rows_sum_to_transaction_time() {
        let mut reading = Reading {
            proxy: (10, 700),
            ..Reading::default()
        };
        reading.engine[0] = (5, 300);
        reading.engine[5] = (2, 100);
        let ledger = Ledger {
            txns: 2,
            txn_ns: 1000,
            reading,
        };
        let rows = ledger.rows();
        assert_eq!(rows[0].1, 300, "client time");
        assert_eq!(rows[1].1, 300, "proxy self time");
        assert_eq!(rows.iter().map(|r| r.1).sum::<i128>(), 1000);
    }
}

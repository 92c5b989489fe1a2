//! The five TPC-C transaction types, implemented over the wire-level
//! [`Connection`] abstraction so they run identically against a raw driver
//! or the tracking proxy.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resildb_engine::Value;
use resildb_wire::{Connection, Response, WireError};

use crate::config::TpccConfig;

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Order placement (`Order` in the paper's Figure 3 labels).
    NewOrder,
    /// Order payment (`Payment`).
    Payment,
    /// Order delivery (`Deliv`).
    Delivery,
    /// Order status inquiry.
    OrderStatus,
    /// Stock level inquiry.
    StockLevel,
}

impl TxnKind {
    /// Every transaction type, in the canonical round-robin order the
    /// corpus recorders use.
    pub const ALL: [TxnKind; 5] = [
        TxnKind::NewOrder,
        TxnKind::Payment,
        TxnKind::Delivery,
        TxnKind::OrderStatus,
        TxnKind::StockLevel,
    ];

    /// The label prefix used in dependency-graph annotations, matching the
    /// paper's Figure 3 (`Order`, `Payment`, `Deliv`, ...).
    pub fn label_prefix(self) -> &'static str {
        match self {
            TxnKind::NewOrder => "Order",
            TxnKind::Payment => "Payment",
            TxnKind::Delivery => "Deliv",
            TxnKind::OrderStatus => "Status",
            TxnKind::StockLevel => "Stock",
        }
    }

    /// The transaction-class name used by the profiled corpus and the
    /// blast-radius reports (`NewOrder`, `Payment`, ...).
    pub fn class_name(self) -> &'static str {
        match self {
            TxnKind::NewOrder => "NewOrder",
            TxnKind::Payment => "Payment",
            TxnKind::Delivery => "Delivery",
            TxnKind::OrderStatus => "OrderStatus",
            TxnKind::StockLevel => "StockLevel",
        }
    }
}

/// Execution counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions retried after a deadlock abort.
    pub deadlock_retries: u64,
}

/// Drives TPC-C transactions over a connection.
///
/// The runner annotates every transaction with a paper-style label
/// (`<Type>_<warehouse>_<district>_<customer>_<seq>`) via the proxy's
/// `ANNOTATE` extension — harmless when running without the proxy is
/// required, so callers against a raw driver should disable annotations.
#[derive(Debug)]
pub struct TpccRunner {
    config: TpccConfig,
    rng: StdRng,
    seq: u64,
    annotate: bool,
    /// When set, every transaction targets this warehouse instead of a
    /// random one — the multi-threaded benchmark pins each worker to its
    /// own warehouse so threads contend on the lock manager's machinery,
    /// not on the same rows.
    home_warehouse: Option<u32>,
    /// Statistics since construction.
    pub stats: TxnStats,
}

impl TpccRunner {
    /// Creates a runner (annotations on).
    pub fn new(config: TpccConfig, seed: u64) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            annotate: true,
            home_warehouse: None,
            stats: TxnStats::default(),
        }
    }

    /// Disables `ANNOTATE` pseudo-statements (required when running
    /// against a raw driver without the proxy).
    pub fn without_annotations(mut self) -> Self {
        self.annotate = false;
        self
    }

    /// Pins every transaction to `warehouse` (1-based, clamped to the
    /// configured warehouse count). Threaded benchmark workers each take a
    /// distinct home warehouse so their row footprints are disjoint.
    pub fn with_home_warehouse(mut self, warehouse: u32) -> Self {
        self.home_warehouse = Some(warehouse.clamp(1, self.config.warehouses));
        self
    }

    fn pick_warehouse(&mut self) -> u32 {
        match self.home_warehouse {
            Some(w) => w,
            None => self.rng.gen_range(1..=self.config.warehouses),
        }
    }

    fn pick_wdc(&mut self) -> (u32, u32, u32) {
        let w = self.pick_warehouse();
        let d = self.rng.gen_range(1..=self.config.districts_per_warehouse);
        let c = self.rng.gen_range(1..=self.config.customers_per_district);
        (w, d, c)
    }

    fn begin(
        &mut self,
        conn: &mut dyn Connection,
        kind: TxnKind,
        w: u32,
        d: u32,
        c: u32,
    ) -> Result<(), WireError> {
        self.seq += 1;
        if self.annotate {
            conn.execute(&format!(
                "ANNOTATE {}_{w}_{d}_{c}_{}",
                kind.label_prefix(),
                self.seq
            ))?;
        }
        conn.execute("BEGIN")?;
        Ok(())
    }

    /// Runs one transaction of `kind` with random parameters. Deadlock
    /// victims are retried (fresh transaction), as a TPC-C client would.
    ///
    /// # Errors
    ///
    /// Non-retryable SQL failures.
    pub fn run(&mut self, conn: &mut dyn Connection, kind: TxnKind) -> Result<(), WireError> {
        loop {
            let result = match kind {
                TxnKind::NewOrder => self.new_order(conn),
                TxnKind::Payment => self.payment(conn),
                TxnKind::Delivery => self.delivery(conn),
                TxnKind::OrderStatus => self.order_status(conn),
                TxnKind::StockLevel => self.stock_level(conn),
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) if e.is_retryable() => {
                    self.stats.deadlock_retries += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// TPC-C New-Order (§2.4 of the spec, simplified).
    pub fn new_order(&mut self, conn: &mut dyn Connection) -> Result<(), WireError> {
        let (w, d, c) = self.pick_wdc();
        let line_count = self.rng.gen_range(1..=self.config.max_order_lines);
        let lines: Vec<(u32, u32)> = (0..line_count)
            .map(|_| {
                (
                    self.rng.gen_range(1..=self.config.items),
                    self.rng.gen_range(1..=10),
                )
            })
            .collect();
        self.begin(conn, TxnKind::NewOrder, w, d, c)?;
        query(
            conn,
            &format!("SELECT w_tax FROM warehouse WHERE w_id = {w}"),
        )?;
        let r = query(
            conn,
            &format!("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = {w} AND d_id = {d}"),
        )?;
        let o_id = int_at(&r, 0, 1)?;
        conn.execute(&format!(
            "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = {w} AND d_id = {d}"
        ))?;
        query(
            conn,
            &format!(
                "SELECT c_discount, c_last, c_credit FROM customer \
                 WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
            ),
        )?;
        conn.execute(&format!(
            "INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, o_entry_d, o_carrier_id, \
             o_ol_cnt, o_all_local) VALUES ({o_id}, {d}, {w}, {c}, {}, NULL, {}, 1)",
            self.seq,
            lines.len()
        ))?;
        conn.execute(&format!(
            "INSERT INTO new_order (no_o_id, no_d_id, no_w_id) VALUES ({o_id}, {d}, {w})"
        ))?;
        for (n, (i, qty)) in lines.iter().enumerate() {
            let r = query(conn, &format!("SELECT i_price FROM item WHERE i_id = {i}"))?;
            let price = float_at(&r, 0, 0)?;
            let r = query(
                conn,
                &format!("SELECT s_quantity FROM stock WHERE s_w_id = {w} AND s_i_id = {i}"),
            )?;
            let s_qty = int_at(&r, 0, 0)?;
            let new_qty = if s_qty >= i64::from(*qty) + 10 {
                s_qty - i64::from(*qty)
            } else {
                s_qty - i64::from(*qty) + 91
            };
            conn.execute(&format!(
                "UPDATE stock SET s_quantity = {new_qty}, s_ytd = s_ytd + {qty}, \
                 s_order_cnt = s_order_cnt + 1 WHERE s_w_id = {w} AND s_i_id = {i}"
            ))?;
            let amount = price * f64::from(*qty);
            conn.execute(&format!(
                "INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, \
                 ol_supply_w_id, ol_delivery_d, ol_quantity, ol_amount, ol_dist_info) \
                 VALUES ({o_id}, {d}, {w}, {}, {i}, {w}, NULL, {qty}, {amount:.2}, 'info')",
                n + 1
            ))?;
        }
        conn.execute("COMMIT")?;
        self.stats.committed += 1;
        Ok(())
    }

    /// TPC-C Payment: note that the warehouse/district SELECTs read the
    /// name/address columns but *not* `w_ytd`/`d_ytd` — the derived
    /// columns the paper's false-dependency analysis targets.
    pub fn payment(&mut self, conn: &mut dyn Connection) -> Result<(), WireError> {
        let (w, d, c) = self.pick_wdc();
        let amount: f64 = self.rng.gen_range(100..=500_000) as f64 / 100.0;
        self.begin(conn, TxnKind::Payment, w, d, c)?;
        conn.execute(&format!(
            "UPDATE warehouse SET w_ytd = w_ytd + {amount:.2} WHERE w_id = {w}"
        ))?;
        query(
            conn,
            &format!("SELECT w_name, w_street_1, w_city FROM warehouse WHERE w_id = {w}"),
        )?;
        conn.execute(&format!(
            "UPDATE district SET d_ytd = d_ytd + {amount:.2} WHERE d_w_id = {w} AND d_id = {d}"
        ))?;
        query(
            conn,
            &format!("SELECT d_name FROM district WHERE d_w_id = {w} AND d_id = {d}"),
        )?;
        query(
            conn,
            &format!(
                "SELECT c_balance, c_credit FROM customer \
                 WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
            ),
        )?;
        conn.execute(&format!(
            "UPDATE customer SET c_balance = c_balance - {amount:.2}, \
             c_ytd_payment = c_ytd_payment + {amount:.2}, c_payment_cnt = c_payment_cnt + 1 \
             WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
        ))?;
        conn.execute(&format!(
            "INSERT INTO history (h_c_id, h_c_d_id, h_c_w_id, h_d_id, h_w_id, h_date, \
             h_amount, h_data) VALUES ({c}, {d}, {w}, {d}, {w}, {}, {amount:.2}, 'pay')",
            self.seq
        ))?;
        conn.execute("COMMIT")?;
        self.stats.committed += 1;
        Ok(())
    }

    /// TPC-C Delivery: delivers the oldest undelivered order per district.
    pub fn delivery(&mut self, conn: &mut dyn Connection) -> Result<(), WireError> {
        let w = self.pick_warehouse();
        let carrier = self.rng.gen_range(1..=10);
        self.begin(conn, TxnKind::Delivery, w, 0, 0)?;
        for d in 1..=self.config.districts_per_warehouse {
            let r = query(
                conn,
                &format!(
                    "SELECT no_o_id FROM new_order WHERE no_w_id = {w} AND no_d_id = {d} \
                     ORDER BY no_o_id LIMIT 1"
                ),
            )?;
            let Some(o_id) = r.rows.first().and_then(|row| match row[0] {
                Value::Int(v) => Some(v),
                _ => None,
            }) else {
                continue; // nothing to deliver in this district
            };
            conn.execute(&format!(
                "DELETE FROM new_order WHERE no_w_id = {w} AND no_d_id = {d} AND no_o_id = {o_id}"
            ))?;
            let r = query(
                conn,
                &format!(
                    "SELECT o_c_id FROM orders WHERE o_w_id = {w} AND o_d_id = {d} AND o_id = {o_id}"
                ),
            )?;
            let c = int_at(&r, 0, 0)?;
            conn.execute(&format!(
                "UPDATE orders SET o_carrier_id = {carrier} \
                 WHERE o_w_id = {w} AND o_d_id = {d} AND o_id = {o_id}"
            ))?;
            conn.execute(&format!(
                "UPDATE order_line SET ol_delivery_d = {} \
                 WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id = {o_id}",
                self.seq
            ))?;
            // Sum order-line amounts client-side (keeps the read tracked;
            // a SUM() aggregate would be invisible to the proxy).
            let r = query(
                conn,
                &format!(
                    "SELECT ol_amount FROM order_line \
                     WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id = {o_id}"
                ),
            )?;
            let total: f64 = r
                .rows
                .iter()
                .map(|row| match row[0] {
                    Value::Float(v) => v,
                    Value::Int(v) => v as f64,
                    _ => 0.0,
                })
                .sum();
            conn.execute(&format!(
                "UPDATE customer SET c_balance = c_balance + {total:.2}, \
                 c_delivery_cnt = c_delivery_cnt + 1 \
                 WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
            ))?;
        }
        conn.execute("COMMIT")?;
        self.stats.committed += 1;
        Ok(())
    }

    /// TPC-C Order-Status (read-only).
    pub fn order_status(&mut self, conn: &mut dyn Connection) -> Result<(), WireError> {
        let (w, d, c) = self.pick_wdc();
        self.begin(conn, TxnKind::OrderStatus, w, d, c)?;
        query(
            conn,
            &format!(
                "SELECT c_balance, c_first, c_last FROM customer \
                 WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
            ),
        )?;
        let r = query(
            conn,
            &format!(
                "SELECT o_id FROM orders WHERE o_w_id = {w} AND o_d_id = {d} AND o_c_id = {c} \
                 ORDER BY o_id DESC LIMIT 1"
            ),
        )?;
        if let Some(Value::Int(o_id)) = r.rows.first().map(|row| row[0].clone()) {
            query(
                conn,
                &format!(
                    "SELECT ol_i_id, ol_quantity, ol_amount, ol_delivery_d FROM order_line \
                     WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id = {o_id}"
                ),
            )?;
        }
        conn.execute("COMMIT")?;
        self.stats.committed += 1;
        Ok(())
    }

    /// TPC-C Stock-Level (read-only, the paper's read-intensive unit):
    /// examines the order lines of the last 20 orders and counts distinct
    /// items below a threshold, joining client-side so the reads remain
    /// visible to the tracking proxy.
    pub fn stock_level(&mut self, conn: &mut dyn Connection) -> Result<(), WireError> {
        let w = self.pick_warehouse();
        let d = self.rng.gen_range(1..=self.config.districts_per_warehouse);
        let threshold = self.rng.gen_range(10..=20);
        self.begin(conn, TxnKind::StockLevel, w, d, 0)?;
        let r = query(
            conn,
            &format!("SELECT d_next_o_id FROM district WHERE d_w_id = {w} AND d_id = {d}"),
        )?;
        let next_o = int_at(&r, 0, 0)?;
        let low = (next_o - 20).max(1);
        let r = query(
            conn,
            &format!(
                "SELECT ol_i_id FROM order_line WHERE ol_w_id = {w} AND ol_d_id = {d} \
                 AND ol_o_id BETWEEN {low} AND {next_o}"
            ),
        )?;
        let mut item_ids: Vec<i64> = r
            .rows
            .iter()
            .filter_map(|row| match row[0] {
                Value::Int(v) => Some(v),
                _ => None,
            })
            .collect();
        item_ids.sort_unstable();
        item_ids.dedup();
        if !item_ids.is_empty() {
            let list = item_ids
                .iter()
                .map(i64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            let r = query(
                conn,
                &format!(
                    "SELECT s_i_id, s_quantity FROM stock \
                     WHERE s_w_id = {w} AND s_i_id IN ({list})"
                ),
            )?;
            let _low_stock = r
                .rows
                .iter()
                .filter(|row| matches!(row[1], Value::Int(q) if q < threshold))
                .count();
        }
        conn.execute("COMMIT")?;
        self.stats.committed += 1;
        Ok(())
    }
}

fn query(conn: &mut dyn Connection, sql: &str) -> Result<resildb_engine::QueryResult, WireError> {
    match conn.execute(sql)? {
        Response::Rows(r) => Ok(r),
        other => Err(WireError::Protocol(format!(
            "expected rows from {sql}, got {other:?}"
        ))),
    }
}

fn int_at(r: &resildb_engine::QueryResult, row: usize, col: usize) -> Result<i64, WireError> {
    match r.rows.get(row).and_then(|rw| rw.get(col)) {
        Some(Value::Int(v)) => Ok(*v),
        other => Err(WireError::Protocol(format!(
            "expected integer at ({row},{col}), got {other:?}"
        ))),
    }
}

fn float_at(r: &resildb_engine::QueryResult, row: usize, col: usize) -> Result<f64, WireError> {
    match r.rows.get(row).and_then(|rw| rw.get(col)) {
        Some(Value::Float(v)) => Ok(*v),
        Some(Value::Int(v)) => Ok(*v as f64),
        other => Err(WireError::Protocol(format!(
            "expected float at ({row},{col}), got {other:?}"
        ))),
    }
}

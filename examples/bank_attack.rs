//! The dependency-tracking edge cases of paper §3.1, demonstrated live:
//!
//! * a **false positive** — two transactions touch *different attributes*
//!   of the same row, creating a row-level dependency that column-aware
//!   false-dependency rules can discard;
//! * a **false negative** — the paper's exact example: `T1` raises an
//!   account from $50 to $500, then `T2` charges a service fee to all
//!   accounts with balance < $100. `T2` does *not* read the row `T1`
//!   wrote, so no dependency is recorded — yet undoing `T1` alone leaves
//!   the account without the fee it would have been charged.
//!
//! Run with: `cargo run --example bank_attack`

use resildb_core::{Error, FalseDepRule, Flavor, ResilientDb, Value};

fn main() -> Result<(), Error> {
    let rdb = ResilientDb::new(Flavor::Oracle)?;
    let mut conn = rdb.connect()?;
    conn.execute(
        "CREATE TABLE account (id INTEGER PRIMARY KEY, balance FLOAT, last_login INTEGER)",
    )?;
    conn.execute(
        "INSERT INTO account (id, balance, last_login) VALUES (1, 50.0, 0), (2, 200.0, 0)",
    )?;

    // ---- false positive: disjoint attributes of one row ----------------
    // The "attack" only rewrites last_login (say, to hide its traces).
    conn.execute("ANNOTATE attack_touch_login")?;
    conn.execute("BEGIN")?;
    conn.execute("UPDATE account SET last_login = 999 WHERE id = 2")?;
    conn.execute("COMMIT")?;
    // A legitimate transaction reads the same row's *balance*.
    conn.execute("ANNOTATE reads_balance_only")?;
    conn.execute("BEGIN")?;
    conn.execute("SELECT balance FROM account WHERE id = 2")?;
    conn.execute("UPDATE account SET balance = balance - 1.0 WHERE id = 1")?;
    conn.execute("COMMIT")?;

    let attack = rdb.txn_id_by_label("attack_touch_login")?.unwrap();
    let reader = rdb.txn_id_by_label("reads_balance_only")?.unwrap();
    let analysis = rdb.analyze()?;

    let naive = analysis.undo_set(&[attack], &[]);
    println!(
        "row-level tracking flags the balance reader: {}",
        naive.contains(&reader)
    );

    // The DBA knows the shared row's overlap is only last_login: a
    // column-aware rule discards the false dependency.
    let rules = vec![FalseDepRule::IgnoreDerivedColumns {
        table: "account".into(),
        columns: vec!["last_login".into()],
    }];
    let precise = analysis.undo_set(&[attack], &rules);
    println!(
        "after discarding last_login-only deps:     {}",
        precise.contains(&reader)
    );
    assert!(naive.contains(&reader) && !precise.contains(&reader));

    // ---- false negative: the paper's service-fee example ----------------
    conn.execute("ANNOTATE t1_raise_balance")?;
    conn.execute("BEGIN")?;
    conn.execute("UPDATE account SET balance = 500.0 WHERE id = 1")?;
    conn.execute("COMMIT")?;

    conn.execute("ANNOTATE t2_service_fee")?;
    conn.execute("BEGIN")?;
    // T2's read set does NOT include account 1 (its balance is now 500).
    conn.execute("UPDATE account SET balance = balance - 10.0 WHERE balance < 100.0")?;
    conn.execute("COMMIT")?;

    let t1 = rdb.txn_id_by_label("t1_raise_balance")?.unwrap();
    let t2 = rdb.txn_id_by_label("t2_service_fee")?.unwrap();
    let analysis = rdb.analyze()?;
    let closure = analysis.undo_set(&[t1], &[]);
    println!(
        "\nservice-fee example: dependency analysis says T2 depends on T1: {}",
        closure.contains(&t2)
    );
    assert!(
        !closure.contains(&t2),
        "this is the paper's false NEGATIVE: no read-set overlap exists"
    );
    println!(
        "-> undoing T1 alone restores balance 50 but cannot re-charge the fee \
         T2 would have applied;\n   this is why the paper keeps the DBA in the \
         loop to extend the undo set manually."
    );

    // The DBA, understanding the application, forces T2 into the undo set
    // by hand (the \"what if\" workflow) and repairs.
    let mut plan = resildb_core::RepairPlan::new(&analysis, &[t1], &[]);
    plan.force_include(&analysis, t2);
    let report = rdb.repair_controller().execute(&analysis, &plan)?;
    println!(
        "manual repair rolled back {} transactions ({} compensating statements)",
        report.undo_set.len(),
        report.outcome.statements.len()
    );

    let mut s = rdb.database().session();
    let r = s.query("SELECT balance FROM account WHERE id = 1")?;
    assert_eq!(r.rows[0][0], Value::Float(49.0)); // 50 - 1 (legit) restored
    println!(
        "account 1 balance after full manual repair: {}",
        r.rows[0][0]
    );
    Ok(())
}

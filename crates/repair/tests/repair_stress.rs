//! Adversarial repair scenarios: aborted transactions in the history,
//! multi-page Sybase offset adjustment, deep dependency chains, and
//! concurrent tracked clients.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_engine::{Database, Flavor, Value};
use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
use resildb_repair::{RepairController, RepairPlan};
use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver};

fn tracked(flavor: Flavor) -> (Database, Box<dyn Connection>) {
    let db = Database::in_memory(flavor);
    let native = NativeDriver::new(db.clone(), LinkProfile::local());
    prepare_database(&mut *native.connect().unwrap()).unwrap();
    let config = ProxyConfig::builder(flavor)
        .record_read_only_deps(true)
        .build();
    let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
    let conn = driver.connect().unwrap();
    (db, conn)
}

fn txn_id(db: &Database, label: &str) -> i64 {
    let mut s = db.session();
    match s
        .query(&format!("SELECT tr_id FROM annot WHERE descr = '{label}'"))
        .unwrap()
        .rows
        .first()
        .map(|r| r[0].clone())
    {
        Some(Value::Int(v)) => v,
        other => panic!("{label}: {other:?}"),
    }
}

#[test]
fn aborted_transactions_do_not_confuse_analysis_or_repair() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")
        .unwrap();

    // An aborted transaction that would have been dependent.
    conn.execute("BEGIN").unwrap();
    conn.execute("SELECT v FROM t WHERE id = 1").unwrap();
    conn.execute("UPDATE t SET v = 777 WHERE id = 2").unwrap();
    conn.execute("ROLLBACK").unwrap();

    conn.execute("ANNOTATE attack").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE t SET v = 666 WHERE id = 1").unwrap();
    conn.execute("COMMIT").unwrap();

    // Another abort after the attack, touching the poisoned row.
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE t SET v = 888 WHERE id = 1").unwrap();
    conn.execute("ROLLBACK").unwrap();

    let attack = txn_id(&db, "attack");
    let tool = RepairController::new(db.clone());
    let analysis = tool.analyze().unwrap();
    // Aborted transactions are uncorrelated and absent from the graph.
    for rec in &analysis.records {
        if let Some(p) = analysis.correlation.proxy_id(rec.internal_txn) {
            assert!(analysis.tracked_transactions().contains(&p));
        }
    }
    let report = tool.repair(&[attack]).unwrap();
    assert_eq!(report.undo_set.len(), 1);
    let mut s = db.session();
    assert_eq!(
        s.query("SELECT v FROM t WHERE id = 1").unwrap().rows[0][0],
        Value::Int(10)
    );
    assert_eq!(
        s.query("SELECT v FROM t WHERE id = 2").unwrap().rows[0][0],
        Value::Int(20)
    );
}

#[test]
fn sybase_offset_adjustment_across_many_pages_and_deletes() {
    let (db, mut conn) = tracked(Flavor::Sybase);
    // Rows wide enough that a page holds only a handful.
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, pad VARCHAR(240), v INTEGER)")
        .unwrap();
    conn.execute("ANNOTATE load").unwrap();
    conn.execute("BEGIN").unwrap();
    for i in 0..120 {
        conn.execute(&format!(
            "INSERT INTO t (id, pad, v) VALUES ({i}, 'x', {i})"
        ))
        .unwrap();
    }
    conn.execute("COMMIT").unwrap();
    assert!(
        db.table("t").unwrap().read().page_count() >= 4,
        "need multiple pages"
    );

    // The attack modifies rows scattered across pages.
    conn.execute("ANNOTATE attack").unwrap();
    conn.execute("BEGIN").unwrap();
    for i in [3, 37, 71, 105] {
        conn.execute(&format!("UPDATE t SET v = 9999 WHERE id = {i}"))
            .unwrap();
    }
    conn.execute("COMMIT").unwrap();

    // Unrelated cleanup deletes interleave on every page, shifting rows
    // below (and around) each modified row.
    conn.execute("ANNOTATE cleanup").unwrap();
    conn.execute("BEGIN").unwrap();
    for i in (0..120).step_by(5) {
        if ![3, 37, 71, 105].contains(&i) {
            conn.execute(&format!("DELETE FROM t WHERE id = {i}"))
                .unwrap();
        }
    }
    conn.execute("COMMIT").unwrap();

    let attack = txn_id(&db, "attack");
    let cleanup = txn_id(&db, "cleanup");
    let tool = RepairController::new(db.clone());
    let analysis = tool.analyze().unwrap();
    let undo = analysis.undo_set(&[attack], &[]);
    assert!(
        !undo.contains(&cleanup),
        "cleanup deleted untouched rows only"
    );
    tool.execute(&analysis, &RepairPlan::new(&analysis, &[attack], &[]))
        .unwrap();

    let mut s = db.session();
    for i in [3, 37, 71, 105] {
        assert_eq!(
            s.query(&format!("SELECT v FROM t WHERE id = {i}"))
                .unwrap()
                .rows[0][0],
            Value::Int(i),
            "row {i} restored"
        );
    }
}

#[test]
fn deep_dependency_chain_closure_and_repair() {
    let (db, mut conn) = tracked(Flavor::Oracle);
    conn.execute("CREATE TABLE chain (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("ANNOTATE t0").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO chain (id, v) VALUES (0, 0)")
        .unwrap();
    conn.execute("COMMIT").unwrap();
    // 80 transactions, each reading the previous row and inserting the
    // next — one long genuine dependency chain.
    for i in 1..=80 {
        conn.execute(&format!("ANNOTATE t{i}")).unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute(&format!("SELECT v FROM chain WHERE id = {}", i - 1))
            .unwrap();
        conn.execute(&format!("INSERT INTO chain (id, v) VALUES ({i}, {i})"))
            .unwrap();
        conn.execute("COMMIT").unwrap();
    }
    let t0 = txn_id(&db, "t0");
    let tool = RepairController::new(db.clone());
    let analysis = tool.analyze().unwrap();
    let undo = analysis.undo_set(&[t0], &[]);
    assert_eq!(undo.len(), 81, "the whole chain is transitively corrupted");
    let report = tool
        .execute(&analysis, &RepairPlan::new(&analysis, &[t0], &[]))
        .unwrap();
    // 81 chain inserts plus each undone transaction's tracking rows.
    assert!(report.outcome.rows_deleted >= 81, "{report:?}");
    assert_eq!(db.row_count("chain").unwrap(), 0);
}

#[test]
fn mid_chain_attack_spares_the_prefix() {
    let (db, mut conn) = tracked(Flavor::Postgres);
    conn.execute("CREATE TABLE chain (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    for i in 0..=20 {
        conn.execute(&format!("ANNOTATE t{i}")).unwrap();
        conn.execute("BEGIN").unwrap();
        if i > 0 {
            conn.execute(&format!("SELECT v FROM chain WHERE id = {}", i - 1))
                .unwrap();
        }
        conn.execute(&format!("INSERT INTO chain (id, v) VALUES ({i}, {i})"))
            .unwrap();
        conn.execute("COMMIT").unwrap();
    }
    let mid = txn_id(&db, "t10");
    let analysis = RepairController::new(db.clone()).analyze().unwrap();
    let undo = analysis.undo_set(&[mid], &[]);
    assert_eq!(undo.len(), 11, "t10..t20");
    RepairController::new(db.clone())
        .execute(&analysis, &RepairPlan::new(&analysis, &[mid], &[]))
        .unwrap();
    assert_eq!(db.row_count("chain").unwrap(), 10, "rows 0..9 survive");
}

#[test]
fn concurrent_tracked_clients_share_the_proxy_id_sequence() {
    let db = Database::in_memory(Flavor::Postgres);
    let native = NativeDriver::new(db.clone(), LinkProfile::local());
    prepare_database(&mut *native.connect().unwrap()).unwrap();
    let driver = std::sync::Arc::new(TrackingProxy::single_proxy(
        db.clone(),
        LinkProfile::local(),
        ProxyConfig::new(Flavor::Postgres),
    ));
    {
        let mut conn = driver.connect().unwrap();
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .unwrap();
    }
    let mut handles = Vec::new();
    for t in 0..4i64 {
        let driver = std::sync::Arc::clone(&driver);
        handles.push(std::thread::spawn(move || {
            let mut conn = driver.connect().unwrap();
            for i in 0..10 {
                conn.execute(&format!(
                    "INSERT INTO t (id, v) VALUES ({}, {i})",
                    t * 1000 + i
                ))
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // 40 tracked transactions with 40 distinct proxy ids (DDL through the
    // proxy is auto-committed by the engine and not a tracked write txn).
    let analysis = RepairController::new(db.clone()).analyze().unwrap();
    assert_eq!(analysis.tracked_transactions().len(), 40);
}

#[test]
fn repair_restores_multi_table_transactions_atomically() {
    let (db, mut conn) = tracked(Flavor::Sybase);
    conn.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    conn.execute("INSERT INTO a (id, v) VALUES (1, 1)").unwrap();
    conn.execute("INSERT INTO b (id, v) VALUES (1, 1)").unwrap();
    conn.execute("ANNOTATE attack").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE a SET v = 666 WHERE id = 1").unwrap();
    conn.execute("DELETE FROM b WHERE id = 1").unwrap();
    conn.execute("INSERT INTO a (id, v) VALUES (2, 666)")
        .unwrap();
    conn.execute("COMMIT").unwrap();

    let attack = txn_id(&db, "attack");
    RepairController::new(db.clone()).repair(&[attack]).unwrap();
    let mut s = db.session();
    assert_eq!(
        s.query("SELECT v FROM a WHERE id = 1").unwrap().rows[0][0],
        Value::Int(1)
    );
    assert_eq!(db.row_count("a").unwrap(), 1, "evil insert removed");
    assert_eq!(
        s.query("SELECT v FROM b WHERE id = 1").unwrap().rows[0][0],
        Value::Int(1),
        "deleted row re-inserted"
    );
}

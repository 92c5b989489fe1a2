//! Incidents and the output checks.
//!
//! An incident is a freshly set-up tracked database with the workload's
//! history, a committed forged payment on warehouse 1 and a few more
//! transactions. It is repaired live (`FenceDynamic(Defer)`) while the
//! clean client of `mttr --live` keeps running.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use resildb_core::{Database, LiveRepairStats, ResilientDb, Value};
use resildb_engine::LogOp;
use resildb_repair::{adapters::adapter_for, is_tracking_table};
use resildb_tpcc::{Attack, AttackKind, ATTACK_LABEL};

use crate::report::{median, ratio, Report};
use crate::workload::{
    drive_all, drive_each, prepare, CleanClient, Client, Connected, Drive, Stack, StackKind, Until,
    Workload, WAREHOUSE_2_YTD,
};
use crate::Sabotage;

/// The attack every incident commits.
const ATTACK: Attack = Attack {
    kind: AttackKind::ForgedPayment,
    w_id: 1,
    d_id: 1,
    target_id: 1,
};

/// The values [`ATTACK`] forges. Every later writer of these rows depends
/// on the attack and the clean client never writes them, so a correct
/// repair restores their pre-attack values.
const FORGED: [&str; 3] = [
    "SELECT w_ytd FROM warehouse WHERE w_id = 1",
    "SELECT d_ytd FROM district WHERE d_w_id = 1 AND d_id = 1",
    "SELECT c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 1",
];

fn read_f64(db: &Database, sql: &str) -> f64 {
    let result = db.session().query(sql).expect("read a checked value");
    match result.rows.first().and_then(|row| row.first()) {
        Some(Value::Float(v)) => *v,
        Some(Value::Int(v)) => *v as f64,
        other => panic!("{sql} returned {other:?}"),
    }
}

fn execute_untracked(rdb: &ResilientDb, sql: &str) {
    rdb.connect_untracked()
        .expect("untracked connect")
        .execute(sql)
        .expect("untracked statement");
}

/// A set-up incident, ready to be repaired.
pub struct Incident {
    stack: Stack,
    /// The clean client, which keeps running during the repair.
    clean: Connected,
    attack: i64,
    /// [`FORGED`] values just before the attack.
    forged_before: Vec<f64>,
    /// Time to set the incident up.
    pub setup: Duration,
}

/// Sets up an incident on a fresh facade.
pub fn build(w: Workload, seed: u64, report: &mut Report) -> Incident {
    let start = Instant::now();
    let mut p = prepare(StackKind::Facade, w, seed, report);
    let forged_before = FORGED.iter().map(|q| read_f64(p.stack.db(), q)).collect();
    ATTACK
        .execute(&mut *p.stack.connect())
        .expect("commit the attack");
    drive_each(&mut p.clients, w.post_attack_txns(), report);
    let attack = p
        .stack
        .facade()
        .txn_id_by_label(ATTACK_LABEL)
        .expect("look the attack up")
        .expect("the attack is tracked");
    let clean: Box<dyn Client> = Box::new(CleanClient::default());
    Incident {
        clean: (clean, p.stack.connect()),
        stack: p.stack,
        attack,
        forged_before,
        setup: start.elapsed(),
    }
}

/// What one live repair measured.
pub struct Repaired {
    /// Wall time of the `repair()` call.
    pub mttr: Duration,
    /// Share of `mttr` in which the clean client was not held by the
    /// fence.
    pub availability: f64,
    /// From the `repair()` call until a client first saw the fence up.
    pub mttc: Duration,
    /// The clients' in-repair attempts.
    pub drives: Vec<Drive>,
    /// The controller's live bookkeeping.
    pub live: LiveRepairStats,
}

fn log_scans(rdb: &ResilientDb) -> u64 {
    rdb.metrics()
        .histogram("repair.log_scan")
        .map_or(0, |h| h.count)
}

/// Repairs `inc` live while its clients keep running, then checks the
/// outcome. `sabotage` breaks one check's input.
pub fn repair_live(mut inc: Incident, sabotage: Option<Sabotage>, report: &mut Report) -> Repaired {
    let rdb = inc.stack.facade();
    let fence = rdb.proxy_runtime().fence();
    let ytd2_before = read_f64(rdb.database(), WAREHOUSE_2_YTD);
    let controller = rdb.repair_controller_with(rdb.live_repair_options());
    let initial = if sabotage == Some(Sabotage::NoAttack) {
        vec![]
    } else {
        vec![inc.attack]
    };
    let (in_repair, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let mut t0 = Instant::now();
    let (drives, (mttr, result)) = drive_all(
        std::slice::from_mut(&mut inc.clean),
        Until::Flag(&stop),
        Some(&in_repair),
        Some(fence),
        || {
            t0 = Instant::now();
            in_repair.store(true, Ordering::SeqCst);
            let result = controller.repair(&initial);
            let mttr = t0.elapsed();
            in_repair.store(false, Ordering::SeqCst);
            stop.store(true, Ordering::SeqCst);
            (mttr, result)
        },
    );
    let repaired = result.expect("live repair");
    let fence_seen = drives.iter().filter_map(|d| d.fence_seen).min();
    report.check("fence_observed", fence_seen.is_some(), || {
        "no client saw the containment fence up during the repair".into()
    });
    let mttc = fence_seen.map_or(mttr, |seen| seen - t0);

    match sabotage {
        Some(Sabotage::Reforge) => execute_untracked(
            rdb,
            "UPDATE warehouse SET w_ytd = w_ytd + 1000000.0 WHERE w_id = 1",
        ),
        Some(Sabotage::LeaveFence) => {
            fence.raise(["warehouse".to_string()]);
        }
        Some(Sabotage::DropServedUpdate) => {
            execute_untracked(
                rdb,
                "UPDATE warehouse SET w_ytd = w_ytd - 1.0 WHERE w_id = 2",
            );
        }
        _ => {}
    }
    report.check(
        "attack_undone",
        repaired.undo_set.contains(&inc.attack),
        || {
            format!(
                "attack {} is not in the undo set {:?}",
                inc.attack, repaired.undo_set
            )
        },
    );
    let forged_after: Vec<f64> = FORGED.iter().map(|q| read_f64(rdb.database(), q)).collect();
    report.check(
        "forged_value_gone",
        forged_after
            .iter()
            .zip(&inc.forged_before)
            .all(|(after, before)| (after - before).abs() < 0.005),
        || {
            format!(
                "forged rows read {forged_after:?} after the repair, {:?} before the attack",
                inc.forged_before
            )
        },
    );
    report.check("fence_lifted", !fence.is_active(), || {
        "the containment fence is still up after the repair".into()
    });
    if sabotage == Some(Sabotage::LeaveFence) {
        fence.lift();
    }
    check_ledger(&rdb.metrics(), report);
    // The clean client's updates never touch the attack's closure, so
    // every one it saw commit must still be in warehouse 2's total.
    let served = inc.clean.0.served_updates();
    let mut expected = ytd2_before;
    for _ in 0..served {
        expected += 1.0;
    }
    let actual = read_f64(rdb.database(), WAREHOUSE_2_YTD);
    report.check(
        "served_updates_survive",
        (actual - expected).abs() < 0.5,
        || {
            format!(
                "warehouse 2 w_ytd is {actual} after {served} served updates, expected {expected}"
            )
        },
    );

    let held: u64 = drives.iter().map(|d| d.held_ns).sum();
    Repaired {
        availability: 1.0 - ratio(held as f64, mttr.as_secs_f64() * 1e9).min(1.0),
        mttr,
        mttc,
        drives,
        live: repaired
            .live
            .expect("a live repair reports live statistics"),
    }
}

fn check_ledger(metrics: &resildb_core::MetricsSnapshot, report: &mut Report) {
    let inflight = metrics.gauge("proxy.trans_dep.inflight");
    report.check("ledger_drained", inflight == Some(0.0), || {
        format!("{inflight:?} tracked transactions still in flight")
    });
}

/// Records `availability`, `mttr_ms` and `mttc_ms`: medians over the
/// run's incidents.
pub fn report_end_to_end(incidents: &[Repaired], report: &mut Report) {
    let of = |f: &dyn Fn(&Repaired) -> f64| median(&incidents.iter().map(f).collect::<Vec<_>>());
    report.metric("availability", of(&|r| r.availability), "fraction");
    report.metric("mttr_ms", of(&|r| r.mttr.as_secs_f64() * 1e3), "ms");
    report.metric("mttc_ms", of(&|r| r.mttc.as_secs_f64() * 1e3), "ms");
}

/// Records the `repair.live.*` metrics: medians over the run's incidents.
pub fn report_live_stats(incidents: &[Repaired], report: &mut Report) {
    let of = |f: &dyn Fn(&LiveRepairStats) -> f64| {
        median(&incidents.iter().map(|r| f(&r.live)).collect::<Vec<_>>())
    };
    report.metric(
        "repair.live.fenced_tables",
        of(&|s| s.fenced_tables as f64),
        "count",
    );
    report.metric(
        "repair.live.fenced_rows",
        of(&|s| s.fenced_rows as f64),
        "count",
    );
    report.metric(
        "repair.live.extension_rounds",
        of(&|s| s.extension_rounds as f64),
        "count",
    );
    report.metric("repair.live.drain_ms", of(&|s| s.drain_ms as f64), "ms");
}

/// The repair's phases, timed separately from outside on a quiesced
/// incident, and its counts. A second incident from the same seed is
/// repaired live with no traffic: it must undo the same transactions with
/// as many compensating statements over a log as long. `twin_seed` is
/// `seed` except under a broken input.
pub fn quiesced_phases(w: Workload, seed: u64, twin_seed: u64, report: &mut Report) {
    let inc = build(w, seed, report);
    let rdb = inc.stack.facade();
    let db = rdb.database();
    let wal = db.wal_records().len();
    let start = Instant::now();
    let records = adapter_for(db.flavor()).scan(db).expect("log scan").len();
    let scan = start.elapsed();
    let controller = rdb.repair_controller();
    let start = Instant::now();
    let analysis = controller.analyze().expect("analyze");
    let analyze = start.elapsed();
    let start = Instant::now();
    let plan = controller.plan(&analysis, &[inc.attack]);
    let plan_time = start.elapsed();
    let start = Instant::now();
    let quiesced = controller.execute(&analysis, &plan).expect("execute");
    let execute = start.elapsed();

    let twin = build(w, twin_seed, report);
    let twin_rdb = twin.stack.facade();
    let twin_wal = twin_rdb.database().wal_records().len();
    let scans_before = log_scans(twin_rdb);
    let live = twin_rdb
        .repair_controller_with(twin_rdb.live_repair_options())
        .repair(&[twin.attack])
        .expect("live repair");
    let scans = log_scans(twin_rdb) - scans_before;
    let undo = |set: &BTreeSet<i64>| set.len();
    report.check(
        "deterministic_repair",
        wal == twin_wal
            && quiesced.undo_set == live.undo_set
            && quiesced.outcome.statements.len() == live.outcome.statements.len(),
        || {
            format!(
                "same-seed incidents: {wal} vs {twin_wal} log records, undo sets of {} vs {}, \
                 {} vs {} compensating statements (quiesced vs live)",
                undo(&quiesced.undo_set),
                undo(&live.undo_set),
                quiesced.outcome.statements.len(),
                live.outcome.statements.len()
            )
        },
    );

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    report.metric("repair.log_records", records as f64, "count");
    report.metric("repair.analyze_ms", ms(analyze), "ms");
    report.metric(
        "repair.scan_ns_per_record",
        ratio(scan.as_secs_f64() * 1e9, records as f64),
        "ns",
    );
    report.metric("repair.plan_ms", ms(plan_time), "ms");
    report.metric("repair.execute_ms", ms(execute), "ms");
    report.metric("repair.log_scans", scans as f64, "count");
    report.metric("repair.undo_set", plan.undo_set.len() as f64, "count");
    report.metric(
        "repair.compensating_statements",
        quiesced.outcome.statements.len() as f64,
        "count",
    );
}

/// Checks the OLTP steady pass: every committed transaction that wrote
/// user data has exactly one `trans_dep` row, and no tracked transaction
/// is left in flight.
pub fn check_tracking(
    stack: &Stack,
    wal_from: usize,
    trans_dep_before: u64,
    sabotage: Option<Sabotage>,
    report: &mut Report,
) {
    let db = stack.db();
    let mut probe = stack.connect();
    match sabotage {
        Some(Sabotage::UntrackedWrite) => execute_untracked(
            stack.facade(),
            "UPDATE warehouse SET w_ytd = w_ytd + 1.0 WHERE w_id = 1",
        ),
        Some(Sabotage::OpenTxn) => {
            probe.execute("BEGIN").expect("begin");
            probe.execute(FORGED[0]).expect("read");
        }
        _ => {}
    }
    let (mut writers, mut recorded, mut committed) =
        (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    for record in &db.wal_records()[wal_from..] {
        match &record.op {
            LogOp::Commit => {
                committed.insert(record.txn);
            }
            LogOp::Insert { table, .. }
                if table.eq_ignore_ascii_case(resildb_proxy::TRANS_DEP_TABLE) =>
            {
                recorded.insert(record.txn);
            }
            LogOp::Insert { table, .. }
            | LogOp::Update { table, .. }
            | LogOp::Delete { table, .. }
                if !is_tracking_table(table) =>
            {
                writers.insert(record.txn);
            }
            _ => {}
        }
    }
    writers.retain(|t| committed.contains(t));
    recorded.retain(|t| committed.contains(t));
    let rows = db.row_count("trans_dep").expect("trans_dep rows") - trans_dep_before;
    report.check(
        "trans_dep_rows",
        writers == recorded && rows == recorded.len() as u64,
        || {
            format!(
                "{} committed write transactions, {} of them without a trans_dep record; \
                 {} transactions recorded, {rows} new trans_dep rows",
                writers.len(),
                writers.difference(&recorded).count(),
                recorded.len()
            )
        },
    );
    check_ledger(&probe.metrics(), report);
}

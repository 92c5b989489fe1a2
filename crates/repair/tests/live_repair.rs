//! Live (online) repair end-to-end: fence lifecycle, reject/pass
//! semantics through a tracked connection, equivalence with quiesced
//! repair, and fence teardown on the error and panic exit paths.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;

use resildb_core::{
    failpoints, ContainmentPolicy, FaultAction, FaultTrigger, FenceAction, Flavor, RepairPlan,
    ResilientDb, Value,
};
use resildb_proxy::RowFence;

/// Loads three accounts, commits an attack on row 1, a dependent
/// transaction that reads it and writes row 2, and an independent
/// survivor on row 3. Returns the attack's proxy transaction id.
fn workload(rdb: &ResilientDb) -> i64 {
    let mut c = rdb.connect().unwrap();
    let run = |c: &mut Box<dyn resildb_core::Connection>, sql: &str| {
        c.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    };
    run(
        &mut c,
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)",
    );
    run(
        &mut c,
        "INSERT INTO acct (id, bal) VALUES (1, 100.0), (2, 50.0), (3, 75.0)",
    );
    run(&mut c, "ANNOTATE attack");
    run(&mut c, "BEGIN");
    run(&mut c, "UPDATE acct SET bal = 1000000.0 WHERE id = 1");
    run(&mut c, "COMMIT");
    run(&mut c, "ANNOTATE dependent");
    run(&mut c, "BEGIN");
    run(&mut c, "SELECT bal FROM acct WHERE id = 1");
    run(&mut c, "UPDATE acct SET bal = bal + 10.0 WHERE id = 2");
    run(&mut c, "COMMIT");
    run(&mut c, "ANNOTATE survivor");
    run(&mut c, "BEGIN");
    run(&mut c, "UPDATE acct SET bal = bal + 1.0 WHERE id = 3");
    run(&mut c, "COMMIT");
    rdb.txn_id_by_label("attack").unwrap().unwrap()
}

fn balances(rdb: &ResilientDb) -> Vec<(i64, f64)> {
    let mut s = rdb.database().session();
    let r = s.query("SELECT id, bal FROM acct ORDER BY id").unwrap();
    r.rows
        .iter()
        .map(|row| match (&row[0], &row[1]) {
            (Value::Int(id), Value::Float(b)) => (*id, *b),
            other => panic!("unexpected row {other:?}"),
        })
        .collect()
}

fn live_rdb() -> ResilientDb {
    ResilientDb::builder(Flavor::Postgres)
        .containment(ContainmentPolicy::FenceDynamic(FenceAction::Reject))
        .build()
        .unwrap()
}

#[test]
fn live_repair_matches_quiesced_and_reports_fence_stats() {
    // Quiesced reference world.
    let quiesced = ResilientDb::new(Flavor::Postgres).unwrap();
    let attack_q = workload(&quiesced);
    quiesced.repair(&[attack_q], &[]).unwrap();

    // Live world: identical history, repaired online.
    let live = live_rdb();
    let attack = workload(&live);
    let report = live
        .repair_controller_with(live.live_repair_options())
        .repair(&[attack])
        .unwrap();

    assert_eq!(balances(&live), balances(&quiesced));
    assert_eq!(balances(&live), vec![(1, 100.0), (2, 50.0), (3, 76.0)]);
    assert_eq!(report.undo_set.len(), 2, "attack + dependent undone");

    let stats = report.live.expect("live execution reports live stats");
    assert!(stats.fenced_tables >= 1, "static raise fenced acct");
    assert_eq!(stats.extension_rounds, 0, "no traffic: closure converges");

    let snap = live.metrics();
    assert_eq!(
        snap.gauge("repair.live.fence_size"),
        Some(0.0),
        "fence lifted after repair"
    );
    let json = resildb_core::telemetry::export::to_json(&snap);
    for key in [
        "proxy.fence.rejected",
        "proxy.fence.deferred",
        "proxy.fence.passed",
    ] {
        assert!(json.contains(key), "{key} missing from metrics");
    }

    let flight = live.flight_recorder().snapshot();
    for name in ["fence_raised", "fence_shrunk", "fence_lifted"] {
        assert!(
            flight.events.iter().any(|e| e.kind.name() == name),
            "flight recorder missing {name}"
        );
    }
}

#[test]
fn fence_rejects_intersecting_and_passes_disjoint_statements() {
    let rdb = live_rdb();
    workload(&rdb);

    // Drive the fence exactly as a mid-sweep live repair would: acct
    // shrunk to a single-row quarantine on id = 1.
    let fence = rdb.proxy_runtime().fence();
    fence.raise(vec!["acct".to_string()]);
    let mut rows = std::collections::HashMap::new();
    rows.insert(
        "acct".to_string(),
        RowFence {
            key_columns: vec!["id".to_string()],
            keys: ["1".to_string()].into_iter().collect(),
        },
    );
    fence.shrink(BTreeSet::new(), rows);

    let mut conn = rdb.connect().unwrap();
    let poisoned = conn.execute("UPDATE acct SET bal = 0.0 WHERE id = 1");
    let msg = poisoned
        .expect_err("statement on the fenced row")
        .to_string();
    assert!(msg.contains("containment fence"), "unexpected error: {msg}");

    // A full-table scan may touch the quarantined row: refused too.
    assert!(conn.execute("SELECT * FROM acct").is_err());

    // A provably-disjoint statement flows through mid-repair.
    conn.execute("UPDATE acct SET bal = bal + 1.0 WHERE id = 2")
        .expect("disjoint statement passes the row fence");

    fence.lift();
    conn.execute("SELECT * FROM acct")
        .expect("everything passes once the fence is down");

    let stats = fence.stats();
    assert!(stats.rejected >= 2 && stats.passed >= 1);
}

#[test]
fn failed_live_repair_lifts_fence_and_retry_succeeds() {
    let rdb = live_rdb();
    let attack = workload(&rdb);

    // First attempt errors at the pre-sweep failpoint: no compensation
    // ran, and the fence must come down with the error.
    let failing = rdb.live_repair_options().fault(
        failpoints::REPAIR_LIVE_BEFORE_SHRINK,
        FaultAction::Error,
        FaultTrigger::Once,
    );
    rdb.repair_controller_with(failing)
        .repair(&[attack])
        .expect_err("armed failpoint aborts the live repair");
    assert_eq!(rdb.metrics().gauge("repair.live.fence_size"), Some(0.0));
    assert_eq!(
        balances(&rdb)[0],
        (1, 1_000_000.0),
        "failed attempt rolled back before compensating"
    );

    // The fault was Once; the retry repairs and lifts cleanly.
    let report = rdb
        .repair_controller_with(rdb.live_repair_options())
        .repair(&[attack])
        .unwrap();
    assert!(report.live.is_some());
    assert_eq!(balances(&rdb), vec![(1, 100.0), (2, 50.0), (3, 76.0)]);
    assert_eq!(rdb.metrics().gauge("repair.live.fence_size"), Some(0.0));
}

#[test]
fn panicking_live_repair_still_lifts_fence() {
    let rdb = live_rdb();
    let attack = workload(&rdb);

    let exploding = rdb.live_repair_options().fault(
        failpoints::REPAIR_LIVE_BEFORE_SHRINK,
        FaultAction::Panic,
        FaultTrigger::Once,
    );
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let _ = rdb.repair_controller_with(exploding).repair(&[attack]);
    }));
    assert!(result.is_err(), "the armed failpoint panics");
    assert_eq!(
        rdb.metrics().gauge("repair.live.fence_size"),
        Some(0.0),
        "drop guard lifted the fence through the unwind"
    );

    // The incident timeline is well-formed through the unwind too: the
    // aborted episode is closed with its fence pair matched, because the
    // drop guards mark FenceLifted and close the incident in order.
    use resildb_core::IncidentPhase as P;
    let incidents = rdb.telemetry().timeline().snapshot();
    assert_eq!(incidents.len(), 1);
    assert!(!incidents[0].open, "panic teardown closed the incident");
    assert_eq!(incidents[0].count(P::FenceRaised), 1);
    assert_eq!(incidents[0].count(P::FenceLifted), 1);

    // The database remains fully serviceable and repairable.
    let report = rdb
        .repair_controller_with(rdb.live_repair_options())
        .repair(&[attack])
        .unwrap();
    assert_eq!(report.undo_set.len(), 2);
    assert_eq!(balances(&rdb), vec![(1, 100.0), (2, 50.0), (3, 76.0)]);

    // The retry is its own incident with its own matched fence pair.
    let incidents = rdb.telemetry().timeline().snapshot();
    assert_eq!(incidents.len(), 2);
    for incident in &incidents {
        assert!(!incident.open);
        assert_eq!(
            incident.count(P::FenceRaised),
            incident.count(P::FenceLifted)
        );
        let d = incident.decomposition();
        assert_eq!(d.mttd_ns + d.mttc_ns + d.mttr_ns, d.wall_ns);
    }
}

/// Minimal HTTP GET against the observability endpoint; returns the
/// status code and body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect endpoint");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn ready_endpoint_flips_across_fence_raise_and_lift() {
    use resildb_core::{MetricsServer, ServerRoutes};

    let rdb = std::sync::Arc::new(live_rdb());
    workload(&rdb);

    // Wire /ready to the real containment fence, exactly as `mttr --live
    // --serve` does, and drive the fence through its lifecycle.
    let ready_rdb = std::sync::Arc::clone(&rdb);
    let snapshot_rdb = std::sync::Arc::clone(&rdb);
    let incidents_rdb = std::sync::Arc::clone(&rdb);
    let routes = ServerRoutes::new()
        .ready(move || !ready_rdb.proxy_runtime().fence().is_active())
        .metrics(move || snapshot_rdb.metrics())
        .incidents(move || incidents_rdb.telemetry().timeline().to_json());
    let server = MetricsServer::serve("127.0.0.1:0", routes).expect("bind endpoint");
    let fence = rdb.proxy_runtime().fence();

    let (status, _) = http_get(server.addr(), "/ready");
    assert_eq!(status, 200, "no fence: ready");
    let (status, body) = http_get(server.addr(), "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("resildb_"), "prometheus body: {body:.60}");
    let (status, _) = http_get(server.addr(), "/health");
    assert_eq!(status, 200, "health is unconditional");

    fence.raise(vec!["acct".to_string()]);
    let (status, _) = http_get(server.addr(), "/ready");
    assert_eq!(status, 503, "fence raised: not ready");
    let (status, _) = http_get(server.addr(), "/health");
    assert_eq!(status, 200, "still healthy while fenced");

    fence.lift();
    let (status, _) = http_get(server.addr(), "/ready");
    assert_eq!(status, 200, "fence lifted: ready again");

    // /incidents serves the timeline JSON envelope even when empty.
    let (status, body) = http_get(server.addr(), "/incidents");
    assert_eq!(status, 200);
    assert!(
        body.starts_with("{\"incidents\":["),
        "incidents json: {body}"
    );
}

#[test]
fn incident_timeline_decomposes_live_repair() {
    let rdb = live_rdb();
    let attack = workload(&rdb);
    rdb.repair_controller_with(rdb.live_repair_options())
        .repair(&[attack])
        .unwrap();

    let incidents = rdb.telemetry().timeline().snapshot();
    assert_eq!(incidents.len(), 1, "one repair episode, one incident");
    let incident = &incidents[0];
    assert!(!incident.open, "execute() closed the incident");
    use resildb_core::IncidentPhase as P;
    for phase in [
        P::Detected,
        P::FenceRaised,
        P::QuarantineShrunk,
        P::SweepComplete,
        P::FenceLifted,
    ] {
        assert_eq!(incident.count(phase), 1, "{} marked once", phase.name());
    }
    // Marks are strictly monotonic and the decomposition is exact.
    for w in incident.marks.windows(2) {
        assert!(w[1].at_ns > w[0].at_ns, "marks strictly ordered");
    }
    let d = incident.decomposition();
    assert_eq!(d.mttd_ns + d.mttc_ns + d.mttr_ns, d.wall_ns);

    // The flight recorder saw the same story: every timeline phase with a
    // flight twin appears in the capture, so `resildb-trace --repair`
    // and `/incidents` agree on what happened.
    let flight = rdb.flight_recorder().snapshot();
    for name in [
        "incident_detected",
        "fence_raised",
        "fence_shrunk",
        "sweep_complete",
        "fence_lifted",
    ] {
        assert!(
            flight.events.iter().any(|e| e.kind.name() == name),
            "flight capture missing {name}"
        );
    }
}

#[test]
fn static_policy_keeps_whole_tables_fenced() {
    let rdb = ResilientDb::builder(Flavor::Postgres)
        .containment(ContainmentPolicy::FenceStatic(FenceAction::Reject))
        .build()
        .unwrap();
    let attack = workload(&rdb);
    let report = rdb
        .repair_controller_with(rdb.live_repair_options())
        .repair(&[attack])
        .unwrap();
    assert!(report.live.is_some());
    assert_eq!(balances(&rdb), vec![(1, 100.0), (2, 50.0), (3, 76.0)]);
    assert_eq!(rdb.metrics().gauge("repair.live.fence_size"), Some(0.0));
}

/// Commits a transaction that reads the poisoned row 1 and inserts
/// row 4: a dependent of the attack that no earlier analysis saw.
fn late_reader(rdb: &ResilientDb) {
    let mut c = rdb.connect().unwrap();
    for sql in [
        "ANNOTATE late",
        "BEGIN",
        "SELECT bal FROM acct WHERE id = 1",
        "INSERT INTO acct (id, bal) VALUES (4, 5.0)",
        "COMMIT",
    ] {
        c.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

/// The DBA's decisions on `analysis`: undo the attack, spare its
/// dependent, and undo the unrelated survivor by hand.
fn edited_plan(rdb: &ResilientDb, analysis: &resildb_core::Analysis) -> RepairPlan {
    let id = |label: &str| rdb.txn_id_by_label(label).unwrap().unwrap();
    let mut plan = RepairPlan::new(analysis, &[id("attack")], &[]);
    plan.force_exclude(analysis, id("dependent"))
        .force_include(analysis, id("survivor"));
    plan
}

#[test]
fn live_repair_applies_plan_decisions_to_fresh_analysis() {
    // Quiesced twin: the whole history, then plan and repair.
    let quiesced = ResilientDb::new(Flavor::Postgres).unwrap();
    workload(&quiesced);
    late_reader(&quiesced);
    let analysis = quiesced.analyze().unwrap();
    let plan = edited_plan(&quiesced, &analysis);
    let quiesced_report = quiesced
        .repair_controller()
        .execute(&analysis, &plan)
        .unwrap();

    // Live world: the plan is made before the late reader commits, so
    // only the fresh analysis behind the fence knows about it.
    let live = live_rdb();
    workload(&live);
    let analysis = live.analyze().unwrap();
    let plan = edited_plan(&live, &analysis);
    let survivor = live.txn_id_by_label("survivor").unwrap().unwrap();
    assert!(plan.undo_set.contains(&survivor));
    late_reader(&live);
    let late = live.txn_id_by_label("late").unwrap().unwrap();
    assert!(!plan.undo_set.contains(&late));
    let live_report = live
        .repair_controller_with(live.live_repair_options())
        .execute(&analysis, &plan)
        .unwrap();

    assert_eq!(balances(&live), balances(&quiesced));
    // Attack and survivor undone, the dependent's +10 kept, row 4 gone.
    assert_eq!(balances(&live), vec![(1, 100.0), (2, 60.0), (3, 75.0)]);
    assert_eq!(live_report.undo_set, quiesced_report.undo_set);
    assert!(live_report.undo_set.contains(&late));
    let dependent = live.txn_id_by_label("dependent").unwrap().unwrap();
    assert!(!live_report.undo_set.contains(&dependent));
}

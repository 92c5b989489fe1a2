//! Criterion micro-benchmarks for the framework's hot paths: SQL parsing
//! and printing, Table-1 query rewriting, engine point operations, the
//! tracked statement path, and repair analysis. These measure *real* CPU
//! time (unlike the fig4/fig5 harnesses, which measure virtual time).

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use resildb_core::{Flavor, ResilientDb};
use resildb_sql::{parse_statement, Statement};

const SELECT_SQL: &str = "SELECT c.c_balance, c.c_first, o.o_id FROM customer c, orders o \
     WHERE c.c_w_id = 1 AND c.c_d_id = 2 AND c.c_id = 17 AND o.o_w_id = 1 \
     AND o.o_d_id = 2 AND o.o_c_id = 17 ORDER BY o.o_id DESC LIMIT 1";

fn bench_sql(c: &mut Criterion) {
    c.bench_function("sql_parse_select", |b| {
        b.iter(|| parse_statement(std::hint::black_box(SELECT_SQL)).unwrap())
    });
    let ast = parse_statement(SELECT_SQL).unwrap();
    c.bench_function("sql_print_select", |b| b.iter(|| ast.to_string()));
}

fn bench_rewrite(c: &mut Criterion) {
    let Statement::Select(sel) = parse_statement(SELECT_SQL).unwrap() else {
        unreachable!()
    };
    c.bench_function("proxy_rewrite_select", |b| {
        b.iter(|| {
            resildb_proxy::rewrite_select(
                std::hint::black_box(&sel),
                resildb_proxy::TrackingGranularity::Row,
            )
            .rewritten()
            .unwrap()
        })
    });
    let Statement::Update(upd) = parse_statement(
        "UPDATE stock SET s_quantity = 10, s_ytd = s_ytd + 5 WHERE s_w_id = 1 AND s_i_id = 7",
    )
    .unwrap() else {
        unreachable!()
    };
    c.bench_function("proxy_rewrite_update", |b| {
        b.iter(|| {
            resildb_proxy::rewrite_update(
                std::hint::black_box(&upd),
                42,
                resildb_proxy::TrackingGranularity::Row,
            )
        })
    });
}

fn bench_rewrite_cache(c: &mut Criterion) {
    use resildb_sql::{collect_params, parse_template, scan_statement, SqlTemplate};

    // Cold: what every occurrence of the statement pays without the cache —
    // lex + parse, clone-rewrite, print.
    c.bench_function("rewrite_cold", |b| {
        b.iter(|| {
            let Statement::Select(sel) = parse_statement(std::hint::black_box(SELECT_SQL)).unwrap()
            else {
                unreachable!()
            };
            let (rewritten, _plan) =
                resildb_proxy::rewrite_select(&sel, resildb_proxy::TrackingGranularity::Row)
                    .rewritten()
                    .unwrap();
            rewritten.to_string()
        })
    });

    // Cached: what a rewrite-cache hit pays — fingerprint-scan the incoming
    // text, then splice its literals into the pre-rewritten template.
    let scan = scan_statement(SELECT_SQL).unwrap();
    let Statement::Select(sel) = parse_template(SELECT_SQL, &scan).unwrap() else {
        unreachable!()
    };
    let (rewritten, _plan) =
        resildb_proxy::rewrite_select(&sel, resildb_proxy::TrackingGranularity::Row)
            .rewritten()
            .unwrap();
    let stmt = Statement::Select(rewritten);
    let tmpl = SqlTemplate::new(stmt.to_string(), &collect_params(&stmt)).unwrap();
    c.bench_function("rewrite_cached", |b| {
        b.iter(|| {
            let scan = scan_statement(std::hint::black_box(SELECT_SQL)).unwrap();
            tmpl.splice(SELECT_SQL, &scan.spans, 0)
        })
    });
}

/// A small populated database behind the tracking proxy.
fn tracked_db() -> (ResilientDb, Box<dyn resildb_core::Connection>) {
    let rdb = ResilientDb::new(Flavor::Postgres).unwrap();
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR(64))")
        .unwrap();
    for chunk in 0..10 {
        let rows: Vec<String> = (0..50)
            .map(|i| format!("({}, {}, 'padding-data')", chunk * 50 + i, i))
            .collect();
        conn.execute(&format!(
            "INSERT INTO t (id, v, pad) VALUES {}",
            rows.join(", ")
        ))
        .unwrap();
    }
    (rdb, conn)
}

fn bench_engine(c: &mut Criterion) {
    let (rdb, _conn) = tracked_db();
    let mut session = rdb.database().session();
    c.bench_function("engine_point_select_by_pk", |b| {
        b.iter(|| session.query("SELECT v FROM t WHERE id = 250").unwrap())
    });
    c.bench_function("engine_point_update_by_pk", |b| {
        b.iter(|| {
            session
                .execute_sql("UPDATE t SET v = v + 1 WHERE id = 250")
                .unwrap()
        })
    });
}

fn bench_tracked_path(c: &mut Criterion) {
    let (_rdb, mut conn) = tracked_db();
    c.bench_function("tracked_select_with_harvest", |b| {
        b.iter(|| conn.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
    c.bench_function("tracked_autocommit_update", |b| {
        b.iter(|| {
            conn.execute("UPDATE t SET v = v + 1 WHERE id = 250")
                .unwrap()
        })
    });
}

fn bench_repair_analysis(c: &mut Criterion) {
    // A history of 200 small tracked transactions.
    let (rdb, mut conn) = tracked_db();
    for i in 0..200 {
        conn.execute("BEGIN").unwrap();
        conn.execute(&format!("SELECT v FROM t WHERE id = {}", i % 500))
            .unwrap();
        conn.execute(&format!(
            "UPDATE t SET v = v + 1 WHERE id = {}",
            (i + 1) % 500
        ))
        .unwrap();
        conn.execute("COMMIT").unwrap();
    }
    let tool = rdb.repair_controller();
    c.bench_function("repair_analyze_200_txns", |b| {
        b.iter(|| tool.analyze().unwrap())
    });
    let analysis = tool.analyze().unwrap();
    let first = *analysis.tracked_transactions().iter().next().unwrap();
    c.bench_function("repair_closure_200_txns", |b| {
        b.iter(|| analysis.undo_set(&[first], &[]))
    });
}

fn bench_failpoints(c: &mut Criterion) {
    use resildb_core::failpoints;

    // The disarmed fast path every WAL append / proxy statement pays: one
    // relaxed atomic load. Guards the "zero-cost when disarmed" claim next
    // to rewrite_cached, which must not regress from failpoint plumbing.
    let (rdb, mut conn) = tracked_db();
    let sim = rdb.database().sim().clone();
    assert!(!sim.faults().active());
    c.bench_function("failpoint_check_disarmed", |b| {
        b.iter(|| sim.fault_check(std::hint::black_box(failpoints::ENGINE_WAL_APPEND)))
    });
    c.bench_function("tracked_select_failpoints_disarmed", |b| {
        b.iter(|| conn.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
}

fn bench_enforcement(c: &mut Criterion) {
    use resildb_analyze::{classify_statement, Granularity};
    use resildb_engine::Database;
    use resildb_proxy::{prepare_database, EnforcementPolicy, ProxyConfig, TrackingProxy};
    use resildb_wire::{Driver, LinkProfile, NativeDriver};

    // The raw classifier cost a cold statement pays once per shape.
    let stmt = parse_statement(SELECT_SQL).unwrap();
    c.bench_function("analyzer_classify_select", |b| {
        b.iter(|| classify_statement(std::hint::black_box(&stmt), Granularity::Row))
    });

    // Steady-state tracked selects with the rewrite cache warm: the only
    // difference between the two is the memoised-verdict inspection, which
    // must stay invisible next to parse/splice/execute. This guards the
    // claim that enforcement costs nothing on the hot path.
    let proxied = |policy: EnforcementPolicy| {
        let db = Database::in_memory(resildb_engine::Flavor::Postgres);
        let native = NativeDriver::new(db.clone(), LinkProfile::local());
        prepare_database(&mut *native.connect().unwrap()).unwrap();
        let config = ProxyConfig::builder(resildb_engine::Flavor::Postgres)
            .enforcement(policy)
            .build();
        let driver = TrackingProxy::single_proxy(db, LinkProfile::local(), config);
        let mut conn = driver.connect().unwrap();
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .unwrap();
        conn.execute("INSERT INTO t (id, v) VALUES (250, 1)")
            .unwrap();
        conn.execute("SELECT v FROM t WHERE id = 250").unwrap(); // warm cache
        conn
    };
    let mut off = proxied(EnforcementPolicy::Allow);
    c.bench_function("tracked_select_enforcement_off", |b| {
        b.iter(|| off.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
    let mut warn = proxied(EnforcementPolicy::Warn);
    c.bench_function("tracked_select_enforcement_warn", |b| {
        b.iter(|| warn.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
}

fn bench_telemetry(c: &mut Criterion) {
    use resildb_core::Telemetry;

    // The disabled-telemetry fast path every instrumented site pays when
    // no recorder is attached: one relaxed atomic load, no clock read.
    // Guards the "near-zero cost when disabled" claim, mirroring
    // failpoint_check_disarmed.
    let disabled = Telemetry::disabled();
    c.bench_function("telemetry_span_disabled", |b| {
        b.iter(|| disabled.owned_span(std::hint::black_box("engine.execute")))
    });
    let recording = Telemetry::recording();
    c.bench_function("telemetry_span_recording", |b| {
        b.iter(|| recording.owned_span(std::hint::black_box("engine.execute")))
    });

    // The flight recorder's disabled path must match the span guard's:
    // one relaxed atomic load, no tick allocation, no lock. Within noise
    // of telemetry_span_disabled.
    use resildb_core::EventKind;
    let flight_off = Telemetry::disabled();
    c.bench_function("flight_recorder_disabled", |b| {
        b.iter(|| {
            flight_off
                .flight()
                .emit(std::hint::black_box(7), 1, EventKind::TxnBegin)
        })
    });
    let flight_on = Telemetry::disabled();
    flight_on.flight().set_enabled(true);
    c.bench_function("flight_recorder_recording", |b| {
        b.iter(|| {
            flight_on
                .flight()
                .emit(std::hint::black_box(7), 1, EventKind::TxnBegin)
        })
    });

    // The cached-rewrite hot path with telemetry disabled must look
    // exactly like it did before the instrumentation landed — compare
    // against tracked_select_with_harvest across PRs. ResilientDb enables
    // recording by default, so flip it off first (the builder also turns
    // the flight recorder on; disable that too).
    let (rdb, mut conn) = tracked_db();
    rdb.telemetry().set_enabled(false);
    rdb.flight_recorder().set_enabled(false);
    conn.execute("SELECT v FROM t WHERE id = 250").unwrap(); // warm cache
    c.bench_function("tracked_select_telemetry_disabled", |b| {
        b.iter(|| conn.execute("SELECT v FROM t WHERE id = 250").unwrap())
    });
}

fn bench_page_compaction(c: &mut Criterion) {
    use resildb_engine::{Page, RowId};
    c.bench_function("page_delete_with_migration", |b| {
        b.iter_batched(
            || {
                let mut p = Page::new();
                for i in 0..60 {
                    p.insert(RowId(i), &[0u8; 100]);
                }
                p
            },
            |mut p| {
                for i in 0..30 {
                    p.delete(RowId(i * 2));
                }
                p
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sql, bench_rewrite, bench_rewrite_cache, bench_engine, bench_tracked_path, bench_repair_analysis, bench_failpoints, bench_enforcement, bench_telemetry, bench_page_compaction
);
criterion_main!(benches);

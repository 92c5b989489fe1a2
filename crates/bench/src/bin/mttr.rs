//! MTTR comparison: selective repair vs restore-backup-and-replay.
//! Pass `--quick` for a reduced grid; `--live` measures *online* repair
//! instead — clean traffic served while the sweep runs behind the
//! containment fence; `--json-out [PATH]` additionally emits a
//! machine-readable report (default `BENCH_pr4.json`, or
//! `BENCH_pr10.json` under `--live`); `--trace-out [PATH]` captures a
//! flight-recorder trace of the attack, analysis and repair (Chrome
//! Trace Event Format; `.jsonl` for JSONL; default `BENCH_trace.json`).
//! Explore captures with `resildb-trace`.
//!
//! `--live --serve [ADDR]` (default `127.0.0.1:9188`) additionally runs
//! the observability endpoint while the points execute: `/metrics`
//! (Prometheus), `/health`, `/ready` (503 while a fence is up or a
//! repair is executing), `/incidents` (timeline JSON) and `/quit`.
//! Watch it live with `resildb-top`. The process keeps serving after
//! the sweep finishes until `/quit` is requested.

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::Arc;

use resildb_bench::json::{self, Probe};
use resildb_bench::mttr::{lock_slot, LiveMttrPoint, MttrPoint, ObserveSlot};
use resildb_core::telemetry::json::{escape, number};
use resildb_core::{MetricsServer, MetricsSnapshot, ServerRoutes};

fn points_json(points: &[MttrPoint]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"t_detect\":{},\"selective_repair_us\":{},\
                 \"compensating_statements\":{},\"restore_and_replay_us\":{},\
                 \"speedup\":{}}}",
                p.t_detect,
                p.selective_repair.as_micros(),
                p.compensating_statements,
                p.restore_and_replay.as_micros(),
                number(p.speedup()),
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The per-incident timeline of a live point: phase marks plus the
/// MTTD/MTTC/MTTR decomposition (nanoseconds, so the three phases sum
/// to the wall time *exactly* — microsecond rounding would break that).
fn timeline_json(p: &LiveMttrPoint) -> String {
    let Some(incident) = &p.incident else {
        return "null".to_string();
    };
    let d = incident.decomposition();
    let marks: Vec<String> = incident
        .marks
        .iter()
        .map(|m| {
            format!(
                "{{\"phase\":{},\"at_ns\":{}}}",
                escape(m.phase.name()),
                m.at_ns
            )
        })
        .collect();
    format!(
        "{{\"incident\":{},\"marks\":[{}],\"mttd_ns\":{},\"mttc_ns\":{},\
         \"mttr_ns\":{},\"wall_ns\":{}}}",
        incident.id,
        marks.join(","),
        d.mttd_ns,
        d.mttc_ns,
        d.mttr_ns,
        d.wall_ns,
    )
}

fn live_points_json(points: &[LiveMttrPoint]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"t_detect\":{},\"repair_wall_us\":{},\"attempted\":{},\
                 \"served\":{},\"fenced\":{},\"availability\":{},\
                 \"fenced_tables\":{},\"fenced_rows\":{},\
                 \"extension_rounds\":{},\"undo_set\":{},\"timeline\":{}}}",
                p.t_detect,
                p.repair_wall.as_micros(),
                p.attempted,
                p.served,
                p.fenced,
                number(p.availability()),
                p.fenced_tables,
                p.fenced_rows,
                p.extension_rounds,
                p.undo_set,
                timeline_json(p),
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Builds the endpoint routes over the shared observation slot. Before
/// a point installs itself the endpoint serves empty-but-valid data, so
/// a scraper can connect the moment the process is up.
fn observe_routes(slot: &Arc<ObserveSlot>) -> ServerRoutes {
    let metrics_slot = Arc::clone(slot);
    let ready_slot = Arc::clone(slot);
    let incidents_slot = Arc::clone(slot);
    ServerRoutes::new()
        .metrics(move || match &*lock_slot(&metrics_slot) {
            Some((rdb, progress)) => {
                let mut snap = rdb.metrics();
                progress.fold_metrics(&mut snap);
                snap
            }
            None => MetricsSnapshot::default(),
        })
        .ready(move || match &*lock_slot(&ready_slot) {
            Some((rdb, progress)) => {
                !rdb.proxy_runtime().fence().is_active() && !progress.is_executing()
            }
            None => true,
        })
        .incidents(move || match &*lock_slot(&incidents_slot) {
            Some((rdb, _)) => rdb.telemetry().timeline().to_json(),
            None => "{\"incidents\":[]}".to_string(),
        })
        .allow_quit(true)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let live = args.iter().any(|a| a == "--live");
    let grid: Vec<usize> = if quick {
        vec![30]
    } else {
        vec![50, 100, 200, 400, 700]
    };
    let json_out = if live {
        json::flag_path(&args, "--json-out", "BENCH_pr10.json")
    } else {
        json::json_out_path(&args)
    };
    let serve = live
        .then(|| json::flag_path(&args, "--serve", "127.0.0.1:9188"))
        .flatten();
    let trace_out = json::trace_out_path(&args);
    let probe = (json_out.is_some() || trace_out.is_some()).then(Probe::new);
    if trace_out.is_some() {
        if let Some(probe) = &probe {
            probe.enable_tracing();
        }
    }
    if live {
        let slot: Arc<ObserveSlot> = Arc::new(ObserveSlot::default());
        let mut server = serve.as_deref().map(|addr| {
            let server =
                MetricsServer::serve(addr, observe_routes(&slot)).expect("bind metrics endpoint");
            println!("observability endpoint on http://{}/", server.addr());
            server
        });
        let observe = server.as_ref().map(|_| &*slot);
        let points = resildb_bench::mttr::run_live_observed(&grid, probe.as_ref(), observe);
        print!("{}", resildb_bench::mttr::render_live(&points));
        if let (Some(path), Some(probe)) = (&json_out, &probe) {
            json::write_report(
                path,
                "mttr-live",
                &live_points_json(&points),
                &probe.snapshot(),
                &probe.run_meta(),
            )
            .expect("write json report");
            println!("\nJSON report written to {path}");
        }
        if let Some(server) = server.as_mut() {
            println!("serving until GET /quit on http://{}/", server.addr());
            server.join();
        }
        return;
    }
    let points = resildb_bench::mttr::run_probed(&grid, probe.as_ref());
    print!("{}", resildb_bench::mttr::render(&points));
    if let (Some(path), Some(probe)) = (&json_out, &probe) {
        json::write_report(
            path,
            "mttr",
            &points_json(&points),
            &probe.snapshot(),
            &probe.run_meta(),
        )
        .expect("write json report");
        println!("\nJSON report written to {path}");
    }
    if let (Some(path), Some(probe)) = (&trace_out, &probe) {
        json::write_trace(path, &probe.telemetry().flight().snapshot())
            .expect("write trace capture");
        println!("trace capture written to {path}");
    }
}

//! Regenerates paper Figure 4: inter-transaction dependency tracking
//! overhead over the four panels. Pass `--quick` for a reduced run,
//! `--no-rewrite-cache` to disable the proxy's statement-template cache
//! (the ablation isolating what cached rewrites buy back),
//! `--json-out [PATH]` to also emit a machine-readable report (cells plus
//! per-stage telemetry histograms; default `BENCH_pr4.json`), and
//! `--trace-out [PATH]` to capture a flight-recorder trace of the run
//! (Chrome Trace Event Format, Perfetto-loadable; `.jsonl` for JSONL;
//! default `BENCH_trace.json`). Explore captures with `resildb-trace`.
//!
//! `--threads N` switches to the wall-clock scaling mode instead: N OS
//! threads (measured at every power of two up to N) drive real
//! connections against one shared database with the simulator in
//! wall-clock mode, reporting base and tracked TPS scaling curves
//! (`--wall-clock` is implied and accepted as an explicit flag; the JSON
//! report defaults to `BENCH_pr6.json`).

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_bench::fig4::{render, run_probed, Cell, Scale};
use resildb_bench::json::{self, Probe};
use resildb_bench::threads::{self, thread_counts, ThreadCell};
use resildb_core::telemetry::json::{escape, number};

fn cells_json(cells: &[Cell]) -> String {
    let items: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"flavor\":{},\"networked\":{},\"read_intensive\":{},\
                 \"large_footprint\":{},\"base_tps\":{},\"proxy_tps\":{},\
                 \"overhead_pct\":{}}}",
                escape(c.flavor.name()),
                c.networked,
                c.read_intensive,
                c.large_footprint,
                number(c.base_tps),
                number(c.proxy_tps),
                number(c.overhead_pct()),
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn scaling_json(cells: &[ThreadCell]) -> String {
    let anchor = cells.first().map_or(0.0, |c| c.base_tps);
    let items: Vec<String> = cells
        .iter()
        .map(|c| {
            let scaling = if anchor > 0.0 {
                c.base_tps / anchor
            } else {
                0.0
            };
            format!(
                "{{\"threads\":{},\"base_tps\":{},\"proxy_tps\":{},\
                 \"overhead_pct\":{},\"base_scaling\":{}}}",
                c.threads,
                number(c.base_tps),
                number(c.proxy_tps),
                number(c.overhead_pct()),
                number(scaling),
            )
        })
        .collect();
    format!("{{\"scaling\":[{}]}}", items.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let rewrite_cache = !args.iter().any(|a| a == "--no-rewrite-cache");
    let threads = json::threads_arg(&args);
    let json_default = if threads.is_some() {
        json::DEFAULT_THREADS_JSON_PATH
    } else {
        json::DEFAULT_JSON_PATH
    };
    let json_out = json::flag_path(&args, "--json-out", json_default);
    let trace_out = json::trace_out_path(&args);
    let probe = (json_out.is_some() || trace_out.is_some()).then(Probe::new);
    if trace_out.is_some() {
        if let Some(probe) = &probe {
            probe.enable_tracing();
        }
    }

    if let Some(n) = threads {
        // Threaded wall-clock mode (--wall-clock is implied).
        let cells = threads::run(&thread_counts(n), scale, probe.as_ref());
        print!("{}", threads::render(&cells));
        if let (Some(path), Some(probe)) = (&json_out, &probe) {
            json::write_report(
                path,
                "fig4-threads",
                &scaling_json(&cells),
                &probe.snapshot(),
                &probe.run_meta(),
            )
            .expect("write json report");
            println!("\nJSON report written to {path}");
        }
    } else {
        if !rewrite_cache {
            println!("(proxy statement-template rewrite cache DISABLED)");
        }
        let cells = run_probed(scale, rewrite_cache, probe.as_ref());
        print!("{}", render(&cells));
        if let (Some(path), Some(probe)) = (&json_out, &probe) {
            json::write_report(
                path,
                "fig4",
                &cells_json(&cells),
                &probe.snapshot(),
                &probe.run_meta(),
            )
            .expect("write json report");
            println!("\nJSON report written to {path}");
        }
    }
    if let (Some(path), Some(probe)) = (&trace_out, &probe) {
        json::write_trace(path, &probe.telemetry().flight().snapshot())
            .expect("write trace capture");
        println!("trace capture written to {path}");
    }
}

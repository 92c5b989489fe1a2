//! Regenerates paper Figure 5: rolled-back transaction counts and saved
//! percentages vs T_detect for W in {2, 5}, tracking all dependencies vs
//! discarding false (ytd-mediated) dependencies. `--quick` reduces the
//! T_detect grid; `--json-out [PATH]` additionally emits a
//! machine-readable report (default `BENCH_pr4.json`).

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use resildb_bench::fig5::Point;
use resildb_bench::json::{self, Probe};
use resildb_core::telemetry::json::number;

fn points_json(points: &[Point]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"w\":{},\"t_detect\":{},\"rolled_back_all\":{},\
                 \"saved_pct_all\":{},\"rolled_back_filtered\":{},\
                 \"saved_pct_filtered\":{}}}",
                p.w,
                p.t_detect,
                p.rolled_back_all,
                number(p.saved_pct_all),
                p.rolled_back_filtered,
                number(p.saved_pct_filtered),
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let t_detects: Vec<usize> = if quick {
        vec![20, 60]
    } else {
        vec![50, 100, 200, 300, 400, 500, 600, 700]
    };
    let json_out = json::json_out_path(&args);
    let probe = json_out.as_ref().map(|_| Probe::new());
    let points = resildb_bench::fig5::run_probed(&[2, 5], &t_detects, probe.as_ref());
    print!("{}", resildb_bench::fig5::render(&points));
    if let (Some(path), Some(probe)) = (json_out, probe) {
        json::write_report(
            &path,
            "fig5",
            &points_json(&points),
            &probe.snapshot(),
            &probe.run_meta(),
        )
        .expect("write json report");
        println!("\nJSON report written to {path}");
    }
}

//! `resildb-top` — a live terminal view of the observability endpoint.
//!
//! Polls a running `mttr --live --serve` (or any embedder of
//! `MetricsServer`) and renders commit/reject rates, fence state, and
//! the repair progress bar:
//!
//! ```text
//! resildb-top — http://127.0.0.1:9188  (ready: NO)
//!   commits/s: 1234.5   fence rejects/s: 12.0
//!   fence: 17 entries   phase: sweep   extension rounds: 0
//!   repair [#########################........] 23/31 txns
//!   incidents: 1 (latest wall 48.2 ms)
//! ```
//!
//! Flags: `--addr HOST:PORT` (default `127.0.0.1:9188`), `--interval-ms
//! N` (default 1000), `--once` (print a single frame and exit — what CI
//! uses), `--frames N` (exit after N frames).

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use resildb_core::telemetry::json;

/// One HTTP GET against the endpoint: returns (status-code, body).
fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read {path}: {e}"))?;
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response from {path}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Value of a plain `name value` sample line in Prometheus text format.
fn metric(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Incident count and the latest incident's `wall_ns` from the
/// `/incidents` JSON document; `None` when the body does not parse.
fn incident_summary(body: &str) -> Option<(usize, Option<u64>)> {
    let doc = json::parse(body).ok()?;
    let incidents = doc.get("incidents")?.as_array()?;
    let wall = incidents
        .last()
        .and_then(|i| i.get("decomposition")?.get("wall_ns")?.as_u64());
    Some((incidents.len(), wall))
}

const PHASES: [&str; 7] = [
    "idle", "analyze", "plan", "drain", "sweep", "extend", "done",
];

fn phase_name(gauge: Option<f64>) -> &'static str {
    let idx = gauge.unwrap_or(0.0) as usize;
    PHASES.get(idx).copied().unwrap_or("?")
}

fn progress_bar(compensated: f64, total: f64, width: usize) -> String {
    let frac = if total > 0.0 {
        (compensated / total).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let filled = (frac * width as f64).round() as usize;
    format!(
        "[{}{}] {}/{} txns",
        "#".repeat(filled),
        ".".repeat(width - filled),
        compensated as u64,
        total as u64
    )
}

/// Per-second rate between two counter samples `dt` apart.
fn rate(prev: Option<f64>, now: Option<f64>, dt: Duration) -> Option<f64> {
    match (prev, now) {
        (Some(p), Some(n)) if dt > Duration::ZERO => Some((n - p).max(0.0) / dt.as_secs_f64()),
        _ => None,
    }
}

fn fmt_rate(r: Option<f64>) -> String {
    r.map_or_else(|| "--".to_string(), |r| format!("{r:.1}"))
}

struct Frame {
    ready: bool,
    metrics: String,
    incidents: String,
}

fn scrape(addr: &str) -> Result<Frame, String> {
    let (ready_status, _) = http_get(addr, "/ready")?;
    let (status, metrics) = http_get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics returned {status}"));
    }
    let (status, incidents) = http_get(addr, "/incidents")?;
    if status != 200 {
        return Err(format!("/incidents returned {status}"));
    }
    Ok(Frame {
        ready: ready_status == 200,
        metrics,
        incidents,
    })
}

fn render(addr: &str, frame: &Frame, prev: Option<&(Frame, Instant)>, now: Instant) -> String {
    let m = &frame.metrics;
    let dt = prev.map_or(Duration::ZERO, |(_, t)| now.duration_since(*t));
    let prev_m = prev.map(|(f, _)| f.metrics.as_str());
    let commits = rate(
        prev_m.and_then(|p| metric(p, "resildb_engine_commit_count_total")),
        metric(m, "resildb_engine_commit_count_total"),
        dt,
    );
    let rejects = rate(
        prev_m.and_then(|p| metric(p, "resildb_proxy_fence_rejected_total")),
        metric(m, "resildb_proxy_fence_rejected_total"),
        dt,
    );
    let fence_size = metric(m, "resildb_repair_live_fence_size").unwrap_or(0.0);
    let phase = phase_name(metric(m, "resildb_repair_progress_phase"));
    let rounds = metric(m, "resildb_repair_progress_extension_rounds").unwrap_or(0.0);
    let bar = progress_bar(
        metric(m, "resildb_repair_progress_compensated").unwrap_or(0.0),
        metric(m, "resildb_repair_progress_total").unwrap_or(0.0),
        32,
    );
    let incidents = incident_summary(&frame.incidents).map_or_else(
        || "? (malformed /incidents body)".to_string(),
        |(count, wall)| match wall {
            Some(ns) => format!("{count} (latest wall {:.1} ms)", ns as f64 / 1e6),
            None => count.to_string(),
        },
    );
    format!(
        "resildb-top — http://{addr}/  (ready: {})\n\
         \x20 commits/s: {}   fence rejects/s: {}\n\
         \x20 fence: {} entries   phase: {}   extension rounds: {}\n\
         \x20 repair {}\n\
         \x20 incidents: {}\n",
        if frame.ready { "yes" } else { "NO" },
        fmt_rate(commits),
        fmt_rate(rejects),
        fence_size as u64,
        phase,
        rounds as u64,
        bar,
        incidents,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let addr = value_of("--addr").unwrap_or_else(|| "127.0.0.1:9188".to_string());
    let interval = Duration::from_millis(
        value_of("--interval-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1000),
    );
    let once = args.iter().any(|a| a == "--once");
    let frames: Option<u64> = value_of("--frames").and_then(|v| v.parse().ok());

    let mut prev: Option<(Frame, Instant)> = None;
    let mut rendered = 0u64;
    loop {
        let now = Instant::now();
        match scrape(&addr) {
            Ok(frame) => {
                if !once {
                    print!("\x1b[2J\x1b[H"); // clear screen, home cursor
                }
                print!("{}", render(&addr, &frame, prev.as_ref(), now));
                std::io::stdout().flush().ok();
                prev = Some((frame, now));
            }
            Err(e) => {
                eprintln!("resildb-top: {e}");
                if once {
                    std::process::exit(1);
                }
            }
        }
        rendered += 1;
        if once || frames.is_some_and(|n| rendered >= n) {
            return;
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: &str = "\
# TYPE resildb_engine_commit_count_total counter\n\
resildb_engine_commit_count_total 120\n\
resildb_proxy_fence_rejected_total 4\n\
resildb_repair_live_fence_size 17\n\
resildb_repair_progress_phase 4\n\
resildb_repair_progress_compensated 23\n\
resildb_repair_progress_total 31\n";

    #[test]
    fn parses_prometheus_sample_lines() {
        assert_eq!(
            metric(METRICS, "resildb_engine_commit_count_total"),
            Some(120.0)
        );
        assert_eq!(
            metric(METRICS, "resildb_repair_live_fence_size"),
            Some(17.0)
        );
        assert_eq!(metric(METRICS, "resildb_missing"), None);
        // A name that is a prefix of another must not match its lines.
        assert_eq!(metric(METRICS, "resildb_repair_progress"), None);
    }

    #[test]
    fn renders_phase_bar_and_incident_summary() {
        assert_eq!(phase_name(Some(4.0)), "sweep");
        assert_eq!(phase_name(Some(99.0)), "?");
        let bar = progress_bar(23.0, 31.0, 32);
        assert!(bar.contains("23/31 txns"), "{bar}");
        assert!(bar.starts_with("[####"), "{bar}");
        let json = "{\"incidents\":[{\"id\":1,\"open\":false,\"marks\":[],\
             \"decomposition\":{\"mttd_ns\":1,\"mttc_ns\":2,\"mttr_ns\":3,\"wall_ns\":6}}]}";
        assert_eq!(incident_summary(json), Some((1, Some(6))));
        assert_eq!(incident_summary("{\"incidents\":[]}"), Some((0, None)));
        assert_eq!(incident_summary("{\"incidents\":[{\"id\":"), None);
    }

    #[test]
    fn rates_need_two_samples_and_positive_dt() {
        let dt = Duration::from_secs(2);
        assert_eq!(rate(Some(100.0), Some(150.0), dt), Some(25.0));
        assert_eq!(rate(None, Some(150.0), dt), None);
        assert_eq!(rate(Some(100.0), Some(150.0), Duration::ZERO), None);
        // Counter reset (restart) clamps to zero instead of going negative.
        assert_eq!(rate(Some(150.0), Some(100.0), dt), Some(0.0));
    }
}

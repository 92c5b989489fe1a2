//! Machine-readable benchmark output (`--json-out`).
//!
//! Every figure binary can emit one JSON document combining its figure
//! results with a telemetry snapshot of an instrumented run — per-stage
//! latency histograms (p50/p95/p99) for the proxy rewrite, engine
//! execute/WAL/commit and repair phases, plus the layer counters. The CI
//! `bench-smoke` job runs `fig4 --quick --json-out` and fails when the
//! required metric keys are missing from the artifact.

use std::cell::RefCell;
use std::time::{SystemTime, UNIX_EPOCH};

use resildb_core::telemetry::{export, json, trace};
use resildb_core::{Connection, MetricsSnapshot, Telemetry};

/// Default output path of `--json-out` when no explicit path follows.
pub const DEFAULT_JSON_PATH: &str = "BENCH_pr4.json";

/// Default `--json-out` path in threaded mode (`fig4 --threads N`), whose
/// document carries the wall-clock scaling curve instead of the cells.
pub const DEFAULT_THREADS_JSON_PATH: &str = "BENCH_pr6.json";

/// Parses `--threads N` from a binary's argument list. Returns `None`
/// when the flag is absent; panics on a missing or malformed count (a
/// usage error worth failing loudly on in a harness binary).
pub fn threads_arg(args: &[String]) -> Option<usize> {
    let at = args.iter().position(|a| a == "--threads")?;
    let n = args
        .get(at + 1)
        .and_then(|v| v.parse::<usize>().ok())
        .expect("--threads requires a positive integer");
    assert!(n >= 1, "--threads requires a positive integer");
    Some(n)
}

/// Default output path of `--trace-out` when no explicit path follows
/// (Chrome Trace Event Format — loadable in Perfetto).
pub const DEFAULT_TRACE_PATH: &str = "BENCH_trace.json";

/// Parses `flag [PATH]` from a binary's argument list: `None` when the
/// flag is absent, `default` when it is last or followed by another flag.
pub fn flag_path(args: &[String], flag: &str, default: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    Some(match args.get(at + 1) {
        Some(next) if !next.starts_with("--") => next.clone(),
        _ => default.to_string(),
    })
}

/// Parses `--json-out [PATH]` from a binary's argument list. Returns
/// `None` when the flag is absent; the default path when the flag is last
/// or followed by another flag.
pub fn json_out_path(args: &[String]) -> Option<String> {
    flag_path(args, "--json-out", DEFAULT_JSON_PATH)
}

/// Parses `--trace-out [PATH]` (same conventions as [`json_out_path`]).
/// A `.jsonl` path selects JSONL output; anything else gets Chrome Trace
/// Event Format.
pub fn trace_out_path(args: &[String]) -> Option<String> {
    flag_path(args, "--trace-out", DEFAULT_TRACE_PATH)
}

/// Provenance stamped into every `--json-out` report: which commit and
/// proxy configuration produced the numbers, and when.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// `git rev-parse HEAD` of the working tree, or `"unknown"`.
    pub git_sha: String,
    /// UTC wall-clock time of the run, ISO-8601 (`YYYY-MM-DDThh:mm:ssZ`).
    pub timestamp_utc: String,
    /// Active proxy configuration summary (from `ProxyConfig::summary`),
    /// when the benchmark ran through the proxy.
    pub proxy_config: Option<String>,
}

impl RunMeta {
    /// Collects the current provenance. `proxy_config` is the active
    /// configuration summary, if the bench exercised the proxy.
    pub fn collect(proxy_config: Option<String>) -> Self {
        Self {
            git_sha: git_head_sha(),
            timestamp_utc: utc_timestamp(),
            proxy_config,
        }
    }

    /// Renders the meta block as a JSON object.
    pub fn to_json(&self) -> String {
        let proxy = match &self.proxy_config {
            Some(s) => json::escape(s),
            None => "null".to_string(),
        };
        format!(
            "{{\"git_sha\":{},\"timestamp_utc\":{},\"proxy_config\":{proxy}}}",
            json::escape(&self.git_sha),
            json::escape(&self.timestamp_utc),
        )
    }
}

fn git_head_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats the current time as ISO-8601 UTC without any date/time crate,
/// using the standard days-from-civil inversion.
fn utc_timestamp() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // Civil-from-days (Howard Hinnant's algorithm), valid for the Unix era.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// A telemetry probe shared by the instrumented cells of one figure run:
/// one recording domain threaded through every simulation context and
/// proxy configuration, plus the last captured per-connection metrics
/// fold (which adds the proxy rewrite-cache/enforcement counters and the
/// simulation substrate counters to the registry's spans).
#[derive(Debug)]
pub struct Probe {
    telemetry: Telemetry,
    captured: RefCell<Option<MetricsSnapshot>>,
    proxy_config: RefCell<Option<String>>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A probe with a fresh recording telemetry domain.
    pub fn new() -> Self {
        Self {
            telemetry: Telemetry::recording(),
            captured: RefCell::new(None),
            proxy_config: RefCell::new(None),
        }
    }

    /// Turns on the telemetry domain's flight recorder, so the run also
    /// captures a trace-event window (for `--trace-out`).
    pub fn enable_tracing(&self) {
        self.telemetry.flight().set_enabled(true);
    }

    /// Records the active proxy configuration summary (for the report's
    /// meta block). Later calls win; figures run one configuration.
    pub fn note_proxy_config(&self, summary: String) {
        *self.proxy_config.borrow_mut() = Some(summary);
    }

    /// Provenance for [`write_report`], including any noted proxy config.
    pub fn run_meta(&self) -> RunMeta {
        RunMeta::collect(self.proxy_config.borrow().clone())
    }

    /// The shared telemetry domain, for `SimContext::with_telemetry` and
    /// `ProxyConfigBuilder::telemetry`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Captures the full metrics fold of `conn` (registry spans + the
    /// connection's layer counters), replacing any earlier capture. Call
    /// it at the end of a measured cell; the span histograms are
    /// cumulative across cells because the domain is shared.
    pub fn capture(&self, conn: &dyn Connection) {
        *self.captured.borrow_mut() = Some(conn.metrics());
    }

    /// Captures an already-assembled snapshot (the threaded runner merges
    /// its per-worker snapshots with the database fold before handing the
    /// result over). Replaces any earlier capture, like [`Probe::capture`].
    pub fn capture_snapshot(&self, snapshot: MetricsSnapshot) {
        *self.captured.borrow_mut() = Some(snapshot);
    }

    /// The final snapshot: the last capture if any, else the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.captured
            .borrow()
            .clone()
            .unwrap_or_else(|| self.telemetry.snapshot())
    }
}

/// Writes the combined document: `results` must already be a JSON value
/// (array or object) rendered by the caller.
///
/// # Errors
///
/// File I/O failures.
pub fn write_report(
    path: &str,
    bench: &str,
    results: &str,
    snapshot: &MetricsSnapshot,
    meta: &RunMeta,
) -> std::io::Result<()> {
    let doc = format!(
        "{{\"bench\":{},\"meta\":{},\"results\":{results},\"metrics\":{}}}\n",
        json::escape(bench),
        meta.to_json(),
        export::to_json(snapshot)
    );
    std::fs::write(path, doc)
}

/// Writes a flight-recorder capture: JSONL when `path` ends in `.jsonl`,
/// Chrome Trace Event Format (Perfetto-loadable) otherwise.
///
/// # Errors
///
/// File I/O failures.
pub fn write_trace(path: &str, snapshot: &trace::TraceSnapshot) -> std::io::Result<()> {
    let doc = if path.ends_with(".jsonl") {
        trace::to_jsonl(snapshot)
    } else {
        trace::to_chrome_trace(snapshot)
    };
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn threads_arg_parsing() {
        assert_eq!(threads_arg(&args(&["fig4"])), None);
        assert_eq!(threads_arg(&args(&["fig4", "--threads", "4"])), Some(4));
        assert_eq!(
            threads_arg(&args(&["fig4", "--threads", "8", "--quick"])),
            Some(8)
        );
    }

    #[test]
    fn json_out_parsing() {
        assert_eq!(json_out_path(&args(&["fig4"])), None);
        assert_eq!(
            json_out_path(&args(&["fig4", "--json-out"])),
            Some(DEFAULT_JSON_PATH.to_string())
        );
        assert_eq!(
            json_out_path(&args(&["fig4", "--json-out", "out.json", "--quick"])),
            Some("out.json".to_string())
        );
        assert_eq!(
            json_out_path(&args(&["fig4", "--json-out", "--quick"])),
            Some(DEFAULT_JSON_PATH.to_string())
        );
    }

    #[test]
    fn probe_falls_back_to_registry_snapshot() {
        let probe = Probe::new();
        probe.telemetry().count("x", 3);
        assert_eq!(probe.snapshot().counter("x"), 3);
    }

    #[test]
    fn json_helpers_escape_and_format() {
        let meta = RunMeta::collect(Some("a\"b\\".into()));
        let parsed = json::parse(&meta.to_json()).unwrap();
        assert_eq!(parsed.get("proxy_config").unwrap().as_str(), Some("a\"b\\"));
        assert_eq!(json::number(f64::NAN), "0");
        assert_eq!(json::escape("é\n"), "\"é\\n\"");
    }

    #[test]
    fn trace_out_parsing() {
        assert_eq!(trace_out_path(&args(&["fig4"])), None);
        assert_eq!(
            trace_out_path(&args(&["fig4", "--trace-out"])),
            Some(DEFAULT_TRACE_PATH.to_string())
        );
        assert_eq!(
            trace_out_path(&args(&["fig4", "--trace-out", "t.jsonl", "--quick"])),
            Some("t.jsonl".to_string())
        );
    }

    #[test]
    fn run_meta_renders_valid_fields() {
        let meta = RunMeta::collect(Some("flavor=postgres".into()));
        let json = meta.to_json();
        assert!(json.contains("\"git_sha\":\""));
        assert!(json.contains("\"proxy_config\":\"flavor=postgres\""));
        // ISO-8601: YYYY-MM-DDThh:mm:ssZ.
        let ts = &meta.timestamp_utc;
        assert_eq!(ts.len(), 20, "timestamp {ts}");
        assert_eq!(&ts[4..5], "-");
        assert_eq!(&ts[10..11], "T");
        assert!(ts.ends_with('Z'));
        assert!(ts.starts_with("20"), "unix-era year: {ts}");
        let no_proxy = RunMeta::collect(None).to_json();
        assert!(no_proxy.contains("\"proxy_config\":null"));
    }

    #[test]
    fn probe_notes_proxy_config_into_meta() {
        let probe = Probe::new();
        assert_eq!(probe.run_meta().proxy_config, None);
        probe.note_proxy_config("granularity=row".into());
        assert_eq!(
            probe.run_meta().proxy_config.as_deref(),
            Some("granularity=row")
        );
    }

    #[test]
    fn probe_tracing_starts_disabled_until_enabled() {
        let probe = Probe::new();
        assert!(!probe.telemetry().flight().is_enabled());
        probe.enable_tracing();
        assert!(probe.telemetry().flight().is_enabled());
    }
}

//! Text and JSON exporters for [`MetricsSnapshot`].
//!
//! Both exporters emit the same names and values in the same (sorted)
//! order, so a text report and a JSON report of one snapshot are
//! line-for-line comparable; a unit test below enforces the parity.

use crate::json;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// Render a snapshot as a stable, line-oriented text report.
///
/// Format (names sorted within each section):
/// ```text
/// counter <name> <value>
/// gauge <name> <value>
/// histogram <name> count=<n> p50_ns=<n> p95_ns=<n> p99_ns=<n> max_ns=<n> sum_ns=<n>
/// ```
pub fn to_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        out.push_str(&format!("counter {name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        out.push_str(&format!("gauge {name} {}\n", json::number(*v)));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!(
            "histogram {name} count={} p50_ns={} p95_ns={} p99_ns={} max_ns={} sum_ns={}\n",
            h.count, h.p50_ns, h.p95_ns, h.p99_ns, h.max_ns, h.sum_ns
        ));
    }
    out
}

/// Render a snapshot as a JSON object with `counters`, `gauges` and
/// `histograms` maps — the same names and values as [`to_text`].
pub fn to_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{");
    out.push_str("\"counters\":{");
    push_entries(
        &mut out,
        snap.counters.iter().map(|(k, v)| (k, v.to_string())),
    );
    out.push_str("},\"gauges\":{");
    push_entries(
        &mut out,
        snap.gauges.iter().map(|(k, v)| (k, json::number(*v))),
    );
    out.push_str("},\"histograms\":{");
    push_entries(
        &mut out,
        snap.histograms.iter().map(|(k, h)| (k, histogram_json(h))),
    );
    out.push_str("}}");
    out
}

fn push_entries<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    let mut first = true;
    for (name, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&json::escape(name));
        out.push(':');
        out.push_str(&value);
    }
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"sum_ns\":{}}}",
        h.count, h.p50_ns, h.p95_ns, h.p99_ns, h.max_ns, h.sum_ns
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("proxy.rewrite_cache.hits", 42);
        snap.set_counter("engine.commit.count", 7);
        snap.set_gauge("sim.pool.hit_ratio", 0.96875);
        snap.set_histogram(
            "engine.execute",
            HistogramSnapshot {
                count: 10,
                sum_ns: 12_345,
                max_ns: 4_000,
                p50_ns: 1_023,
                p95_ns: 4_000,
                p99_ns: 4_000,
                ..Default::default()
            },
        );
        snap
    }

    #[test]
    fn text_is_sorted_and_stable() {
        let text = to_text(&sample_snapshot());
        let expected = "counter engine.commit.count 7\n\
                        counter proxy.rewrite_cache.hits 42\n\
                        gauge sim.pool.hit_ratio 0.96875\n\
                        histogram engine.execute count=10 p50_ns=1023 p95_ns=4000 p99_ns=4000 max_ns=4000 sum_ns=12345\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_parses_shape() {
        let json = to_json(&sample_snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\":{"));
        assert!(json.contains("\"engine.commit.count\":7"));
        assert!(json.contains("\"sim.pool.hit_ratio\":0.96875"));
        assert!(json.contains("\"p95_ns\":4000"));
    }

    /// Text and JSON exporters must serialize the *same* names and
    /// values in the same order — the acceptance criterion's
    /// "serialized identically" check.
    #[test]
    fn text_and_json_export_identical_data() {
        let snap = sample_snapshot();
        let text = to_text(&snap);
        let json = to_json(&snap);
        // Every counter/gauge line in the text report has a matching
        // key/value pair in the JSON report, and vice versa (counts
        // match, so a bijection).
        let mut text_pairs = Vec::new();
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let kind = parts.next().unwrap();
            let name = parts.next().unwrap();
            match kind {
                "counter" | "gauge" => {
                    text_pairs.push((name.to_string(), parts.next().unwrap().to_string()));
                }
                "histogram" => {
                    for kv in parts {
                        let (k, v) = kv.split_once('=').unwrap();
                        text_pairs.push((format!("{name}.{k}"), v.to_string()));
                    }
                }
                other => panic!("unexpected line kind {other}"),
            }
        }
        for (name, value) in &text_pairs {
            // histogram fields appear as "name":{..."field":value...}
            let direct = format!("{}:{}", json::escape(name), value);
            let nested = name
                .rsplit_once('.')
                .map(|(_, field)| format!("\"{field}\":{value}"));
            assert!(
                json.contains(&direct) || nested.map(|n| json.contains(&n)).unwrap_or(false),
                "text pair {name}={value} missing from JSON: {json}"
            );
        }
        assert_eq!(
            text_pairs.len(),
            2 /* counters */ + 1 /* gauge */ + 6, /* histogram fields */
        );
    }

    /// Exports are deterministic: two snapshots of the same registry
    /// state serialize byte-identically (keys in sorted order, stable
    /// number formatting), so bench artifacts diff cleanly across runs.
    #[test]
    fn repeated_exports_are_byte_identical() {
        let registry = crate::MetricsRegistry::default();
        registry.counter("proxy.rewrite_cache.hits").add(42);
        registry.counter("engine.commit.count").add(7);
        registry.gauge("sim.pool.hit_ratio").set(0.96875);
        for ns in [900, 1_023, 4_000] {
            registry.histogram("engine.execute").record(ns);
        }
        let (a, b) = (registry.snapshot(), registry.snapshot());
        assert_eq!(to_text(&a).into_bytes(), to_text(&b).into_bytes());
        assert_eq!(to_json(&a).into_bytes(), to_json(&b).into_bytes());
        // Keys appear in sorted order, independent of insertion order.
        let text = to_text(&a);
        let engine = text.find("counter engine.commit.count").unwrap();
        let proxy = text.find("counter proxy.rewrite_cache.hits").unwrap();
        assert!(engine < proxy);
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("a\"b\\c\n", 1);
        let json = to_json(&snap);
        assert!(json.contains("\"a\\\"b\\\\c\\n\":1"), "{json}");
        let parsed = crate::json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("a\"b\\c\n")),
            Some(&crate::json::Json::Num(1.0))
        );
    }

    #[test]
    fn nonfinite_gauges_serialize_as_zero() {
        let mut snap = MetricsSnapshot::default();
        snap.set_gauge("nan", f64::NAN);
        snap.set_gauge("inf", f64::INFINITY);
        snap.set_gauge("half", 1.5);
        assert_eq!(
            to_json(&snap),
            "{\"counters\":{},\"gauges\":{\"half\":1.5,\"inf\":0,\"nan\":0},\"histograms\":{}}"
        );
        assert_eq!(to_text(&snap), "gauge half 1.5\ngauge inf 0\ngauge nan 0\n");
    }
}

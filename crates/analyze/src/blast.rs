//! Blast-radius certification: per-profile worst-case damage closures,
//! their reports, and the CI baseline gate.
//!
//! This is the operator-facing product of the conflict graph: for every
//! transaction profile of a workload, the set of profiles a compromise
//! of it can transitively damage and the table/column surface that
//! damage can reach — computed *before* any intrusion, which is exactly
//! the fencing set ROADMAP's online-containment item needs. The report
//! is gated in CI against a checked-in JSON baseline: any growth of a
//! closure or its surface fails the build until a human reviews it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use resildb_sql::{parse_statement, ColumnSet};
use resildb_telemetry::json::{self, Json};

use crate::conflict::ConflictGraph;
use crate::profile::profiles_from_groups;
use crate::{infer_derivable_columns, SchemaSnapshot};

/// The blast radius of one profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileClosure {
    /// Profiles reachable with false-dependency rules applied (always
    /// includes the profile itself).
    pub profiles: BTreeSet<String>,
    /// `table.column` / `table.*` surface those profiles can write.
    pub surface: BTreeSet<String>,
    /// Closure size without rules, for the report's context line.
    pub unpruned: usize,
}

/// The full blast-radius analysis of one workload.
#[derive(Debug, Clone)]
pub struct BlastRadius {
    /// The conflict graph the closures were computed over.
    pub graph: ConflictGraph,
    /// Per-profile closure, name-ordered.
    pub closures: BTreeMap<String, ProfileClosure>,
}

impl BlastRadius {
    /// Computes the blast radius of a workload given its transaction
    /// groups (`name → statements`) and the full statement corpus
    /// (groups *plus* DDL and ambient statements) that schema
    /// reconstruction and derivable-column inference run over.
    pub fn compute<S: AsRef<str>>(groups: &[(String, Vec<S>)], corpus: &[String]) -> BlastRadius {
        let stmts: Vec<_> = corpus
            .iter()
            .filter_map(|sql| parse_statement(sql).ok())
            .collect();
        let schema = SchemaSnapshot::from_statements(&stmts);
        let derivable = infer_derivable_columns(&stmts, Some(&schema));
        let graph = ConflictGraph::build(profiles_from_groups(groups), &derivable);
        let mut closures = BTreeMap::new();
        for p in graph.profiles() {
            let seed = [p.name.as_str()];
            let with_rules = graph.closure(&seed, true);
            let unpruned = graph.closure(&seed, false).len();
            let surface = graph.damage_surface(&with_rules);
            closures.insert(
                p.name.clone(),
                ProfileClosure {
                    profiles: with_rules,
                    surface,
                    unpruned,
                },
            );
        }
        BlastRadius { graph, closures }
    }

    /// Human-readable report; `verbose` adds per-profile footprints and
    /// the edge list.
    pub fn render_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        let edge_count = self.graph.edges().count();
        let _ = writeln!(
            out,
            "blast radius: {} profiles, {} conflict edges ({} pruned by derivable-column rules)",
            self.graph.profiles().len(),
            edge_count,
            self.graph.pruned_edge_count(),
        );
        let derivable: Vec<String> = self
            .graph
            .derivable()
            .iter()
            .flat_map(|(t, cols)| cols.iter().map(move |c| format!("{t}.{c}")))
            .collect();
        let _ = writeln!(
            out,
            "derivable columns: {}",
            if derivable.is_empty() {
                "(none)".to_string()
            } else {
                derivable.join(", ")
            }
        );
        for (name, c) in &self.closures {
            let _ = writeln!(out, "\nprofile {name}");
            let others: Vec<&str> = c
                .profiles
                .iter()
                .filter(|p| *p != name)
                .map(String::as_str)
                .collect();
            let _ = writeln!(
                out,
                "  closure: {} profile(s){} [{} without rules]",
                c.profiles.len(),
                if others.is_empty() {
                    " (itself only)".to_string()
                } else {
                    format!(" — reaches {}", others.join(", "))
                },
                c.unpruned,
            );
            let _ = writeln!(
                out,
                "  damaged surface: {}",
                if c.surface.is_empty() {
                    "(nothing — read-only profile)".to_string()
                } else {
                    c.surface.iter().cloned().collect::<Vec<_>>().join(", ")
                }
            );
            if verbose {
                if let Some(p) = self.graph.profile(name) {
                    for (table, cols) in &p.reads {
                        let _ = writeln!(out, "    reads {table}: {}", render_colset_text(cols));
                    }
                    for (table, fp) in &p.writes {
                        let mut shapes = Vec::new();
                        if let Some(u) = &fp.updated {
                            shapes.push(format!("updates {}", render_colset_text(u)));
                        }
                        if fp.inserts {
                            shapes.push("inserts".into());
                        }
                        if fp.deletes {
                            shapes.push("deletes".into());
                        }
                        let _ = writeln!(out, "    writes {table}: {}", shapes.join(", "));
                    }
                }
            }
        }
        if verbose {
            let _ = writeln!(out, "\nedges (dependent <- dependee [tables]):");
            for e in self.graph.edges() {
                let _ = writeln!(
                    out,
                    "  {} <- {} [{}]{}",
                    e.dependent,
                    e.dependee,
                    e.tables().join(","),
                    if e.pruned { " (pruned)" } else { "" }
                );
            }
        }
        out
    }

    /// Machine-readable JSON report. Key-ordered and newline-terminated;
    /// `resildb-lint blast-radius --json > ci/blast-radius-baseline.json`
    /// is how the CI baseline is (re)generated.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"profiles\": [\n");
        let profiles = self.graph.profiles();
        for (i, p) in profiles.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"statements\": {}, \"parse_failures\": {}, \"reads\": {}, \"writes\": {}}}",
                json::escape(&p.name),
                p.statements,
                p.parse_failures,
                render_reads_json(&p.reads),
                render_writes_json(&p.writes),
            );
            out.push_str(if i + 1 < profiles.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"derivable\": {");
        let derivable: Vec<String> = self
            .graph
            .derivable()
            .iter()
            .map(|(t, cols)| format!("{}: {}", json::escape(t), render_str_set(cols)))
            .collect();
        out.push_str(&derivable.join(", "));
        out.push_str("},\n  \"edges\": [\n");
        let edges: Vec<String> = self
            .graph
            .edges()
            .map(|e| {
                format!(
                    "    {{\"dependent\": {}, \"dependee\": {}, \"tables\": [{}], \"pruned\": {}}}",
                    json::escape(&e.dependent),
                    json::escape(&e.dependee),
                    e.tables()
                        .iter()
                        .map(|t| json::escape(t))
                        .collect::<Vec<_>>()
                        .join(", "),
                    e.pruned,
                )
            })
            .collect();
        out.push_str(&edges.join(",\n"));
        out.push_str("\n  ],\n  \"closures\": {\n");
        let closures: Vec<String> = self
            .closures
            .iter()
            .map(|(name, c)| {
                format!(
                    "    {}: {{\"profiles\": {}, \"surface\": {}, \"unpruned\": {}}}",
                    json::escape(name),
                    render_str_set(&c.profiles),
                    render_str_set(&c.surface),
                    c.unpruned,
                )
            })
            .collect();
        out.push_str(&closures.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }

    /// Gates the computed closures against a baseline document (either a
    /// full `render_json` report or a bare `closures` object).
    ///
    /// Returns `Err` when the baseline does not parse — the caller must
    /// fail loudly, never skip the gate. On success, `errors` lists
    /// closure/surface *growth* (fails CI until reviewed) and `warnings`
    /// lists staleness (baseline entries that shrank or disappeared,
    /// a prompt to regenerate).
    pub fn check_baseline(&self, baseline: &str) -> Result<BaselineVerdict, String> {
        let doc = json::parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let closures = doc
            .get("closures")
            .unwrap_or(&doc)
            .as_object()
            .ok_or_else(|| "baseline: expected a `closures` object".to_string())?;

        let mut errors = Vec::new();
        let mut warnings = Vec::new();
        for (name, c) in &self.closures {
            let Some(entry) = closures.get(name) else {
                errors.push(format!(
                    "profile {name} is not in the baseline (new profile — review its closure)"
                ));
                continue;
            };
            for (field, computed) in [("profiles", &c.profiles), ("surface", &c.surface)] {
                let base = baseline_set(entry, field)
                    .ok_or_else(|| format!("baseline: {name}.{field} missing or malformed"))?;
                let grown: Vec<&String> = computed.iter().filter(|x| !base.contains(*x)).collect();
                if !grown.is_empty() {
                    errors.push(format!(
                        "profile {name}: {field} grew beyond baseline: {}",
                        grown
                            .iter()
                            .map(|s| s.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                let shrunk: Vec<String> = base
                    .iter()
                    .filter(|x| !computed.contains(*x))
                    .cloned()
                    .collect();
                if !shrunk.is_empty() {
                    warnings.push(format!(
                        "profile {name}: {field} shrank below baseline ({}) — regenerate the baseline",
                        shrunk.join(", ")
                    ));
                }
            }
        }
        for name in closures.keys() {
            if !self.closures.contains_key(name) {
                warnings.push(format!(
                    "baseline profile {name} no longer exists — regenerate the baseline"
                ));
            }
        }
        Ok(BaselineVerdict { errors, warnings })
    }
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineVerdict {
    /// Closure growth: must fail the gate.
    pub errors: Vec<String>,
    /// Staleness: reported, does not fail.
    pub warnings: Vec<String>,
}

impl BaselineVerdict {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

fn baseline_set(entry: &Json, field: &str) -> Option<BTreeSet<String>> {
    entry
        .get(field)?
        .as_array()?
        .iter()
        .map(|v| v.as_str().map(ToString::to_string))
        .collect()
}

fn render_colset_text(c: &ColumnSet) -> String {
    match c.columns() {
        Some(cols) => cols.iter().cloned().collect::<Vec<_>>().join(", "),
        None => "*".to_string(),
    }
}

fn render_colset_json(c: &ColumnSet) -> String {
    match c.columns() {
        Some(cols) => render_str_set(cols),
        None => "\"*\"".to_string(),
    }
}

fn render_str_set(set: &BTreeSet<String>) -> String {
    let items: Vec<String> = set.iter().map(|s| json::escape(s)).collect();
    format!("[{}]", items.join(", "))
}

fn render_reads_json(reads: &BTreeMap<String, ColumnSet>) -> String {
    let items: Vec<String> = reads
        .iter()
        .map(|(t, c)| format!("{}: {}", json::escape(t), render_colset_json(c)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn render_writes_json(writes: &BTreeMap<String, crate::profile::WriteFootprint>) -> String {
    let items: Vec<String> = writes
        .iter()
        .map(|(t, fp)| {
            format!(
                "{}: {{\"updated\": {}, \"inserts\": {}, \"deletes\": {}}}",
                json::escape(t),
                fp.updated
                    .as_ref()
                    .map_or("null".to_string(), render_colset_json),
                fp.inserts,
                fp.deletes,
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> (Vec<(String, Vec<String>)>, Vec<String>) {
        let groups = vec![
            (
                "Payment".to_string(),
                vec![
                    "UPDATE warehouse SET w_ytd = w_ytd + 5 WHERE w_id = 1".to_string(),
                    "UPDATE customer SET c_balance = c_balance - 5 WHERE c_id = 1".to_string(),
                ],
            ),
            (
                "NewOrder".to_string(),
                vec![
                    "SELECT c_balance FROM customer WHERE c_id = 1".to_string(),
                    "INSERT INTO orders (o_id) VALUES (1)".to_string(),
                ],
            ),
            (
                "Probe".to_string(),
                vec!["SELECT o_id FROM orders WHERE o_id = 1".to_string()],
            ),
        ];
        let mut corpus: Vec<String> = vec![
            "CREATE TABLE warehouse (w_id INT, w_ytd INT)".into(),
            "CREATE TABLE customer (c_id INT, c_balance INT)".into(),
            "CREATE TABLE orders (o_id INT)".into(),
        ];
        for (_, stmts) in &groups {
            corpus.extend(stmts.iter().cloned());
        }
        (groups, corpus)
    }

    fn compute() -> BlastRadius {
        let (groups, corpus) = workload();
        BlastRadius::compute(&groups, &corpus)
    }

    #[test]
    fn closures_follow_conflicts_transitively() {
        let b = compute();
        // Payment's c_balance write reaches NewOrder (read) which
        // inserts into orders, reaching Probe.
        let c = &b.closures["Payment"];
        assert!(c.profiles.contains("NewOrder") && c.profiles.contains("Probe"));
        assert!(c.surface.contains("customer.c_balance"));
        assert!(c.surface.contains("orders.*"));
        assert!(c.surface.contains("warehouse.w_ytd"));
        // w_ytd is derivable and unread → it carries no closure edge,
        // but Payment's own write keeps it on the surface.
        assert!(b.graph.derivable()["warehouse"].contains("w_ytd"));
        // Read-only profile: itself, empty surface.
        let probe = &b.closures["Probe"];
        assert_eq!(probe.profiles.len(), 1);
        assert!(probe.surface.is_empty());
    }

    #[test]
    fn json_report_parses_and_gates_itself() {
        let b = compute();
        let json = b.render_json();
        let doc = json::parse(&json).expect("report JSON must parse");
        assert!(doc.get("closures").is_some());
        let verdict = b.check_baseline(&json).unwrap();
        assert!(verdict.passed(), "{:?}", verdict.errors);
        assert!(verdict.warnings.is_empty(), "{:?}", verdict.warnings);
    }

    #[test]
    fn baseline_growth_fails_shrink_warns() {
        let b = compute();
        // Growth: baseline that misses Probe from Payment's closure.
        let baseline = r#"{"closures": {
            "Payment": {"profiles": ["NewOrder", "Payment"], "surface": ["customer.c_balance", "orders.*", "warehouse.w_ytd"]},
            "NewOrder": {"profiles": ["NewOrder", "Probe"], "surface": ["orders.*"]},
            "Probe": {"profiles": ["Probe", "Ghost"], "surface": []}
        }}"#;
        let verdict = b.check_baseline(baseline).unwrap();
        assert!(!verdict.passed());
        assert!(verdict.errors.iter().any(|e| e.contains("Payment")));
        // Shrink (Ghost) only warns.
        assert!(verdict.warnings.iter().any(|w| w.contains("Ghost")));
    }

    #[test]
    fn missing_profile_in_baseline_is_an_error() {
        let b = compute();
        let verdict = b.check_baseline(r#"{"closures": {}}"#).unwrap();
        assert!(!verdict.passed());
    }

    #[test]
    fn unparseable_baseline_is_a_loud_error() {
        let b = compute();
        assert!(b.check_baseline("not json").is_err());
        assert!(b.check_baseline("[1, 2]").is_err());
    }
}

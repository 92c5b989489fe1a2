//! The inter-transaction dependency graph, damage-closure computation,
//! false-dependency filtering and GraphViz export (paper §3.3, §5.3,
//! Figure 3).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use resildb_analyze::{DotBuilder, EdgeStyle, FILL_ATTACK, FILL_CLOSURE};

/// How a dependency edge arose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeKind {
    /// The dependent transaction's SELECT read a row last written by the
    /// depended-on transaction (harvested online by the proxy).
    Read {
        /// Columns of the mediating table the reader referenced.
        read_columns: Vec<String>,
    },
    /// The dependent transaction updated or deleted a row last written by
    /// the depended-on transaction (reconstructed from the log at repair
    /// time).
    Write,
}

/// Provenance of one dependency edge (an edge may have several).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeProvenance {
    /// Table that mediated the dependency.
    pub table: String,
    /// How the dependency arose.
    pub kind: EdgeKind,
}

/// A DBA rule declaring certain dependencies ignorable (paper §5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FalseDepRule {
    /// Ignore every dependency mediated by this table (e.g. a scratch
    /// table with no semantic significance).
    IgnoreTable(String),
    /// Ignore dependencies that exist only because of the named *derived*
    /// columns (e.g. TPC-C `warehouse.w_ytd`, recomputable from orders):
    /// an edge provenance is ignored when the writer changed nothing but
    /// these columns and the reader (when known) did not read any of them.
    IgnoreDerivedColumns {
        /// Mediating table.
        table: String,
        /// Derived column names.
        columns: Vec<String>,
    },
}

impl FalseDepRule {
    /// Builds [`FalseDepRule::IgnoreDerivedColumns`] rules from the static
    /// analyzer's derivable-column inference, one rule per table. This
    /// replaces hand-maintained DBA rule lists for the pure-accumulator
    /// pattern (TPC-C's `w_ytd` et al.): a column the workload only ever
    /// self-increments and never reads cannot carry information flow, so
    /// dependencies that exist only through it are false.
    pub fn from_derivable_columns(cols: &[resildb_analyze::DerivableColumn]) -> Vec<FalseDepRule> {
        let mut by_table: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for c in cols {
            let cols = by_table.entry(c.table.clone()).or_default();
            if !cols.iter().any(|x| x.eq_ignore_ascii_case(&c.column)) {
                cols.push(c.column.clone());
            }
        }
        by_table
            .into_iter()
            .map(|(table, columns)| FalseDepRule::IgnoreDerivedColumns { table, columns })
            .collect()
    }

    /// Whether this rule dismisses an edge provenance, given the columns
    /// the *writer* (the depended-on transaction) changed in that table.
    fn ignores(&self, prov: &EdgeProvenance, writer_changed: Option<&BTreeSet<String>>) -> bool {
        match self {
            FalseDepRule::IgnoreTable(t) => t.eq_ignore_ascii_case(&prov.table),
            FalseDepRule::IgnoreDerivedColumns { table, columns } => {
                if !table.eq_ignore_ascii_case(&prov.table) {
                    return false;
                }
                // Writer must have touched nothing beyond the derived
                // columns (the bookkeeping trid column never counts).
                let Some(changed) = writer_changed else {
                    return false; // inserted rows: a real dependency
                };
                let only_derived = changed
                    .iter()
                    .filter(|c| !resildb_proxy::is_tracking_column(c))
                    .all(|c| columns.iter().any(|d| d.eq_ignore_ascii_case(c)));
                if !only_derived {
                    return false;
                }
                // And the reader (if we know what it read) must not have
                // consumed the derived columns. Empty provenance means the
                // read columns are *unknown* (wildcard selects leave none),
                // not "read nothing": the reader may well have consumed the
                // derived column, so the edge must be kept.
                match &prov.kind {
                    EdgeKind::Read { read_columns } => {
                        !read_columns.is_empty()
                            && !read_columns
                                .iter()
                                .any(|c| columns.iter().any(|d| d.eq_ignore_ascii_case(c)))
                    }
                    EdgeKind::Write => true,
                }
            }
        }
    }
}

/// The dependency graph over proxy transaction ids.
///
/// Edges point from a transaction to the transactions it *depends on*.
/// Damage analysis walks the reverse direction: everything that
/// transitively depends on the attack set is corrupted.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// txn → set of txns it depends on.
    deps: BTreeMap<i64, BTreeSet<i64>>,
    /// txn → set of txns depending on it.
    rdeps: BTreeMap<i64, BTreeSet<i64>>,
    /// (dependent, dependee) → provenance list.
    edges: HashMap<(i64, i64), Vec<EdgeProvenance>>,
    /// txn → symbolic name (from the `annot` table).
    labels: BTreeMap<i64, String>,
    /// (writer txn, table) → columns it changed there (None entry absent
    /// means the writer inserted whole rows / unknown).
    writer_changed: HashMap<(i64, String), BTreeSet<String>>,
    /// (writer txn, table) → writer inserted whole rows there.
    writer_inserted: BTreeSet<(i64, String)>,
}

impl DepGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// All known transaction ids (nodes).
    pub fn transactions(&self) -> BTreeSet<i64> {
        let mut all: BTreeSet<i64> = self.labels.keys().copied().collect();
        all.extend(self.deps.keys());
        all.extend(self.rdeps.keys());
        all
    }

    /// Adds (or extends) an edge: `dependent` depends on `dependee`.
    pub fn add_edge(&mut self, dependent: i64, dependee: i64, prov: EdgeProvenance) {
        if dependent == dependee {
            return;
        }
        self.deps.entry(dependent).or_default().insert(dependee);
        self.rdeps.entry(dependee).or_default().insert(dependent);
        self.edges
            .entry((dependent, dependee))
            .or_default()
            .push(prov);
    }

    /// Names a transaction (for DOT rendering).
    pub fn set_label(&mut self, txn: i64, label: impl Into<String>) {
        self.labels.insert(txn, label.into());
    }

    /// The label of `txn`, defaulting to `txn_<id>`.
    pub fn label(&self, txn: i64) -> String {
        self.labels
            .get(&txn)
            .cloned()
            .unwrap_or_else(|| format!("txn_{txn}"))
    }

    /// Records which columns `writer` changed in `table` (union across its
    /// updates), used by [`FalseDepRule::IgnoreDerivedColumns`].
    pub fn note_writer_columns(
        &mut self,
        writer: i64,
        table: &str,
        columns: impl IntoIterator<Item = String>,
    ) {
        self.writer_changed
            .entry((writer, table.to_string()))
            .or_default()
            .extend(columns);
    }

    /// Records that `writer` inserted whole rows into `table` (dependencies
    /// on inserted rows are never derived-column artefacts).
    pub fn note_writer_insert(&mut self, writer: i64, table: &str) {
        self.writer_inserted.insert((writer, table.to_string()));
    }

    /// The direct dependencies of `txn`.
    pub fn dependencies_of(&self, txn: i64) -> BTreeSet<i64> {
        self.deps.get(&txn).cloned().unwrap_or_default()
    }

    /// Provenance list of an edge.
    pub fn edge(&self, dependent: i64, dependee: i64) -> &[EdgeProvenance] {
        self.edges
            .get(&(dependent, dependee))
            .map_or(&[], Vec::as_slice)
    }

    fn edge_survives(&self, dependent: i64, dependee: i64, rules: &[FalseDepRule]) -> bool {
        let provs = self.edge(dependent, dependee);
        if provs.is_empty() {
            return true; // no provenance info: keep (safe side)
        }
        provs.iter().any(|p| {
            let key = (dependee, p.table.clone());
            let changed = if self.writer_inserted.contains(&key) {
                None
            } else {
                self.writer_changed.get(&key)
            };
            !rules.iter().any(|r| r.ignores(p, changed))
        })
    }

    /// Computes the damage closure: `initial` plus every transaction that
    /// transitively depends on it, considering only edges that survive
    /// `rules`. This is the paper's undo set.
    pub fn closure(&self, initial: &[i64], rules: &[FalseDepRule]) -> BTreeSet<i64> {
        let mut out: BTreeSet<i64> = initial.iter().copied().collect();
        let mut frontier: Vec<i64> = initial.to_vec();
        while let Some(t) = frontier.pop() {
            for &dep in self.rdeps.get(&t).map_or(&BTreeSet::new(), |s| s).iter() {
                if !out.contains(&dep) && self.edge_survives(dep, t, rules) {
                    out.insert(dep);
                    frontier.push(dep);
                }
            }
        }
        out
    }

    /// Every edge `(dependent, dependee)` dismissed by `rules` — the edges
    /// a false-dependency pruning pass removes before closure computation.
    pub fn pruned_edges(&self, rules: &[FalseDepRule]) -> BTreeSet<(i64, i64)> {
        let mut out = BTreeSet::new();
        for (dependent, dependees) in &self.deps {
            for dependee in dependees {
                if !self.edge_survives(*dependent, *dependee, rules) {
                    out.insert((*dependent, *dependee));
                }
            }
        }
        out
    }

    /// Renders the graph in GraphViz DOT (paper Figure 3): nodes carry the
    /// `annot` labels, transactions in `highlight` are filled red.
    pub fn to_dot(&self, highlight: &BTreeSet<i64>) -> String {
        self.to_dot_styled(highlight, None, None)
    }

    /// Renders the graph in GraphViz DOT with forensic styling on top of
    /// [`DepGraph::to_dot`]: `highlight` (the attack set) is filled red;
    /// members of `closure` outside the attack set — transactions damaged
    /// only transitively — are filled orange; edges in `pruned` (as
    /// produced by [`DepGraph::pruned_edges`]) are drawn dashed and gray
    /// with a `pruned` label, so a DBA can see exactly which dependencies
    /// the false-dependency rules dismissed and which survivors carried
    /// the damage.
    pub fn to_dot_styled(
        &self,
        highlight: &BTreeSet<i64>,
        closure: Option<&BTreeSet<i64>>,
        pruned: Option<&BTreeSet<(i64, i64)>>,
    ) -> String {
        let mut dot = DotBuilder::new("trans_dep");
        for txn in self.transactions() {
            let fill = if highlight.contains(&txn) {
                Some(FILL_ATTACK)
            } else if closure.is_some_and(|c| c.contains(&txn)) {
                Some(FILL_CLOSURE)
            } else {
                None
            };
            dot.node(&format!("t{txn}"), &self.label(txn), fill);
        }
        let pruned_style = EdgeStyle::pruned();
        for (dependent, dependees) in &self.deps {
            for dependee in dependees {
                // Edges drawn from dependee to dependent: data flows from
                // the earlier transaction to the one depending on it.
                let style = pruned
                    .is_some_and(|p| p.contains(&(*dependent, *dependee)))
                    .then_some(&pruned_style);
                dot.edge(&format!("t{dependee}"), &format!("t{dependent}"), style);
            }
        }
        dot.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_edge(cols: &[&str]) -> EdgeProvenance {
        EdgeProvenance {
            table: "warehouse".into(),
            kind: EdgeKind::Read {
                read_columns: cols.iter().map(|s| s.to_string()).collect(),
            },
        }
    }

    fn write_edge(table: &str) -> EdgeProvenance {
        EdgeProvenance {
            table: table.into(),
            kind: EdgeKind::Write,
        }
    }

    #[test]
    fn closure_follows_transitive_dependents() {
        let mut g = DepGraph::new();
        g.add_edge(2, 1, write_edge("t"));
        g.add_edge(3, 2, write_edge("t"));
        g.add_edge(4, 3, write_edge("t"));
        g.add_edge(10, 9, write_edge("t")); // unrelated chain
        let c = g.closure(&[1], &[]);
        assert_eq!(c, [1, 2, 3, 4].into_iter().collect());
    }

    #[test]
    fn closure_of_disconnected_node_is_itself() {
        let mut g = DepGraph::new();
        g.add_edge(2, 1, write_edge("t"));
        let c = g.closure(&[99], &[]);
        assert_eq!(c, [99].into_iter().collect());
    }

    #[test]
    fn self_edges_are_dropped() {
        let mut g = DepGraph::new();
        g.add_edge(1, 1, write_edge("t"));
        assert!(g.dependencies_of(1).is_empty());
    }

    #[test]
    fn ignore_table_rule_cuts_edges() {
        let mut g = DepGraph::new();
        g.add_edge(2, 1, write_edge("scratch"));
        g.add_edge(3, 1, write_edge("real"));
        let rules = vec![FalseDepRule::IgnoreTable("scratch".into())];
        let c = g.closure(&[1], &rules);
        assert_eq!(c, [1, 3].into_iter().collect());
    }

    #[test]
    fn rules_from_derivable_columns_group_per_table() {
        let derivable = vec![
            resildb_analyze::DerivableColumn {
                table: "warehouse".into(),
                column: "w_ytd".into(),
            },
            resildb_analyze::DerivableColumn {
                table: "district".into(),
                column: "d_ytd".into(),
            },
            resildb_analyze::DerivableColumn {
                table: "warehouse".into(),
                column: "W_YTD".into(), // case-insensitive duplicate
            },
        ];
        let rules = FalseDepRule::from_derivable_columns(&derivable);
        assert_eq!(
            rules,
            vec![
                FalseDepRule::IgnoreDerivedColumns {
                    table: "district".into(),
                    columns: vec!["d_ytd".into()],
                },
                FalseDepRule::IgnoreDerivedColumns {
                    table: "warehouse".into(),
                    columns: vec!["w_ytd".into()],
                },
            ]
        );
    }

    #[test]
    fn derived_columns_rule_matches_paper_scenario() {
        // Payment (txn 1) only bumps warehouse.w_ytd. New-Order (txn 2)
        // reads warehouse.w_tax — a row-level false dependency. A report
        // (txn 3) genuinely reads w_ytd — a true dependency.
        let mut g = DepGraph::new();
        g.note_writer_columns(1, "warehouse", ["w_ytd".to_string(), "trid".to_string()]);
        g.add_edge(2, 1, read_edge(&["w_tax", "w_id"]));
        g.add_edge(3, 1, read_edge(&["w_ytd", "w_id"]));
        let rules = vec![FalseDepRule::IgnoreDerivedColumns {
            table: "warehouse".into(),
            columns: vec!["w_ytd".into()],
        }];
        assert_eq!(g.closure(&[1], &[]), [1, 2, 3].into_iter().collect());
        assert_eq!(g.closure(&[1], &rules), [1, 3].into_iter().collect());
    }

    #[test]
    fn derived_rule_keeps_edges_from_inserting_writers() {
        let mut g = DepGraph::new();
        g.note_writer_insert(1, "warehouse");
        g.add_edge(2, 1, read_edge(&["w_tax"]));
        let rules = vec![FalseDepRule::IgnoreDerivedColumns {
            table: "warehouse".into(),
            columns: vec!["w_ytd".into()],
        }];
        assert_eq!(g.closure(&[1], &rules), [1, 2].into_iter().collect());
    }

    #[test]
    fn derived_rule_keeps_write_write_chains_on_other_columns() {
        // Writer changed w_name too: not purely derived → edge stays.
        let mut g = DepGraph::new();
        g.note_writer_columns(1, "warehouse", ["w_ytd".to_string(), "w_name".to_string()]);
        g.add_edge(2, 1, write_edge("warehouse"));
        let rules = vec![FalseDepRule::IgnoreDerivedColumns {
            table: "warehouse".into(),
            columns: vec!["w_ytd".into()],
        }];
        assert_eq!(g.closure(&[1], &rules), [1, 2].into_iter().collect());
    }

    #[test]
    fn derived_rule_cuts_ytd_write_chains() {
        // Payment → Payment chains where both only bump w_ytd.
        let mut g = DepGraph::new();
        g.note_writer_columns(1, "warehouse", ["w_ytd".to_string(), "trid".to_string()]);
        g.add_edge(2, 1, write_edge("warehouse"));
        let rules = vec![FalseDepRule::IgnoreDerivedColumns {
            table: "warehouse".into(),
            columns: vec!["w_ytd".into()],
        }];
        assert_eq!(g.closure(&[1], &rules), [1].into_iter().collect());
    }

    #[test]
    fn unknown_read_columns_keep_the_edge() {
        // A wildcard select records no read columns; the reader may have
        // consumed w_ytd, so the derived-column rule must not discard it.
        let mut g = DepGraph::new();
        g.note_writer_columns(1, "warehouse", ["w_ytd".to_string(), "trid".to_string()]);
        g.add_edge(2, 1, read_edge(&[]));
        let rules = vec![FalseDepRule::IgnoreDerivedColumns {
            table: "warehouse".into(),
            columns: vec!["w_ytd".into()],
        }];
        assert_eq!(g.closure(&[1], &rules), [1, 2].into_iter().collect());
    }

    #[test]
    fn multi_provenance_edge_survives_if_any_provenance_does() {
        let mut g = DepGraph::new();
        g.note_writer_columns(1, "warehouse", ["w_ytd".to_string()]);
        g.note_writer_columns(1, "district", ["d_next_o_id".to_string()]);
        g.add_edge(2, 1, read_edge(&["w_tax"])); // ignorable
        g.add_edge(
            2,
            1,
            EdgeProvenance {
                table: "district".into(),
                kind: EdgeKind::Read {
                    read_columns: vec!["d_next_o_id".into()],
                },
            },
        ); // real
        let rules = vec![FalseDepRule::IgnoreDerivedColumns {
            table: "warehouse".into(),
            columns: vec!["w_ytd".into()],
        }];
        assert_eq!(g.closure(&[1], &rules), [1, 2].into_iter().collect());
    }

    #[test]
    fn dot_output_contains_labels_edges_and_highlights() {
        let mut g = DepGraph::new();
        g.add_edge(2, 1, write_edge("t"));
        g.set_label(1, "Order_0_3_0_4");
        g.set_label(2, "Payment_0_3_0_5");
        let dot = g.to_dot(&[1].into_iter().collect());
        assert!(dot.starts_with("digraph trans_dep {"));
        assert!(dot.contains("t1 [label=\"Order_0_3_0_4\", style=filled"));
        assert!(dot.contains("t2 [label=\"Payment_0_3_0_5\"]"));
        assert!(dot.contains("t1 -> t2;"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn pruned_edges_reports_rule_casualties() {
        let mut g = DepGraph::new();
        g.add_edge(2, 1, write_edge("scratch"));
        g.add_edge(3, 1, write_edge("real"));
        let rules = vec![FalseDepRule::IgnoreTable("scratch".into())];
        assert_eq!(g.pruned_edges(&rules), [(2, 1)].into_iter().collect());
        assert!(g.pruned_edges(&[]).is_empty());
    }

    #[test]
    fn styled_dot_marks_closure_members_and_pruned_edges() {
        let mut g = DepGraph::new();
        g.add_edge(2, 1, write_edge("real"));
        g.add_edge(3, 1, write_edge("scratch"));
        let rules = vec![FalseDepRule::IgnoreTable("scratch".into())];
        let attack: BTreeSet<i64> = [1].into_iter().collect();
        let closure = g.closure(&[1], &rules);
        let pruned = g.pruned_edges(&rules);
        let dot = g.to_dot_styled(&attack, Some(&closure), Some(&pruned));
        assert!(dot.contains("t1 [label=\"txn_1\", style=filled, fillcolor=indianred1]"));
        assert!(dot.contains("t2 [label=\"txn_2\", style=filled, fillcolor=orange]"));
        assert!(dot.contains("t3 [label=\"txn_3\"]"));
        assert!(dot.contains("t1 -> t2;"));
        assert!(dot.contains("t1 -> t3 [style=dashed, color=gray, label=\"pruned\"];"));
    }

    #[test]
    fn plain_dot_matches_styled_dot_without_extras() {
        let mut g = DepGraph::new();
        g.add_edge(2, 1, write_edge("t"));
        let hl: BTreeSet<i64> = [1].into_iter().collect();
        assert_eq!(g.to_dot(&hl), g.to_dot_styled(&hl, None, None));
    }

    #[test]
    fn closure_handles_cycles() {
        // Mutually dependent transactions (possible with read/write mixes).
        let mut g = DepGraph::new();
        g.add_edge(2, 1, write_edge("t"));
        g.add_edge(1, 2, write_edge("t"));
        let c = g.closure(&[1], &[]);
        assert_eq!(c, [1, 2].into_iter().collect());
    }
}

//! The repair plan: the DBA's decisions about what to undo.
//!
//! The paper's §6 plans an interactive tool that "allows a DBA to
//! interact with the transaction dependency graph ... and explore the
//! damage perimeter by conducting what-if analysis". A [`RepairPlan`] is
//! that what-if state: the initial attack set, the active
//! false-dependency rules (§5.3), and manual inclusions and exclusions.
//! The undo set is derived from those decisions. Every edit recomputes
//! it, and a live repair re-derives it from each fresh analysis behind
//! the fence.

use std::collections::BTreeSet;

use crate::controller::Analysis;
use crate::graph::FalseDepRule;

/// The DBA's repair decisions and the undo set they select.
///
/// Built by [`crate::RepairController::plan`] (seeded with the
/// controller's rules), by [`RepairPlan::new`], or empty via `default()`;
/// edited between planning and [`crate::RepairController::execute`].
/// Every edit takes the [`Analysis`] the plan is being explored against.
///
/// # Examples
///
/// ```
/// use resildb_core::{Flavor, RepairPlan, ResilientDb};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rdb = ResilientDb::new(Flavor::Postgres)?;
/// let mut conn = rdb.connect()?;
/// conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")?;
/// conn.execute("ANNOTATE attack")?;
/// conn.execute("BEGIN")?;
/// conn.execute("INSERT INTO t (id, v) VALUES (1, 666)")?;
/// conn.execute("COMMIT")?;
/// let attack = rdb.txn_id_by_label("attack")?.unwrap();
///
/// let analysis = rdb.analyze()?;
/// let mut plan = RepairPlan::default();
/// plan.add_initial(&analysis, attack);
/// assert!(plan.undo_set.contains(&attack));
/// rdb.repair_controller().execute(&analysis, &plan)?;
/// assert_eq!(rdb.database().row_count("t")?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairPlan {
    initial: BTreeSet<i64>,
    rules: Vec<FalseDepRule>,
    force_include: BTreeSet<i64>,
    force_exclude: BTreeSet<i64>,
    /// The proxy transactions to undo: the decisions applied to the
    /// analysis the plan was built or last edited against. It is derived;
    /// change it through the edit methods, never directly.
    pub undo_set: BTreeSet<i64>,
}

impl RepairPlan {
    /// A plan undoing the damage closure of `initial` under `rules`.
    pub fn new(analysis: &Analysis, initial: &[i64], rules: &[FalseDepRule]) -> Self {
        let mut plan = Self {
            initial: initial.iter().copied().collect(),
            rules: rules.to_vec(),
            ..Self::default()
        };
        plan.undo_set = plan.undo_set_for(analysis);
        plan
    }

    /// Adds a transaction to the initial attack set.
    pub fn add_initial(&mut self, analysis: &Analysis, txn: i64) -> &mut Self {
        self.initial.insert(txn);
        self.refresh(analysis)
    }

    /// Removes a transaction from the initial attack set.
    pub fn remove_initial(&mut self, analysis: &Analysis, txn: i64) -> &mut Self {
        self.initial.remove(&txn);
        self.refresh(analysis)
    }

    /// Activates a false-dependency rule.
    pub fn add_rule(&mut self, analysis: &Analysis, rule: FalseDepRule) -> &mut Self {
        if !self.rules.contains(&rule) {
            self.rules.push(rule);
        }
        self.refresh(analysis)
    }

    /// Deactivates every rule.
    pub fn clear_rules(&mut self, analysis: &Analysis) -> &mut Self {
        self.rules.clear();
        self.refresh(analysis)
    }

    /// Activates [`FalseDepRule::IgnoreDerivedColumns`] rules built from
    /// the static analyzer's derivable-column inference (one rule per
    /// table), the machine-checked replacement for hand-written DBA rules.
    pub fn add_inferred_rules(
        &mut self,
        analysis: &Analysis,
        derivable: &[resildb_analyze::DerivableColumn],
    ) -> &mut Self {
        for rule in FalseDepRule::from_derivable_columns(derivable) {
            if !self.rules.contains(&rule) {
                self.rules.push(rule);
            }
        }
        self.refresh(analysis)
    }

    /// Forces a transaction into the undo set regardless of dependency
    /// analysis — the DBA's remedy for the §3.1 false-*negative* cases
    /// (dependencies the tracker cannot see, like the service-fee
    /// example). Its dependents are undone too.
    pub fn force_include(&mut self, analysis: &Analysis, txn: i64) -> &mut Self {
        self.force_exclude.remove(&txn);
        self.force_include.insert(txn);
        self.refresh(analysis)
    }

    /// Forces a transaction (and only it — its dependents remain judged
    /// by the graph) out of the undo set: the remedy for false positives
    /// the rules cannot express.
    pub fn force_exclude(&mut self, analysis: &Analysis, txn: i64) -> &mut Self {
        self.force_include.remove(&txn);
        self.force_exclude.insert(txn);
        self.refresh(analysis)
    }

    /// Clears a manual decision for `txn`.
    pub fn clear_override(&mut self, analysis: &Analysis, txn: i64) -> &mut Self {
        self.force_include.remove(&txn);
        self.force_exclude.remove(&txn);
        self.refresh(analysis)
    }

    /// The initial attack set.
    pub fn initial(&self) -> &BTreeSet<i64> {
        &self.initial
    }

    /// The active rules.
    pub fn rules(&self) -> &[FalseDepRule] {
        &self.rules
    }

    /// The undo set these decisions select in `analysis`: the closure of
    /// the initial set and the forced inclusions under the rules, minus
    /// the forced exclusions.
    pub fn undo_set_for(&self, analysis: &Analysis) -> BTreeSet<i64> {
        let seeds: Vec<i64> = self.initial.union(&self.force_include).copied().collect();
        let mut set = analysis.undo_set(&seeds, &self.rules);
        set.retain(|t| !self.force_exclude.contains(t));
        set
    }

    /// The tracked transactions the plan keeps.
    pub fn saved_set(&self, analysis: &Analysis) -> BTreeSet<i64> {
        analysis
            .tracked_transactions()
            .into_iter()
            .filter(|t| !self.undo_set.contains(t))
            .collect()
    }

    /// Renders the graph with the undo set highlighted (paper Figure 3,
    /// driven interactively).
    pub fn to_dot(&self, analysis: &Analysis) -> String {
        analysis.to_dot(&self.undo_set)
    }

    /// A one-line summary for interactive display.
    pub fn summary(&self, analysis: &Analysis) -> String {
        format!(
            "undo {} of {} tracked txns ({} rules, {} manual includes, {} manual excludes)",
            self.undo_set.len(),
            analysis.tracked_transactions().len(),
            self.rules.len(),
            self.force_include.len(),
            self.force_exclude.len()
        )
    }

    fn refresh(&mut self, analysis: &Analysis) -> &mut Self {
        self.undo_set = self.undo_set_for(analysis);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resildb_engine::{Database, Flavor, Value};
    use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
    use resildb_wire::{Driver, LinkProfile, NativeDriver};

    /// Runs `setup`, then each labelled transaction, through a tracking
    /// proxy; returns the database and the transactions' proxy ids.
    fn history(setup: &[&str], txns: &[(&str, &[&str])]) -> (Database, Vec<i64>) {
        let db = Database::in_memory(Flavor::Postgres);
        let native = NativeDriver::new(db.clone(), LinkProfile::local());
        prepare_database(&mut *native.connect().unwrap()).unwrap();
        let config = ProxyConfig::builder(Flavor::Postgres)
            .record_read_only_deps(true)
            .build();
        let driver = TrackingProxy::single_proxy(db.clone(), LinkProfile::local(), config);
        let mut conn = driver.connect().unwrap();
        for sql in setup {
            conn.execute(sql).unwrap();
        }
        for (label, stmts) in txns {
            conn.execute(&format!("ANNOTATE {label}")).unwrap();
            conn.execute("BEGIN").unwrap();
            for sql in *stmts {
                conn.execute(sql).unwrap();
            }
            conn.execute("COMMIT").unwrap();
        }
        let mut s = db.session();
        let ids = txns
            .iter()
            .map(|(label, _)| {
                let sql = format!("SELECT tr_id FROM annot WHERE descr = '{label}'");
                match s.query(&sql).unwrap().rows[0][0] {
                    Value::Int(v) => v,
                    ref other => panic!("{other:?}"),
                }
            })
            .collect();
        drop(s);
        (db, ids)
    }

    /// Three transactions: attack → dependent reader; one independent.
    fn scenario() -> (Analysis, i64, i64, i64) {
        let (db, ids) = history(
            &["CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"],
            &[
                ("attack", &["INSERT INTO t (id, v) VALUES (1, 666)"]),
                (
                    "dependent",
                    &[
                        "SELECT v FROM t WHERE id = 1",
                        "INSERT INTO t (id, v) VALUES (2, 1)",
                    ],
                ),
                ("independent", &["INSERT INTO t (id, v) VALUES (3, 3)"]),
            ],
        );
        let analysis = crate::RepairController::new(db).analyze().unwrap();
        (analysis, ids[0], ids[1], ids[2])
    }

    #[test]
    fn closure_recomputes_after_each_decision() {
        let (analysis, attack, dependent, independent) = scenario();
        let mut plan = RepairPlan::default();
        assert!(plan.undo_set.is_empty());
        plan.add_initial(&analysis, attack);
        assert_eq!(plan.undo_set, [attack, dependent].into_iter().collect());
        assert!(plan.saved_set(&analysis).contains(&independent));
        plan.remove_initial(&analysis, attack);
        assert!(plan.undo_set.is_empty());
    }

    #[test]
    fn force_include_pulls_in_dependents_too() {
        let (analysis, attack, dependent, independent) = scenario();
        let mut plan = RepairPlan::default();
        // The DBA knows `attack` is bad but starts from the independent
        // one; forcing the attack in also drags its dependent in.
        plan.add_initial(&analysis, independent);
        plan.force_include(&analysis, attack);
        let undo = plan.undo_set.clone();
        assert!(undo.contains(&attack));
        assert!(undo.contains(&dependent));
        assert!(undo.contains(&independent));
    }

    #[test]
    fn force_exclude_spares_a_single_transaction() {
        let (analysis, attack, dependent, _) = scenario();
        let mut plan = RepairPlan::default();
        plan.add_initial(&analysis, attack);
        plan.force_exclude(&analysis, dependent);
        let undo = plan.undo_set.clone();
        assert!(undo.contains(&attack));
        assert!(!undo.contains(&dependent));
        plan.clear_override(&analysis, dependent);
        assert!(plan.undo_set.contains(&dependent));
    }

    #[test]
    fn include_and_exclude_are_mutually_exclusive() {
        let (analysis, attack, _, _) = scenario();
        let mut plan = RepairPlan::default();
        plan.force_exclude(&analysis, attack);
        plan.force_include(&analysis, attack);
        assert!(plan.undo_set.contains(&attack), "last decision wins");
        plan.force_exclude(&analysis, attack);
        assert!(!plan.undo_set.contains(&attack));
    }

    #[test]
    fn summary_and_dot_render() {
        let (analysis, attack, _, _) = scenario();
        let mut plan = RepairPlan::default();
        plan.add_initial(&analysis, attack);
        assert!(plan.summary(&analysis).contains("undo 2 of 3"));
        assert!(plan.to_dot(&analysis).contains("fillcolor"));
    }

    #[test]
    fn inferred_derivable_columns_shrink_the_undo_set() {
        // End to end: the static analyzer infers `warehouse.w_ytd` from the
        // workload's own statements, the plan consumes the inference via
        // `add_inferred_rules`, and the Payment→New-Order row-level false
        // dependency disappears from the undo set.
        // The application's statement corpus: Payment bumps the year-to-
        // date accumulator, New-Order reads the tax rate from the same row.
        let payment = ["UPDATE warehouse SET w_ytd = w_ytd + 10 WHERE w_id = 1"];
        let neworder = [
            "SELECT w_tax FROM warehouse WHERE w_id = 1",
            "INSERT INTO orders (o_id, o_w_id) VALUES (1, 1)",
        ];
        let (db, ids) = history(
            &[
                "CREATE TABLE warehouse (w_id INTEGER PRIMARY KEY, w_tax INTEGER, w_ytd INTEGER)",
                "CREATE TABLE orders (o_id INTEGER PRIMARY KEY, o_w_id INTEGER)",
                "INSERT INTO warehouse (w_id, w_tax, w_ytd) VALUES (1, 7, 0)",
            ],
            &[("payment", &payment), ("neworder", &neworder)],
        );
        let (payment_id, neworder_id) = (ids[0], ids[1]);

        // Static inference over the same corpus finds the accumulator.
        let corpus: Vec<resildb_sql::Statement> = payment
            .iter()
            .chain(&neworder)
            .map(|s| resildb_sql::parse_statement(s).unwrap())
            .collect();
        let derivable = resildb_analyze::infer_derivable_columns(&corpus, None);
        assert_eq!(
            derivable.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
            ["warehouse.w_ytd"]
        );

        let analysis = crate::RepairController::new(db).analyze().unwrap();
        let mut plan = RepairPlan::default();
        plan.add_initial(&analysis, payment_id);
        assert!(
            plan.undo_set.contains(&neworder_id),
            "row-level tracking makes New-Order depend on Payment"
        );
        plan.add_inferred_rules(&analysis, &derivable);
        assert_eq!(plan.rules().len(), 1);
        let undo = plan.undo_set.clone();
        assert!(undo.contains(&payment_id));
        assert!(
            !undo.contains(&neworder_id),
            "the inferred w_ytd rule discards the false dependency: {undo:?}"
        );
    }

    #[test]
    fn rules_apply_and_clear() {
        let (analysis, attack, _, _) = scenario();
        let mut plan = RepairPlan::default();
        plan.add_initial(&analysis, attack);
        let before = plan.undo_set.len();
        plan.add_rule(&analysis, FalseDepRule::IgnoreTable("t".into()));
        plan.add_rule(&analysis, FalseDepRule::IgnoreTable("t".into())); // deduped
        assert_eq!(plan.rules().len(), 1);
        assert!(plan.undo_set.len() <= before);
        plan.clear_rules(&analysis);
        assert_eq!(plan.undo_set.len(), before);
    }
}

//! The phased repair driver: `analyze() → plan() → execute()`.
//!
//! [`RepairController`] is the one entry point for repairing a database.
//! The three phases separate what the paper's interactive tool
//! interleaves:
//!
//! * [`RepairController::analyze`] reads the transaction log and tracking
//!   tables and builds the dependency graph ([`Analysis`]);
//! * [`RepairController::plan`] records the DBA's decisions — an initial
//!   attack set under the controller's false-dependency rules — and the
//!   damage closure they select ([`RepairPlan`], open for interactive
//!   what-if edits before execution);
//! * [`RepairController::execute`] runs the compensation sweep, either
//!   **quiesced** (the paper's offline repair: the caller guarantees no
//!   concurrent traffic) or **live** ([`RepairMode::Live`]): the
//!   controller fences the static blast-radius surface through the
//!   proxy's [`resildb_proxy::Fence`], drains in-flight transactions,
//!   re-analyzes, shrinks the fence to the dynamic row-level closure,
//!   sweeps while clean traffic keeps flowing, and extends the fence if
//!   re-analysis grows the closure mid-sweep.
//!
//! Options are carried by the [`RepairOptions`] builder, which also hooks
//! the simulator's fault plan so deterministic tests can inject failures
//! at the repair failpoints without reaching into [`resildb_sim`]
//! internals.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use resildb_engine::{Database, Value};
use resildb_proxy::{canon_value, composite_key, ContainmentPolicy, ProxyRuntime, RowFence};
use resildb_sim::telemetry::names as span_names;
use resildb_sim::{failpoints, EventKind, FaultAction, FaultTrigger, IncidentPhase};
use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver, Response};

use crate::adapters::{adapter_for, LogAdapter};
use crate::compensate::{run_compensation, CompensationOutcome};
use crate::correlate::TxnCorrelation;
use crate::error::RepairError;
use crate::graph::{DepGraph, EdgeKind, EdgeProvenance, FalseDepRule};
use crate::progress::{PhaseDone, RepairPhase, RepairProgress};
use crate::record::{NamedRow, RepairOp, RepairRecord, RowAddress};
use crate::whatif::RepairPlan;

/// Everything the analysis phase learns from the database and its log.
#[derive(Debug)]
pub struct Analysis {
    /// Normalized log records (LSN order).
    pub records: Vec<RepairRecord>,
    /// Proxy ↔ internal id mapping.
    pub correlation: TxnCorrelation,
    /// The full dependency graph (online read deps + log-reconstructed
    /// write deps), labelled from `annot`.
    pub graph: DepGraph,
}

impl Analysis {
    /// Computes the undo set for an initial attack set under the given
    /// false-dependency rules — the "what if" primitive the paper's
    /// interactive repair tool is built around.
    pub fn undo_set(&self, initial: &[i64], rules: &[FalseDepRule]) -> BTreeSet<i64> {
        self.graph.closure(initial, rules)
    }

    /// Renders the dependency graph as GraphViz DOT, highlighting
    /// `highlight` (paper Figure 3).
    pub fn to_dot(&self, highlight: &BTreeSet<i64>) -> String {
        self.graph.to_dot(highlight)
    }

    /// Every tracked (committed, correlated) proxy transaction id.
    pub fn tracked_transactions(&self) -> BTreeSet<i64> {
        self.correlation.internal_of.keys().copied().collect()
    }
}

/// Whether the compensation sweep runs against a quiesced database or
/// concurrently with client traffic behind a containment fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairMode {
    /// The paper's offline repair: the caller guarantees no concurrent
    /// traffic for the duration of [`RepairController::execute`].
    #[default]
    Quiesced,
    /// Online repair: fence the blast radius through the proxy, keep
    /// serving transactions that provably miss the quarantine, sweep in
    /// the background. Requires [`RepairOptions::live`].
    Live,
}

/// Options for a [`RepairController`], built fluently:
///
/// ```ignore
/// let opts = RepairOptions::quiesced()
///     .rule(FalseDepRule::IgnoreTable("scratch".into()))
///     .fault(failpoints::REPAIR_MID_SWEEP, FaultAction::Error, FaultTrigger::Once);
/// ```
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`RepairOptions::quiesced`] / [`RepairOptions::live`] so new knobs can
/// be added without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RepairOptions {
    /// Quiesced or live execution.
    pub mode: RepairMode,
    /// DBA-declared false-dependency rules applied to every closure the
    /// controller computes (paper §5.3).
    pub rules: Vec<FalseDepRule>,
    /// The static blast-radius surface a live repair fences before any
    /// log analysis. `None` means every user table (always sound); a
    /// profile-conflict analysis (DESIGN.md §15) can narrow it.
    pub static_surface: Option<Vec<String>>,
    /// The proxy runtime whose fence and in-flight ledger a live repair
    /// drives. Required for [`RepairMode::Live`].
    pub runtime: Option<Arc<ProxyRuntime>>,
    /// The containment policy of a live repair. `FenceDynamic` shrinks
    /// the fence to row level once the closure is known; `FenceStatic`
    /// keeps the table-level fence until the sweep commits.
    pub containment: ContainmentPolicy,
    /// How long a live repair waits for pre-fence transactions to drain.
    pub drain_timeout: Duration,
    /// How many fence-extension rounds a live repair tolerates before
    /// concluding the closure is not converging.
    pub max_extension_rounds: usize,
    /// Failpoints to arm on the database's fault plan for the duration of
    /// [`RepairController::execute`] (disarmed on exit, even on error).
    pub faults: Vec<(String, FaultAction, FaultTrigger)>,
}

impl Default for RepairOptions {
    fn default() -> Self {
        Self::quiesced()
    }
}

impl RepairOptions {
    /// Options for the paper's offline repair (no fence, no proxy).
    pub fn quiesced() -> Self {
        Self {
            mode: RepairMode::Quiesced,
            rules: Vec::new(),
            static_surface: None,
            runtime: None,
            containment: ContainmentPolicy::Off,
            drain_timeout: Duration::from_secs(10),
            max_extension_rounds: 8,
            faults: Vec::new(),
        }
    }

    /// Options for a live repair driving `runtime`'s fence under
    /// `containment` (pass the same policy the proxy was configured
    /// with; [`ContainmentPolicy::Off`] downgrades to table-level
    /// static fencing for the repair's duration).
    pub fn live(runtime: Arc<ProxyRuntime>, containment: ContainmentPolicy) -> Self {
        Self {
            mode: RepairMode::Live,
            runtime: Some(runtime),
            containment,
            ..Self::quiesced()
        }
    }

    /// Replaces the false-dependency rules.
    #[must_use]
    pub fn rules(mut self, rules: impl IntoIterator<Item = FalseDepRule>) -> Self {
        self.rules = rules.into_iter().collect();
        self
    }

    /// Adds one false-dependency rule.
    #[must_use]
    pub fn rule(mut self, rule: FalseDepRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Narrows the static fence surface of a live repair to `tables`
    /// (e.g. an attacker profile's static blast-radius closure). The
    /// surface must cover everything the attack could have touched;
    /// a too-narrow surface is caught by the extension loop but costs
    /// extra sweep rounds.
    #[must_use]
    pub fn static_surface(mut self, tables: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.static_surface = Some(tables.into_iter().map(Into::into).collect());
        self
    }

    /// Sets the in-flight drain timeout of a live repair.
    #[must_use]
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Sets the fence-extension round budget of a live repair.
    #[must_use]
    pub fn max_extension_rounds(mut self, rounds: usize) -> Self {
        self.max_extension_rounds = rounds;
        self
    }

    /// Arms `name` on the database's fault plan for the duration of
    /// [`RepairController::execute`] — the deterministic-failure hook
    /// for the repair failpoints (`repair.mid_sweep`,
    /// `repair.before_commit`, `repair.live.before_shrink`, ...).
    #[must_use]
    pub fn fault(
        mut self,
        name: impl Into<String>,
        action: FaultAction,
        trigger: FaultTrigger,
    ) -> Self {
        self.faults.push((name.into(), action, trigger));
        self
    }
}

/// What a live execution did beyond the sweep itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveRepairStats {
    /// Tables fenced by the initial static raise (peak containment).
    pub fenced_tables: usize,
    /// Rows individually fenced when the sweep started (post-shrink).
    pub fenced_rows: usize,
    /// Fence-extension rounds the closure needed to converge.
    pub extension_rounds: usize,
    /// Milliseconds spent draining pre-fence in-flight transactions.
    pub drain_ms: u64,
}

/// Report of a completed repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// The proxy transactions rolled back.
    pub undo_set: BTreeSet<i64>,
    /// Total tracked transactions at repair time.
    pub tracked_total: usize,
    /// Tracked transactions whose effects survived.
    pub saved: usize,
    /// What the compensation sweep did.
    pub outcome: CompensationOutcome,
    /// Live-mode bookkeeping; `None` for a quiesced repair.
    pub live: Option<LiveRepairStats>,
}

impl RepairReport {
    /// Percentage of tracked transactions preserved by the repair
    /// (the right-hand column of paper Figure 5).
    pub fn saved_percentage(&self) -> f64 {
        if self.tracked_total == 0 {
            100.0
        } else {
            100.0 * self.saved as f64 / self.tracked_total as f64
        }
    }
}

/// The phased repair driver for one database. See module docs.
pub struct RepairController {
    db: Database,
    adapter: Box<dyn LogAdapter>,
    options: RepairOptions,
    progress: RepairProgress,
}

impl std::fmt::Debug for RepairController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairController")
            .field("flavor", &self.db.flavor())
            .field("mode", &self.options.mode)
            .finish_non_exhaustive()
    }
}

/// Arms a set of failpoints and disarms them on drop, so an injected
/// error cannot leave the plan armed for unrelated later work.
struct ArmedFaults<'a> {
    plan: &'a resildb_sim::FaultPlan,
    names: Vec<String>,
}

impl Drop for ArmedFaults<'_> {
    fn drop(&mut self) {
        for name in &self.names {
            self.plan.disarm(name);
        }
    }
}

impl RepairController {
    /// A quiesced-mode controller with default options and the adapter
    /// matching the database's flavor.
    pub fn new(db: Database) -> Self {
        Self::with_options(db, RepairOptions::default())
    }

    /// A controller with explicit options.
    pub fn with_options(db: Database, options: RepairOptions) -> Self {
        let adapter = adapter_for(db.flavor());
        Self {
            db,
            adapter,
            options,
            progress: RepairProgress::default(),
        }
    }

    /// The options this controller executes under.
    pub fn options(&self) -> &RepairOptions {
        &self.options
    }

    /// A cloneable handle observing this controller's live repair
    /// progress (phase, compensated/total, fence size, extension
    /// rounds). Poll it from another thread — e.g. the metrics
    /// endpoint's `/ready` predicate and `resildb-top` both do.
    pub fn progress(&self) -> RepairProgress {
        self.progress.clone()
    }

    /// Phase 1: reads the log and tracking tables and builds the
    /// dependency graph.
    ///
    /// # Errors
    ///
    /// Log introspection or tracking-table read failures.
    pub fn analyze(&self) -> Result<Analysis, RepairError> {
        let telemetry = self.db.sim().telemetry();
        // Analysis is the detection step of an incident: open one on the
        // timeline unless a repair episode is already in flight (the live
        // protocol re-analyzes several times per incident).
        let timeline = telemetry.timeline();
        if timeline.current().is_none() {
            let incident = timeline.open_incident();
            timeline.mark(IncidentPhase::Detected);
            telemetry
                .flight()
                .emit(0, 0, EventKind::IncidentDetected { incident });
        }
        if self.progress.is_executing() {
            self.progress.set_phase(RepairPhase::Analyze);
        }
        let records = {
            let _span = telemetry.span(span_names::REPAIR_LOG_SCAN);
            self.adapter.scan(&self.db)?
        };
        telemetry.flight().emit(
            0,
            0,
            EventKind::LogScan {
                records: records.len() as u64,
            },
        );
        let correlation = {
            let _span = telemetry.span(span_names::REPAIR_CORRELATE);
            TxnCorrelation::from_records(&records)
        };
        telemetry.flight().emit(
            0,
            0,
            EventKind::Correlate {
                pairs: correlation.len() as u64,
            },
        );
        let _span = telemetry.span(span_names::REPAIR_GRAPH_BUILD);
        let mut graph = DepGraph::new();

        // 1. Online (read) dependencies from trans_dep + provenance.
        let mut session = self.db.session();
        let prov_rows = session
            .query("SELECT tr_id, dep_tr_id, via_table, read_cols FROM trans_dep_prov")
            .map_err(RepairError::Engine)?;
        // (tr_id, dep_tr_id) → [(mediating table, columns read)]
        type ProvMap = HashMap<(i64, i64), Vec<(String, Vec<String>)>>;
        let mut prov: ProvMap = HashMap::new();
        for row in &prov_rows.rows {
            if let (Value::Int(tr), Value::Int(dep), Value::Str(table), Value::Str(cols)) =
                (&row[0], &row[1], &row[2], &row[3])
            {
                prov.entry((*tr, *dep)).or_default().push((
                    table.clone(),
                    cols.split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect(),
                ));
            }
        }
        let dep_rows = session
            .query("SELECT tr_id, dep_tr_ids FROM trans_dep")
            .map_err(RepairError::Engine)?;
        for row in &dep_rows.rows {
            let (Value::Int(tr), Value::Str(deps)) = (&row[0], &row[1]) else {
                continue;
            };
            for dep in deps.split_whitespace() {
                let Ok(dep) = dep.parse::<i64>() else {
                    continue;
                };
                match prov.get(&(*tr, dep)) {
                    Some(sources) => {
                        for (table, cols) in sources {
                            graph.add_edge(
                                *tr,
                                dep,
                                EdgeProvenance {
                                    table: table.clone(),
                                    kind: EdgeKind::Read {
                                        read_columns: cols.clone(),
                                    },
                                },
                            );
                        }
                    }
                    None => {
                        // No provenance recorded: keep the edge with an
                        // unknown-table marker (it always survives rules).
                        graph.add_edge(
                            *tr,
                            dep,
                            EdgeProvenance {
                                table: String::new(),
                                kind: EdgeKind::Write,
                            },
                        );
                    }
                }
            }
        }

        // 2. Labels from annot.
        let annot_rows = session
            .query("SELECT tr_id, descr FROM annot")
            .map_err(RepairError::Engine)?;
        for row in &annot_rows.rows {
            if let (Value::Int(tr), Value::Str(descr)) = (&row[0], &row[1]) {
                graph.set_label(*tr, descr.clone());
            }
        }

        // 3. Log-reconstructed dependencies (updates/deletes) and writer
        //    column notes for false-dependency evaluation.
        for rec in &records {
            let Some(proxy) = correlation.proxy_id(rec.internal_txn) else {
                continue; // uncommitted or untracked transaction
            };
            if rec.table.is_empty() || crate::is_tracking_table(&rec.table) {
                continue;
            }
            match &rec.op {
                RepairOp::Insert { .. } => graph.note_writer_insert(proxy, &rec.table),
                RepairOp::Update { after, .. } => graph.note_writer_columns(
                    proxy,
                    &rec.table,
                    after
                        .columns()
                        .iter()
                        .filter(|c| !resildb_proxy::is_tracking_column(c))
                        .map(|s| s.to_string()),
                ),
                _ => {}
            }
            // Reconstruct the overwrite dependency from the pre-image.
            // Under column-level tracking the pre-image carries one
            // `trid__<col>` stamp per overwritten column, giving precise
            // per-column edges; otherwise fall back to the row `trid`.
            let before = match &rec.op {
                RepairOp::Update { before, .. } => Some(before),
                RepairOp::Delete { row, .. } => Some(row),
                _ => None,
            };
            if let Some(image) = before {
                let mut column_edges = 0;
                for (name, value) in &image.0 {
                    let Some(col) = name.strip_prefix(resildb_proxy::COLUMN_TRID_PREFIX) else {
                        continue;
                    };
                    if let resildb_engine::Value::Int(dep) = value {
                        column_edges += 1;
                        if *dep > 0 && *dep != proxy {
                            graph.add_edge(
                                proxy,
                                *dep,
                                EdgeProvenance {
                                    table: rec.table.clone(),
                                    kind: EdgeKind::Read {
                                        read_columns: vec![col.to_string()],
                                    },
                                },
                            );
                        }
                    }
                }
                if column_edges == 0 {
                    if let Some(dep) = rec.before_trid() {
                        if dep > 0 && dep != proxy {
                            graph.add_edge(
                                proxy,
                                dep,
                                EdgeProvenance {
                                    table: rec.table.clone(),
                                    kind: EdgeKind::Write,
                                },
                            );
                        }
                    }
                }
            }
        }

        Ok(Analysis {
            records,
            correlation,
            graph,
        })
    }

    /// Phase 2: plans undoing `initial` and its damage closure under the
    /// controller's rules.
    pub fn plan(&self, analysis: &Analysis, initial: &[i64]) -> RepairPlan {
        let plan = {
            let _span = self.db.sim().telemetry().span(span_names::REPAIR_CLOSURE);
            RepairPlan::new(analysis, initial, &self.options.rules)
        };
        self.closure_computed(initial.len(), plan.undo_set.len());
        plan
    }

    /// Publishes a computed damage closure to progress and the flight
    /// recorder.
    fn closure_computed(&self, initial: usize, nodes: usize) {
        self.progress.set_closure(nodes as u64);
        self.db.sim().telemetry().flight().emit(
            0,
            0,
            EventKind::ClosureComputed {
                initial: u32::try_from(initial).unwrap_or(u32::MAX),
                nodes: u32::try_from(nodes).unwrap_or(u32::MAX),
            },
        );
    }

    /// Phase 3: executes the compensation sweep for `plan`, in the mode
    /// the options select. A quiesced sweep undoes `plan.undo_set`, which
    /// was derived from `analysis`; a live sweep re-analyzes behind the
    /// fence and applies the plan's decisions to each fresh analysis.
    /// Failpoints named in the options are armed for the duration of this
    /// call.
    ///
    /// # Errors
    ///
    /// Compensation failures; for live mode also a missing runtime, a
    /// drain timeout, or a closure that does not converge within the
    /// extension-round budget. The fence is always lifted on the way out.
    pub fn execute(
        &self,
        analysis: &Analysis,
        plan: &RepairPlan,
    ) -> Result<RepairReport, RepairError> {
        let fault_plan = self.db.sim().faults();
        let _armed = ArmedFaults {
            plan: fault_plan,
            names: self
                .options
                .faults
                .iter()
                .map(|(name, action, trigger)| {
                    fault_plan.arm(name, *action, *trigger);
                    name.clone()
                })
                .collect(),
        };
        // Progress lands on `Done` and the incident closes on every exit
        // path — success, error, or a panic unwinding out of a
        // failpoint. For live mode the incident's `fence_lifted` mark is
        // placed by the inner `FenceLift` guard, which drops first.
        self.progress.begin(plan.undo_set.len() as u64);
        let _done = PhaseDone {
            progress: self.progress.clone(),
        };
        struct CloseIncident<'a> {
            timeline: &'a resildb_sim::IncidentTimeline,
        }
        impl Drop for CloseIncident<'_> {
            fn drop(&mut self) {
                self.timeline.close_incident();
            }
        }
        let _close = CloseIncident {
            timeline: self.db.sim().telemetry().timeline(),
        };
        match self.options.mode {
            RepairMode::Quiesced => self.execute_quiesced(analysis, &plan.undo_set),
            RepairMode::Live => self.execute_live(plan),
        }
    }

    /// Convenience: `analyze` → `plan(initial)` → `execute`.
    ///
    /// # Errors
    ///
    /// Any phase's failures.
    pub fn repair(&self, initial: &[i64]) -> Result<RepairReport, RepairError> {
        let analysis = self.analyze()?;
        let plan = self.plan(&analysis, initial);
        self.execute(&analysis, &plan)
    }

    /// The paper's offline sweep: one compensation transaction against a
    /// quiesced database.
    fn execute_quiesced(
        &self,
        analysis: &Analysis,
        undo_set: &BTreeSet<i64>,
    ) -> Result<RepairReport, RepairError> {
        let telemetry = self.db.sim().telemetry();
        let _span = telemetry.span(span_names::REPAIR_COMPENSATE);
        self.progress.set_phase(RepairPhase::Sweep);
        let undo_internal = internal_map(analysis, undo_set);
        let driver = NativeDriver::new(self.db.clone(), LinkProfile::local());
        let mut conn = driver.connect()?;
        let outcome = run_compensation(
            &self.db,
            conn.as_mut(),
            &analysis.records,
            &undo_internal,
            self.adapter.address_column(),
            &BTreeSet::new(),
        )?;
        self.progress.add_compensated(undo_set.len() as u64);
        telemetry.timeline().mark(IncidentPhase::SweepComplete);
        telemetry
            .flight()
            .emit(0, 0, EventKind::SweepComplete { rounds: 0 });
        Ok(build_report(analysis, undo_set.clone(), outcome, None))
    }

    /// Live repair: fence → drain → re-analyze → shrink → sweep →
    /// extend-until-converged → lift. The fence is lifted on every exit
    /// path, success or error.
    fn execute_live(&self, plan: &RepairPlan) -> Result<RepairReport, RepairError> {
        let runtime = self.options.runtime.clone().ok_or_else(|| {
            RepairError::Analysis(
                "live repair requires a proxy runtime (build options with RepairOptions::live)"
                    .into(),
            )
        })?;
        let telemetry = self.db.sim().telemetry();
        let fence = runtime.fence();

        // 1. Raise the static fence. The blast-radius surface needs no log,
        //    so the fence goes up before this call reads any. Containment
        //    is not instant, though: the `analyze()` that `repair()` (or
        //    the caller) ran before `execute` has already scanned the whole
        //    log. `mttr --live --quick` measured that scan at 17.6 ms of a
        //    41.5 ms MTTC on a 2-CPU container.
        let surface: Vec<String> = match &self.options.static_surface {
            Some(tables) => tables.clone(),
            None => self
                .db
                .table_names()
                .into_iter()
                .filter(|t| !crate::is_tracking_table(t))
                .collect(),
        };
        let tables = fence.raise(surface);
        self.progress.set_fence_tables(tables as u64);
        telemetry.timeline().mark(IncidentPhase::FenceRaised);
        telemetry.flight().emit(
            0,
            0,
            EventKind::FenceRaised {
                tables: u32::try_from(tables).unwrap_or(u32::MAX),
            },
        );

        // Drop guard: the fence comes down on *every* exit — success,
        // error, or a panic unwinding out of a failpoint. A stuck fence
        // turns one failed repair into an indefinite outage.
        struct FenceLift<'a> {
            fence: &'a resildb_proxy::Fence,
            telemetry: &'a resildb_sim::Telemetry,
        }
        impl Drop for FenceLift<'_> {
            fn drop(&mut self) {
                self.fence.lift();
                self.telemetry.timeline().mark(IncidentPhase::FenceLifted);
                self.telemetry.flight().emit(0, 0, EventKind::FenceLifted);
            }
        }
        let _lift = FenceLift { fence, telemetry };

        self.live_protocol(&runtime, plan, tables)
    }

    /// Everything between fence raise and fence lift.
    fn live_protocol(
        &self,
        runtime: &ProxyRuntime,
        plan: &RepairPlan,
        raised_tables: usize,
    ) -> Result<RepairReport, RepairError> {
        let telemetry = self.db.sim().telemetry();
        let fence = runtime.fence();

        // 2. Drain: every transaction admitted before the fence went up
        //    must commit or abort before analysis, so the log prefix the
        //    closure is computed from is complete.
        self.progress.set_phase(RepairPhase::Drain);
        let drain_start = Instant::now();
        let watermark = runtime.trid_watermark();
        let deadline = drain_start + self.options.drain_timeout;
        while runtime.any_inflight_below(watermark) {
            if Instant::now() >= deadline {
                return Err(RepairError::Analysis(
                    "live repair drain timed out: pre-fence transactions still in flight".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let drain_ms = drain_start.elapsed().as_millis() as u64;

        // 3. Fresh analysis behind the fence, and the real closure.
        let mut analysis = self.analyze()?;
        let mut undo = plan.undo_set_for(&analysis);
        self.closure_computed(plan.initial().len(), undo.len());
        self.progress.set_total(undo.len() as u64);

        // 4. Shrink from the static table surface to the dynamic
        //    row-level closure (when the policy allows).
        repair_fault(&self.db, failpoints::REPAIR_LIVE_BEFORE_SHRINK)?;
        let shrinks = matches!(
            self.options.containment,
            ContainmentPolicy::FenceDynamic(_) | ContainmentPolicy::Off
        );
        let (mut whole, mut rows) = if shrinks {
            self.fence_rows(&analysis, &undo)?
        } else {
            // Static policy: keep every table of the closure fenced.
            (closure_tables(&analysis, &undo), HashMap::new())
        };
        let (shrunk_tables, fenced_rows) = fence.shrink(whole.clone(), rows.clone());
        self.progress.set_fence_rows(fenced_rows as u64);
        telemetry.timeline().mark(IncidentPhase::QuarantineShrunk);
        telemetry.flight().emit(
            0,
            0,
            EventKind::FenceShrunk {
                tables: u32::try_from(shrunk_tables).unwrap_or(u32::MAX),
                rows: u32::try_from(fenced_rows).unwrap_or(u32::MAX),
            },
        );

        // 5. Sweep, then re-analyze until the closure stops growing. A
        //    correctly-sized static surface converges in one round; the
        //    loop is the safety net for a user-narrowed surface that
        //    missed a table the attack reached.
        let mut undone: BTreeSet<i64> = BTreeSet::new();
        let mut current: BTreeSet<i64> = undo.clone();
        let mut outcome = CompensationOutcome::default();
        let mut extension_rounds = 0usize;
        let driver = NativeDriver::new(self.db.clone(), LinkProfile::local());
        let mut conn = driver.connect()?;
        loop {
            if !current.is_empty() {
                let _span = telemetry.span(span_names::REPAIR_COMPENSATE);
                self.progress.set_phase(RepairPhase::Sweep);
                let undo_internal = internal_map(&analysis, &current);
                let round = run_compensation(
                    &self.db,
                    conn.as_mut(),
                    &analysis.records,
                    &undo_internal,
                    self.adapter.address_column(),
                    &undone,
                )?;
                merge_outcome(&mut outcome, round);
                undone.extend(current.iter().copied());
                self.progress.add_compensated(current.len() as u64);
            }

            analysis = self.analyze()?;
            undo = plan.undo_set_for(&analysis);
            let fresh: BTreeSet<i64> = undo.difference(&undone).copied().collect();
            if fresh.is_empty() {
                telemetry.timeline().mark(IncidentPhase::SweepComplete);
                telemetry.flight().emit(
                    0,
                    0,
                    EventKind::SweepComplete {
                        rounds: u32::try_from(extension_rounds).unwrap_or(u32::MAX),
                    },
                );
                break;
            }
            extension_rounds += 1;
            self.progress.set_phase(RepairPhase::Extend);
            self.progress.set_extension_rounds(extension_rounds as u64);
            self.progress.set_total((undone.len() + fresh.len()) as u64);
            if extension_rounds > self.options.max_extension_rounds {
                return Err(RepairError::Analysis(format!(
                    "live repair closure still growing after {} extension rounds",
                    self.options.max_extension_rounds
                )));
            }
            // Extend the fence over the new members' rows before they
            // are swept.
            let (new_whole, new_rows) = if shrinks {
                self.fence_rows(&analysis, &fresh)?
            } else {
                (closure_tables(&analysis, &fresh), HashMap::new())
            };
            let mut added_rows = 0usize;
            whole.extend(new_whole);
            for (table, rf) in new_rows {
                if whole.contains(&table) {
                    continue;
                }
                let entry = rows.entry(table).or_insert_with(|| RowFence {
                    key_columns: rf.key_columns.clone(),
                    keys: Default::default(),
                });
                let before = entry.keys.len();
                entry.keys.extend(rf.keys);
                added_rows += entry.keys.len() - before;
            }
            fence.shrink(whole.clone(), rows.clone());
            telemetry.timeline().mark(IncidentPhase::FenceExtended);
            telemetry.flight().emit(
                0,
                0,
                EventKind::FenceExtended {
                    rows: u32::try_from(added_rows).unwrap_or(u32::MAX),
                },
            );
            current = fresh;
        }

        repair_fault(&self.db, failpoints::REPAIR_LIVE_BEFORE_LIFT)?;
        Ok(build_report(
            &analysis,
            undone,
            outcome,
            Some(LiveRepairStats {
                fenced_tables: raised_tables,
                fenced_rows,
                extension_rounds,
                drain_ms,
            }),
        ))
    }

    /// Computes the row-level quarantine for `undo`'s log records:
    /// per-table primary-key sets in the canonical form the proxy fence
    /// matches client statements against. A table falls back to a whole
    /// fence when it has no primary key or a record's key cannot be
    /// recovered.
    fn fence_rows(
        &self,
        analysis: &Analysis,
        undo: &BTreeSet<i64>,
    ) -> Result<(BTreeSet<String>, HashMap<String, RowFence>), RepairError> {
        let mut whole: BTreeSet<String> = BTreeSet::new();
        let mut rows: HashMap<String, RowFence> = HashMap::new();
        // table → lower-cased primary-key column names (empty = no pk).
        let mut pk_cache: HashMap<String, Vec<String>> = HashMap::new();
        let addr_col = self.adapter.address_column().column_name();
        let driver = NativeDriver::new(self.db.clone(), LinkProfile::local());
        let mut conn = driver.connect()?;

        for rec in &analysis.records {
            let Some(proxy) = analysis.correlation.proxy_id(rec.internal_txn) else {
                continue;
            };
            if !undo.contains(&proxy)
                || rec.table.is_empty()
                || crate::is_tracking_table(&rec.table)
            {
                continue;
            }
            let table = rec.table.to_lowercase();
            if whole.contains(&table) {
                continue;
            }
            let pk = match pk_cache.get(&table) {
                Some(pk) => pk.clone(),
                None => {
                    let schema = self
                        .db
                        .table(&rec.table)
                        .map_err(RepairError::Engine)?
                        .read()
                        .schema()
                        .clone();
                    let pk: Vec<String> = schema
                        .primary_key
                        .iter()
                        .map(|&i| schema.columns[i].name.to_lowercase())
                        .collect();
                    pk_cache.insert(table.clone(), pk.clone());
                    pk
                }
            };
            if pk.is_empty() {
                whole.insert(table.clone());
                rows.remove(&table);
                continue;
            }
            let key = match &rec.op {
                RepairOp::Insert { row, .. } | RepairOp::Delete { row, .. } => {
                    key_from_image(row, &pk)
                }
                RepairOp::Update {
                    address,
                    before,
                    after,
                } => match key_from_image(after, &pk).or_else(|| key_from_image(before, &pk)) {
                    Some(k) => Some(k),
                    None => {
                        match key_by_address(conn.as_mut(), &rec.table, addr_col, address, &pk)? {
                            Some(k) => Some(k),
                            // The row was deleted later in the log; when
                            // that delete is also being undone, its full
                            // image carries the key — this record is
                            // covered. Otherwise the key is gone: fall
                            // back to fencing the whole table.
                            None if deleted_later(analysis, undo, rec, address) => None,
                            None => Some(String::new()),
                        }
                    }
                },
                RepairOp::Commit | RepairOp::Abort => continue,
            };
            match key {
                Some(k) if !k.is_empty() => {
                    rows.entry(table)
                        .or_insert_with(|| RowFence {
                            key_columns: pk.clone(),
                            keys: Default::default(),
                        })
                        .keys
                        .insert(k);
                }
                Some(_) => {
                    // Empty marker: key unrecoverable — fence the table.
                    whole.insert(table.clone());
                    rows.remove(&table);
                }
                None => {} // covered by a later record
            }
        }
        Ok((whole, rows))
    }
}

/// Whether a later undo-set record deletes the row `rec` addresses (its
/// full delete image then contributes the fence key).
fn deleted_later(
    analysis: &Analysis,
    undo: &BTreeSet<i64>,
    rec: &RepairRecord,
    address: &RowAddress,
) -> bool {
    analysis.records.iter().any(|r| {
        r.lsn > rec.lsn
            && r.table.eq_ignore_ascii_case(&rec.table)
            && matches!(&r.op, RepairOp::Delete { address: a, .. } if a == address)
            && analysis
                .correlation
                .proxy_id(r.internal_txn)
                .is_some_and(|p| undo.contains(&p))
    })
}

/// Extracts a canonical composite fence key from a full row image.
fn key_from_image(image: &NamedRow, pk: &[String]) -> Option<String> {
    let parts: Vec<String> = pk
        .iter()
        .map(|col| image.get(col).and_then(canon_value))
        .collect::<Option<Vec<_>>>()?;
    Some(composite_key(&parts))
}

/// Recovers the fence key of an updated row from the live database via
/// its row address (update records carry changed columns only, which
/// rarely include the key). `Ok(None)` when the row no longer exists.
fn key_by_address(
    conn: &mut dyn Connection,
    table: &str,
    addr_col: &str,
    address: &RowAddress,
    pk: &[String],
) -> Result<Option<String>, RepairError> {
    let sql = format!(
        "SELECT {} FROM {table} WHERE {addr_col} = {}",
        pk.join(", "),
        address.literal()
    );
    match conn.execute(&sql)? {
        Response::Rows(r) => match r.rows.first() {
            Some(row) => {
                let parts: Option<Vec<String>> = row.iter().map(canon_value).collect();
                Ok(parts.map(|p| composite_key(&p)))
            }
            None => Ok(None),
        },
        other => Err(RepairError::Analysis(format!(
            "fence key lookup produced {other:?}: {sql}"
        ))),
    }
}

/// Every user table the undo set's records touch (the static-policy
/// fence surface after analysis).
fn closure_tables(analysis: &Analysis, undo: &BTreeSet<i64>) -> BTreeSet<String> {
    analysis
        .records
        .iter()
        .filter(|rec| {
            !rec.table.is_empty()
                && !crate::is_tracking_table(&rec.table)
                && analysis
                    .correlation
                    .proxy_id(rec.internal_txn)
                    .is_some_and(|p| undo.contains(&p))
        })
        .map(|rec| rec.table.to_lowercase())
        .collect()
}

/// Maps a proxy-level undo set to internal transaction ids.
fn internal_map(
    analysis: &Analysis,
    undo_set: &BTreeSet<i64>,
) -> HashMap<resildb_engine::InternalTxnId, i64> {
    let mut undo_internal = HashMap::new();
    for &proxy in undo_set {
        if let Some(internal) = analysis.correlation.internal_id(proxy) {
            undo_internal.insert(internal, proxy);
        }
    }
    undo_internal
}

fn build_report(
    analysis: &Analysis,
    undo_set: BTreeSet<i64>,
    outcome: CompensationOutcome,
    live: Option<LiveRepairStats>,
) -> RepairReport {
    let tracked = analysis.tracked_transactions();
    let rolled_back = tracked.intersection(&undo_set).count();
    RepairReport {
        undo_set,
        tracked_total: tracked.len(),
        saved: tracked.len() - rolled_back,
        outcome,
        live,
    }
}

fn merge_outcome(total: &mut CompensationOutcome, round: CompensationOutcome) {
    total.statements.extend(round.statements);
    total.rows_deleted += round.rows_deleted;
    total.rows_reinserted += round.rows_reinserted;
    total.rows_restored += round.rows_restored;
}

/// Maps an injected repair-layer fault to a [`RepairError`].
fn repair_fault(db: &Database, name: &str) -> Result<(), RepairError> {
    match db.sim().fault_check(name) {
        None => Ok(()),
        Some(resildb_sim::InjectedFault::Disconnect) => Err(RepairError::Wire(
            resildb_wire::WireError::ConnectionDropped,
        )),
        Some(resildb_sim::InjectedFault::Error) => Err(RepairError::Wire(
            resildb_wire::WireError::Protocol(format!("injected fault at failpoint {name}")),
        )),
        Some(resildb_sim::InjectedFault::Delay(_)) => {
            unreachable!("fault_check consumes delays")
        }
    }
}

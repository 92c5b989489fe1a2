//! The three workloads, the stacks they run on, the closed-loop client and
//! the two kinds of run: end-to-end (`--trace 0`) and traced
//! (`--trace 1`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use resildb_bench::fig4::{self, Scale};
use resildb_bench::{costs, Setup};
use resildb_core::{
    prepare_database, Connection, ContainmentPolicy, CostModel, Database, Driver, Fence,
    FenceAction, Flavor, LinkProfile, MetricsSnapshot, NativeDriver, ProxyConfig, ResilientDb,
    SimContext, Telemetry, TrackingGranularity, TrackingProxy, WireError,
};
use resildb_tpcc::{Loader, Mix, TpccConfig, TpccRunner, TxnKind};
use resildb_wire::InterceptDriver;

use crate::incident;
use crate::layers::{Ledger, Meter, MeteredConnection, Reading, Taps, TimingDriver};
use crate::report::{median, quantile, ratio, Report};
use crate::{Args, Sabotage};

/// Containment every stack runs with, so live repair can fence traffic.
/// A fenced statement parks until the fence shrinks past it or lifts, so
/// the clean client is held, never refused.
const CONTAINMENT: ContainmentPolicy = ContainmentPolicy::FenceDynamic(FenceAction::Defer);

/// Seed of the TPC-C population (`fig4`'s). The run's seed drives the
/// SQL stream: every client's parameters and the incident history's mix.
const POPULATION_SEED: u64 = 42;

/// OLTP warm-up: transactions each client runs, one client at a time,
/// before anything is measured. Single-threaded, so the SQL stream and
/// every count it produces depend on the seed alone.
const OLTP_PRELUDE_TXNS: u64 = 100;

/// `live_repair` history: standard-mix transactions before the attack.
/// Long enough that log scans dominate the repair.
const HISTORY_TXNS: u64 = 2000;

/// Transactions committed after the attack, before detection.
const OLTP_POST_ATTACK_TXNS: u64 = 10;
/// As [`OLTP_POST_ATTACK_TXNS`], for `live_repair` (as `mttr --live`).
const HISTORY_POST_ATTACK_TXNS: u64 = 30;

/// Longest OLTP steady window on one database.
const STEADY_WINDOW: Duration = Duration::from_secs(5);

/// Share of an OLTP run's `--seconds` spent in steady windows; the rest
/// goes to the incidents repaired after each window.
const STEADY_SHARE: f64 = 2.0 / 3.0;
/// Least number of incidents an OLTP run repairs after each steady window.
const MIN_INCIDENTS_PER_WINDOW: usize = 3;

/// First stream number of a run's incidents (steady windows count up
/// from 0).
const INCIDENT_STREAMS: u64 = 1000;
/// Least number of incidents a `live_repair` end-to-end run repairs.
const MIN_LIVE_INCIDENTS: usize = 3;
/// Incidents a traced run repairs for the live-repair statistics.
const TRACED_INCIDENTS: usize = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §5.2 read/write mix on W=10, two pinned closed-loop clients.
    OltpRw,
    /// Read-intensive mix (Stock-Level only) on W=10, one client.
    OltpRead,
    /// Fresh W=2 incidents repaired live under one clean client.
    LiveRepair,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::OltpRw, Workload::OltpRead, Workload::LiveRepair];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpRw => "oltp_rw",
            Workload::OltpRead => "oltp_read",
            Workload::LiveRepair => "live_repair",
        }
    }

    /// Whether this is one of the OLTP workloads.
    pub fn is_oltp(self) -> bool {
        self != Workload::LiveRepair
    }

    /// The TPC-C sizing of the workload's database.
    pub fn config(self) -> TpccConfig {
        TpccConfig::scaled(if self.is_oltp() { 10 } else { 2 })
    }

    /// The clients whose transactions set the history up: the OLTP
    /// clients themselves, or the single `live_repair` history client.
    pub fn history_clients(self, seed: u64) -> Vec<Box<dyn Client>> {
        let config = self.config();
        match self {
            Workload::OltpRw => (0..2u32)
                .map(|t| {
                    let runner = TpccRunner::new(config.clone(), stream(seed, u64::from(t)))
                        .without_annotations()
                        .with_home_warehouse(t + 1);
                    TpccClient::boxed(runner, Mix::read_write(1).kinds().to_vec())
                })
                .collect(),
            Workload::OltpRead => {
                let runner = TpccRunner::new(config, stream(seed, 0)).without_annotations();
                vec![TpccClient::boxed(runner, vec![TxnKind::StockLevel])]
            }
            Workload::LiveRepair => {
                let runner = TpccRunner::new(config, stream(seed, 10));
                let mix = Mix::standard(
                    (HISTORY_TXNS + HISTORY_POST_ATTACK_TXNS) as usize,
                    stream(seed, 11),
                );
                vec![TpccClient::boxed(runner, mix.kinds().to_vec())]
            }
        }
    }

    /// Transactions each history client runs before the attack.
    pub fn history_txns(self) -> u64 {
        if self.is_oltp() {
            OLTP_PRELUDE_TXNS
        } else {
            HISTORY_TXNS
        }
    }

    /// Transactions each history client runs after the attack.
    pub fn post_attack_txns(self) -> u64 {
        if self.is_oltp() {
            OLTP_POST_ATTACK_TXNS
        } else {
            HISTORY_POST_ATTACK_TXNS
        }
    }
}

/// A per-client seed derived from the run's seed.
fn stream(seed: u64, client: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(client)
}

/// One closed-loop client: each call runs one transaction.
pub trait Client: Send {
    /// Runs one transaction; deadlock victims are retried inside.
    fn txn(&mut self, conn: &mut dyn Connection) -> Result<(), WireError>;

    /// Deadlock retries so far.
    fn retries(&self) -> u64 {
        0
    }

    /// Warehouse-2 updates committed so far (the clean client's writes).
    fn served_updates(&self) -> u64 {
        0
    }
}

/// A client with its own tracked connection.
pub type Connected = (Box<dyn Client>, Box<dyn Connection>);

/// A TPC-C client cycling through a list of transaction kinds.
struct TpccClient {
    runner: TpccRunner,
    kinds: Vec<TxnKind>,
    next: usize,
}

impl TpccClient {
    fn boxed(runner: TpccRunner, kinds: Vec<TxnKind>) -> Box<dyn Client> {
        Box::new(Self {
            runner,
            kinds,
            next: 0,
        })
    }
}

impl Client for TpccClient {
    fn txn(&mut self, conn: &mut dyn Connection) -> Result<(), WireError> {
        let kind = self.kinds[self.next % self.kinds.len()];
        self.next += 1;
        self.runner.run(conn, kind)
    }

    fn retries(&self) -> u64 {
        self.runner.stats.deadlock_retries
    }
}

/// The clean client of `mttr --live`: item reads alternating with
/// warehouse-2 updates, neither of which the forged payment on
/// warehouse 1 can reach. Each is one autocommit statement, so a
/// statement parked on the fence holds no transaction open and the
/// repair's drain never waits for it.
#[derive(Debug, Default)]
pub struct CleanClient {
    attempts: u64,
    served_updates: u64,
}

/// The row the clean client's updates accumulate into.
pub const WAREHOUSE_2_YTD: &str = "SELECT w_ytd FROM warehouse WHERE w_id = 2";

impl Client for CleanClient {
    fn txn(&mut self, conn: &mut dyn Connection) -> Result<(), WireError> {
        self.attempts += 1;
        let update = self.attempts % 2 == 1;
        conn.execute(if update {
            "UPDATE warehouse SET w_ytd = w_ytd + 1.0 WHERE w_id = 2"
        } else {
            "SELECT i_price FROM item WHERE i_id = 1"
        })?;
        if update {
            self.served_updates += 1;
        }
        Ok(())
    }

    fn served_updates(&self) -> u64 {
        self.served_updates
    }
}

/// When a client loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until<'a> {
    /// After this many attempts.
    Count(u64),
    /// At this instant.
    Deadline(Instant),
    /// Once the flag is set.
    Flag(&'a AtomicBool),
}

/// What one client loop measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// Latency of each committed transaction, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Time spent in counted attempts, nanoseconds.
    pub busy_ns: u64,
    /// Counted attempts, deadlock retries included.
    pub attempted: u64,
    /// Counted attempts that committed.
    pub committed: u64,
    /// Counted attempts that did not commit.
    pub failed: u64,
    /// When the client first saw the containment fence up.
    pub fence_seen: Option<Instant>,
    /// Time spent in counted attempts the fence parked, nanoseconds.
    pub held_ns: u64,
}

/// Runs `client` closed-loop on `conn` until `until`. Only attempts that
/// start while `window` is set (always, without one) are counted. With a
/// `fence`, the client checks before each transaction whether it is up,
/// and an attempt during which the fence parked a statement counts as
/// held (the client is the fence's only user while it is up).
pub fn drive(
    client: &mut dyn Client,
    conn: &mut dyn Connection,
    until: Until<'_>,
    window: Option<&AtomicBool>,
    fence: Option<&Fence>,
) -> Drive {
    let mut d = Drive::default();
    let mut attempts = 0;
    loop {
        let done = match until {
            Until::Count(n) => attempts >= n,
            Until::Deadline(t) => Instant::now() >= t,
            Until::Flag(flag) => flag.load(Ordering::SeqCst),
        };
        if done {
            return d;
        }
        attempts += 1;
        if d.fence_seen.is_none() && fence.is_some_and(Fence::is_active) {
            d.fence_seen = Some(Instant::now());
        }
        let counted = window.is_none_or(|w| w.load(Ordering::SeqCst));
        let retries = client.retries();
        let deferred = fence.map(|f| f.stats().deferred);
        let start = Instant::now();
        let result = client.txn(conn);
        if result.is_err() {
            // A refused statement leaves the transaction open.
            let _ = conn.execute("ROLLBACK");
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if !counted {
            continue;
        }
        let retried = client.retries() - retries;
        d.attempted += 1 + retried;
        d.failed += retried;
        d.busy_ns += ns;
        if fence.map(|f| f.stats().deferred) != deferred {
            d.held_ns += ns;
        }
        if result.is_ok() {
            d.committed += 1;
            d.latencies_ns.push(ns);
        } else {
            d.failed += 1;
        }
    }
}

/// Runs every client on its own thread until `until`, and `main` on the
/// calling thread meanwhile.
pub fn drive_all<R>(
    clients: &mut [Connected],
    until: Until<'_>,
    window: Option<&AtomicBool>,
    fence: Option<&Fence>,
    main: impl FnOnce() -> R,
) -> (Vec<Drive>, R) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|(client, conn)| {
                scope.spawn(move || drive(client.as_mut(), conn.as_mut(), until, window, fence))
            })
            .collect();
        let result = main();
        let drives = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (drives, result)
    })
}

/// Runs `n` transactions on each client in turn, one client at a time, and
/// checks that every one of them committed.
pub fn drive_each(clients: &mut [Connected], n: u64, report: &mut Report) -> Vec<Drive> {
    let drives: Vec<Drive> = clients
        .iter_mut()
        .map(|(client, conn)| drive(client.as_mut(), conn.as_mut(), Until::Count(n), None, None))
        .collect();
    let failed: u64 = drives.iter().map(|d| d.failed).sum();
    report.check("history_commits", failed == 0, || {
        format!("{failed} history transactions did not commit")
    });
    drives
}

/// Which stack a database is served through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// The `ResilientDb` facade exactly as users get it.
    Facade,
    /// The facade's stack rebuilt from public parts, with timing meters.
    Traced,
    /// The facade with telemetry and the flight recorder switched off.
    FacadeQuiet,
}

/// A tracked database and the driver clients connect through.
pub enum Stack {
    /// Built by [`ResilientDb::builder`].
    Facade(ResilientDb),
    /// Built by hand with a [`TimingDriver`] under the proxy.
    Traced {
        /// The database.
        db: Database,
        /// Tracking proxy over the timing driver.
        driver: InterceptDriver<TimingDriver>,
        /// One downstream tap per connection, in connect order.
        taps: Taps,
        /// One client-side meter per connection, in connect order.
        meters: Mutex<Vec<Arc<Meter>>>,
    },
}

impl Stack {
    /// Builds a stack of `kind` and loads the workload's TPC-C database.
    pub fn build(kind: StackKind, workload: Workload) -> Stack {
        let stack = match kind {
            StackKind::Facade | StackKind::FacadeQuiet => {
                let rdb = ResilientDb::builder(Flavor::Postgres)
                    .containment(CONTAINMENT)
                    .build()
                    .expect("build the facade");
                if kind == StackKind::FacadeQuiet {
                    rdb.telemetry().set_enabled(false);
                    rdb.flight_recorder().set_enabled(false);
                }
                Stack::Facade(rdb)
            }
            StackKind::Traced => {
                // What `ResilientDbBuilder::build` assembles, with the
                // timing driver slotted under the proxy.
                let telemetry = Telemetry::recording();
                telemetry.flight().set_enabled(true);
                let sim =
                    SimContext::with_telemetry(CostModel::free(), usize::MAX, telemetry.clone());
                let db = Database::new("resildb", Flavor::Postgres, sim.clone());
                let native = NativeDriver::new(db.clone(), LinkProfile::local());
                prepare_database(&mut *native.connect().expect("native connect"))
                    .expect("install tracking tables");
                let config = ProxyConfig::builder(Flavor::Postgres)
                    .track_reads(true)
                    .record_deps_at_commit(true)
                    .granularity(TrackingGranularity::Row)
                    .containment(CONTAINMENT)
                    .telemetry(telemetry)
                    .build();
                let taps = Taps::default();
                let driver = InterceptDriver::new(
                    TimingDriver::new(native, Arc::clone(&taps)),
                    TrackingProxy::factory_with_sim(config, sim),
                );
                Stack::Traced {
                    db,
                    driver,
                    taps,
                    meters: Mutex::default(),
                }
            }
        };
        Loader::new(workload.config(), POPULATION_SEED)
            .load(&mut *stack.connect())
            .expect("load TPC-C");
        stack
    }

    /// A tracked connection.
    pub fn connect(&self) -> Box<dyn Connection> {
        match self {
            Stack::Facade(rdb) => rdb.connect().expect("connect"),
            Stack::Traced { driver, meters, .. } => {
                let meter = Arc::new(Meter::default());
                meters
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Arc::clone(&meter));
                Box::new(MeteredConnection::new(
                    driver.connect().expect("connect"),
                    meter,
                ))
            }
        }
    }

    /// The database.
    pub fn db(&self) -> &Database {
        match self {
            Stack::Facade(rdb) => rdb.database(),
            Stack::Traced { db, .. } => db,
        }
    }

    /// The facade; only facade stacks run live repairs.
    pub fn facade(&self) -> &ResilientDb {
        match self {
            Stack::Facade(rdb) => rdb,
            Stack::Traced { .. } => panic!("live repair needs the facade's proxy runtime"),
        }
    }

    /// The meter readings of the `i`-th connection made (traced stacks).
    fn reading(&self, i: usize) -> Reading {
        match self {
            Stack::Facade(_) => Reading::default(),
            Stack::Traced { taps, meters, .. } => {
                let meters = meters.lock().unwrap_or_else(PoisonError::into_inner);
                let taps = taps.lock().unwrap_or_else(PoisonError::into_inner);
                Reading::of(&meters[i], &taps[i])
            }
        }
    }
}

/// A set-up stack with its clients connected and the history run.
pub struct Prepared {
    /// The stack.
    pub stack: Stack,
    /// The history clients with their connections.
    pub clients: Vec<Connected>,
    /// Time to build, load and run the history.
    pub setup: Duration,
    /// What the single-threaded history measured, per client.
    history: Vec<Drive>,
    /// What the history did, from the simulator's counters: downstream
    /// statements (wire round trips), rows touched and log bytes.
    history_counts: [u64; 3],
    /// Meter readings over the history, per client (traced stacks).
    history_readings: Vec<Reading>,
    /// Metrics before and after the history.
    history_metrics: (MetricsSnapshot, MetricsSnapshot),
}

/// Builds a stack, connects the history clients and runs the
/// single-threaded history: the OLTP warm-up, or the whole `live_repair`
/// incident history. Connection `i` is client `i`'s.
pub fn prepare(kind: StackKind, workload: Workload, seed: u64, report: &mut Report) -> Prepared {
    let start = Instant::now();
    let stack = Stack::build(kind, workload);
    let mut clients: Vec<_> = workload
        .history_clients(seed)
        .into_iter()
        .map(|c| (c, stack.connect()))
        .collect();
    let before = client_readings(&stack, clients.len());
    let m0 = clients[0].1.metrics();
    let counts = || {
        let stats = stack.db().sim().stats();
        [
            stats.round_trips.get(),
            stats.rows_touched.get(),
            stats.log_bytes.get(),
        ]
    };
    let counts_before = counts();
    let history = drive_each(&mut clients, workload.history_txns(), report);
    let history_counts: [u64; 3] = std::array::from_fn(|i| counts()[i] - counts_before[i]);
    let history_metrics = (m0, clients[0].1.metrics());
    let history_readings = client_readings(&stack, clients.len())
        .iter()
        .zip(&before)
        .map(|(a, b)| a.since(b))
        .collect();
    Prepared {
        stack,
        clients,
        setup: start.elapsed(),
        history,
        history_counts,
        history_readings,
        history_metrics,
    }
}

/// The meter readings of the first `n` client connections: the ones made
/// after the loader's.
fn client_readings(stack: &Stack, n: usize) -> Vec<Reading> {
    (1..=n).map(|i| stack.reading(i)).collect()
}

impl Prepared {
    fn readings(&self) -> Vec<Reading> {
        client_readings(&self.stack, self.clients.len())
    }
}

/// Client traffic measured over one window of wall time: an OLTP steady
/// window, or the repair of one incident.
pub struct Window {
    /// Per-client results.
    pub drives: Vec<Drive>,
    /// The window's wall time.
    pub elapsed: Duration,
}

impl Window {
    fn committed(&self) -> u64 {
        self.drives.iter().map(|d| d.committed).sum()
    }

    fn attempted(&self) -> u64 {
        self.drives.iter().map(|d| d.attempted).sum()
    }

    fn tps(&self) -> f64 {
        ratio(self.committed() as f64, self.elapsed.as_secs_f64())
    }

    /// Mean committed-transaction latency, microseconds.
    fn mean_latency_us(&self) -> f64 {
        let (sum, n) = self.drives.iter().fold((0u64, 0u64), |(sum, n), d| {
            (
                sum + d.latencies_ns.iter().sum::<u64>(),
                n + d.latencies_ns.len() as u64,
            )
        });
        ratio(sum as f64, n as f64) / 1e3
    }

    /// The `q`-quantile of committed-transaction latency, microseconds.
    fn latency_us(&self, q: f64) -> f64 {
        let mut all: Vec<u64> = self
            .drives
            .iter()
            .flat_map(|d| d.latencies_ns.iter().copied())
            .collect();
        all.sort_unstable();
        quantile(&all, q) / 1e3
    }
}

/// Records `tps`, `txn_mean_us` and `txn_p95_us`: each is taken per
/// window, and the run reports the median over its windows.
///
/// The typical latency is the mean, not the median. On a shared host the
/// CPU can switch between a fast and a slow speed every half second or so
/// (up to 1.4x apart on a 2-vCPU Xeon VM), which makes the latencies of a
/// uniform transaction such as Stock-Level a two-humped mixture. Its
/// median jumps between the humps as their shares move from run to run;
/// its mean moves in proportion. The tail is the 95th percentile, not the
/// 99th: with as many busy threads as CPUs, the host's bursts of
/// preemption push the top 2% of a window's latencies up to 3x from one
/// run to the next, while the 95th percentile moves by about a tenth.
fn report_windows(report: &mut Report, windows: &[Window]) {
    for w in windows {
        report.attempted += w.attempted();
        report.failed += w.drives.iter().map(|d| d.failed).sum::<u64>();
    }
    let of = |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    report.metric("tps", of(&Window::tps), "1/s");
    report.metric("txn_mean_us", of(&Window::mean_latency_us), "us");
    report.metric("txn_p95_us", of(&|w| w.latency_us(0.95)), "us");
}

/// Every client closed-loop for `seconds`.
fn steady(p: &mut Prepared, seconds: Duration) -> Window {
    let start = Instant::now();
    let (drives, ()) = drive_all(
        &mut p.clients,
        Until::Deadline(start + seconds),
        None,
        None,
        || (),
    );
    Window {
        drives,
        elapsed: start.elapsed(),
    }
}

/// Sets up the run's next incident from its own stream and repairs it
/// live. Only the run's first incident gets a broken input.
fn next_incident(
    args: &Args,
    incidents: &mut Vec<incident::Repaired>,
    setups: &mut Vec<Duration>,
    report: &mut Report,
) {
    let i = incidents.len() as u64;
    let inc = incident::build(
        args.workload,
        stream(args.seed, INCIDENT_STREAMS + i),
        report,
    );
    setups.push(inc.setup);
    let sabotage = args.sabotage.filter(|_| i == 0);
    incidents.push(incident::repair_live(inc, sabotage, report));
}

/// One OLTP steady window on a fresh set-up with its own stream, checked
/// on its own. Only the run's first window gets a broken input.
fn steady_window(
    args: &Args,
    i: u64,
    seconds: Duration,
    setups: &mut Vec<Duration>,
    report: &mut Report,
) -> Window {
    let mut p = prepare(
        StackKind::Facade,
        args.workload,
        stream(args.seed, i),
        report,
    );
    setups.push(p.setup);
    let db = p.stack.db();
    let trans_dep_before = db.row_count("trans_dep").expect("trans_dep rows");
    let wal_from = db.wal_records().len();
    let window = steady(&mut p, seconds);
    let sabotage = args.sabotage.filter(|_| i == 0);
    incident::check_tracking(&p.stack, wal_from, trans_dep_before, sabotage, report);
    window
}

/// `--trace 0`: the end-to-end metrics.
pub fn run_end_to_end(args: &Args, report: &mut Report) {
    let w = args.workload;
    let start = Instant::now();
    let (mut setups, mut incidents) = (Vec::new(), Vec::new());
    // The measured client transactions: the OLTP steady windows, or the
    // clean client's attempts while each incident was being repaired.
    let windows: Vec<Window> = if w.is_oltp() {
        // The engine keeps its whole log in memory, so the steady pass
        // runs in windows of at most `STEADY_WINDOW`, each on a fresh
        // set-up. Windows and incidents alternate, so both sample the
        // whole run.
        let steady_total = args.seconds.mul_f64(STEADY_SHARE);
        let n = steady_total.as_secs_f64() / STEADY_WINDOW.as_secs_f64();
        let n = n.ceil().max(1.0) as u32;
        let incident_slice = (args.seconds - steady_total) / n;
        let mut windows = Vec::new();
        for i in 0..n {
            windows.push(steady_window(
                args,
                u64::from(i),
                steady_total / n,
                &mut setups,
                report,
            ));
            let (from, least) = (Instant::now(), (i as usize + 1) * MIN_INCIDENTS_PER_WINDOW);
            while incidents.len() < least || from.elapsed() < incident_slice {
                next_incident(args, &mut incidents, &mut setups, report);
            }
        }
        windows
    } else {
        while incidents.len() < MIN_LIVE_INCIDENTS || start.elapsed() < args.seconds {
            next_incident(args, &mut incidents, &mut setups, report);
        }
        incidents
            .iter_mut()
            .map(|i| Window {
                drives: std::mem::take(&mut i.drives),
                elapsed: i.mttr,
            })
            .collect()
    };
    report_windows(report, &windows);
    incident::report_end_to_end(&incidents, report);

    let (pg, sybase) = vt_overhead(w);
    report.metric("vt_overhead_pct", pg, "%");
    report.metric("vt_overhead_pct_sybase", sybase, "%");
    let setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    report.metric("setup_s", median(&setups), "s");
}

/// The Figure 4 tracking overhead of the workload's mix in virtual time
/// (paper cost model, networked, full scale), for PostgreSQL and Sybase.
/// Deterministic: it depends on neither the seed nor the machine.
pub fn vt_overhead(w: Workload) -> (f64, f64) {
    let cell = |flavor| match w {
        Workload::OltpRw => fig4::run_cell(flavor, true, false, true, Scale::Full).overhead_pct(),
        Workload::OltpRead => fig4::run_cell(flavor, true, true, true, Scale::Full).overhead_pct(),
        Workload::LiveRepair => standard_mix_overhead(flavor),
    };
    (cell(Flavor::Postgres), cell(Flavor::Sybase))
}

/// `fig4`'s recipe applied to the `live_repair` history: the standard
/// TPC-C mix on W=2, with `fig4`'s cost model, link, pool, proxy
/// configuration and fixed seeds.
fn standard_mix_overhead(flavor: Flavor) -> f64 {
    let tps = |setup| {
        let config = TpccConfig::scaled(2);
        let sim = SimContext::new(costs::networked(), costs::POOL_PAGES);
        let pc = ProxyConfig::builder(flavor)
            .record_provenance(false)
            .record_read_only_deps(true)
            .build();
        let mut bench = resildb_bench::prepare(
            flavor,
            setup,
            &config,
            sim,
            LinkProfile::lan(),
            Some(pc),
            42,
        )
        .expect("prepare the virtual-time cell");
        let mut runner = TpccRunner::new(config, 7).without_annotations();
        let t0 = bench.db.sim().clock().now();
        let committed = Mix::standard(500, 11)
            .run(&mut runner, &mut *bench.conn)
            .expect("virtual-time mix");
        committed as f64 / (bench.db.sim().clock().now() - t0).as_secs_f64()
    };
    resildb_bench::pct(tps(Setup::Baseline), tps(Setup::Tracked))
}

/// `--trace 1`: the per-layer metrics.
pub fn run_traced(args: &Args, report: &mut Report) {
    let w = args.workload;
    let mut incidents = Vec::new();
    for _ in 0..TRACED_INCIDENTS {
        next_incident(args, &mut incidents, &mut Vec::new(), report);
    }
    incident::report_live_stats(&incidents, report);
    let skewed = args.sabotage == Some(Sabotage::SkewSeed);
    let skewed_seed = if skewed { args.seed + 1 } else { args.seed };
    incident::quiesced_phases(w, args.seed, skewed_seed, report);

    // The same seed on three stacks: the facade, the traced rebuild and
    // the facade with telemetry off. Their histories must do the same.
    let pass = (args.seconds / 3).min(STEADY_WINDOW);
    let (mut counts, mut measured) = (Vec::new(), Vec::new());
    let mut traced_history = Reading::default();
    for kind in [StackKind::Facade, StackKind::Traced, StackKind::FacadeQuiet] {
        let seed = if kind == StackKind::FacadeQuiet {
            skewed_seed
        } else {
            args.seed
        };
        let mut p = prepare(kind, w, seed, report);
        counts.push(p.history_counts);
        if kind == StackKind::Traced {
            traced_history = sum_readings(&p.history_readings);
        }
        measured.push(measure(w, &mut p, pass));
    }
    let traced_downstream = traced_history.downstream_stmts();
    report.check(
        "deterministic_counts",
        counts.iter().all(|c| *c == counts[0]) && traced_downstream == counts[0][0],
        || {
            format!(
                "same-seed histories on the facade, traced and quiet stacks: \
                 (downstream statements, rows touched, log bytes) {counts:?}; \
                 the traced stack's taps saw {traced_downstream} statements"
            )
        },
    );
    report.metric(
        "proxy.downstream_per_client_stmt",
        ratio(
            traced_downstream as f64,
            traced_history.client_stmts() as f64,
        ),
        "stmt/stmt",
    );
    for m in &measured {
        report.attempted += m.window.attempted();
        report.failed += m.window.drives.iter().map(|d| d.failed).sum::<u64>();
    }
    let [facade, traced, quiet] = &measured[..] else {
        unreachable!("three stacks were measured")
    };
    let ledger = Ledger {
        txns: traced.window.committed(),
        txn_ns: traced.window.drives.iter().map(|d| d.busy_ns).sum(),
        reading: traced.reading,
    };
    let tps = |m: &Measured| m.window.tps();
    let overhead_share = ratio(tps(facade) - tps(traced), tps(facade));
    ledger.report(w.name(), overhead_share, report);
    report_counts(&ledger, &traced.metrics.0, &traced.metrics.1, report);
    report.metric(
        "telemetry.on_cost_share",
        ratio(tps(quiet) - tps(facade), tps(quiet)),
        "fraction",
    );
    report.metric("trace.overhead_share", overhead_share, "fraction");
}

/// One stack's measured client pass in a traced run.
struct Measured {
    window: Window,
    /// Meter deltas over the pass (traced stack).
    reading: Reading,
    /// Metrics before and after the pass.
    metrics: (MetricsSnapshot, MetricsSnapshot),
}

/// The pass the per-layer numbers come from: an OLTP steady window of
/// `seconds`, or the incident history `live_repair` already ran (one
/// client, so its busy time is its wall time).
fn measure(w: Workload, p: &mut Prepared, seconds: Duration) -> Measured {
    if !w.is_oltp() {
        let drives = std::mem::take(&mut p.history);
        let busy = drives.iter().map(|d| d.busy_ns).sum();
        return Measured {
            window: Window {
                drives,
                elapsed: Duration::from_nanos(busy),
            },
            reading: sum_readings(&p.history_readings),
            metrics: std::mem::take(&mut p.history_metrics),
        };
    }
    let before = p.readings();
    let m0 = p.clients[0].1.metrics();
    let window = steady(p, seconds);
    let after = p.readings();
    let deltas: Vec<Reading> = after.iter().zip(&before).map(|(a, b)| a.since(b)).collect();
    Measured {
        window,
        reading: sum_readings(&deltas),
        metrics: (m0, p.clients[0].1.metrics()),
    }
}

fn sum_readings(readings: &[Reading]) -> Reading {
    let mut sum = Reading::default();
    for r in readings {
        sum.add(r);
    }
    sum
}

/// Per-layer counts over the traced pass, from the metrics snapshots
/// taken before and after it.
fn report_counts(ledger: &Ledger, m0: &MetricsSnapshot, m1: &MetricsSnapshot, report: &mut Report) {
    let d = |name: &str| (m1.counter(name) - m0.counter(name)) as f64;
    let txns = ledger.txns.max(1) as f64;
    let (rw_hits, rw_misses) = (
        d("proxy.rewrite_cache.hits"),
        d("proxy.rewrite_cache.misses"),
    );
    let (st_hits, st_misses) = (d("engine.stmt_cache.hits"), d("engine.stmt_cache.misses"));
    report.metric(
        "proxy.rewrite_cache.hit_ratio",
        ratio(rw_hits, rw_hits + rw_misses),
        "fraction",
    );
    report.metric(
        "sql.cold_parses_per_1k_stmts",
        ratio(
            1e3 * (rw_misses + st_misses),
            ledger.reading.client_stmts() as f64,
        ),
        "count",
    );
    report.metric(
        "engine.stmt_cache.hit_ratio",
        ratio(st_hits, st_hits + st_misses),
        "fraction",
    );
    report.metric(
        "engine.rows_touched_per_txn",
        d("sim.rows_touched") / txns,
        "count",
    );
    report.metric("engine.log_bytes_per_txn", d("sim.log_bytes") / txns, "B");
    let commits = ledger.reading.engine[5].0 as f64;
    report.metric(
        "engine.log_forces_per_commit",
        ratio(d("sim.log_forces"), commits),
        "count",
    );
    report.metric(
        "sim.page_accesses_per_txn",
        (d("sim.page_hits") + d("sim.page_misses")) / txns,
        "count",
    );
}

//! Deterministic performance-simulation substrate for resildb.
//!
//! The DSN 2004 paper measures the tracking proxy's throughput penalty on
//! real hardware (IDE disks, a 100 Mbps LAN). This crate replaces those
//! physical resources with a *virtual-time* model so the benchmark harness
//! can reproduce the **shape** of the paper's Figure 4 deterministically and
//! in milliseconds of wall-clock time:
//!
//! * [`VirtualClock`] — a monotonically advancing microsecond counter that
//!   engine components charge costs to;
//! * [`CostModel`] — latency parameters for page I/O, log forces, per-row
//!   CPU work and network round trips;
//! * [`BufferPool`] — an LRU page cache deciding which logical page accesses
//!   hit memory and which pay the disk-read cost (this is what makes the
//!   paper's small-footprint `W=1` vs. large-footprint `W=10` axis work);
//! * [`SimStats`] — counters for everything charged.
//!
//! All pieces are bundled in a cheaply cloneable [`SimContext`].
//!
//! # Examples
//!
//! ```
//! use resildb_sim::{CostModel, PageKey, SimContext};
//!
//! let sim = SimContext::new(CostModel::disk_bound_oltp(), 64);
//! // First touch of a page misses and pays the read latency.
//! sim.charge_page_read(PageKey::new(1, 0));
//! let after_miss = sim.clock().now();
//! // Second touch hits the pool: only CPU-scale cost.
//! sim.charge_page_read(PageKey::new(1, 0));
//! assert!(sim.clock().now() - after_miss < after_miss);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod buffer;
mod clock;
mod cost;
mod fault;
mod lru;
mod rng;
mod stats;

pub use buffer::{BufferPool, PageAccess, PageKey};
pub use clock::{Micros, VirtualClock};
pub use cost::CostModel;
pub use fault::{failpoints, FaultAction, FaultPlan, FaultTrigger, InjectedFault};
pub use lru::LruMap;
pub use rng::DetRng;
pub use stats::SimStats;

// Telemetry (spans, histograms, metric registry) rides on the simulation
// context so every layer sharing a `SimContext` also shares one metrics
// domain. Re-exported here so downstream crates need no extra dependency.
pub use resildb_telemetry as telemetry;
pub use resildb_telemetry::{
    EventKind, FlightRecorder, HistogramSnapshot, IncidentDecomposition, IncidentMark,
    IncidentPhase, IncidentRecord, IncidentTimeline, MetricsRegistry, MetricsServer,
    MetricsSnapshot, OwnedSpan, Recorder, ServerRoutes, Span, Telemetry, TraceEvent, TraceSnapshot,
    TraceVerdict,
};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

std::thread_local! {
    /// Virtual-time charges accrued by this OS thread since it last paid
    /// them off (realtime mode only). Kept thread-local so accrual never
    /// contends and sleeps are attributable to the thread that incurred
    /// the cost.
    static PENDING_WAIT_MICROS: Cell<u64> = const { Cell::new(0) };

    /// Wall-clock time this thread over-slept on earlier payments
    /// (`thread::sleep` overshoots by scheduler latency). Credited against
    /// the next payment so the thread's cumulative real wait tracks its
    /// cumulative virtual charge instead of drifting by one overshoot per
    /// statement — the drift, not the virtual costs, would otherwise
    /// dominate wall-clock measurements.
    static WAIT_CREDIT_MICROS: Cell<u64> = const { Cell::new(0) };
}

/// Shared handle bundling the clock, cost model, buffer pool and counters.
///
/// Cloning is cheap (`Arc` internally); every clone observes the same
/// virtual time and cache state, so a server engine and the proxy layered on
/// top of it charge one common timeline.
#[derive(Debug, Clone)]
pub struct SimContext {
    inner: Arc<SimInner>,
}

#[derive(Debug)]
struct SimInner {
    clock: VirtualClock,
    cost: CostModel,
    pool: Mutex<BufferPool>,
    stats: SimStats,
    faults: FaultPlan,
    telemetry: Telemetry,
    /// When set, every virtual-time charge also accrues to the charging
    /// thread's pending-wait balance (see [`SimContext::pay_pending_wait`])
    /// so wall-clock benchmarks experience simulated device latencies as
    /// real, overlappable waits.
    realtime: AtomicBool,
}

impl SimContext {
    /// Creates a context with the given cost model and buffer-pool capacity
    /// (in pages). Telemetry starts *disabled* — span guards cost one
    /// relaxed atomic load — so raw engine paths and benchmarks pay
    /// nothing; use [`Self::with_telemetry`] (or the facade, which
    /// enables recording) to collect spans.
    pub fn new(cost: CostModel, pool_pages: usize) -> Self {
        Self::with_telemetry(cost, pool_pages, Telemetry::disabled())
    }

    /// Creates a context recording into the given telemetry domain.
    /// Sharing one [`Telemetry`] across several contexts (e.g. benchmark
    /// cells) accumulates their spans into a single registry.
    pub fn with_telemetry(cost: CostModel, pool_pages: usize, telemetry: Telemetry) -> Self {
        Self {
            inner: Arc::new(SimInner {
                clock: VirtualClock::new(),
                cost,
                pool: Mutex::new(BufferPool::new(pool_pages)),
                stats: SimStats::default(),
                faults: FaultPlan::new(),
                telemetry,
                realtime: AtomicBool::new(false),
            }),
        }
    }

    /// A context with zero costs — useful in functional tests where timing
    /// is irrelevant.
    pub fn free() -> Self {
        Self::new(CostModel::free(), usize::MAX)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &SimStats {
        &self.inner.stats
    }

    /// The fault-injection plan shared by every layer of this simulation.
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }

    /// The telemetry domain shared by every layer of this simulation.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Advances the virtual clock and, in realtime mode, accrues the same
    /// span to the charging thread's pending-wait balance.
    fn tick(&self, d: Micros) {
        self.inner.clock.advance(d);
        if d != Micros::ZERO && self.inner.realtime.load(Ordering::Relaxed) {
            PENDING_WAIT_MICROS.with(|w| w.set(w.get() + d.as_micros()));
        }
    }

    /// Advances the virtual clock by an explicit amount — used by layers
    /// with their own cost models (the tracking proxy's rewrite CPU). Flows
    /// through the same path as every built-in charge, so realtime mode
    /// accrues it to the calling thread's pending-wait balance too.
    pub fn advance(&self, d: Micros) {
        self.tick(d);
    }

    /// Switches realtime mode on or off. In realtime mode every virtual
    /// charge is also owed as real wall-clock time by the thread that
    /// incurred it, to be slept off at a latch-free point via
    /// [`Self::pay_pending_wait`]. The virtual clock keeps advancing
    /// exactly as before, so metrics and determinism are unaffected —
    /// realtime mode only adds wall-clock realism on top.
    pub fn set_realtime(&self, on: bool) {
        self.inner.realtime.store(on, Ordering::Relaxed);
    }

    /// Sleeps off the calling thread's accrued virtual-time balance (no-op
    /// when nothing is owed or realtime mode is off). Callers must hold no
    /// engine latches: the wire layer invokes this once per statement,
    /// after the engine has released its short-term locks, which is what
    /// lets concurrent sessions overlap their simulated device waits the
    /// way real OLTP threads overlap I/O.
    pub fn pay_pending_wait(&self) {
        let owed = PENDING_WAIT_MICROS.with(Cell::take);
        if owed == 0 || !self.inner.realtime.load(Ordering::Relaxed) {
            return;
        }
        // Settle against earlier overshoot first: `thread::sleep` runs
        // long by the scheduler's timer slack, and thousands of small
        // sleeps would otherwise accumulate that slack into a drift that
        // swamps the virtual costs being simulated.
        let credit = WAIT_CREDIT_MICROS.with(Cell::take);
        if credit >= owed {
            WAIT_CREDIT_MICROS.with(|c| c.set(credit - owed));
            return;
        }
        let target = owed - credit;
        let start = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_micros(target));
        let slept = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        WAIT_CREDIT_MICROS.with(|c| c.set(c.get() + slept.saturating_sub(target)));
    }

    /// Evaluates failpoint `name`, applying [`FaultAction::Delay`] faults to
    /// the virtual clock in place; only faults the caller must surface
    /// (error / disconnect) are returned.
    pub fn fault_check(&self, name: &str) -> Option<InjectedFault> {
        let fault = self.inner.faults.check(name)?;
        // A fired fault is a forensic landmark: flight-record it (one
        // relaxed load when tracing is off) before applying its effect.
        let flight = self.inner.telemetry.flight();
        if flight.is_enabled() {
            flight.emit(
                0,
                0,
                EventKind::FaultHit {
                    failpoint: name.to_string(),
                },
            );
        }
        match fault {
            InjectedFault::Delay(d) => {
                self.inner.stats.injected_delays.add(1);
                self.tick(d);
                None
            }
            other => Some(other),
        }
    }

    /// Records a logical read of `page`, charging the page-read latency on a
    /// buffer-pool miss (plus a possible dirty-page write-back) and a small
    /// in-memory access cost on a hit. Returns whether the access hit.
    pub fn charge_page_read(&self, page: PageKey) -> PageAccess {
        let access = self.inner.pool.lock().access(page, false);
        self.apply_access_cost(&access);
        access
    }

    /// Records a logical write of `page`; same cache behaviour as
    /// [`Self::charge_page_read`] but the page is left dirty so its eventual
    /// eviction pays the write-back cost.
    pub fn charge_page_write(&self, page: PageKey) -> PageAccess {
        let access = self.inner.pool.lock().access(page, true);
        self.apply_access_cost(&access);
        access
    }

    fn apply_access_cost(&self, access: &PageAccess) {
        let cost = &self.inner.cost;
        if access.hit {
            self.inner.stats.page_hits.add(1);
            self.tick(cost.buffer_hit);
        } else {
            self.inner.stats.page_misses.add(1);
            self.tick(cost.page_read);
        }
        if access.evicted_dirty {
            self.inner.stats.pages_written.add(1);
            self.tick(cost.page_write);
        }
    }

    /// Charges a write-ahead-log append of `bytes` bytes. Log appends are
    /// sequential; the force (fsync) cost is charged separately at commit
    /// via [`Self::charge_log_force`].
    pub fn charge_log_append(&self, bytes: usize) {
        self.inner.stats.log_bytes.add(bytes as u64);
        self.tick(Micros::from_nanos(
            self.inner.cost.log_append_per_byte_ns * bytes as u64,
        ));
    }

    /// Charges the synchronous log force performed at commit.
    pub fn charge_log_force(&self) {
        self.inner.stats.log_forces.add(1);
        self.tick(self.inner.cost.log_force);
    }

    /// Charges fixed per-statement CPU cost plus per-row processing for
    /// `rows` rows touched.
    pub fn charge_statement(&self, rows: usize) {
        self.inner.stats.statements.add(1);
        self.inner.stats.rows_touched.add(rows as u64);
        let c = &self.inner.cost;
        self.tick(c.cpu_per_statement + c.cpu_per_row * rows as u64);
    }

    /// Charges one client↔server round trip carrying `bytes` bytes.
    pub fn charge_round_trip(&self, bytes: usize) {
        self.inner.stats.round_trips.add(1);
        self.inner.stats.network_bytes.add(bytes as u64);
        let c = &self.inner.cost;
        self.tick(c.network_rtt + Micros::from_nanos(c.network_per_byte_ns * bytes as u64));
    }

    /// Charges one round trip over an explicitly described link — used by
    /// the wire layer, where the client↔server and proxy↔server legs can
    /// have different latencies (paper Figure 2's dual-proxy deployment).
    pub fn charge_link(&self, rtt: Micros, per_byte_ns: u64, bytes: usize) {
        self.inner.stats.round_trips.add(1);
        self.inner.stats.network_bytes.add(bytes as u64);
        self.tick(rtt + Micros::from_nanos(per_byte_ns * bytes as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_costs_differ() {
        let sim = SimContext::new(CostModel::disk_bound_oltp(), 8);
        sim.charge_page_read(PageKey::new(1, 0));
        let t_miss = sim.clock().now();
        sim.charge_page_read(PageKey::new(1, 0));
        let t_hit = sim.clock().now() - t_miss;
        assert!(
            t_hit < t_miss,
            "hit {t_hit:?} should be cheaper than miss {t_miss:?}"
        );
        assert_eq!(sim.stats().page_hits.get(), 1);
        assert_eq!(sim.stats().page_misses.get(), 1);
    }

    #[test]
    fn dirty_eviction_charges_write_back() {
        let sim = SimContext::new(CostModel::disk_bound_oltp(), 1);
        sim.charge_page_write(PageKey::new(1, 0));
        assert_eq!(sim.stats().pages_written.get(), 0);
        // Evicts the dirty page.
        sim.charge_page_read(PageKey::new(1, 1));
        assert_eq!(sim.stats().pages_written.get(), 1);
    }

    #[test]
    fn free_context_never_advances() {
        let sim = SimContext::free();
        sim.charge_page_read(PageKey::new(1, 0));
        sim.charge_statement(100);
        sim.charge_round_trip(4096);
        sim.charge_log_append(1 << 20);
        sim.charge_log_force();
        assert_eq!(sim.clock().now(), Micros::ZERO);
    }

    #[test]
    fn clones_share_the_timeline() {
        let sim = SimContext::new(CostModel::disk_bound_oltp(), 8);
        let other = sim.clone();
        sim.charge_log_force();
        assert_eq!(sim.clock().now(), other.clock().now());
        assert!(other.clock().now() > Micros::ZERO);
    }

    #[test]
    fn statement_cost_scales_with_rows() {
        let sim = SimContext::new(CostModel::disk_bound_oltp(), 8);
        sim.charge_statement(0);
        let t0 = sim.clock().now();
        sim.charge_statement(1000);
        assert!(sim.clock().now() - t0 > t0);
    }
}

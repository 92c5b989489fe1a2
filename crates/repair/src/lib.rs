//! Selective undo of committed transactions — the repair-time half of the
//! DSN 2004 intrusion-resilience framework.
//!
//! Given an initial set of malicious/erroneous transactions identified by
//! the DBA, the [`RepairController`] (phased: `analyze → plan → execute`):
//!
//! 1. reads the DBMS transaction log through a flavor-specific
//!    [`adapters::LogAdapter`] (Oracle LogMiner SQL parsing, the
//!    PostgreSQL WAL reader, or Sybase `dbcc log`/`dbcc page` with the
//!    §4.3 in-page row-migration offset adjustment),
//! 2. correlates proxy and internal transaction ids via the `trans_dep`
//!    insert that precedes every tracked commit ([`TxnCorrelation`]),
//! 3. builds the full inter-transaction dependency graph — online read
//!    dependencies from `trans_dep` plus update/delete dependencies
//!    reconstructed from pre-image `trid` values ([`DepGraph`]),
//! 4. computes the damage closure, optionally discarding DBA-declared
//!    false dependencies ([`FalseDepRule`], paper §5.3),
//! 5. walks the log backwards executing compensating statements with
//!    old→new row-id remapping — against a quiesced database, or *live*
//!    behind the proxy's containment fence ([`RepairMode::Live`]),
//! 6. and can render the graph in GraphViz DOT (paper Figure 3).
//!
//! # Examples
//!
//! ```
//! use resildb_engine::{Database, Flavor};
//! use resildb_proxy::{prepare_database, ProxyConfig, TrackingProxy};
//! use resildb_repair::RepairController;
//! use resildb_wire::{Connection, Driver, LinkProfile, NativeDriver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let db = Database::in_memory(Flavor::Postgres);
//! let native = NativeDriver::new(db.clone(), LinkProfile::local());
//! prepare_database(&mut *native.connect()?)?;
//! let proxy = TrackingProxy::single_proxy(
//!     db.clone(), LinkProfile::local(), ProxyConfig::new(Flavor::Postgres));
//! let mut conn = proxy.connect()?;
//! conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")?;
//! conn.execute("INSERT INTO t (id, v) VALUES (1, 10)")?; // proxy txn 1
//!
//! // Undo proxy transaction 1 (and everything depending on it).
//! let report = RepairController::new(db.clone()).repair(&[1])?;
//! assert!(report.undo_set.contains(&1));
//! assert_eq!(db.row_count("t")?, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod adapters;
mod compensate;
mod controller;
mod correlate;
pub mod detect;
mod error;
pub mod explore;
mod graph;
mod progress;
mod record;
mod whatif;

pub use compensate::{CompensatingStatement, CompensationOutcome};
pub use controller::{
    Analysis, LiveRepairStats, RepairController, RepairMode, RepairOptions, RepairReport,
};
pub use correlate::TxnCorrelation;
pub use detect::{detect, AnomalyRule, Detection};
pub use error::RepairError;
pub use explore::{CausalChain, TraceExplorer};
pub use graph::{DepGraph, EdgeKind, EdgeProvenance, FalseDepRule};
pub use progress::{RepairPhase, RepairProgress};
pub use record::{NamedRow, RepairOp, RepairRecord, RowAddress};
pub use whatif::RepairPlan;

/// Whether `name` is one of the proxy's tracking tables (their rows are
/// bookkeeping, not user data).
pub fn is_tracking_table(name: &str) -> bool {
    resildb_proxy::TRACKING_TABLES
        .iter()
        .any(|t| t.eq_ignore_ascii_case(name))
}

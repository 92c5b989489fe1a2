//! CPU-mode benchmark of resildb: tracked OLTP and live repair, plus an
//! outside-in per-layer traced run.
//!
//! ```text
//! perfbench --workload <oltp_rw|oltp_read|live_repair> --seed <n>
//!           --seconds <s> --trace <0|1> [--break <check>]
//! ```
//!
//! Every timed run uses the wall clock with `CostModel::free()`: what is
//! measured is what the Rust code costs, never the simulator's cost model.
//! The only virtual-time numbers are the `vt_overhead_pct*` metrics, which
//! reproduce the paper's Figure 4 cells and are bit-deterministic.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics and the per-layer time table. The last line of standard output
//! is one JSON object; the process exits non-zero when an output check
//! fails. `--break <check>` feeds one check a deliberately broken input
//! (see [`Sabotage`]) so its failure path can be exercised.

mod incident;
mod layers;
mod report;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;
use workload::Workload;

/// A deliberately broken input for one output check. Each variant makes
/// the check it names fail; a run given one must exit non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// A write transaction bypasses the proxy, so it has no `trans_dep`
    /// row (check `trans_dep_rows`).
    UntrackedWrite,
    /// A tracked transaction is left open at the end of the steady pass
    /// (check `ledger_drained`).
    OpenTxn,
    /// The repair is started from an empty attack set (check
    /// `attack_undone`).
    NoAttack,
    /// The forged payment is replayed behind the repair's back (check
    /// `forged_value_gone`).
    Reforge,
    /// The fence is raised again after the repair (check `fence_lifted`).
    LeaveFence,
    /// One served warehouse-2 update is taken back after the repair
    /// (check `served_updates_survive`).
    DropServedUpdate,
    /// The third stack of the traced run and the twin of its quiesced
    /// incident replay another seed (checks `deterministic_counts` and,
    /// where the history writes, `deterministic_repair`; `--trace 1`
    /// only).
    SkewSeed,
}

impl Sabotage {
    const ALL: [(&'static str, Sabotage); 7] = [
        ("untracked-write", Sabotage::UntrackedWrite),
        ("open-txn", Sabotage::OpenTxn),
        ("no-attack", Sabotage::NoAttack),
        ("reforge", Sabotage::Reforge),
        ("leave-fence", Sabotage::LeaveFence),
        ("drop-served-update", Sabotage::DropServedUpdate),
        ("skew-seed", Sabotage::SkewSeed),
    ];
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Optional broken input for one output check.
    pub sabotage: Option<Sabotage>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut sabotage) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            "--break" => {
                sabotage = Some(
                    Sabotage::ALL
                        .iter()
                        .find(|(name, _)| *name == value)
                        .map(|(_, s)| *s)
                        .ok_or_else(|| format!("unknown check to break {value:?}"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sabotage,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if args.trace {
        workload::run_traced(&args, &mut report);
    } else {
        workload::run_end_to_end(&args, &mut report);
    }
    report.print()
}

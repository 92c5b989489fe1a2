//! Interactive damage-repair console — the paper §6's planned "full-scale
//! interactive database damage repair tool", as a terminal REPL.
//!
//! Starts a demo TPC-C database with an injected forged payment, then lets
//! the DBA explore the damage perimeter and execute the repair:
//!
//! ```text
//! cargo run -p resildb-bench --bin repair_console
//! repair> help
//! ```
//!
//! Commands can also be piped: `echo "closure\nrepair\nquit" | repair_console`.

// Harness target: setup failures panic with context by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::io::{BufRead, Write as _};

use resildb_core::{FalseDepRule, Flavor, LinkProfile, ProxyConfig, RepairPlan, SimContext, Value};
use resildb_tpcc::{Attack, AttackKind, Mix, TpccConfig, TpccRunner, ATTACK_LABEL};

const HELP: &str = "\
commands:
  list                      show tracked transactions and labels
  closure                   show the current undo set
  dot                       print the dependency graph (GraphViz DOT)
  seed <id>                 add a transaction to the initial attack set
  unseed <id>               remove it again
  ignore-table <t>          discard dependencies mediated by table <t>
  ignore-cols <t> <c,c,..>  discard deps existing only through those columns
  clear-rules               drop all false-dependency rules
  include <id>              force a transaction into the undo set
  exclude <id>              force a transaction out of the undo set
  repair                    execute the compensation sweep for the undo set
  help                      this text
  quit                      exit";

fn main() {
    // Demo scenario: small TPC-C database, some traffic, one forged
    // payment, more traffic.
    let config = TpccConfig::tiny();
    let pc = ProxyConfig::builder(Flavor::Postgres)
        .record_read_only_deps(true)
        .build();
    let bench = resildb_bench::prepare(
        Flavor::Postgres,
        resildb_bench::Setup::Tracked,
        &config,
        SimContext::free(),
        LinkProfile::local(),
        Some(pc),
        99,
    )
    .expect("prepare demo database");
    let mut conn = bench.conn;
    let mut runner = TpccRunner::new(config, 3);
    Mix::standard(8, 1)
        .run(&mut runner, &mut *conn)
        .expect("warmup");
    Attack {
        kind: AttackKind::ForgedPayment,
        w_id: 1,
        d_id: 1,
        target_id: 1,
    }
    .execute(&mut *conn)
    .expect("attack");
    Mix::standard(10, 2)
        .run(&mut runner, &mut *conn)
        .expect("post-attack");
    drop(conn);
    let db = bench.db;

    let tool = resildb_core::RepairController::new(db.clone());
    let analysis = tool.analyze().expect("analyze");
    let mut plan = RepairPlan::default();
    // Pre-seed with the known attack so `closure` is interesting at once.
    let mut s = db.session();
    if let Some(row) = s
        .query(&format!(
            "SELECT tr_id FROM annot WHERE descr = '{ATTACK_LABEL}'"
        ))
        .expect("annot")
        .rows
        .first()
    {
        if let Value::Int(attack) = row[0] {
            plan.add_initial(&analysis, attack);
            println!("demo database ready; attack transaction is txn {attack}");
        }
    }
    println!("{}", plan.summary(&analysis));
    println!("type `help` for commands");

    let stdin = std::io::stdin();
    loop {
        print!("repair> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => continue,
            ["help"] => println!("{HELP}"),
            ["quit"] | ["exit"] => break,
            ["list"] => {
                for txn in analysis.tracked_transactions() {
                    let marker = if plan.undo_set.contains(&txn) {
                        " [undo]"
                    } else {
                        ""
                    };
                    println!("  {txn:>4}  {}{marker}", analysis.graph.label(txn));
                }
            }
            ["closure"] => {
                println!("undo set ({}): {:?}", plan.undo_set.len(), plan.undo_set);
                println!("{}", plan.summary(&analysis));
            }
            ["dot"] => print!("{}", plan.to_dot(&analysis)),
            ["seed", id] => with_id(id, |id| {
                plan.add_initial(&analysis, id);
            }),
            ["unseed", id] => with_id(id, |id| {
                plan.remove_initial(&analysis, id);
            }),
            ["ignore-table", t] => {
                plan.add_rule(&analysis, FalseDepRule::IgnoreTable(t.to_string()));
                println!("{}", plan.summary(&analysis));
            }
            ["ignore-cols", t, cols] => {
                plan.add_rule(
                    &analysis,
                    FalseDepRule::IgnoreDerivedColumns {
                        table: t.to_string(),
                        columns: cols.split(',').map(str::to_string).collect(),
                    },
                );
                println!("{}", plan.summary(&analysis));
            }
            ["clear-rules"] => {
                plan.clear_rules(&analysis);
                println!("{}", plan.summary(&analysis));
            }
            ["include", id] => with_id(id, |id| {
                plan.force_include(&analysis, id);
            }),
            ["exclude", id] => with_id(id, |id| {
                plan.force_exclude(&analysis, id);
            }),
            ["repair"] => {
                match tool.execute(&analysis, &plan) {
                    Ok(report) => println!(
                        "repaired: {} compensating statements, {}/{} transactions saved",
                        report.outcome.statements.len(),
                        report.saved,
                        report.tracked_total
                    ),
                    Err(e) => println!("repair failed: {e}"),
                }
                break;
            }
            other => println!("unknown command {other:?}; type `help`"),
        }
    }
}

fn with_id(raw: &str, f: impl FnOnce(i64)) {
    match raw.parse::<i64>() {
        Ok(id) => f(id),
        Err(_) => println!("not a transaction id: {raw}"),
    }
}

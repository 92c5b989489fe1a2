//! End-to-end TPC-C intrusion-and-repair walkthrough, emitting the
//! paper's Figure 3 dependency graph as GraphViz DOT along the way.
//!
//! Run with: `cargo run --example tpcc_repair [--dot]`
//! (`--dot` prints only the DOT graph, ready for `| dot -Tpng`).

use resildb_core::{Error, Flavor, ProxyPlacement, ResilientDb, Value};
use resildb_tpcc::{Attack, AttackKind, Loader, Mix, TpccConfig, TpccRunner, ATTACK_LABEL};

fn main() -> Result<(), Error> {
    let dot_only = std::env::args().any(|a| a == "--dot");

    // A Sybase-flavor database behind the dual-proxy deployment — the
    // most involved configuration: identity-column injection, delta
    // logging, dbcc-based repair, server-side tracking.
    let rdb = ResilientDb::builder(Flavor::Sybase)
        .placement(ProxyPlacement::Dual)
        .build()?;
    let mut conn = rdb.connect()?;

    let config = TpccConfig::tiny();
    Loader::new(config.clone(), 2024).load(&mut *conn)?;
    if !dot_only {
        println!(
            "loaded TPC-C: {} warehouses, {} customers, {} orders",
            config.warehouses,
            config.total_customers(),
            config.total_orders()
        );
    }

    // Normal business, then a forged payment, then more business.
    let mut runner = TpccRunner::new(config, 7);
    Mix::standard(10, 1).run(&mut runner, &mut *conn)?;
    Attack {
        kind: AttackKind::ForgedPayment,
        w_id: 1,
        d_id: 1,
        target_id: 1,
    }
    .execute(&mut *conn)?;
    Mix::standard(15, 2).run(&mut runner, &mut *conn)?;

    // Analysis: dependency graph, damage closure, Figure 3 DOT.
    let attack = rdb.txn_id_by_label(ATTACK_LABEL)?.expect("attack tracked");
    let analysis = rdb.analyze()?;
    let undo = analysis.undo_set(&[attack], &[]);
    let dot = analysis.to_dot(&undo);
    if dot_only {
        print!("{dot}");
        return Ok(());
    }
    println!(
        "\ndependency graph: {} transactions, damage closure = {} transactions",
        analysis.tracked_transactions().len(),
        undo.len()
    );
    println!("--- Figure 3 (GraphViz DOT, damage highlighted) ---\n{dot}");

    // What-if: discard the warehouse.w_ytd false dependencies.
    let rules = vec![resildb_core::FalseDepRule::IgnoreDerivedColumns {
        table: "warehouse".into(),
        columns: vec!["w_ytd".into()],
    }];
    let filtered = analysis.undo_set(&[attack], &rules);
    println!(
        "what-if with w_ytd discarded: {} -> {} transactions to roll back",
        undo.len(),
        filtered.len()
    );

    // Repair with the filtered set and verify the forged money is gone.
    let before = w_ytd(&rdb)?;
    let report = rdb.repair_controller().execute(
        &analysis,
        &resildb_core::RepairPlan::new(&analysis, &[attack], &rules),
    )?;
    let after = w_ytd(&rdb)?;
    println!(
        "repair executed {} compensating statements; w_ytd {before:.2} -> {after:.2}",
        report.outcome.statements.len()
    );
    assert!(after < before, "the forged million must be gone");
    println!(
        "saved {}/{} tracked transactions ({:.0}%)",
        report.saved,
        report.tracked_total,
        report.saved_percentage()
    );
    Ok(())
}

fn w_ytd(rdb: &ResilientDb) -> Result<f64, Error> {
    let mut s = rdb.database().session();
    let r = s.query("SELECT w_ytd FROM warehouse WHERE w_id = 1")?;
    match r.rows[0][0] {
        Value::Float(v) => Ok(v),
        ref other => {
            Err(resildb_core::EngineError::Internal(format!("unexpected {other:?}")).into())
        }
    }
}

//! Property-based whole-system test: for random transactional workloads,
//! selectively undoing a random "attack" transaction leaves the database
//! in exactly the state obtained by replaying only the surviving
//! transactions in their original order.
//!
//! This is the semantic definition of the paper's repair goal ("undo the
//! damage while preserving the effects of good transactions"), used here
//! as an executable oracle.
//!
//! Workload generation never re-inserts a previously deleted primary key:
//! an insert that succeeds *because* an attacker deleted the old row is a
//! dependency through absence, which row-based read-set tracking cannot
//! see — the false-negative class the paper's §3.1 discusses.

// Test crate: unwrap/expect are the idiomatic assertion style here.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resildb_core::{Flavor, ResilientDb, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert { id: i64, v: i64 },
    Update { id: i64, delta: i64 },
    Delete { id: i64 },
    Read { id: i64 },
}

#[derive(Debug, Clone)]
struct Txn {
    label: String,
    ops: Vec<Op>,
}

/// Generates a valid workload: every op targets a live id; inserted ids
/// are never reused.
fn generate_workload(seed: u64, txn_count: usize) -> Vec<Txn> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<i64> = Vec::new();
    let mut next_id = 1i64;
    let mut txns = Vec::with_capacity(txn_count);
    for t in 0..txn_count {
        let op_count = rng.gen_range(1..=4);
        let mut ops = Vec::with_capacity(op_count);
        for op_no in 0..op_count {
            // Read-only transactions are not tracked (they cannot pollute
            // the database), so make sure the first op of each txn writes.
            let choice = if op_no == 0 {
                rng.gen_range(0..6)
            } else {
                rng.gen_range(0..10)
            };
            if live.is_empty() || choice < 3 {
                let id = next_id;
                next_id += 1;
                live.push(id);
                ops.push(Op::Insert {
                    id,
                    v: rng.gen_range(0..100),
                });
            } else if choice < 6 {
                let id = live[rng.gen_range(0..live.len())];
                ops.push(Op::Update {
                    id,
                    delta: rng.gen_range(-5..=5),
                });
            } else if choice < 8 {
                let id = live[rng.gen_range(0..live.len())];
                ops.push(Op::Read { id });
            } else {
                let idx = rng.gen_range(0..live.len());
                let id = live.swap_remove(idx);
                ops.push(Op::Delete { id });
            }
        }
        txns.push(Txn {
            label: format!("txn_{t}"),
            ops,
        });
    }
    txns
}

fn run_workload(rdb: &ResilientDb, txns: &[Txn]) {
    let mut conn = rdb.connect().unwrap();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    for txn in txns {
        conn.execute(&format!("ANNOTATE {}", txn.label)).unwrap();
        conn.execute("BEGIN").unwrap();
        for op in &txn.ops {
            let sql = match op {
                Op::Insert { id, v } => format!("INSERT INTO t (id, v) VALUES ({id}, {v})"),
                Op::Update { id, delta } => {
                    format!("UPDATE t SET v = v + {delta} WHERE id = {id}")
                }
                Op::Delete { id } => format!("DELETE FROM t WHERE id = {id}"),
                Op::Read { id } => format!("SELECT v FROM t WHERE id = {id}"),
            };
            conn.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        conn.execute("COMMIT").unwrap();
    }
}

fn final_state(rdb: &ResilientDb) -> Vec<(i64, i64)> {
    let mut s = rdb.database().session();
    s.query("SELECT id, v FROM t ORDER BY id")
        .unwrap()
        .rows
        .into_iter()
        .map(|row| match (&row[0], &row[1]) {
            (Value::Int(a), Value::Int(b)) => (*a, *b),
            other => panic!("{other:?}"),
        })
        .collect()
}

fn check_repair_matches_replay(seed: u64, txn_count: usize, attack_idx: usize, flavor: Flavor) {
    let txns = generate_workload(seed, txn_count);
    let attack_idx = attack_idx % txns.len();

    // World A: full workload, then repair from the attack txn.
    let world_a = ResilientDb::new(flavor).unwrap();
    run_workload(&world_a, &txns);
    let attack = world_a
        .txn_id_by_label(&txns[attack_idx].label)
        .unwrap()
        .expect("attack txn tracked");
    let analysis = world_a.analyze().unwrap();
    let undo = analysis.undo_set(&[attack], &[]);
    // Map undone proxy ids back to workload labels.
    let undone_labels: std::collections::HashSet<String> =
        undo.iter().map(|id| analysis.graph.label(*id)).collect();
    world_a
        .repair_controller()
        .execute(
            &analysis,
            &resildb_core::RepairPlan::new(&analysis, &[attack], &[]),
        )
        .unwrap();

    // World B: replay only the surviving transactions.
    let survivors: Vec<Txn> = txns
        .iter()
        .filter(|t| !undone_labels.contains(&t.label))
        .cloned()
        .collect();
    let world_b = ResilientDb::new(flavor).unwrap();
    run_workload(&world_b, &survivors);

    assert_eq!(
        final_state(&world_a),
        final_state(&world_b),
        "seed {seed}, {txn_count} txns, attack {attack_idx} ({}), undone {undone_labels:?}",
        txns[attack_idx].label
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn repair_equals_replay_of_survivors_postgres(
        seed in 0u64..10_000,
        txn_count in 3usize..14,
        attack_idx in 0usize..14,
    ) {
        check_repair_matches_replay(seed, txn_count, attack_idx, Flavor::Postgres);
    }

    #[test]
    fn repair_equals_replay_of_survivors_sybase(
        seed in 0u64..10_000,
        txn_count in 3usize..10,
        attack_idx in 0usize..10,
    ) {
        check_repair_matches_replay(seed, txn_count, attack_idx, Flavor::Sybase);
    }

    #[test]
    fn repair_equals_replay_of_survivors_oracle(
        seed in 0u64..10_000,
        txn_count in 3usize..10,
        attack_idx in 0usize..10,
    ) {
        check_repair_matches_replay(seed, txn_count, attack_idx, Flavor::Oracle);
    }
}

//! A table's index and page directory under schedule exploration
//! (`txsql-sim`): inserts racing lookups of the keys they insert.
//!
//! Two inserters each insert one key of their own and one key they share,
//! on a table of three-row pages: the first insert allocates the page, the
//! others fill it, and a slot leaked by the losing insert would open a
//! second page.  A reader polls all three keys through
//! `lookup_pk`, `slot` and `read_snapshot` in the meantime.  Every lock on
//! these paths is a shim lock, so each acquisition is a preemption point.
//! Each seed checks:
//!
//! * **One winner** — exactly one insert of the shared key succeeds, the
//!   other fails with `DuplicateKey`.
//! * **Indexed means readable** — a key the reader finds in the index
//!   always has its slot and its row.
//! * **Exact counts** — `row_count`, `page_count` and `all_record_ids`
//!   match the three rows.
//!
//! Seeds come from `TXSQL_SIM_SEEDS` (CI pins `0..200`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txsql_common::{Error, Row, TableId};
use txsql_storage::version::ReadCommitted;
use txsql_storage::{Table, TableSchema};

const SHARED_PK: i64 = 1;
const OWN_PKS: [i64; 2] = [2, 3];
const READER_ROUNDS: usize = 3;

#[test]
fn sim_table_directory_insert_races_lookup() {
    let seeds = txsql_sim::ci_seeds(200);
    let n_seeds = seeds.len();
    let mut classes: HashSet<u64> = HashSet::new();
    let mut raced_seeds = 0u64;

    for seed in seeds {
        let table = Arc::new(Table::new(
            TableSchema::new(TableId(1), "t", 2).with_rows_per_page(3),
        ));
        let shared_wins = Arc::new(AtomicU64::new(0));
        // Lookups that found a key while an inserter was still running.
        let raced = Arc::new(AtomicU64::new(0));

        let (table_build, wins_build, raced_build) = (
            Arc::clone(&table),
            Arc::clone(&shared_wins),
            Arc::clone(&raced),
        );
        let report = txsql_sim::run_with_seed(seed, move |sim| {
            let inserting = Arc::new(AtomicU64::new(OWN_PKS.len() as u64));
            for (inserter, own) in OWN_PKS.into_iter().enumerate() {
                let (table, wins, inserting) = (
                    Arc::clone(&table_build),
                    Arc::clone(&wins_build),
                    Arc::clone(&inserting),
                );
                sim.spawn(format!("insert-{inserter}"), move || {
                    let order = if inserter == 0 {
                        [own, SHARED_PK]
                    } else {
                        [SHARED_PK, own]
                    };
                    for pk in order {
                        match table.insert_committed(Row::from_ints(&[pk, inserter as i64])) {
                            Ok(_) if pk == SHARED_PK => {
                                wins.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) => {}
                            Err(Error::DuplicateKey { key, .. }) => assert_eq!(key, SHARED_PK),
                            Err(err) => panic!("insert of {pk}: {err}"),
                        }
                    }
                    inserting.fetch_sub(1, Ordering::Relaxed);
                });
            }
            let (table, raced) = (Arc::clone(&table_build), Arc::clone(&raced_build));
            sim.spawn("reader", move || {
                for _ in 0..READER_ROUNDS {
                    for pk in [SHARED_PK, OWN_PKS[0], OWN_PKS[1]] {
                        let Ok(record) = table.lookup_pk(pk) else {
                            continue;
                        };
                        if inserting.load(Ordering::Relaxed) > 0 {
                            raced.fetch_add(1, Ordering::Relaxed);
                        }
                        let slot = table
                            .slot(record)
                            .unwrap_or_else(|err| panic!("indexed pk {pk} has no slot: {err}"));
                        assert_eq!(slot.read().latest_row().unwrap().get_int(0), Some(pk));
                        let (row, _) = table
                            .read_snapshot(record, || ReadCommitted)
                            .unwrap_or_else(|err| panic!("indexed pk {pk} unreadable: {err}"))
                            .expect("a committed row is visible");
                        assert_eq!(row.get_int(0), Some(pk));
                    }
                }
            });
        });
        if let Some(failure) = &report.failure {
            panic!(
                "seed {seed} failed: {failure}\nschedule: {:?}\nreproduce: txsql_sim::replay(&schedule, build)",
                report.schedule
            );
        }

        assert_eq!(
            shared_wins.load(Ordering::Relaxed),
            1,
            "seed {seed}: the shared key needs exactly one winning insert"
        );
        assert_eq!(table.row_count(), 3, "seed {seed}");
        assert_eq!(
            table.page_count(),
            1,
            "seed {seed}: a loser allocated a slot"
        );
        let pks: Vec<i64> = table.all_record_ids().iter().map(|(pk, _)| *pk).collect();
        assert_eq!(pks, vec![1, 2, 3], "seed {seed}");

        classes.insert(report.coverage.schedule_class);
        if raced.load(Ordering::Relaxed) > 0 {
            raced_seeds += 1;
        }
    }

    println!(
        "sim-coverage: suite=sim_table_directory runs={n_seeds} classes={} raced_seeds={raced_seeds}",
        classes.len()
    );
    assert!(
        raced_seeds > 0,
        "no explored schedule ({n_seeds} seeds) resolved a key while an insert ran"
    );
}

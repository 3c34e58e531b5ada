//! The sharded table under real threads: writers insert distinct and
//! colliding primary keys while readers resolve keys through the index, the
//! page directory and the slot latch.
//!
//! Checks:
//! * exactly one insert of each colliding key wins, the others fail with
//!   `DuplicateKey`;
//! * `row_count` and `page_count` are exact afterwards;
//! * `all_record_ids` is complete, sorted by key and names distinct slots;
//! * a reader that finds a key in the index always finds its slot and row.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use txsql_common::{Error, Row, TableId};
use txsql_storage::version::ReadCommitted;
use txsql_storage::{Table, TableSchema};

const WRITERS: i64 = 4;
const DISTINCT_PER_WRITER: i64 = 2_000;
/// Keys every writer tries to insert.
const COLLIDING: i64 = 500;
const READERS: usize = 2;
/// Divides the row count, so a single leaked slot shows as an extra page.
const ROWS_PER_PAGE: u16 = 5;

/// Distinct keys of `writer`; colliding keys are `0..COLLIDING`.
fn distinct_pk(writer: i64, i: i64) -> i64 {
    COLLIDING + writer * DISTINCT_PER_WRITER + i
}

#[test]
fn sharded_table_stays_exact_under_concurrent_inserts_and_lookups() {
    let table = Table::new(TableSchema::new(TableId(1), "t", 2).with_rows_per_page(ROWS_PER_PAGE));
    let total = COLLIDING + WRITERS * DISTINCT_PER_WRITER;
    let done = AtomicBool::new(false);
    let resolved = AtomicU64::new(0);

    let wins: Vec<Vec<i64>> = thread::scope(|scope| {
        for reader in 0..READERS {
            let (table, done, resolved) = (&table, &done, &resolved);
            scope.spawn(move || {
                let mut pk = reader as i64;
                while !done.load(Ordering::Acquire) {
                    pk = (pk + 7_919) % total;
                    let Ok(record) = table.lookup_pk(pk) else {
                        continue;
                    };
                    let slot = table
                        .slot(record)
                        .unwrap_or_else(|err| panic!("indexed pk {pk} has no slot: {err}"));
                    assert_eq!(slot.read().latest_row().unwrap().get_int(0), Some(pk));
                    let (row, _) = table
                        .read_snapshot(record, || ReadCommitted)
                        .unwrap_or_else(|err| panic!("indexed pk {pk} unreadable: {err}"))
                        .expect("a committed row is visible");
                    assert_eq!(row.get_int(0), Some(pk));
                    resolved.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let writers: Vec<_> = (0..WRITERS)
            .map(|writer| {
                let table = &table;
                scope.spawn(move || {
                    let mut won = Vec::new();
                    for i in 0..DISTINCT_PER_WRITER {
                        let pk = distinct_pk(writer, i);
                        table
                            .insert_committed(Row::from_ints(&[pk, writer]))
                            .unwrap();
                        // Interleave the colliding keys with the distinct ones,
                        // in the same order on every writer, so the inserts of
                        // one key run at about the same time.
                        if i < COLLIDING {
                            let pk = i;
                            match table.insert_committed(Row::from_ints(&[pk, writer])) {
                                Ok(_) => won.push(pk),
                                Err(Error::DuplicateKey { key, .. }) => assert_eq!(key, pk),
                                Err(err) => panic!("insert of {pk}: {err}"),
                            }
                        }
                    }
                    won
                })
            })
            .collect();
        let wins = writers.into_iter().map(|w| w.join().unwrap()).collect();
        done.store(true, Ordering::Release);
        wins
    });

    let mut winners: Vec<i64> = wins.into_iter().flatten().collect();
    winners.sort_unstable();
    assert_eq!(
        winners,
        (0..COLLIDING).collect::<Vec<_>>(),
        "each colliding pk must have exactly one winning insert"
    );
    assert_eq!(table.row_count(), total as usize);
    // A losing insert allocates no slot, so the pages hold exactly the rows.
    assert_eq!(
        table.page_count(),
        (total as usize).div_ceil(ROWS_PER_PAGE as usize)
    );
    let ids = table.all_record_ids();
    let pks: Vec<i64> = ids.iter().map(|(pk, _)| *pk).collect();
    assert_eq!(pks, (0..total).collect::<Vec<_>>(), "complete and sorted");
    let slots: HashSet<_> = ids.iter().map(|(_, record)| *record).collect();
    assert_eq!(slots.len(), ids.len(), "every row has its own slot");
    assert!(
        resolved.load(Ordering::Relaxed) > 0,
        "the readers resolved no key while the writers ran"
    );
}

//! Version purge at commit: chains stay bounded under a hot-row closed
//! loop for every protocol, and purge never takes a version a snapshot read
//! still needs, in either read-view mode.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use txsql_common::{Row, TableId, Value};
use txsql_core::{Database, EngineConfig, Operation, Protocol, TxnProgram};
use txsql_storage::TableSchema;
use txsql_txn::ReadViewMode;

const ACCOUNTS: TableId = TableId(1);
const HOT: i64 = 0;

/// An `accounts(id, counter, stamp)` table whose hot row starts at
/// `(0, 0, 0)`, pinned hot so the hotspot protocols take their hot path.
fn hot_row_db(protocol: Protocol) -> Arc<Database> {
    let config = EngineConfig::for_protocol(protocol)
        .with_hotspot_threshold(2)
        .with_lock_wait_timeout(Duration::from_millis(500));
    let db = Database::new(config);
    db.create_table(TableSchema::new(ACCOUNTS, "accounts", 3))
        .unwrap();
    let record = db.load_row(ACCOUNTS, Row::from_ints(&[HOT, 0, 0])).unwrap();
    db.hotspots().pin(record);
    Arc::new(db)
}

fn hot_chain_len(db: &Database) -> usize {
    let record = db.record_id(ACCOUNTS, HOT).unwrap();
    let slot = db.storage().table(ACCOUNTS).unwrap().slot(record).unwrap();
    let len = slot.read().version_count();
    len
}

fn committed_counter(db: &Database) -> i64 {
    let record = db.record_id(ACCOUNTS, HOT).unwrap();
    db.storage()
        .read_committed(ACCOUNTS, record)
        .unwrap()
        .unwrap()
        .get_int(1)
        .unwrap()
}

/// Closed-loop `counter += 1` programs until `commits` have committed.
fn increment_until(db: &Database, commits: usize) {
    let program = TxnProgram::new(vec![Operation::UpdateAdd {
        table: ACCOUNTS,
        pk: HOT,
        column: 1,
        delta: 1,
    }]);
    let mut committed = 0;
    while committed < commits {
        match db.execute_program(&program) {
            Ok(outcome) if outcome.committed => committed += 1,
            Ok(_) => {}
            Err(err) if err.is_retryable() => {}
            Err(err) => panic!("{:?}: unexpected error {err}", db.protocol()),
        }
    }
}

/// 10 000 hot-row commits from 2 threads leave a chain of at most 2
/// versions under every protocol.  Without purge it would hold one version
/// per commit.
///
/// The bound is checked after one more commit once both threads have
/// stopped.  At that commit every other `trx_no` has finished, so the bound
/// does not depend on how the threads interleaved.  A horizon pinned by a
/// leaked `trx_no` would leave the whole run's versions behind.
#[test]
fn hot_row_chain_stays_bounded_under_every_protocol() {
    const THREADS: usize = 2;
    const PER_THREAD: usize = 5_000;
    for protocol in Protocol::ALL {
        let db = hot_row_db(protocol);
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let db = Arc::clone(&db);
                thread::spawn(move || increment_until(&db, PER_THREAD))
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        increment_until(&db, 1);
        assert_eq!(
            committed_counter(&db),
            (THREADS * PER_THREAD + 1) as i64,
            "{protocol:?}"
        );
        let len = hot_chain_len(&db);
        assert!(len <= 2, "{protocol:?}: hot chain holds {len} versions");
        db.shutdown();
    }
}

/// One writer transaction: `counter += 1` and `stamp = attempt` on the hot
/// row, so every committed counter value has exactly one stamp and a read
/// of an aborted or uncommitted attempt shows a stamp the ledger does not
/// hold for that counter.  Returns the committed `(counter, stamp)`.
fn stamped_increment(db: &Database, attempt: i64) -> Option<(i64, i64)> {
    let mut txn = db.begin();
    let mut written = (0, 0);
    let updated = db.update_row(&mut txn, ACCOUNTS, HOT, &mut |row: &mut Row| {
        let counter = row.add_int(1, 1).unwrap();
        row.set(2, Value::Int(attempt));
        written = (counter, attempt);
    });
    match updated {
        Ok(_) => db.commit(txn).ok().map(|()| written),
        Err(err) if err.is_retryable() => {
            db.rollback(txn, Some(&err));
            None
        }
        Err(err) => panic!("writer: unexpected error {err}"),
    }
}

/// Readers loop `Database::read` on the hot row while 2 writers commit and
/// purge it.  Every read must find a row — purge never drops the version a
/// view needs — and see a `(counter, stamp)` pair some transaction
/// committed.  Runs under copy-free views (TXSQL) and copying views (2PL).
#[test]
fn snapshot_reads_survive_concurrent_purge_in_both_view_modes() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const COMMITS_PER_WRITER: usize = 1_500;
    for (protocol, mode) in [
        (Protocol::GroupLockingTxsql, ReadViewMode::CopyFree),
        (Protocol::Mysql2pl, ReadViewMode::Copying),
    ] {
        let db = hot_row_db(protocol);
        assert_eq!(db.config().protocol.read_view_mode(), mode);
        let ledger = Arc::new(Mutex::new(HashMap::from([(0i64, 0i64)])));
        let next_attempt = Arc::new(AtomicI64::new(1));
        let writing = Arc::new(AtomicBool::new(true));

        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let (db, ledger, next_attempt) = (
                    Arc::clone(&db),
                    Arc::clone(&ledger),
                    Arc::clone(&next_attempt),
                );
                thread::spawn(move || {
                    let mut committed = 0;
                    while committed < COMMITS_PER_WRITER {
                        let attempt = next_attempt.fetch_add(1, Ordering::Relaxed);
                        if let Some((counter, stamp)) = stamped_increment(&db, attempt) {
                            ledger.lock().unwrap().insert(counter, stamp);
                            committed += 1;
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (db, writing) = (Arc::clone(&db), Arc::clone(&writing));
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while writing.load(Ordering::Relaxed) {
                        let mut txn = db.begin();
                        let row = db
                            .read(&mut txn, ACCOUNTS, HOT)
                            .unwrap_or_else(|err| panic!("snapshot read failed: {err}"));
                        db.commit(txn).unwrap();
                        seen.push((row.get_int(1).unwrap(), row.get_int(2).unwrap()));
                    }
                    seen
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        writing.store(false, Ordering::Relaxed);
        let ledger = ledger.lock().unwrap();
        assert_eq!(ledger.len(), WRITERS * COMMITS_PER_WRITER + 1);
        let mut reads = 0;
        for reader in readers {
            for (counter, stamp) in reader.join().unwrap() {
                assert_eq!(
                    ledger.get(&counter),
                    Some(&stamp),
                    "{protocol:?}: read ({counter}, {stamp}) was never committed"
                );
                reads += 1;
            }
        }
        assert!(reads > 0, "{protocol:?}: readers never ran");
        db.shutdown();
    }
}

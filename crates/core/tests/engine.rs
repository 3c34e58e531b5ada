//! Integration tests of the engine: every protocol must preserve the basic
//! transactional guarantees, and the hotspot machinery must reproduce the
//! schedules and examples of the paper (§3.3, §4.4, §4.5, §5).

use std::sync::Arc;
use std::thread;
use std::time::Duration;
use txsql_common::{Row, TableId, Value};
use txsql_core::{Database, EngineConfig, Operation, Protocol, TxnProgram};
use txsql_storage::{RedoRecord, TableSchema};

const ACCOUNTS: TableId = TableId(1);
const JOURNAL: TableId = TableId(2);

/// Builds a database with an `accounts(id, balance)` table holding
/// `n_accounts` rows with balance 1000, and an empty `journal(id, amount)`.
fn setup(config: EngineConfig, n_accounts: i64) -> Database {
    let db = Database::new(config);
    db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
        .unwrap();
    db.create_table(TableSchema::new(JOURNAL, "journal", 2))
        .unwrap();
    for pk in 0..n_accounts {
        db.load_row(ACCOUNTS, Row::from_ints(&[pk, 1_000])).unwrap();
    }
    db
}

fn hot_config(protocol: Protocol) -> EngineConfig {
    // Low promotion threshold so the short tests actually trigger hotspot
    // handling; short timeouts keep failure cases fast.
    EngineConfig::for_protocol(protocol)
        .with_hotspot_threshold(2)
        .with_lock_wait_timeout(Duration::from_millis(500))
}

fn committed_balance(db: &Database, pk: i64) -> i64 {
    let record = db.record_id(ACCOUNTS, pk).unwrap();
    db.storage()
        .read_committed(ACCOUNTS, record)
        .unwrap()
        .map(|r| r.get_int(1).unwrap())
        .unwrap()
}

// ---------------------------------------------------------------------------
// Basic transactional guarantees, per protocol
// ---------------------------------------------------------------------------

#[test]
fn per_txn_metrics_scratch_loses_no_counts_across_abort_paths() {
    // Every transaction's lock counters now accumulate in a per-transaction
    // scratch that only reaches EngineMetrics when the transaction drops
    // (TxnMetrics flush-on-drop).  This storm mixes commits, explicit
    // rollbacks and lock-wait-timeout aborts on a contended row: if any
    // path lost its scratch, the `locks_released` total could not balance
    // against the app-side count of records the registry ever tracked, and
    // leftover bookkeeping would show in the `lock_registry_entries` gauge.
    // Statements count in the same scratch: `queries` must equal every
    // read, locked read, insert and update issued, whichever way the
    // transaction ended, or Figure 6d's locks-per-query loses denominator.
    use std::sync::atomic::{AtomicU64, Ordering};
    let db = setup(
        EngineConfig::for_protocol(Protocol::LightweightO1)
            .with_lock_wait_timeout(Duration::from_millis(10)),
        64,
    );
    const THREADS: usize = 6;
    const TXNS_PER_THREAD: usize = 60;
    const HOT_PK: i64 = 0;
    let tracked = Arc::new(AtomicU64::new(0));
    let statements = Arc::new(AtomicU64::new(0));
    thread::scope(|scope| {
        for worker in 0..THREADS {
            let db = db.clone();
            let tracked = Arc::clone(&tracked);
            let statements = Arc::clone(&statements);
            scope.spawn(move || {
                for i in 0..TXNS_PER_THREAD {
                    let mut txn = db.begin();
                    // Two cold records in a range PRIVATE to this worker
                    // (pks 1 + worker*10 .. 10 + worker*10), so the cold
                    // acquisitions never cross-contend and the unwrap below
                    // cannot trip on another worker's 10 ms timeout.
                    let base = (1 + worker * 10 + i % 5) as i64;
                    db.read(&mut txn, ACCOUNTS, base + 5).unwrap();
                    // The locked read takes the lock the update below
                    // then reuses: one tracked record for both.
                    db.select_for_update(&mut txn, ACCOUNTS, base).unwrap();
                    let journal_pk = (worker * TXNS_PER_THREAD + i) as i64;
                    db.insert(&mut txn, JOURNAL, Row::from_ints(&[journal_pk, 1]))
                        .unwrap();
                    statements.fetch_add(3, Ordering::Relaxed);
                    for pk in [base, base + 5] {
                        db.update_add(&mut txn, ACCOUNTS, pk, 1, 1).unwrap();
                        tracked.fetch_add(1, Ordering::Relaxed);
                        statements.fetch_add(1, Ordering::Relaxed);
                    }
                    // The contended row: a grant is one more tracked record;
                    // a timed-out wait is also tracked (then forgotten by
                    // the wait loop's cleanup) — both must be released
                    // exactly once.
                    statements.fetch_add(1, Ordering::Relaxed);
                    match db.update_add(&mut txn, ACCOUNTS, HOT_PK, 1, 1) {
                        Ok(_) => {
                            tracked.fetch_add(1, Ordering::Relaxed);
                            if i % 3 == 0 {
                                db.rollback(txn, None);
                            } else {
                                db.commit(txn).unwrap();
                            }
                        }
                        Err(err) => {
                            tracked.fetch_add(1, Ordering::Relaxed);
                            db.rollback(txn, Some(&err));
                        }
                    }
                }
            });
        }
    });
    // All transactions finished and dropped: every scratch has flushed.
    assert_eq!(
        db.metrics().locks_released.get(),
        tracked.load(Ordering::Relaxed),
        "released-lock total must balance the records ever tracked — a \
         mismatch means an abort path lost its metrics scratch"
    );
    let snapshot = db.snapshot_metrics(Duration::from_secs(1));
    assert_eq!(
        snapshot.lock_registry_entries, 0,
        "registry must drain to zero after the storm"
    );
    assert!(
        snapshot.release_shard_locks > 0,
        "scratch counts must flush"
    );
    assert_eq!(
        snapshot.queries,
        statements.load(Ordering::Relaxed),
        "every statement must count once, on commit, rollback and timeout alike"
    );
    assert_eq!(
        snapshot.locks_per_query,
        snapshot.locks_created as f64 / snapshot.queries as f64
    );
    db.shutdown();
}

#[test]
fn commit_makes_updates_visible_under_every_protocol() {
    for protocol in Protocol::ALL {
        let db = setup(EngineConfig::for_protocol(protocol), 4);
        let program = TxnProgram::new(vec![Operation::UpdateAdd {
            table: ACCOUNTS,
            pk: 1,
            column: 1,
            delta: 25,
        }]);
        let outcome = db.execute_program(&program).unwrap();
        assert!(outcome.committed, "{protocol:?}");
        assert_eq!(committed_balance(&db, 1), 1_025, "{protocol:?}");
        assert_eq!(db.metrics().committed.get(), 1, "{protocol:?}");
        db.shutdown();
    }
}

#[test]
fn explicit_rollback_restores_old_value_under_every_protocol() {
    for protocol in Protocol::ALL {
        let db = setup(EngineConfig::for_protocol(protocol), 4);
        let program = TxnProgram::new(vec![
            Operation::UpdateAdd {
                table: ACCOUNTS,
                pk: 1,
                column: 1,
                delta: 500,
            },
            Operation::ForcedRollback,
        ]);
        let outcome = db.execute_program(&program).unwrap();
        assert!(!outcome.committed, "{protocol:?}");
        assert_eq!(committed_balance(&db, 1), 1_000, "{protocol:?}");
        assert_eq!(db.metrics().aborted.get(), 1, "{protocol:?}");
        db.shutdown();
    }
}

#[test]
fn snapshot_reads_do_not_observe_uncommitted_updates() {
    for protocol in [
        Protocol::Mysql2pl,
        Protocol::LightweightO1,
        Protocol::GroupLockingTxsql,
    ] {
        let db = setup(EngineConfig::for_protocol(protocol), 4);
        let mut writer = db.begin();
        db.update_add(&mut writer, ACCOUNTS, 2, 1, 77).unwrap();
        let mut reader = db.begin();
        let row = db.read(&mut reader, ACCOUNTS, 2).unwrap();
        assert_eq!(row.get_int(1), Some(1_000), "{protocol:?}");
        db.rollback(reader, None);
        db.commit(writer).unwrap();
        let mut reader2 = db.begin();
        assert_eq!(
            db.read(&mut reader2, ACCOUNTS, 2).unwrap().get_int(1),
            Some(1_077)
        );
        db.rollback(reader2, None);
        db.shutdown();
    }
}

#[test]
fn insert_and_read_back() {
    let db = setup(EngineConfig::for_protocol(Protocol::LightweightO1), 2);
    let program = TxnProgram::new(vec![Operation::Insert {
        table: JOURNAL,
        pk: 42,
        fill: 7,
    }]);
    db.execute_program(&program).unwrap();
    let record = db.record_id(JOURNAL, 42).unwrap();
    let row = db
        .storage()
        .read_committed(JOURNAL, record)
        .unwrap()
        .unwrap();
    assert_eq!(row.get_int(1), Some(7));
    db.shutdown();
}

#[test]
fn select_for_update_blocks_conflicting_writers() {
    let db = setup(
        EngineConfig::for_protocol(Protocol::LightweightO1)
            .with_lock_wait_timeout(Duration::from_millis(50)),
        4,
    );
    let mut holder = db.begin();
    let row = db.select_for_update(&mut holder, ACCOUNTS, 3).unwrap();
    assert_eq!(row.get_int(1), Some(1_000));
    // A concurrent updater times out while the lock is held.
    let mut other = db.begin();
    let err = db.update_add(&mut other, ACCOUNTS, 3, 1, 1).unwrap_err();
    assert!(err.is_retryable());
    db.rollback(other, Some(&err));
    // The holder can update without re-queueing and commit.
    db.update_add(&mut holder, ACCOUNTS, 3, 1, 5).unwrap();
    db.commit(holder).unwrap();
    assert_eq!(committed_balance(&db, 3), 1_005);
    db.shutdown();
}

// ---------------------------------------------------------------------------
// Hotspot correctness: concurrent increments must not lose updates
// ---------------------------------------------------------------------------

/// How a concurrent-increment run arranges for the hotspot machinery to see
/// the contended row.  On a single-core runner a microsecond transaction is
/// essentially never preempted mid-critical-section, so *organic* waiters —
/// and therefore organic promotion — need help to materialise under OS
/// scheduling.  The organic interleavings themselves are covered by
/// deterministic schedule exploration in `sim_schedule.rs`
/// (`sim_organic_hotspot_promotion_loses_no_updates`); the explicit
/// promote/pin variants here keep wall-clock OS-thread coverage.
#[derive(Clone, Copy, PartialEq)]
enum HotSetup {
    /// No help: rely on scheduler preemption (fine for sum-conservation runs).
    Organic,
    /// Promote the row before any traffic (deterministic hot-path coverage,
    /// and no transaction ever straddles the promotion boundary).
    PromoteFirst,
    /// Hold the row's lock in a pinning transaction for the first ~50 ms so
    /// workers pile up and the engine *detects* the hotspot itself.
    PinRow,
}

fn run_concurrent_increments(protocol: Protocol, threads: usize, per_thread: usize) -> Database {
    run_concurrent_increments_with(protocol, threads, per_thread, HotSetup::Organic)
}

fn run_concurrent_increments_with(
    protocol: Protocol,
    threads: usize,
    per_thread: usize,
    hot_setup: HotSetup,
) -> Database {
    let db = setup(hot_config(protocol), 2);
    let db = Arc::new(db);
    if hot_setup == HotSetup::PromoteFirst {
        db.hotspots().promote(db.record_id(ACCOUNTS, 0).unwrap());
    }
    let pin = if hot_setup == HotSetup::PinRow {
        let mut txn = db.begin();
        db.update_add(&mut txn, ACCOUNTS, 0, 1, 0).unwrap();
        Some(txn)
    } else {
        None
    };
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let mut handles = Vec::new();
    for worker in 0..threads {
        let db = Arc::clone(&db);
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            barrier.wait();
            let program = TxnProgram::new(vec![Operation::UpdateAdd {
                table: ACCOUNTS,
                pk: 0,
                column: 1,
                delta: 1,
            }]);
            let mut committed = 0usize;
            while committed < per_thread {
                match db.execute_program(&program) {
                    Ok(outcome) if outcome.committed => committed += 1,
                    Ok(_) => {}
                    Err(err) if err.is_retryable() => {}
                    Err(err) => panic!("worker {worker}: unexpected error {err}"),
                }
            }
        }));
    }
    if let Some(txn) = pin {
        // Give the workers time to queue behind the pinned row, then let go.
        thread::sleep(Duration::from_millis(50));
        db.commit(txn).unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }
    Arc::try_unwrap(db).unwrap_or_else(|arc| (*arc).clone())
}

#[test]
fn concurrent_hot_increments_are_not_lost_txsql() {
    let threads = 8;
    let per_thread = 30;
    // Promote the row up front so the group path engages deterministically
    // (organic promotion needs multi-core preemption; see HotSetup).
    let db = run_concurrent_increments_with(
        Protocol::GroupLockingTxsql,
        threads,
        per_thread,
        HotSetup::PromoteFirst,
    );
    assert_eq!(
        committed_balance(&db, 0),
        1_000 + (threads * per_thread) as i64
    );
    // The hot row must actually have been grouped.
    assert!(
        db.metrics().hotspot_group_entries.get() > 0,
        "group locking never engaged"
    );
    db.shutdown();
}

#[test]
fn concurrent_hot_increments_are_not_lost_queue_locking() {
    let threads = 8;
    let per_thread = 20;
    let db = run_concurrent_increments(Protocol::QueueLockingO2, threads, per_thread);
    assert_eq!(
        committed_balance(&db, 0),
        1_000 + (threads * per_thread) as i64
    );
    db.shutdown();
}

#[test]
fn concurrent_hot_increments_are_not_lost_mysql_and_o1() {
    for protocol in [Protocol::Mysql2pl, Protocol::LightweightO1] {
        let threads = 4;
        let per_thread = 15;
        let db = run_concurrent_increments(protocol, threads, per_thread);
        assert_eq!(
            committed_balance(&db, 0),
            1_000 + (threads * per_thread) as i64,
            "{protocol:?}"
        );
        db.shutdown();
    }
}

#[test]
fn concurrent_hot_increments_are_not_lost_bamboo() {
    let threads = 4;
    let per_thread = 15;
    let db = run_concurrent_increments(Protocol::Bamboo, threads, per_thread);
    assert_eq!(
        committed_balance(&db, 0),
        1_000 + (threads * per_thread) as i64
    );
    db.shutdown();
}

#[test]
fn concurrent_hot_increments_are_not_lost_aria() {
    let threads = 4;
    let per_thread = 15;
    let db = run_concurrent_increments(Protocol::Aria, threads, per_thread);
    assert_eq!(
        committed_balance(&db, 0),
        1_000 + (threads * per_thread) as i64
    );
    db.shutdown();
}

// ---------------------------------------------------------------------------
// Serializability audit (§5.2, §6.4.5)
// ---------------------------------------------------------------------------

#[test]
fn contended_histories_are_serializable_under_txsql() {
    let config = hot_config(Protocol::GroupLockingTxsql).with_history_recording(true);
    let db = Arc::new(setup(config, 4));
    let mut handles = Vec::new();
    for worker in 0..6 {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            let program = TxnProgram::new(vec![
                Operation::UpdateAdd {
                    table: ACCOUNTS,
                    pk: 0,
                    column: 1,
                    delta: 1,
                },
                Operation::Read {
                    table: ACCOUNTS,
                    pk: (worker % 3) as i64 + 1,
                },
            ]);
            let mut committed = 0;
            while committed < 20 {
                match db.execute_program(&program) {
                    Ok(o) if o.committed => committed += 1,
                    Ok(_) => {}
                    Err(e) if e.is_retryable() => {}
                    Err(e) => panic!("{e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let report = db.history().unwrap().check();
    assert!(report.is_serializable(), "cycle found: {:?}", report.cycle);
    assert!(report.transactions >= 120);
    db.shutdown();
}

// ---------------------------------------------------------------------------
// The paper's worked examples
// ---------------------------------------------------------------------------

/// §4.5: T1 and T2 both update the hot row, then both update a non-hot row.
/// The transaction that would block on the non-hot lock while sharing the hot
/// row with its blocker must be rolled back proactively.
#[test]
fn hot_plus_cold_deadlock_is_prevented() {
    let db = setup(hot_config(Protocol::GroupLockingTxsql), 4);
    let hot_record = db.record_id(ACCOUNTS, 0).unwrap();
    db.hotspots().promote(hot_record);

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    // Both update the hot row (T1 first -> leader, T2 follower).
    db.update_add(&mut t1, ACCOUNTS, 0, 1, 1).unwrap();
    db.update_add(&mut t2, ACCOUNTS, 0, 1, 1).unwrap();
    // T1 takes the non-hot row.
    db.update_add(&mut t1, ACCOUNTS, 2, 1, 1).unwrap();
    // T2 now tries the same non-hot row: instead of waiting (which would
    // deadlock with the commit-order dependency), it is rolled back.
    let err = db.update_add(&mut t2, ACCOUNTS, 2, 1, 1).unwrap_err();
    assert!(
        matches!(err, txsql_common::Error::HotspotDeadlockPrevented { .. }),
        "expected prevention, got {err:?}"
    );
    db.rollback(t2, Some(&err));
    db.commit(t1).unwrap();
    assert_eq!(committed_balance(&db, 0), 1_001);
    assert_eq!(committed_balance(&db, 2), 1_001);
    db.shutdown();
}

/// §4.4: T1, T3, T2 update the hot row in that order; T1 then rolls back, so
/// T3 and T2 must cascade (their commits fail) and the row returns to its
/// original value.  T1's rollback blocks until its successors have rolled
/// back in reverse update order, so the three finishers run on separate
/// threads exactly like the paper's worked example.
#[test]
fn cascading_rollback_follows_reverse_update_order() {
    let db = Arc::new(setup(hot_config(Protocol::GroupLockingTxsql), 4));
    let hot_record = db.record_id(ACCOUNTS, 0).unwrap();
    db.hotspots().promote(hot_record);

    let mut t1 = db.begin();
    let mut t3 = db.begin();
    let mut t2 = db.begin();
    db.update_add(&mut t1, ACCOUNTS, 0, 1, 1).unwrap(); // leader, val -> 1001
    db.update_add(&mut t3, ACCOUNTS, 0, 1, 1).unwrap(); // follower, val -> 1002
    db.update_add(&mut t2, ACCOUNTS, 0, 1, 1).unwrap(); // follower, val -> 1003

    // T1 rolls back (blocks until T2 and T3 have rolled back).
    let db1 = Arc::clone(&db);
    let rollback_t1 = thread::spawn(move || {
        db1.rollback(
            t1,
            Some(&txsql_common::Error::ExplicitRollback {
                txn: txsql_common::TxnId(0),
            }),
        );
    });
    // T3 commits next: doomed, cascades (blocks until T2 rolled back).
    let db3 = Arc::clone(&db);
    let commit_t3 = thread::spawn(move || db3.commit(t3).unwrap_err());
    thread::sleep(Duration::from_millis(50));
    // T2 commits last: doomed, cascades immediately (it is the newest entry).
    let err2 = db.commit(t2).unwrap_err();
    assert!(err2.is_cascading(), "T2 should cascade, got {err2:?}");
    let err3 = commit_t3.join().unwrap();
    assert!(err3.is_cascading(), "T3 should cascade, got {err3:?}");
    rollback_t1.join().unwrap();

    assert_eq!(committed_balance(&db, 0), 1_000);
    assert!(db.metrics().cascading_aborts.get() >= 2);
    db.shutdown();
}

/// Figure 3(c): within a group only the leader locks; followers execute
/// without creating lock objects.
#[test]
fn group_locking_reduces_lock_objects_versus_o1() {
    let threads = 6;
    let per_thread = 25;
    let txsql = run_concurrent_increments(Protocol::GroupLockingTxsql, threads, per_thread);
    let o1 = run_concurrent_increments(Protocol::LightweightO1, threads, per_thread);
    let txsql_locks =
        txsql.metrics().locks_created.get() as f64 / txsql.metrics().committed.get().max(1) as f64;
    let o1_locks =
        o1.metrics().locks_created.get() as f64 / o1.metrics().committed.get().max(1) as f64;
    assert!(
        txsql_locks <= o1_locks + 0.1,
        "group locking should not create more lock objects per txn than O1 \
         (TXSQL {txsql_locks:.3} vs O1 {o1_locks:.3})"
    );
    txsql.shutdown();
    o1.shutdown();
}

#[test]
fn bamboo_cascades_when_dirty_writer_aborts() {
    let db = setup(
        EngineConfig::for_protocol(Protocol::Bamboo)
            .with_lock_wait_timeout(Duration::from_millis(200)),
        2,
    );
    let mut t1 = db.begin();
    db.update_add(&mut t1, ACCOUNTS, 0, 1, 10).unwrap();
    // Bamboo released T1's lock right after the update, so T2 can update the
    // same row and consume T1's dirty value.
    let mut t2 = db.begin();
    db.update_add(&mut t2, ACCOUNTS, 0, 1, 10).unwrap();
    // T1 aborts -> T2's commit must cascade.
    db.rollback(
        t1,
        Some(&txsql_common::Error::ExplicitRollback {
            txn: txsql_common::TxnId(0),
        }),
    );
    let err = db.commit(t2).unwrap_err();
    assert!(err.is_cascading(), "expected cascade, got {err:?}");
    assert_eq!(committed_balance(&db, 0), 1_000);
    db.shutdown();
}

#[test]
fn bamboo_releases_each_row_lock_when_its_update_returns() {
    let db = setup(
        EngineConfig::for_protocol(Protocol::Bamboo)
            .with_lock_wait_timeout(Duration::from_millis(100)),
        2,
    );
    let record = db.record_id(ACCOUNTS, 0).unwrap();
    let mut t1 = db.begin();
    db.update_add(&mut t1, ACCOUNTS, 0, 1, 10).unwrap();
    assert!(
        db.lock_holders(record).is_empty(),
        "early release must free the row lock as soon as the update returns"
    );
    // A second writer consumes the dirty value without waiting, and both
    // commit in dependency order.
    let mut t2 = db.begin();
    db.update_add(&mut t2, ACCOUNTS, 0, 1, 5).unwrap();
    assert!(db.lock_holders(record).is_empty());
    db.commit(t1).unwrap();
    db.commit(t2).unwrap();
    assert_eq!(committed_balance(&db, 0), 1_015);
    db.shutdown();
}

#[test]
fn aria_aborts_one_of_two_conflicting_transactions_in_a_batch() {
    let db = setup(
        EngineConfig::for_protocol(Protocol::Aria).with_aria_batch_size(2),
        2,
    );
    let db = Arc::new(db);
    let program = TxnProgram::new(vec![Operation::UpdateAdd {
        table: ACCOUNTS,
        pk: 0,
        column: 1,
        delta: 5,
    }]);
    let mut handles = Vec::new();
    for _ in 0..2 {
        let db = Arc::clone(&db);
        let program = program.clone();
        handles.push(thread::spawn(move || db.execute_program(&program)));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let committed = results.iter().filter(|r| r.is_ok()).count();
    // Either they landed in the same batch (one aborts) or different batches
    // (both commit); in both cases no update is lost.
    let expected = 1_000 + committed as i64 * 5;
    assert_eq!(committed_balance(&db, 0), expected);
    assert!(committed >= 1);
    db.shutdown();
}

// ---------------------------------------------------------------------------
// Hotspot detection & demotion (§4.1)
// ---------------------------------------------------------------------------

#[test]
fn hotspot_is_detected_then_demoted_when_idle() {
    // Pin the row briefly so waiters pile up and the engine performs an
    // *organic* promotion even on a single-core runner.
    let db = run_concurrent_increments_with(Protocol::GroupLockingTxsql, 8, 20, HotSetup::PinRow);
    let hot_record = db.record_id(ACCOUNTS, 0).unwrap();
    assert!(db.hotspots().promotions() > 0, "hotspot was never promoted");
    // With no load, the sweeper (or two manual sweeps) demotes the row.
    db.hotspots().sweep(|_| false);
    db.hotspots().sweep(|_| false);
    assert!(!db.hotspots().is_hot(hot_record));
    db.shutdown();
}

#[test]
fn uniform_workload_triggers_no_hotspot_handling() {
    let db = setup(hot_config(Protocol::GroupLockingTxsql), 64);
    let db = Arc::new(db);
    let mut handles = Vec::new();
    for worker in 0..4u64 {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            for i in 0..50 {
                // Disjoint 16-row stripes per worker: a truly uniform load
                // never queues two transactions on one row, so promotion
                // (threshold 2) must stay impossible even when the OS
                // preempts a lock holder on a busy machine.
                let pk = (worker * 16 + i % 16) as i64;
                let program = TxnProgram::new(vec![Operation::UpdateAdd {
                    table: ACCOUNTS,
                    pk,
                    column: 1,
                    delta: 1,
                }]);
                while db.execute_program(&program).is_err() {}
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.metrics().hotspot_group_entries.get(), 0);
    assert_eq!(db.metrics().committed.get(), 200);
    db.shutdown();
}

// ---------------------------------------------------------------------------
// Commit pipeline / group commit metrics
// ---------------------------------------------------------------------------

#[test]
fn group_commit_uses_fewer_fsyncs_than_per_txn_commit() {
    // Each round commits one increment first and releases five more only
    // once its commit record is appended, i.e. while it flushes.  The 10 ms
    // fsync dwarfs a one-row transaction, so the five reach the pipeline
    // during that flush: group commit syncs them as one batch behind it (at
    // most two batches a round), per-transaction commit syncs each alone.
    const ROUNDS: usize = 6;
    const FOLLOWERS: usize = 5;
    let run = |group_commit: bool| {
        let config = hot_config(Protocol::GroupLockingTxsql)
            .with_group_commit(group_commit)
            .with_latency(txsql_common::latency::LatencyModel {
                fsync: Duration::from_millis(10),
                network_one_way: Duration::ZERO,
                statement_overhead: Duration::ZERO,
            });
        let db = Arc::new(setup(config, 2));
        let commit_records = |db: &Database| {
            db.storage()
                .redo()
                .all_records()
                .iter()
                .filter(|r| matches!(r, RedoRecord::Commit { .. }))
                .count()
        };
        for _ in 0..ROUNDS {
            let before = commit_records(&db);
            let first = spawn_increment(&db);
            while commit_records(&db) == before {
                thread::yield_now();
            }
            let followers: Vec<_> = (0..FOLLOWERS).map(|_| spawn_increment(&db)).collect();
            first.join().unwrap();
            for follower in followers {
                follower.join().unwrap();
            }
        }
        let fsyncs = db.storage().redo().fsync_count();
        let batches = db.metrics().commit_batches.get();
        let committed = db.metrics().committed.get();
        db.shutdown();
        (fsyncs, batches, committed)
    };
    let (fsync_grouped, batches_grouped, committed_grouped) = run(true);
    let (fsync_single, batches_single, committed_single) = run(false);
    assert_eq!(committed_grouped, (ROUNDS * (FOLLOWERS + 1)) as u64);
    assert_eq!(committed_grouped, committed_single);
    assert!(
        batches_grouped < batches_single,
        "group commit should batch commits: {batches_grouped} vs {batches_single}"
    );
    assert!(
        fsync_grouped < fsync_single,
        "group commit should batch fsyncs: {fsync_grouped} vs {fsync_single}"
    );
}

/// Commits one increment of account 0 on a new thread, retrying aborts.
fn spawn_increment(db: &Arc<Database>) -> thread::JoinHandle<()> {
    let db = Arc::clone(db);
    thread::spawn(move || {
        let program = TxnProgram::new(vec![Operation::UpdateAdd {
            table: ACCOUNTS,
            pk: 0,
            column: 1,
            delta: 1,
        }]);
        while !matches!(db.execute_program(&program), Ok(o) if o.committed) {}
    })
}

// ---------------------------------------------------------------------------
// Recovery of hotspot state (§5.3) through the engine
// ---------------------------------------------------------------------------

#[test]
fn crash_recovery_discards_uncommitted_hotspot_updates() {
    let db = setup(hot_config(Protocol::GroupLockingTxsql), 2);
    let hot_record = db.record_id(ACCOUNTS, 0).unwrap();
    db.hotspots().promote(hot_record);
    let checkpoint = db.checkpoint().unwrap();

    // One committed, durable update...
    let program = TxnProgram::new(vec![Operation::UpdateAdd {
        table: ACCOUNTS,
        pk: 0,
        column: 1,
        delta: 5,
    }]);
    db.execute_program(&program).unwrap();
    db.storage().redo().flush_all().unwrap();
    // ...and two uncommitted hotspot updates left in flight at the crash.
    let mut t_a = db.begin();
    let mut t_b = db.begin();
    db.update_add(&mut t_a, ACCOUNTS, 0, 1, 100).unwrap();
    db.update_add(&mut t_b, ACCOUNTS, 0, 1, 100).unwrap();
    db.storage().redo().flush_all().unwrap();

    let outcome =
        txsql_storage::recovery::recover(&checkpoint, &db.durable_redo(), Duration::ZERO).unwrap();
    let table = outcome.storage.table(ACCOUNTS).unwrap();
    let rid = table.lookup_pk(0).unwrap();
    let recovered = outcome
        .storage
        .read_committed(ACCOUNTS, rid)
        .unwrap()
        .unwrap();
    assert_eq!(recovered.get_int(1), Some(1_005));
    assert_eq!(outcome.report.rolled_back.len(), 2);
    assert_eq!(outcome.report.recovered_hot_orders.len(), 2);
    // Leave the in-flight transactions to clean up normally.
    db.rollback(t_a, None);
    db.rollback(t_b, None);
    db.shutdown();
}

#[test]
fn string_columns_round_trip_through_updates() {
    let db = setup(EngineConfig::for_protocol(Protocol::LightweightO1), 2);
    let mut txn = db.begin();
    db.update_row(&mut txn, ACCOUNTS, 1, &mut |row: &mut Row| {
        row.set(1, Value::Str("padded".into()));
    })
    .unwrap();
    db.commit(txn).unwrap();
    let record = db.record_id(ACCOUNTS, 1).unwrap();
    let row = db
        .storage()
        .read_committed(ACCOUNTS, record)
        .unwrap()
        .unwrap();
    assert_eq!(row.get(1).unwrap().as_str(), Some("padded"));
    db.shutdown();
}

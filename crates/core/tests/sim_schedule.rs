//! Whole-engine schedule exploration (`txsql-sim`): the regression tests for
//! the two interleaving bugs the 1-CPU CI box could never reproduce on
//! demand, plus the *organic* hotspot-promotion coverage that previously had
//! to fall back to explicit promotion / row pinning (see `HotSetup` in
//! `engine.rs`).
//!
//! Each test runs the production engine — lock tables, group locking, commit
//! pipeline, MVCC storage — under the cooperative scheduler, once per seed.
//! A failing seed panics with a replayable schedule trace; see
//! `crates/sim/README.md`.  The seed set is `TXSQL_SIM_SEEDS`-overridable
//! (CI pins `0..200`).

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use txsql_common::{Row, TableId, Value};
use txsql_core::{Database, EngineConfig, Protocol};
use txsql_storage::TableSchema;

const ENVELOPES: TableId = TableId(1);
const CLAIMS: TableId = TableId(2);

/// Engine configuration safe for a sim run: every thread touching the engine
/// must be a sim thread, so the background hotspot sweeper stays off.
fn sim_config(protocol: Protocol) -> EngineConfig {
    let mut config = EngineConfig::for_protocol(protocol)
        .with_hotspot_threshold(2)
        .with_lock_wait_timeout(Duration::from_millis(100))
        .with_history_recording(true);
    config.start_sweeper = false;
    config
}

fn run_seed(seed: u64, build: impl Fn(&mut txsql_sim::Sim)) {
    let report = txsql_sim::run_with_seed(seed, build);
    if let Some(failure) = report.failure {
        panic!(
            "seed {seed} failed: {failure}\nschedule: {:?}\nreproduce: txsql_sim::replay(&schedule, build)",
            report.schedule
        );
    }
}

/// One recipient's claim loop of the miniature red envelope: retryable
/// contention errors (timeouts, deadlock prevention, cascading aborts) retry;
/// a bounded attempt budget keeps adversarial schedules from spinning the
/// step counter out.
fn claim_worker(
    db: Arc<Database>,
    recipient: i64,
    claims: usize,
    claimed_total: Arc<AtomicI64>,
    next_claim_id: Arc<AtomicI64>,
) {
    for _ in 0..claims {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 50 {
                return; // starved by this schedule — conservation still holds
            }
            let mut txn = db.begin();
            let attempt = (|| -> txsql_common::Result<Option<i64>> {
                let envelope = db.select_for_update(&mut txn, ENVELOPES, 1)?;
                let remaining = envelope.get_int(1).unwrap_or(0);
                if remaining <= 0 {
                    return Ok(None);
                }
                let take = remaining.min(3);
                db.update_add(&mut txn, ENVELOPES, 1, 1, -take)?;
                let claim_id = next_claim_id.fetch_add(1, Ordering::Relaxed);
                db.insert(
                    &mut txn,
                    CLAIMS,
                    Row::from_ints(&[claim_id, recipient, take]),
                )?;
                Ok(Some(take))
            })();
            match attempt {
                Ok(Some(take)) => {
                    if db.commit(txn).is_ok() {
                        claimed_total.fetch_add(take, Ordering::Relaxed);
                        break;
                    }
                }
                Ok(None) => {
                    db.rollback(txn, None);
                    return; // envelope empty
                }
                Err(err) if err.is_retryable() => db.rollback(txn, Some(&err)),
                Err(err) => panic!("recipient {recipient}: unexpected error {err}"),
            }
        }
    }
}

/// Regression test for the `examples/red_envelope` serializability violation.
///
/// The seed engine released every lock *before* `commit_writes` ordered the
/// commit record; under an explored schedule a competing claim slips into
/// that window, locks the envelope row, reads the pre-commit balance and
/// commits with a smaller `trx_no` — the checker then finds a ww/rw cycle
/// (and money is occasionally created from thin air).  On the pre-fix code
/// this fails within the first handful of seeds with a
/// `history is not serializable` artifact; with release-after-ordering in
/// `Database::commit`, every explored schedule stays serializable and
/// conserves the envelope.
#[test]
fn sim_commit_release_ordering_red_envelope() {
    const AMOUNT: i64 = 12;
    for protocol in [Protocol::LightweightO1, Protocol::GroupLockingTxsql] {
        for seed in txsql_sim::ci_seeds(200) {
            let db = Database::new(sim_config(protocol));
            db.create_table(TableSchema::new(ENVELOPES, "envelopes", 2))
                .unwrap();
            db.create_table(TableSchema::new(CLAIMS, "claims", 3))
                .unwrap();
            db.load_row(ENVELOPES, Row::from_ints(&[1, AMOUNT]))
                .unwrap();
            let db = Arc::new(db);
            let claimed_total = Arc::new(AtomicI64::new(0));
            let next_claim_id = Arc::new(AtomicI64::new(1));

            let db_build = Arc::clone(&db);
            let total_build = Arc::clone(&claimed_total);
            let id_build = Arc::clone(&next_claim_id);
            run_seed(seed, move |sim| {
                for recipient in 0..3 {
                    let db = Arc::clone(&db_build);
                    let total = Arc::clone(&total_build);
                    let ids = Arc::clone(&id_build);
                    sim.spawn(format!("recipient-{recipient}"), move || {
                        claim_worker(db, recipient, 2, total, ids);
                    });
                }
            });

            let record = db.record_id(ENVELOPES, 1).unwrap();
            let remaining = db
                .storage()
                .read_committed(ENVELOPES, record)
                .unwrap()
                .unwrap()
                .get_int(1)
                .unwrap();
            let claimed = claimed_total.load(Ordering::Relaxed);
            assert_eq!(
                claimed + remaining,
                AMOUNT,
                "{protocol:?} seed {seed}: money was created or destroyed"
            );
            let report = db.history().unwrap().check();
            assert!(
                report.is_serializable(),
                "{protocol:?} seed {seed}: history is not serializable, cycle {:?}\nhistory: {:#?}",
                report.cycle,
                db.history().unwrap().committed_snapshot()
            );
            db.shutdown();
        }
    }
}

/// The PR-1 schedule-shape coverage, restored to *organic* promotion: no
/// `hotspots().promote()`, no pinned row — the contended schedules the
/// simulator explores make waiters pile up naturally, the engine detects the
/// hotspot itself (threshold 2), and traffic mid-run migrates onto the
/// queue-/group-locking path.  Increments must never be lost across the
/// promotion boundary, whatever the schedule.
#[test]
fn sim_organic_hotspot_promotion_loses_no_updates() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 3;
    for protocol in [Protocol::QueueLockingO2, Protocol::GroupLockingTxsql] {
        let mut promoted_seeds = 0u64;
        let seeds = txsql_sim::ci_seeds(100);
        let n_seeds = seeds.len();
        for seed in seeds {
            let mut config = sim_config(protocol);
            config.record_history = false;
            let db = Database::new(config);
            db.create_table(TableSchema::new(ENVELOPES, "accounts", 2))
                .unwrap();
            db.load_row(ENVELOPES, Row::from_ints(&[1, 0])).unwrap();
            let db = Arc::new(db);

            let db_build = Arc::clone(&db);
            run_seed(seed, move |sim| {
                for worker in 0..THREADS {
                    let db = Arc::clone(&db_build);
                    sim.spawn(format!("incr-{worker}"), move || {
                        let mut committed = 0;
                        let mut attempts = 0;
                        while committed < PER_THREAD {
                            attempts += 1;
                            assert!(attempts < 200, "worker starved");
                            let mut txn = db.begin();
                            match db.update_add(&mut txn, ENVELOPES, 1, 1, 1) {
                                Ok(_) => {
                                    if db.commit(txn).is_ok() {
                                        committed += 1;
                                    }
                                }
                                Err(err) if err.is_retryable() => {
                                    db.rollback(txn, Some(&err));
                                }
                                Err(err) => panic!("worker {worker}: {err}"),
                            }
                        }
                    });
                }
            });

            let record = db.record_id(ENVELOPES, 1).unwrap();
            let balance = db
                .storage()
                .read_committed(ENVELOPES, record)
                .unwrap()
                .unwrap()
                .get_int(1)
                .unwrap();
            assert_eq!(
                balance,
                (THREADS * PER_THREAD) as i64,
                "{protocol:?} seed {seed}: increments were lost"
            );
            if db.hotspots().promotions() > 0 {
                promoted_seeds += 1;
            }
            db.shutdown();
        }
        // The whole point of exploration: organic waiter pile-ups (and hence
        // organic promotion) must actually occur on a 1-CPU box.
        assert!(
            promoted_seeds > 0,
            "{protocol:?}: no explored schedule promoted the hot row organically \
             ({n_seeds} seeds)"
        );
    }
}

/// Snapshot reads racing commit-time purge.  `Database::read` creates its
/// read view under the slot read latch, and every commit purges the hot row
/// under the write latch.  The explored schedules interleave view creation
/// with concurrent commits and purges.  A view created before the latch
/// could miss a version that committed meanwhile and find its older
/// fallbacks already purged (`UnknownRecord`).  Checked for copy-free
/// (TXSQL) and copying (2PL) views.  Each read must find a row whose
/// `(counter, stamp)` pair some writer committed.
#[test]
fn sim_snapshot_read_races_commit_purge() {
    const WRITERS: usize = 2;
    const COMMITS_PER_WRITER: usize = 3;
    const READS: usize = 4;
    for protocol in [Protocol::GroupLockingTxsql, Protocol::Mysql2pl] {
        for seed in txsql_sim::ci_seeds(100) {
            let mut config = sim_config(protocol);
            config.record_history = false;
            let db = Database::new(config);
            db.create_table(TableSchema::new(ENVELOPES, "ledgered", 3))
                .unwrap();
            let record = db.load_row(ENVELOPES, Row::from_ints(&[1, 0, 0])).unwrap();
            db.hotspots().pin(record);
            let db = Arc::new(db);
            let ledger = Arc::new(Mutex::new(vec![(0i64, 0i64)]));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let next_stamp = Arc::new(AtomicI64::new(1));

            let (db_build, ledger_build, seen_build) =
                (Arc::clone(&db), Arc::clone(&ledger), Arc::clone(&seen));
            run_seed(seed, move |sim| {
                for writer in 0..WRITERS {
                    let (db, ledger, stamps) = (
                        Arc::clone(&db_build),
                        Arc::clone(&ledger_build),
                        Arc::clone(&next_stamp),
                    );
                    sim.spawn(format!("writer-{writer}"), move || {
                        let mut committed = 0;
                        let mut attempts = 0;
                        while committed < COMMITS_PER_WRITER {
                            attempts += 1;
                            if attempts > 50 {
                                return; // starved by this schedule
                            }
                            let stamp = stamps.fetch_add(1, Ordering::Relaxed);
                            let mut written = (0, 0);
                            let mut txn = db.begin();
                            let updated =
                                db.update_row(&mut txn, ENVELOPES, 1, &mut |row: &mut Row| {
                                    let counter = row.add_int(1, 1).unwrap();
                                    row.set(2, Value::Int(stamp));
                                    written = (counter, stamp);
                                });
                            match updated {
                                Ok(_) => {
                                    if db.commit(txn).is_ok() {
                                        ledger.lock().unwrap().push(written);
                                        committed += 1;
                                    }
                                }
                                Err(err) if err.is_retryable() => {
                                    db.rollback(txn, Some(&err));
                                }
                                Err(err) => panic!("writer {writer}: {err}"),
                            }
                        }
                    });
                }
                let (db, seen) = (Arc::clone(&db_build), Arc::clone(&seen_build));
                sim.spawn("reader", move || {
                    for _ in 0..READS {
                        let mut txn = db.begin();
                        let row = db
                            .read(&mut txn, ENVELOPES, 1)
                            .unwrap_or_else(|err| panic!("snapshot read failed: {err}"));
                        db.commit(txn).unwrap();
                        let observed = (row.get_int(1).unwrap(), row.get_int(2).unwrap());
                        seen.lock().unwrap().push(observed);
                    }
                });
            });

            let ledger = ledger.lock().unwrap();
            for observed in seen.lock().unwrap().iter() {
                assert!(
                    ledger.contains(observed),
                    "{protocol:?} seed {seed}: read {observed:?} was never committed \
                     (committed: {ledger:?})"
                );
            }
            db.shutdown();
        }
    }
}

/// Bamboo's commit dependency on a writer that rolls back.  The writer
/// adds 100 and rolls back; Bamboo releases its row lock right after the
/// update, so the other transaction's `+1` may read the writer's dirty value.
/// A transaction that read from the rolled-back writer must never commit,
/// so the committed balance must equal the committed deltas.  Two schedules
/// broke this, each committing the undone `+100` with the `+1`:
/// * the rollback left the writer neither active nor on the outcome board
///   for a moment (`TrxSys::finish` ran before the outcome was posted), and
///   a waiting dependent that looked then took it for committed;
/// * the update read the row and its uncommitted writer in two slot reads,
///   and a rollback in between hid the writer it had read from.
#[test]
fn sim_bamboo_dependent_of_rolled_back_writer_never_commits() {
    let mut dirty_seeds = 0u64;
    let seeds = txsql_sim::ci_seeds(200);
    let n_seeds = seeds.len();
    for seed in seeds {
        let mut config = sim_config(Protocol::Bamboo);
        config.record_history = false;
        let db = Database::new(config);
        db.create_table(TableSchema::new(ENVELOPES, "accounts", 2))
            .unwrap();
        db.load_row(ENVELOPES, Row::from_ints(&[1, 0])).unwrap();
        let db = Arc::new(db);
        let committed_delta = Arc::new(AtomicI64::new(0));
        let dirty = Arc::new(AtomicBool::new(false));

        let (db_build, delta_build, dirty_build) = (
            Arc::clone(&db),
            Arc::clone(&committed_delta),
            Arc::clone(&dirty),
        );
        run_seed(seed, move |sim| {
            let db = Arc::clone(&db_build);
            sim.spawn("aborter", move || {
                let mut txn = db.begin();
                if db.update_add(&mut txn, ENVELOPES, 1, 1, 100).is_ok() {
                    txsql_common::latency::simulate_delay(Duration::from_micros(50));
                }
                db.rollback(txn, None);
            });
            let (db, delta, dirty) = (
                Arc::clone(&db_build),
                Arc::clone(&delta_build),
                Arc::clone(&dirty_build),
            );
            sim.spawn("dependent", move || {
                let mut txn = db.begin();
                match db.update_add(&mut txn, ENVELOPES, 1, 1, 1) {
                    Ok(value) => {
                        // More than our own +1: we read the aborter's +100.
                        dirty.store(value > 1, Ordering::Relaxed);
                        if db.commit(txn).is_ok() {
                            delta.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(err) if err.is_retryable() => db.rollback(txn, Some(&err)),
                    Err(err) => panic!("dependent: {err}"),
                }
            });
        });

        let record = db.record_id(ENVELOPES, 1).unwrap();
        let balance = db
            .storage()
            .read_committed(ENVELOPES, record)
            .unwrap()
            .unwrap()
            .get_int(1)
            .unwrap();
        assert_eq!(
            balance,
            committed_delta.load(Ordering::Relaxed),
            "seed {seed}: a transaction that read the rolled-back +100 committed"
        );
        dirty_seeds += u64::from(dirty.load(Ordering::Relaxed));
        db.shutdown();
    }
    assert!(
        dirty_seeds > 0,
        "no explored schedule ({n_seeds} seeds) read the aborter's dirty value"
    );
}

//! Crash recovery.
//!
//! Recovery rebuilds the engine from a [`CheckpointImage`] plus the durable
//! suffix of the redo log, then deals with in-flight transactions:
//!
//! 1. **Replay** — every durable `Insert`/`Update` record is re-applied as an
//!    uncommitted version written by its original transaction, and
//!    `UndoHeader` records restore each transaction's header field
//!    (which may carry a `hot_update_order`, §5.3).  Replay is *idempotent*:
//!    a row image the chain already carries (same writer, same image, still
//!    uncommitted) is skipped instead of double-applied, so replaying the
//!    same durable suffix twice — or a suffix that overlaps the checkpoint —
//!    yields the same state.  Duplicate `Commit` markers keep the first
//!    `trx_no`.
//! 2. **Commit/rollback resolution** — transactions with a durable `Commit`
//!    marker are committed with their original `trx_no`; transactions with a
//!    durable `Rollback` marker are undone.
//! 3. **Active-transaction rollback** — transactions with neither marker are
//!    rolled back *in reverse hot-update order* (transactions without a hot
//!    order are rolled back first), reproducing the paper's single-threaded
//!    sequential rollback.  The rollback order is also reported so the
//!    failure-recovery experiment can verify it.
//!
//! # Torn tails
//!
//! A mid-flush crash can leave a *torn* record at the end of the durable
//! suffix ([`LogFrame::Torn`]).  [`recover_frames`] scan-stops at the last
//! intact record — the torn record never reached disk whole, so the
//! transaction it belonged to simply falls into the rollback pass.  A torn
//! frame anywhere *except* the tail means the log itself is corrupt and
//! recovery refuses with [`Error::CorruptLog`].

use crate::storage::{CheckpointImage, Storage};
use crate::undo::UndoHeader;
use crate::wal::{LogFrame, RedoRecord};
use std::time::Duration;
use txsql_common::fxhash::{FxHashMap, FxHashSet};
use txsql_common::{Error, Lsn, Result, Row, TableId, TxnId};

/// Everything recovery learned, separated from the recovered engine so it can
/// be logged, asserted on by the recovery oracle, and used to reseed the
/// transaction system after a restart.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Transactions whose commit marker was durable (re-committed), sorted.
    pub committed: Vec<TxnId>,
    /// In-flight transactions rolled back during recovery, in the order they
    /// were rolled back (reverse hot-update order).
    pub rolled_back: Vec<TxnId>,
    /// Number of redo records replayed.
    pub replayed: usize,
    /// Row images skipped because the chain already carried them (idempotent
    /// replay of an overlapping or duplicated suffix).
    pub duplicate_replays_skipped: usize,
    /// Hot-update orders recovered from persisted undo headers, in rollback
    /// order (descending).
    pub recovered_hot_orders: Vec<(TxnId, u64)>,
    /// LSN of the torn record recovery scan-stopped at, if any.
    pub torn_tail: Option<Lsn>,
    /// Highest transaction id seen in the durable suffix (0 if none).
    pub max_txn_id: u64,
    /// Highest commit sequence number seen in the durable suffix (0 if none).
    pub max_trx_no: u64,
}

impl RecoveryReport {
    /// One-line human-readable summary (the recovery outcome log).
    pub fn summary(&self) -> String {
        let torn = match self.torn_tail {
            Some(lsn) => format!("torn tail at lsn {}", lsn.0),
            None => "clean tail".to_string(),
        };
        format!(
            "recovery: replayed {} records ({} duplicates skipped), \
             {} committed, {} rolled back ({} hot-ordered), {}",
            self.replayed,
            self.duplicate_replays_skipped,
            self.committed.len(),
            self.rolled_back.len(),
            self.recovered_hot_orders.len(),
            torn
        )
    }
}

/// Outcome of a recovery run: the recovered engine plus its report.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The recovered storage engine.
    pub storage: Storage,
    /// What recovery did (for logging and the recovery oracle).
    pub report: RecoveryReport,
}

#[derive(Default)]
struct TxnRecoveryState {
    committed_as: Option<u64>,
    rolled_back: bool,
    header: UndoHeader,
    touched: Vec<(TableId, i64)>,
    last_seq: usize,
}

/// Applies one row image as an uncommitted version written by `txn`,
/// inserting the row if its primary key does not exist yet (it may have been
/// created after the checkpoint).  Returns `false` when the chain already
/// carries this exact uncommitted image from `txn` — the idempotent-replay
/// guard against double-applying an overlapping or duplicated suffix.
fn replay_row(storage: &Storage, txn: TxnId, table_id: TableId, pk: i64, row: Row) -> Result<bool> {
    let table = storage.table(table_id)?;
    match table.lookup_pk(pk) {
        Ok(record) => {
            let slot = table.slot(record)?;
            let mut guard = slot.write();
            let already_applied = guard
                .iter()
                .any(|v| v.commit_no.is_none() && v.writer == txn && v.row == row);
            if already_applied {
                return Ok(false);
            }
            guard.push_uncommitted(row, txn);
        }
        Err(_) => {
            table.insert_versions(
                pk,
                crate::version::RecordVersions::new_uncommitted(row, txn),
            )?;
        }
    }
    Ok(true)
}

/// Recovers a storage engine from `checkpoint` and the durable redo suffix,
/// given as plain records (no torn tail).  See [`recover_frames`] for the
/// frame-aware entry point a restarted process uses.
pub fn recover(
    checkpoint: &CheckpointImage,
    durable_redo: &[RedoRecord],
    fsync_latency: Duration,
) -> Result<RecoveryOutcome> {
    recover_records(checkpoint, durable_redo, None, fsync_latency)
}

/// Recovers a storage engine from `checkpoint` and the durable log suffix as
/// read back after a crash.  A [`LogFrame::Torn`] frame at the tail makes
/// recovery scan-stop at the last intact record; a torn frame anywhere else
/// is a corrupt log and recovery refuses with [`Error::CorruptLog`].
pub fn recover_frames(
    checkpoint: &CheckpointImage,
    frames: &[(Lsn, LogFrame)],
    fsync_latency: Duration,
) -> Result<RecoveryOutcome> {
    let mut records = Vec::with_capacity(frames.len());
    let mut torn_tail = None;
    for (i, (lsn, frame)) in frames.iter().enumerate() {
        match frame {
            LogFrame::Intact(record) => records.push(record.clone()),
            LogFrame::Torn if i + 1 == frames.len() => torn_tail = Some(*lsn),
            LogFrame::Torn => {
                return Err(Error::CorruptLog {
                    reason: format!("torn record at lsn {} before the log tail", lsn.0),
                });
            }
        }
    }
    recover_records(checkpoint, &records, torn_tail, fsync_latency)
}

fn recover_records(
    checkpoint: &CheckpointImage,
    durable_redo: &[RedoRecord],
    torn_tail: Option<Lsn>,
    fsync_latency: Duration,
) -> Result<RecoveryOutcome> {
    let storage = Storage::from_checkpoint(checkpoint, fsync_latency)?;
    let mut states: FxHashMap<TxnId, TxnRecoveryState> = FxHashMap::default();
    let mut replayed = 0usize;
    let mut duplicate_replays_skipped = 0usize;

    // Pass 1: replay physical changes and collect per-transaction metadata.
    for (seq, record) in durable_redo.iter().enumerate() {
        let txn = record.txn();
        let state = states.entry(txn).or_default();
        state.last_seq = seq;
        match record {
            RedoRecord::Begin { .. } => {}
            RedoRecord::Update {
                table, pk, after, ..
            } => {
                if replay_row(&storage, txn, *table, *pk, after.clone())? {
                    state.touched.push((*table, *pk));
                    replayed += 1;
                } else {
                    duplicate_replays_skipped += 1;
                }
            }
            RedoRecord::Insert { table, pk, row, .. } => {
                if replay_row(&storage, txn, *table, *pk, row.clone())? {
                    state.touched.push((*table, *pk));
                    replayed += 1;
                } else {
                    duplicate_replays_skipped += 1;
                }
            }
            RedoRecord::UndoHeader { field, .. } => {
                state.header = UndoHeader::from_raw(*field);
            }
            RedoRecord::Commit { trx_no, .. } => {
                // A duplicated suffix can carry the same Commit marker twice;
                // the first trx_no wins (they are identical in practice).
                if state.committed_as.is_none() {
                    state.committed_as = Some(*trx_no);
                }
            }
            RedoRecord::Rollback { .. } => {
                state.rolled_back = true;
            }
        }
    }

    // Pass 2: resolve committed transactions.
    let mut committed = Vec::new();
    let mut max_trx_no = 0u64;
    for (txn, state) in states.iter() {
        if let Some(trx_no) = state.committed_as {
            max_trx_no = max_trx_no.max(trx_no);
            for (table_id, pk) in &state.touched {
                let table = storage.table(*table_id)?;
                if let Ok(record) = table.lookup_pk(*pk) {
                    table.slot(record)?.write().commit_writer(*txn, trx_no);
                }
            }
            committed.push(*txn);
        }
    }
    committed.sort_unstable();

    // Pass 3: roll back transactions that did not reach a durable commit —
    // both those with a durable rollback marker and those still active.
    // Order: transactions WITHOUT a recovered hot-update order first (they
    // cannot have stacked uncommitted versions under a hotspot chain), then
    // hotspot transactions in reverse hot-update order (§5.3).
    let mut to_roll_back: Vec<(TxnId, Option<u64>, usize)> = states
        .iter()
        .filter(|(_, s)| s.committed_as.is_none() && !s.touched.is_empty())
        .map(|(txn, s)| (*txn, s.header.hot_update_order(), s.last_seq))
        .collect();
    to_roll_back.sort_by(|a, b| match (a.1, b.1) {
        (None, None) => b.2.cmp(&a.2),
        (None, Some(_)) => std::cmp::Ordering::Less,
        (Some(_), None) => std::cmp::Ordering::Greater,
        (Some(x), Some(y)) => y.cmp(&x),
    });

    let mut rolled_back = Vec::new();
    let mut recovered_hot_orders = Vec::new();
    let mut seen: FxHashSet<TxnId> = FxHashSet::default();
    for (txn, hot_order, _) in to_roll_back {
        if !seen.insert(txn) {
            continue;
        }
        if let Some(order) = hot_order {
            recovered_hot_orders.push((txn, order));
        }
        let state = &states[&txn];
        for (table_id, pk) in state.touched.iter().rev() {
            let table = storage.table(*table_id)?;
            if let Ok(record) = table.lookup_pk(*pk) {
                let slot = table.slot(record)?;
                let mut guard = slot.write();
                guard.rollback_writer(txn);
                // If the insert created the row and nothing committed remains,
                // drop the index entry again.
                if guard.visible_row(&crate::version::ReadCommitted).is_none()
                    && guard.version_count() == 0
                {
                    drop(guard);
                    table.unindex_pk(*pk);
                }
            }
        }
        rolled_back.push(txn);
    }
    recovered_hot_orders.sort_by_key(|(_, order)| std::cmp::Reverse(*order));

    let max_txn_id = states.keys().map(|t| t.0).max().unwrap_or(0);
    Ok(RecoveryOutcome {
        storage,
        report: RecoveryReport {
            committed,
            rolled_back,
            replayed,
            duplicate_replays_skipped,
            recovered_hot_orders,
            torn_tail,
            max_txn_id,
            max_trx_no,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use txsql_common::{RecordId, TableId};

    /// Builds a storage with one table, one hot row (pk=1) and one cold row
    /// (pk=2), returning (storage, table id, hot rid, cold rid, checkpoint).
    fn setup() -> (Storage, TableId, RecordId, RecordId, CheckpointImage) {
        let storage = Storage::default();
        let tid = TableId(1);
        storage.create_table(TableSchema::new(tid, "t", 2)).unwrap();
        let hot = storage.load_row(tid, Row::from_ints(&[1, 1])).unwrap();
        let cold = storage.load_row(tid, Row::from_ints(&[2, 100])).unwrap();
        let checkpoint = storage.checkpoint();
        (storage, tid, hot, cold, checkpoint)
    }

    #[test]
    fn committed_transactions_survive_a_crash() {
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let txn = TxnId(10);
        storage.begin_txn(txn);
        storage
            .apply_update(txn, tid, hot, Row::from_ints(&[1, 2]))
            .unwrap();
        let lsn = storage.commit_writes(txn, 1, 0, &[(tid, hot)]).unwrap();
        storage.redo().flush_to(lsn).unwrap();

        let outcome = recover(
            &checkpoint,
            &storage.redo().durable_records(),
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(outcome.report.committed, vec![txn]);
        assert!(outcome.report.rolled_back.is_empty());
        assert_eq!(outcome.report.max_txn_id, 10);
        assert_eq!(outcome.report.max_trx_no, 1);
        let t = outcome.storage.table(tid).unwrap();
        let rid = t.lookup_pk(1).unwrap();
        assert_eq!(
            outcome
                .storage
                .read_committed(tid, rid)
                .unwrap()
                .unwrap()
                .get_int(1),
            Some(2)
        );
    }

    #[test]
    fn unflushed_commit_is_rolled_back() {
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let txn = TxnId(10);
        storage.begin_txn(txn);
        let lsn = storage
            .apply_update(txn, tid, hot, Row::from_ints(&[1, 2]))
            .unwrap();
        storage.redo().flush_to(lsn).unwrap();
        // Commit marker exists but is NOT flushed.
        storage.commit_writes(txn, 1, 0, &[(tid, hot)]).unwrap();

        let outcome = recover(
            &checkpoint,
            &storage.redo().durable_records(),
            Duration::ZERO,
        )
        .unwrap();
        assert!(outcome.report.committed.is_empty());
        assert_eq!(outcome.report.rolled_back, vec![txn]);
        let t = outcome.storage.table(tid).unwrap();
        let rid = t.lookup_pk(1).unwrap();
        assert_eq!(
            outcome
                .storage
                .read_committed(tid, rid)
                .unwrap()
                .unwrap()
                .get_int(1),
            Some(1)
        );
    }

    #[test]
    fn hotspot_transactions_roll_back_in_reverse_hot_order() {
        let (storage, tid, hot, _cold, checkpoint) = setup();
        // Three uncommitted hotspot updates, orders 1,2,3 (paper §4.4 example).
        for (t, order, val) in [(1u64, 1u64, 2i64), (3, 2, 3), (2, 3, 4)] {
            let txn = TxnId(t);
            storage.begin_txn(txn);
            storage
                .apply_update(txn, tid, hot, Row::from_ints(&[1, val]))
                .unwrap();
            storage.set_hot_update_order(txn, order);
        }
        storage.redo().flush_all().unwrap();

        let outcome = recover(
            &checkpoint,
            &storage.redo().durable_records(),
            Duration::ZERO,
        )
        .unwrap();
        // Reverse hot-update order: order 3 (T2), then order 2 (T3), then order 1 (T1).
        assert_eq!(
            outcome.report.rolled_back,
            vec![TxnId(2), TxnId(3), TxnId(1)]
        );
        assert_eq!(
            outcome.report.recovered_hot_orders,
            vec![(TxnId(2), 3), (TxnId(3), 2), (TxnId(1), 1)]
        );
        let t = outcome.storage.table(tid).unwrap();
        let rid = t.lookup_pk(1).unwrap();
        assert_eq!(
            outcome
                .storage
                .read_committed(tid, rid)
                .unwrap()
                .unwrap()
                .get_int(1),
            Some(1)
        );
    }

    #[test]
    fn inserts_after_checkpoint_are_replayed_and_resolved() {
        let (storage, tid, _hot, _cold, checkpoint) = setup();
        let committed_txn = TxnId(5);
        storage.begin_txn(committed_txn);
        let (rid, _) = storage
            .apply_insert(committed_txn, tid, Row::from_ints(&[10, 10]))
            .unwrap();
        let lsn = storage
            .commit_writes(committed_txn, 2, 0, &[(tid, rid)])
            .unwrap();
        storage.redo().flush_to(lsn).unwrap();

        let active_txn = TxnId(6);
        storage.begin_txn(active_txn);
        storage
            .apply_insert(active_txn, tid, Row::from_ints(&[11, 11]))
            .unwrap();
        storage.redo().flush_all().unwrap();

        let outcome = recover(
            &checkpoint,
            &storage.redo().durable_records(),
            Duration::ZERO,
        )
        .unwrap();
        let t = outcome.storage.table(tid).unwrap();
        assert!(t.lookup_pk(10).is_ok(), "committed insert must survive");
        assert!(
            t.lookup_pk(11).is_err(),
            "uncommitted insert must be rolled back"
        );
        assert_eq!(outcome.report.committed, vec![committed_txn]);
        assert!(outcome.report.rolled_back.contains(&active_txn));
    }

    #[test]
    fn recovery_is_idempotent_when_rerun() {
        // A crash during recovery: running recovery again over the same
        // durable log must yield the same state (§5.3 last paragraph).
        let (storage, tid, hot, _cold, checkpoint) = setup();
        for (t, order, val) in [(1u64, 1u64, 2i64), (2, 2, 3)] {
            let txn = TxnId(t);
            storage.begin_txn(txn);
            storage
                .apply_update(txn, tid, hot, Row::from_ints(&[1, val]))
                .unwrap();
            storage.set_hot_update_order(txn, order);
        }
        storage.redo().flush_all().unwrap();
        let durable = storage.redo().durable_records();

        let first = recover(&checkpoint, &durable, Duration::ZERO).unwrap();
        let second = recover(&checkpoint, &durable, Duration::ZERO).unwrap();
        let value = |outcome: &RecoveryOutcome| {
            let t = outcome.storage.table(tid).unwrap();
            let rid = t.lookup_pk(1).unwrap();
            outcome
                .storage
                .read_committed(tid, rid)
                .unwrap()
                .unwrap()
                .get_int(1)
        };
        assert_eq!(value(&first), value(&second));
        assert_eq!(first.report.rolled_back, second.report.rolled_back);
    }

    #[test]
    fn replaying_the_same_suffix_twice_is_idempotent() {
        // The same durable suffix concatenated with itself — e.g. an archiver
        // handing recovery an overlapping log segment — must not double-apply
        // versions or double-commit.
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let committed = TxnId(1);
        storage.begin_txn(committed);
        storage
            .apply_update(committed, tid, hot, Row::from_ints(&[1, 7]))
            .unwrap();
        storage
            .commit_writes(committed, 1, 0, &[(tid, hot)])
            .unwrap();
        let in_flight = TxnId(2);
        storage.begin_txn(in_flight);
        storage
            .apply_update(in_flight, tid, hot, Row::from_ints(&[1, 9]))
            .unwrap();
        storage.redo().flush_all().unwrap();

        let suffix = storage.redo().durable_records();
        let mut doubled = suffix.clone();
        doubled.extend(suffix.iter().cloned());

        let once = recover(&checkpoint, &suffix, Duration::ZERO).unwrap();
        let twice = recover(&checkpoint, &doubled, Duration::ZERO).unwrap();
        assert_eq!(twice.report.replayed, once.report.replayed);
        assert_eq!(twice.report.duplicate_replays_skipped, once.report.replayed);
        assert_eq!(once.report.committed, twice.report.committed);
        assert_eq!(once.report.rolled_back, twice.report.rolled_back);
        for outcome in [&once, &twice] {
            let t = outcome.storage.table(tid).unwrap();
            let rid = t.lookup_pk(1).unwrap();
            let slot = t.slot(rid).unwrap();
            assert_eq!(
                slot.read()
                    .visible_row(&crate::version::ReadCommitted)
                    .unwrap()
                    .get_int(1),
                Some(7)
            );
            // No stacked duplicates: base + one replayed committed version.
            assert_eq!(slot.read().version_count(), 2);
        }
    }

    #[test]
    fn duplicate_commit_marker_is_applied_once() {
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let txn = TxnId(4);
        storage.begin_txn(txn);
        storage
            .apply_update(txn, tid, hot, Row::from_ints(&[1, 42]))
            .unwrap();
        storage.commit_writes(txn, 9, 0, &[(tid, hot)]).unwrap();
        storage.redo().flush_all().unwrap();
        let mut suffix = storage.redo().durable_records();
        suffix.push(RedoRecord::Commit { txn, trx_no: 9 });

        let outcome = recover(&checkpoint, &suffix, Duration::ZERO).unwrap();
        assert_eq!(outcome.report.committed, vec![txn]);
        assert_eq!(outcome.report.max_trx_no, 9);
        let t = outcome.storage.table(tid).unwrap();
        let rid = t.lookup_pk(1).unwrap();
        assert_eq!(
            outcome
                .storage
                .read_committed(tid, rid)
                .unwrap()
                .unwrap()
                .get_int(1),
            Some(42)
        );
    }

    #[test]
    fn torn_tail_scan_stops_at_last_intact_record() {
        let (storage, tid, hot, _cold, checkpoint) = setup();
        let durable_txn = TxnId(1);
        storage.begin_txn(durable_txn);
        storage
            .apply_update(durable_txn, tid, hot, Row::from_ints(&[1, 5]))
            .unwrap();
        storage
            .commit_writes(durable_txn, 1, 0, &[(tid, hot)])
            .unwrap();
        storage.redo().flush_all().unwrap();
        // Simulate a mid-flush crash image: the durable frames plus a torn
        // record where the next commit marker would have been.
        let mut frames = storage.redo().durable_frames();
        let torn_at = Lsn(storage.redo().latest_lsn().0 + 1);
        frames.push((torn_at, LogFrame::Torn));

        let outcome = recover_frames(&checkpoint, &frames, Duration::ZERO).unwrap();
        assert_eq!(outcome.report.torn_tail, Some(torn_at));
        assert_eq!(outcome.report.committed, vec![durable_txn]);
        assert!(outcome.report.summary().contains("torn tail"));
    }

    #[test]
    fn torn_record_before_the_tail_is_corrupt() {
        let (_storage, _tid, _hot, _cold, checkpoint) = setup();
        let frames = vec![
            (Lsn(1), LogFrame::Torn),
            (
                Lsn(2),
                LogFrame::Intact(RedoRecord::Begin { txn: TxnId(1) }),
            ),
        ];
        let err = recover_frames(&checkpoint, &frames, Duration::ZERO).unwrap_err();
        assert!(matches!(err, Error::CorruptLog { .. }));
    }

    #[test]
    fn empty_log_recovers_checkpoint_exactly() {
        let (_storage, tid, _hot, _cold, checkpoint) = setup();
        let outcome = recover(&checkpoint, &[], Duration::ZERO).unwrap();
        assert_eq!(outcome.report.replayed, 0);
        assert_eq!(outcome.report.summary(), outcome.report.summary());
        let t = outcome.storage.table(tid).unwrap();
        assert_eq!(t.row_count(), 2);
    }
}

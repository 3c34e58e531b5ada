//! The storage facade used by the transaction layer.
//!
//! [`Storage`] owns the tables, the redo log and the undo log, and exposes the
//! transactional primitives the concurrency-control protocols in `txsql-core`
//! are built from:
//!
//! * `apply_update` / `apply_insert` — write an uncommitted version, record
//!   its undo entry and append physical redo;
//! * `commit_writes` — stamp the versions with a commit sequence number,
//!   purge the written rows' chains below the purge horizon and append the
//!   commit marker;
//! * `rollback_writes` — restore before-images from undo and append the
//!   rollback marker;
//! * `set_hot_update_order` — persist the hot-update order in the undo header
//!   (and redo) so crash recovery can order hotspot rollbacks (§5.3);
//! * `checkpoint` — capture the committed state, the starting point for the
//!   failure-recovery experiment (§6.4.6).
//!
//! None of these takes an engine-wide latch on the way to a row.  Tables
//! sit in a write-once directory that lookups read without a lock or a
//! reference count; a table shards its own index and pages (see
//! [`Table`]); undo segments, first LSNs and the commit side of the
//! checkpoint latch are sharded by transaction id.  The redo log's append
//! mutex is the one engine-wide lock a write still takes.

use crate::fault::{CrashPoint, FaultInjector};
use crate::schema::TableSchema;
use crate::shards::{padded, shard_of, Shards, TxnShards};
use crate::table::Table;
use crate::undo::{UndoHeader, UndoLog, UndoRecord, UndoSegment};
use crate::version::{ReadCommitted, RecordVersions, VisibilityJudge};
use crate::wal::{RedoLog, RedoRecord};
use parking_lot::RwLock;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use txsql_common::{Error, Lsn, RecordId, Result, Row, TableId, TxnId};

/// A consistent image of the committed data, used as the recovery baseline.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// LSN up to which the checkpoint reflects the log.
    pub lsn: Lsn,
    /// Every table's schema and its committed rows.
    pub tables: Vec<(TableSchema, Vec<Row>)>,
}

/// Table ids per directory chunk.
const DIRECTORY_CHUNK: usize = 64;
/// Directory chunks: table ids `0..DIRECTORY_CHUNK * DIRECTORY_CHUNKS` fit.
const DIRECTORY_CHUNKS: usize = 64;

/// The write-once table directory: a two-level array of [`OnceLock`]s
/// indexed by table id.  A table is set once, by `create_table`, and never
/// replaced or dropped before the storage is, so a lookup is two acquire
/// loads that hand out a plain `&Table` — no lock and no reference count
/// that every reader of the table would write.  Chunks are allocated on
/// first use.
#[derive(Debug)]
struct TableDirectory {
    chunks: [OnceLock<Box<[OnceLock<Table>]>>; DIRECTORY_CHUNKS],
}

impl TableDirectory {
    fn new() -> Self {
        Self {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    fn get(&self, id: TableId) -> Option<&Table> {
        let id = id.0 as usize;
        self.chunks
            .get(id / DIRECTORY_CHUNK)?
            .get()?
            .get(id % DIRECTORY_CHUNK)?
            .get()
    }

    /// Sets the table for `schema.id`; fails if the id is taken or beyond
    /// the directory.
    fn create(&self, schema: TableSchema) -> Result<&Table> {
        let id = schema.id.0 as usize;
        let chunk = self
            .chunks
            .get(id / DIRECTORY_CHUNK)
            .ok_or_else(|| Error::Internal {
                reason: format!(
                    "{} is beyond the table directory (ids below {})",
                    schema.id,
                    DIRECTORY_CHUNK * DIRECTORY_CHUNKS
                ),
            })?
            .get_or_init(|| (0..DIRECTORY_CHUNK).map(|_| OnceLock::new()).collect());
        let entry = &chunk[id % DIRECTORY_CHUNK];
        let table_id = schema.id;
        let mut created = false;
        let table = entry.get_or_init(|| {
            created = true;
            Table::new(schema)
        });
        if !created {
            return Err(Error::Internal {
                reason: format!("{table_id} already exists"),
            });
        }
        Ok(table)
    }

    /// Every table, in id order.
    fn iter(&self) -> impl Iterator<Item = &Table> {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|chunk| chunk.iter().filter_map(OnceLock::get))
    }
}

/// The storage engine facade.
#[derive(Debug)]
pub struct Storage {
    tables: TableDirectory,
    redo: RedoLog,
    undo: UndoLog,
    faults: Arc<FaultInjector>,
    /// First redo LSN of every active (unfinished) transaction, sharded by
    /// transaction id; checkpoint truncation must never cut past the oldest
    /// of these.
    first_lsn: TxnShards<Lsn>,
    /// Serialises commit *application* against checkpoint *capture*:
    /// `commit_writes` stamps a transaction's versions committed slot by
    /// slot, and a capture scanning rows in between would publish an image
    /// reflecting half a commit — unrecoverable once truncation drops the
    /// transaction's records.  A committer takes the read side of its
    /// transaction's shard only (committers are already serialised per
    /// slot); the capture takes the write side of every shard, in order.
    apply_latch: Shards<RwLock<()>>,
}

impl Default for Storage {
    fn default() -> Self {
        Self::new(Duration::ZERO)
    }
}

impl Storage {
    /// Creates an empty storage engine whose redo flushes cost
    /// `fsync_latency` and that never experiences injected faults.
    pub fn new(fsync_latency: Duration) -> Self {
        Self::with_faults(fsync_latency, FaultInjector::disabled())
    }

    /// Creates an empty storage engine wired to a fault injector (shared with
    /// its redo log, so crash points fire consistently across both).
    pub fn with_faults(fsync_latency: Duration, faults: Arc<FaultInjector>) -> Self {
        Self {
            tables: TableDirectory::new(),
            redo: RedoLog::with_faults(fsync_latency, Arc::clone(&faults)),
            undo: UndoLog::new(),
            faults,
            first_lsn: TxnShards::default(),
            apply_latch: padded(|| RwLock::new(())),
        }
    }

    /// The fault injector shared by this storage engine and its redo log.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// First redo LSN of the oldest active transaction, if any — the floor
    /// below which checkpoint truncation must not cut the log.  Visits the
    /// shards one by one; [`Storage::checkpoint_with_floor`] calls it under
    /// the apply latch, which no finishing commit can cross.
    pub fn active_txn_floor(&self) -> Option<Lsn> {
        let mut floor: Option<Lsn> = None;
        self.first_lsn.for_each_shard(|shard| {
            if let Some(&lsn) = shard.values().min() {
                floor = Some(floor.map_or(lsn, |f| f.min(lsn)));
            }
        });
        floor
    }

    /// Creates a table.  Returns an error if the id is already in use or
    /// too large for the table directory.
    pub fn create_table(&self, schema: TableSchema) -> Result<&Table> {
        self.tables.create(schema)
    }

    /// Looks up a table: no lock, no reference count.
    #[inline]
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.tables.get(id).ok_or(Error::UnknownTable { table: id })
    }

    /// All tables, in id order.
    pub fn tables(&self) -> Vec<&Table> {
        self.tables.iter().collect()
    }

    /// The redo log.
    pub fn redo(&self) -> &RedoLog {
        &self.redo
    }

    /// The undo log.
    pub fn undo(&self) -> &UndoLog {
        &self.undo
    }

    // ---------------------------------------------------------------------
    // Non-transactional helpers (bulk load, reads)
    // ---------------------------------------------------------------------

    /// Bulk-loads a committed row without logging (the checkpoint captures
    /// loaded data instead, as a real system's initial backup would).
    pub fn load_row(&self, table: TableId, row: Row) -> Result<RecordId> {
        self.table(table)?.insert_committed(row)
    }

    /// Reads the newest (possibly uncommitted) row image.
    pub fn read_latest(&self, table: TableId, record: RecordId) -> Result<Row> {
        let slot = self.table(table)?.slot(record)?;
        let guard = slot.read();
        guard.latest_row().ok_or(Error::UnknownRecord { record })
    }

    /// Reads the newest (possibly uncommitted) row image together with its
    /// writer (`TxnId::INVALID` for a bulk-loaded base version), in a single
    /// slot read — the locked-read hot path records both.
    pub fn read_latest_with_writer(
        &self,
        table: TableId,
        record: RecordId,
    ) -> Result<(Row, TxnId)> {
        let slot = self.table(table)?.slot(record)?;
        let guard = slot.read();
        guard
            .latest()
            .map(|v| (v.row.clone(), v.writer))
            .ok_or(Error::UnknownRecord { record })
    }

    /// Reads the newest (possibly uncommitted) row image together with its
    /// writer *if that version is still uncommitted*, in a single slot read.
    /// An update builds on exactly this version, so Bamboo records its
    /// dirty-read dependency on the writer this returns: a separate
    /// [`Storage::latest_writer`] call could find the head already rolled
    /// back and miss the dependency on the value it read.
    pub fn read_latest_with_dirty_writer(
        &self,
        table: TableId,
        record: RecordId,
    ) -> Result<(Row, Option<TxnId>)> {
        let slot = self.table(table)?.slot(record)?;
        let guard = slot.read();
        guard
            .latest()
            .map(|v| (v.row.clone(), (!v.is_committed()).then_some(v.writer)))
            .ok_or(Error::UnknownRecord { record })
    }

    /// Reads the newest version visible to `judge`.  Only for judges a purge
    /// cannot invalidate, such as [`ReadCommitted`] (purge never drops the
    /// newest committed version); a read view goes through
    /// [`Table::read_snapshot`], which creates it under the slot latch.
    pub fn read_visible<J: VisibilityJudge>(
        &self,
        table: TableId,
        record: RecordId,
        judge: &J,
    ) -> Result<Option<Row>> {
        let slot = self.table(table)?.slot(record)?;
        let guard = slot.read();
        Ok(guard.visible_row(judge))
    }

    /// Reads the newest *committed* row image.
    pub fn read_committed(&self, table: TableId, record: RecordId) -> Result<Option<Row>> {
        self.read_visible(table, record, &ReadCommitted)
    }

    /// Writer of the newest version of a record *if that version is still
    /// uncommitted* (the Bamboo dirty-read dependency signal).
    pub fn latest_writer(&self, table: TableId, record: RecordId) -> Result<Option<TxnId>> {
        let slot = self.table(table)?.slot(record)?;
        let guard = slot.read();
        Ok(if guard.has_uncommitted_head() {
            guard.latest_writer()
        } else {
            None
        })
    }

    /// Writer of the newest version of a record, committed or not
    /// (`TxnId::INVALID` for a bulk-loaded base version).  This is the
    /// version a locked read (`SELECT ... FOR UPDATE`, `update_row`)
    /// observes, recorded in the read set for the serializability checker.
    pub fn latest_version_writer(&self, table: TableId, record: RecordId) -> Result<Option<TxnId>> {
        let slot = self.table(table)?.slot(record)?;
        let guard = slot.read();
        Ok(guard.latest_writer())
    }

    // ---------------------------------------------------------------------
    // Transactional primitives
    // ---------------------------------------------------------------------

    /// Writes a transaction's Begin record and registers its first LSN.
    /// The undo segment appears with the first undo record.
    pub fn begin_txn(&self, txn: TxnId) -> Lsn {
        let lsn = self.redo.append(RedoRecord::Begin { txn });
        self.first_lsn.lock(txn).insert(txn, lsn);
        lsn
    }

    /// Applies an update as a new uncommitted version, recording undo and
    /// redo.  Returns the redo LSN of the update.
    pub fn apply_update(
        &self,
        txn: TxnId,
        table_id: TableId,
        record: RecordId,
        new_row: Row,
    ) -> Result<Lsn> {
        self.redo.crash_point(CrashPoint::PreAppend)?;
        let table = self.table(table_id)?;
        let slot = table.slot(record)?;
        let pk = new_row.primary_key().unwrap_or_default();
        {
            let mut guard = slot.write();
            let before = guard.latest_row().ok_or(Error::UnknownRecord { record })?;
            self.undo.push(
                txn,
                UndoRecord::Update {
                    table: table_id,
                    record,
                    before,
                },
            );
            guard.push_uncommitted(new_row.clone(), txn);
        }
        let lsn = self.redo.append(RedoRecord::Update {
            txn,
            table: table_id,
            record,
            pk,
            after: new_row,
        });
        self.redo.crash_point(CrashPoint::PostAppendPreFlush)?;
        Ok(lsn)
    }

    /// Applies a transactional insert (uncommitted), recording undo and redo.
    pub fn apply_insert(&self, txn: TxnId, table_id: TableId, row: Row) -> Result<(RecordId, Lsn)> {
        self.redo.crash_point(CrashPoint::PreAppend)?;
        let table = self.table(table_id)?;
        let pk = row.primary_key().ok_or_else(|| Error::Internal {
            reason: "insert without integer pk".into(),
        })?;
        let record =
            table.insert_versions(pk, RecordVersions::new_uncommitted(row.clone(), txn))?;
        self.undo.push(
            txn,
            UndoRecord::Insert {
                table: table_id,
                record,
                pk,
            },
        );
        let lsn = self.redo.append(RedoRecord::Insert {
            txn,
            table: table_id,
            record,
            pk,
            row,
        });
        self.redo.crash_point(CrashPoint::PostAppendPreFlush)?;
        Ok((record, lsn))
    }

    /// Persists the hot-update order of `txn` in its undo header (§5.3).
    pub fn set_hot_update_order(&self, txn: TxnId, order: u64) -> Lsn {
        let header = UndoHeader::with_hot_update_order(order);
        self.undo.set_header(txn, header);
        self.redo.append(RedoRecord::UndoHeader {
            txn,
            field: header.raw(),
        })
    }

    /// Marks every version written by `txn` on the given records as committed
    /// with `trx_no`, logs the undo header stamped with it, appends the commit
    /// marker and drops the transaction's undo segment.
    /// Returns the LSN of the commit marker (the LSN the commit pipeline must
    /// make durable).
    ///
    /// Each written record is purged below `purge_horizon` under the slot
    /// write latch the stamp already holds ([`RecordVersions::purge_below`]).
    /// The caller passes the transaction system's purge horizon: every
    /// `trx_no` at or below it has finished, so its versions are visible to
    /// every read view created from then on.  Purging at commit keeps every
    /// chain — above all a hot row's — as short as the number of in-flight
    /// commits, instead of one version per commit ever made.
    pub fn commit_writes(
        &self,
        txn: TxnId,
        trx_no: u64,
        purge_horizon: u64,
        writes: &[(TableId, RecordId)],
    ) -> Result<Lsn> {
        self.redo.crash_point(CrashPoint::PreAppend)?;
        // Atomic with respect to checkpoint capture: a capture must see this
        // commit either fully applied (and deregistered from the floor) or
        // not at all — see `apply_latch`.
        let _apply = self.apply_latch[shard_of(txn.0)].read();
        for (table_id, record) in writes {
            let table = self.table(*table_id)?;
            let slot = table.slot(*record)?;
            let mut chain = slot.write();
            chain.commit_writer(txn, trx_no);
            chain.purge_below(purge_horizon);
        }
        // The segment is dropped just below, so only the redo log keeps the
        // stamped header.
        self.redo.append(RedoRecord::UndoHeader {
            txn,
            field: UndoHeader::with_trx_no(trx_no).raw(),
        });
        let lsn = self.redo.append(RedoRecord::Commit { txn, trx_no });
        self.undo.take(txn);
        self.first_lsn.lock(txn).remove(&txn);
        // A crash here leaves the commit marker in the log buffer but never
        // flushed: the transaction was stamped in memory yet its commit is
        // not durable and must not be acknowledged.
        self.redo.crash_point(CrashPoint::PostAppendPreFlush)?;
        Ok(lsn)
    }

    /// Rolls back every change `txn` made, using its undo segment, and appends
    /// the rollback marker.  Changes are undone in reverse execution order.
    ///
    /// Deliberately *not* gated on crash points or read-only degradation:
    /// rollback must keep working after an fsync failure degraded the engine
    /// (it only restores in-memory before-images), and after a crash it is a
    /// harmless no-op on the dead process image.
    pub fn rollback_writes(&self, txn: TxnId) -> Result<Lsn> {
        self.first_lsn.lock(txn).remove(&txn);
        let segment: Option<UndoSegment> = self.undo.take(txn);
        if let Some(segment) = segment {
            for undo in segment.rollback_order() {
                match undo {
                    UndoRecord::Update { table, record, .. } => {
                        let table = self.table(*table)?;
                        let slot = table.slot(*record)?;
                        slot.write().rollback_writer(txn);
                    }
                    UndoRecord::Insert { table, record, pk } => {
                        let table = self.table(*table)?;
                        let slot = table.slot(*record)?;
                        slot.write().rollback_writer(txn);
                        table.unindex_pk(*pk);
                    }
                    UndoRecord::Delete { table, record, .. } => {
                        let table = self.table(*table)?;
                        let slot = table.slot(*record)?;
                        let mut guard = slot.write();
                        guard.set_deleted(false);
                        guard.rollback_writer(txn);
                    }
                }
            }
        }
        Ok(self.redo.append(RedoRecord::Rollback { txn }))
    }

    // ---------------------------------------------------------------------
    // Checkpoint
    // ---------------------------------------------------------------------

    /// Captures the committed state of every table together with the current
    /// log position.  Recovery starts from this image and replays the durable
    /// redo suffix.
    pub fn checkpoint(&self) -> CheckpointImage {
        self.checkpoint_with_floor().0
    }

    /// [`Storage::checkpoint`] plus the active-transaction floor, both read
    /// under the apply latch so the image is a *consistent* snapshot:
    ///
    /// * no commit can apply mid-scan ([`Storage::commit_writes`] holds its
    ///   shard's read side across stamping every slot *and* deregistering
    ///   from the floor, and the capture holds every shard's write side), so
    ///   every transaction is either fully in the image or not at all;
    /// * a transaction fully in the image has its records below the image
    ///   LSN covered (truncating them is safe — replay of the suffix is
    ///   idempotent for anything the image already reflects);
    /// * a transaction not in the image is either still active — the floor
    ///   read *in the same critical section* protects its records from
    ///   truncation, so replay recovers it — or starts after the capture,
    ///   with all its records above the image LSN.
    ///
    /// Reading the floor outside the latch is the bug sim explorer v2
    /// caught (sim_crash seed 198): a transaction that began after an early
    /// floor read and finished applying mid-scan was half-captured by the
    /// image while truncation dropped its records.
    pub fn checkpoint_with_floor(&self) -> (CheckpointImage, Option<Lsn>) {
        let _latch: Vec<_> = self.apply_latch.iter().map(|shard| shard.write()).collect();
        let lsn = self.redo.latest_lsn();
        let floor = self.active_txn_floor();
        let mut tables = Vec::new();
        for table in self.tables() {
            let mut rows = Vec::new();
            for (_, record) in table.all_record_ids() {
                if let Ok(slot) = table.slot(record) {
                    if let Some(row) = slot.read().visible_row(&ReadCommitted) {
                        rows.push(row);
                    }
                }
            }
            tables.push((table.schema().clone(), rows));
        }
        (CheckpointImage { lsn, tables }, floor)
    }

    /// Rebuilds a storage engine from a checkpoint image (no redo replay; see
    /// [`crate::recovery::recover`] for the full recovery path).
    pub fn from_checkpoint(image: &CheckpointImage, fsync_latency: Duration) -> Result<Self> {
        let storage = Storage::new(fsync_latency);
        for (schema, rows) in &image.tables {
            let table = storage.create_table(schema.clone())?;
            for row in rows {
                table.insert_committed(row.clone())?;
            }
        }
        Ok(storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Storage, TableId, RecordId) {
        let storage = Storage::default();
        let tid = TableId(1);
        storage
            .create_table(TableSchema::new(tid, "t1", 2))
            .unwrap();
        let rid = storage.load_row(tid, Row::from_ints(&[1, 100])).unwrap();
        (storage, tid, rid)
    }

    #[test]
    fn update_commit_cycle() {
        let (storage, tid, rid) = setup();
        let txn = TxnId(10);
        storage.begin_txn(txn);
        storage
            .apply_update(txn, tid, rid, Row::from_ints(&[1, 101]))
            .unwrap();
        // Not yet visible to committed readers.
        assert_eq!(
            storage
                .read_committed(tid, rid)
                .unwrap()
                .unwrap()
                .get_int(1),
            Some(100)
        );
        assert_eq!(storage.read_latest(tid, rid).unwrap().get_int(1), Some(101));
        assert_eq!(storage.latest_writer(tid, rid).unwrap(), Some(txn));
        let lsn = storage.commit_writes(txn, 1, 0, &[(tid, rid)]).unwrap();
        storage.redo().flush_to(lsn).unwrap();
        assert_eq!(
            storage
                .read_committed(tid, rid)
                .unwrap()
                .unwrap()
                .get_int(1),
            Some(101)
        );
        assert_eq!(storage.latest_writer(tid, rid).unwrap(), None);
        // Undo segment is gone after commit.
        assert_eq!(storage.undo().segment_len(txn), 0);
    }

    /// A copy-free style judge: sees committed versions up to a horizon.
    struct SeesUpTo(u64);

    impl VisibilityJudge for SeesUpTo {
        fn is_visible(&self, _writer: TxnId, commit_no: Option<u64>) -> bool {
            commit_no.is_some_and(|no| no <= self.0)
        }
    }

    #[test]
    fn commit_purges_written_rows_below_the_horizon() {
        let (storage, tid, rid) = setup();
        for t in 1..=5u64 {
            let txn = TxnId(t);
            storage.begin_txn(txn);
            storage
                .apply_update(txn, tid, rid, Row::from_ints(&[1, 100 + t as i64]))
                .unwrap();
            // The horizon lags two commits behind, as if two were in flight.
            storage
                .commit_writes(txn, t, t.saturating_sub(2), &[(tid, rid)])
                .unwrap();
        }
        let slot = storage.table(tid).unwrap().slot(rid).unwrap();
        let commit_nos: Vec<_> = slot.read().iter().map(|v| v.commit_no).collect();
        assert_eq!(commit_nos, vec![Some(5), Some(4), Some(3)]);
        // A view at the horizon still finds its version; the writer comes
        // back with the row.
        let (row, writer) = storage
            .table(tid)
            .unwrap()
            .read_snapshot(rid, || SeesUpTo(3))
            .unwrap()
            .unwrap();
        assert_eq!((row.get_int(1), writer), (Some(103), TxnId(3)));
        assert_eq!(
            storage.read_visible(tid, rid, &SeesUpTo(5)).unwrap(),
            Some(Row::from_ints(&[1, 105]))
        );
    }

    #[test]
    fn update_rollback_cycle() {
        let (storage, tid, rid) = setup();
        let txn = TxnId(11);
        storage.begin_txn(txn);
        storage
            .apply_update(txn, tid, rid, Row::from_ints(&[1, 999]))
            .unwrap();
        storage.rollback_writes(txn).unwrap();
        assert_eq!(storage.read_latest(tid, rid).unwrap().get_int(1), Some(100));
        assert_eq!(
            storage
                .read_committed(tid, rid)
                .unwrap()
                .unwrap()
                .get_int(1),
            Some(100)
        );
    }

    #[test]
    fn insert_rollback_removes_row() {
        let (storage, tid, _) = setup();
        let txn = TxnId(12);
        storage.begin_txn(txn);
        let (rid, _) = storage
            .apply_insert(txn, tid, Row::from_ints(&[2, 200]))
            .unwrap();
        assert_eq!(storage.read_latest(tid, rid).unwrap().get_int(1), Some(200));
        storage.rollback_writes(txn).unwrap();
        assert!(storage.table(tid).unwrap().lookup_pk(2).is_err());
    }

    #[test]
    fn insert_commit_makes_row_visible() {
        let (storage, tid, _) = setup();
        let txn = TxnId(13);
        storage.begin_txn(txn);
        let (rid, _) = storage
            .apply_insert(txn, tid, Row::from_ints(&[5, 500]))
            .unwrap();
        assert!(storage.read_committed(tid, rid).unwrap().is_none());
        storage.commit_writes(txn, 2, 0, &[(tid, rid)]).unwrap();
        assert_eq!(
            storage
                .read_committed(tid, rid)
                .unwrap()
                .unwrap()
                .get_int(1),
            Some(500)
        );
    }

    #[test]
    fn stacked_uncommitted_updates_roll_back_in_reverse_order() {
        let (storage, tid, rid) = setup();
        for (t, v) in [(1u64, 101i64), (2, 102), (3, 103)] {
            let txn = TxnId(t);
            storage.begin_txn(txn);
            storage
                .apply_update(txn, tid, rid, Row::from_ints(&[1, v]))
                .unwrap();
        }
        assert_eq!(storage.read_latest(tid, rid).unwrap().get_int(1), Some(103));
        storage.rollback_writes(TxnId(3)).unwrap();
        storage.rollback_writes(TxnId(2)).unwrap();
        storage.rollback_writes(TxnId(1)).unwrap();
        assert_eq!(storage.read_latest(tid, rid).unwrap().get_int(1), Some(100));
    }

    #[test]
    fn hot_update_order_persisted_in_undo_header_and_redo() {
        let (storage, tid, rid) = setup();
        let txn = TxnId(21);
        storage.begin_txn(txn);
        storage
            .apply_update(txn, tid, rid, Row::from_ints(&[1, 150]))
            .unwrap();
        storage.set_hot_update_order(txn, 17);
        assert_eq!(storage.undo().header(txn).hot_update_order(), Some(17));
        let has_header_record = storage
            .redo()
            .all_records()
            .iter()
            .any(|r| matches!(r, RedoRecord::UndoHeader { txn: t, field } if *t == txn && field & crate::undo::HOT_UPDATE_ORDER_FLAG != 0));
        assert!(has_header_record);
    }

    #[test]
    fn checkpoint_round_trip() {
        let (storage, tid, rid) = setup();
        let txn = TxnId(30);
        storage.begin_txn(txn);
        storage
            .apply_update(txn, tid, rid, Row::from_ints(&[1, 123]))
            .unwrap();
        storage.commit_writes(txn, 3, 0, &[(tid, rid)]).unwrap();
        // An uncommitted change must not leak into the checkpoint.
        let txn2 = TxnId(31);
        storage.begin_txn(txn2);
        storage
            .apply_update(txn2, tid, rid, Row::from_ints(&[1, 999]))
            .unwrap();

        let image = storage.checkpoint();
        let rebuilt = Storage::from_checkpoint(&image, Duration::ZERO).unwrap();
        let rid2 = rebuilt.table(tid).unwrap().lookup_pk(1).unwrap();
        assert_eq!(
            rebuilt.read_latest(tid, rid2).unwrap().get_int(1),
            Some(123)
        );
    }

    #[test]
    fn active_txn_floor_tracks_oldest_unfinished_txn() {
        let (storage, tid, rid) = setup();
        assert_eq!(storage.active_txn_floor(), None);
        let a = TxnId(1);
        let b = TxnId(2);
        let floor = storage.begin_txn(a);
        storage.begin_txn(b);
        assert_eq!(storage.active_txn_floor(), Some(floor));
        storage
            .apply_update(a, tid, rid, Row::from_ints(&[1, 101]))
            .unwrap();
        storage.commit_writes(a, 1, 0, &[(tid, rid)]).unwrap();
        // The floor advances to the younger transaction once `a` finishes.
        assert!(storage.active_txn_floor().unwrap() > floor);
        storage.rollback_writes(b).unwrap();
        assert_eq!(storage.active_txn_floor(), None);
    }

    #[test]
    fn crash_during_commit_is_not_acknowledged() {
        use crate::fault::{FaultInjector, FaultPlan};
        // The crash fires after the commit marker is appended but before any
        // flush covers it: commit_writes must surface the crash instead of
        // acknowledging the commit.
        let plan = FaultPlan::none().crash_at(CrashPoint::PostAppendPreFlush, 2);
        let storage = Storage::with_faults(Duration::ZERO, FaultInjector::new(plan));
        let tid = TableId(1);
        storage
            .create_table(TableSchema::new(tid, "t1", 2))
            .unwrap();
        let rid = storage.load_row(tid, Row::from_ints(&[1, 100])).unwrap();
        let txn = TxnId(7);
        storage.begin_txn(txn);
        storage
            .apply_update(txn, tid, rid, Row::from_ints(&[1, 101]))
            .unwrap(); // first PostAppendPreFlush hit passes
        let err = storage.commit_writes(txn, 1, 0, &[(tid, rid)]).unwrap_err();
        assert!(matches!(err, Error::Crashed { .. }));
        // Nothing was ever flushed: the durable image has no trace of txn.
        assert!(storage.redo().durable_records().is_empty());
    }

    #[test]
    fn duplicate_table_creation_fails() {
        let storage = Storage::default();
        storage
            .create_table(TableSchema::new(TableId(9), "a", 1))
            .unwrap();
        assert!(storage
            .create_table(TableSchema::new(TableId(9), "b", 1))
            .is_err());
        assert!(storage.table(TableId(8)).is_err());
    }
}

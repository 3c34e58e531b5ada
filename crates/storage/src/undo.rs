//! Undo log: per-transaction undo segments.
//!
//! Each transaction owns an [`UndoSegment`] containing the before-images of
//! the rows it modified plus an [`UndoHeader`].  The header reproduces the
//! paper's recovery trick (§5.3): InnoDB's `TRX_UNDO_TRX_NO` field normally
//! stores the commit sequence number (`trx_no`), but while a hotspot
//! transaction is uncommitted that field is unused — so TXSQL repurposes it,
//! setting the top bit to 1 and storing the `hot_update_order` there.  After
//! a crash, recovery reads the field back and, when the top bit is set, uses
//! the hot-update order to roll back uncommitted hotspot transactions in the
//! correct (reverse) order.

use crate::shards::TxnShards;
use txsql_common::{RecordId, Row, TableId, TxnId};

/// Top bit of the `TRX_UNDO_TRX_NO` field: set → the value is a
/// `hot_update_order`, clear → the value is a commit `trx_no` (§5.3).
pub const HOT_UPDATE_ORDER_FLAG: u64 = 1 << 63;

/// The undo segment header (the repurposed `TRX_UNDO_TRX_NO` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UndoHeader {
    field: u64,
}

impl UndoHeader {
    /// An empty header (neither a trx_no nor a hot_update_order recorded yet).
    pub const fn empty() -> Self {
        Self { field: 0 }
    }

    /// Encodes a commit sequence number.
    pub fn with_trx_no(trx_no: u64) -> Self {
        assert!(
            trx_no & HOT_UPDATE_ORDER_FLAG == 0,
            "trx_no overflows the header field"
        );
        Self { field: trx_no }
    }

    /// Encodes a hot update order (top bit set).
    pub fn with_hot_update_order(order: u64) -> Self {
        assert!(
            order & HOT_UPDATE_ORDER_FLAG == 0,
            "hot_update_order overflows the header field"
        );
        Self {
            field: order | HOT_UPDATE_ORDER_FLAG,
        }
    }

    /// The raw field value as persisted in the redo log.
    pub fn raw(&self) -> u64 {
        self.field
    }

    /// Rebuilds a header from its persisted raw value.
    pub fn from_raw(field: u64) -> Self {
        Self { field }
    }

    /// Returns the hot update order if the field currently encodes one.
    pub fn hot_update_order(&self) -> Option<u64> {
        if self.field & HOT_UPDATE_ORDER_FLAG != 0 {
            Some(self.field & !HOT_UPDATE_ORDER_FLAG)
        } else {
            None
        }
    }

    /// Returns the commit sequence number if the field currently encodes one.
    pub fn trx_no(&self) -> Option<u64> {
        if self.field != 0 && self.field & HOT_UPDATE_ORDER_FLAG == 0 {
            Some(self.field)
        } else {
            None
        }
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.field == 0
    }
}

/// What a single undo record reverses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoRecord {
    /// An update: restore `before` at `record`.
    Update {
        /// Table the row belongs to.
        table: TableId,
        /// The updated record.
        record: RecordId,
        /// Row image before the update.
        before: Row,
    },
    /// An insert: remove the row (unindex `pk`) at `record`.
    Insert {
        /// Table the row belongs to.
        table: TableId,
        /// The inserted record.
        record: RecordId,
        /// Primary key to unindex on rollback.
        pk: i64,
    },
    /// A delete: restore the row (tombstone removal).
    Delete {
        /// Table the row belongs to.
        table: TableId,
        /// The deleted record.
        record: RecordId,
        /// Row image before the delete.
        before: Row,
    },
}

impl UndoRecord {
    /// The record this undo entry refers to.
    pub fn record(&self) -> RecordId {
        match self {
            UndoRecord::Update { record, .. }
            | UndoRecord::Insert { record, .. }
            | UndoRecord::Delete { record, .. } => *record,
        }
    }
}

/// A transaction's undo segment.
#[derive(Debug, Clone, Default)]
pub struct UndoSegment {
    /// The (repurposed) undo header.
    pub header: UndoHeader,
    /// Undo records in the order the operations were performed.
    pub records: Vec<UndoRecord>,
}

impl UndoSegment {
    /// Number of undo records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no operations have been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates undo records in rollback order (reverse of execution).
    pub fn rollback_order(&self) -> impl Iterator<Item = &UndoRecord> {
        self.records.iter().rev()
    }
}

/// The undo log: all active transactions' undo segments, sharded by
/// transaction id.  Every call locks only the shard of the transaction it
/// names, so concurrent transactions rarely share a mutex.  A segment
/// appears with the transaction's first undo record or header and goes at
/// [`UndoLog::take`].
#[derive(Debug, Default)]
pub struct UndoLog {
    segments: TxnShards<UndoSegment>,
}

impl UndoLog {
    /// Creates an empty undo log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an undo record for `txn`.
    pub fn push(&self, txn: TxnId, record: UndoRecord) {
        self.segments
            .lock(txn)
            .entry(txn)
            .or_default()
            .records
            .push(record);
    }

    /// Sets the undo header field for `txn`.
    pub fn set_header(&self, txn: TxnId, header: UndoHeader) {
        self.segments.lock(txn).entry(txn).or_default().header = header;
    }

    /// Reads the undo header for `txn`.
    pub fn header(&self, txn: TxnId) -> UndoHeader {
        self.segments
            .lock(txn)
            .get(&txn)
            .map(|s| s.header)
            .unwrap_or_default()
    }

    /// Number of undo records accumulated by `txn`.
    pub fn segment_len(&self, txn: TxnId) -> usize {
        self.segments
            .lock(txn)
            .get(&txn)
            .map(|s| s.len())
            .unwrap_or(0)
    }

    /// Removes and returns the segment for `txn` (at commit or after rollback).
    pub fn take(&self, txn: TxnId) -> Option<UndoSegment> {
        self.segments.lock(txn).remove(&txn)
    }

    /// Clones the segment for `txn` without removing it.
    pub fn snapshot(&self, txn: TxnId) -> Option<UndoSegment> {
        self.segments.lock(txn).get(&txn).cloned()
    }

    /// Transactions that currently own an undo segment, in id order.
    pub fn active_transactions(&self) -> Vec<TxnId> {
        let mut txns = Vec::new();
        self.segments
            .for_each_shard(|shard| txns.extend(shard.keys().copied()));
        txns.sort_unstable();
        txns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_trx_no_and_hot_order() {
        let commit = UndoHeader::with_trx_no(42);
        assert_eq!(commit.trx_no(), Some(42));
        assert_eq!(commit.hot_update_order(), None);
        let hot = UndoHeader::with_hot_update_order(7);
        assert_eq!(hot.hot_update_order(), Some(7));
        assert_eq!(hot.trx_no(), None);
        // Raw persistence round trip (what the redo log stores).
        assert_eq!(UndoHeader::from_raw(hot.raw()), hot);
        assert_eq!(UndoHeader::from_raw(commit.raw()), commit);
        assert!(UndoHeader::empty().is_empty());
    }

    #[test]
    fn effective_periods_do_not_overlap() {
        // §5.3: the same field stores hot_update_order while uncommitted and
        // trx_no after commit; the top bit disambiguates.
        let hot = UndoHeader::with_hot_update_order(99);
        let committed = UndoHeader::with_trx_no(99);
        assert_ne!(hot.raw(), committed.raw());
        assert!(hot.raw() & HOT_UPDATE_ORDER_FLAG != 0);
        assert!(committed.raw() & HOT_UPDATE_ORDER_FLAG == 0);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_trx_no_rejected() {
        let _ = UndoHeader::with_trx_no(HOT_UPDATE_ORDER_FLAG);
    }

    #[test]
    fn undo_log_accumulates_and_takes_segments() {
        let log = UndoLog::new();
        let txn = TxnId(5);
        log.push(
            txn,
            UndoRecord::Update {
                table: TableId(1),
                record: RecordId::new(1, 0, 0),
                before: Row::from_ints(&[1, 10]),
            },
        );
        log.push(
            txn,
            UndoRecord::Insert {
                table: TableId(1),
                record: RecordId::new(1, 0, 1),
                pk: 2,
            },
        );
        log.set_header(txn, UndoHeader::with_hot_update_order(3));
        assert_eq!(log.segment_len(txn), 2);
        assert_eq!(log.header(txn).hot_update_order(), Some(3));
        assert_eq!(log.active_transactions(), vec![txn]);

        let seg = log.take(txn).unwrap();
        assert_eq!(seg.len(), 2);
        // Rollback order is reverse execution order.
        let first_rollback = seg.rollback_order().next().unwrap();
        assert!(matches!(first_rollback, UndoRecord::Insert { pk: 2, .. }));
        assert!(log.take(txn).is_none());
        assert_eq!(log.segment_len(txn), 0);
    }

    #[test]
    fn snapshot_does_not_remove_segment() {
        let log = UndoLog::new();
        let txn = TxnId(1);
        log.push(
            txn,
            UndoRecord::Delete {
                table: TableId(2),
                record: RecordId::new(2, 0, 0),
                before: Row::from_ints(&[9]),
            },
        );
        let snap = log.snapshot(txn).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(log.segment_len(txn), 1);
    }

    #[test]
    fn undo_record_exposes_its_record_id() {
        let r = RecordId::new(4, 5, 6);
        let rec = UndoRecord::Update {
            table: TableId(4),
            record: r,
            before: Row::default(),
        };
        assert_eq!(rec.record(), r);
    }
}

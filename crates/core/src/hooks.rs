//! Commit hooks: how replication (and tests) observe committed transactions.
//!
//! The commit pipeline calls every registered [`CommitHook`] once per flushed
//! batch with the [`BinlogTxn`] events of that batch — the engine-side
//! equivalent of writing the binary log and, in semi-synchronous mode,
//! waiting for the replica acknowledgement.  The hooks run in the batch's
//! ship stage, once per batch, so their latency is amortised across the
//! batch exactly like the paper's group commit (Figure 5c, Figure 13), and
//! the next batch's fsync overlaps them.

use txsql_common::{Result, Row, TableId, TxnId};

/// One committed transaction as it appears in the binlog.
#[derive(Debug, Clone, PartialEq)]
pub struct BinlogTxn {
    /// Transaction id.
    pub txn: TxnId,
    /// Commit sequence number (`trx_no`); defines the replication apply order.
    pub trx_no: u64,
    /// After-images: `(table, primary key, row)` in execution order.
    pub changes: Vec<(TableId, i64, Row)>,
    /// True when the transaction updated a hotspot row; the replica replay
    /// optimization (§4.6.3) forces such transactions onto a single replay
    /// thread.
    pub involves_hotspot: bool,
}

/// Observer of committed batches.
pub trait CommitHook: Send + Sync {
    /// Called once per flushed commit batch, in batch order.  May block (a
    /// blocking hook models the semi-synchronous replication acknowledgement).
    ///
    /// An `Err` means the binlog ship path failed hard — in practice an
    /// injected crash between redo flush and binlog ack
    /// ([`txsql_storage::fault::CrashPoint::PreBinlogShip`] and friends).
    /// The pipeline treats it like a flush failure: the batch is already
    /// durable in redo, but none of its members are acknowledged to their
    /// clients, which is exactly the window crash recovery must cover.
    fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()>;
}

/// A hook that simply collects every event (used by tests).
#[derive(Debug, Default)]
pub struct CollectingHook {
    events: parking_lot::Mutex<Vec<BinlogTxn>>,
    batches: parking_lot::Mutex<usize>,
}

impl CollectingHook {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything observed so far.
    pub fn events(&self) -> Vec<BinlogTxn> {
        self.events.lock().clone()
    }

    /// Number of batches observed.
    pub fn batch_count(&self) -> usize {
        *self.batches.lock()
    }
}

impl CommitHook for CollectingHook {
    fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()> {
        self.events.lock().extend_from_slice(batch);
        *self.batches.lock() += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_hook_accumulates_batches() {
        let hook = CollectingHook::new();
        let event = BinlogTxn {
            txn: TxnId(1),
            trx_no: 1,
            changes: vec![(TableId(1), 5, Row::from_ints(&[5, 50]))],
            involves_hotspot: true,
        };
        hook.on_commit_batch(std::slice::from_ref(&event)).unwrap();
        hook.on_commit_batch(&[event.clone(), event.clone()])
            .unwrap();
        assert_eq!(hook.events().len(), 3);
        assert_eq!(hook.batch_count(), 2);
        assert!(hook.events()[0].involves_hotspot);
    }
}

//! Per-transaction metrics scratch ([`TxnMetrics`]).
//!
//! The lock tables' uncontended acquire/release cycle used to pay 2+ relaxed
//! atomic RMWs into the shared `EngineMetrics` per cycle (`locks_created`,
//! `locks_released`, `release_shard_locks`, plus four more per grant-scan
//! histogram record).  Every [`Transaction`](crate::Transaction) now carries
//! a [`TxnMetrics`]: a `Cell`-based [`MetricsScratch`] the engine passes as
//! the [`MetricsSink`](txsql_common::metrics::MetricsSink) to the lock
//! tables' `*_in` entry points, so the per-cycle counts are plain integer
//! arithmetic on transaction-private memory.  The engine's statement entry
//! points count each statement (`queries`, Figure 6d's denominator) in the
//! same scratch.
//!
//! The accumulated counts drain to the shared `EngineMetrics` in **one**
//! batch of atomics per transaction: [`TxnMetrics::flush`] runs on `Drop`,
//! which covers commit, rollback *and* every abort/error path — a
//! transaction that dies mid-statement cannot lose counts (the stress tests
//! assert released-lock totals balance across forced-rollback storms).
//! Until a transaction finishes, its in-flight counts are simply not yet
//! visible in snapshots — the price of keeping the hot path atomics-free.

use std::sync::Arc;
use txsql_common::metrics::{EngineMetrics, MetricsScratch};

/// A transaction's private metrics scratch, flushed to the engine-wide
/// [`EngineMetrics`] when the transaction finishes (and on drop, so no abort
/// path can lose counts).
#[derive(Debug, Default)]
pub struct TxnMetrics {
    scratch: MetricsScratch,
    target: Option<Arc<EngineMetrics>>,
}

impl TxnMetrics {
    /// A scratch attached to `target`: counts recorded through
    /// [`TxnMetrics::sink`] reach `target` at the next flush/drop.
    pub fn attached(target: Arc<EngineMetrics>) -> Self {
        Self {
            scratch: MetricsScratch::new(),
            target: Some(target),
        }
    }

    /// A detached scratch (tests / transactions created outside an engine):
    /// counts accumulate but are dropped with the transaction.
    pub fn detached() -> Self {
        Self::default()
    }

    /// The sink to hand to the lock tables' `*_in` entry points.
    #[inline]
    pub fn sink(&self) -> &MetricsScratch {
        &self.scratch
    }

    /// True when nothing is waiting to be flushed.
    pub fn is_empty(&self) -> bool {
        self.scratch.is_empty()
    }

    /// Drains the accumulated counts into the attached engine metrics (no-op
    /// when detached or empty).  Safe to call repeatedly; `Drop` calls it as
    /// the backstop.
    pub fn flush(&self) {
        if let Some(target) = &self.target {
            self.scratch.flush(target);
        }
    }
}

impl Drop for TxnMetrics {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_common::metrics::MetricsSink;

    #[test]
    fn drop_flushes_pending_counts() {
        let engine = Arc::new(EngineMetrics::new());
        {
            let metrics = TxnMetrics::attached(Arc::clone(&engine));
            metrics.sink().on_lock_created();
            metrics.sink().on_locks_released(2);
            metrics.sink().on_release_shard_lock();
            metrics.sink().on_grant_scan(3);
            assert_eq!(engine.locks_created.get(), 0, "nothing until flush");
            assert!(!metrics.is_empty());
        }
        // The scope end dropped the scratch: everything must have landed.
        assert_eq!(engine.locks_created.get(), 1);
        assert_eq!(engine.locks_released.get(), 2);
        assert_eq!(engine.release_shard_locks.get(), 1);
        assert_eq!(engine.grant_scan_len.count(), 1);
        assert_eq!(engine.grant_scan_len.max_micros(), 3);
    }

    #[test]
    fn explicit_flush_then_drop_does_not_double_count() {
        let engine = Arc::new(EngineMetrics::new());
        {
            let metrics = TxnMetrics::attached(Arc::clone(&engine));
            metrics.sink().on_locks_released(5);
            metrics.flush();
            assert_eq!(engine.locks_released.get(), 5);
            assert!(metrics.is_empty());
        }
        assert_eq!(engine.locks_released.get(), 5);
    }

    #[test]
    fn detached_scratch_drops_its_counts_silently() {
        let metrics = TxnMetrics::detached();
        metrics.sink().on_lock_created();
        metrics.flush();
        assert!(!metrics.is_empty(), "no target, nothing drained");
    }
}

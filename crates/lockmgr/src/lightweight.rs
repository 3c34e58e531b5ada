//! The lightweight `trx_lock_wait` lock table (§3.1.1, "O1").
//!
//! Differences from the vanilla [`crate::lock_sys::LockSys`]:
//!
//! * keyed by *record* (`<space_id, page_no, heap_no>`) instead of page, and
//!   spread over many more shards, so unrelated rows on the same page no
//!   longer contend on one mutex;
//! * holder information is just transaction ids — a lock object (the thing
//!   that costs allocation and bookkeeping, counted in Figure 6d) is only
//!   created when a conflict forces a transaction to wait;
//! * entries are removed as soon as they become empty, so the table stays
//!   proportional to the number of *contended* rows, not all touched rows.
//!
//! Bookkeeping is fully decentralized: shard mutexes are cache-padded, the
//! per-transaction record map is the sharded
//! [`TxnLockRegistry`] (no global mutex on
//! acquire or release-all), and waiter events come from the thread-local
//! pool ([`OsEvent::acquire_pooled`](crate::event::OsEvent::acquire_pooled)) so even the conflict path allocates
//! nothing in steady state.
//!
//! Deadlock handling remains wait-for-graph detection by default (the paper
//! notes O1's p95 is slightly inflated by exactly this, Figure 6c); a
//! timeout-only policy can be selected for the ablation benches.
//!
//! ## Shared queue core vs. table-specific shell
//!
//! The per-record grant/wait machinery — conflict check, try-acquire,
//! from-front FIFO grant scan, deadlock check on wait, and the doom-aware
//! wait loop — lives in [`crate::record_queue`] and is shared verbatim with
//! the page-sharded baseline.  This module owns only what is genuinely
//! O1-specific: the record-keyed sharding (the
//! [`QueueAccess`] impl looks rows up by packed record id,
//! and empty rows are pruned immediately — there are no page shells to
//! sweep), and the [`QueuePolicy`] choices
//! (`upgrade_respects_queue = false` — an `S→X` upgrade proceeds whenever no
//! *holder* conflicts, and `count_uncontended_grants = false` — lock objects
//! are only counted for requests that actually wait, the whole point of O1).
//! Batched release additionally groups records by **shard** so one batch
//! takes each shard mutex once (see
//! [`LightweightLockTable::release_record_locks`]).

use crate::deadlock::{VictimPolicy, WaitForGraph};
use crate::lock_sys::DeadlockPolicy;
use crate::modes::LockMode;
use crate::record_queue::{
    deadlock_check_on_wait, wait_until_granted, AcquireOutcome, QueueAccess, QueuePolicy,
    RecordQueue, WaitParams,
};
use crate::registry::TxnLockRegistry;
use crate::wake_check::GuardScope;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::metrics::{EngineMetrics, MetricsSink};
use txsql_common::pad::CachePadded;
use txsql_common::{RecordId, Result, TxnId};

/// Configuration of the lightweight lock table.
#[derive(Debug, Clone)]
pub struct LightweightConfig {
    /// Number of shards (record-keyed, so this can be much larger than the
    /// page-sharded baseline).
    pub n_shards: usize,
    /// Deadlock handling policy.
    pub deadlock_policy: DeadlockPolicy,
    /// How the victim is chosen when detection finds a cycle.
    pub victim_policy: VictimPolicy,
    /// Lock wait timeout.
    pub lock_wait_timeout: Duration,
}

impl Default for LightweightConfig {
    fn default() -> Self {
        Self {
            n_shards: 1024,
            deadlock_policy: DeadlockPolicy::Detect,
            victim_policy: VictimPolicy::default(),
            lock_wait_timeout: Duration::from_millis(200),
        }
    }
}

/// The table-specific [`QueuePolicy`]: an upgrade proceeds whenever no
/// holder conflicts (no FIFO upgrade barrier), and lock objects are only
/// counted for requests that actually wait (§3.1.1's whole point).
const POLICY: QueuePolicy = QueuePolicy {
    upgrade_respects_queue: false,
    count_uncontended_grants: false,
};

#[derive(Debug, Default)]
struct Shard {
    /// Rows keyed by packed record id; entries are pruned the moment they
    /// drain, so the table stays proportional to *contended* rows.
    rows: FxHashMap<u64, RecordQueue>,
}

/// The record-keyed lightweight lock table.
#[derive(Debug)]
pub struct LightweightLockTable {
    config: LightweightConfig,
    shards: Box<[CachePadded<Mutex<Shard>>]>,
    graph: WaitForGraph,
    registry: Arc<TxnLockRegistry>,
    metrics: Arc<EngineMetrics>,
}

impl LightweightLockTable {
    /// Creates a lightweight lock table with its own private lock registry.
    pub fn new(config: LightweightConfig, metrics: Arc<EngineMetrics>) -> Self {
        let registry = Arc::new(TxnLockRegistry::with_metrics(
            (config.n_shards / 4).max(64),
            Arc::clone(&metrics),
        ));
        Self::with_registry(config, metrics, registry)
    }

    /// Creates a lightweight lock table sharing an externally owned registry.
    pub fn with_registry(
        config: LightweightConfig,
        metrics: Arc<EngineMetrics>,
        registry: Arc<TxnLockRegistry>,
    ) -> Self {
        let n = config.n_shards.max(1);
        Self {
            config,
            shards: (0..n)
                .map(|_| CachePadded::new(Mutex::new(Shard::default())))
                .collect(),
            graph: WaitForGraph::new(),
            registry,
            metrics,
        }
    }

    /// The configured lock-wait timeout.
    pub fn lock_wait_timeout(&self) -> Duration {
        self.config.lock_wait_timeout
    }

    /// The per-transaction lock registry backing release-all.
    pub fn registry(&self) -> &Arc<TxnLockRegistry> {
        &self.registry
    }

    #[inline]
    fn shard_index(&self, record: RecordId) -> usize {
        (fxhash::hash_u64(record.packed()) % self.shards.len() as u64) as usize
    }

    #[inline]
    fn shard_for(&self, record: RecordId) -> &Mutex<Shard> {
        &self.shards[self.shard_index(record)]
    }

    /// Acquires a record lock, blocking until granted, deadlock or timeout,
    /// counting the hot-path metrics straight into the shared
    /// [`EngineMetrics`].
    pub fn lock_record(&self, txn: TxnId, record: RecordId, mode: LockMode) -> Result<()> {
        self.lock_record_in(txn, record, mode, &*self.metrics)
    }

    /// Acquires a record lock, blocking until granted, deadlock or timeout.
    /// The grant/wait machinery is the shared [`crate::record_queue`] core;
    /// this method only navigates the record-keyed sharding and applies the
    /// lightweight [`QueuePolicy`].  `sink` receives the per-cycle counters
    /// — the engine passes the transaction's metrics scratch so the
    /// uncontended fast path performs no atomic RMW.
    pub fn lock_record_in<S: MetricsSink + ?Sized>(
        &self,
        txn: TxnId,
        record: RecordId,
        mode: LockMode,
        sink: &S,
    ) -> Result<()> {
        debug_assert!(mode.is_record_mode());
        let event;
        let mut doom_victim = None;
        {
            let mut shard = self.shard_for(record).lock();
            let _scope = GuardScope::enter();
            let entry = shard.rows.entry(record.packed()).or_default();

            match entry.try_acquire(txn, mode, POLICY, sink) {
                AcquireOutcome::AlreadyHeld | AcquireOutcome::Upgraded => return Ok(()),
                AcquireOutcome::Granted => {
                    // Conflict-free: just the holder id — no lock object, no
                    // event, and only sharded bookkeeping.
                    drop(_scope);
                    drop(shard);
                    self.registry.remember_record(txn, record);
                    return Ok(());
                }
                AcquireOutcome::MustWait(blockers) => {
                    // Conflict (or FIFO queue in front of us): only now does
                    // a lock object exist (Figure 6d counts these).  A
                    // requester chosen as deadlock victim returns before any
                    // object or wait is recorded, keeping the counters
                    // truthful; a *remote* victim is doomed after the shard
                    // guard drops.
                    if self.config.deadlock_policy == DeadlockPolicy::Detect {
                        doom_victim = deadlock_check_on_wait(
                            entry,
                            &self.graph,
                            &self.registry,
                            &self.metrics,
                            self.config.victim_policy,
                            txn,
                            blockers,
                        )?;
                    }
                    event = entry.enqueue_waiter(txn, mode, &self.metrics);
                }
            }
        }
        self.registry.remember_record(txn, record);
        if self.config.deadlock_policy == DeadlockPolicy::Detect {
            self.graph.attach_waiter_event(txn, Arc::clone(&event));
            if let Some(victim) = doom_victim {
                self.graph.doom(victim);
            }
        }
        wait_until_granted(
            WaitParams {
                txn,
                record,
                mode,
                event,
                detect: self.config.deadlock_policy == DeadlockPolicy::Detect,
                timeout: self.config.lock_wait_timeout,
                graph: &self.graph,
                registry: &self.registry,
                metrics: &self.metrics,
            },
            &RowSlot {
                table: self,
                record,
            },
        )
    }

    /// Releases one record lock and grants unblocked waiters.
    pub fn release_record_lock(&self, txn: TxnId, record: RecordId) {
        self.release_record_locks(txn, std::slice::from_ref(&record));
    }

    /// [`LightweightLockTable::release_record_locks`] counting into the
    /// shared metrics.
    pub fn release_record_locks(&self, txn: TxnId, records: &[RecordId]) {
        self.release_record_locks_in(txn, records, &*self.metrics);
    }

    /// Releases a batch of record locks (Bamboo's early lock release, the
    /// group-locking leader's commit handover).  The table is
    /// record-keyed, so records are grouped by **shard**: each shard mutex
    /// is taken once per batch (not once per record), and the registry
    /// bookkeeping drains with one registry-shard lock for the whole batch.
    /// Release-path counters go through `sink`.
    pub fn release_record_locks_in<S: MetricsSink + ?Sized>(
        &self,
        txn: TxnId,
        records: &[RecordId],
        sink: &S,
    ) {
        match records {
            [] => return,
            [single] => self.drop_row_locks(txn, *single, sink),
            _ => self.drop_rows_grouped(txn, records, sink),
        }
        self.registry.forget_records_in(txn, records, sink);
    }

    /// Removes `txn`'s requests on one row and grants whatever unblocks
    /// (lock-table state only; registry bookkeeping is the caller's).
    fn drop_row_locks<S: MetricsSink + ?Sized>(&self, txn: TxnId, record: RecordId, sink: &S) {
        self.drop_shard_rows(txn, self.shard_index(record), [record.packed()], sink);
    }

    /// Drains `txn`'s requests on a batch of rows, grouped by shard so each
    /// shard mutex is taken once per batch: a sorted `(shard, key)` scratch
    /// vec (cheaper than a hash-map group-by for statement-sized batches)
    /// yields one contiguous run per shard.
    fn drop_rows_grouped<S: MetricsSink + ?Sized>(
        &self,
        txn: TxnId,
        records: &[RecordId],
        sink: &S,
    ) {
        let mut keyed: Vec<(usize, u64)> = records
            .iter()
            .map(|r| (self.shard_index(*r), r.packed()))
            .collect();
        keyed.sort_unstable();
        for chunk in keyed.chunk_by(|a, b| a.0 == b.0) {
            self.drop_shard_rows(txn, chunk[0].0, chunk.iter().map(|(_, key)| *key), sink);
        }
    }

    /// Removes `txn`'s requests on the given rows of one shard under a
    /// single shard-lock acquisition, granting whatever unblocks.
    fn drop_shard_rows<S: MetricsSink + ?Sized>(
        &self,
        txn: TxnId,
        shard_idx: usize,
        keys: impl IntoIterator<Item = u64>,
        sink: &S,
    ) {
        let mut woken = Vec::new();
        {
            let mut shard = self.shards[shard_idx].lock();
            let _scope = GuardScope::enter();
            sink.on_release_shard_lock();
            for key in keys {
                let prune = if let Some(entry) = shard.rows.get_mut(&key) {
                    entry.remove_requests_of(txn);
                    entry.grant_from_front(&self.graph, sink, &mut woken);
                    entry.is_empty()
                } else {
                    false
                };
                if prune {
                    shard.rows.remove(&key);
                }
            }
        }
        for event in woken {
            event.set();
        }
    }

    /// [`LightweightLockTable::release_all`] counting into the shared
    /// metrics.
    pub fn release_all(&self, txn: TxnId) {
        self.release_all_in(txn, &*self.metrics);
    }

    /// Releases everything `txn` holds or waits for.  Walks only the
    /// transaction's own registry shard and the row shards it touched —
    /// grouped by shard, so each shard mutex is taken once per release-all.
    /// Release-path counters go through `sink` (the engine passes the
    /// transaction's metrics scratch).
    pub fn release_all_in<S: MetricsSink + ?Sized>(&self, txn: TxnId, sink: &S) {
        let Some(locks) = self.registry.take_all_in(txn, sink) else {
            self.graph.remove_txn(txn);
            return;
        };
        match locks.records.as_slice() {
            [] => {}
            [single] => self.drop_row_locks(txn, *single, sink),
            records => self.drop_rows_grouped(txn, records, sink),
        }
        self.graph.remove_txn(txn);
    }

    /// Number of transactions waiting for `record` (hotspot detection signal).
    pub fn wait_queue_len(&self, record: RecordId) -> usize {
        let shard = self.shard_for(record).lock();
        shard
            .rows
            .get(&record.packed())
            .map(|e| e.waiter_count())
            .unwrap_or(0)
    }

    /// Current holders of `record`.
    pub fn holders_of(&self, record: RecordId) -> Vec<TxnId> {
        let shard = self.shard_for(record).lock();
        shard
            .rows
            .get(&record.packed())
            .map(|e| e.holder_ids())
            .unwrap_or_default()
    }

    /// Number of records `txn` currently holds or waits on.
    pub fn lock_count_of(&self, txn: TxnId) -> usize {
        self.registry.record_count_of(txn)
    }

    /// The wait-for graph (used by the hot/non-hot deadlock prevention check).
    pub fn wait_for_graph(&self) -> &WaitForGraph {
        &self.graph
    }
}

/// The record-keyed [`QueueAccess`] for the shared wait loop: locks the
/// row's shard, looks the queue up by packed record id, and prunes the row
/// the moment the wait-loop cleanup empties it (no shells in this table).
struct RowSlot<'a> {
    table: &'a LightweightLockTable,
    record: RecordId,
}

impl QueueAccess for RowSlot<'_> {
    fn with_queue<R>(&self, f: impl FnOnce(&mut RecordQueue) -> R) -> Option<R> {
        let key = self.record.packed();
        let mut shard = self.table.shard_for(self.record).lock();
        let _scope = GuardScope::enter();
        let entry = shard.rows.get_mut(&key)?;
        let result = f(entry);
        if entry.is_empty() {
            shard.rows.remove(&key);
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use txsql_common::Error;

    const R1: RecordId = RecordId {
        space_id: 1,
        page_no: 0,
        heap_no: 0,
    };
    const R2: RecordId = RecordId {
        space_id: 1,
        page_no: 0,
        heap_no: 1,
    };

    fn table(
        policy: DeadlockPolicy,
        timeout_ms: u64,
    ) -> (Arc<LightweightLockTable>, Arc<EngineMetrics>) {
        let metrics = Arc::new(EngineMetrics::new());
        let t = Arc::new(LightweightLockTable::new(
            LightweightConfig {
                n_shards: 64,
                deadlock_policy: policy,
                lock_wait_timeout: Duration::from_millis(timeout_ms),
                ..LightweightConfig::default()
            },
            Arc::clone(&metrics),
        ));
        (t, metrics)
    }

    #[test]
    fn uncontended_locks_create_no_lock_objects() {
        let (t, metrics) = table(DeadlockPolicy::Detect, 100);
        for txn in 1..=10u64 {
            let rid = RecordId::new(1, 0, txn as u16);
            t.lock_record(TxnId(txn), rid, LockMode::Exclusive).unwrap();
        }
        assert_eq!(
            metrics.locks_created.get(),
            0,
            "O1 must not create lock objects without conflicts"
        );
        for txn in 1..=10u64 {
            t.release_all(TxnId(txn));
        }
        assert!(
            t.registry().is_empty(),
            "registry must drain after release_all"
        );
        assert_eq!(t.registry().total_entries(), 0);
        assert_eq!(metrics.locks_released.get(), 10);
    }

    #[test]
    fn conflicting_lock_creates_object_and_waits() {
        let (t, metrics) = table(DeadlockPolicy::Detect, 2_000);
        t.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || t2.lock_record(TxnId(2), R1, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        assert_eq!(metrics.locks_created.get(), 1);
        assert_eq!(t.wait_queue_len(R1), 1);
        t.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(t.holders_of(R1), vec![TxnId(2)]);
        t.release_all(TxnId(2));
        assert_eq!(t.holders_of(R1), Vec::<TxnId>::new());
        assert_eq!(t.lock_count_of(TxnId(2)), 0);
    }

    #[test]
    fn shared_locks_coexist() {
        let (t, _) = table(DeadlockPolicy::Detect, 100);
        t.lock_record(TxnId(1), R1, LockMode::Shared).unwrap();
        t.lock_record(TxnId(2), R1, LockMode::Shared).unwrap();
        assert_eq!(t.holders_of(R1).len(), 2);
        t.release_all(TxnId(1));
        t.release_all(TxnId(2));
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let (t, _) = table(DeadlockPolicy::Detect, 100);
        t.lock_record(TxnId(1), R1, LockMode::Shared).unwrap();
        t.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        // Reentrant exclusive is still fine.
        t.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        t.release_all(TxnId(1));
    }

    #[test]
    fn deadlock_detected_across_records() {
        let (t, _) = table(DeadlockPolicy::Detect, 5_000);
        t.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        t.lock_record(TxnId(2), R2, LockMode::Exclusive).unwrap();
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || t2.lock_record(TxnId(1), R2, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(50));
        let err = t
            .lock_record(TxnId(2), R1, LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, Error::Deadlock { txn: TxnId(2) }));
        t.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        t.release_all(TxnId(1));
    }

    #[test]
    fn timeout_when_holder_never_releases() {
        let (t, _) = table(DeadlockPolicy::TimeoutOnly, 40);
        t.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        let err = t
            .lock_record(TxnId(2), R1, LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, Error::LockWaitTimeout { .. }));
        t.release_all(TxnId(1));
        // The timed-out waiter left no bookkeeping behind.
        assert_eq!(t.lock_count_of(TxnId(2)), 0);
        assert!(t.registry().is_empty());
    }

    #[test]
    fn timeout_of_front_waiter_grants_compatible_waiter_behind_it() {
        let (t, _) = table(DeadlockPolicy::TimeoutOnly, 80);
        t.lock_record(TxnId(1), R1, LockMode::Shared).unwrap();
        let t2 = Arc::clone(&t);
        let w2 = thread::spawn(move || t2.lock_record(TxnId(2), R1, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        // T3's Shared is compatible with T1 but queued behind T2's waiting
        // Exclusive; T2's timeout cleanup (grant_from_front) must grant it —
        // T3's own deadline is 30 ms later.
        let t3 = Arc::clone(&t);
        let w3 = thread::spawn(move || t3.lock_record(TxnId(3), R1, LockMode::Shared));
        assert!(matches!(
            w2.join().unwrap().unwrap_err(),
            Error::LockWaitTimeout { .. }
        ));
        w3.join().unwrap().unwrap();
        assert_eq!(t.holders_of(R1).len(), 2, "T1 and T3 share the record");
        t.release_all(TxnId(1));
        t.release_all(TxnId(3));
        assert!(t.registry().is_empty());
    }

    #[test]
    fn timed_out_upgrade_keeps_granted_lock_and_releases_cleanly() {
        let (t, _) = table(DeadlockPolicy::TimeoutOnly, 40);
        t.lock_record(TxnId(1), R1, LockMode::Shared).unwrap();
        t.lock_record(TxnId(2), R1, LockMode::Shared).unwrap();
        // T1's upgrade to Exclusive blocks on T2's Shared and times out —
        // but it is still a granted Shared holder, registry included.
        let err = t
            .lock_record(TxnId(1), R1, LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, Error::LockWaitTimeout { .. }));
        assert_eq!(t.holders_of(R1).len(), 2, "both Shared holders must remain");
        assert_eq!(
            t.lock_count_of(TxnId(1)),
            1,
            "registry must still track T1's lock"
        );
        t.release_all(TxnId(1));
        t.release_all(TxnId(2));
        assert!(t.holders_of(R1).is_empty(), "no phantom holder may remain");
        t.lock_record(TxnId(3), R1, LockMode::Exclusive).unwrap();
        t.release_all(TxnId(3));
        assert!(t.registry().is_empty());
    }

    #[test]
    fn fifo_grant_order_under_contention() {
        let (t, _) = table(DeadlockPolicy::Detect, 5_000);
        t.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for id in 2..=5u64 {
            let t2 = Arc::clone(&t);
            let order2 = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                t2.lock_record(TxnId(id), R1, LockMode::Exclusive).unwrap();
                order2.lock().push(id);
                t2.release_all(TxnId(id));
            }));
            thread::sleep(Duration::from_millis(20));
        }
        t.release_all(TxnId(1));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn single_record_release_grants_next() {
        let (t, _) = table(DeadlockPolicy::Detect, 2_000);
        t.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        t.lock_record(TxnId(1), R2, LockMode::Exclusive).unwrap();
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || t2.lock_record(TxnId(2), R1, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        t.release_record_lock(TxnId(1), R1);
        h.join().unwrap().unwrap();
        // R2 still held by txn 1.
        assert_eq!(t.holders_of(R2), vec![TxnId(1)]);
        t.release_all(TxnId(1));
        t.release_all(TxnId(2));
    }
}

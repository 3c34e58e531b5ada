//! The vanilla, InnoDB-style lock system (`lock_sys`) — the MySQL baseline.
//!
//! Structure (paper §2.2): a hash table keyed by `(space_id, page_no)` whose
//! value holds the lock requests on that page.  Every acquisition creates a
//! request entry, even without contention — the first shortcoming §3.1.1
//! calls out.  The table is sharded, but a hot page still funnels every
//! acquisition, release, grant scan *and* deadlock check through one shard
//! mutex, which is the second shortcoming (Figure 6c).
//!
//! What is deliberately **kept** faithful to the baseline: the page-level
//! sharding (two hot rows on the same page still contend on one mutex), the
//! per-acquisition request accounting (`locks_created` counts one per
//! acquisition) and the FIFO queue discipline.  What is decentralized (this
//! engine has to scale even in baseline mode):
//!
//! * **per-`heap_no` record queues**: a page's requests live in
//!   `FxHashMap<HeapNo, RecordQueue>` with granted holders split from the
//!   waiter FIFO, so conflict checks, the grant scan, `wait_queue_len` and
//!   `holders_of` are O(requests on that record) instead of O(all requests
//!   on the page) — the flat `Vec<lock_t>` rescans (the O(queue²) grant scan
//!   under the hottest mutex in the system) are gone, while the shard mutex
//!   itself still serializes the page exactly like the baseline;
//! * **batched release**: the registry hands `release_all` its records
//!   pre-grouped by page, so commit/rollback takes each page's shard mutex
//!   once per page (not once per record), and
//!   [`LockSys::release_record_locks`] batches early lock release (Bamboo)
//!   the same way — page shard and registry shard are each locked once per
//!   batch;
//! * per-transaction bookkeeping lives in the sharded
//!   [`TxnLockRegistry`] instead of one
//!   global `txn_locks` mutex;
//! * table locks are sharded by `TableId`, and release-all visits only the
//!   tables the transaction actually locked (tracked by the registry)
//!   instead of scanning every table's holder list;
//! * shard mutexes are cache-padded, and an uncontended grant allocates no
//!   `OsEvent` — events exist only for requests that actually wait, drawn
//!   from a thread-local pool ([`OsEvent::acquire_pooled`](crate::event::OsEvent::acquire_pooled)).
//!
//! Waiting requests park on an [`OsEvent`](crate::event::OsEvent); the releasing transaction grants
//! from the front of the record's FIFO whatever no longer conflicts, and
//! every grant scan records its length in the `grant_scan_len` histogram
//! (flat-by-construction here; an O(page) regression would show up as
//! growth with page population).  Deadlock handling is configurable
//! ([`DeadlockPolicy`]): wait-for-graph detection run at every wait (MySQL
//! default) or a plain timeout (what the paper's hotspot paths prefer,
//! §3.2).  Under detection, the victim is chosen by [`VictimPolicy`]
//! (weight-based by default — fewest registry-tracked locks, ties to the
//! youngest transaction); a victim other than the requester is woken through
//! its graph-parked event and aborts out of its own wait.
//!
//! ## Shared queue core vs. table-specific shell
//!
//! The per-record machinery itself — conflict check, try-acquire,
//! from-front FIFO grant scan, deadlock check on wait, and the doom-aware
//! wait loop — is **not** implemented here: it lives in
//! [`crate::record_queue`] and is shared verbatim with the lightweight
//! table, so grant/doom/wake fixes are single-source.  This module owns only
//! what is genuinely baseline-specific: the page-keyed sharding (the
//! [`crate::record_queue::QueueAccess`] impl that navigates
//! `page → heap_no`), the
//! [`crate::record_queue::QueuePolicy`] choices (`upgrade_respects_queue` —
//! an `S→X` upgrade may not jump earlier queued waiters, and
//! `count_uncontended_grants` — one `lock_t`-like object per acquisition,
//! the Figure-6d accounting), the table locks, and the page-grouped release
//! batching.

use crate::deadlock::{VictimPolicy, WaitForGraph};
use crate::record_queue::{
    deadlock_check_on_wait, wait_until_granted, AcquireOutcome, QueueAccess, QueuePolicy,
    RecordQueue, WaitParams,
};
use crate::registry::TxnLockRegistry;
use crate::wake_check::GuardScope;
use crate::LockMode;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::ids::{HeapNo, PageId};
use txsql_common::metrics::{EngineMetrics, MetricsSink};
use txsql_common::pad::CachePadded;
use txsql_common::{Error, RecordId, Result, TableId, TxnId};

/// Number of table-lock shards.  Tables are few and intention modes almost
/// never conflict; 16 shards removes the global choke point without bloating
/// the structure.
const TABLE_SHARDS: usize = 16;

/// How the lock system deals with deadlocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockPolicy {
    /// Run wait-for-graph detection on every wait (InnoDB default).
    Detect,
    /// Rely on lock-wait timeouts only (no detection).
    TimeoutOnly,
}

/// Configuration of [`LockSys`].
#[derive(Debug, Clone)]
pub struct LockSysConfig {
    /// Number of hash shards (InnoDB uses a small fixed number; the paper's
    /// baseline keeps page-level sharding).
    pub n_shards: usize,
    /// Deadlock handling policy.
    pub deadlock_policy: DeadlockPolicy,
    /// How the victim is chosen when detection finds a cycle.
    pub victim_policy: VictimPolicy,
    /// Lock wait timeout.
    pub lock_wait_timeout: Duration,
}

impl Default for LockSysConfig {
    fn default() -> Self {
        Self {
            n_shards: 64,
            deadlock_policy: DeadlockPolicy::Detect,
            victim_policy: VictimPolicy::default(),
            lock_wait_timeout: Duration::from_millis(200),
        }
    }
}

/// The table-specific [`QueuePolicy`]: the baseline keeps InnoDB's FIFO
/// upgrade fairness (an upgrade may not jump an earlier waiting request) and
/// counts one created lock object per acquisition (Figure 6d).
const POLICY: QueuePolicy = QueuePolicy {
    upgrade_respects_queue: true,
    count_uncontended_grants: true,
};

/// Lock state of one page: per-`heap_no` [`RecordQueue`]s (the shared queue
/// core).  Record queues are pruned as soon as they drain; the emptied
/// `PageLocks` shell is retained: a page that saw locking once will see it
/// again, and reusing the shell's map allocation keeps the uncontended
/// acquire/release cycle allocation-free in steady state.  Memory is bounded
/// by the number of distinct pages that ever carried a lock (~100 bytes per
/// shell).
#[derive(Debug, Default)]
struct PageLocks {
    records: FxHashMap<HeapNo, RecordQueue>,
}

#[derive(Debug, Default)]
struct Shard {
    pages: FxHashMap<PageId, PageLocks>,
}

type TableShard = FxHashMap<TableId, Vec<(TxnId, LockMode)>>;

/// The page-sharded lock system.
#[derive(Debug)]
pub struct LockSys {
    config: LockSysConfig,
    shards: Box<[CachePadded<Mutex<Shard>>]>,
    graph: WaitForGraph,
    /// Sharded per-transaction bookkeeping — needed for release-all.
    registry: Arc<TxnLockRegistry>,
    /// Table-level locks (intention modes in practice), sharded by table.
    table_shards: Box<[CachePadded<Mutex<TableShard>>]>,
    metrics: Arc<EngineMetrics>,
}

impl LockSys {
    /// Creates a lock system with its own private lock registry.
    pub fn new(config: LockSysConfig, metrics: Arc<EngineMetrics>) -> Self {
        let registry = Arc::new(TxnLockRegistry::with_metrics(
            config.n_shards,
            Arc::clone(&metrics),
        ));
        Self::with_registry(config, metrics, registry)
    }

    /// Creates a lock system sharing an externally owned registry (the
    /// engine threads the same registry through `TrxSys` so transaction
    /// teardown can verify bookkeeping drained).
    pub fn with_registry(
        config: LockSysConfig,
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
            table_shards: (0..TABLE_SHARDS)
                .map(|_| CachePadded::new(Mutex::new(TableShard::default())))
                .collect(),
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
    fn shard_for(&self, page: PageId) -> &Mutex<Shard> {
        let key = ((page.space_id as u64) << 32) | page.page_no as u64;
        let idx = (fxhash::hash_u64(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    #[inline]
    fn table_shard_for(&self, table: TableId) -> &Mutex<TableShard> {
        let idx = (fxhash::hash_u64(table.0 as u64) % TABLE_SHARDS as u64) as usize;
        &self.table_shards[idx]
    }

    /// Acquires a record lock, blocking until granted, deadlock or timeout,
    /// counting the hot-path metrics straight into the shared
    /// [`EngineMetrics`].
    pub fn lock_record(&self, txn: TxnId, record: RecordId, mode: LockMode) -> Result<()> {
        self.lock_record_in(txn, record, mode, &*self.metrics)
    }

    /// Acquires a record lock, blocking until granted, deadlock or timeout.
    /// The grant/wait machinery is the shared [`crate::record_queue`] core;
    /// this method only navigates the page-keyed sharding and applies the
    /// baseline's [`QueuePolicy`].  `sink` receives the per-cycle counters
    /// (`locks_created`) — the engine passes the transaction's metrics
    /// scratch so the uncontended fast path performs no atomic RMW.
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
            let shard = self.shard_for(record.page());
            let mut guard = shard.lock();
            let _scope = GuardScope::enter();
            let page = guard.pages.entry(record.page()).or_default();
            let queue = page.records.entry(record.heap_no).or_default();

            match queue.try_acquire(txn, mode, POLICY, sink) {
                AcquireOutcome::AlreadyHeld | AcquireOutcome::Upgraded => return Ok(()),
                AcquireOutcome::Granted => {
                    // Uncontended grant: no OsEvent, no global bookkeeping —
                    // just the holder entry and the transaction's registry
                    // shard (updated after the page guard drops).
                    drop(_scope);
                    drop(guard);
                    self.registry.remember_record(txn, record);
                    return Ok(());
                }
                AcquireOutcome::MustWait(blockers) => {
                    // A requester chosen as deadlock victim returns before
                    // any lock entry or wait is recorded, so the Figure-6d
                    // counters stay truthful; a *remote* victim is doomed
                    // after the guard drops.
                    if self.config.deadlock_policy == DeadlockPolicy::Detect {
                        doom_victim = deadlock_check_on_wait(
                            queue,
                            &self.graph,
                            &self.registry,
                            &self.metrics,
                            self.config.victim_policy,
                            txn,
                            blockers,
                        )?;
                    }
                    event = queue.enqueue_waiter(txn, mode, &self.metrics);
                }
            }
        }
        self.registry.remember_record(txn, record);
        if self.config.deadlock_policy == DeadlockPolicy::Detect {
            // Park our event in the graph so a later detection pass can doom
            // us, then doom the victim this pass chose (if it stopped
            // waiting meanwhile the evidence was stale — our own timeout is
            // the backstop).
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
            &PageSlot { sys: self, record },
        )
    }

    /// Acquires a table lock.  Intention modes never conflict in the paper's
    /// workloads; a genuine conflict is reported as an immediate timeout
    /// rather than blocking (full table locks are outside the evaluated
    /// scenarios).
    pub fn lock_table(&self, txn: TxnId, table: TableId, mode: LockMode) -> Result<()> {
        let mut tables = self.table_shard_for(table).lock();
        let _scope = GuardScope::enter();
        let holders = tables.entry(table).or_default();
        if holders
            .iter()
            .any(|(t, m)| *t != txn && !m.is_compatible_with(mode))
        {
            return Err(Error::LockWaitTimeout {
                txn,
                record: RecordId::new(table.0, u32::MAX, 0),
            });
        }
        if !holders.iter().any(|(t, m)| *t == txn && m.covers(mode)) {
            holders.push((txn, mode));
            drop(tables);
            self.registry.remember_table(txn, table);
            self.metrics.locks_created.inc();
        }
        Ok(())
    }

    /// Releases a single record lock held by `txn` and grants any waiters
    /// that no longer conflict.
    pub fn release_record_lock(&self, txn: TxnId, record: RecordId) {
        self.release_record_locks(txn, std::slice::from_ref(&record));
    }

    /// [`LockSys::release_record_locks`] counting into the shared metrics.
    pub fn release_record_locks(&self, txn: TxnId, records: &[RecordId]) {
        self.release_record_locks_in(txn, records, &*self.metrics);
    }

    /// Releases a batch of record locks (Bamboo's early lock release):
    /// records are grouped by page so each page's shard mutex is taken once
    /// per page, and the registry bookkeeping drains with one shard lock for
    /// the whole batch.  Release-path counters (`release_shard_locks`,
    /// `locks_released`, grant-scan lengths) go through `sink`.
    pub fn release_record_locks_in<S: MetricsSink + ?Sized>(
        &self,
        txn: TxnId,
        records: &[RecordId],
        sink: &S,
    ) {
        match records {
            [] => return,
            [single] => {
                self.release_page_locks(txn, single.page(), std::iter::once(single.heap_no), sink);
            }
            _ => {
                // Sort the batch page-major (RecordId's ordering) so each
                // page forms one contiguous run — cheaper than a hash-map
                // group-by for statement-sized batches.
                let mut sorted = records.to_vec();
                sorted.sort_unstable();
                for chunk in sorted.chunk_by(|a, b| a.page() == b.page()) {
                    self.release_page_locks(
                        txn,
                        chunk[0].page(),
                        chunk.iter().map(|r| r.heap_no),
                        sink,
                    );
                }
            }
        }
        self.registry.forget_records_in(txn, records, sink);
    }

    /// Removes `txn`'s requests on the given heap_nos of one page under a
    /// single shard-lock acquisition, granting whatever unblocks.
    fn release_page_locks<S: MetricsSink + ?Sized>(
        &self,
        txn: TxnId,
        page_id: PageId,
        heaps: impl IntoIterator<Item = HeapNo>,
        sink: &S,
    ) {
        let mut woken = Vec::new();
        {
            let shard = self.shard_for(page_id);
            let mut guard = shard.lock();
            let _scope = GuardScope::enter();
            sink.on_release_shard_lock();
            if let Some(page) = guard.pages.get_mut(&page_id) {
                for heap_no in heaps {
                    if let Some(queue) = page.records.get_mut(&heap_no) {
                        queue.remove_requests_of(txn);
                        queue.grant_from_front(&self.graph, sink, &mut woken);
                        if queue.is_empty() {
                            page.records.remove(&heap_no);
                        }
                    }
                }
            }
        }
        for event in woken {
            event.set();
        }
    }

    /// [`LockSys::release_all`] counting into the shared metrics.
    pub fn release_all(&self, txn: TxnId) {
        self.release_all_in(txn, &*self.metrics);
    }

    /// Releases every lock `txn` holds (and abandons any waits), granting
    /// whatever unblocks.  Called at commit and rollback.  The registry hands
    /// back the transaction's records pre-grouped by page, so each page's
    /// shard mutex is taken at most once, and table release visits only the
    /// tables it actually locked — no global mutex, no full-table scan.
    /// Release-path counters go through `sink` (the engine passes the
    /// transaction's metrics scratch).
    pub fn release_all_in<S: MetricsSink + ?Sized>(&self, txn: TxnId, sink: &S) {
        let Some(locks) = self.registry.take_all_in(txn, sink) else {
            self.graph.remove_txn(txn);
            return;
        };
        for (page_id, records) in locks.page_groups() {
            self.release_page_locks(txn, page_id, records.iter().map(|r| r.heap_no), sink);
        }
        for table in &locks.tables {
            let mut tables = self.table_shard_for(*table).lock();
            if let Some(holders) = tables.get_mut(table) {
                holders.retain(|(t, _)| *t != txn);
                if holders.is_empty() {
                    tables.remove(table);
                }
            }
        }
        self.graph.remove_txn(txn);
    }

    /// Length of the wait queue (waiting requests only) on a record — the
    /// paper's hotspot-detection signal (§4.1).
    pub fn wait_queue_len(&self, record: RecordId) -> usize {
        let shard = self.shard_for(record.page());
        let guard = shard.lock();
        guard
            .pages
            .get(&record.page())
            .and_then(|p| p.records.get(&record.heap_no))
            .map(|q| q.waiter_count())
            .unwrap_or(0)
    }

    /// Number of `PageLocks` shells currently retained (empty or not) across
    /// all shards.  O(shards); introspection for tests and capacity
    /// monitoring.
    pub fn page_shell_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pages.len()).sum()
    }

    /// Number of lock objects currently held or waited on by `txn`.
    pub fn lock_count_of(&self, txn: TxnId) -> usize {
        self.registry.record_count_of(txn)
    }

    /// Transactions currently holding a granted lock on `record`.
    pub fn holders_of(&self, record: RecordId) -> Vec<TxnId> {
        let shard = self.shard_for(record.page());
        let guard = shard.lock();
        guard
            .pages
            .get(&record.page())
            .and_then(|p| p.records.get(&record.heap_no))
            .map(|q| q.holder_ids())
            .unwrap_or_default()
    }

    /// The wait-for graph (exposed for the hot/non-hot deadlock prevention
    /// logic and for tests).
    pub fn wait_for_graph(&self) -> &WaitForGraph {
        &self.graph
    }
}

/// The page-keyed [`QueueAccess`] for the shared wait loop: locks the page's
/// shard, navigates `page → heap_no`, and prunes the queue like the release
/// paths when the wait-loop cleanup empties it.
struct PageSlot<'a> {
    sys: &'a LockSys,
    record: RecordId,
}

impl QueueAccess for PageSlot<'_> {
    fn with_queue<R>(&self, f: impl FnOnce(&mut RecordQueue) -> R) -> Option<R> {
        let page_id = self.record.page();
        let mut guard = self.sys.shard_for(page_id).lock();
        let _scope = GuardScope::enter();
        let page = guard.pages.get_mut(&page_id)?;
        let queue = page.records.get_mut(&self.record.heap_no)?;
        let result = f(queue);
        if queue.is_empty() {
            page.records.remove(&self.record.heap_no);
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn sys(policy: DeadlockPolicy, timeout_ms: u64) -> Arc<LockSys> {
        Arc::new(LockSys::new(
            LockSysConfig {
                n_shards: 8,
                deadlock_policy: policy,
                lock_wait_timeout: Duration::from_millis(timeout_ms),
                ..LockSysConfig::default()
            },
            Arc::new(EngineMetrics::new()),
        ))
    }

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

    #[test]
    fn exclusive_lock_is_granted_and_released() {
        let s = sys(DeadlockPolicy::Detect, 100);
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        assert_eq!(s.holders_of(R1), vec![TxnId(1)]);
        assert_eq!(s.lock_count_of(TxnId(1)), 1);
        s.release_all(TxnId(1));
        assert!(s.holders_of(R1).is_empty());
        assert_eq!(s.lock_count_of(TxnId(1)), 0);
        assert!(
            s.registry().is_empty(),
            "registry must drain after release_all"
        );
    }

    #[test]
    fn shared_locks_coexist_but_block_exclusive() {
        let s = sys(DeadlockPolicy::TimeoutOnly, 50);
        s.lock_record(TxnId(1), R1, LockMode::Shared).unwrap();
        s.lock_record(TxnId(2), R1, LockMode::Shared).unwrap();
        assert_eq!(s.holders_of(R1).len(), 2);
        let err = s
            .lock_record(TxnId(3), R1, LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, Error::LockWaitTimeout { .. }));
    }

    #[test]
    fn reentrant_lock_does_not_create_new_object() {
        let s = sys(DeadlockPolicy::Detect, 100);
        let metrics_before = {
            s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
            s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
            s.lock_record(TxnId(1), R1, LockMode::Shared).unwrap();
            s.holders_of(R1).len()
        };
        assert_eq!(metrics_before, 1);
    }

    #[test]
    fn lock_upgrade_succeeds_when_sole_holder() {
        let s = sys(DeadlockPolicy::Detect, 100);
        s.lock_record(TxnId(1), R1, LockMode::Shared).unwrap();
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        // Another reader must now block.
        let err = {
            let s2 = sys(DeadlockPolicy::TimeoutOnly, 30);
            s2.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
            s2.lock_record(TxnId(2), R1, LockMode::Shared).unwrap_err()
        };
        assert!(matches!(err, Error::LockWaitTimeout { .. }));
    }

    #[test]
    fn waiter_is_woken_when_holder_releases() {
        let s = sys(DeadlockPolicy::Detect, 2_000);
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        let s2 = Arc::clone(&s);
        let waiter = thread::spawn(move || s2.lock_record(TxnId(2), R1, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        assert_eq!(s.wait_queue_len(R1), 1);
        s.release_all(TxnId(1));
        waiter.join().unwrap().unwrap();
        assert_eq!(s.holders_of(R1), vec![TxnId(2)]);
    }

    #[test]
    fn waiters_are_granted_in_fifo_order() {
        let s = sys(DeadlockPolicy::Detect, 5_000);
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 2..=5u64 {
            let s2 = Arc::clone(&s);
            let order2 = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                s2.lock_record(TxnId(t), R1, LockMode::Exclusive).unwrap();
                order2.lock().push(t);
                std::thread::sleep(Duration::from_millis(5));
                s2.release_all(TxnId(t));
            }));
            // Stagger arrivals so queue order is deterministic.
            thread::sleep(Duration::from_millis(20));
        }
        s.release_all(TxnId(1));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn deadlock_is_detected() {
        let s = sys(DeadlockPolicy::Detect, 5_000);
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        s.lock_record(TxnId(2), R2, LockMode::Exclusive).unwrap();
        let s2 = Arc::clone(&s);
        // T1 waits for R2 (held by T2).
        let h = thread::spawn(move || s2.lock_record(TxnId(1), R2, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(50));
        // T2 requesting R1 closes the cycle.  Under the weight-based policy
        // T2 is the victim: it holds 1 registry-tracked lock against T1's 2
        // (T1's wait on R2 is registry-tracked too).
        let err = s
            .lock_record(TxnId(2), R1, LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, Error::Deadlock { txn: TxnId(2) }));
        // Let T1 proceed by releasing T2's locks (as its rollback would).
        s.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        s.release_all(TxnId(1));
    }

    #[test]
    fn requester_policy_always_sacrifices_the_requester() {
        let s = Arc::new(LockSys::new(
            LockSysConfig {
                n_shards: 8,
                deadlock_policy: DeadlockPolicy::Detect,
                victim_policy: VictimPolicy::Requester,
                lock_wait_timeout: Duration::from_millis(5_000),
            },
            Arc::new(EngineMetrics::new()),
        ));
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        s.lock_record(TxnId(2), R2, LockMode::Exclusive).unwrap();
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || s2.lock_record(TxnId(1), R2, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(50));
        let err = s
            .lock_record(TxnId(2), R1, LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, Error::Deadlock { txn: TxnId(2) }));
        s.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        s.release_all(TxnId(1));
    }

    #[test]
    fn heavier_requester_dooms_the_lighter_waiter() {
        // T1 holds only R2 and waits for R1; T2 holds R1 plus two ballast
        // locks.  When T2 closes the cycle the weight-based policy must doom
        // T1 (1+1 registry entries vs T2's 3) — the requester keeps waiting
        // and is granted once T1's rollback releases R2... but T1 only
        // *waited* on R1, so T2's grant comes from T1's abandoned wait.
        let s = sys(DeadlockPolicy::Detect, 5_000);
        let ballast_a = RecordId::new(2, 0, 0);
        let ballast_b = RecordId::new(2, 0, 1);
        s.lock_record(TxnId(2), R1, LockMode::Exclusive).unwrap();
        s.lock_record(TxnId(2), ballast_a, LockMode::Exclusive)
            .unwrap();
        s.lock_record(TxnId(2), ballast_b, LockMode::Exclusive)
            .unwrap();
        s.lock_record(TxnId(1), R2, LockMode::Exclusive).unwrap();
        let s1 = Arc::clone(&s);
        // T1 waits for R1 (held by T2): the remote victim-to-be.
        let h = thread::spawn(move || s1.lock_record(TxnId(1), R1, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(50));
        // T2 requesting R2 closes the cycle; T1 is lighter (2 entries vs 4)
        // and must be doomed remotely while T2 keeps waiting.
        let s2 = Arc::clone(&s);
        let requester = thread::spawn(move || s2.lock_record(TxnId(2), R2, LockMode::Exclusive));
        let victim_err = h.join().unwrap().unwrap_err();
        assert!(
            matches!(victim_err, Error::Deadlock { txn: TxnId(1) }),
            "doomed waiter must abort with a deadlock error, got {victim_err:?}"
        );
        // T1's rollback releases R2, unblocking the requester.
        s.release_all(TxnId(1));
        requester.join().unwrap().unwrap();
        s.release_all(TxnId(2));
        assert!(s.registry().is_empty());
        assert_eq!(s.wait_for_graph().waiting_count(), 0);
    }

    #[test]
    fn timeout_policy_never_reports_deadlock() {
        let s = sys(DeadlockPolicy::TimeoutOnly, 40);
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        s.lock_record(TxnId(2), R2, LockMode::Exclusive).unwrap();
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || s2.lock_record(TxnId(1), R2, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(10));
        let err = s
            .lock_record(TxnId(2), R1, LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, Error::LockWaitTimeout { .. }));
        // The other waiter also times out (nobody released).
        assert!(matches!(
            h.join().unwrap().unwrap_err(),
            Error::LockWaitTimeout { .. }
        ));
    }

    #[test]
    fn table_intention_locks_are_compatible() {
        let s = sys(DeadlockPolicy::Detect, 100);
        s.lock_table(TxnId(1), TableId(1), LockMode::IntentionExclusive)
            .unwrap();
        s.lock_table(TxnId(2), TableId(1), LockMode::IntentionExclusive)
            .unwrap();
        s.lock_table(TxnId(3), TableId(1), LockMode::IntentionShared)
            .unwrap();
        s.release_all(TxnId(1));
        s.release_all(TxnId(2));
        s.release_all(TxnId(3));
        assert!(s.registry().is_empty());
    }

    #[test]
    fn release_single_record_keeps_other_locks() {
        let s = sys(DeadlockPolicy::Detect, 100);
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        s.lock_record(TxnId(1), R2, LockMode::Exclusive).unwrap();
        s.release_record_lock(TxnId(1), R1);
        assert!(s.holders_of(R1).is_empty());
        assert_eq!(s.holders_of(R2), vec![TxnId(1)]);
        assert_eq!(s.lock_count_of(TxnId(1)), 1);
    }

    #[test]
    fn batched_release_spans_pages_and_wakes_waiters() {
        let s = sys(DeadlockPolicy::TimeoutOnly, 2_000);
        // Three records over two pages, all held by T1.
        let other_page = RecordId::new(1, 9, 4);
        for r in [R1, R2, other_page] {
            s.lock_record(TxnId(1), r, LockMode::Exclusive).unwrap();
        }
        let s2 = Arc::clone(&s);
        let w = thread::spawn(move || s2.lock_record(TxnId(2), other_page, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        assert_eq!(s.wait_queue_len(other_page), 1);
        // One batched call releases R1 and the other page's record: the
        // waiter must be granted, R2 must stay held, registry must drop to 1.
        s.release_record_locks(TxnId(1), &[R1, other_page]);
        w.join().unwrap().unwrap();
        assert_eq!(s.holders_of(other_page), vec![TxnId(2)]);
        assert!(s.holders_of(R1).is_empty());
        assert_eq!(s.holders_of(R2), vec![TxnId(1)]);
        assert_eq!(s.lock_count_of(TxnId(1)), 1);
        s.release_all(TxnId(1));
        s.release_all(TxnId(2));
        assert!(s.registry().is_empty());
    }

    #[test]
    fn wait_queue_length_reflects_waiters() {
        let s = sys(DeadlockPolicy::TimeoutOnly, 300);
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        let mut handles = Vec::new();
        for t in 2..=4u64 {
            let s2 = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                let _ = s2.lock_record(TxnId(t), R1, LockMode::Exclusive);
                s2.release_all(TxnId(t));
            }));
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(s.wait_queue_len(R1), 3);
        s.release_all(TxnId(1));
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn timeout_of_front_waiter_grants_compatible_waiter_behind_it() {
        let s = sys(DeadlockPolicy::TimeoutOnly, 80);
        s.lock_record(TxnId(1), R1, LockMode::Shared).unwrap();
        // T2 queues an Exclusive that will time out (blocked by T1's Shared).
        let s2 = Arc::clone(&s);
        let w2 = thread::spawn(move || s2.lock_record(TxnId(2), R1, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        // T3 queues a Shared behind T2: compatible with T1, blocked only by
        // the earlier waiting Exclusive (FIFO fairness).  T2's timeout
        // cleanup must grant it — T3's own deadline is 30 ms later.
        let s3 = Arc::clone(&s);
        let w3 = thread::spawn(move || s3.lock_record(TxnId(3), R1, LockMode::Shared));
        assert!(matches!(
            w2.join().unwrap().unwrap_err(),
            Error::LockWaitTimeout { .. }
        ));
        w3.join().unwrap().unwrap();
        assert_eq!(s.holders_of(R1).len(), 2, "T1 and T3 share the record");
        s.release_all(TxnId(1));
        s.release_all(TxnId(3));
        assert!(s.registry().is_empty());
    }

    #[test]
    fn timed_out_upgrade_keeps_granted_lock_and_releases_cleanly() {
        let s = sys(DeadlockPolicy::TimeoutOnly, 40);
        s.lock_record(TxnId(1), R1, LockMode::Shared).unwrap();
        s.lock_record(TxnId(2), R1, LockMode::Shared).unwrap();
        // T1's upgrade to Exclusive blocks on T2's Shared and times out —
        // but its granted Shared lock must survive, registry included.
        let err = s
            .lock_record(TxnId(1), R1, LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, Error::LockWaitTimeout { .. }));
        assert_eq!(s.holders_of(R1).len(), 2, "both Shared holders must remain");
        assert_eq!(
            s.lock_count_of(TxnId(1)),
            1,
            "registry must still track T1's lock"
        );
        // Release-all must actually remove the surviving granted lock.
        s.release_all(TxnId(1));
        s.release_all(TxnId(2));
        assert!(s.holders_of(R1).is_empty(), "no phantom holder may remain");
        s.lock_record(TxnId(3), R1, LockMode::Exclusive).unwrap();
        s.release_all(TxnId(3));
        assert!(s.registry().is_empty());
    }

    #[test]
    fn emptied_page_shells_are_retained() {
        // Every page's shell is retained for steady-state allocation reuse.
        let s = sys(DeadlockPolicy::TimeoutOnly, 50);
        for page in 0..100u32 {
            let r = RecordId::new(1, page, 0);
            s.lock_record(TxnId(1), r, LockMode::Exclusive).unwrap();
            s.release_record_lock(TxnId(1), r);
        }
        assert_eq!(s.page_shell_count(), 100);
        // Re-locking a retained shell works normally.
        s.lock_record(TxnId(2), RecordId::new(1, 0, 0), LockMode::Exclusive)
            .unwrap();
        s.release_all(TxnId(2));
        assert!(s.registry().is_empty());
    }

    #[test]
    fn uncontended_grant_allocates_no_event_and_tracks_release_metrics() {
        let metrics = Arc::new(EngineMetrics::new());
        let s = LockSys::new(
            LockSysConfig {
                n_shards: 8,
                deadlock_policy: DeadlockPolicy::Detect,
                lock_wait_timeout: Duration::from_millis(100),
                ..LockSysConfig::default()
            },
            Arc::clone(&metrics),
        );
        s.lock_record(TxnId(1), R1, LockMode::Exclusive).unwrap();
        s.lock_record(TxnId(1), R2, LockMode::Exclusive).unwrap();
        // The request objects exist (vanilla behaviour) but no waits, hence no
        // events and live registry entries for exactly the two records.
        assert_eq!(metrics.lock_waits.get(), 0);
        assert_eq!(s.registry().total_entries(), 2);
        s.release_all(TxnId(1));
        assert_eq!(s.registry().total_entries(), 0);
        assert_eq!(metrics.locks_released.get(), 2);
    }

    #[test]
    fn grant_scan_length_is_per_record_not_per_page() {
        let metrics = Arc::new(EngineMetrics::new());
        let s = LockSys::new(
            LockSysConfig {
                n_shards: 8,
                deadlock_policy: DeadlockPolicy::TimeoutOnly,
                lock_wait_timeout: Duration::from_millis(200),
                ..LockSysConfig::default()
            },
            Arc::clone(&metrics),
        );
        // Populate one page with 100 granted locks on other heap_nos.
        for heap in 10..110u16 {
            s.lock_record(
                TxnId(heap as u64),
                RecordId::new(1, 0, heap),
                LockMode::Exclusive,
            )
            .unwrap();
        }
        // A release that grants a real waiter on R1: the grant scan must
        // examine only that record's queue (one waiter), not the 100 other
        // requests on the page.
        let s = Arc::new(s);
        s.lock_record(TxnId(500), R1, LockMode::Exclusive).unwrap();
        let s2 = Arc::clone(&s);
        let w = thread::spawn(move || s2.lock_record(TxnId(501), R1, LockMode::Exclusive));
        while s.wait_queue_len(R1) != 1 {
            thread::sleep(Duration::from_millis(1));
        }
        s.release_record_lock(TxnId(500), R1);
        w.join().unwrap().unwrap();
        assert!(
            metrics.grant_scan_len.max_micros() <= 2,
            "grant scan examined {} requests — it must not scale with page population",
            metrics.grant_scan_len.max_micros()
        );
        s.release_all(TxnId(501));
    }
}

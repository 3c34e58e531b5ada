//! The sharded per-transaction lock registry.
//!
//! Both lock tables used to track "which records does transaction T hold"
//! in one global `Mutex<FxHashMap<TxnId, Vec<RecordId>>>`: every acquisition
//! and every release-all from **every** worker serialized on that one mutex,
//! and the `Vec::contains` dedupe made each acquisition O(locks already
//! held).  That is precisely the centralized-bookkeeping contention the
//! paper's §3 motivation (Figure 6c/6d) blames for the lock manager's
//! collapse, and what Ren et al. identify as the dominant multicore scaling
//! lever.
//!
//! [`TxnLockRegistry`] decentralizes it: entries are sharded by `TxnId` so
//! two transactions only contend when they hash to the same shard, and shards
//! are cache-padded so neighbouring shard mutexes do not false-share.
//!
//! Per-transaction records are an **append log**: [`TxnLockRegistry::remember_record`]
//! is a plain `Vec::push` (with a cheap last-entry dedupe for the common
//! re-lock-the-same-row case), so the acquire path pays no ordered insert and
//! no binary search.  The page-major sort the release paths want is deferred
//! to [`TxnLockRegistry::take_all`] — release is already batched, so sorting
//! **once per transaction** at release amortizes what a sorted-insert scheme
//! paid on every acquisition.  `take_all` removes the whole entry from the
//! owning shard in one lock acquisition, sorts + dedupes it, and hands the
//! records back pre-grouped ([`TxnLocks::page_groups`] yields one contiguous
//! slice per page with no further allocation), so the page-sharded lock
//! system takes each page's shard mutex once per page and drains every
//! heap_no under it, instead of re-locking the shard once per record.
//! [`TxnLockRegistry::forget_records`] batches the early-release bookkeeping
//! (Bamboo) the same way — one shard lock per batch, not one per row (the
//! log is unsorted, so removal is a linear scan, bounded by the handful of
//! locks a realistic transaction holds).  Rare duplicate log entries (a
//! transaction that queued a lock *upgrade* on a record it already holds
//! appends the record a second time) are collapsed by `take_all`'s dedupe;
//! [`TxnLockRegistry::record_count_of`] may transiently count them, which
//! only nudges the deadlock victim weight.
//!
//! Since the queue-core unification both lock tables feed this registry
//! identically (the shared wait loop forgets a timed-out waiter's record,
//! `release_record_locks` forgets a whole batch of records); the
//! registry is table-agnostic — each table owns its own instance, and only
//! the shard counts differ (page-sharded baseline vs. record-keyed
//! lightweight table).  Release-path shard acquisitions (here and in the
//! lock tables) are counted through the caller's
//! [`MetricsSink`] — the engine passes the transaction's `Cell`-based
//! scratch, stand-alone callers the shared `EngineMetrics` — and land in
//! `EngineMetrics::release_shard_locks`, the denominator for the batching
//! amortization the bench records.
//!
//! The registry also remembers which **tables** a transaction holds
//! intention locks on, so table-lock release no longer scans every table's
//! holder list.
//!
//! When constructed with a metrics handle, the registry feeds
//! `EngineMetrics::locks_released` on its sink-less convenience methods;
//! live-entry counts are kept **per shard** (a plain integer guarded by the
//! shard mutex — no shared atomic on the acquire path) and aggregated on
//! demand by [`TxnLockRegistry::total_entries`], which the engine samples
//! into the `lock_registry_entries` gauge at snapshot time.

use crate::wake_check::GuardScope;
use parking_lot::Mutex;
use std::sync::Arc;
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::ids::PageId;
use txsql_common::metrics::{EngineMetrics, MetricsSink};
use txsql_common::pad::CachePadded;
use txsql_common::{RecordId, TableId, TxnId};

/// Everything a transaction held (or waited on) through one lock table,
/// as returned by [`TxnLockRegistry::take_all`].
#[derive(Debug, Default)]
pub struct TxnLocks {
    /// Records locked or waited on, deduplicated and sorted page-major
    /// (`RecordId`'s ordering is `(space_id, page_no, heap_no)`), so one
    /// page's records form one contiguous run — see
    /// [`TxnLocks::page_groups`].  The sort happens once, in `take_all`;
    /// the live entry is an unsorted append log.
    pub records: Vec<RecordId>,
    /// Tables with intention locks (tiny in practice, deduplicated).
    pub tables: Vec<TableId>,
}

impl TxnLocks {
    /// Total number of records.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// True when `record` is tracked.
    pub fn contains(&self, record: RecordId) -> bool {
        self.records.binary_search(&record).is_ok()
    }

    /// The records grouped by page: one `(page, records-on-that-page)` pair
    /// per distinct page, in page order, with no further allocation.  The
    /// page-sharded release path takes each page's shard mutex exactly once
    /// per group.
    pub fn page_groups(&self) -> impl Iterator<Item = (PageId, &[RecordId])> {
        self.records
            .chunk_by(|a, b| a.page() == b.page())
            .map(|chunk| (chunk[0].page(), chunk))
    }
}

/// Live per-transaction state inside a shard: the records are an **unsorted
/// append log** — `remember_record` is a plain push (the acquire-path cost),
/// and `take_all` pays the one sort + dedupe at release, where the batch
/// APIs already amortize everything else.  Transactions hold few locks in
/// the paper's workloads, so the occasional linear scan (`forget_records`)
/// stays cheap.  (A transaction holding many thousands of locks would prefer
/// a tiered structure; nothing in the evaluated workloads comes close.)
#[derive(Debug, Default)]
struct TxnEntry {
    records: Vec<RecordId>,
    tables: Vec<TableId>,
}

impl TxnEntry {
    fn is_empty(&self) -> bool {
        self.records.is_empty() && self.tables.is_empty()
    }
}

#[derive(Debug, Default)]
struct Shard {
    txns: FxHashMap<TxnId, TxnEntry>,
    /// Live `(txn, record)` log entries in this shard.  Guarded by the shard
    /// mutex, so counting costs nothing extra on the hot path and never
    /// bounces a shared cache line between shards.
    live_records: u64,
}

/// Sharded, cache-padded map from transaction to its held locks.
#[derive(Debug)]
pub struct TxnLockRegistry {
    shards: Box<[CachePadded<Mutex<Shard>>]>,
    metrics: Option<Arc<EngineMetrics>>,
}

impl TxnLockRegistry {
    /// Creates a registry with `n_shards` shards (rounded up to at least 1).
    pub fn new(n_shards: usize) -> Self {
        Self::build(n_shards, None)
    }

    /// Creates a registry that feeds the `locks_released` counter on
    /// `metrics` from its sink-less convenience methods (live-entry counts
    /// stay per shard; see module docs).
    pub fn with_metrics(n_shards: usize, metrics: Arc<EngineMetrics>) -> Self {
        Self::build(n_shards, Some(metrics))
    }

    fn build(n_shards: usize, metrics: Option<Arc<EngineMetrics>>) -> Self {
        let n = n_shards.max(1);
        Self {
            shards: (0..n)
                .map(|_| CachePadded::new(Mutex::new(Shard::default())))
                .collect(),
            metrics,
        }
    }

    #[inline]
    fn shard_for(&self, txn: TxnId) -> &Mutex<Shard> {
        let idx = (fxhash::hash_u64(txn.0) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Records that `txn` holds (or waits on) `record`: one shard lock and
    /// one `Vec::push`.  Immediately repeated records (re-locking the row
    /// the statement just locked) are skipped via a last-entry check; other
    /// duplicates are collapsed by `take_all`'s dedupe.  Returns true when
    /// the record was appended.
    pub fn remember_record(&self, txn: TxnId, record: RecordId) -> bool {
        let mut shard = self.shard_for(txn).lock();
        let _scope = GuardScope::enter();
        let records = &mut shard.txns.entry(txn).or_default().records;
        if records.last() == Some(&record) {
            return false;
        }
        records.push(record);
        shard.live_records += 1;
        true
    }

    /// Forgets a single record (early release).  Returns true when the
    /// record was tracked.
    pub fn forget_record(&self, txn: TxnId, record: RecordId) -> bool {
        self.forget_records(txn, std::slice::from_ref(&record)) == 1
    }

    /// [`TxnLockRegistry::forget_records`] with the counts routed through
    /// the caller's sink (the engine passes the transaction's scratch).
    pub fn forget_records_in<S: MetricsSink + ?Sized>(
        &self,
        txn: TxnId,
        records: &[RecordId],
        sink: &S,
    ) -> usize {
        let released = {
            let mut shard = self.shard_for(txn).lock();
            let _scope = GuardScope::enter();
            sink.on_release_shard_lock();
            // Two tallies: `log_entries` (every log copy dropped — keeps the
            // per-shard live_records balance, which counts pushes) and
            // `released` (distinct records actually tracked — what the
            // locks_released metric reports; a record a queued upgrade
            // logged twice is still one lock).
            let mut log_entries = 0usize;
            let mut released = 0usize;
            if let Some(entry) = shard.txns.get_mut(&txn) {
                for record in records {
                    // The log is unsorted (append-only), so removal is a
                    // linear scan; retain() also drops any duplicate log
                    // entries of the same record together, so a forgotten
                    // record never leaves a stale entry behind.
                    let before = entry.records.len();
                    entry.records.retain(|r| r != record);
                    let dropped = before - entry.records.len();
                    log_entries += dropped;
                    if dropped > 0 {
                        released += 1;
                    }
                }
                if entry.is_empty() {
                    shard.txns.remove(&txn);
                }
            }
            shard.live_records -= log_entries as u64;
            released
        };
        if released > 0 {
            sink.on_locks_released(released as u64);
        }
        released
    }

    /// Forgets a batch of records with one shard lock for the whole batch
    /// (the bookkeeping half of batched early lock release — the write path
    /// accumulates a statement's early releases and flushes them through one
    /// call here).  Returns how many of them were actually tracked.
    pub fn forget_records(&self, txn: TxnId, records: &[RecordId]) -> usize {
        match &self.metrics {
            Some(metrics) => self.forget_records_in(txn, records, &**metrics),
            None => self.forget_records_in(txn, records, &NoopSink),
        }
    }

    /// Records that `txn` holds an intention lock on `table`.
    pub fn remember_table(&self, txn: TxnId, table: TableId) {
        let mut shard = self.shard_for(txn).lock();
        let tables = &mut shard.txns.entry(txn).or_default().tables;
        if !tables.contains(&table) {
            tables.push(table);
        }
    }

    /// [`TxnLockRegistry::take_all`] with the counts routed through the
    /// caller's sink (the engine passes the transaction's scratch).
    pub fn take_all_in<S: MetricsSink + ?Sized>(&self, txn: TxnId, sink: &S) -> Option<TxnLocks> {
        let taken = {
            let mut shard = self.shard_for(txn).lock();
            let _scope = GuardScope::enter();
            sink.on_release_shard_lock();
            let taken = shard.txns.remove(&txn);
            if let Some(entry) = &taken {
                shard.live_records -= entry.records.len() as u64;
            }
            taken
        };
        let mut entry = taken?;
        // The one deferred sort: page-major order + dedupe, paid once per
        // transaction instead of once per acquisition.
        entry.records.sort_unstable();
        entry.records.dedup();
        sink.on_locks_released(entry.records.len() as u64);
        Some(TxnLocks {
            records: entry.records,
            tables: entry.tables,
        })
    }

    /// Removes and returns everything `txn` holds — one shard lock, no walk
    /// of anyone else's state — with the records sorted page-major and
    /// deduplicated (see [`TxnLocks::page_groups`]).  Returns `None` when
    /// the transaction holds nothing.
    pub fn take_all(&self, txn: TxnId) -> Option<TxnLocks> {
        match &self.metrics {
            Some(metrics) => self.take_all_in(txn, &**metrics),
            None => self.take_all_in(txn, &NoopSink),
        }
    }

    /// Number of log entries `txn` currently holds or waits on (may
    /// transiently include a duplicate for a queued upgrade — see module
    /// docs; used as the deadlock victim weight).
    pub fn record_count_of(&self, txn: TxnId) -> usize {
        self.shard_for(txn)
            .lock()
            .txns
            .get(&txn)
            .map(|e| e.records.len())
            .unwrap_or(0)
    }

    /// Total live `(txn, record)` entries across all shards (O(shards) —
    /// each shard keeps its own count, so this is a sum of integers, not a
    /// walk).  Sampled into the `lock_registry_entries` gauge at snapshot
    /// time.
    pub fn total_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().live_records as usize)
            .sum()
    }

    /// True when no transaction holds anything.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().txns.is_empty())
    }

    /// Number of shards (introspection / tests).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Largest number of transactions tracked by any one shard — the
    /// shard-size signal for the bookkeeping gauge.
    pub fn max_shard_txns(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().txns.len())
            .max()
            .unwrap_or(0)
    }
}

/// Throw-away sink for registries constructed without a metrics handle.
struct NoopSink;

impl MetricsSink for NoopSink {
    fn on_query(&self) {}
    fn on_lock_created(&self) {}
    fn on_locks_released(&self, _n: u64) {}
    fn on_release_shard_lock(&self) {}
    fn on_grant_scan(&self, _len: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

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
    fn remember_skips_consecutive_duplicates() {
        let reg = TxnLockRegistry::new(8);
        assert!(reg.remember_record(TxnId(1), R1));
        assert!(!reg.remember_record(TxnId(1), R1));
        assert!(reg.remember_record(TxnId(1), R2));
        assert_eq!(reg.record_count_of(TxnId(1)), 2);
        assert_eq!(reg.total_entries(), 2);
    }

    #[test]
    fn take_all_dedupes_interleaved_duplicates() {
        let reg = TxnLockRegistry::new(8);
        // R1 appended twice with R2 in between (the queued-upgrade shape):
        // the log keeps both, take_all collapses them.
        assert!(reg.remember_record(TxnId(1), R1));
        assert!(reg.remember_record(TxnId(1), R2));
        assert!(reg.remember_record(TxnId(1), R1));
        assert_eq!(reg.record_count_of(TxnId(1)), 3, "log keeps the duplicate");
        let locks = reg.take_all(TxnId(1)).unwrap();
        assert_eq!(locks.records, vec![R1, R2], "sorted and deduplicated");
        assert!(reg.is_empty());
        assert_eq!(reg.total_entries(), 0);
    }

    #[test]
    fn take_all_empties_the_transaction() {
        let reg = TxnLockRegistry::new(8);
        reg.remember_record(TxnId(1), R1);
        reg.remember_table(TxnId(1), TableId(3));
        let locks = reg.take_all(TxnId(1)).unwrap();
        assert!(locks.contains(R1));
        assert_eq!(locks.tables, vec![TableId(3)]);
        assert!(reg.take_all(TxnId(1)).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn forget_record_prunes_empty_entries() {
        let reg = TxnLockRegistry::new(8);
        reg.remember_record(TxnId(1), R1);
        assert!(reg.forget_record(TxnId(1), R1));
        assert!(!reg.forget_record(TxnId(1), R1));
        assert!(reg.is_empty());
    }

    #[test]
    fn live_counts_and_release_metrics_track_entries() {
        let metrics = Arc::new(EngineMetrics::new());
        let reg = TxnLockRegistry::with_metrics(8, Arc::clone(&metrics));
        reg.remember_record(TxnId(1), R1);
        reg.remember_record(TxnId(1), R2);
        reg.remember_record(TxnId(2), R1);
        assert_eq!(reg.total_entries(), 3);
        reg.forget_record(TxnId(1), R2);
        assert_eq!(reg.total_entries(), 2);
        assert_eq!(metrics.locks_released.get(), 1);
        reg.take_all(TxnId(1));
        reg.take_all(TxnId(2));
        assert_eq!(reg.total_entries(), 0);
        assert_eq!(metrics.locks_released.get(), 3);
    }

    #[test]
    fn sink_variants_route_counts_to_the_scratch() {
        use txsql_common::metrics::MetricsScratch;
        let metrics = Arc::new(EngineMetrics::new());
        let reg = TxnLockRegistry::with_metrics(8, Arc::clone(&metrics));
        let scratch = MetricsScratch::new();
        reg.remember_record(TxnId(1), R1);
        reg.remember_record(TxnId(1), R2);
        assert_eq!(reg.forget_records_in(TxnId(1), &[R1], &scratch), 1);
        assert!(reg.take_all_in(TxnId(1), &scratch).is_some());
        // Shared counters untouched until the flush.
        assert_eq!(metrics.locks_released.get(), 0);
        assert_eq!(metrics.release_shard_locks.get(), 0);
        assert_eq!(scratch.pending_locks_released(), 2);
        assert_eq!(scratch.pending_release_shard_locks(), 2);
        scratch.flush(&metrics);
        assert_eq!(metrics.locks_released.get(), 2);
        assert_eq!(metrics.release_shard_locks.get(), 2);
    }

    #[test]
    fn take_all_groups_records_by_page() {
        let reg = TxnLockRegistry::new(8);
        // Insert interleaved across two pages; take_all must come back
        // page-grouped regardless of insertion order (the deferred sort).
        reg.remember_record(TxnId(1), RecordId::new(1, 8, 0));
        for heap in 0..4u16 {
            reg.remember_record(TxnId(1), RecordId::new(1, 7, heap));
        }
        let locks = reg.take_all(TxnId(1)).unwrap();
        assert_eq!(locks.record_count(), 5);
        let groups: Vec<_> = locks.page_groups().collect();
        assert_eq!(groups.len(), 2, "two distinct pages");
        assert_eq!(groups[0].0, RecordId::new(1, 7, 0).page());
        assert_eq!(groups[0].1.len(), 4);
        assert_eq!(groups[1].0, RecordId::new(1, 8, 0).page());
        assert_eq!(groups[1].1, &[RecordId::new(1, 8, 0)]);
        assert!(locks.contains(RecordId::new(1, 7, 2)));
        assert!(!locks.contains(RecordId::new(1, 9, 0)));
    }

    #[test]
    fn forget_records_batch_takes_one_pass() {
        let metrics = Arc::new(EngineMetrics::new());
        let reg = TxnLockRegistry::with_metrics(8, Arc::clone(&metrics));
        reg.remember_record(TxnId(1), R1);
        reg.remember_record(TxnId(1), R2);
        let untracked = RecordId::new(5, 5, 5);
        assert_eq!(reg.forget_records(TxnId(1), &[R1, R2, untracked]), 2);
        assert!(reg.is_empty());
        assert_eq!(metrics.locks_released.get(), 2);
    }

    #[test]
    fn forgetting_a_twice_logged_record_releases_it_once() {
        // A queued upgrade logs its record a second time (non-consecutive,
        // so the last-entry dedupe misses it).  Forgetting that record must
        // drop BOTH log copies but count ONE released lock — and the
        // per-shard live count must stay balanced so the gauge drains.
        let metrics = Arc::new(EngineMetrics::new());
        let reg = TxnLockRegistry::with_metrics(8, Arc::clone(&metrics));
        reg.remember_record(TxnId(1), R1);
        reg.remember_record(TxnId(1), R2);
        reg.remember_record(TxnId(1), R1);
        assert_eq!(reg.total_entries(), 3);
        assert_eq!(reg.forget_records(TxnId(1), &[R1]), 1, "one lock, not two");
        assert_eq!(metrics.locks_released.get(), 1);
        assert_eq!(reg.total_entries(), 1, "both log copies must be gone");
        reg.take_all(TxnId(1));
        assert_eq!(reg.total_entries(), 0);
        assert_eq!(metrics.locks_released.get(), 2);
        assert!(reg.is_empty());
    }

    #[test]
    fn tables_deduplicate() {
        let reg = TxnLockRegistry::new(8);
        reg.remember_table(TxnId(1), TableId(1));
        reg.remember_table(TxnId(1), TableId(1));
        reg.remember_table(TxnId(1), TableId(2));
        assert_eq!(
            reg.take_all(TxnId(1)).unwrap().tables,
            vec![TableId(1), TableId(2)]
        );
    }

    #[test]
    fn concurrent_transactions_do_not_interfere() {
        let reg = Arc::new(TxnLockRegistry::new(16));
        let handles: Vec<_> = (1..=8u64)
            .map(|t| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    for heap in 0..64u16 {
                        reg.remember_record(TxnId(t), RecordId::new(1, t as u32, heap));
                    }
                    assert_eq!(reg.record_count_of(TxnId(t)), 64);
                    let locks = reg.take_all(TxnId(t)).unwrap();
                    assert_eq!(locks.record_count(), 64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(reg.is_empty());
    }
}

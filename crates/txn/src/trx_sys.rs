//! The transaction system: id allocation, the active transaction list and
//! read-view creation.
//!
//! `TrxSys` is the moral equivalent of InnoDB's `trx_sys`: it hands out
//! transaction ids at `BEGIN`, commit sequence numbers (`trx_no`) at commit,
//! and tracks which transactions are currently active.  Read views are
//! created here in either the copying or copy-free mode (§3.1.2); the copying
//! mode intentionally locks and copies the active list so that the overhead
//! the paper describes is measurable.
//!
//! It also keeps the **purge horizon** `L`: the largest `trx_no` such that
//! every `trx_no <= L` has finished.  Commits purge version chains below it
//! (`Storage::commit_writes`).  Unlike the copy-free visibility horizon,
//! which jumps to the newest finished commit, `L` is a low-water mark: one
//! slow committer holds it down until it finishes.

use crate::readview::{ReadView, ReadViewMode};
use crate::transaction::Transaction;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txsql_common::fxhash::FxHashSet;
use txsql_common::metrics::EngineMetrics;
use txsql_common::TxnId;
use txsql_lockmgr::registry::TxnLockRegistry;

/// The transaction system.
#[derive(Debug)]
pub struct TrxSys {
    next_txn_id: AtomicU64,
    /// The next commit sequence number and the allocated, unfinished ones.
    trx_nos: Mutex<TrxNos>,
    /// The purge horizon: every `trx_no` at or below it has finished.  Only
    /// written under `trx_nos`, after the finished transaction's visibility
    /// was published, so a reader of it sees those effects.
    purge_horizon: AtomicU64,
    /// Newest commit sequence number handed out (the copy-free visibility
    /// horizon — effectively the global `del_ts` clock).
    max_committed_trx_no: AtomicU64,
    /// The classic active transaction list (locked + copied by copying views).
    active: Mutex<FxHashSet<TxnId>>,
    read_view_mode: ReadViewMode,
    /// Lock registries checked at transaction teardown: `finish` asserts (in
    /// debug builds) that `release_all` drained the finished transaction's
    /// bookkeeping, so leaks surface at the transaction that caused them.
    lock_registries: Vec<Arc<TxnLockRegistry>>,
    /// Engine metrics handle threaded into every transaction at `begin` so
    /// its per-transaction scratch (`TxnMetrics`) can flush on drop.
    engine_metrics: Option<Arc<EngineMetrics>>,
}

/// Commit sequence number allocation state.
#[derive(Debug)]
struct TrxNos {
    next: u64,
    /// Allocated, unfinished `trx_no`s in ascending order (allocation is
    /// monotonic, so appending keeps it sorted).
    in_flight: VecDeque<u64>,
}

impl TrxNos {
    /// Largest `trx_no` with every `trx_no` at or below it finished.
    fn horizon(&self) -> u64 {
        self.in_flight.front().copied().unwrap_or(self.next) - 1
    }
}

impl TrxSys {
    /// Creates a transaction system using the given read-view mode.
    pub fn new(read_view_mode: ReadViewMode) -> Self {
        Self {
            next_txn_id: AtomicU64::new(1),
            trx_nos: Mutex::new(TrxNos {
                next: 1,
                in_flight: VecDeque::new(),
            }),
            purge_horizon: AtomicU64::new(0),
            max_committed_trx_no: AtomicU64::new(0),
            active: Mutex::new(FxHashSet::default()),
            read_view_mode,
            lock_registries: Vec::new(),
            engine_metrics: None,
        }
    }

    /// Attaches the lock registries whose drained state `finish` asserts.
    pub fn with_lock_registries(mut self, registries: Vec<Arc<TxnLockRegistry>>) -> Self {
        self.lock_registries = registries;
        self
    }

    /// Seeds the id and commit-sequence counters — used when rebuilding the
    /// transaction system after crash recovery, so a restarted engine never
    /// re-issues a transaction id or `trx_no` that appears in the recovered
    /// log.  The copy-free visibility horizon and the purge horizon start
    /// at `next_trx_no - 1` (everything recovered as committed is visible
    /// and finished).
    pub fn with_start(self, next_txn_id: u64, next_trx_no: u64) -> Self {
        let next_trx_no = next_trx_no.max(1);
        self.next_txn_id
            .store(next_txn_id.max(1), Ordering::Relaxed);
        self.trx_nos.lock().next = next_trx_no;
        self.purge_horizon.store(next_trx_no - 1, Ordering::Relaxed);
        self.max_committed_trx_no
            .store(next_trx_no - 1, Ordering::Relaxed);
        self
    }

    /// Attaches the engine metrics every transaction's scratch flushes to.
    pub fn with_engine_metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.engine_metrics = Some(metrics);
        self
    }

    /// The configured read-view mode.
    pub fn read_view_mode(&self) -> ReadViewMode {
        self.read_view_mode
    }

    /// Starts a transaction: allocates an id and registers it active.  The
    /// transaction's metrics scratch is attached to the engine metrics when
    /// configured ([`TrxSys::with_engine_metrics`]).
    pub fn begin(&self) -> Transaction {
        let id = TxnId(self.next_txn_id.fetch_add(1, Ordering::Relaxed));
        self.active.lock().insert(id);
        match &self.engine_metrics {
            Some(metrics) => Transaction::attached_to(id, Arc::clone(metrics)),
            None => Transaction::new(id),
        }
    }

    /// Allocates a commit sequence number for a committing transaction and
    /// records it in `txn`.  It holds the purge horizon below itself until
    /// [`TrxSys::finish`] releases it, which every exit path must call —
    /// commit, rollback (also after a failed commit) and abort alike.
    pub fn allocate_trx_no(&self, txn: &mut Transaction) -> u64 {
        debug_assert!(txn.trx_no.is_none(), "{} already has a trx_no", txn.id);
        let mut trx_nos = self.trx_nos.lock();
        let no = trx_nos.next;
        trx_nos.next += 1;
        trx_nos.in_flight.push_back(no);
        txn.trx_no = Some(no);
        no
    }

    /// Marks a transaction finished: deregisters it from the active list
    /// and, when it was allocated a `trx_no`, publishes that number to the
    /// copy-free visibility horizon (the transaction's `del_ts`) and then
    /// releases it from the purge horizon.
    ///
    /// A `trx_no` is published even when the transaction rolled back after
    /// allocating it (a failed `commit_writes`): no surviving version then
    /// carries the number, and a version the failed call did stamp stays
    /// consistently visible instead of being purged out from under views.
    pub fn finish(&self, txn: &mut Transaction) {
        self.active.lock().remove(&txn.id);
        if let Some(no) = txn.trx_no.take() {
            self.max_committed_trx_no.fetch_max(no, Ordering::AcqRel);
            let mut trx_nos = self.trx_nos.lock();
            if let Ok(at) = trx_nos.in_flight.binary_search(&no) {
                trx_nos.in_flight.remove(at);
            }
            self.purge_horizon
                .store(trx_nos.horizon(), Ordering::Release);
        }
        let txn = txn.id;
        // A finished transaction must not keep registry entries alive:
        // release_all already drained them, so this is a debug-only check
        // (one lookup in the transaction's own shard).  Removing leftovers
        // here would hide the leak — the page-queue/holder entries they
        // refer to would stay behind silently.
        if cfg!(debug_assertions) {
            for registry in &self.lock_registries {
                debug_assert_eq!(
                    registry.record_count_of(txn),
                    0,
                    "transaction {txn} finished with lock bookkeeping still registered"
                );
            }
        }
    }

    /// Number of currently active transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// True when the transaction is still registered active.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.active.lock().contains(&txn)
    }

    /// Newest committed `trx_no` (the copy-free horizon).
    pub fn commit_horizon(&self) -> u64 {
        self.max_committed_trx_no.load(Ordering::Acquire)
    }

    /// The purge horizon `L`: every `trx_no <= L` has finished, so its
    /// versions are visible to every read view created from now on.
    pub fn purge_horizon(&self) -> u64 {
        self.purge_horizon.load(Ordering::Acquire)
    }

    /// Creates a read view for `owner` in the configured mode.
    pub fn read_view(&self, owner: TxnId) -> ReadView {
        self.read_view_in_mode(owner, self.read_view_mode)
    }

    /// Creates a read view in an explicit mode (used by the ablation bench).
    pub fn read_view_in_mode(&self, owner: TxnId, mode: ReadViewMode) -> ReadView {
        match mode {
            ReadViewMode::Copying => {
                // Lock and copy the active list — the cost §3.1.2 eliminates.
                let active_ids = self.active.lock().clone();
                ReadView::Copying {
                    active_ids,
                    low_limit: TxnId(self.next_txn_id.load(Ordering::Relaxed)),
                    owner,
                }
            }
            ReadViewMode::CopyFree => ReadView::CopyFree {
                commit_horizon: self.commit_horizon(),
                owner,
            },
        }
    }
}

impl Default for TrxSys {
    fn default() -> Self {
        Self::new(ReadViewMode::CopyFree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_storage::VisibilityJudge;

    #[test]
    fn begin_assigns_increasing_ids_and_tracks_active() {
        let sys = TrxSys::default();
        let mut a = sys.begin();
        let b = sys.begin();
        assert!(b.id > a.id);
        assert_eq!(sys.active_count(), 2);
        assert!(sys.is_active(a.id));
        sys.finish(&mut a);
        assert_eq!(sys.active_count(), 1);
        assert!(!sys.is_active(a.id));
    }

    #[test]
    fn finish_asserts_registries_drained() {
        let registry = Arc::new(TxnLockRegistry::new(8));
        let sys =
            TrxSys::new(ReadViewMode::CopyFree).with_lock_registries(vec![Arc::clone(&registry)]);
        // Clean teardown passes the drained-registry check.
        let mut t = sys.begin();
        sys.finish(&mut t);
        assert!(registry.is_empty());
        // A leaked entry is loud in debug builds (and deliberately left
        // intact rather than silently dropped — it still refers to live
        // lock-table state).
        if cfg!(debug_assertions) {
            let mut t2 = sys.begin();
            registry.remember_record(t2.id, txsql_common::RecordId::new(1, 0, 0));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sys.finish(&mut t2);
            }));
            assert!(caught.is_err(), "debug build must flag leaked bookkeeping");
            assert_eq!(
                registry.record_count_of(t2.id),
                1,
                "leftover must not be dropped"
            );
        }
    }

    #[test]
    fn with_start_seeds_counters_past_recovered_ids() {
        let sys = TrxSys::default().with_start(42, 17);
        let mut t = sys.begin();
        assert_eq!(t.id, TxnId(42));
        // Everything recovered as committed (trx_no <= 16) is visible and
        // finished.
        assert_eq!(sys.commit_horizon(), 16);
        assert_eq!(sys.purge_horizon(), 16);
        assert_eq!(sys.allocate_trx_no(&mut t), 17);
        assert_eq!(sys.purge_horizon(), 16);
        sys.finish(&mut t);
        assert_eq!(sys.purge_horizon(), 17);
    }

    #[test]
    fn commit_horizon_advances_with_commits() {
        let sys = TrxSys::default();
        let mut t = sys.begin();
        assert_eq!(sys.commit_horizon(), 0);
        let no = sys.allocate_trx_no(&mut t);
        sys.finish(&mut t);
        assert_eq!(sys.commit_horizon(), no);
        // Rollbacks do not advance the horizon.
        let mut t2 = sys.begin();
        sys.finish(&mut t2);
        assert_eq!(sys.commit_horizon(), no);
    }

    #[test]
    fn purge_horizon_is_the_finished_low_water_mark() {
        let sys = TrxSys::default();
        let (mut a, mut b, mut c) = (sys.begin(), sys.begin(), sys.begin());
        let (na, nb, nc) = (
            sys.allocate_trx_no(&mut a),
            sys.allocate_trx_no(&mut b),
            sys.allocate_trx_no(&mut c),
        );
        assert_eq!((na, nb, nc), (1, 2, 3));
        assert_eq!(sys.purge_horizon(), 0);
        // Finishing out of order: the newest commit moves the copy-free
        // horizon at once, but the purge horizon waits for the oldest.
        sys.finish(&mut c);
        assert_eq!(sys.commit_horizon(), 3);
        assert_eq!(sys.purge_horizon(), 0);
        sys.finish(&mut a);
        assert_eq!(sys.purge_horizon(), 1);
        sys.finish(&mut b);
        assert_eq!(sys.purge_horizon(), 3);
        assert_eq!(a.trx_no, None);
    }

    #[test]
    fn rollback_after_allocating_does_not_freeze_purge_horizon() {
        let sys = TrxSys::default();
        // A commit whose `commit_writes` failed: it allocated a trx_no and
        // then rolled back through the same `finish`.
        let mut failed = sys.begin();
        let no = sys.allocate_trx_no(&mut failed);
        let mut later = sys.begin();
        let later_no = sys.allocate_trx_no(&mut later);
        sys.finish(&mut later);
        assert_eq!(
            sys.purge_horizon(),
            no - 1,
            "the failed commit still pins it"
        );
        sys.finish(&mut failed);
        assert_eq!(failed.trx_no, None);
        assert_eq!(sys.purge_horizon(), later_no);
        // Later commits keep moving it.
        let mut next = sys.begin();
        let next_no = sys.allocate_trx_no(&mut next);
        sys.finish(&mut next);
        assert_eq!(sys.purge_horizon(), next_no);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pins the purge horizon")]
    fn dropping_a_transaction_that_owns_a_trx_no_is_caught() {
        let sys = TrxSys::default();
        let mut t = sys.begin();
        sys.allocate_trx_no(&mut t);
        drop(t);
    }

    #[test]
    fn copying_view_snapshot_isolates_concurrent_commits() {
        let sys = TrxSys::new(ReadViewMode::Copying);
        let mut writer = sys.begin();
        let reader = sys.begin();
        let view = sys.read_view(reader.id);
        // Writer commits after the view was created.
        let no = sys.allocate_trx_no(&mut writer);
        sys.finish(&mut writer);
        // Its version is still invisible to the old view.
        assert!(!view.is_visible(writer.id, Some(no)));
        // A fresh view sees it.
        let fresh = sys.read_view(reader.id);
        assert!(fresh.is_visible(writer.id, Some(no)));
    }

    #[test]
    fn copy_free_view_snapshot_isolates_concurrent_commits() {
        let sys = TrxSys::new(ReadViewMode::CopyFree);
        let mut writer = sys.begin();
        let reader = sys.begin();
        let view = sys.read_view(reader.id);
        let no = sys.allocate_trx_no(&mut writer);
        sys.finish(&mut writer);
        assert!(!view.is_visible(writer.id, Some(no)));
        let fresh = sys.read_view(reader.id);
        assert!(fresh.is_visible(writer.id, Some(no)));
    }

    #[test]
    fn both_modes_agree_on_visibility_of_settled_history() {
        let sys = TrxSys::new(ReadViewMode::CopyFree);
        let mut writer = sys.begin();
        let no = sys.allocate_trx_no(&mut writer);
        sys.finish(&mut writer);
        let reader = sys.begin();
        let copying = sys.read_view_in_mode(reader.id, ReadViewMode::Copying);
        let copy_free = sys.read_view_in_mode(reader.id, ReadViewMode::CopyFree);
        assert!(copying.is_visible(writer.id, Some(no)));
        assert!(copy_free.is_visible(writer.id, Some(no)));
        // An uncommitted write from a later transaction is invisible to both.
        let other = sys.begin();
        assert!(!copying.is_visible(other.id, None));
        assert!(!copy_free.is_visible(other.id, None));
    }
}

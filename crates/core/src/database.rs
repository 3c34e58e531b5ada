//! The engine facade: tables, sessions, commit and rollback.
//!
//! A [`Database`] owns one storage engine, one transaction system, every lock
//! table generation and the commit pipeline; which of those a transaction's
//! write path actually exercises is decided by the configured
//! [`crate::Protocol`] (see [`crate::write_path`]).  Commit and rollback live
//! here because they are where the paper's ordering guarantees (§4.3 commit
//! order, §4.4 rollback order, §4.5 deadlock prevention fallout) come
//! together.

use crate::admission::{AdmissionController, AdmissionPermit};
use crate::aria::AriaCoordinator;
use crate::checker::HistoryRecorder;
use crate::commit::CommitPipeline;
use crate::config::{EngineConfig, Protocol};
use crate::hooks::{BinlogTxn, CommitHook};
use crate::program::{Operation, ProgramOutcome, TxnProgram};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txsql_common::fxhash::FxHashMap;
use txsql_common::metrics::{EngineMetrics, MetricsSink, MetricsSnapshot};
use txsql_common::time::SimInstant;
use txsql_common::{Error, Lsn, RecordId, Result, Row, TableId, TxnId};
use txsql_lockmgr::group_lock::GroupLockTable;
use txsql_lockmgr::hotspot::HotspotRegistry;
use txsql_lockmgr::lightweight::{LightweightConfig, LightweightLockTable};
use txsql_lockmgr::lock_sys::{LockSys, LockSysConfig};
use txsql_lockmgr::queue_lock::QueueLockTable;
use txsql_lockmgr::registry::TxnLockRegistry;
use txsql_storage::fault::{CrashPoint, FaultInjector};
use txsql_storage::recovery::{self, RecoveryReport};
use txsql_storage::storage::CheckpointImage;
use txsql_storage::{RedoRecord, Storage, TableSchema};
use txsql_txn::{Transaction, TrxSys, TxnState};

pub(crate) struct DbInner {
    pub(crate) config: EngineConfig,
    pub(crate) storage: Storage,
    pub(crate) trx_sys: TrxSys,
    pub(crate) metrics: Arc<EngineMetrics>,
    pub(crate) admission: AdmissionController,
    pub(crate) lock_sys: LockSys,
    pub(crate) lightweight: LightweightLockTable,
    pub(crate) hotspots: HotspotRegistry,
    pub(crate) queue_locks: QueueLockTable,
    pub(crate) group_locks: GroupLockTable,
    pub(crate) pipeline: CommitPipeline,
    /// Commit outcome board: `true` = committed, `false` = aborted.  Written
    /// and read only under Bamboo, whose commit dependencies consult it.
    outcomes: Mutex<FxHashMap<TxnId, bool>>,
    pub(crate) hooks: RwLock<Vec<Arc<dyn CommitHook>>>,
    pub(crate) history: Option<HistoryRecorder>,
    pub(crate) aria: AriaCoordinator,
    /// The newest checkpoint image — what `restart_from_crash` recovers from.
    /// Starts empty (LSN 0, no tables): engines that never checkpoint after
    /// schema setup recover nothing but the log, so take a baseline
    /// checkpoint once tables are loaded.
    pub(crate) last_checkpoint: Mutex<CheckpointImage>,
    sweeper_stop: Arc<AtomicBool>,
    sweeper_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The TXSQL-reproduction database engine.  Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("protocol", &self.inner.config.protocol)
            .field("tables", &self.inner.storage.tables().len())
            .finish()
    }
}

impl Database {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let metrics = Arc::new(EngineMetrics::new());
        let faults = match &config.fault_plan {
            Some(plan) => FaultInjector::with_metrics(plan.clone(), Arc::clone(&metrics)),
            None => FaultInjector::disabled(),
        };
        let storage = Storage::with_faults(config.latency.fsync, faults);
        Self::assemble(config, storage, metrics, None)
    }

    /// Wires an engine around an existing storage (fresh start or the
    /// recovered engine after a crash).  `trx_seed` re-seeds the transaction
    /// system's id and commit-sequence counters past everything the
    /// recovered log used.
    fn assemble(
        config: EngineConfig,
        storage: Storage,
        metrics: Arc<EngineMetrics>,
        trx_seed: Option<(u64, u64)>,
    ) -> Self {
        // One sharded lock registry per lock table: both are threaded through
        // TrxSys so transaction teardown can verify the bookkeeping drained.
        // Shard counts follow the tables they serve (page-sharded baseline
        // vs record-keyed lightweight table).
        let lock_sys_registry = Arc::new(TxnLockRegistry::with_metrics(64, Arc::clone(&metrics)));
        let lightweight_registry =
            Arc::new(TxnLockRegistry::with_metrics(256, Arc::clone(&metrics)));
        let mut trx_sys = TrxSys::new(config.protocol.read_view_mode())
            .with_lock_registries(vec![
                Arc::clone(&lock_sys_registry),
                Arc::clone(&lightweight_registry),
            ])
            // Every transaction carries a Cell-based metrics scratch that
            // flushes here when it drops — the lock hot paths pay no shared
            // atomics per cycle (see txsql_txn::TxnMetrics).
            .with_engine_metrics(Arc::clone(&metrics));
        if let Some((next_txn_id, next_trx_no)) = trx_seed {
            trx_sys = trx_sys.with_start(next_txn_id, next_trx_no);
        }
        let lock_sys = LockSys::with_registry(
            LockSysConfig {
                lock_wait_timeout: config.lock_wait_timeout,
                ..LockSysConfig::default()
            },
            Arc::clone(&metrics),
            lock_sys_registry,
        );
        let lightweight = LightweightLockTable::with_registry(
            LightweightConfig {
                lock_wait_timeout: config.lock_wait_timeout,
                ..LightweightConfig::default()
            },
            Arc::clone(&metrics),
            lightweight_registry,
        );
        let hotspots = HotspotRegistry::new(config.hotspot.clone());
        let queue_locks = QueueLockTable::new(config.group.hot_wait_timeout);
        let group_locks = GroupLockTable::new(config.group.clone(), Arc::clone(&metrics));
        let pipeline = CommitPipeline::new(config.group_commit, Arc::clone(&metrics));
        let history = if config.record_history {
            Some(HistoryRecorder::new())
        } else {
            None
        };
        let aria = AriaCoordinator::new(config.aria_batch_size);
        let admission = AdmissionController::new(config.admission.clone(), Arc::clone(&metrics));
        let inner = Arc::new(DbInner {
            config,
            storage,
            trx_sys,
            metrics,
            admission,
            lock_sys,
            lightweight,
            hotspots,
            queue_locks,
            group_locks,
            pipeline,
            outcomes: Mutex::new(FxHashMap::default()),
            hooks: RwLock::new(Vec::new()),
            history,
            aria,
            last_checkpoint: Mutex::new(CheckpointImage {
                lsn: Lsn(0),
                tables: Vec::new(),
            }),
            sweeper_stop: Arc::new(AtomicBool::new(false)),
            sweeper_handle: Mutex::new(None),
        });
        let db = Database { inner };
        if db.inner.config.start_sweeper {
            db.start_sweeper();
        }
        db
    }

    /// Convenience: an engine with the default configuration for `protocol`.
    pub fn with_protocol(protocol: Protocol) -> Self {
        Self::new(EngineConfig::for_protocol(protocol))
    }

    fn start_sweeper(&self) {
        let weak = Arc::downgrade(&self.inner);
        let stop = Arc::clone(&self.inner.sweeper_stop);
        let interval = self.inner.config.hotspot.sweep_interval;
        let handle = std::thread::Builder::new()
            .name("txsql-hotspot-sweeper".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    let Some(inner) = weak.upgrade() else { break };
                    inner.hotspots.sweep(|record| {
                        inner.group_locks.has_activity(record)
                            || inner.queue_locks.has_waiters(record)
                            || inner.lightweight.wait_queue_len(record) > 0
                            || inner.lock_sys.wait_queue_len(record) > 0
                    });
                }
            })
            .expect("spawn hotspot sweeper");
        *self.inner.sweeper_handle.lock() = Some(handle);
    }

    /// Stops background threads.  Called automatically when the last handle is
    /// dropped; safe to call multiple times.
    pub fn shutdown(&self) {
        self.inner.sweeper_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.inner.sweeper_handle.lock().take() {
            let _ = handle.join();
        }
    }

    // ------------------------------------------------------------------
    // Schema / data management
    // ------------------------------------------------------------------

    /// Creates a table.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        self.inner.storage.create_table(schema).map(|_| ())
    }

    /// Bulk-loads a committed row (initial population; not logged).
    pub fn load_row(&self, table: TableId, row: Row) -> Result<RecordId> {
        self.inner.storage.load_row(table, row)
    }

    /// Looks up the record id of a primary key.
    pub fn record_id(&self, table: TableId, pk: i64) -> Result<RecordId> {
        self.inner.storage.table(table)?.lookup_pk(pk)
    }

    /// The storage engine (checkpointing, redo access, recovery experiments).
    pub fn storage(&self) -> &Storage {
        &self.inner.storage
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The protocol in force.
    pub fn protocol(&self) -> Protocol {
        self.inner.config.protocol
    }

    /// Engine metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.inner.metrics
    }

    /// A shared handle on the engine metrics, for components that outlive a
    /// borrow of the database (e.g. the replication hook's shipping path).
    pub fn metrics_handle(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Serialisable metrics snapshot over `elapsed`.
    pub fn snapshot_metrics(&self, elapsed: Duration) -> MetricsSnapshot {
        // The registry-entry gauge is sampled here rather than maintained on
        // the lock hot path (per-shard counts stay with their shards).
        let live = self.inner.lock_sys.registry().total_entries()
            + self.inner.lightweight.registry().total_entries();
        self.inner.metrics.lock_registry_entries.set(live as u64);
        self.inner.metrics.snapshot(elapsed)
    }

    /// Resets metrics (between warm-up and measurement windows).
    pub fn reset_metrics(&self) {
        self.inner.metrics.reset();
    }

    /// The hotspot registry (promotion / demotion introspection).
    pub fn hotspots(&self) -> &HotspotRegistry {
        &self.inner.hotspots
    }

    /// The front-door admission controller (queue/shed introspection).
    pub fn admission(&self) -> &AdmissionController {
        &self.inner.admission
    }

    /// The drivers' retry/backoff policy, derived from the engine
    /// configuration (one policy governs every retry loop, whether or not
    /// the admission queues are enabled).
    pub fn backoff_policy(&self) -> crate::admission::BackoffPolicy {
        self.inner.config.admission.backoff_policy()
    }

    /// Transactions currently holding a lightweight-table lock on `record`
    /// (introspection for tests of the early-release batching).
    pub fn lock_holders(&self, record: RecordId) -> Vec<TxnId> {
        self.inner.lightweight.holders_of(record)
    }

    /// Current group leader of a hot row (introspection for tests and
    /// diagnostics).
    pub fn group_leader_of(&self, record: RecordId) -> Option<TxnId> {
        self.inner.group_locks.leader_of(record)
    }

    /// Current dependency list of a hot row, in update order.
    pub fn group_dep_list(&self, record: RecordId) -> Vec<TxnId> {
        self.inner.group_locks.dep_list(record)
    }

    /// Number of updates parked on a hot row's group.
    pub fn group_waiting_len(&self, record: RecordId) -> usize {
        self.inner.group_locks.waiting_len(record)
    }

    /// The serializability history recorder, when enabled.
    pub fn history(&self) -> Option<&HistoryRecorder> {
        self.inner.history.as_ref()
    }

    /// Registers a commit hook (replication, tests).
    pub fn register_commit_hook(&self, hook: Arc<dyn CommitHook>) {
        self.inner.hooks.write().push(hook);
    }

    /// Captures a checkpoint image, makes it the engine's recovery baseline
    /// and truncates the redo log behind it.
    ///
    /// The truncation is safe by construction: it never cuts past the
    /// durable horizon (`truncate_to` clamps to it) nor past the first LSN
    /// of the oldest transaction that was active when the image was started,
    /// so every record recovery could still need survives.  The image is
    /// published as the baseline *before* the log is truncated — a crash
    /// between the two recovers from the new image plus an un-truncated
    /// (merely redundant) log, which idempotent replay tolerates.
    pub fn checkpoint(&self) -> Result<CheckpointImage> {
        // Floor and image are captured in one apply-latch critical section:
        // a transaction the image does not (fully) reflect is either in the
        // floor or entirely above the image LSN, so the truncation below
        // never cuts a record recovery still needs.
        let (image, floor) = self.inner.storage.checkpoint_with_floor();
        let redo = self.inner.storage.redo();
        // The image is only a valid baseline once everything it reflects is
        // durable.
        redo.flush_to(image.lsn)?;
        // Crash point: the image exists but was never published — recovery
        // falls back to the previous baseline.
        redo.crash_point(CrashPoint::Checkpoint)?;
        *self.inner.last_checkpoint.lock() = image.clone();
        let limit = match floor {
            Some(first) => Lsn(image.lsn.0.min(first.0.saturating_sub(1))),
            None => image.lsn,
        };
        let removed = redo.truncate_to(limit);
        self.inner.metrics.wal_truncated_records.add(removed);
        Ok(image)
    }

    /// Restarts the engine from its crash image: recovers from the last
    /// published checkpoint plus the durable redo suffix (scan-stopping at a
    /// torn tail), rebuilds the transaction system with counters seeded past
    /// everything in the recovered log, and returns a fully working engine
    /// together with the recovery report.
    ///
    /// Works on a healthy engine too (an orderly restart); the redo log of
    /// the *new* engine starts empty, with a fresh baseline checkpoint of
    /// the recovered state installed.
    pub fn restart_from_crash(&self) -> Result<(Database, RecoveryReport)> {
        self.shutdown();
        let image = self.inner.last_checkpoint.lock().clone();
        let frames = self.inner.storage.redo().durable_frames();
        let outcome = recovery::recover_frames(&image, &frames, self.inner.config.latency.fsync)?;
        let report = outcome.report;
        let metrics = Arc::new(EngineMetrics::new());
        metrics.recovery_replayed.add(report.replayed as u64);
        // The restarted engine runs fault-free: the plan described one crash,
        // and it already fired.
        let mut config = self.inner.config.clone();
        config.fault_plan = None;
        let db = Self::assemble(
            config,
            outcome.storage,
            metrics,
            Some((report.max_txn_id + 1, report.max_trx_no + 1)),
        );
        // The recovered state is the new engine's baseline: a second crash
        // before its first explicit checkpoint recovers to at least here.
        *db.inner.last_checkpoint.lock() = db.inner.storage.checkpoint();
        Ok((db, report))
    }

    /// The crash-fault injector (disabled unless a fault plan was configured).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        self.inner.storage.faults()
    }

    /// True once an injected crash fired: the engine is a crash image and
    /// the only legitimate continuation is [`Database::restart_from_crash`].
    pub fn has_crashed(&self) -> bool {
        self.inner.storage.faults().crashed()
    }

    /// True once the engine degraded to read-only (persistent fsync failure).
    pub fn is_read_only(&self) -> bool {
        self.inner.storage.faults().is_read_only()
    }

    /// Redo records that would survive a crash right now.
    pub fn durable_redo(&self) -> Vec<RedoRecord> {
        self.inner.storage.redo().durable_records()
    }

    // ------------------------------------------------------------------
    // Session API
    // ------------------------------------------------------------------

    /// Starts a transaction.
    pub fn begin(&self) -> Transaction {
        let mut txn = self.inner.trx_sys.begin();
        self.inner.storage.begin_txn(txn.id);
        txn.state = TxnState::Active;
        txn
    }

    /// Snapshot read by primary key.  The table is resolved once, for both
    /// the index lookup and the slot.  The read view is created after the
    /// slot read latch is taken and used only under it
    /// ([`Table::read_snapshot`](txsql_storage::Table::read_snapshot)), so
    /// the one-statement view is serialised with the purge that commits run
    /// under the slot write latch.
    pub fn read(&self, txn: &mut Transaction, table: TableId, pk: i64) -> Result<Row> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        txn.metrics_sink().on_query();
        let resolved = self.inner.storage.table(table)?;
        let record = resolved.lookup_pk(pk)?;
        let (row, writer) = resolved
            .read_snapshot(record, || self.inner.trx_sys.read_view(txn.id))?
            .ok_or(Error::UnknownRecord { record })?;
        txn.record_read(table, record, writer);
        Ok(row)
    }

    // ------------------------------------------------------------------
    // Commit / rollback
    // ------------------------------------------------------------------

    /// Drops every lock the transaction holds in both lock tables.  Each
    /// `release_all` drains the registry's page-grouped record list, so the
    /// page-sharded `lock_sys` takes one shard lock per page the transaction
    /// touched (not one per record); only the table that actually served the
    /// protocol holds anything, the other is a registry no-op.  Release-path
    /// counters go to the transaction's metrics scratch (flushed when the
    /// transaction drops).
    fn release_all_locks(&self, txn: &Transaction) {
        self.inner
            .lightweight
            .release_all_in(txn.id, txn.metrics_sink());
        self.inner
            .lock_sys
            .release_all_in(txn.id, txn.metrics_sink());
    }

    /// Commits a transaction.  On a cascading abort or commit-time conflict the
    /// transaction is rolled back internally and the error returned.
    pub fn commit(&self, mut txn: Transaction) -> Result<()> {
        if !txn.is_active() {
            return Err(Error::TransactionClosed { txn: txn.id });
        }
        txn.state = TxnState::Preparing;
        let hot_updates = txn.hot_updates();

        // Group locking, leader side (Algorithm 2 lines 2–10): stop granting,
        // wait for the in-flight grant, release the *hot row* lock and hand
        // the next group over.  The early row-lock release is the paper's
        // pipelining lever — group N+1 executes while group N drains its
        // commit-order waits — and it is safe because the dependency list
        // (not the row lock) serializes hot-row commit records; every row is
        // only written through the group path while it is hot.  Cold locks
        // stay held until the commit record is ordered below.
        //
        // The handover is batched across the leader's hot records: one
        // entry-map fetch per group-table shard covers prepare AND handover,
        // the row locks drain in one batched lock-table call, and every
        // promoted leader is woken after the guards drop — see
        // `GroupLockTable::begin_leader_commit`.
        if self.protocol() == Protocol::GroupLockingTxsql {
            let leader_records: Vec<RecordId> = hot_updates
                .iter()
                .filter(|(_, role, _)| *role == txsql_txn::HotRole::Leader)
                .map(|(record, _, _)| *record)
                .collect();
            if !leader_records.is_empty() {
                let prepared = self
                    .inner
                    .group_locks
                    .begin_leader_commit(txn.id, &leader_records);
                self.inner.lightweight.release_record_locks_in(
                    txn.id,
                    &leader_records,
                    txn.metrics_sink(),
                );
                self.inner
                    .group_locks
                    .finish_leader_handover(txn.id, prepared);
            }
            // Commit-order guarantee (§4.3): wait for all dependency-list
            // predecessors before ordering our own commit record.
            // Predecessors commit without the row lock; a predecessor stuck
            // on a *cold* lock we hold is pre-empted by the §4.5 deadlock
            // prevention check, and any residual entanglement resolves
            // through the wait deadline.
            for (record, _, _) in &hot_updates {
                let wait_start = Instant::now();
                match self.inner.group_locks.wait_commit_turn(txn.id, *record) {
                    Ok(()) => txn.add_blocked(wait_start.elapsed()),
                    Err(err) => {
                        txn.add_blocked(wait_start.elapsed());
                        self.rollback_internal(txn, Some(&err));
                        return Err(err);
                    }
                }
            }
        }

        // Bamboo: wait for every transaction whose dirty data we read.
        if self.protocol() == Protocol::Bamboo {
            if let Err(err) = self.wait_bamboo_dependencies(&mut txn) {
                self.rollback_internal(txn, Some(&err));
                return Err(err);
            }
        }

        // Order the commit record while every cold lock is still held
        // (release-after-ordering).  Releasing first opened a window where a
        // competing transaction could lock the row, read the *pre-commit*
        // version and commit with a smaller trx_no — the intermittent
        // serializability violation the red_envelope example used to trip
        // over (see `sim_commit_release_ordering` in crates/core/tests).
        // Stamping also purges the written rows below the purge horizon.
        let trx_no = self.inner.trx_sys.allocate_trx_no(&mut txn);
        let purge_horizon = self.inner.trx_sys.purge_horizon();
        let write_set: Vec<(TableId, RecordId)> = txn.write_set().to_vec();
        let commit_lsn =
            match self
                .inner
                .storage
                .commit_writes(txn.id, trx_no, purge_horizon, &write_set)
            {
                Ok(lsn) => lsn,
                Err(err) => {
                    // Locks are still held here — propagating without rolling
                    // back would leak them (and the group dep-list slot) forever.
                    // The rollback's `TrxSys::finish` releases the trx_no.
                    self.rollback_internal(txn, Some(&err));
                    return Err(err);
                }
            };

        // The dependency-list slot can be released as soon as our commit
        // record is ordered in the log; the durable flush below may then be
        // batched with our successors (group commit, Figure 5c).
        if self.protocol() == Protocol::GroupLockingTxsql {
            for (record, _, _) in &hot_updates {
                self.inner.group_locks.finish_commit(txn.id, *record);
            }
        }

        // The remaining (cold) locks go *after* the commit record is ordered.
        self.release_all_locks(&txn);

        let binlog = BinlogTxn {
            txn: txn.id,
            trx_no,
            changes: txn.changes().to_vec(),
            involves_hotspot: !hot_updates.is_empty(),
        };
        let hooks: Vec<Arc<dyn CommitHook>> = self.inner.hooks.read().clone();
        let pipeline_result =
            self.inner
                .pipeline
                .commit(self.inner.storage.redo(), commit_lsn, binlog, &hooks);

        // Release hotspot queue tickets (O2) now that the lock is gone.
        if self.protocol() == Protocol::QueueLockingO2 {
            for (record, _, _) in &hot_updates {
                self.inner.queue_locks.release(txn.id, *record);
            }
        }

        // Outcome first: a Bamboo dependent that finds us no longer active
        // must find our outcome on the board.
        self.post_outcome(txn.id, true);
        self.inner.trx_sys.finish(&mut txn);

        if let Err(err) = pipeline_result {
            // The flush failed (injected crash or read-only degradation): the
            // commit was stamped in memory — dependents that read our
            // versions must not cascade, so the outcome board and trx_sys
            // horizon above still record a commit — but it never became
            // durable, so it must NOT be acknowledged to the client.  The
            // recovery oracle counts only `Ok` returns as acknowledged.
            txn.state = TxnState::Committed;
            self.inner.metrics.abort_causes.record(err.label());
            return Err(err);
        }

        if let Some(history) = &self.inner.history {
            // The writer of each read version was captured at read time — no
            // commit-time re-read, which would mis-attribute reads to
            // whichever writer happened to have committed by now.
            let reads = txn.read_set().iter().map(|(_, r, w)| (*r, *w)).collect();
            let writes = write_set.iter().map(|(_, r)| *r).collect();
            history.record_commit(txn.id, trx_no, reads, writes);
        }

        txn.state = TxnState::Committed;
        let elapsed = txn.started_at.elapsed();
        self.inner.metrics.committed.inc();
        self.inner.metrics.txn_latency.record(elapsed);
        let blocked = txn.blocked_time();
        self.inner
            .metrics
            .blocked_nanos
            .add(blocked.as_nanos() as u64);
        self.inner
            .metrics
            .busy_nanos
            .add(elapsed.saturating_sub(blocked).as_nanos() as u64);
        Ok(())
    }

    /// Posts a finished transaction's outcome for Bamboo's commit
    /// dependencies, the board's only reader.  Other protocols skip the
    /// global mutex, so the board stays empty instead of growing by one
    /// entry per transaction.
    fn post_outcome(&self, txn: TxnId, committed: bool) {
        if self.protocol() == Protocol::Bamboo {
            self.inner.outcomes.lock().insert(txn, committed);
        }
    }

    fn wait_bamboo_dependencies(&self, txn: &mut Transaction) -> Result<()> {
        let deps: Vec<TxnId> = txn.dirty_reads_from().to_vec();
        // SimInstant: under deterministic simulation this deadline lives on
        // the scheduler's virtual clock, so the timeout path is explorable.
        let deadline = SimInstant::now() + self.inner.config.lock_wait_timeout * 4;
        for dep in deps {
            if !dep.is_valid() {
                continue;
            }
            loop {
                // Activity is read before the board: outcomes are posted
                // before `TrxSys::finish`, so a dependency seen finished
                // here already has its outcome on the board.
                let active = self.inner.trx_sys.is_active(dep);
                if let Some(committed) = self.inner.outcomes.lock().get(&dep).copied() {
                    if committed {
                        break;
                    }
                    return Err(Error::DirtyReadAborted {
                        txn: txn.id,
                        cause: dep,
                    });
                }
                if !active {
                    // Finished without an outcome, so not a Bamboo
                    // transaction of this engine: treat as committed.
                    break;
                }
                if SimInstant::now() > deadline {
                    return Err(Error::LockWaitTimeout {
                        txn: txn.id,
                        record: RecordId::new(0, 0, 0),
                    });
                }
                txsql_common::latency::ut_delay(20);
            }
        }
        Ok(())
    }

    /// Rolls back a transaction explicitly.
    pub fn rollback(&self, txn: Transaction, reason: Option<&Error>) {
        self.rollback_internal(txn, reason);
    }

    pub(crate) fn rollback_internal(&self, mut txn: Transaction, reason: Option<&Error>) {
        if txn.state == TxnState::Committed || txn.state == TxnState::Aborted {
            return;
        }
        let hot_updates = txn.hot_updates();

        // Group locking rollback ordering (Algorithm 3 + §4.4): doom
        // successors, wait until we are the newest entry, then undo.
        if self.protocol() == Protocol::GroupLockingTxsql && !hot_updates.is_empty() {
            for (record, _, _) in &hot_updates {
                let doomed = self.inner.group_locks.begin_rollback(txn.id, *record);
                let _ = doomed;
            }
            for (record, _, _) in &hot_updates {
                let wait_start = Instant::now();
                let _ = self.inner.group_locks.wait_rollback_turn(txn.id, *record);
                txn.add_blocked(wait_start.elapsed());
            }
        }

        let _ = self.inner.storage.rollback_writes(txn.id);

        if self.protocol() == Protocol::GroupLockingTxsql && !hot_updates.is_empty() {
            for (record, _, _) in &hot_updates {
                // The undo above removed our version from the record's head:
                // registrants from here on read clean data and need no doom.
                self.inner.group_locks.mark_undone(txn.id, *record);
                self.inner.group_locks.finish_rollback(txn.id, *record);
                self.inner.group_locks.resume_granting(*record);
            }
        }

        self.release_all_locks(&txn);
        if self.protocol() == Protocol::QueueLockingO2 {
            for (record, _, _) in &hot_updates {
                self.inner.queue_locks.release(txn.id, *record);
            }
        }

        // Outcome first: between `finish` and a later post, a Bamboo
        // dependent would find us neither active nor on the board, take us
        // for committed and commit on our undone writes.
        self.post_outcome(txn.id, false);
        self.inner.trx_sys.finish(&mut txn);
        txn.state = TxnState::Aborted;
        self.inner.metrics.aborted.inc();
        if let Some(reason) = reason {
            self.inner.metrics.abort_causes.record(reason.label());
            if reason.is_cascading() {
                self.inner.metrics.cascading_aborts.inc();
            }
        } else {
            self.inner.metrics.abort_causes.record("explicit_rollback");
        }
    }

    // ------------------------------------------------------------------
    // Program execution (the workload driver entry point)
    // ------------------------------------------------------------------

    /// Executes a whole transaction program.  Under Aria the program joins the
    /// next deterministic batch; under every other protocol it runs through
    /// the session API.  Contention aborts are returned as errors (the caller
    /// retries); an explicit [`Operation::ForcedRollback`] yields
    /// `Ok(ProgramOutcome { committed: false, .. })`.
    ///
    /// Every program passes through front-door admission first: declared
    /// write keys that the hotspot registry currently flags are serialized
    /// through their admission queues, and an over-capacity queue sheds the
    /// program with [`Error::Overloaded`] before a transaction even begins
    /// (see [`crate::admission`]).
    pub fn execute_program(&self, program: &TxnProgram) -> Result<ProgramOutcome> {
        let permit = match self.admit_program(program) {
            Ok(permit) => permit,
            Err(err) => {
                // Shed at the front door: no transaction began, but the shed
                // is an abort from the client's perspective and must show in
                // the abort-reason breakdown.
                self.inner.metrics.abort_causes.record(err.label());
                return Err(err);
            }
        };
        let result = self.execute_admitted(program);
        self.inner.admission.release(permit);
        result
    }

    /// Resolves the program's declared write keys against the hotspot
    /// registry and takes the admission queues of every currently-hot one.
    /// Keys that do not resolve (fresh inserts) cannot be hot yet and are
    /// skipped.  `write_keys` order is sorted and deduplicated, so every
    /// admission acquires queues in one global order — deadlock-free.
    fn admit_program(&self, program: &TxnProgram) -> Result<AdmissionPermit> {
        if !self.inner.config.admission.enabled {
            return Ok(AdmissionPermit::default());
        }
        let mut hot = Vec::new();
        for (table, pk) in program.write_keys() {
            if let Ok(record) = self.record_id(table, pk) {
                if self.inner.hotspots.is_hot(record) {
                    hot.push(record);
                }
            }
        }
        self.inner.admission.admit(&hot)
    }

    fn execute_admitted(&self, program: &TxnProgram) -> Result<ProgramOutcome> {
        if self.protocol() == Protocol::Aria {
            return self.inner.aria.execute(self, program);
        }
        let mut txn = self.begin();
        let mut reads = Vec::new();
        for op in &program.operations {
            let step: Result<()> = match op {
                Operation::Read { table, pk } => self.read(&mut txn, *table, *pk).map(|row| {
                    reads.push(row.get_int(1).unwrap_or_default());
                }),
                Operation::SelectForUpdate { table, pk } => {
                    self.select_for_update(&mut txn, *table, *pk).map(|row| {
                        reads.push(row.get_int(1).unwrap_or_default());
                    })
                }
                Operation::UpdateAdd {
                    table,
                    pk,
                    column,
                    delta,
                } => self
                    .update_add(&mut txn, *table, *pk, *column, *delta)
                    .map(|_| ()),
                Operation::Insert { table, pk, fill } => {
                    let n_cols = self
                        .inner
                        .storage
                        .table(*table)
                        .map(|t| t.schema().n_columns)
                        .unwrap_or(2);
                    let mut cols = vec![*pk];
                    cols.resize(n_cols, *fill);
                    self.insert(&mut txn, *table, Row::from_ints(&cols))
                }
                Operation::Work { micros } => {
                    txsql_common::latency::simulate_delay(std::time::Duration::from_micros(
                        *micros,
                    ));
                    Ok(())
                }
                Operation::ForcedRollback => {
                    let err = Error::ExplicitRollback { txn: txn.id };
                    self.rollback_internal(txn, Some(&err));
                    return Ok(ProgramOutcome {
                        reads,
                        committed: false,
                    });
                }
            };
            if let Err(err) = step {
                self.rollback_internal(txn, Some(&err));
                return Err(err);
            }
        }
        self.commit(txn)?;
        Ok(ProgramOutcome {
            reads,
            committed: true,
        })
    }
}

impl Drop for DbInner {
    fn drop(&mut self) {
        self.sweeper_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.sweeper_handle.lock().take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCOUNTS: TableId = TableId(1);

    /// Commits `n` increments of one row, then rolls one back, and returns
    /// how many outcomes the board holds.
    fn board_len_after(protocol: Protocol, n: usize) -> usize {
        let db = Database::with_protocol(protocol);
        db.create_table(TableSchema::new(ACCOUNTS, "accounts", 2))
            .unwrap();
        db.load_row(ACCOUNTS, Row::from_ints(&[1, 0])).unwrap();
        let program = TxnProgram::new(vec![Operation::UpdateAdd {
            table: ACCOUNTS,
            pk: 1,
            column: 1,
            delta: 1,
        }]);
        for _ in 0..n {
            assert!(db.execute_program(&program).unwrap().committed);
        }
        let mut txn = db.begin();
        db.update_add(&mut txn, ACCOUNTS, 1, 1, 1).unwrap();
        db.rollback(txn, None);
        let len = db.inner.outcomes.lock().len();
        db.shutdown();
        len
    }

    #[test]
    fn outcome_board_is_written_only_under_bamboo() {
        assert_eq!(board_len_after(Protocol::GroupLockingTxsql, 50), 0);
        assert_eq!(board_len_after(Protocol::Bamboo, 50), 51);
    }
}

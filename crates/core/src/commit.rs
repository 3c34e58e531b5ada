//! The 2PC commit pipeline: Flush → Sync → Commit, with group commit.
//!
//! TXSQL (like MySQL) uses an XA/two-phase commit between the storage-level
//! redo log and the server-level binlog.  The expensive part is the *Sync*
//! stage — an fsync plus, in semi-synchronous replication, a network round
//! trip to the replicas.  Executing those stages strictly per transaction in
//! hotspot-update order creates the critical path of Figure 5b; the group
//! commit optimization (Figure 5c, §4.3) batches the commits that arrive
//! together so each batch pays one fsync and one replica acknowledgement.
//!
//! Group commit runs as a two-stage pipeline, the shape of MySQL's binlog
//! group commit stages:
//!
//! 1. **Flush stage.**  The first commit to find no waiting leader becomes
//!    the leader of the next batch; later arrivals join that batch as
//!    followers until the leader takes the queue.  The leader takes the queue
//!    only once it holds the flush stage, i.e. after the previous batch's
//!    fsync, so every commit that arrived during that fsync rides along.  It
//!    then flushes the redo log up to the batch's highest LSN.
//! 2. **Ship stage.**  The leader enters the ship stage *before* it leaves
//!    the flush stage, hands the batch to the commit hooks (binlog ship and
//!    replica ack), wakes its followers and returns.
//!
//! Each leader carries exactly one batch, so a commit waits for its own
//! batch's fsync and replica round trip, not for the batches queued behind
//! it; batch N+1's fsync overlaps batch N's replica round trip.  The lock
//! coupling between the stages makes batches ship in flush order, so hooks
//! see a durable prefix of the redo log in commit order.
//!
//! The pipeline is protocol-agnostic: hot-row commit *ordering* is enforced
//! before a transaction enters the pipeline (via the dependency list), so the
//! pipeline only needs to preserve arrival order within a batch, which it
//! does by construction.

use crate::hooks::{BinlogTxn, CommitHook};
use parking_lot::Mutex;
use std::sync::Arc;
use txsql_common::metrics::EngineMetrics;
use txsql_common::{Error, Lsn, Result};
use txsql_lockmgr::event::OsEvent;
use txsql_storage::fault::CrashPoint;
use txsql_storage::RedoLog;

struct Pending {
    lsn: Lsn,
    binlog: BinlogTxn,
    done: Arc<OsEvent>,
    /// Set by the batch leader when the batch's flush or ship failed
    /// (injected crash or read-only degradation): the commit was NOT
    /// acknowledged.
    err: Arc<Mutex<Option<Error>>>,
}

#[derive(Default)]
struct PipelineState {
    /// Commits waiting for a leader to take them into a batch.
    queue: Vec<Pending>,
    /// True from the moment a commit becomes the next batch's leader until
    /// it takes the queue; while set, arrivals join as followers.
    leader_waiting: bool,
}

/// The commit pipeline.
pub struct CommitPipeline {
    group_commit: bool,
    state: Mutex<PipelineState>,
    /// Held by a leader from before it takes its batch until its flush is
    /// done and it holds `ship_stage`.
    flush_stage: Mutex<()>,
    /// Held by a leader while its batch goes through the commit hooks.
    ship_stage: Mutex<()>,
    metrics: Arc<EngineMetrics>,
}

impl std::fmt::Debug for CommitPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitPipeline")
            .field("group_commit", &self.group_commit)
            .finish()
    }
}

impl CommitPipeline {
    /// Creates a pipeline.  `group_commit` selects between Figure 5b (off)
    /// and Figure 5c (on).
    pub fn new(group_commit: bool, metrics: Arc<EngineMetrics>) -> Self {
        Self {
            group_commit,
            state: Mutex::new(PipelineState::default()),
            flush_stage: Mutex::new(()),
            ship_stage: Mutex::new(()),
            metrics,
        }
    }

    /// Whether group commit is enabled.
    pub fn group_commit_enabled(&self) -> bool {
        self.group_commit
    }

    /// Runs the Flush/Sync/Commit stages for one transaction whose commit
    /// record was appended at `lsn`.  Blocks until the commit is durable and
    /// every hook has observed it.  An error means the commit was **not**
    /// acknowledged (injected crash or read-only degradation) and must not
    /// be reported to the client as committed.
    ///
    /// With group commit the caller either leads the next batch through the
    /// flush and ship stages (see the module docs) or follows the leader
    /// that takes it; either way it returns once its own batch has shipped.
    pub fn commit(
        &self,
        redo: &RedoLog,
        lsn: Lsn,
        binlog: BinlogTxn,
        hooks: &[Arc<dyn CommitHook>],
    ) -> Result<()> {
        if !self.group_commit {
            // Per-transaction Sync: one fsync and one hook round-trip each.
            redo.flush_to(lsn)?;
            let batch = [binlog];
            self.ship(redo, &batch, hooks)?;
            self.metrics.commit_batches.inc();
            self.metrics.commit_synced.inc();
            return Ok(());
        }

        let done = OsEvent::new();
        let my_err: Arc<Mutex<Option<Error>>> = Arc::new(Mutex::new(None));
        let is_leader = {
            let mut state = self.state.lock();
            state.queue.push(Pending {
                lsn,
                binlog,
                done: Arc::clone(&done),
                err: Arc::clone(&my_err),
            });
            !std::mem::replace(&mut state.leader_waiting, true)
        };

        if is_leader {
            self.lead_batch(redo, hooks);
        } else {
            // Follower: the waiting leader takes us into its batch.
            done.wait();
        }
        let err = my_err.lock().take();
        match err {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Carries one batch through both stages: waits out the previous
    /// batch's fsync, takes everything queued meanwhile, flushes it, ships it
    /// after the previous batch, and signals every member.
    fn lead_batch(&self, redo: &RedoLog, hooks: &[Arc<dyn CommitHook>]) {
        let flush_stage = self.flush_stage.lock();
        let batch: Vec<Pending> = {
            let mut state = self.state.lock();
            state.leader_waiting = false;
            std::mem::take(&mut state.queue)
        };
        let max_lsn = batch.iter().map(|p| p.lsn).max().unwrap_or_default();
        let flushed = redo.flush_to(max_lsn);
        // Enter the ship stage before leaving the flush stage: batches ship
        // in flush order, and the next batch's fsync overlaps this ship.
        let ship_stage = self.ship_stage.lock();
        drop(flush_stage);
        let shipped = flushed.and_then(|()| {
            let events: Vec<BinlogTxn> = batch.iter().map(|p| p.binlog.clone()).collect();
            self.ship(redo, &events, hooks)
        });
        drop(ship_stage);
        match shipped {
            Ok(()) => {
                self.metrics.commit_batches.inc();
                self.metrics.commit_synced.add(batch.len() as u64);
                for pending in batch {
                    pending.done.set();
                }
            }
            Err(err) => {
                // The batch failed to reach disk, or the binlog ship path
                // crashed after the flush: every member gets the error and
                // nothing counts as synced.  (In the post-flush case the
                // batch IS durable in redo — recovery replays it — but the
                // clients were never acknowledged, which is the crash window
                // the replication oracle covers.)  The next leader's flush
                // fails fast after a crash, so later batches are released
                // promptly rather than left hanging.
                for pending in batch {
                    *pending.err.lock() = Some(err.clone());
                    pending.done.set();
                }
            }
        }
    }

    /// The binlog ship stage: fires the `pre_binlog_ship` crash point (the
    /// batch is durable in redo, nothing was shipped yet) and hands the batch
    /// to every registered hook in order.  A hook error aborts the stage —
    /// the caller distributes it to the whole batch like a flush failure.
    fn ship(
        &self,
        redo: &RedoLog,
        events: &[BinlogTxn],
        hooks: &[Arc<dyn CommitHook>],
    ) -> Result<()> {
        redo.crash_point(CrashPoint::PreBinlogShip)?;
        for hook in hooks {
            hook.on_commit_batch(events)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::CollectingHook;
    use std::collections::{HashMap, HashSet};
    use std::thread::{self, JoinHandle, ThreadId};
    use std::time::{Duration, Instant};
    use txsql_common::{Row, TableId, TxnId};
    use txsql_storage::RedoRecord;

    fn binlog(txn: u64) -> BinlogTxn {
        BinlogTxn {
            txn: TxnId(txn),
            trx_no: txn,
            changes: vec![(TableId(1), 1, Row::from_ints(&[1, txn as i64]))],
            involves_hotspot: false,
        }
    }

    #[test]
    fn per_transaction_commit_pays_one_fsync_each() {
        let metrics = Arc::new(EngineMetrics::new());
        let pipeline = CommitPipeline::new(false, Arc::clone(&metrics));
        let redo = RedoLog::default();
        let hook = Arc::new(CollectingHook::new());
        let hooks: Vec<Arc<dyn CommitHook>> = vec![hook.clone()];
        for t in 1..=5u64 {
            let lsn = redo.append(RedoRecord::Commit {
                txn: TxnId(t),
                trx_no: t,
            });
            pipeline.commit(&redo, lsn, binlog(t), &hooks).unwrap();
        }
        assert_eq!(redo.fsync_count(), 5);
        assert_eq!(hook.batch_count(), 5);
        assert_eq!(metrics.commit_batches.get(), 5);
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let metrics = Arc::new(EngineMetrics::new());
        let pipeline = Arc::new(CommitPipeline::new(true, Arc::clone(&metrics)));
        let redo = Arc::new(RedoLog::new(Duration::from_millis(2)));
        let hook = Arc::new(CollectingHook::new());
        let hooks: Vec<Arc<dyn CommitHook>> = vec![hook.clone()];

        let n = 16;
        let mut handles = Vec::new();
        for t in 1..=n {
            let pipeline = Arc::clone(&pipeline);
            let redo = Arc::clone(&redo);
            let hooks = hooks.clone();
            handles.push(thread::spawn(move || {
                let lsn = redo.append(RedoRecord::Commit {
                    txn: TxnId(t),
                    trx_no: t,
                });
                pipeline.commit(&redo, lsn, binlog(t), &hooks).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every transaction was synced exactly once...
        assert_eq!(hook.events().len(), n as usize);
        assert_eq!(metrics.commit_synced.get(), n);
        // ...but with far fewer fsyncs than transactions (batching happened).
        assert!(
            redo.fsync_count() < n,
            "expected batched fsyncs, got {} for {} txns",
            redo.fsync_count(),
            n
        );
        assert!(redo.durable_lsn() >= redo.latest_lsn());
    }

    #[test]
    fn group_commit_with_single_transaction_still_completes() {
        let metrics = Arc::new(EngineMetrics::new());
        let pipeline = CommitPipeline::new(true, metrics);
        let redo = RedoLog::default();
        let lsn = redo.append(RedoRecord::Commit {
            txn: TxnId(1),
            trx_no: 1,
        });
        pipeline.commit(&redo, lsn, binlog(1), &[]).unwrap();
        assert_eq!(redo.durable_lsn(), lsn);
        assert!(pipeline.group_commit_enabled());
    }

    #[test]
    fn failed_group_flush_is_not_acknowledged_and_skips_hooks() {
        use txsql_storage::fault::{FaultInjector, FaultPlan};
        let metrics = Arc::new(EngineMetrics::new());
        let pipeline = CommitPipeline::new(true, Arc::clone(&metrics));
        let redo = RedoLog::with_faults(
            Duration::ZERO,
            FaultInjector::new(FaultPlan::none().with_persistent_fsync_failure()),
        );
        let hook = Arc::new(CollectingHook::new());
        let hooks: Vec<Arc<dyn CommitHook>> = vec![hook.clone()];
        let lsn = redo.append(RedoRecord::Commit {
            txn: TxnId(1),
            trx_no: 1,
        });
        let err = pipeline.commit(&redo, lsn, binlog(1), &hooks).unwrap_err();
        assert!(matches!(err, Error::ReadOnly { .. }));
        // No hook observed the batch, nothing counts as synced, nothing is
        // durable.
        assert_eq!(hook.batch_count(), 0);
        assert_eq!(metrics.commit_synced.get(), 0);
        assert_eq!(redo.durable_lsn(), Lsn(0));
    }

    /// One hook call as [`GatedHook`] saw it.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Enter(Vec<u64>),
        Exit(Vec<u64>),
    }

    /// A hook gate: `entered` fires when a batch holding the gated txn
    /// reaches the hook, which then blocks until the test sets `release`.
    #[derive(Clone)]
    struct Gate {
        entered: Arc<OsEvent>,
        release: Arc<OsEvent>,
    }

    /// Records every hook call and the thread that made it, blocks batches
    /// holding a gated txn, and fails batches holding a failing txn.
    #[derive(Default)]
    struct GatedHook {
        calls: Mutex<Vec<Call>>,
        shippers: Mutex<Vec<(Vec<u64>, ThreadId)>>,
        gates: Mutex<HashMap<u64, Gate>>,
        failing: Mutex<HashSet<u64>>,
    }

    impl GatedHook {
        fn gate(&self, txn: u64) -> Gate {
            let gate = Gate {
                entered: OsEvent::new(),
                release: OsEvent::new(),
            };
            self.gates.lock().insert(txn, gate.clone());
            gate
        }

        fn shipper_of(&self, txn: u64) -> ThreadId {
            self.shippers
                .lock()
                .iter()
                .find(|(txns, _)| txns.contains(&txn))
                .map(|(_, thread)| *thread)
                .expect("txn was never shipped")
        }
    }

    impl CommitHook for GatedHook {
        fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()> {
            let txns: Vec<u64> = batch.iter().map(|e| e.txn.0).collect();
            self.calls.lock().push(Call::Enter(txns.clone()));
            self.shippers
                .lock()
                .push((txns.clone(), thread::current().id()));
            let gate = {
                let gates = self.gates.lock();
                txns.iter().find_map(|t| gates.get(t).cloned())
            };
            if let Some(gate) = gate {
                gate.entered.set();
                gate.release.wait();
            }
            self.calls.lock().push(Call::Exit(txns.clone()));
            let failing = self.failing.lock();
            if txns.iter().any(|t| failing.contains(t)) {
                return Err(Error::Crashed {
                    point: CrashPoint::PreBinlogShip.name(),
                });
            }
            Ok(())
        }
    }

    struct Rig {
        pipeline: Arc<CommitPipeline>,
        redo: Arc<RedoLog>,
        hook: Arc<GatedHook>,
        metrics: Arc<EngineMetrics>,
    }

    impl Rig {
        fn new() -> Self {
            let metrics = Arc::new(EngineMetrics::new());
            Self {
                pipeline: Arc::new(CommitPipeline::new(true, Arc::clone(&metrics))),
                redo: Arc::new(RedoLog::default()),
                hook: Arc::new(GatedHook::default()),
                metrics,
            }
        }

        /// Appends txn's commit record on the calling thread (so LSNs follow
        /// call order) and commits it on a new thread.
        fn spawn_commit(&self, txn: u64) -> (Lsn, JoinHandle<Result<()>>) {
            let lsn = self.redo.append(RedoRecord::Commit {
                txn: TxnId(txn),
                trx_no: txn,
            });
            let pipeline = Arc::clone(&self.pipeline);
            let redo = Arc::clone(&self.redo);
            let hooks: Vec<Arc<dyn CommitHook>> = vec![self.hook.clone()];
            let handle = thread::spawn(move || pipeline.commit(&redo, lsn, binlog(txn), &hooks));
            (lsn, handle)
        }

        fn queued(&self) -> usize {
            self.pipeline.state.lock().queue.len()
        }
    }

    /// Spins until `ready` holds; false after a generous deadline.
    fn wait_until(ready: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            if Instant::now() > deadline {
                return false;
            }
            thread::yield_now();
        }
        true
    }

    #[test]
    fn leader_ships_only_its_own_batch() {
        let rig = Rig::new();
        let gate = rig.hook.gate(1);
        let (_, a) = rig.spawn_commit(1);
        gate.entered.wait();
        let (lsn_b, b) = rig.spawn_commit(2);
        // B is in the pipeline: flushed as its own batch's leader, or queued
        // behind a leader that is still shipping A.
        assert!(wait_until(
            || rig.redo.durable_lsn() >= lsn_b || rig.queued() > 0
        ));
        let b_thread = b.thread().id();
        gate.release.set();
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
        assert_eq!(
            rig.hook.shipper_of(2),
            b_thread,
            "B's batch must be shipped by B, not by A's leader"
        );
        assert_eq!(rig.metrics.commit_batches.get(), 2);
    }

    #[test]
    fn next_batch_flushes_while_previous_ships() {
        let rig = Rig::new();
        let gate = rig.hook.gate(1);
        let (_, a) = rig.spawn_commit(1);
        gate.entered.wait();
        let (lsn_b, b) = rig.spawn_commit(2);
        assert!(
            wait_until(|| rig.redo.durable_lsn() >= lsn_b),
            "B's fsync did not overlap A's ship"
        );
        assert_eq!(rig.redo.fsync_count(), 2);
        // B is durable but must not ship ahead of A.
        assert_eq!(*rig.hook.calls.lock(), vec![Call::Enter(vec![1])]);
        gate.release.set();
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
        assert_eq!(
            *rig.hook.calls.lock(),
            vec![
                Call::Enter(vec![1]),
                Call::Exit(vec![1]),
                Call::Enter(vec![2]),
                Call::Exit(vec![2]),
            ]
        );
    }

    #[test]
    fn batch_error_reaches_only_its_members() {
        let rig = Rig::new();
        rig.hook.failing.lock().insert(3);
        let gate = rig.hook.gate(1);
        // X ships (blocked), B waits for the ship stage, and C1 + C2 queue
        // as one batch behind B's flush.
        let (_, x) = rig.spawn_commit(1);
        gate.entered.wait();
        let (lsn_b, b) = rig.spawn_commit(2);
        assert!(wait_until(|| rig.redo.durable_lsn() >= lsn_b));
        let (_, c1) = rig.spawn_commit(3);
        assert!(wait_until(|| rig.queued() == 1));
        let (_, c2) = rig.spawn_commit(4);
        assert!(wait_until(|| rig.queued() == 2));
        gate.release.set();
        x.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
        assert!(matches!(c1.join().unwrap(), Err(Error::Crashed { .. })));
        assert!(matches!(c2.join().unwrap(), Err(Error::Crashed { .. })));
        let (_, d) = rig.spawn_commit(5);
        d.join().unwrap().unwrap();

        let entered: Vec<Vec<u64>> = rig
            .hook
            .calls
            .lock()
            .iter()
            .filter_map(|call| match call {
                Call::Enter(txns) => Some(txns.clone()),
                Call::Exit(_) => None,
            })
            .collect();
        assert_eq!(entered, vec![vec![1], vec![2], vec![3, 4], vec![5]]);
        assert_eq!(rig.metrics.commit_batches.get(), 3);
        assert_eq!(rig.metrics.commit_synced.get(), 3);
    }
}

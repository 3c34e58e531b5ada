//! The group-commit stage hand-off under schedule exploration (`txsql-sim`).
//!
//! `CommitPipeline` runs group commit as two stages: a batch leader holds the
//! flush stage while it fsyncs, enters the ship stage before leaving the
//! flush stage, and ships its batch to the commit hooks.  The hand-off
//! between leaders is exactly the kind of waiter machinery that hides a lost
//! follower, a doubly shipped batch or an overtaking ship behind timing.
//! Each seed runs sim threads committing through the production pipeline
//! with a recording hook whose replica round trip takes virtual time, and
//! checks:
//!
//! * **Durable and shipped before return** — `commit` returns `Ok` only
//!   after `durable_lsn` covers its LSN and the hook has seen its event.
//! * **Shipped exactly once** — every event reaches the hook once.
//! * **Flush order** — every batch is durable when it reaches the hook, and
//!   batches reach it in flush order.  A batch that fsyncs raises the
//!   durable horizon past every earlier flush, so in flush order each
//!   fsyncing batch raises the high-water LSN of the shipped stream: the
//!   number of raises must equal the fsync count.  A batch that overtook an
//!   earlier-flushed one would leave that one's raise uncounted.
//! * **No stalls** — the scheduler reports any schedule in which a thread
//!   waits forever.
//!
//! Seeds come from `TXSQL_SIM_SEEDS` (CI pins `0..200`).

use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use txsql_common::latency::simulate_delay;
use txsql_common::metrics::EngineMetrics;
use txsql_common::{Lsn, Result, TxnId};
use txsql_core::{BinlogTxn, CommitHook, CommitPipeline};
use txsql_storage::{RedoLog, RedoRecord};

const THREADS: u64 = 4;
const COMMITS_PER_THREAD: u64 = 3;

/// What the hook has seen: shipped txn ids, and the flush-order tallies.
#[derive(Default)]
struct Shipped {
    txns: Vec<u64>,
    batches: u64,
    /// Highest LSN shipped so far, and how often a batch raised it.
    high_water: Lsn,
    raises: u64,
    /// A batch reached the hook while a later batch had already fsynced.
    overlapped: bool,
    largest_batch: usize,
}

/// A replication stand-in: checks each batch is durable, records it, and
/// spends a replica round trip of virtual time.
struct RecordingHook {
    redo: Arc<RedoLog>,
    /// Commit LSN by txn id (txn ids are dense from 0).
    lsns: Arc<Mutex<Vec<Lsn>>>,
    shipped: Mutex<Shipped>,
}

impl CommitHook for RecordingHook {
    fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()> {
        let durable = self.redo.durable_lsn();
        let max_lsn = {
            let lsns = self.lsns.lock();
            batch.iter().map(|e| lsns[e.txn.0 as usize]).max().unwrap()
        };
        assert!(
            max_lsn <= durable,
            "batch shipped ahead of durable redo: {max_lsn:?} > {durable:?}"
        );
        {
            let mut shipped = self.shipped.lock();
            shipped.txns.extend(batch.iter().map(|e| e.txn.0));
            shipped.batches += 1;
            shipped.largest_batch = shipped.largest_batch.max(batch.len());
            if max_lsn > shipped.high_water {
                shipped.high_water = max_lsn;
                shipped.raises += 1;
            }
            if self.redo.fsync_count() > shipped.raises {
                shipped.overlapped = true;
            }
        }
        simulate_delay(Duration::from_micros(300));
        Ok(())
    }
}

fn binlog(txn: u64) -> BinlogTxn {
    BinlogTxn {
        txn: TxnId(txn),
        trx_no: txn,
        changes: Vec::new(),
        involves_hotspot: false,
    }
}

#[test]
fn sim_commit_pipeline_ships_each_batch_once_in_flush_order() {
    let seeds = txsql_sim::ci_seeds(200);
    let n_seeds = seeds.len();
    let total = (THREADS * COMMITS_PER_THREAD) as usize;
    let mut classes: HashSet<u64> = HashSet::new();
    let mut overlap_seeds = 0u64;
    let mut grouped_seeds = 0u64;

    for seed in seeds {
        let metrics = Arc::new(EngineMetrics::new());
        let pipeline = Arc::new(CommitPipeline::new(true, Arc::clone(&metrics)));
        let redo = Arc::new(RedoLog::new(Duration::from_micros(100)));
        let lsns = Arc::new(Mutex::new(vec![Lsn(0); total]));
        let hook = Arc::new(RecordingHook {
            redo: Arc::clone(&redo),
            lsns: Arc::clone(&lsns),
            shipped: Mutex::new(Shipped::default()),
        });

        let build_hook = Arc::clone(&hook);
        let report = txsql_sim::run_with_seed(seed, move |sim| {
            for worker in 0..THREADS {
                let pipeline = Arc::clone(&pipeline);
                let redo = Arc::clone(&redo);
                let lsns = Arc::clone(&lsns);
                let hook = Arc::clone(&build_hook);
                sim.spawn(format!("commit-{worker}"), move || {
                    let hooks: Vec<Arc<dyn CommitHook>> = vec![hook.clone()];
                    for i in 0..COMMITS_PER_THREAD {
                        let txn = worker * COMMITS_PER_THREAD + i;
                        let lsn = redo.append(RedoRecord::Commit {
                            txn: TxnId(txn),
                            trx_no: txn,
                        });
                        lsns.lock()[txn as usize] = lsn;
                        pipeline.commit(&redo, lsn, binlog(txn), &hooks).unwrap();
                        assert!(
                            redo.durable_lsn() >= lsn,
                            "txn {txn} returned before durable"
                        );
                        assert!(
                            hook.shipped.lock().txns.contains(&txn),
                            "txn {txn} returned before its event shipped"
                        );
                    }
                });
            }
        });
        if let Some(failure) = &report.failure {
            panic!(
                "seed {seed} failed: {failure}\nschedule: {:?}\nreproduce: txsql_sim::replay(&schedule, build)",
                report.schedule
            );
        }

        let shipped = hook.shipped.lock();
        let mut txns = shipped.txns.clone();
        txns.sort_unstable();
        assert_eq!(
            txns,
            (0..total as u64).collect::<Vec<_>>(),
            "seed {seed}: an event was lost or shipped twice"
        );
        assert_eq!(
            shipped.raises,
            hook.redo.fsync_count(),
            "seed {seed}: a batch shipped out of flush order"
        );
        assert_eq!(metrics.commit_synced.get(), total as u64);
        assert_eq!(metrics.commit_batches.get(), shipped.batches);

        classes.insert(report.coverage.schedule_class);
        if shipped.overlapped {
            overlap_seeds += 1;
        }
        if shipped.largest_batch > 1 {
            grouped_seeds += 1;
        }
    }

    println!(
        "sim-coverage: suite=sim_commit_pipeline runs={n_seeds} classes={} \
         overlap_seeds={overlap_seeds} grouped_seeds={grouped_seeds}",
        classes.len()
    );
    assert!(
        overlap_seeds > 0,
        "no explored schedule ({n_seeds} seeds) fsynced a batch while another shipped"
    );
    assert!(
        grouped_seeds > 0,
        "no explored schedule ({n_seeds} seeds) put two commits in one batch"
    );
}

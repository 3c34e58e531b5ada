//! One benchmark cell: a declarative spec and its measured outcome.

use crate::{measure_duration, warmup_duration};
use std::sync::Arc;
use std::time::Duration;
use txsql_common::latency::LatencyModel;
use txsql_common::metrics::{EngineMetrics, MetricsSnapshot};
use txsql_core::{ConfigDelta, Database, EngineConfig, Protocol};
use txsql_replication::{ReplFaultPlan, ReplicationHook, ReplicationMode, SyncState};
use txsql_workloads::{
    run_closed_loop, run_fixed_tps_report, BuiltWorkload, ClosedLoopOptions, FixedTpsOptions,
    SecondSample, WorkloadSpec,
};

/// One point of an experiment grid, as pure data.
///
/// `run` builds the [`Database`] from the protocol plus [`ConfigDelta`]s,
/// optionally registers a replication hook, runs the workload under the
/// driver the spec's workload family requires (closed-loop for SysBench /
/// FiT / TPC-C, fixed-TPS open loop for Hotspots), and tears everything
/// down.  Every named grid is a list of these.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Concurrency-control protocol under test.
    pub protocol: Protocol,
    /// Workload family and parameters.
    pub workload: WorkloadSpec,
    /// Client threads (closed loop) or worker-pool size (open loop).
    pub threads: usize,
    /// Configuration knobs applied on top of the protocol defaults.
    pub deltas: Vec<ConfigDelta>,
    /// Replication hook to register, if any (two replicas).
    pub replication: Option<ReplicationMode>,
    /// Replication fault plan injected into the hook (replication cells
    /// only) — e.g. a follower-tier stall that forces the semi-sync
    /// degrade → re-sync cycle under load.
    pub replication_fault: Option<ReplFaultPlan>,
    /// Latency model override (defaults to semi-sync timings when a
    /// replication mode is set, instant otherwise).
    pub latency: Option<LatencyModel>,
    /// Base RNG seed for the driver's worker streams.
    pub seed: u64,
}

impl CellSpec {
    /// A cell with default threads (8), no deltas, no replication, seed 42.
    pub fn new(protocol: Protocol, workload: WorkloadSpec) -> Self {
        Self {
            protocol,
            workload,
            threads: 8,
            deltas: Vec::new(),
            replication: None,
            replication_fault: None,
            latency: None,
            seed: 42,
        }
    }

    /// Sets the thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Adds a configuration delta.
    pub fn delta(mut self, delta: ConfigDelta) -> Self {
        self.deltas.push(delta);
        self
    }

    /// Enables the replication hook in `mode`.
    pub fn replication(mut self, mode: ReplicationMode) -> Self {
        self.replication = Some(mode);
        self
    }

    /// Injects a replication fault plan into the hook (requires a
    /// replication mode).
    pub fn replication_fault(mut self, plan: ReplFaultPlan) -> Self {
        self.replication_fault = Some(plan);
        self
    }

    /// Overrides the latency model.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = Some(model);
        self
    }

    /// Overrides the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A stable cell id:
    /// `workload/protocol/tN[/delta...][/lat=...][/repl-...][/rplfault-...]`.
    /// An overridden latency model is spelled out, so a cell that waits on
    /// a simulated fsync or replica round trip never shares an id with one
    /// that does not.
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}/{}/t{}",
            self.workload.label(),
            self.protocol.label().to_lowercase(),
            self.threads
        );
        for delta in &self.deltas {
            id.push('/');
            id.push_str(&delta.label());
        }
        if let Some(model) = &self.latency {
            id.push_str(&format!(
                "/lat=fsync{}us-net{}us",
                model.fsync.as_micros(),
                model.network_one_way.as_micros()
            ));
        }
        match self.replication {
            Some(ReplicationMode::Synchronous) => id.push_str("/repl-sync"),
            Some(ReplicationMode::Asynchronous) => id.push_str("/repl-async"),
            None => {}
        }
        if let Some(plan) = &self.replication_fault {
            id.push_str("/rplfault-");
            id.push_str(plan.label());
        }
        id
    }

    /// Runs the cell and returns its outcome.
    pub fn run(&self) -> CellOutcome {
        let mut config = EngineConfig::for_protocol(self.protocol).with_deltas(&self.deltas);
        let latency = self.latency.or(self
            .replication
            .map(|_| LatencyModel::semi_sync_replication()));
        if let Some(model) = latency {
            config = config.with_latency(model);
        }
        let db = Database::new(config);
        // The hook's counters land in a dedicated registry (not the engine's,
        // which the drivers reset at window boundaries), so the recorded
        // degrade/re-sync counts cover the whole cell.
        let repl_metrics = Arc::new(EngineMetrics::new());
        let hook = self.replication.map(|mode| {
            let hook = ReplicationHook::builder(mode, latency.expect("latency set above"), 2)
                .faults(self.replication_fault.clone().unwrap_or_default())
                .metrics(Arc::clone(&repl_metrics))
                .build();
            db.register_commit_hook(hook.clone());
            hook
        });

        let mut outcome = match self.workload.build() {
            BuiltWorkload::Closed(workload) => {
                let options = ClosedLoopOptions {
                    threads: self.threads,
                    duration: measure_duration(),
                    warmup: warmup_duration(),
                    seed: self.seed,
                    max_retries: 0,
                };
                let snapshot = run_closed_loop(&db, workload.as_ref(), &options);
                CellOutcome {
                    spec: self.clone(),
                    goodput_tps: snapshot.tps,
                    abort_rate_pct: snapshot.abort_ratio * 100.0,
                    p50_ms: snapshot.p50_latency_ms,
                    p95_ms: snapshot.p95_latency_ms,
                    p99_ms: snapshot.p99_latency_ms,
                    committed: snapshot.committed,
                    failed: snapshot.aborted,
                    snapshot: Some(snapshot),
                    seconds: None,
                    admission: None,
                    tpcc_consistent: None,
                    replication: None,
                }
            }
            BuiltWorkload::Open(trace) => {
                let options = FixedTpsOptions {
                    threads: self.threads,
                    seed: self.seed,
                    ..Default::default()
                };
                let report = run_fixed_tps_report(&db, &trace, &options);
                // Phase-resolved goodput: the first and last trace phases are
                // the calm shoulders, so "did the burst end in re-admission"
                // is `post / pre` staying near 1.0.
                let total = trace.total_seconds();
                let pre_end = trace.phases().first().map_or(0, |p| p.seconds);
                let post_start = total - trace.phases().last().map_or(0, |p| p.seconds);
                let admission = AdmissionSummary {
                    shed: report.total_shed(),
                    queued: report.total_queued(),
                    budget_exhausted: report.total_budget_exhausted(),
                    pre_burst_goodput_tps: report.goodput_tps_in(0..pre_end),
                    post_burst_goodput_tps: report.goodput_tps_in(post_start..total),
                };
                CellOutcome {
                    spec: self.clone(),
                    goodput_tps: report.goodput_tps(),
                    abort_rate_pct: report.failure_rate_pct(),
                    p50_ms: report.latencies.p50_millis(),
                    p95_ms: report.latencies.p95_millis(),
                    p99_ms: report.latencies.p99_millis(),
                    committed: report.total_committed(),
                    failed: report.total_failed(),
                    snapshot: None,
                    seconds: Some(report.samples),
                    admission: Some(admission),
                    tpcc_consistent: None,
                    replication: None,
                }
            }
        };

        if let Some(checker) = self.workload.tpcc_checker() {
            outcome.tpcc_consistent = Some(checker.consistency_check(&db));
        }
        if let Some(hook) = hook {
            // Let the replicas drain the retained binlog (an injected stall
            // or shed queue may have left them behind), then snapshot the
            // degrade/re-sync trajectory for the record.
            let caught_up = hook.wait_caught_up(hook.binlog_len(), Duration::from_secs(5));
            outcome.replication = Some(ReplicationStats {
                degraded_commits: repl_metrics.degraded_commits.get(),
                semi_sync_timeouts: repl_metrics.semi_sync_timeouts.get(),
                semi_sync_resyncs: repl_metrics.semi_sync_resyncs.get(),
                ship_queue_full: repl_metrics.ship_queue_full.get(),
                ship_retries: repl_metrics.ship_retries.get(),
                caught_up,
                resynced: hook.sync_state() == SyncState::SemiSync,
            });
            hook.shutdown();
        }
        db.shutdown();
        outcome
    }
}

/// The measured result of one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The spec that produced this outcome.
    pub spec: CellSpec,
    /// Committed (and, open-loop, within-deadline) transactions per second.
    pub goodput_tps: f64,
    /// Closed loop: engine abort ratio; open loop: failure rate.  Percent.
    pub abort_rate_pct: f64,
    /// Median end-to-end latency (ms).
    pub p50_ms: f64,
    /// 95th percentile end-to-end latency (ms).
    pub p95_ms: f64,
    /// 99th percentile end-to-end latency (ms).
    pub p99_ms: f64,
    /// Committed transactions in the measurement window.
    pub committed: u64,
    /// Aborted (closed loop) or failed/late (open loop) transactions.
    pub failed: u64,
    /// Full engine snapshot — closed-loop cells only (the open-loop driver
    /// resets engine metrics every second for its per-second panels).
    pub snapshot: Option<MetricsSnapshot>,
    /// Per-second samples — open-loop cells only.
    pub seconds: Option<Vec<SecondSample>>,
    /// Front-door admission summary — open-loop cells only (closed-loop
    /// cells carry the same counters inside their `snapshot`).
    pub admission: Option<AdmissionSummary>,
    /// TPC-C warehouse/district YTD consistency — TPC-C cells only.
    pub tpcc_consistent: Option<bool>,
    /// Semi-sync degrade/re-sync trajectory — replication cells only.
    pub replication: Option<ReplicationStats>,
}

/// Front-door admission activity over one open-loop cell, summed from the
/// per-second samples, plus goodput resolved to the trace's calm shoulders —
/// the "did the burst end in re-admission" evidence.
#[derive(Debug, Clone)]
pub struct AdmissionSummary {
    /// Transactions shed with `Error::Overloaded` over the whole run.
    pub shed: u64,
    /// Transactions that waited in a hot-key admission queue.
    pub queued: u64,
    /// Transactions whose retry budget ran out.
    pub budget_exhausted: u64,
    /// Goodput over the first (calm, pre-burst) trace phase.
    pub pre_burst_goodput_tps: f64,
    /// Goodput over the last (calm, post-burst) trace phase.
    pub post_burst_goodput_tps: f64,
}

/// What the replication hook went through over one cell: how often the
/// semi-sync pipeline degraded, whether it re-synced, and the load it shed.
#[derive(Debug, Clone)]
pub struct ReplicationStats {
    /// Commits shipped while the hook was (or went) degraded.
    pub degraded_commits: u64,
    /// Semi-sync ack waits that timed out (degrade transitions).
    pub semi_sync_timeouts: u64,
    /// Degraded → semi-sync recoveries.
    pub semi_sync_resyncs: u64,
    /// Batches shed because the bounded async queue was full.
    pub ship_queue_full: u64,
    /// Transient ship failures that were retried.
    pub ship_retries: u64,
    /// Whether the replicas caught up to the full binlog before teardown.
    pub caught_up: bool,
    /// Whether the hook ended the cell back in semi-sync state.
    pub resynced: bool,
}

impl CellOutcome {
    /// The cell id of the producing spec.
    pub fn id(&self) -> String {
        self.spec.id()
    }

    /// True when the cell's correctness check failed — today, TPC-C's
    /// warehouse-vs-district YTD consistency.  Such a cell is a failing
    /// run, not a number to record.
    pub fn violated(&self) -> bool {
        self.tpcc_consistent == Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_workloads::SysbenchVariant;

    #[test]
    fn cell_ids_encode_every_axis() {
        let spec = CellSpec::new(
            Protocol::GroupLockingTxsql,
            WorkloadSpec::Sysbench {
                variant: SysbenchVariant::HotspotUpdate,
                table_size: 1_000,
            },
        )
        .threads(32)
        .delta(ConfigDelta::BatchSize(64))
        .replication(ReplicationMode::Synchronous);
        assert_eq!(
            spec.id(),
            "sysbench-hotspot-update/txsql/t32/batch=64/repl-sync"
        );

        let faulted = spec.replication_fault(ReplFaultPlan::none().with_stall(
            None,
            1,
            std::time::Duration::from_millis(50),
        ));
        assert_eq!(
            faulted.id(),
            "sysbench-hotspot-update/txsql/t32/batch=64/repl-sync/rplfault-stall"
        );

        let plain = CellSpec::new(Protocol::Mysql2pl, WorkloadSpec::Tpcc { warehouses: 2 });
        assert_eq!(plain.id(), "tpcc-w2/mysql/t8");
        assert_eq!(
            plain.latency(LatencyModel::semi_sync_replication()).id(),
            "tpcc-w2/mysql/t8/lat=fsync100us-net1033us"
        );
    }

    #[test]
    fn builders_apply() {
        let spec = CellSpec::new(
            Protocol::Aria,
            WorkloadSpec::Fit {
                hot_accounts: 1,
                users: 100,
            },
        )
        .threads(0)
        .seed(9)
        .latency(LatencyModel::local_ssd());
        assert_eq!(spec.threads, 1, "thread count is clamped to >= 1");
        assert_eq!(spec.seed, 9);
        assert!(spec.latency.is_some());
    }
}

//! Named experiment grids.
//!
//! Every experiment `bench_workloads` can run is a [`GridSpec`] built by one
//! function of this module and selected by name through [`GRIDS`]: the
//! recorded [`paper_grid`], the CI [`smoke_grid`], and one grid per
//! reproduced figure of the paper (`fig02` … `fig13`).  The figure grids
//! state their thread lists as data; the paper's 80-core testbed runs
//! 8…1024 threads, these run the laptop-scale subset.

use super::cell::{CellOutcome, CellSpec};
use std::time::Duration;
use txsql_common::latency::LatencyModel;
use txsql_core::{ConfigDelta, Protocol};
use txsql_replication::{ReplFaultPlan, ReplicationMode};
use txsql_workloads::{SysbenchVariant, WorkloadSpec};

/// Builds a grid from its base seed.
pub type GridBuilder = fn(u64) -> GridSpec;

/// Every grid `bench_workloads --grid <name>` accepts, by name.
pub const GRIDS: &[(&str, GridBuilder)] = &[
    ("paper", paper_grid),
    ("smoke", smoke_grid),
    ("fig02", fig02_grid),
    ("fig06-fit", fig06_fit_grid),
    ("fig06-sysbench", fig06_sysbench_grid),
    ("fig07", fig07_grid),
    ("fig08", fig08_grid),
    ("fig09", fig09_grid),
    ("fig10", fig10_grid),
    ("fig11", fig11_grid),
    ("fig12", fig12_grid),
    ("fig13", fig13_grid),
];

/// Builds the grid called `name` with base seed `seed`, if there is one.
pub fn named_grid(name: &str, seed: u64) -> Option<GridSpec> {
    GRIDS
        .iter()
        .find(|(grid, _)| *grid == name)
        .map(|(_, build)| build(seed))
}

/// The thread ladder of the scalability and ablation figures.
const LADDER: [usize; 3] = [8, 32, 128];

/// The thread count of the figures that sweep something else at high
/// concurrency (Figs. 2b, 7, 10, 12 and 13).
const HIGH: usize = 128;

/// The injected follower-tier pause used by the `rplfault-stall` cells: both
/// replicas stop answering at their first delivery for 100 ms, long past the
/// default 10 ms ack timeout, so the semi-sync hook must degrade, keep
/// committing, and re-sync once the stall expires — all inside the cell's
/// measurement window.
fn stall_plan() -> ReplFaultPlan {
    ReplFaultPlan::none().with_stall(None, 1, Duration::from_millis(100))
}

/// A named list of cells.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Grid name, recorded in the block provenance.
    pub name: String,
    /// The cells, run in order.
    pub cells: Vec<CellSpec>,
}

impl GridSpec {
    fn new(name: &str, cells: Vec<CellSpec>) -> Self {
        Self {
            name: name.to_string(),
            cells,
        }
    }

    /// Runs every cell sequentially, invoking `progress` after each one.
    pub fn run(&self, mut progress: impl FnMut(&CellOutcome)) -> Vec<CellOutcome> {
        self.cells
            .iter()
            .map(|cell| {
                let outcome = cell.run();
                progress(&outcome);
                outcome
            })
            .collect()
    }
}

/// One cell per `threads × protocol` on `workload`, threads outermost.
fn ladder(
    protocols: &[Protocol],
    threads: &[usize],
    workload: WorkloadSpec,
    seed: u64,
) -> Vec<CellSpec> {
    threads
        .iter()
        .flat_map(|&t| {
            protocols
                .iter()
                .map(move |&p| CellSpec::new(p, workload).threads(t).seed(seed))
        })
        .collect()
}

/// The recorded grid: the paper's four compared systems on all four workload
/// families, two thread counts on the contended SysBench hotspot, semi-sync
/// replication toggled on FiT, and the Hotspots trace driven open-loop.
pub fn paper_grid(seed: u64) -> GridSpec {
    let sysbench = WorkloadSpec::Sysbench {
        variant: SysbenchVariant::HotspotUpdate,
        table_size: 100_000,
    };
    let fit = WorkloadSpec::Fit {
        hot_accounts: 1,
        users: 100_000,
    };
    let tpcc = WorkloadSpec::Tpcc { warehouses: 2 };
    let hotspots = WorkloadSpec::Hotspots {
        base_tps: 300,
        phase_seconds: 1,
    };

    let mut cells = Vec::new();
    for protocol in Protocol::SYSTEMS {
        for threads in [8usize, 64] {
            cells.push(
                CellSpec::new(protocol, sysbench)
                    .threads(threads)
                    .seed(seed),
            );
        }
        cells.push(CellSpec::new(protocol, fit).threads(64).seed(seed));
        cells.push(
            CellSpec::new(protocol, fit)
                .threads(64)
                .replication(ReplicationMode::Synchronous)
                .seed(seed),
        );
        cells.push(CellSpec::new(protocol, tpcc).threads(64).seed(seed));
        cells.push(CellSpec::new(protocol, hotspots).threads(16).seed(seed));
    }
    // Fault tolerance under the paper's replication setting: a follower-tier
    // stall mid-run must degrade semi-sync shipping and re-sync afterwards,
    // with goodput recovering rather than the primary wedging.
    cells.push(
        CellSpec::new(Protocol::GroupLockingTxsql, fit)
            .threads(64)
            .replication(ReplicationMode::Synchronous)
            .replication_fault(stall_plan())
            .seed(seed),
    );
    // Front-door admission control under a sharp hot-row overload: the same
    // burst with and without the hot-key queues, side by side.  The win to
    // look for is burst p99 and post-burst goodput recovery, with non-zero
    // `admission_shed` proving the queues actually fired.  The burst trace
    // declares its hot row up front (`HotspotsTrace::burst` promotes it in
    // setup), so the pair differs only in the admission front door —
    // organic promotion timing on a small box is not part of the
    // experiment.
    let burst = WorkloadSpec::HotspotBurst {
        base_tps: 300,
        phase_seconds: 2,
    };
    cells.push(
        CellSpec::new(Protocol::GroupLockingTxsql, burst)
            .threads(16)
            .seed(seed),
    );
    cells.push(
        CellSpec::new(Protocol::GroupLockingTxsql, burst)
            .threads(16)
            .delta(ConfigDelta::Admission(true))
            .delta(ConfigDelta::AdmissionDepth(4))
            .seed(seed),
    );
    // Per-warehouse Payment admission caps under high concurrency: the
    // warehouse YTD row is each warehouse's hot key, so the hot-key queues
    // act as per-warehouse Payment caps.  Compare the abort breakdown with
    // the plain tpcc/t64 cells above.
    cells.push(
        CellSpec::new(Protocol::GroupLockingTxsql, tpcc)
            .threads(64)
            .delta(ConfigDelta::Admission(true))
            .seed(seed),
    );
    GridSpec::new("paper", cells)
}

/// The CI grid: two protocols, small tables, one replication cell, one
/// short open-loop trace — fast enough for every push.
pub fn smoke_grid(seed: u64) -> GridSpec {
    let sysbench = WorkloadSpec::Sysbench {
        variant: SysbenchVariant::HotspotUpdate,
        table_size: 10_000,
    };
    let tpcc = WorkloadSpec::Tpcc { warehouses: 2 };

    let mut cells = Vec::new();
    for protocol in [Protocol::Mysql2pl, Protocol::GroupLockingTxsql] {
        cells.push(CellSpec::new(protocol, sysbench).threads(8).seed(seed));
        cells.push(CellSpec::new(protocol, tpcc).threads(8).seed(seed));
    }
    cells.push(
        CellSpec::new(
            Protocol::GroupLockingTxsql,
            WorkloadSpec::Fit {
                hot_accounts: 1,
                users: 10_000,
            },
        )
        .threads(8)
        .replication(ReplicationMode::Synchronous)
        .seed(seed),
    );
    cells.push(
        CellSpec::new(
            Protocol::GroupLockingTxsql,
            WorkloadSpec::Hotspots {
                base_tps: 50,
                phase_seconds: 1,
            },
        )
        .threads(4)
        .seed(seed),
    );
    // The degrade → re-sync smoke check: semi-sync with both replicas
    // stalled at the first delivery.
    cells.push(
        CellSpec::new(
            Protocol::GroupLockingTxsql,
            WorkloadSpec::Fit {
                hot_accounts: 1,
                users: 10_000,
            },
        )
        .threads(8)
        .replication(ReplicationMode::Synchronous)
        .replication_fault(stall_plan())
        .seed(seed),
    );
    // Admission-control smoke pair: the same sharp burst with and without
    // the hot-key queues.  The trace declares its hot row in setup, and
    // queue depth 2 under 8 bursty workers guarantees the admission cell
    // actually sheds (CI greps `admission_shed=` non-zero).
    let burst = WorkloadSpec::HotspotBurst {
        base_tps: 50,
        phase_seconds: 1,
    };
    cells.push(
        CellSpec::new(Protocol::GroupLockingTxsql, burst)
            .threads(8)
            .seed(seed),
    );
    cells.push(
        CellSpec::new(Protocol::GroupLockingTxsql, burst)
            .threads(8)
            .delta(ConfigDelta::Admission(true))
            .delta(ConfigDelta::AdmissionDepth(2))
            .seed(seed),
    );
    GridSpec::new("smoke", cells)
}

/// Figure 2 — the motivation.  (a) MySQL 2PL on the SysBench hotspot update
/// as concurrency grows: deadlock detection and queue maintenance make more
/// threads slower (read `deadlock_checks`).  (b) MySQL vs queue locking
/// (O2) vs group locking (TXSQL) as the transaction grows, under the
/// semi-sync commit latency but without a replication hook — queue
/// locking's benefit shrinks with length, group locking's does not.
pub fn fig02_grid(seed: u64) -> GridSpec {
    let mut cells = ladder(
        &[Protocol::Mysql2pl],
        &LADDER,
        WorkloadSpec::sysbench(SysbenchVariant::HotspotUpdate),
        seed,
    );
    for length in [1usize, 2, 4, 8, 16] {
        let workload = WorkloadSpec::sysbench(SysbenchVariant::HotspotReadWrite {
            writes: 1,
            reads: length - 1,
            skew: 0.7,
        });
        let protocols = [
            Protocol::Mysql2pl,
            Protocol::QueueLockingO2,
            Protocol::GroupLockingTxsql,
        ];
        cells.extend(
            ladder(&protocols, &[HIGH], workload, seed)
                .into_iter()
                .map(|cell| cell.latency(LatencyModel::semi_sync_replication())),
        );
    }
    GridSpec::new("fig02", cells)
}

/// Figure 6a–6d — the ablation on FiT: MySQL / O1 / O2 / TXSQL throughput,
/// the useful-work ratio (`utilization`), p95 latency with its lock-wait
/// share (`p95_lock_wait_ms`) and lock objects per query
/// (`locks_per_query`).
pub fn fig06_fit_grid(seed: u64) -> GridSpec {
    let cells = ladder(
        &Protocol::ABLATION,
        &LADDER,
        WorkloadSpec::fit_standard(),
        seed,
    );
    GridSpec::new("fig06-fit", cells)
}

/// Figure 6e–6h — the ablation on four SysBench variants: hotspot update,
/// hotspot scan, uniform update and uniform read-only.  In the uniform and
/// scan cases O2 and TXSQL must not beat O1, because the hotspot machinery
/// never engages.
pub fn fig06_sysbench_grid(seed: u64) -> GridSpec {
    let variants = [
        SysbenchVariant::HotspotUpdate,
        SysbenchVariant::HotspotScan { hot_rows: 10 },
        SysbenchVariant::UniformUpdate { length: 2 },
        SysbenchVariant::UniformReadOnly { length: 10 },
    ];
    let cells = variants
        .into_iter()
        .flat_map(|v| {
            ladder(
                &Protocol::ABLATION,
                &LADDER,
                WorkloadSpec::sysbench(v),
                seed,
            )
        })
        .collect();
    GridSpec::new("fig06-sysbench", cells)
}

/// Figure 7 — (a) the write ratio swept from 0 % to 75 % at transaction
/// length 20, and (b) the length swept from 2 to 16 at 50 % writes, for
/// the four ablation levels at high concurrency.
pub fn fig07_grid(seed: u64) -> GridSpec {
    let write_ratio = [0usize, 25, 50, 75].map(|pct| (20 * pct / 100, 20 - 20 * pct / 100));
    let length = [2usize, 4, 8, 16].map(|len| (len / 2, len - len / 2));
    let cells = write_ratio
        .into_iter()
        .chain(length)
        .flat_map(|(writes, reads)| {
            let variant = if writes == 0 {
                SysbenchVariant::UniformReadOnly { length: reads }
            } else {
                SysbenchVariant::HotspotReadWrite {
                    writes,
                    reads,
                    skew: 0.9,
                }
            };
            ladder(
                &Protocol::ABLATION,
                &[HIGH],
                WorkloadSpec::sysbench(variant),
                seed,
            )
        })
        .collect();
    GridSpec::new("fig07", cells)
}

/// Figure 8 — scalability on the SysBench hotspot update: MySQL / Aria /
/// Bamboo / TXSQL throughput and p95 latency as the thread count grows.
pub fn fig08_grid(seed: u64) -> GridSpec {
    let cells = ladder(
        &Protocol::SYSTEMS,
        &LADDER,
        WorkloadSpec::sysbench(SysbenchVariant::HotspotUpdate),
        seed,
    );
    GridSpec::new("fig08", cells)
}

/// Figure 9 — FiT under (a) semi-sync and (b) asynchronous replication to
/// two replicas, for the four compared systems.
pub fn fig09_grid(seed: u64) -> GridSpec {
    let cells = [ReplicationMode::Synchronous, ReplicationMode::Asynchronous]
        .into_iter()
        .flat_map(|mode| {
            ladder(
                &Protocol::SYSTEMS,
                &LADDER,
                WorkloadSpec::fit_standard(),
                seed,
            )
            .into_iter()
            .map(move |cell| cell.replication(mode))
        })
        .collect();
    GridSpec::new("fig09", cells)
}

/// Figure 10 — (left) injected aborts against the cascading-abort ratio
/// (`cascade_abort_ratio`) for TXSQL vs Bamboo; (right) Zipf skew against
/// throughput for the four compared systems.
pub fn fig10_grid(seed: u64) -> GridSpec {
    let mut cells = Vec::new();
    for inject_pct in [0.5, 1.0, 2.0, 3.0] {
        let workload = WorkloadSpec::SysbenchAbortInject {
            variant: SysbenchVariant::HotspotReadWrite {
                writes: 8,
                reads: 8,
                skew: 0.9,
            },
            table_size: 100_000,
            inject_pct,
        };
        let protocols = [Protocol::GroupLockingTxsql, Protocol::Bamboo];
        cells.extend(ladder(&protocols, &[HIGH], workload, seed));
    }
    for skew in [0.7, 0.8, 0.9, 0.95, 0.99] {
        let workload = WorkloadSpec::sysbench(SysbenchVariant::ZipfUpdate { skew });
        cells.extend(ladder(&Protocol::SYSTEMS, &[HIGH], workload, seed));
    }
    GridSpec::new("fig10", cells)
}

/// Figure 11 — the online fixed-TPS trace with hotspot bursts, under the
/// figure's three regions: queue locking only (before 23:55), group
/// locking at the default batch size, and group locking with the larger
/// batch (the 00:18 bump).  Each cell records per-second samples.
pub fn fig11_grid(seed: u64) -> GridSpec {
    let trace = WorkloadSpec::Hotspots {
        base_tps: 300,
        phase_seconds: 5,
    };
    let cells = vec![
        CellSpec::new(Protocol::QueueLockingO2, trace)
            .threads(16)
            .seed(seed),
        CellSpec::new(Protocol::GroupLockingTxsql, trace)
            .threads(16)
            .seed(seed),
        CellSpec::new(Protocol::GroupLockingTxsql, trace)
            .threads(16)
            .delta(ConfigDelta::BatchSize(64))
            .seed(seed),
    ];
    GridSpec::new("fig11", cells)
}

/// Figure 12 — TPC-C with the warehouse count swept down to 1: throughput
/// and mean latency (`mean_latency_ms`) for the four compared systems.
/// Fewer warehouses means more contention on the warehouse and district
/// rows; every cell carries the YTD consistency verdict.
pub fn fig12_grid(seed: u64) -> GridSpec {
    let cells = [4i64, 2, 1]
        .into_iter()
        .flat_map(|w| ladder(&Protocol::SYSTEMS, &[HIGH], WorkloadSpec::tpcc(w), seed))
        .collect();
    GridSpec::new("fig12", cells)
}

/// Figure 13 — (left) throughput against a fixed group batch size on FiT,
/// a hot read/write mix (HRW) and a hot update-only mix (HU) at two thread
/// counts; (right) group commit on and off under semi-sync and async
/// replication (`commit_batches`).  The §4.6.1 dynamic batch size is always
/// on, so every cell runs it.
pub fn fig13_grid(seed: u64) -> GridSpec {
    let hrw = WorkloadSpec::sysbench(SysbenchVariant::HotspotReadWrite {
        writes: 8,
        reads: 8,
        skew: 0.9,
    });
    let hu = WorkloadSpec::sysbench(SysbenchVariant::HotspotReadWrite {
        writes: 16,
        reads: 0,
        skew: 0.9,
    });
    let txsql = |workload, threads| {
        CellSpec::new(Protocol::GroupLockingTxsql, workload)
            .threads(threads)
            .seed(seed)
    };
    let mut cells = Vec::new();
    for batch in [1usize, 4, 16, 64, 256] {
        for threads in [HIGH, 32] {
            for workload in [WorkloadSpec::fit_standard(), hrw, hu] {
                cells.push(txsql(workload, threads).delta(ConfigDelta::BatchSize(batch)));
            }
        }
    }
    for mode in [ReplicationMode::Synchronous, ReplicationMode::Asynchronous] {
        for group_commit in [false, true] {
            cells.push(
                txsql(WorkloadSpec::fit_standard(), HIGH)
                    .delta(ConfigDelta::GroupCommit(group_commit))
                    .replication(mode),
            );
        }
    }
    GridSpec::new("fig13", cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn family(cell: &CellSpec) -> &'static str {
        match cell.workload {
            WorkloadSpec::Sysbench { .. } | WorkloadSpec::SysbenchAbortInject { .. } => "sysbench",
            WorkloadSpec::Fit { .. } => "fit",
            WorkloadSpec::Tpcc { .. } => "tpcc",
            WorkloadSpec::Hotspots { .. } => "hotspots",
            WorkloadSpec::HotspotBurst { .. } => "hotspot-burst",
        }
    }

    #[test]
    fn paper_grid_covers_the_acceptance_matrix() {
        let grid = paper_grid(42);
        let protocols: BTreeSet<String> = grid
            .cells
            .iter()
            .map(|c| c.protocol.label().to_string())
            .collect();
        assert!(protocols.len() >= 4, "need >= 4 protocols: {protocols:?}");
        let families: BTreeSet<&str> = grid.cells.iter().map(family).collect();
        assert_eq!(
            families,
            BTreeSet::from(["sysbench", "fit", "tpcc", "hotspots", "hotspot-burst"])
        );
        assert!(
            grid.cells.iter().any(|c| c.replication.is_some()),
            "replication must be toggled on at least one workload"
        );
        assert!(
            grid.cells.iter().any(|c| c.workload.is_open_loop()),
            "hotspots must run open-loop"
        );
    }

    #[test]
    fn every_named_grid_is_nonempty_with_unique_ids() {
        for (name, build) in GRIDS {
            let grid = build(42);
            assert_eq!(grid.name, *name, "grid `{name}` records another name");
            assert!(!grid.cells.is_empty(), "grid `{name}` is empty");
            let ids: BTreeSet<String> = grid.cells.iter().map(CellSpec::id).collect();
            assert_eq!(
                ids.len(),
                grid.cells.len(),
                "grid `{name}` has duplicate cell ids"
            );
            assert!(grid.cells.iter().all(|c| c.seed == 42));
        }
        assert!(named_grid("fig99", 42).is_none());
    }

    /// The `(protocol, threads)` pairs a grid covers.
    fn protocol_threads(grid: &GridSpec) -> BTreeSet<(&'static str, usize)> {
        grid.cells
            .iter()
            .map(|c| (c.protocol.label(), c.threads))
            .collect()
    }

    /// Every pair of `protocols × threads`.
    fn cross(protocols: &[Protocol], threads: &[usize]) -> BTreeSet<(&'static str, usize)> {
        protocols
            .iter()
            .flat_map(|p| threads.iter().map(move |&t| (p.label(), t)))
            .collect()
    }

    /// Pins a figure grid's cell count and its protocol × thread set.
    fn assert_shape(name: &str, cells: usize, pairs: BTreeSet<(&'static str, usize)>) {
        let grid = named_grid(name, 42).expect("figure grid is named");
        assert_eq!(grid.cells.len(), cells, "grid `{name}` cell count");
        assert_eq!(protocol_threads(&grid), pairs, "grid `{name}` coverage");
    }

    #[test]
    fn fig02_grid_keeps_both_panels() {
        let mut pairs = cross(&[Protocol::Mysql2pl], &LADDER);
        pairs.extend(cross(
            &[Protocol::QueueLockingO2, Protocol::GroupLockingTxsql],
            &[128],
        ));
        assert_shape("fig02", 3 + 5 * 3, pairs);
        let overridden: Vec<CellSpec> = fig02_grid(42)
            .cells
            .into_iter()
            .filter(|c| c.latency.is_some())
            .collect();
        assert_eq!(overridden.len(), 15, "panel (b) runs under commit latency");
        for cell in overridden {
            assert_eq!(cell.latency, Some(LatencyModel::semi_sync_replication()));
            assert_eq!(cell.replication, None, "panel (b) registers no hook");
            assert!(cell.id().contains("/lat="), "{}", cell.id());
        }
    }

    #[test]
    fn fig06_grids_sweep_the_ablation_ladder() {
        assert_shape("fig06-fit", 12, cross(&Protocol::ABLATION, &LADDER));
        assert_shape("fig06-sysbench", 48, cross(&Protocol::ABLATION, &LADDER));
    }

    #[test]
    fn fig07_grid_sweeps_write_ratio_and_length() {
        assert_shape("fig07", 8 * 4, cross(&Protocol::ABLATION, &[128]));
    }

    #[test]
    fn fig08_grid_sweeps_the_systems_ladder() {
        assert_shape("fig08", 12, cross(&Protocol::SYSTEMS, &LADDER));
    }

    #[test]
    fn fig09_grid_runs_both_replication_modes() {
        assert_shape("fig09", 24, cross(&Protocol::SYSTEMS, &LADDER));
        let grid = fig09_grid(42);
        for mode in [ReplicationMode::Synchronous, ReplicationMode::Asynchronous] {
            let n = grid
                .cells
                .iter()
                .filter(|c| c.replication == Some(mode))
                .count();
            assert_eq!(n, 12, "{mode:?}");
        }
    }

    #[test]
    fn fig10_grid_keeps_both_panels() {
        let mut pairs = cross(&Protocol::SYSTEMS, &[128]);
        pairs.extend(cross(
            &[Protocol::GroupLockingTxsql, Protocol::Bamboo],
            &[128],
        ));
        assert_shape("fig10", 4 * 2 + 5 * 4, pairs);
    }

    #[test]
    fn fig11_grid_runs_the_trace_three_ways() {
        assert_shape(
            "fig11",
            3,
            cross(
                &[Protocol::QueueLockingO2, Protocol::GroupLockingTxsql],
                &[16],
            ),
        );
        assert!(fig11_grid(42)
            .cells
            .iter()
            .all(|c| c.workload.is_open_loop()));
    }

    #[test]
    fn fig12_grid_sweeps_warehouses() {
        assert_shape("fig12", 3 * 4, cross(&Protocol::SYSTEMS, &[128]));
        assert!(fig12_grid(42)
            .cells
            .iter()
            .all(|c| c.workload.tpcc_checker().is_some()));
    }

    #[test]
    fn fig13_grid_keeps_both_panels() {
        assert_shape(
            "fig13",
            5 * 2 * 3 + 2 * 2,
            cross(&[Protocol::GroupLockingTxsql], &[32, 128]),
        );
        let replicated = fig13_grid(42)
            .cells
            .iter()
            .filter(|c| c.replication.is_some())
            .count();
        assert_eq!(replicated, 4, "group commit on/off under sync and async");
    }

    #[test]
    fn smoke_grid_is_small_and_still_representative() {
        let grid = smoke_grid(42);
        assert!(grid.cells.len() <= 10, "smoke grid must stay CI-fast");
        assert!(grid.cells.iter().any(|c| c.replication.is_some()));
        assert!(grid.cells.iter().any(|c| c.workload.is_open_loop()));
        assert!(grid
            .cells
            .iter()
            .any(|c| c.id() == "sysbench-hotspot-update/mysql/t8"));
        assert!(
            grid.cells
                .iter()
                .any(|c| c.replication.is_some() && c.replication_fault.is_some()),
            "the smoke grid must exercise the semi-sync degrade path"
        );
    }

    #[test]
    fn both_grids_carry_an_admission_burst_pair() {
        for grid in [paper_grid(42), smoke_grid(42)] {
            let bursts: Vec<&CellSpec> = grid
                .cells
                .iter()
                .filter(|c| matches!(c.workload, WorkloadSpec::HotspotBurst { .. }))
                .collect();
            assert!(
                bursts
                    .iter()
                    .any(|c| c.deltas.iter().all(|d| d.label() != "admission=true")),
                "grid `{}` lacks the no-admission burst baseline",
                grid.name
            );
            assert!(
                bursts
                    .iter()
                    .any(|c| c.deltas.iter().any(|d| d.label() == "admission=true")),
                "grid `{}` lacks the admission-enabled burst cell",
                grid.name
            );
        }
    }

    #[test]
    fn both_grids_carry_a_replica_stall_cell() {
        for grid in [paper_grid(42), smoke_grid(42)] {
            let stall = grid
                .cells
                .iter()
                .find(|c| c.id().ends_with("/rplfault-stall"))
                .unwrap_or_else(|| panic!("grid `{}` has no stall cell", grid.name));
            assert_eq!(stall.replication, Some(ReplicationMode::Synchronous));
            let plan = stall.replication_fault.as_ref().unwrap();
            assert!(
                plan.stall.is_some_and(|(target, _, _)| target.is_none()),
                "the stall must hit the whole follower tier so the ack quorum degrades"
            );
        }
    }
}

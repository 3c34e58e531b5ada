//! Figure 13 — effect of the group-locking batch size (left) and of group
//! commit under synchronous / asynchronous replication (right).
//!
//! The batch size caps follower grants per group; the dynamic batch size
//! (§4.6.1: a committing leader whose queue is empty releases the row
//! without nominating a successor) is always on, so every cell runs it.

use txsql_bench::harness::CellSpec;
use txsql_bench::{fmt, full_scale, print_table};
use txsql_core::{ConfigDelta, Protocol};
use txsql_replication::ReplicationMode;
use txsql_workloads::{SysbenchVariant, WorkloadSpec};

fn batch_cell(batch: usize, workload: WorkloadSpec, threads: usize) -> CellSpec {
    CellSpec::new(Protocol::GroupLockingTxsql, workload)
        .threads(threads)
        .delta(ConfigDelta::BatchSize(batch))
}

fn main() {
    let (high_threads, low_threads) = if full_scale() { (512, 32) } else { (128, 32) };
    let batch_sizes = [1usize, 4, 16, 64, 256];
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

    // Left: fixed batch size sweep for FIT / HRW / HU at two thread counts.
    let mut rows = Vec::new();
    for &batch in &batch_sizes {
        let mut row = vec![batch.to_string()];
        for &threads in &[high_threads, low_threads] {
            for workload in [WorkloadSpec::fit_standard(), hrw, hu] {
                let outcome = batch_cell(batch, workload, threads).run();
                row.push(fmt(outcome.goodput_tps));
            }
        }
        rows.push(row);
    }
    print_table(
        &format!(
            "Figure 13 (left): TPS vs fixed group batch size \
             (columns: FIT-{high_threads} HRW-{high_threads} HU-{high_threads} \
             FIT-{low_threads} HRW-{low_threads} HU-{low_threads})"
        ),
        &[
            "batch".into(),
            format!("FIT-{high_threads}"),
            format!("HRW-{high_threads}"),
            format!("HU-{high_threads}"),
            format!("FIT-{low_threads}"),
            format!("HRW-{low_threads}"),
            format!("HU-{low_threads}"),
        ],
        &rows,
    );

    // Right: group commit on/off under sync/async replication.
    let mut rows = Vec::new();
    for (mode_label, mode) in [
        ("sync", ReplicationMode::Synchronous),
        ("async", ReplicationMode::Asynchronous),
    ] {
        for group_commit in [false, true] {
            let outcome = CellSpec::new(Protocol::GroupLockingTxsql, WorkloadSpec::fit_standard())
                .threads(high_threads)
                .delta(ConfigDelta::GroupCommit(group_commit))
                .replication(mode)
                .run();
            rows.push(vec![
                mode_label.to_string(),
                if group_commit { "with GC" } else { "w/o GC" }.to_string(),
                fmt(outcome.goodput_tps),
                outcome.snapshot().commit_batches.to_string(),
            ]);
        }
    }
    print_table(
        &format!("Figure 13 (right): group commit under replication, FiT, threads={high_threads}"),
        &[
            "replication".into(),
            "group commit".into(),
            "tps".into(),
            "commit_batches".into(),
        ],
        &rows,
    );
}

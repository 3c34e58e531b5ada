//! §6.4.6 — failure recovery: run a hotspot-heavy FiT load, crash, restart
//! the engine through [`txsql_core::Database::restart_from_crash`], and
//! report the recovery duration, how many in-flight transactions were rolled
//! back, the group-commit fsync count of the run and whether committed data
//! survived intact in the restarted engine.

use std::time::Instant;
use txsql_bench::{closed_loop, fmt, print_table};
use txsql_core::{Database, EngineConfig, Protocol};
use txsql_workloads::{run_closed_loop, FitWorkload, Workload};

/// Client threads of the load that runs before the crash.
const THREADS: usize = 128;

fn main() {
    let mut rows = Vec::new();
    for protocol in [Protocol::Mysql2pl, Protocol::GroupLockingTxsql] {
        {
            let db = Database::new(EngineConfig::for_protocol(protocol));
            let workload = FitWorkload::standard();
            workload.setup(&db);
            db.checkpoint().unwrap();
            let snapshot = run_closed_loop(&db, &workload, &closed_loop(THREADS));
            // "Crash": only the durable prefix of the redo log survives.
            db.storage().redo().flush_all().unwrap();
            let fsyncs = db.storage().redo().fsync_count();
            let primary_record = db.record_id(txsql_workloads::fit::FIT_ACCOUNTS, 0).unwrap();
            let primary_balance = db
                .storage()
                .read_committed(txsql_workloads::fit::FIT_ACCOUNTS, primary_record)
                .unwrap()
                .unwrap()
                .get_int(1)
                .unwrap();
            let started = Instant::now();
            let (recovered, report) = db.restart_from_crash().unwrap();
            let recovery_time = started.elapsed();
            // Committed hot balance must be reproducible in the restarted
            // engine, and the engine must be fully working again.
            let recovered_record = recovered
                .record_id(txsql_workloads::fit::FIT_ACCOUNTS, 0)
                .unwrap();
            let recovered_balance = recovered
                .storage()
                .read_committed(txsql_workloads::fit::FIT_ACCOUNTS, recovered_record)
                .unwrap()
                .unwrap()
                .get_int(1)
                .unwrap();
            let mut probe = recovered.begin();
            recovered
                .update_add(&mut probe, txsql_workloads::fit::FIT_ACCOUNTS, 0, 1, 0)
                .unwrap();
            recovered.commit(probe).unwrap();
            rows.push(vec![
                protocol.label().to_string(),
                THREADS.to_string(),
                snapshot.committed.to_string(),
                report.replayed.to_string(),
                report.rolled_back.len().to_string(),
                fsyncs.to_string(),
                fmt(recovery_time.as_secs_f64() * 1_000.0),
                (primary_balance == recovered_balance).to_string(),
            ]);
            recovered.shutdown();
        }
    }
    print_table(
        "Failure recovery (§6.4.6): redo replay + ordered rollback of in-flight transactions",
        &[
            "protocol".into(),
            "threads".into(),
            "committed".into(),
            "redo_replayed".into(),
            "rolled_back".into(),
            "group_fsyncs".into(),
            "recovery_ms".into(),
            "state_matches".into(),
        ],
        &rows,
    );
}

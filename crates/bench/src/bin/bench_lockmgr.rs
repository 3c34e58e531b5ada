//! Focused lock-manager micro-benchmark backing `BENCH_lockmgr.json`.
//!
//! Measures, for both the vanilla [`LockSys`] and the lightweight
//! record-keyed table:
//!
//! * **uncontended acquire/release** — one thread, a rotating set of cold
//!   records, `lock_record` + `release_all` per iteration.  This is the path
//!   the decentralized-bookkeeping refactor targets: no global mutex, no
//!   `OsEvent` allocation — and, since the fast-path overhaul, no heap
//!   allocation (inline holders), no waiter deque, and no shared-atomic
//!   metrics (every cell drives the tables through a `MetricsScratch`, the
//!   engine's per-transaction shape, flushed once per cell).
//! * **hot-record throughput** — 4 threads hammering a single record with a
//!   short timeout, counting successful acquire+release cycles.
//! * **populated hot page** — one page pre-loaded with 512 granted locks on
//!   other heap_nos, then a single thread acquiring/releasing one further
//!   record on that page.  This isolates the cost a page-level lock table
//!   pays for page *population* even without any conflict: flat-vector
//!   layouts scan every request on the page, per-record queues do not.
//! * **two hot records, one page** — 4 threads in two pairs, each pair
//!   hammering its own heap_no on the same page.  Grant scans and conflict
//!   checks of one record must not pay for the other record's queue.
//! * **early-release batching** — one thread acquires a statement's worth of
//!   records (same page) and early-releases them either one
//!   `release_record_locks` call per record (the Bamboo write path) or one
//!   batched call for the whole statement.  Reports both ops/sec
//!   and release-path **shard-lock acquisitions per released record** (the
//!   `release_shard_locks` counter: page/row-shard takes plus registry-shard
//!   takes), which batching amortizes.
//! * **commit handover** — a group-locking leader commits N hot rows (same
//!   page): either the per-record prepare → release → handover sequence or
//!   the batched `begin_leader_commit` / one `release_record_locks` /
//!   `finish_leader_handover` path.  Reports hot records committed per
//!   second and group-table **entry-shard-lock takes per hot record** (the
//!   `handover_shard_locks` counter).
//! * **conflicting request** — a request against a held record with a
//!   50 µs wait timeout: `lock_sys` running deadlock detection vs the
//!   lightweight table's timeout-only policy.  Reports ns per request.
//! * **release-all bookkeeping** — `release_all` of one transaction holding
//!   8, 64 or 256 locks: the walk is bounded by the transaction's own
//!   registry shard, so it must scale with *its* lock count.
//! * **read-view creation** — the copying active-list view vs the copy-free
//!   view (§3.1.2) with 16, 256 or 4096 active transactions.
//! * **commit pipeline** — 8 concurrent committers over a 20 µs simulated
//!   fsync, per-transaction sync (Figure 5b) vs group commit (5c).
//! * **hot-row update** — one single-row `UpdateAdd` transaction on a hot
//!   row through the whole engine, per protocol with 1 client, and with 4
//!   clients for MySQL vs TXSQL.
//!
//! Output is one JSON object on stdout so runs can be recorded verbatim.
//! `TXSQL_BENCH_SECONDS` scales the per-cell measurement window.

use serde::Json;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txsql_bench::harness::render_json;
use txsql_common::metrics::{EngineMetrics, MetricsScratch};
use txsql_common::{RecordId, Row, TableId, TxnId};
use txsql_core::{
    BinlogTxn, CommitHook, CommitPipeline, Database, EngineConfig, Operation, Protocol, TxnProgram,
};
use txsql_lockmgr::group_lock::{GroupLockConfig, GroupLockTable, HotExecution};
use txsql_lockmgr::lightweight::{LightweightConfig, LightweightLockTable};
use txsql_lockmgr::lock_sys::{DeadlockPolicy, LockSys, LockSysConfig};
use txsql_lockmgr::modes::LockMode;
use txsql_storage::{RedoLog, RedoRecord, TableSchema};
use txsql_txn::{ReadViewMode, TrxSys};

/// One lock-table implementation under test.  The lock/release entry points
/// take the caller's `MetricsScratch` — the engine's per-transaction shape.
trait LockTable: Send + Sync {
    fn lock(&self, txn: TxnId, record: RecordId, mode: LockMode, scratch: &MetricsScratch) -> bool;
    fn release_all(&self, txn: TxnId, scratch: &MetricsScratch);
    fn release_batch(&self, txn: TxnId, records: &[RecordId], scratch: &MetricsScratch);
    fn metrics(&self) -> &EngineMetrics;
}

struct VanillaTable {
    sys: LockSys,
    metrics: Arc<EngineMetrics>,
}

impl LockTable for VanillaTable {
    fn lock(&self, txn: TxnId, record: RecordId, mode: LockMode, scratch: &MetricsScratch) -> bool {
        self.sys.lock_record_in(txn, record, mode, scratch).is_ok()
    }
    fn release_all(&self, txn: TxnId, scratch: &MetricsScratch) {
        self.sys.release_all_in(txn, scratch);
    }
    fn release_batch(&self, txn: TxnId, records: &[RecordId], scratch: &MetricsScratch) {
        self.sys.release_record_locks_in(txn, records, scratch);
    }
    fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }
}

struct LightTable {
    table: LightweightLockTable,
    metrics: Arc<EngineMetrics>,
}

impl LockTable for LightTable {
    fn lock(&self, txn: TxnId, record: RecordId, mode: LockMode, scratch: &MetricsScratch) -> bool {
        self.table
            .lock_record_in(txn, record, mode, scratch)
            .is_ok()
    }
    fn release_all(&self, txn: TxnId, scratch: &MetricsScratch) {
        self.table.release_all_in(txn, scratch);
    }
    fn release_batch(&self, txn: TxnId, records: &[RecordId], scratch: &MetricsScratch) {
        self.table.release_record_locks_in(txn, records, scratch);
    }
    fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }
}

fn vanilla(deadlock_policy: DeadlockPolicy, timeout: Duration) -> VanillaTable {
    let metrics = Arc::new(EngineMetrics::new());
    VanillaTable {
        sys: LockSys::new(
            LockSysConfig {
                deadlock_policy,
                lock_wait_timeout: timeout,
                ..LockSysConfig::default()
            },
            Arc::clone(&metrics),
        ),
        metrics,
    }
}

fn light(deadlock_policy: DeadlockPolicy, timeout: Duration) -> LightTable {
    let metrics = Arc::new(EngineMetrics::new());
    LightTable {
        table: LightweightLockTable::new(
            LightweightConfig {
                deadlock_policy,
                lock_wait_timeout: timeout,
                ..LightweightConfig::default()
            },
            Arc::clone(&metrics),
        ),
        metrics,
    }
}

/// Single-threaded cold-record acquire/release loop; returns
/// (ops/sec, locks_created per op).
fn bench_uncontended(table: &dyn LockTable, window: Duration) -> (f64, f64) {
    let scratch = MetricsScratch::new();
    // Warm up shard maps so steady-state cost is measured.
    for i in 0..4_096u64 {
        let txn = TxnId(i + 1);
        table.lock(txn, record_for(i), LockMode::Exclusive, &scratch);
        table.release_all(txn, &scratch);
    }
    scratch.flush(table.metrics());
    let created_before = table.metrics().locks_created.get();
    let start = Instant::now();
    let mut ops = 0u64;
    let mut next_txn = 1_000_000u64;
    while start.elapsed() < window {
        // Batch 256 iterations per clock check.
        for _ in 0..256 {
            next_txn += 1;
            let txn = TxnId(next_txn);
            table.lock(txn, record_for(next_txn), LockMode::Exclusive, &scratch);
            table.release_all(txn, &scratch);
            ops += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    scratch.flush(table.metrics());
    let created = (table.metrics().locks_created.get() - created_before) as f64;
    (ops as f64 / elapsed, created / ops as f64)
}

fn record_for(i: u64) -> RecordId {
    RecordId::new(1, (i % 64) as u32, (i % 1_024) as u16)
}

/// Multi-threaded single-record hammer; returns successful cycles/sec.
fn bench_hot(make: &dyn Fn() -> Box<dyn LockTable>, threads: usize, window: Duration) -> f64 {
    let table: Arc<Box<dyn LockTable>> = Arc::new(make());
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let hot = RecordId::new(7, 0, 0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            scope.spawn(move || {
                let scratch = MetricsScratch::new();
                let mut txn_no = (worker as u64 + 1) << 32;
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    txn_no += 1;
                    let txn = TxnId(txn_no);
                    if table.lock(txn, hot, LockMode::Exclusive, &scratch) {
                        ok += 1;
                    }
                    table.release_all(txn, &scratch);
                }
                scratch.flush(table.metrics());
                total.fetch_add(ok, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Single thread acquiring/releasing one record on a page pre-populated with
/// `population` granted locks on *other* heap_nos (one parked transaction
/// each).  Returns ops/sec: the page-population tax of the lock layout.
fn bench_hot_page_populated(table: &dyn LockTable, population: u16, window: Duration) -> f64 {
    let scratch = MetricsScratch::new();
    for heap in 0..population {
        let txn = TxnId(1 + heap as u64);
        assert!(
            table.lock(
                txn,
                RecordId::new(11, 0, heap),
                LockMode::Exclusive,
                &scratch
            ),
            "populating lock must not conflict"
        );
    }
    let target = RecordId::new(11, 0, population);
    let start = Instant::now();
    let mut ops = 0u64;
    let mut next_txn = 10_000_000u64;
    while start.elapsed() < window {
        // Batch 64 iterations per clock check.
        for _ in 0..64 {
            next_txn += 1;
            let txn = TxnId(next_txn);
            table.lock(txn, target, LockMode::Exclusive, &scratch);
            table.release_all(txn, &scratch);
            ops += 1;
        }
    }
    scratch.flush(table.metrics());
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Two hot records on one page, two threads per record: intra-record
/// contention with cross-record independence.  Returns successful
/// acquire+release cycles/sec across all threads.
fn bench_hot_page_two_records(make: &dyn Fn() -> Box<dyn LockTable>, window: Duration) -> f64 {
    let table: Arc<Box<dyn LockTable>> = Arc::new(make());
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            // Workers 0/1 share heap 0, workers 2/3 share heap 1.
            let record = RecordId::new(12, 0, (worker / 2) as u16);
            scope.spawn(move || {
                let scratch = MetricsScratch::new();
                let mut txn_no = (worker as u64 + 1) << 32;
                let mut ok = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    txn_no += 1;
                    let txn = TxnId(txn_no);
                    if table.lock(txn, record, LockMode::Exclusive, &scratch) {
                        ok += 1;
                    }
                    table.release_all(txn, &scratch);
                }
                scratch.flush(table.metrics());
                total.fetch_add(ok, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Statement-boundary early-release batching: one thread repeatedly acquires
/// a statement's worth of `batch` records (all on one page — the shape of a
/// multi-row update) and early-releases them, either one
/// `release_record_locks` call per record (`batched = false`, the Bamboo
/// write path) or one batched call at the statement boundary.
/// Returns (released locks/sec, release-path shard-lock acquisitions per
/// released lock).
fn bench_early_release(
    table: &dyn LockTable,
    batch: usize,
    batched: bool,
    window: Duration,
) -> (f64, f64) {
    let scratch = MetricsScratch::new();
    let records: Vec<RecordId> = (0..batch)
        .map(|heap| RecordId::new(21, 0, heap as u16))
        .collect();
    // Warm up shard maps.
    for warm in 0..1_024u64 {
        let txn = TxnId(warm + 1);
        for r in &records {
            table.lock(txn, *r, LockMode::Exclusive, &scratch);
        }
        table.release_batch(txn, &records, &scratch);
    }
    scratch.flush(table.metrics());
    let takes_before = table.metrics().release_shard_locks.get();
    let start = Instant::now();
    let mut released = 0u64;
    let mut next_txn = 50_000_000u64;
    while start.elapsed() < window {
        // Batch 64 statements per clock check.
        for _ in 0..64 {
            next_txn += 1;
            let txn = TxnId(next_txn);
            for r in &records {
                table.lock(txn, *r, LockMode::Exclusive, &scratch);
            }
            if batched {
                table.release_batch(txn, &records, &scratch);
            } else {
                for r in &records {
                    table.release_batch(txn, std::slice::from_ref(r), &scratch);
                }
            }
            released += batch as u64;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    scratch.flush(table.metrics());
    let takes = (table.metrics().release_shard_locks.get() - takes_before) as f64;
    (released as f64 / elapsed, takes / released as f64)
}

/// Commit-time hot-row handover: a group-locking leader repeatedly owns
/// `n_hot` hot rows (same page — the multi-row flash-sale shape) and commits
/// them, either through the per-record prepare → release-lock → handover
/// sequence (`batched = false`) or the batched
/// `begin_leader_commit` → one `release_record_locks` →
/// `finish_leader_handover` path.  Returns (hot records committed/sec,
/// group-table entry-shard-lock takes per hot record — the
/// `handover_shard_locks` counter).
fn bench_commit_handover(n_hot: usize, batched: bool, window: Duration) -> (f64, f64) {
    let metrics = Arc::new(EngineMetrics::new());
    let group = GroupLockTable::new(GroupLockConfig::default(), Arc::clone(&metrics));
    let table = LightweightLockTable::new(
        LightweightConfig {
            deadlock_policy: DeadlockPolicy::TimeoutOnly,
            lock_wait_timeout: Duration::from_millis(5),
            ..LightweightConfig::default()
        },
        Arc::clone(&metrics),
    );
    let scratch = MetricsScratch::new();
    let records: Vec<RecordId> = (0..n_hot)
        .map(|heap| RecordId::new(31, 0, heap as u16))
        .collect();
    let mut next_txn = 90_000_000u64;
    let run_cycle = |txn: TxnId| {
        // Execute phase: the leader updates each hot row (Algorithm 1).
        for r in &records {
            assert!(
                matches!(group.begin_hot_update(txn, *r), HotExecution::Leader),
                "single leader must own every hot row"
            );
            assert!(table
                .lock_record_in(txn, *r, LockMode::Exclusive, &scratch)
                .is_ok());
            group.register_update(txn, *r);
            group.finish_update(txn, *r, true);
        }
        // Commit phase (Algorithm 2, leader side).
        if batched {
            let prepared = group.begin_leader_commit(txn, &records);
            table.release_record_locks_in(txn, &records, &scratch);
            group.finish_leader_handover(txn, prepared);
        } else {
            for r in &records {
                group.begin_leader_commit(txn, std::slice::from_ref(r));
                table.release_record_locks_in(txn, std::slice::from_ref(r), &scratch);
                group.leader_handover(txn, *r);
            }
        }
        for r in &records {
            group.finish_commit(txn, *r);
        }
    };
    // Warm up the entry shards and lock-table shards.
    for _ in 0..1_024 {
        next_txn += 1;
        run_cycle(TxnId(next_txn));
    }
    let takes_before = metrics.handover_shard_locks.get();
    let start = Instant::now();
    let mut committed_records = 0u64;
    while start.elapsed() < window {
        // Batch 16 commits per clock check.
        for _ in 0..16 {
            next_txn += 1;
            run_cycle(TxnId(next_txn));
            committed_records += n_hot as u64;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    scratch.flush(&metrics);
    let takes = (metrics.handover_shard_locks.get() - takes_before) as f64;
    (
        committed_records as f64 / elapsed,
        takes / committed_records as f64,
    )
}

/// A conflicting request against a held record: each request runs against
/// a fresh table whose holder is set up outside the timed region, then
/// waits out the table's timeout (and, under `DeadlockPolicy::Detect`, the
/// detection scan first).  Returns ns per conflicting request.
fn bench_conflicting_request(make: &dyn Fn() -> Box<dyn LockTable>, window: Duration) -> f64 {
    let scratch = MetricsScratch::new();
    let record = RecordId::new(1, 0, 0);
    let mut timed = Duration::ZERO;
    let mut requests = 0u32;
    let start = Instant::now();
    while start.elapsed() < window {
        let table = make();
        table.lock(TxnId(1), record, LockMode::Exclusive, &scratch);
        let request = Instant::now();
        table.lock(TxnId(2), record, LockMode::Exclusive, &scratch);
        timed += request.elapsed();
        requests += 1;
    }
    timed.as_nanos() as f64 / f64::from(requests)
}

/// `release_all` of one transaction holding `n_locks` cold records, 128
/// per page; the acquisitions are not timed.  Returns ns per `release_all`.
fn bench_release_all(table: &dyn LockTable, n_locks: u64, window: Duration) -> f64 {
    let scratch = MetricsScratch::new();
    let mut timed = Duration::ZERO;
    let mut releases = 0u32;
    let mut next_txn = 70_000_000u64;
    let start = Instant::now();
    while start.elapsed() < window {
        next_txn += 1;
        let txn = TxnId(next_txn);
        for i in 0..n_locks {
            let record = RecordId::new(41, (i / 128) as u32, (i % 128) as u16);
            table.lock(txn, record, LockMode::Exclusive, &scratch);
        }
        let release = Instant::now();
        table.release_all(txn, &scratch);
        timed += release.elapsed();
        releases += 1;
    }
    scratch.flush(table.metrics());
    timed.as_nanos() as f64 / f64::from(releases)
}

/// Read-view creation in `mode` while `active` transactions are active.
/// Returns ns per view.
fn bench_read_view(active: usize, mode: ReadViewMode, window: Duration) -> f64 {
    let sys = TrxSys::new(ReadViewMode::CopyFree);
    let txns: Vec<_> = (0..active).map(|_| sys.begin()).collect();
    let owner = txns[0].id;
    let start = Instant::now();
    let mut views = 0u64;
    while start.elapsed() < window {
        // Batch 64 views per clock check.
        for _ in 0..64 {
            black_box(sys.read_view_in_mode(owner, mode));
        }
        views += 64;
    }
    start.elapsed().as_nanos() as f64 / views as f64
}

/// The commit pipeline under 8 concurrent committers, each appending a
/// commit record and running it through `CommitPipeline::commit` with a
/// 20 µs simulated fsync.  Returns commits/sec.
fn bench_commit_pipeline(group_commit: bool, window: Duration) -> f64 {
    let pipeline = CommitPipeline::new(group_commit, Arc::new(EngineMetrics::new()));
    let redo = RedoLog::new(Duration::from_micros(20));
    let hooks: Vec<Arc<dyn CommitHook>> = Vec::new();
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..8u64 {
            let (pipeline, redo, hooks, stop, total) = (&pipeline, &redo, &hooks, &stop, &total);
            scope.spawn(move || {
                let mut txn = worker << 32;
                while !stop.load(Ordering::Relaxed) {
                    txn += 1;
                    let lsn = redo.append(RedoRecord::Commit {
                        txn: TxnId(txn),
                        trx_no: txn,
                    });
                    let binlog = BinlogTxn {
                        txn: TxnId(txn),
                        trx_no: txn,
                        changes: vec![(TableId(1), 1, Row::from_ints(&[1, txn as i64]))],
                        involves_hotspot: true,
                    };
                    pipeline.commit(redo, lsn, binlog, hooks).unwrap();
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// `clients` closed-loop clients each running one-row `UpdateAdd`
/// transactions on pk 0 of a 1024-row table, through the whole engine
/// under `protocol` (hotspot threshold 2).  Returns committed txns/sec.
fn bench_hot_update(protocol: Protocol, clients: usize, window: Duration) -> f64 {
    const TABLE: TableId = TableId(77);
    let db = Database::new(EngineConfig::for_protocol(protocol).with_hotspot_threshold(2));
    db.create_table(TableSchema::new(TABLE, "bench", 2))
        .unwrap();
    for pk in 0..1_024 {
        db.load_row(TABLE, Row::from_ints(&[pk, 0])).unwrap();
    }
    let program = TxnProgram::new(vec![Operation::UpdateAdd {
        table: TABLE,
        pk: 0,
        column: 1,
        delta: 1,
    }]);
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (db, program, stop, total) = (&db, &program, &stop, &total);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if db.execute_program(program).is_ok() {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let rate = total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64();
    db.shutdown();
    rate
}

/// A JSON object from `(key, value)` pairs.
fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A measurement rounded to `decimals` places (integers for rates).
fn num(value: f64, decimals: i32) -> Json {
    if decimals == 0 {
        Json::U64(value.round() as u64)
    } else {
        let scale = 10f64.powi(decimals);
        Json::F64((value * scale).round() / scale)
    }
}

/// A `lock_sys` / `lightweight` pair of measurements.
fn pair(lock_sys: f64, lightweight: f64, decimals: i32) -> Json {
    obj([
        ("lock_sys", num(lock_sys, decimals)),
        ("lightweight", num(lightweight, decimals)),
    ])
}

fn main() {
    let window = std::env::var("TXSQL_BENCH_SECONDS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(Duration::from_secs_f64)
        .unwrap_or(Duration::from_millis(500));
    let timeout = Duration::from_millis(5);
    let make_vanilla =
        || Box::new(vanilla(DeadlockPolicy::TimeoutOnly, timeout)) as Box<dyn LockTable>;
    let make_light = || Box::new(light(DeadlockPolicy::TimeoutOnly, timeout)) as Box<dyn LockTable>;

    let (lock_sys_uncontended, lock_sys_objects_per_op) =
        bench_uncontended(&*make_vanilla(), window);
    let (lightweight_uncontended, lightweight_objects_per_op) =
        bench_uncontended(&*make_light(), window);
    let lock_sys_hot = bench_hot(&make_vanilla, 4, window);
    let lightweight_hot = bench_hot(&make_light, 4, window);
    let lock_sys_populated = bench_hot_page_populated(&*make_vanilla(), 512, window);
    let lightweight_populated = bench_hot_page_populated(&*make_light(), 512, window);
    let lock_sys_two_records = bench_hot_page_two_records(&make_vanilla, window);
    let lightweight_two_records = bench_hot_page_two_records(&make_light, window);

    const EARLY_RELEASE_BATCH: usize = 4;
    let early_release = |make: &dyn Fn() -> Box<dyn LockTable>| {
        let (unbatched, unbatched_takes) =
            bench_early_release(&*make(), EARLY_RELEASE_BATCH, false, window);
        let (batched, batched_takes) =
            bench_early_release(&*make(), EARLY_RELEASE_BATCH, true, window);
        obj([
            ("unbatched_locks_per_sec", num(unbatched, 0)),
            ("batched_locks_per_sec", num(batched, 0)),
            (
                "unbatched_shard_lock_takes_per_lock",
                num(unbatched_takes, 3),
            ),
            ("batched_shard_lock_takes_per_lock", num(batched_takes, 3)),
        ])
    };
    let early_release = obj([
        ("lock_sys", early_release(&make_vanilla)),
        ("lightweight", early_release(&make_light)),
    ]);

    const HANDOVER_HOT_ROWS: usize = 4;
    let (ho_unbatched, ho_unbatched_takes) =
        bench_commit_handover(HANDOVER_HOT_ROWS, false, window);
    let (ho_batched, ho_batched_takes) = bench_commit_handover(HANDOVER_HOT_ROWS, true, window);
    let handover = obj([
        ("unbatched_hot_records_per_sec", num(ho_unbatched, 0)),
        ("batched_hot_records_per_sec", num(ho_batched, 0)),
        (
            "unbatched_handover_shard_lock_takes_per_record",
            num(ho_unbatched_takes, 3),
        ),
        (
            "batched_handover_shard_lock_takes_per_record",
            num(ho_batched_takes, 3),
        ),
    ]);

    let conflict_timeout = Duration::from_micros(50);
    let detect = bench_conflicting_request(
        &|| Box::new(vanilla(DeadlockPolicy::Detect, conflict_timeout)),
        window,
    );
    let timeout_only = bench_conflicting_request(
        &|| Box::new(light(DeadlockPolicy::TimeoutOnly, conflict_timeout)),
        window,
    );
    let conflicting_request = obj([
        ("lock_sys_deadlock_detect", num(detect, 0)),
        ("lightweight_timeout_only", num(timeout_only, 0)),
    ]);
    let release_all = obj([8u64, 64, 256].map(|n| {
        let ns = bench_release_all(&*make_light(), n, window);
        (format!("{n}_locks"), num(ns, 1))
    }));
    let read_view = obj([
        ("copying", ReadViewMode::Copying),
        ("copy_free", ReadViewMode::CopyFree),
    ]
    .map(|(label, mode)| {
        let by_active = [16usize, 256, 4096].map(|active| {
            let ns = bench_read_view(active, mode, window);
            (format!("{active}_active"), num(ns, 1))
        });
        (label, obj(by_active))
    }));
    let commit_pipeline = obj([
        ("per_txn_sync", num(bench_commit_pipeline(false, window), 0)),
        ("group_commit", num(bench_commit_pipeline(true, window), 0)),
    ]);
    let hot_update = |protocols: &[Protocol], clients: usize| {
        obj(protocols.iter().map(|&protocol| {
            let rate = bench_hot_update(protocol, clients, window);
            (protocol.label(), num(rate, 0))
        }))
    };
    let hot_update_1_client = hot_update(
        &[
            Protocol::Mysql2pl,
            Protocol::LightweightO1,
            Protocol::QueueLockingO2,
            Protocol::GroupLockingTxsql,
            Protocol::Bamboo,
        ],
        1,
    );
    let hot_update_4_clients = hot_update(&[Protocol::Mysql2pl, Protocol::GroupLockingTxsql], 4);

    let early_release_key = format!("early_release_batch_{EARLY_RELEASE_BATCH}_same_page");
    let handover_key = format!("commit_handover_{HANDOVER_HOT_ROWS}_hot_rows_same_page");
    let report = obj([
        ("window_secs", Json::F64(window.as_secs_f64())),
        (
            "uncontended_acquire_release_ops_per_sec",
            pair(lock_sys_uncontended, lightweight_uncontended, 0),
        ),
        (
            "lock_objects_created_per_uncontended_op",
            pair(lock_sys_objects_per_op, lightweight_objects_per_op, 3),
        ),
        (
            "hot_record_4_threads_cycles_per_sec",
            pair(lock_sys_hot, lightweight_hot, 0),
        ),
        (
            "hot_page_populated_512_ops_per_sec",
            pair(lock_sys_populated, lightweight_populated, 0),
        ),
        (
            "hot_page_two_records_4_threads_cycles_per_sec",
            pair(lock_sys_two_records, lightweight_two_records, 0),
        ),
        (early_release_key.as_str(), early_release),
        (handover_key.as_str(), handover),
        ("conflicting_request_50us_timeout_ns", conflicting_request),
        ("release_all_ns", release_all),
        ("read_view_creation_ns", read_view),
        (
            "commit_pipeline_8_committers_commits_per_sec",
            commit_pipeline,
        ),
        ("hot_update_1_client_txns_per_sec", hot_update_1_client),
        ("hot_update_4_clients_txns_per_sec", hot_update_4_clients),
    ]);
    println!("{}", render_json(&report));
}

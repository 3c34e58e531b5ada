//! Lock-free metrics used to reproduce the paper's measurements.
//!
//! The evaluation section reports, per protocol and configuration:
//! throughput (TPS), 95th-percentile latency, the *lock-wait share* of that
//! latency (Figure 6c), the number of locks created per query (Figure 6d),
//! CPU utilisation (Figure 6b — we report a useful-work ratio instead, see
//! "Fidelity substitutions" in `ARCHITECTURE.md`), abort and cascading-abort ratios (Figure 10) and failure
//! rate over time (Figure 11).  [`EngineMetrics`] collects all of those with
//! relaxed atomics so that metrics collection itself does not become a point
//! of contention.  The counts that fire on every statement or lock cycle
//! first accumulate in the transaction's [`MetricsScratch`] through
//! [`MetricsSink`], and reach the shared atomics once per transaction.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A relaxed atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A sampled gauge: mirrors the current size of a live structure (e.g.
/// lock-registry entries), written by `set` from the structure's own
/// (sharded) counts rather than maintained with hot-path arithmetic.
/// Unlike [`Counter`] it is *not* reset between measurement windows — it
/// reflects live state, not per-window traffic.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value with a freshly sampled one.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: sub-microsecond to ~8.9 minutes in
/// power-of-two steps, which is plenty for transaction latencies.
const BUCKETS: usize = 40;

/// A log2-bucketed latency histogram supporting approximate percentiles.
///
/// Recording is a single relaxed `fetch_add`, so worker threads can record
/// every transaction without measurable overhead.  Percentile resolution is
/// one power of two, refined by linear interpolation inside the bucket, which
/// is accurate enough to reproduce the paper's p95 curves.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for LatencyHistogram {
    /// Snapshots the atomics (relaxed, so a clone taken while writers are
    /// active is a consistent-enough point-in-time copy for reporting).
    fn clone(&self) -> Self {
        let copy = Self::new();
        for (dst, src) in copy.buckets.iter().zip(self.buckets.iter()) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        copy.count
            .store(self.count.load(Ordering::Relaxed), Ordering::Relaxed);
        copy.sum_micros
            .store(self.sum_micros.load(Ordering::Relaxed), Ordering::Relaxed);
        copy.max_micros
            .store(self.max_micros.load(Ordering::Relaxed), Ordering::Relaxed);
        copy
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_for(micros: u64) -> usize {
        // Bucket 0 holds only 0 µs; bucket i ≥ 1 holds [2^(i-1), 2^i) µs, and
        // the last bucket also takes everything larger (the bounds
        // `percentile_micros` interpolates within).
        (64 - micros.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one latency observation.
    #[inline]
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.record_micros(micros);
    }

    /// Records a latency expressed in microseconds.
    #[inline]
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_for(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 if empty).
    pub fn mean_micros(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_micros.load(Ordering::Relaxed) as f64 / count as f64
        }
    }

    /// Maximum observed latency in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros.load(Ordering::Relaxed)
    }

    /// Approximate percentile (`q` in `[0,1]`) in microseconds.
    pub fn percentile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = 1u64 << i;
                let within = (target - seen) as f64 / in_bucket as f64;
                return lo + ((hi - lo) as f64 * within) as u64;
            }
            seen += in_bucket;
        }
        self.max_micros()
    }

    /// Arbitrary percentile in milliseconds.
    pub fn percentile_millis(&self, q: f64) -> f64 {
        self.percentile_micros(q) as f64 / 1_000.0
    }

    /// Median latency in milliseconds.
    pub fn p50_millis(&self) -> f64 {
        self.percentile_millis(0.50)
    }

    /// 95th percentile latency in milliseconds — the unit the paper plots.
    pub fn p95_millis(&self) -> f64 {
        self.percentile_millis(0.95)
    }

    /// 99th percentile latency in milliseconds (tail the workload grid records).
    pub fn p99_millis(&self) -> f64 {
        self.percentile_millis(0.99)
    }

    /// Resets all buckets.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_micros.store(0, Ordering::Relaxed);
        self.max_micros.store(0, Ordering::Relaxed);
    }

    /// Merges another histogram into this one (used when each worker keeps a
    /// thread-local histogram).
    pub fn merge(&self, other: &LatencyHistogram) {
        for (i, b) in other.buckets.iter().enumerate() {
            self.buckets[i].fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum_micros
            .fetch_add(other.sum_micros.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_micros
            .fetch_max(other.max_micros(), Ordering::Relaxed);
    }
}

/// Where the counts that fire on every statement or lock cycle go.
///
/// Recorded straight into [`EngineMetrics`], each of these counts is a
/// relaxed atomic RMW on a counter every session shares: one per statement
/// (`queries`), 2+ per uncontended lock acquire/release cycle and 4 more
/// per grant-scan histogram record.  The statement path and the lock
/// tables write through this trait instead.  The engine hands them the
/// transaction's [`MetricsScratch`]: plain `Cell` arithmetic, flushed to
/// the shared counters once, when the transaction drops.  Stand-alone
/// callers pass [`EngineMetrics`] itself, which implements the trait by
/// doing the atomic increment immediately.
///
/// Only the counters that fire on *every* statement or cycle are routed
/// this way; the wait/deadlock/latency paths are already rare enough that
/// they record into [`EngineMetrics`] directly.
pub trait MetricsSink {
    /// One statement was executed (Figure 6d denominator).
    fn on_query(&self);
    /// One lock object was created (Figure 6d numerator).
    fn on_lock_created(&self);
    /// `n` record locks were released.
    fn on_locks_released(&self, n: u64);
    /// One release-path shard mutex acquisition (lock table or registry).
    fn on_release_shard_lock(&self);
    /// One grant scan examined `len` requests.
    fn on_grant_scan(&self, len: u64);
}

impl MetricsSink for EngineMetrics {
    #[inline]
    fn on_query(&self) {
        self.queries.inc();
    }
    #[inline]
    fn on_lock_created(&self) {
        self.locks_created.inc();
    }
    #[inline]
    fn on_locks_released(&self, n: u64) {
        self.locks_released.add(n);
    }
    #[inline]
    fn on_release_shard_lock(&self) {
        self.release_shard_locks.inc();
    }
    #[inline]
    fn on_grant_scan(&self, len: u64) {
        self.grant_scan_len.record_micros(len);
    }
}

/// A single-owner (per-transaction or per-bench-thread) scratch pad for the
/// per-statement and hot-path lock counters.
///
/// All fields are `Cell`s: recording is plain integer arithmetic with no
/// atomics and no sharing.  [`MetricsScratch::flush`] drains the accumulated
/// counts into an [`EngineMetrics`] with one batch of atomic operations —
/// the owner calls it at a statement boundary or commit (the engine's
/// `TxnMetrics` wrapper additionally flushes on drop so abort paths cannot
/// lose counts).  Grant-scan lengths keep full histogram fidelity: the
/// scratch accumulates per-bucket counts and the flush merges them bucket by
/// bucket.
#[derive(Debug)]
pub struct MetricsScratch {
    queries: Cell<u64>,
    locks_created: Cell<u64>,
    locks_released: Cell<u64>,
    release_shard_locks: Cell<u64>,
    grant_scan_buckets: [Cell<u64>; BUCKETS],
    grant_scan_count: Cell<u64>,
    grant_scan_sum: Cell<u64>,
    grant_scan_max: Cell<u64>,
}

impl Default for MetricsScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsScratch {
    /// Creates an empty scratch pad.
    pub fn new() -> Self {
        Self {
            queries: Cell::new(0),
            locks_created: Cell::new(0),
            locks_released: Cell::new(0),
            release_shard_locks: Cell::new(0),
            grant_scan_buckets: std::array::from_fn(|_| Cell::new(0)),
            grant_scan_count: Cell::new(0),
            grant_scan_sum: Cell::new(0),
            grant_scan_max: Cell::new(0),
        }
    }

    /// True when nothing has been recorded since the last flush.
    pub fn is_empty(&self) -> bool {
        self.queries.get() == 0
            && self.locks_created.get() == 0
            && self.locks_released.get() == 0
            && self.release_shard_locks.get() == 0
            && self.grant_scan_count.get() == 0
    }

    /// Locks created recorded since the last flush (test observability).
    pub fn pending_locks_created(&self) -> u64 {
        self.locks_created.get()
    }

    /// Locks released recorded since the last flush (test observability).
    pub fn pending_locks_released(&self) -> u64 {
        self.locks_released.get()
    }

    /// Release-path shard acquisitions since the last flush.
    pub fn pending_release_shard_locks(&self) -> u64 {
        self.release_shard_locks.get()
    }

    /// Drains every accumulated count into `metrics`, leaving the scratch
    /// empty.  One atomic operation per non-zero counter/bucket.
    pub fn flush(&self, metrics: &EngineMetrics) {
        let queries = self.queries.take();
        if queries > 0 {
            metrics.queries.add(queries);
        }
        let created = self.locks_created.take();
        if created > 0 {
            metrics.locks_created.add(created);
        }
        let released = self.locks_released.take();
        if released > 0 {
            metrics.locks_released.add(released);
        }
        let shard = self.release_shard_locks.take();
        if shard > 0 {
            metrics.release_shard_locks.add(shard);
        }
        if self.grant_scan_count.take() > 0 {
            for (i, bucket) in self.grant_scan_buckets.iter().enumerate() {
                let n = bucket.take();
                if n > 0 {
                    metrics.grant_scan_len.buckets[i].fetch_add(n, Ordering::Relaxed);
                    metrics.grant_scan_len.count.fetch_add(n, Ordering::Relaxed);
                }
            }
            metrics
                .grant_scan_len
                .sum_micros
                .fetch_add(self.grant_scan_sum.take(), Ordering::Relaxed);
            metrics
                .grant_scan_len
                .max_micros
                .fetch_max(self.grant_scan_max.take(), Ordering::Relaxed);
        }
    }
}

impl MetricsSink for MetricsScratch {
    #[inline]
    fn on_query(&self) {
        self.queries.set(self.queries.get() + 1);
    }
    #[inline]
    fn on_lock_created(&self) {
        self.locks_created.set(self.locks_created.get() + 1);
    }
    #[inline]
    fn on_locks_released(&self, n: u64) {
        self.locks_released.set(self.locks_released.get() + n);
    }
    #[inline]
    fn on_release_shard_lock(&self) {
        self.release_shard_locks
            .set(self.release_shard_locks.get() + 1);
    }
    #[inline]
    fn on_grant_scan(&self, len: u64) {
        let bucket = &self.grant_scan_buckets[LatencyHistogram::bucket_for(len)];
        bucket.set(bucket.get() + 1);
        self.grant_scan_count.set(self.grant_scan_count.get() + 1);
        self.grant_scan_sum.set(self.grant_scan_sum.get() + len);
        self.grant_scan_max.set(self.grant_scan_max.get().max(len));
    }
}

/// Labelled abort counters, keyed by [`crate::error::Error::label`].
#[derive(Debug, Default)]
pub struct AbortCounters {
    inner: Mutex<Vec<(&'static str, u64)>>,
}

impl AbortCounters {
    /// Records one abort with the given label.
    pub fn record(&self, label: &'static str) {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.iter_mut().find(|(l, _)| *l == label) {
            entry.1 += 1;
        } else {
            inner.push((label, 1));
        }
    }

    /// Snapshot of `(label, count)` pairs.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.inner.lock().clone()
    }

    /// Total aborts across all labels.
    pub fn total(&self) -> u64 {
        self.inner.lock().iter().map(|(_, c)| *c).sum()
    }

    /// Count for a specific label.
    pub fn get(&self, label: &str) -> u64 {
        self.inner
            .lock()
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Clears all counters.
    pub fn reset(&self) {
        self.inner.lock().clear();
    }
}

/// Structured abort-reason breakdown for one measurement window.
///
/// The raw [`AbortCounters`] list is keyed by `Error::label` strings; this
/// struct folds those labels into the classes the paper's contention analysis
/// distinguishes (deadlock vs wait-timeout vs Aria conflict vs cascade), plus
/// the driver-side retry count, so every recorded benchmark cell states *why*
/// its aborted share aborted without string matching at read time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AbortBreakdown {
    /// Wait-for-graph deadlock victims (`deadlock`).
    pub deadlocks: u64,
    /// Lock-wait timeouts (`lock_wait_timeout`), the §3.2 hot-row mechanism.
    pub wait_timeouts: u64,
    /// Proactive hot/non-hot deadlock rollbacks (`hotspot_deadlock_prevented`).
    pub hotspot_prevented: u64,
    /// Group-locking cascades (`cascading_abort`).
    pub cascading: u64,
    /// Bamboo dirty-read cascades (`dirty_read_aborted`).
    pub dirty_reads: u64,
    /// Aria batch-validation conflicts (`aria_validation_failed`).
    pub aria_conflicts: u64,
    /// Explicit / injected rollbacks (`explicit_rollback`).
    pub explicit_rollbacks: u64,
    /// Front-door admission sheds (`overloaded`): the transaction was
    /// rejected by a full hot-key admission queue before reaching the lock
    /// table.
    #[serde(default)]
    pub overloaded: u64,
    /// Aborts with any other label (integrity errors surfaced mid-run, ...).
    pub other: u64,
    /// Driver-side retries after a retryable abort — the front-door
    /// admission-retry traffic a scheduling layer would absorb.  Counted by
    /// the workload drivers, not the engine, so it is *not* a subset of the
    /// abort totals above: one transaction can retry many times.
    pub admission_retries: u64,
}

impl AbortBreakdown {
    /// Folds `(label, count)` pairs into the structured classes.
    pub fn from_causes(causes: &[(String, u64)], admission_retries: u64) -> Self {
        let mut breakdown = AbortBreakdown {
            admission_retries,
            ..Default::default()
        };
        for (label, count) in causes {
            match label.as_str() {
                "deadlock" => breakdown.deadlocks += count,
                "lock_wait_timeout" => breakdown.wait_timeouts += count,
                "hotspot_deadlock_prevented" => breakdown.hotspot_prevented += count,
                "cascading_abort" => breakdown.cascading += count,
                "dirty_read_aborted" => breakdown.dirty_reads += count,
                "aria_validation_failed" => breakdown.aria_conflicts += count,
                "explicit_rollback" => breakdown.explicit_rollbacks += count,
                "overloaded" => breakdown.overloaded += count,
                _ => breakdown.other += count,
            }
        }
        breakdown
    }

    /// Total engine-side aborts across all classes (excludes driver retries).
    pub fn total(&self) -> u64 {
        self.deadlocks
            + self.wait_timeouts
            + self.hotspot_prevented
            + self.cascading
            + self.dirty_reads
            + self.aria_conflicts
            + self.explicit_rollbacks
            + self.overloaded
            + self.other
    }
}

/// All metrics the engine maintains while running a workload.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Committed transactions.
    pub committed: Counter,
    /// Aborted transactions (all causes).
    pub aborted: Counter,
    /// Aborts that were part of a cascade (Figure 10 left).
    pub cascading_aborts: Counter,
    /// Per-cause abort counters.
    pub abort_causes: AbortCounters,
    /// End-to-end transaction latency.
    pub txn_latency: LatencyHistogram,
    /// Time spent waiting for locks (the inner bar of Figure 6c).
    pub lock_wait_latency: LatencyHistogram,
    /// Number of `lock_t` objects created (Figure 6d numerator).
    pub locks_created: Counter,
    /// Record locks released (individually or via release-all), making
    /// bookkeeping churn observable next to `locks_created`.
    pub locks_released: Counter,
    /// Live `(txn, record)` entries across the sharded lock registries —
    /// the decentralized successor of the global `txn_locks` map.  Sampled
    /// from the registries' per-shard counts at snapshot time (never updated
    /// on the lock hot path).  A non-zero value with no active transactions
    /// indicates leaked bookkeeping.
    pub lock_registry_entries: Gauge,
    /// Number of lock requests that had to wait.
    pub lock_waits: Counter,
    /// Driver-side retries after a retryable abort: each time a closed-loop
    /// or fixed-TPS worker re-submits a transaction that aborted on
    /// contention.  This is the retry-storm traffic arriving at the front
    /// door — the signal the ROADMAP's admission-control layer will consume.
    pub admission_retries: Counter,
    /// Transactions that waited in a hot-key admission queue before being
    /// admitted (the front-door serialization the admission layer applies to
    /// declared-hot-key transactions).
    pub admission_queued: Counter,
    /// Transactions shed by admission control: rejected with
    /// `Error::Overloaded` because a hot-key queue was at capacity or inside
    /// its post-shed hysteresis window.
    pub admission_shed: Counter,
    /// Driver-side retry loops that gave up because their retry budget was
    /// exhausted (the transaction is reported failed instead of retried).
    pub retry_budget_exhausted: Counter,
    /// Backoff sleeps taken by the drivers' budgeted retry loops (one per
    /// retry that waited before re-submitting).
    pub backoff_waits: Counter,
    /// Live waiters across all hot-key admission queues.  Sampled by the
    /// admission controller on enqueue/dequeue; like the other gauges it is
    /// *not* reset between windows — a non-zero value after a burst drains
    /// means a wedged queue.
    pub admission_queue_depth: Gauge,
    /// Shard-mutex acquisitions on the lock **release** paths: one per page
    /// (or row-shard) group drained by the lock tables and one per registry
    /// batch (`forget_records` / `take_all`).  The denominator for release
    /// batching: releasing several records in one call amortizes these, so
    /// takes-per-released-lock should drop as batch size grows.
    pub release_shard_locks: Counter,
    /// Group-table entry-map shard acquisitions on the leader's **commit
    /// handover** path (prepare + handover).  The denominator for handover
    /// batching: collecting a leader's hot records and fetching their group
    /// entries shard by shard amortizes these, so takes-per-hot-record should
    /// drop below 1.0 as the records-per-commit count grows (vs 2.0 for the
    /// per-record prepare+handover sequence).
    pub handover_shard_locks: Counter,
    /// Length of each grant scan (requests examined per scan), recorded via
    /// `record_micros(len)` — the log2 buckets hold request counts here, not
    /// times.  With per-record wait queues this must stay bounded by the
    /// queue on *one* record; growth with page population indicates the
    /// O(page) scan regression the queue layout exists to prevent.
    pub grant_scan_len: LatencyHistogram,
    /// Number of queries (statements) executed (Figure 6d denominator).
    /// The session API counts them in each transaction's
    /// [`MetricsScratch`], so they land here when the transaction drops;
    /// Aria's batch executor adds them here directly.
    pub queries: Counter,
    /// Number of deadlock-detector runs.
    pub deadlock_checks: Counter,
    /// Number of transactions that entered a hotspot group (leader or follower).
    pub hotspot_group_entries: Counter,
    /// Number of groups formed by group locking.
    pub groups_formed: Counter,
    /// Nanoseconds spent doing useful work (executing statements / commit logic).
    pub busy_nanos: Counter,
    /// Nanoseconds spent blocked (waiting for locks, queues or group wake-ups).
    pub blocked_nanos: Counter,
    /// Group-commit batches flushed by the commit pipeline.
    pub commit_batches: Counter,
    /// Transactions that went through the binlog sync stage.
    pub commit_synced: Counter,
    /// Injected crash points that fired (fault-injection runs only).
    pub crash_injected: Counter,
    /// Fsync attempts retried after a transient injected error.
    pub fsync_retries: Counter,
    /// Redo records replayed by `Database::restart_from_crash`.
    pub recovery_replayed: Counter,
    /// Redo records dropped by checkpoint-time log truncation.
    pub wal_truncated_records: Counter,
    /// Semi-sync ack waits that hit the `rpl_semi_sync`-style timeout and
    /// degraded the pipeline to asynchronous shipping.
    pub semi_sync_timeouts: Counter,
    /// Commits acknowledged to the client while the pipeline was degraded
    /// (shipped asynchronously, no replica ack backing them).
    pub degraded_commits: Counter,
    /// Degraded→semi-sync transitions: the replicas caught back up within
    /// the configured re-sync lag and ack waiting resumed.
    pub semi_sync_resyncs: Counter,
    /// Batches shed because the bounded asynchronous shipping queue was
    /// full (the replicas recover the gap from the retained binlog buffer).
    pub ship_queue_full: Counter,
    /// Shipping attempts retried after a transient injected ship error.
    pub ship_retries: Counter,
    /// Replica lag in binlog batches: retained binlog length minus the
    /// slowest replica's acknowledged position.  A live gauge sampled on
    /// the shipping path, not reset between windows.
    pub replica_lag: Gauge,
}

impl EngineMetrics {
    /// Creates a fresh metrics registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// CPU-utilisation proxy: fraction of worker time spent doing useful work
    /// rather than being blocked (see "Fidelity substitutions" in
    /// `ARCHITECTURE.md`).
    pub fn utilization(&self) -> f64 {
        let busy = self.busy_nanos.get() as f64;
        let blocked = self.blocked_nanos.get() as f64;
        if busy + blocked == 0.0 {
            0.0
        } else {
            busy / (busy + blocked)
        }
    }

    /// Locks created per executed query (Figure 6d).
    pub fn locks_per_query(&self) -> f64 {
        let q = self.queries.get();
        if q == 0 {
            0.0
        } else {
            self.locks_created.get() as f64 / q as f64
        }
    }

    /// Abort ratio: aborts / (aborts + commits).
    pub fn abort_ratio(&self) -> f64 {
        let a = self.aborted.get() as f64;
        let c = self.committed.get() as f64;
        if a + c == 0.0 {
            0.0
        } else {
            a / (a + c)
        }
    }

    /// Cascade abort ratio: cascading aborts / (aborts + commits).
    pub fn cascade_abort_ratio(&self) -> f64 {
        let a = self.aborted.get() as f64;
        let c = self.committed.get() as f64;
        if a + c == 0.0 {
            0.0
        } else {
            self.cascading_aborts.get() as f64 / (a + c)
        }
    }

    /// Resets every metric (used between benchmark measurement windows).
    pub fn reset(&self) {
        self.committed.take();
        self.aborted.take();
        self.cascading_aborts.take();
        self.abort_causes.reset();
        self.txn_latency.reset();
        self.lock_wait_latency.reset();
        self.locks_created.take();
        self.locks_released.take();
        // lock_registry_entries is deliberately not reset: it is a live gauge,
        // and in-flight transactions still own their registry entries.
        self.lock_waits.take();
        self.admission_retries.take();
        self.admission_queued.take();
        self.admission_shed.take();
        self.retry_budget_exhausted.take();
        self.backoff_waits.take();
        // admission_queue_depth is deliberately not reset: it is a live gauge
        // of waiters currently parked in the hot-key queues.
        self.release_shard_locks.take();
        self.handover_shard_locks.take();
        self.grant_scan_len.reset();
        self.queries.take();
        self.deadlock_checks.take();
        self.hotspot_group_entries.take();
        self.groups_formed.take();
        self.busy_nanos.take();
        self.blocked_nanos.take();
        self.commit_batches.take();
        self.commit_synced.take();
        self.crash_injected.take();
        self.fsync_retries.take();
        self.recovery_replayed.take();
        self.wal_truncated_records.take();
        self.semi_sync_timeouts.take();
        self.degraded_commits.take();
        self.semi_sync_resyncs.take();
        self.ship_queue_full.take();
        self.ship_retries.take();
        // replica_lag is deliberately not reset: like lock_registry_entries
        // it mirrors live state (how far the slowest replica trails).
    }

    /// Structured abort-reason breakdown of the current window.
    pub fn abort_breakdown(&self) -> AbortBreakdown {
        let causes: Vec<(String, u64)> = self
            .abort_causes
            .snapshot()
            .into_iter()
            .map(|(l, c)| (l.to_owned(), c))
            .collect();
        AbortBreakdown::from_causes(&causes, self.admission_retries.get())
    }

    /// Takes a serialisable snapshot, computing TPS over `elapsed`.
    pub fn snapshot(&self, elapsed: Duration) -> MetricsSnapshot {
        let secs = elapsed.as_secs_f64().max(1e-9);
        MetricsSnapshot {
            elapsed_secs: elapsed.as_secs_f64(),
            committed: self.committed.get(),
            aborted: self.aborted.get(),
            cascading_aborts: self.cascading_aborts.get(),
            tps: self.committed.get() as f64 / secs,
            abort_ratio: self.abort_ratio(),
            cascade_abort_ratio: self.cascade_abort_ratio(),
            p50_latency_ms: self.txn_latency.p50_millis(),
            p99_latency_ms: self.txn_latency.p99_millis(),
            p95_latency_ms: self.txn_latency.p95_millis(),
            mean_latency_ms: self.txn_latency.mean_micros() / 1_000.0,
            p95_lock_wait_ms: self.lock_wait_latency.p95_millis(),
            mean_lock_wait_ms: self.lock_wait_latency.mean_micros() / 1_000.0,
            locks_created: self.locks_created.get(),
            locks_released: self.locks_released.get(),
            lock_registry_entries: self.lock_registry_entries.get(),
            queries: self.queries.get(),
            locks_per_query: self.locks_per_query(),
            lock_waits: self.lock_waits.get(),
            release_shard_locks: self.release_shard_locks.get(),
            handover_shard_locks: self.handover_shard_locks.get(),
            mean_grant_scan_len: self.grant_scan_len.mean_micros(),
            max_grant_scan_len: self.grant_scan_len.max_micros(),
            deadlock_checks: self.deadlock_checks.get(),
            hotspot_group_entries: self.hotspot_group_entries.get(),
            groups_formed: self.groups_formed.get(),
            utilization: self.utilization(),
            commit_batches: self.commit_batches.get(),
            crash_injected: self.crash_injected.get(),
            fsync_retries: self.fsync_retries.get(),
            recovery_replayed: self.recovery_replayed.get(),
            wal_truncated_records: self.wal_truncated_records.get(),
            semi_sync_timeouts: self.semi_sync_timeouts.get(),
            degraded_commits: self.degraded_commits.get(),
            semi_sync_resyncs: self.semi_sync_resyncs.get(),
            ship_queue_full: self.ship_queue_full.get(),
            ship_retries: self.ship_retries.get(),
            replica_lag: self.replica_lag.get(),
            admission_retries: self.admission_retries.get(),
            admission_queued: self.admission_queued.get(),
            admission_shed: self.admission_shed.get(),
            retry_budget_exhausted: self.retry_budget_exhausted.get(),
            backoff_waits: self.backoff_waits.get(),
            admission_queue_depth: self.admission_queue_depth.get(),
            abort_breakdown: self.abort_breakdown(),
            abort_causes: self
                .abort_causes
                .snapshot()
                .into_iter()
                .map(|(l, c)| (l.to_owned(), c))
                .collect(),
        }
    }
}

/// A point-in-time, serialisable view of [`EngineMetrics`].
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// Measurement window length in seconds.
    pub elapsed_secs: f64,
    /// Committed transactions in the window.
    pub committed: u64,
    /// Aborted transactions in the window.
    pub aborted: u64,
    /// Cascading aborts in the window.
    pub cascading_aborts: u64,
    /// Transactions per second.
    pub tps: f64,
    /// aborted / (aborted + committed).
    pub abort_ratio: f64,
    /// cascading aborts / (aborted + committed).
    pub cascade_abort_ratio: f64,
    /// Median end-to-end latency (ms).
    pub p50_latency_ms: f64,
    /// 99th percentile end-to-end latency (ms).
    pub p99_latency_ms: f64,
    /// 95th percentile end-to-end latency (ms).
    pub p95_latency_ms: f64,
    /// Mean end-to-end latency (ms).
    pub mean_latency_ms: f64,
    /// 95th percentile lock-wait time (ms).
    pub p95_lock_wait_ms: f64,
    /// Mean lock-wait time (ms).
    pub mean_lock_wait_ms: f64,
    /// Total lock objects created.
    pub locks_created: u64,
    /// Record locks released.
    pub locks_released: u64,
    /// Live lock-registry entries at snapshot time.
    pub lock_registry_entries: u64,
    /// Statements executed (Figure 6d denominator).  A statement counts
    /// when its transaction finishes, like the lock counters.
    pub queries: u64,
    /// Lock objects created per query.
    pub locks_per_query: f64,
    /// Lock requests that had to wait.
    pub lock_waits: u64,
    /// Shard-mutex acquisitions on the release paths (lock tables + registry).
    pub release_shard_locks: u64,
    /// Group-table shard acquisitions on the leader commit-handover path.
    pub handover_shard_locks: u64,
    /// Mean grant-scan length (requests examined per scan).
    pub mean_grant_scan_len: f64,
    /// Longest grant scan observed (requests examined).
    pub max_grant_scan_len: u64,
    /// Deadlock detector invocations.
    pub deadlock_checks: u64,
    /// Transactions that joined hotspot groups.
    pub hotspot_group_entries: u64,
    /// Hotspot groups formed.
    pub groups_formed: u64,
    /// Useful-work ratio (CPU utilisation proxy).
    pub utilization: f64,
    /// Group-commit batches.
    pub commit_batches: u64,
    /// Injected crash points that fired.
    pub crash_injected: u64,
    /// Fsync attempts retried after transient injected errors.
    pub fsync_retries: u64,
    /// Redo records replayed during crash restart.
    pub recovery_replayed: u64,
    /// Redo records dropped by checkpoint truncation.
    pub wal_truncated_records: u64,
    /// Semi-sync ack waits that timed out and degraded the pipeline.
    pub semi_sync_timeouts: u64,
    /// Commits acknowledged while the pipeline was degraded to async.
    pub degraded_commits: u64,
    /// Degraded→semi-sync re-sync transitions.
    pub semi_sync_resyncs: u64,
    /// Batches shed by the bounded asynchronous shipping queue.
    pub ship_queue_full: u64,
    /// Shipping attempts retried after transient ship errors.
    pub ship_retries: u64,
    /// Replica lag in binlog batches at snapshot time.
    pub replica_lag: u64,
    /// Driver-side retries after retryable aborts.
    pub admission_retries: u64,
    /// Transactions that waited in a hot-key admission queue.
    #[serde(default)]
    pub admission_queued: u64,
    /// Transactions shed by admission control (`Error::Overloaded`).
    #[serde(default)]
    pub admission_shed: u64,
    /// Retry loops that exhausted their budget and gave up.
    #[serde(default)]
    pub retry_budget_exhausted: u64,
    /// Backoff sleeps taken by the budgeted retry loops.
    #[serde(default)]
    pub backoff_waits: u64,
    /// Live admission-queue waiters at snapshot time.
    #[serde(default)]
    pub admission_queue_depth: u64,
    /// Structured abort-reason breakdown (see [`AbortBreakdown`]).
    pub abort_breakdown: AbortBreakdown,
    /// Per-cause abort counts.
    pub abort_causes: Vec<(String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_for_pins_power_of_two_edges() {
        assert_eq!(LatencyHistogram::bucket_for(0), 0);
        assert_eq!(LatencyHistogram::bucket_for(1), 1);
        assert_eq!(LatencyHistogram::bucket_for(2), 2);
        assert_eq!(LatencyHistogram::bucket_for(3), 2);
        assert_eq!(LatencyHistogram::bucket_for(4), 3);
        assert_eq!(LatencyHistogram::bucket_for(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn counter_basic_operations() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_percentiles_are_monotonic() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_micros(i);
        }
        let p50 = h.percentile_micros(0.5);
        let p95 = h.percentile_micros(0.95);
        let p99 = h.percentile_micros(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max_micros().next_power_of_two());
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn histogram_percentile_is_roughly_accurate() {
        let h = LatencyHistogram::new();
        // 95% of observations at ~100us, 5% at ~10000us.
        for _ in 0..9_500 {
            h.record_micros(100);
        }
        for _ in 0..500 {
            h.record_micros(10_000);
        }
        let p50 = h.percentile_micros(0.50);
        let p99 = h.percentile_micros(0.99);
        assert!((64..=256).contains(&p50), "p50={p50}");
        assert!(p99 >= 8_192, "p99={p99}");
    }

    #[test]
    fn histogram_merge_accumulates() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record_micros(10);
        b.record_micros(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max_micros() >= 1_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_micros(0.95), 0);
        assert_eq!(h.mean_micros(), 0.0);
    }

    #[test]
    fn abort_counters_accumulate_by_label() {
        let a = AbortCounters::default();
        a.record("deadlock");
        a.record("deadlock");
        a.record("lock_wait_timeout");
        assert_eq!(a.get("deadlock"), 2);
        assert_eq!(a.get("lock_wait_timeout"), 1);
        assert_eq!(a.get("other"), 0);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn engine_metrics_ratios() {
        let m = EngineMetrics::new();
        m.committed.add(90);
        m.aborted.add(10);
        m.cascading_aborts.add(5);
        m.queries.add(200);
        m.locks_created.add(100);
        m.busy_nanos.add(750);
        m.blocked_nanos.add(250);
        assert!((m.abort_ratio() - 0.1).abs() < 1e-9);
        assert!((m.cascade_abort_ratio() - 0.05).abs() < 1e-9);
        assert!((m.locks_per_query() - 0.5).abs() < 1e-9);
        assert!((m.utilization() - 0.75).abs() < 1e-9);
        let snap = m.snapshot(Duration::from_secs(2));
        assert!((snap.tps - 45.0).abs() < 1e-9);
        m.reset();
        assert_eq!(m.committed.get(), 0);
        assert_eq!(m.abort_ratio(), 0.0);
    }

    #[test]
    fn scratch_accumulates_locally_and_flushes_once() {
        let m = EngineMetrics::new();
        let scratch = MetricsScratch::new();
        scratch.on_query();
        scratch.on_lock_created();
        scratch.on_lock_created();
        scratch.on_locks_released(3);
        scratch.on_release_shard_lock();
        scratch.on_grant_scan(1);
        scratch.on_grant_scan(5);
        // Nothing reaches the shared counters until the flush.
        assert_eq!(m.locks_created.get(), 0);
        assert_eq!(m.grant_scan_len.count(), 0);
        assert!(!scratch.is_empty());
        assert_eq!(scratch.pending_locks_created(), 2);
        assert_eq!(m.queries.get(), 0);
        scratch.flush(&m);
        assert!(scratch.is_empty());
        assert_eq!(m.queries.get(), 1);
        assert_eq!(m.locks_created.get(), 2);
        assert_eq!(m.locks_released.get(), 3);
        assert_eq!(m.release_shard_locks.get(), 1);
        assert_eq!(m.grant_scan_len.count(), 2);
        assert_eq!(m.grant_scan_len.max_micros(), 5);
        assert!((m.grant_scan_len.mean_micros() - 3.0).abs() < 1e-9);
        // A second flush is a no-op.
        scratch.flush(&m);
        assert_eq!(m.grant_scan_len.count(), 2);
    }

    #[test]
    fn engine_metrics_is_a_passthrough_sink() {
        let m = EngineMetrics::new();
        MetricsSink::on_query(&m);
        MetricsSink::on_lock_created(&m);
        MetricsSink::on_locks_released(&m, 2);
        MetricsSink::on_release_shard_lock(&m);
        MetricsSink::on_grant_scan(&m, 7);
        assert_eq!(m.queries.get(), 1);
        assert_eq!(m.locks_created.get(), 1);
        assert_eq!(m.locks_released.get(), 2);
        assert_eq!(m.release_shard_locks.get(), 1);
        assert_eq!(m.grant_scan_len.count(), 1);
        assert_eq!(m.grant_scan_len.max_micros(), 7);
    }

    #[test]
    fn abort_breakdown_folds_labels_into_classes() {
        let m = EngineMetrics::new();
        m.abort_causes.record("deadlock");
        m.abort_causes.record("deadlock");
        m.abort_causes.record("lock_wait_timeout");
        m.abort_causes.record("aria_validation_failed");
        m.abort_causes.record("cascading_abort");
        m.abort_causes.record("dirty_read_aborted");
        m.abort_causes.record("hotspot_deadlock_prevented");
        m.abort_causes.record("explicit_rollback");
        m.abort_causes.record("duplicate_key");
        m.abort_causes.record("overloaded");
        m.admission_retries.add(17);
        let b = m.abort_breakdown();
        assert_eq!(b.deadlocks, 2);
        assert_eq!(b.wait_timeouts, 1);
        assert_eq!(b.aria_conflicts, 1);
        assert_eq!(b.cascading, 1);
        assert_eq!(b.dirty_reads, 1);
        assert_eq!(b.hotspot_prevented, 1);
        assert_eq!(b.explicit_rollbacks, 1);
        assert_eq!(b.overloaded, 1);
        assert_eq!(b.other, 1);
        assert_eq!(b.admission_retries, 17);
        assert_eq!(b.total(), 10, "driver retries are not engine aborts");
        // The breakdown rides along in the serialisable snapshot.
        let snap = m.snapshot(Duration::from_secs(1));
        assert_eq!(snap.abort_breakdown, b);
        assert_eq!(snap.admission_retries, 17);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.abort_breakdown.deadlocks, 2);
        // Resetting clears the retry counter with the rest of the window.
        m.reset();
        assert_eq!(m.abort_breakdown().total(), 0);
        assert_eq!(m.admission_retries.get(), 0);
    }

    #[test]
    fn admission_counters_reset_but_depth_gauge_persists() {
        let m = EngineMetrics::new();
        m.admission_queued.inc();
        m.admission_shed.add(2);
        m.retry_budget_exhausted.inc();
        m.backoff_waits.add(3);
        m.admission_queue_depth.set(4);
        let snap = m.snapshot(Duration::from_secs(1));
        assert_eq!(snap.admission_queued, 1);
        assert_eq!(snap.admission_shed, 2);
        assert_eq!(snap.retry_budget_exhausted, 1);
        assert_eq!(snap.backoff_waits, 3);
        assert_eq!(snap.admission_queue_depth, 4);
        m.reset();
        assert_eq!(m.admission_queued.get(), 0);
        assert_eq!(m.admission_shed.get(), 0);
        assert_eq!(m.retry_budget_exhausted.get(), 0);
        assert_eq!(m.backoff_waits.get(), 0);
        assert_eq!(
            m.admission_queue_depth.get(),
            4,
            "live gauge survives the window reset"
        );
    }

    #[test]
    fn snapshot_percentiles_are_ordered() {
        let m = EngineMetrics::new();
        for i in 1..=1_000u64 {
            m.txn_latency.record_micros(i * 100);
        }
        let snap = m.snapshot(Duration::from_secs(1));
        assert!(snap.p50_latency_ms > 0.0);
        assert!(snap.p50_latency_ms <= snap.p95_latency_ms);
        assert!(snap.p95_latency_ms <= snap.p99_latency_ms);
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let m = EngineMetrics::new();
        m.committed.add(1);
        let snap = m.snapshot(Duration::from_secs(1));
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"tps\""));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.committed, 1);
    }
}

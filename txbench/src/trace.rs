//! Spans around the benchmark's calls into each engine layer.
//!
//! The traced run replays every program through the same session calls that
//! `Database::execute_program` makes and wraps each call in a [`Span`].  A
//! transaction attempt is the root span; every span of the attempt shares
//! its trace id.  Spans are buffered per thread and collected when the run
//! ends, so recording one is a clock read and a `Vec` push.
//!
//! The replication ship runs inside `Database::commit` on whichever client
//! thread is the group-commit flush leader.  [`TimedHook`] wraps the
//! replication hook and opens its span under the span that is current on the
//! calling thread, which is that leader's `commit` span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use txsql_common::Result;
use txsql_core::{BinlogTxn, CommitHook};

/// The engine layer a span's call lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark client itself: the root span of an attempt.
    Client,
    /// `txn`: transaction begin and read views.
    Txn,
    /// `storage`: MVCC reads and inserts.
    Storage,
    /// `lockmgr::lightweight`: updates of rows that are not hot.
    Lightweight,
    /// `lockmgr::group_lock`: updates of the pinned hot row, grant included.
    GroupLock,
    /// `core::commit`: commit and rollback.
    Commit,
    /// `replication`: the semi-sync ship of one commit batch.
    Replication,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Client,
        Layer::Txn,
        Layer::Storage,
        Layer::Lightweight,
        Layer::GroupLock,
        Layer::Commit,
        Layer::Replication,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Txn => "txn",
            Layer::Storage => "storage",
            Layer::Lightweight => "lightweight",
            Layer::GroupLock => "group_lock",
            Layer::Commit => "commit",
            Layer::Replication => "replication",
        }
    }
}

/// The call a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A whole transaction attempt.
    Attempt,
    /// `Database::begin`.
    Begin,
    /// `Database::read`.
    Read,
    /// `Database::insert`.
    Insert,
    /// `Database::update_add` on a row that is not hot.
    ColdUpdate,
    /// `Database::update_add` on the pinned hot row.
    HotUpdate,
    /// `Database::commit`.
    Commit,
    /// `Database::rollback`.
    Rollback,
    /// `ReplicationHook::on_commit_batch`.
    Ship,
}

impl Op {
    /// The layer the call lands in.
    pub fn layer(self) -> Layer {
        match self {
            Op::Attempt => Layer::Client,
            Op::Begin => Layer::Txn,
            Op::Read | Op::Insert => Layer::Storage,
            Op::ColdUpdate => Layer::Lightweight,
            Op::HotUpdate => Layer::GroupLock,
            Op::Commit | Op::Rollback => Layer::Commit,
            Op::Ship => Layer::Replication,
        }
    }

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Op::Attempt => "client.attempt",
            Op::Begin => "txn.begin",
            Op::Read => "storage.read",
            Op::Insert => "storage.insert",
            Op::ColdUpdate => "lightweight.update_add",
            Op::HotUpdate => "group_lock.update_add",
            Op::Commit => "commit.commit",
            Op::Rollback => "commit.rollback",
            Op::Ship => "replication.ship",
        }
    }
}

/// One timed call.  Times are nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The transaction attempt the span belongs to.
    pub trace: u64,
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// The call timed.
    pub op: Op,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct ThreadTrace {
    spans: Vec<Span>,
    /// `(trace, span id)` of the open spans on this thread, innermost last.
    open: Vec<(u64, u64)>,
    /// The next span id; ids carry the thread's index in their high bits,
    /// so threads never share a counter's cache line.
    next_id: u64,
}

static THREADS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: RefCell<ThreadTrace> = RefCell::new(ThreadTrace {
        spans: Vec::new(),
        open: Vec::new(),
        next_id: THREADS.fetch_add(1, Ordering::Relaxed) << 40,
    });
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn record<R>(trace: Option<u64>, op: Op, f: impl FnOnce() -> R) -> R {
    let (trace, id, parent) = THREAD.with(|t| {
        let mut t = t.borrow_mut();
        t.next_id += 1;
        let id = t.next_id;
        let parent = t.open.last().copied();
        let trace = trace.or(parent.map(|(trace, _)| trace)).unwrap_or(0);
        t.open.push((trace, id));
        (trace, id, parent.map(|(_, id)| id))
    });
    let start = now_ns();
    let result = f();
    let end = now_ns();
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        t.open.pop();
        t.spans.push(Span {
            trace,
            id,
            parent,
            op,
            start,
            end,
        });
    });
    result
}

/// Runs `f` as the root span of transaction attempt `trace`.
pub fn root<R>(trace: u64, f: impl FnOnce() -> R) -> R {
    record(Some(trace), Op::Attempt, f)
}

/// Runs `f` as a child of the span open on this thread.
pub fn span<R>(op: Op, f: impl FnOnce() -> R) -> R {
    record(None, op, f)
}

/// Takes the spans this thread recorded so far.
pub fn take_thread_spans() -> Vec<Span> {
    THREAD.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Self time of every span, in the order of `spans`: its duration minus the
/// part of its interval that its children cover.  Children may overlap each
/// other and may run past their parent's end; only the union of their
/// clipped intervals is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // (parent, start, end) sorted: each span's children form one run, in
    // start order.  Sorting keeps millions of spans cheap to analyse.
    let mut kids: Vec<(u64, u64, u64)> = spans
        .iter()
        .filter_map(|s| s.parent.map(|p| (p, s.start, s.end)))
        .collect();
    kids.sort_unstable();
    spans
        .iter()
        .map(|span| {
            let lo = kids.partition_point(|k| k.0 < span.id);
            let hi = kids.partition_point(|k| k.0 <= span.id);
            let covered = covered_within(&kids[lo..hi], span.start, span.end);
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of the `(_, start, end)` intervals, which are sorted
/// by start, clipped to `[lo, hi)`.
fn covered_within(intervals: &[(u64, u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut covered = 0;
    let mut reach = lo;
    for &(_, start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Times a commit hook: each batch becomes a `replication.ship` span under
/// the calling thread's open span, and the batch sizes are counted.
pub struct TimedHook {
    inner: Arc<dyn CommitHook>,
    ships: AtomicU64,
    shipped_txns: AtomicU64,
}

impl TimedHook {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn CommitHook>) -> Self {
        Self {
            inner,
            ships: AtomicU64::new(0),
            shipped_txns: AtomicU64::new(0),
        }
    }

    /// `(batches shipped, transactions shipped)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.ships.load(Ordering::Relaxed),
            self.shipped_txns.load(Ordering::Relaxed),
        )
    }
}

impl CommitHook for TimedHook {
    fn on_commit_batch(&self, batch: &[BinlogTxn]) -> Result<()> {
        self.ships.fetch_add(1, Ordering::Relaxed);
        self.shipped_txns
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        span(Op::Ship, || self.inner.on_commit_batch(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            op: Op::Commit,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = [
            at(1, None, 0, 100),
            // Two children that overlap each other: together [10, 50).
            at(2, Some(1), 10, 30),
            at(3, Some(1), 20, 50),
            // A child that runs past its parent's end: only [90, 100) counts.
            at(4, Some(1), 90, 130),
            // A grandchild is covered by its own parent, not by the root.
            at(5, Some(2), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 40, 6]);
    }

    #[test]
    fn child_starting_before_its_parent_is_clipped() {
        let spans = [at(1, None, 50, 80), at(2, Some(1), 40, 60)];
        assert_eq!(self_times(&spans), vec![20, 20]);
    }

    #[test]
    fn nested_spans_share_the_root_trace_and_link_parents() {
        let _ = take_thread_spans();
        root(7, || {
            span(Op::Begin, || ());
            span(Op::Commit, || span(Op::Ship, || ()));
        });
        let spans = take_thread_spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.trace == 7));
        let by_op = |op| spans.iter().find(|s| s.op == op).unwrap();
        let attempt = by_op(Op::Attempt);
        assert_eq!(attempt.parent, None);
        assert_eq!(by_op(Op::Begin).parent, Some(attempt.id));
        assert_eq!(by_op(Op::Commit).parent, Some(attempt.id));
        assert_eq!(by_op(Op::Ship).parent, Some(by_op(Op::Commit).id));
    }
}

//! MVCC version chains.
//!
//! Every heap record owns a chain of [`Version`]s, newest first.  The newest
//! version is the "current" row an updater sees; older versions are what
//! snapshot readers reconstruct through their read view, exactly like
//! InnoDB's undo-based row versions.
//!
//! Three properties of the chain are load-bearing:
//!
//! * **Uncommitted stacking.** Group locking (§3.3) and Bamboo both allow a
//!   transaction to update a row whose newest version is still uncommitted.
//!   The chain therefore may contain several uncommitted versions, each from
//!   a different writer, stacked in update order.
//! * **Reverse-order rollback.** The rollback-order guarantee (§4.4) means a
//!   transaction only ever rolls back when its versions are the newest ones
//!   on the chain, so rollback is "pop from the front", and cascading aborts
//!   pop deeper prefixes.
//! * **Commit order matches chain order.** Committed `commit_no`s strictly
//!   decrease from newest to oldest: every protocol orders a row's writers'
//!   commits in the order they wrote (2PL through the row lock held until
//!   the commit is stamped, group locking through the dependency list,
//!   Bamboo through its dirty-read waits, Aria through ordered batch apply).
//!   [`RecordVersions::commit_writer`] debug-asserts it, and
//!   [`RecordVersions::purge_below`] relies on it.
//!
//! Chains stay short because every commit purges the rows it wrote, under
//! the slot latch it already holds (see `Storage::commit_writes`): with `L`
//! the purge horizon (every `trx_no <= L` has finished), committed versions
//! older than the newest one with `commit_no <= L` can never be the newest
//! version a read view sees, because that one is visible to every view that
//! can still reach the chain.  "Life of a row version" in `ARCHITECTURE.md`
//! walks through the whole cycle.

use txsql_common::{Row, TxnId};

/// One version of a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// The row image this version represents.
    pub row: Row,
    /// Transaction that wrote this version.
    pub writer: TxnId,
    /// Commit sequence number (`trx_no`) assigned when the writer committed;
    /// `None` while the writer is still active (or was rolled back and the
    /// version removed).
    pub commit_no: Option<u64>,
}

impl Version {
    /// True once the writing transaction has committed.
    pub fn is_committed(&self) -> bool {
        self.commit_no.is_some()
    }
}

/// Decides whether a row version is visible to a reader.
///
/// Implemented by the read views in `txsql-txn`: the classic *copying*
/// active-transaction-list view and the paper's *copy-free* `del_ts` view
/// (§3.1.2) both reduce to this question at the storage layer.
pub trait VisibilityJudge {
    /// Should a version written by `writer` (committed with `commit_no`, or
    /// uncommitted if `None`) be visible to this reader?
    fn is_visible(&self, writer: TxnId, commit_no: Option<u64>) -> bool;
}

/// A visibility judge that sees only committed data (READ COMMITTED snapshot
/// taken "now"), used for bulk loads, administrative scans and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCommitted;

impl VisibilityJudge for ReadCommitted {
    fn is_visible(&self, _writer: TxnId, commit_no: Option<u64>) -> bool {
        commit_no.is_some()
    }
}

/// The full version chain of one heap record.
#[derive(Debug, Clone, Default)]
pub struct RecordVersions {
    /// Versions, newest first.  Index 0 is the current row.
    versions: Vec<Version>,
    /// Tombstone flag for deleted records.
    deleted: bool,
}

impl RecordVersions {
    /// Creates a chain with a single, already-committed base version (bulk
    /// load path — the loader behaves like a transaction that committed with
    /// `commit_no = 0`).
    pub fn new_committed(row: Row) -> Self {
        Self {
            versions: vec![Version {
                row,
                writer: TxnId::INVALID,
                commit_no: Some(0),
            }],
            deleted: false,
        }
    }

    /// Creates a chain whose base version was written by `writer` and is not
    /// yet committed (transactional insert path).
    pub fn new_uncommitted(row: Row, writer: TxnId) -> Self {
        Self {
            versions: vec![Version {
                row,
                writer,
                commit_no: None,
            }],
            deleted: false,
        }
    }

    /// The newest version (the one an updater operates on).
    pub fn latest(&self) -> Option<&Version> {
        self.versions.first()
    }

    /// The newest row image, cloned.
    pub fn latest_row(&self) -> Option<Row> {
        self.versions.first().map(|v| v.row.clone())
    }

    /// Writer of the newest version.
    pub fn latest_writer(&self) -> Option<TxnId> {
        self.versions.first().map(|v| v.writer)
    }

    /// True when the newest version is not yet committed.
    pub fn has_uncommitted_head(&self) -> bool {
        self.versions
            .first()
            .map(|v| !v.is_committed())
            .unwrap_or(false)
    }

    /// Number of versions currently retained.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// True when the record has been deleted (tombstoned).
    pub fn is_deleted(&self) -> bool {
        self.deleted
    }

    /// Marks the record deleted / undeleted.
    pub fn set_deleted(&mut self, deleted: bool) {
        self.deleted = deleted;
    }

    /// Pushes a new uncommitted version written by `writer`.
    ///
    /// Group locking and Bamboo may push onto an uncommitted head; plain 2PL
    /// only pushes onto committed heads because the row lock serialises
    /// writers across commit.
    pub fn push_uncommitted(&mut self, row: Row, writer: TxnId) {
        self.versions.insert(
            0,
            Version {
                row,
                writer,
                commit_no: None,
            },
        );
    }

    /// Marks every version written by `writer` as committed with `commit_no`.
    /// Returns the number of versions committed.
    pub fn commit_writer(&mut self, writer: TxnId, commit_no: u64) -> usize {
        let mut n = 0;
        for v in &mut self.versions {
            if v.writer == writer && v.commit_no.is_none() {
                v.commit_no = Some(commit_no);
                n += 1;
            }
        }
        debug_assert!(
            self.commit_order_holds(),
            "committing {writer} as {commit_no} breaks the chain's commit order: {:?}",
            self.versions
                .iter()
                .map(|v| (v.writer, v.commit_no))
                .collect::<Vec<_>>()
        );
        n
    }

    /// True when committed `commit_no`s strictly decrease from newest to
    /// oldest (uncommitted versions may sit anywhere) — the order
    /// [`RecordVersions::purge_below`] relies on.  A transaction that wrote
    /// the row twice owns several versions with the same `commit_no`; they
    /// are adjacent among the committed ones and count as one.
    fn commit_order_holds(&self) -> bool {
        let mut committed = self
            .versions
            .iter()
            .filter_map(|v| v.commit_no.map(|no| (no, v.writer)));
        let Some(mut newer) = committed.next() else {
            return true;
        };
        committed.all(|older| {
            let ordered = older.0 < newer.0 || older == newer;
            newer = older;
            ordered
        })
    }

    /// Removes the uncommitted versions written by `writer`.
    ///
    /// Returns the number of versions removed.
    ///
    /// Group locking rolls writers back strictly in reverse update order (the
    /// dependency list enforces it), so in that protocol the removed versions
    /// are always the newest ones.  Bamboo's cascading aborts may transiently
    /// remove a version from the middle of the uncommitted prefix; the
    /// remaining dirty versions above it belong to transactions that are
    /// themselves doomed to cascade, so the final state is still correct.
    pub fn rollback_writer(&mut self, writer: TxnId) -> usize {
        let before = self.versions.len();
        self.versions
            .retain(|v| !(v.writer == writer && v.commit_no.is_none()));
        before - self.versions.len()
    }

    /// Returns the newest version visible to `judge`, walking the chain from
    /// newest to oldest (the MVCC read path).
    pub fn visible_row<J: VisibilityJudge>(&self, judge: &J) -> Option<Row> {
        if self.deleted {
            return None;
        }
        self.versions
            .iter()
            .find(|v| judge.is_visible(v.writer, v.commit_no))
            .map(|v| v.row.clone())
    }

    /// Purges the chain below the purge horizon `horizon` (every `trx_no <=
    /// horizon` has finished): drops every committed version older than the
    /// newest one with `commit_no <= horizon`.  That version is visible to
    /// every read view that can still reach the chain, so nothing older is
    /// ever read.  Versions above it and uncommitted versions anywhere are
    /// kept.  Returns the number of versions dropped.
    pub fn purge_below(&mut self, horizon: u64) -> usize {
        let Some(keep) = self
            .versions
            .iter()
            .position(|v| v.commit_no.is_some_and(|no| no <= horizon))
        else {
            return 0;
        };
        let before = self.versions.len();
        let mut index = 0;
        self.versions.retain(|v| {
            index += 1;
            index <= keep + 1 || !v.is_committed()
        });
        before - self.versions.len()
    }

    /// Iterates over versions, newest first (used by the serializability
    /// checker and tests).
    pub fn iter(&self) -> std::slice::Iter<'_, Version> {
        self.versions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: i64) -> Row {
        Row::from_ints(&[1, v])
    }

    #[test]
    fn committed_base_is_visible_to_read_committed() {
        let chain = RecordVersions::new_committed(row(10));
        assert_eq!(
            chain.visible_row(&ReadCommitted).unwrap().get_int(1),
            Some(10)
        );
        assert!(!chain.has_uncommitted_head());
    }

    #[test]
    fn uncommitted_head_hidden_from_read_committed() {
        let mut chain = RecordVersions::new_committed(row(10));
        chain.push_uncommitted(row(20), TxnId(5));
        assert!(chain.has_uncommitted_head());
        assert_eq!(chain.latest_row().unwrap().get_int(1), Some(20));
        // Snapshot readers still see the committed value.
        assert_eq!(
            chain.visible_row(&ReadCommitted).unwrap().get_int(1),
            Some(10)
        );
    }

    #[test]
    fn commit_makes_version_visible() {
        let mut chain = RecordVersions::new_committed(row(10));
        chain.push_uncommitted(row(20), TxnId(5));
        assert_eq!(chain.commit_writer(TxnId(5), 7), 1);
        assert_eq!(
            chain.visible_row(&ReadCommitted).unwrap().get_int(1),
            Some(20)
        );
    }

    #[test]
    fn rollback_removes_only_writers_versions() {
        let mut chain = RecordVersions::new_committed(row(10));
        chain.push_uncommitted(row(20), TxnId(5));
        assert_eq!(chain.rollback_writer(TxnId(5)), 1);
        assert_eq!(chain.latest_row().unwrap().get_int(1), Some(10));
        assert_eq!(chain.version_count(), 1);
        // Rolling back a writer with no versions is a no-op.
        assert_eq!(chain.rollback_writer(TxnId(9)), 0);
    }

    #[test]
    fn group_locking_style_stacked_uncommitted_versions() {
        // T1, T3, T2 update the hot row in that order without committing
        // (the cascade example in §4.4 of the paper).
        let mut chain = RecordVersions::new_committed(row(1));
        chain.push_uncommitted(row(2), TxnId(1));
        chain.push_uncommitted(row(3), TxnId(3));
        chain.push_uncommitted(row(4), TxnId(2));
        assert_eq!(chain.version_count(), 4);
        assert_eq!(chain.latest_row().unwrap().get_int(1), Some(4));
        // Rollback in reverse update order: T2, then T3, then T1.
        chain.rollback_writer(TxnId(2));
        assert_eq!(chain.latest_row().unwrap().get_int(1), Some(3));
        chain.rollback_writer(TxnId(3));
        assert_eq!(chain.latest_row().unwrap().get_int(1), Some(2));
        chain.rollback_writer(TxnId(1));
        assert_eq!(chain.latest_row().unwrap().get_int(1), Some(1));
    }

    /// Chain of `n` committed versions: writer `i` committed as `i`, value
    /// `10 + i`, newest (`n`) first, above the bulk-loaded base.
    fn committed_chain(n: u64) -> RecordVersions {
        let mut chain = RecordVersions::new_committed(row(1));
        for i in 1..=n {
            chain.push_uncommitted(row(10 + i as i64), TxnId(i));
            chain.commit_writer(TxnId(i), i);
        }
        chain
    }

    fn commit_nos(chain: &RecordVersions) -> Vec<Option<u64>> {
        chain.iter().map(|v| v.commit_no).collect()
    }

    #[test]
    fn purge_keeps_newest_version_at_or_below_horizon() {
        let mut chain = committed_chain(5);
        assert_eq!(chain.purge_below(3), 3);
        // 5 and 4 are above the horizon; 3 is the newest at or below it.
        assert_eq!(commit_nos(&chain), vec![Some(5), Some(4), Some(3)]);
        // Purging at the same horizon again is a no-op.
        assert_eq!(chain.purge_below(3), 0);
        // Once everything has finished only the newest version is left.
        assert_eq!(chain.purge_below(5), 2);
        assert_eq!(commit_nos(&chain), vec![Some(5)]);
        assert_eq!(
            chain.visible_row(&ReadCommitted).unwrap().get_int(1),
            Some(15)
        );
    }

    #[test]
    fn purge_keeps_every_version_above_horizon() {
        let mut chain = committed_chain(4);
        // The bulk-loaded base (commit_no 0) is the newest version at or
        // below horizon 0: nothing is older, nothing goes.
        assert_eq!(chain.purge_below(0), 0);
        assert_eq!(chain.version_count(), 5);
        // A chain with no version at or below the horizon keeps everything.
        let mut fresh = RecordVersions::new_uncommitted(row(5), TxnId(9));
        fresh.commit_writer(TxnId(9), 7);
        fresh.push_uncommitted(row(6), TxnId(10));
        fresh.commit_writer(TxnId(10), 8);
        assert_eq!(fresh.purge_below(6), 0);
        assert_eq!(fresh.version_count(), 2);
    }

    #[test]
    fn purge_keeps_uncommitted_versions_at_any_position() {
        // Uncommitted versions on top, in the middle and below the kept
        // version (a state no protocol produces, but purge must still never
        // drop a version whose writer may yet commit or roll back).
        let mut chain = RecordVersions::new_uncommitted(row(0), TxnId(50));
        for i in 1..=3u64 {
            chain.push_uncommitted(row(10 + i as i64), TxnId(i));
            chain.commit_writer(TxnId(i), i);
        }
        chain.push_uncommitted(row(98), TxnId(60));
        chain.push_uncommitted(row(4), TxnId(4));
        chain.commit_writer(TxnId(4), 4);
        chain.push_uncommitted(row(99), TxnId(70));
        assert_eq!(
            commit_nos(&chain),
            vec![None, Some(4), None, Some(3), Some(2), Some(1), None]
        );
        assert_eq!(chain.purge_below(3), 2);
        assert_eq!(commit_nos(&chain), vec![None, Some(4), None, Some(3), None]);
        assert_eq!(chain.latest_row().unwrap().get_int(1), Some(99));
        assert_eq!(chain.latest_writer(), Some(TxnId(70)));
        assert_eq!(chain.iter().last().unwrap().writer, TxnId(50));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "breaks the chain's commit order")]
    fn committing_out_of_chain_order_is_caught() {
        let mut chain = RecordVersions::new_committed(row(1));
        chain.push_uncommitted(row(2), TxnId(1));
        chain.push_uncommitted(row(3), TxnId(2));
        chain.commit_writer(TxnId(2), 5);
        // The older writer commits with a larger number than the newer one.
        chain.commit_writer(TxnId(1), 6);
    }

    #[test]
    fn deleted_records_are_invisible() {
        let mut chain = RecordVersions::new_committed(row(1));
        chain.set_deleted(true);
        assert!(chain.is_deleted());
        assert!(chain.visible_row(&ReadCommitted).is_none());
    }

    #[test]
    fn transactional_insert_starts_uncommitted() {
        let chain = RecordVersions::new_uncommitted(row(5), TxnId(9));
        assert!(chain.has_uncommitted_head());
        assert!(chain.visible_row(&ReadCommitted).is_none());
        assert_eq!(chain.latest_writer(), Some(TxnId(9)));
    }
}

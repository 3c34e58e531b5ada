//! Tables: a collection of pages plus a primary-key index.
//!
//! The primary-key index maps `pk -> RecordId` so workloads can address rows
//! the way SQL would (`WHERE id = ?`), while the engine internals — lock
//! manager, hotspot hash, undo/redo — always speak `RecordId`, mirroring the
//! paper's description of locating a record through its tablespace, page and
//! heap position (§2.2).

use crate::heap::{Page, RecordSlot};
use crate::schema::TableSchema;
use crate::shards::{padded, shard_of, Shards, SHARDS};
use crate::version::{RecordVersions, VisibilityJudge};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use txsql_common::fxhash::FxHashMap;
use txsql_common::{Error, HeapNo, PageNo, RecordId, Result, Row, TxnId};

/// A table: schema, heap pages and the primary-key index.
///
/// Both the index and the page directory are split into cache-padded
/// shards, so lookups of different rows take different locks.  No lock is
/// held while another is taken, except on the insert path, which nests
/// pk-index shard → allocation mutex → page shard in that one order.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    /// Heap pages.  Page `n` lives in shard `n % SHARDS`, at index
    /// `n / SHARDS`.  Pages are only ever appended and a page's slots only
    /// grow, so a record access takes its page's shard for reading; an
    /// insert takes the shard of the page it fills for writing.
    pages: Shards<RwLock<Vec<Page>>>,
    /// Serialises slot allocation, so pages fill in order and `heap_no`s
    /// are dense.
    alloc: Mutex<Allocation>,
    /// Primary key -> record id, sharded by the key's hash.
    pk_index: Shards<RwLock<FxHashMap<i64, RecordId>>>,
}

/// Where the next slot goes: the number of allocated pages and the fill
/// count of the last one, kept here so an insert need not read the page.
#[derive(Debug, Default)]
struct Allocation {
    pages: PageNo,
    last_fill: u16,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Self {
            schema,
            pages: padded(|| RwLock::new(Vec::new())),
            alloc: Mutex::new(Allocation::default()),
            pk_index: padded(|| RwLock::new(FxHashMap::default())),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    #[inline]
    fn pk_shard(&self, pk: i64) -> &RwLock<FxHashMap<i64, RecordId>> {
        &self.pk_index[shard_of(pk as u64)]
    }

    #[inline]
    fn page_shard(&self, page_no: PageNo) -> &RwLock<Vec<Page>> {
        &self.pages[page_no as usize % SHARDS]
    }

    /// Number of live (indexed) rows.
    pub fn row_count(&self) -> usize {
        self.pk_index.iter().map(|shard| shard.read().len()).sum()
    }

    /// Inserts a row version chain, allocating heap space and indexing the
    /// primary key.  Fails on duplicate primary keys.
    ///
    /// The key's index shard stays write-locked from the duplicate check
    /// to the index insert, so of two concurrent inserts of one key exactly
    /// one allocates a slot, and the slot exists before the key resolves.
    pub fn insert_versions(&self, row_pk: i64, versions: RecordVersions) -> Result<RecordId> {
        match self.pk_shard(row_pk).write().entry(row_pk) {
            Entry::Occupied(_) => Err(Error::DuplicateKey {
                table: self.schema.id,
                key: row_pk,
            }),
            Entry::Vacant(entry) => Ok(*entry.insert(self.allocate(versions))),
        }
    }

    /// Places `versions` in the next free slot: the last page's, or the
    /// first of a new page once the last one is full.
    fn allocate(&self, versions: RecordVersions) -> RecordId {
        let space_id = self.schema.space_id();
        let mut alloc = self.alloc.lock();
        if alloc.pages == 0 || alloc.last_fill == self.schema.rows_per_page {
            let page_no = alloc.pages;
            let mut page = Page::new(space_id, page_no, self.schema.rows_per_page);
            let heap_no = page.allocate(versions).expect("a new page has room");
            self.page_shard(page_no).write().push(page);
            alloc.pages += 1;
            alloc.last_fill = 1;
            return RecordId::new(space_id, page_no, heap_no);
        }
        let page_no = alloc.pages - 1;
        let heap_no: HeapNo = self.page_shard(page_no).write()[page_no as usize / SHARDS]
            .allocate(versions)
            .expect("the fill count says the last page has room");
        alloc.last_fill += 1;
        RecordId::new(space_id, page_no, heap_no)
    }

    /// Bulk-load convenience: inserts a committed row.
    pub fn insert_committed(&self, row: Row) -> Result<RecordId> {
        let pk = row.primary_key().ok_or_else(|| Error::Internal {
            reason: "row has no integer primary key".into(),
        })?;
        self.insert_versions(pk, RecordVersions::new_committed(row))
    }

    /// Looks up the record id for a primary key.
    pub fn lookup_pk(&self, pk: i64) -> Result<RecordId> {
        self.pk_shard(pk)
            .read()
            .get(&pk)
            .copied()
            .ok_or(Error::KeyNotFound {
                table: self.schema.id,
                key: pk,
            })
    }

    /// Removes a primary key from the index (used when rolling back an
    /// insert).  Returns true if the key was present.
    pub fn unindex_pk(&self, pk: i64) -> bool {
        self.pk_shard(pk).write().remove(&pk).is_some()
    }

    /// Returns the record slot for a record id.
    pub fn slot(&self, record: RecordId) -> Result<RecordSlot> {
        self.page_shard(record.page_no)
            .read()
            .get(record.page_no as usize / SHARDS)
            .and_then(|p| p.slot(record.heap_no))
            .cloned()
            .ok_or(Error::UnknownRecord { record })
    }

    /// Snapshot read (the MVCC read path): takes the slot read latch, *then*
    /// creates the read view with `make_view`, and returns the newest
    /// version it sees together with that version's writer.
    ///
    /// Creating the view under the latch serialises it with the purge in
    /// [`crate::Storage::commit_writes`]: a purge that ran before the latch
    /// was taken only dropped versions hidden behind one that is visible to
    /// any view created afterwards.  A view made earlier and used here could
    /// miss that version and find its older fallbacks purged.
    pub fn read_snapshot<J: VisibilityJudge>(
        &self,
        record: RecordId,
        make_view: impl FnOnce() -> J,
    ) -> Result<Option<(Row, TxnId)>> {
        let slot = self.slot(record)?;
        let guard = slot.read();
        let view = make_view();
        Ok(guard
            .iter()
            .find(|v| view.is_visible(v.writer, v.commit_no))
            .map(|v| (v.row.clone(), v.writer)))
    }

    /// Record ids of every indexed row, in primary-key order (used by scans,
    /// consistency checks and recovery verification).
    pub fn all_record_ids(&self) -> Vec<(i64, RecordId)> {
        let mut rows: Vec<(i64, RecordId)> = Vec::with_capacity(self.row_count());
        for shard in self.pk_index.iter() {
            rows.extend(shard.read().iter().map(|(k, v)| (*k, *v)));
        }
        rows.sort_unstable_by_key(|(k, _)| *k);
        rows
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        self.alloc.lock().pages as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsql_common::TableId;

    fn small_table() -> Table {
        Table::new(TableSchema::new(TableId(1), "t", 2).with_rows_per_page(2))
    }

    #[test]
    fn insert_and_lookup() {
        let t = small_table();
        let rid = t.insert_committed(Row::from_ints(&[7, 70])).unwrap();
        assert_eq!(t.lookup_pk(7).unwrap(), rid);
        assert_eq!(t.row_count(), 1);
        let slot = t.slot(rid).unwrap();
        assert_eq!(slot.read().latest_row().unwrap().get_int(1), Some(70));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let t = small_table();
        t.insert_committed(Row::from_ints(&[1, 1])).unwrap();
        let err = t.insert_committed(Row::from_ints(&[1, 2])).unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { key: 1, .. }));
    }

    #[test]
    fn pages_overflow_to_new_page() {
        let t = small_table();
        for pk in 0..5 {
            t.insert_committed(Row::from_ints(&[pk, pk])).unwrap();
        }
        assert_eq!(t.page_count(), 3);
        // Records keep the (space, page, heap) addressing.
        let rid = t.lookup_pk(4).unwrap();
        assert_eq!(rid.space_id, 1);
        assert_eq!(rid.page_no, 2);
        assert_eq!(rid.heap_no, 0);
    }

    #[test]
    fn unknown_lookups_fail_cleanly() {
        let t = small_table();
        assert!(matches!(
            t.lookup_pk(99),
            Err(Error::KeyNotFound { key: 99, .. })
        ));
        let missing = RecordId::new(1, 9, 9);
        assert!(matches!(t.slot(missing), Err(Error::UnknownRecord { .. })));
    }

    #[test]
    fn unindex_removes_visibility_via_pk() {
        let t = small_table();
        t.insert_committed(Row::from_ints(&[3, 30])).unwrap();
        assert!(t.unindex_pk(3));
        assert!(!t.unindex_pk(3));
        assert!(t.lookup_pk(3).is_err());
    }

    #[test]
    fn all_record_ids_sorted_by_pk() {
        let t = small_table();
        for pk in [5, 1, 3] {
            t.insert_committed(Row::from_ints(&[pk, pk])).unwrap();
        }
        let pks: Vec<i64> = t.all_record_ids().into_iter().map(|(k, _)| k).collect();
        assert_eq!(pks, vec![1, 3, 5]);
    }

    #[test]
    fn rows_without_int_pk_rejected() {
        let t = small_table();
        let row = Row::new(vec![txsql_common::Value::Str("x".into())]);
        assert!(t.insert_committed(row).is_err());
    }
}

//! Cache-padded lock shards for the storage structures that every session
//! touches: a table's primary-key index and page directory, the undo log and
//! the active transactions' first LSNs.
//!
//! One engine-wide lock on any of these makes every read or write of every
//! session write the same cache line, even when the rows are disjoint.
//! Splitting each structure into [`SHARDS`] independently locked parts, each
//! on its own cache line, keeps two sessions apart unless their keys collide
//! in one shard.

use parking_lot::{Mutex, MutexGuard};
use txsql_common::fxhash::{self, FxHashMap};
use txsql_common::{CachePadded, TxnId};

/// Shards per structure.
pub(crate) const SHARDS: usize = 64;

/// Shard of a hashed key.  The index comes from the middle bits of the Fx
/// hash: a shard's `FxHashMap` probes with the low bits and tags its
/// control bytes with the top seven, and keys that all agreed on those bits
/// would crowd into a few buckets or tags.
#[inline]
pub(crate) fn shard_of(key: u64) -> usize {
    (fxhash::hash_u64(key) >> 32) as usize % SHARDS
}

/// [`SHARDS`] values, each on its own cache line.
pub(crate) type Shards<T> = Box<[CachePadded<T>]>;

/// [`SHARDS`] padded values built by `make`.
pub(crate) fn padded<T>(make: impl Fn() -> T) -> Shards<T> {
    (0..SHARDS).map(|_| CachePadded::new(make())).collect()
}

/// A map keyed by transaction id, split into [`SHARDS`] mutex-guarded parts.
/// A transaction's entry always lives in the same shard, so its own
/// operations take one shard mutex that other transactions rarely share.
#[derive(Debug)]
pub(crate) struct TxnShards<V> {
    shards: Shards<Mutex<FxHashMap<TxnId, V>>>,
}

impl<V> Default for TxnShards<V> {
    fn default() -> Self {
        Self {
            shards: padded(|| Mutex::new(FxHashMap::default())),
        }
    }
}

impl<V> TxnShards<V> {
    /// Locks the shard that holds `txn`'s entry.
    #[inline]
    pub(crate) fn lock(&self, txn: TxnId) -> MutexGuard<'_, FxHashMap<TxnId, V>> {
        self.shards[shard_of(txn.0)].lock()
    }

    /// Visits every shard in turn, one lock at a time.  Not a snapshot:
    /// entries may come and go in shards already visited.
    pub(crate) fn for_each_shard(&self, mut visit: impl FnMut(&FxHashMap<TxnId, V>)) {
        for shard in self.shards.iter() {
            visit(&shard.lock());
        }
    }
}

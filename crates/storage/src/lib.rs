//! # txsql-storage
//!
//! An in-memory, InnoDB-like storage engine substrate for the TXSQL
//! reproduction.
//!
//! The paper's optimizations live in the lock manager and transaction
//! manager, but they only make sense on top of a storage engine that has the
//! same moving parts as InnoDB:
//!
//! * rows addressed by `<space_id, page_no, heap_no>` and organised in pages
//!   ([`heap`]),
//! * tables with a primary-key index ([`schema`], [`table`]),
//! * MVCC version chains so snapshot reads never block ([`version`]),
//! * per-transaction undo segments whose *header* can carry either the commit
//!   sequence number or the `hot_update_order` (paper §5.3) ([`undo`]),
//! * a redo log / WAL with an explicit durability horizon so crashes can be
//!   simulated ([`wal`]),
//! * crash-fault injection that kills the simulated process at named crash
//!   points from a seeded plan ([`fault`]),
//! * and crash recovery that replays the durable redo suffix (scan-stopping
//!   at a torn tail) and rolls back uncommitted transactions in the correct
//!   (hotspot-aware) order ([`recovery`]).
//!
//! The [`Storage`] facade ties these together and is what the transaction
//! layer (`txsql-txn`, `txsql-core`) talks to.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod fault;
pub mod heap;
pub mod recovery;
pub mod schema;
mod shards;
pub mod storage;
pub mod table;
pub mod undo;
pub mod version;
pub mod wal;

pub use fault::{CrashPoint, FaultInjector, FaultPlan};
pub use schema::TableSchema;
pub use storage::Storage;
pub use table::Table;
pub use undo::{UndoHeader, UndoRecord, UndoSegment};
pub use version::{RecordVersions, Version, VisibilityJudge};
pub use wal::{LogFrame, RedoLog, RedoRecord};

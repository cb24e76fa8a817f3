//! # itag-store — embedded storage engine
//!
//! The iTag paper runs its managers on top of a MySQL database. This crate is
//! the reproduction's substitute substrate: a small embedded storage engine
//! with the durability and access patterns the iTag managers need:
//!
//! * a **write-ahead log** with CRC-framed records and torn-tail recovery
//!   ([`wal`]),
//! * **snapshots** with atomic rename-install and WAL truncation
//!   ([`snapshot`]),
//! * logical **tables** of ordered key/value pairs with prefix and range
//!   scans ([`db::Store`]),
//! * a typed layer with order-preserving key encoding and secondary indexes
//!   ([`table`]),
//! * atomic multi-table **write batches** ([`txn`]),
//! * a compact serde binary format used for records, snapshots and exports
//!   ([`serbin`]).
//!
//! The engine is single-process and multi-reader/multi-writer: the
//! memtable set is hash-partitioned into shards (each behind its own
//! `RwLock`) and concurrent commits are funneled through a group-commit
//! WAL — one leader appends every queued frame with a single flush and
//! applies the group in LSN order (see [`db`] module docs).
//!
//! ```
//! use itag_store::db::{Store, StoreOptions};
//! use itag_store::TableId;
//!
//! let store = Store::in_memory();
//! const T: TableId = TableId(1);
//! store.put(T, b"k".to_vec(), b"v".to_vec()).unwrap();
//! assert_eq!(store.get(T, b"k").unwrap().as_deref(), Some(&b"v"[..]));
//! ```

pub mod codec;
mod cow;
pub mod db;
pub mod envknob;
pub mod error;
pub mod faults;
pub mod mvcc;
pub mod serbin;
pub mod snapshot;
pub mod table;
pub mod testutil;
pub mod txn;
pub mod wal;

pub use db::{Durability, Store, StoreOptions, StoreStats, SyncPolicy, DEFAULT_SHARDS};
pub use error::{Result, StoreError};
pub use mvcc::{SnapshotTable, StoreSnapshot};
pub use table::{Entity, KeyCodec, TypedTable};
pub use txn::{CachedEntity, WriteBatch};

/// Identifier of a logical table inside a [`Store`].
///
/// Table ids are assigned statically by each subsystem (see
/// `itag_core::tables`) so that snapshots remain readable across runs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct TableId(pub u16);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "table#{}", self.0)
    }
}

//! MVCC read snapshots: immutable point-in-time views of the store.
//!
//! [`crate::Store::read_snapshot`] briefly read-locks every shard, clones
//! each shard's table directory (one refcount bump per table — never the
//! pairs), reads the epoch, and drops the locks. The resulting
//! [`StoreSnapshot`] is a frozen copy-on-write view:
//!
//! * **Consistency** — the epoch is published by the group leader while
//!   it still holds the write locks of the shards its batch touched, and
//!   the capture holds *all* shard read locks, so the captured `(epoch,
//!   contents)` pair is exactly "every batch with `lsn <= epoch`, none
//!   after" — byte-identical to a quiesced store at that LSN (pinned by
//!   the snapshot-equivalence proptest).
//! * **Writer freedom** — after capture the snapshot holds no lock. The
//!   first write to a captured table copies that table's page directory
//!   (≈ `len / 128` handles) and the one page its key lands on (≤ 128
//!   pairs); later writes copy only pages not yet copied, and every other
//!   page stays shared (`StoreStats::cow_pairs_copied` counts the
//!   copies). Dropping a snapshot frees only what writers replaced since
//!   the capture.
//!   The `crowd::model` snapshot-capture model checks the protocol under
//!   exhaustive schedules.
//! * **Cheap sharing** — [`StoreSnapshot`] is itself an [`Arc`] handle:
//!   cloning one (e.g. the server fanning a dashboard epoch out to N
//!   sessions) is one refcount bump.
//!
//! Raw reads mirror [`crate::Store`]'s signatures (`get`, `scan_*`,
//! `for_each_range`, `count`, `last_key`, `table_ids`,
//! `content_checksum`) and share the store's k-way merge machinery, so
//! the two paths cannot drift. Typed reads go through [`SnapshotTable`],
//! the read-only analogue of [`crate::table::TypedTable`] (always a
//! plain decode — the entity cache tracks the *live* memtables and is
//! deliberately not consulted).

use crate::db::{self, Memtable};
use crate::error::Result;
use crate::table::{Entity, KeyCodec};
use crate::{serbin, TableId};
use bytes::Bytes;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable point-in-time view of every table (see module docs).
/// Cloning is one refcount bump; drop order against the store is free.
#[derive(Clone)]
pub struct StoreSnapshot {
    inner: Arc<SnapshotInner>,
}

struct SnapshotInner {
    epoch: u64,
    /// The captured shard partitions, routed exactly like the live store
    /// (same hash, same shard count), so per-key reads touch one part.
    shards: Vec<Memtable>,
    /// Entries read through this view and its clones: one per point
    /// lookup, one per pair a scan visits.
    entries_read: AtomicU64,
}

impl std::fmt::Debug for StoreSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSnapshot")
            .field("epoch", &self.inner.epoch)
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

impl StoreSnapshot {
    pub(crate) fn assemble(epoch: u64, shards: Vec<Memtable>) -> Self {
        StoreSnapshot {
            inner: Arc::new(SnapshotInner {
                epoch,
                shards,
                entries_read: AtomicU64::new(0),
            }),
        }
    }

    /// LSN of the last batch this view contains. Two snapshots with equal
    /// epochs of the same store hold byte-identical contents.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    fn parts(&self) -> impl Iterator<Item = &Memtable> {
        self.inner.shards.iter()
    }

    fn count_reads(&self, n: usize) {
        self.inner
            .entries_read
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Entries read through this view (shared by its clones) — the
    /// snapshot-side counterpart of [`crate::StoreStats`]'s gets and
    /// scans, which count live-store reads only.
    pub fn entries_read(&self) -> u64 {
        self.inner.entries_read.load(Ordering::Relaxed)
    }

    /// Point lookup. The returned [`Bytes`] is a zero-copy handle onto
    /// the captured buffer.
    pub fn get(&self, table: TableId, key: &[u8]) -> Option<Bytes> {
        self.count_reads(1);
        let s = db::route(self.inner.shards.len(), table, key);
        self.inner.shards[s]
            .get(&table)
            .and_then(|t| t.get(key))
            .cloned()
    }

    /// True if `key` exists in `table`.
    pub fn contains(&self, table: TableId, key: &[u8]) -> bool {
        self.count_reads(1);
        let s = db::route(self.inner.shards.len(), table, key);
        self.inner.shards[s]
            .get(&table)
            .is_some_and(|t| t.contains_key(key))
    }

    /// All pairs whose key starts with `prefix`, in key order.
    pub fn scan_prefix(&self, table: TableId, prefix: &[u8]) -> Vec<(Bytes, Bytes)> {
        let pairs: Vec<_> = db::merged_parts(self.parts(), table, prefix, None)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        self.count_reads(pairs.len());
        pairs
    }

    /// Pairs in `[from, to)` (`to = None` means unbounded), in key order.
    pub fn scan_range(
        &self,
        table: TableId,
        from: &[u8],
        to: Option<&[u8]>,
    ) -> Vec<(Bytes, Bytes)> {
        let pairs: Vec<_> = db::merged_parts(self.parts(), table, from, to)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        self.count_reads(pairs.len());
        pairs
    }

    /// Every pair in `table`, in key order.
    pub fn scan_all(&self, table: TableId) -> Vec<(Bytes, Bytes)> {
        self.scan_range(table, &[], None)
    }

    /// Streams the pairs of `table` in `[from, to)` through `f` in key
    /// order. `f` returns whether to keep going. Unlike the live store's
    /// variant no lock is held, so callbacks may take as long as they
    /// like.
    pub fn for_each_range<F>(&self, table: TableId, from: &[u8], to: Option<&[u8]>, mut f: F)
    where
        F: FnMut(&Bytes, &Bytes) -> bool,
    {
        let mut visited = 0;
        for (k, v) in db::merged_parts(self.parts(), table, from, to) {
            visited += 1;
            if !f(k, v) {
                break;
            }
        }
        self.count_reads(visited);
    }

    /// Number of keys in `table`.
    pub fn count(&self, table: TableId) -> usize {
        self.parts()
            .filter_map(|p| p.get(&table))
            .map(|t| t.len())
            .sum()
    }

    /// The largest key in `table`.
    pub fn last_key(&self, table: TableId) -> Option<Bytes> {
        self.parts()
            .filter_map(|p| p.get(&table))
            .filter_map(|t| t.last_key())
            .max()
            .cloned()
    }

    /// Ids of every table present in the view, ascending.
    pub fn table_ids(&self) -> Vec<TableId> {
        db::tables_union_of(self.parts()).into_iter().collect()
    }

    /// Order-independent digest of the full logical contents — the same
    /// function as [`crate::Store::content_checksum`], so a snapshot at
    /// epoch `e` digests equal to a quiesced store at LSN `e`.
    pub fn content_checksum(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::codec::FxHasher::default();
        for table in db::tables_union_of(self.parts()) {
            h.write_u16(table.0);
            for (k, v) in db::merged_parts(self.parts(), table, &[], None) {
                h.write_usize(k.len());
                h.write(k);
                h.write_usize(v.len());
                h.write(v);
            }
        }
        h.finish()
    }

    /// Typed read view of one entity table inside this snapshot.
    pub fn table<E: Entity>(&self) -> SnapshotTable<'_, E> {
        SnapshotTable {
            snap: self,
            _marker: PhantomData,
        }
    }
}

/// Read-only typed view of one entity table inside a [`StoreSnapshot`] —
/// the snapshot analogue of [`crate::table::TypedTable`]. Every read is
/// a plain decode of the captured bytes (no entity cache), which is
/// bit-identical to the cache-off live path by the cache-equivalence
/// contract.
pub struct SnapshotTable<'s, E: Entity> {
    snap: &'s StoreSnapshot,
    _marker: PhantomData<fn() -> E>,
}

impl<E: Entity> SnapshotTable<'_, E> {
    /// Point lookup.
    pub fn get(&self, key: &E::Key) -> Result<Option<E>> {
        match self.snap.get(E::TABLE, &key.encoded()) {
            Some(bytes) => Ok(Some(serbin::from_bytes(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Every entity, in key order.
    pub fn scan_all(&self) -> Result<Vec<E>> {
        self.snap
            .scan_all(E::TABLE)
            .into_iter()
            .map(|(_, v)| serbin::from_bytes(&v).map_err(Into::into))
            .collect()
    }

    /// Entities with keys in `[from, to)` (`None` = unbounded), key order.
    pub fn scan_range(&self, from: &E::Key, to: Option<&E::Key>) -> Result<Vec<E>> {
        let to_enc = to.map(|k| k.encoded());
        self.snap
            .scan_range(E::TABLE, &from.encoded(), to_enc.as_deref())
            .into_iter()
            .map(|(_, v)| serbin::from_bytes(&v).map_err(Into::into))
            .collect()
    }

    /// Streams entities with keys in `[from, to)` through `f` in key
    /// order. `f` returns whether to keep going.
    pub fn for_each_range<F: FnMut(E) -> bool>(
        &self,
        from: &E::Key,
        to: Option<&E::Key>,
        mut f: F,
    ) -> Result<()> {
        let to_enc = to.map(|k| k.encoded());
        let mut decode_err = None;
        self.snap
            .for_each_range(E::TABLE, &from.encoded(), to_enc.as_deref(), |_, v| {
                match serbin::from_bytes(v) {
                    Ok(entity) => f(entity),
                    Err(e) => {
                        decode_err = Some(e);
                        false
                    }
                }
            });
        match decode_err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Number of stored entities.
    pub fn count(&self) -> usize {
        self.snap.count(E::TABLE)
    }
}

#[cfg(test)]
mod tests {
    use crate::db::Store;
    use crate::TableId;

    const T1: TableId = TableId(1);
    const T2: TableId = TableId(2);

    #[test]
    fn snapshot_is_immutable_while_the_store_moves_on() {
        let s = Store::in_memory_sharded(4);
        for i in 0..20u8 {
            s.put(T1, vec![i], vec![i]).unwrap();
        }
        let snap = s.read_snapshot();
        let epoch = snap.epoch();
        assert_eq!(epoch, 20);

        // Overwrite, insert, and delete after the capture.
        s.put(T1, vec![3], vec![99]).unwrap();
        s.put(T1, vec![200], vec![1]).unwrap();
        s.delete(T1, vec![7]).unwrap();
        s.put(T2, b"new-table".to_vec(), vec![1]).unwrap();

        assert_eq!(snap.epoch(), epoch);
        assert_eq!(snap.get(T1, &[3]).unwrap().as_ref(), &[3]);
        assert!(snap.get(T1, &[200]).is_none());
        assert!(snap.contains(T1, &[7]));
        assert_eq!(snap.count(T1), 20);
        assert_eq!(snap.table_ids(), vec![T1]);
        assert_eq!(snap.last_key(T1).unwrap().as_ref(), &[19]);

        // The live store sees all the new writes.
        assert_eq!(s.get(T1, &[3]).unwrap().unwrap().as_ref(), &[99]);
        assert_eq!(s.epoch(), epoch + 4);
    }

    #[test]
    fn snapshot_reads_match_live_reads_when_quiesced() {
        let s = Store::in_memory_sharded(8);
        for i in 0..64u8 {
            s.put(T1, vec![i / 8, i % 8], vec![i, i]).unwrap();
        }
        s.delete(T1, vec![2, 3]).unwrap();
        let snap = s.read_snapshot();
        assert_eq!(snap.content_checksum(), s.content_checksum());
        assert_eq!(snap.scan_all(T1), s.scan_all(T1));
        assert_eq!(snap.scan_prefix(T1, &[4]), s.scan_prefix(T1, &[4]));
        assert_eq!(
            snap.scan_range(T1, &[1, 0], Some(&[3, 0])),
            s.scan_range(T1, &[1, 0], Some(&[3, 0]))
        );
        let mut streamed = Vec::new();
        snap.for_each_range(T1, &[], None, |k, v| {
            streamed.push((k.clone(), v.clone()));
            true
        });
        assert_eq!(streamed, s.scan_all(T1));
        assert_eq!(snap.count(T1), s.count(T1));
        assert_eq!(snap.last_key(T1), s.last_key(T1));
        assert_eq!(snap.table_ids(), s.table_ids());
    }

    #[test]
    fn snapshot_of_empty_store_is_empty() {
        let s = Store::in_memory();
        let snap = s.read_snapshot();
        assert_eq!(snap.epoch(), 0);
        assert!(snap.scan_all(T1).is_empty());
        assert_eq!(snap.count(T1), 0);
        assert!(snap.get(T1, b"x").is_none());
        assert!(snap.table_ids().is_empty());
    }

    /// The copy-on-write bound on a realistic table: with a snapshot
    /// alive, one put into a 600k-key table copies one shard's page
    /// directory and one page — at most `n / PAGE + PAGE` handles — and
    /// with no snapshot alive, writes copy nothing.
    #[test]
    fn a_put_under_a_live_snapshot_copies_one_page_not_the_table() {
        use crate::cow::PAGE;
        const N: u32 = 600_000;
        let s = Store::in_memory();
        for start in (0..N).step_by(20_000) {
            let mut b = crate::WriteBatch::with_capacity(20_000);
            for i in start..start + 20_000 {
                b.put(T1, i.to_be_bytes().to_vec(), vec![1]);
            }
            s.commit(b).unwrap();
        }
        assert_eq!(s.stats().cow_pairs_copied, 0, "unshared writes copy");

        let snap = s.read_snapshot();
        s.put(T1, 4_242u32.to_be_bytes().to_vec(), vec![2]).unwrap();
        let copied = s.stats().cow_pairs_copied;
        let bound = (N as usize).div_ceil(PAGE) as u64 + PAGE as u64;
        assert!(copied > 0 && copied <= bound, "copied {copied} > {bound}");
        assert_eq!(
            snap.get(T1, &4_242u32.to_be_bytes()).unwrap().as_ref(),
            &[1]
        );
        assert_eq!(snap.count(T1), N as usize);

        drop(snap);
        s.put(T1, 4_243u32.to_be_bytes().to_vec(), vec![2]).unwrap();
        assert_eq!(s.stats().cow_pairs_copied, copied, "no snapshot, no copy");
    }

    #[test]
    fn capture_counter_and_epoch_surface_in_stats() {
        let s = Store::in_memory();
        s.put(T1, vec![1], vec![1]).unwrap();
        let _a = s.read_snapshot();
        let _b = s.read_snapshot();
        let st = s.stats();
        assert_eq!(st.snapshot_captures, 2);
        assert_eq!(st.epoch, 1);
    }
}

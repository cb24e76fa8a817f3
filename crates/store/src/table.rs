//! Typed tables over the raw byte store: order-preserving key encoding,
//! entity CRUD, and secondary indexes.
//!
//! Keys are encoded so that byte order equals logical order (big-endian
//! integers), which makes range scans like "resources with fewest posts"
//! a single index scan — the exact access pattern the FP strategy needs.

use crate::error::{Result, StoreError};
use crate::txn::WriteBatch;
use crate::{serbin, Store, TableId};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::marker::PhantomData;
use std::sync::Arc;

/// Order-preserving binary key encoding.
///
/// Implementations must guarantee `a < b ⇔ encode(a) < encode(b)`
/// (lexicographic byte order). Fixed-width big-endian encodings satisfy
/// this; `String` keys do too but only as the **final** component of a
/// composite key (raw bytes are not self-delimiting).
pub trait KeyCodec: Sized {
    /// Appends the encoded key to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes a key from exactly `bytes`.
    fn decode(bytes: &[u8]) -> Result<Self>;

    /// Convenience: encode into a fresh vector.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        self.encode_into(&mut out);
        out
    }
}

macro_rules! impl_int_key {
    ($ty:ty) => {
        impl KeyCodec for $ty {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }

            fn decode(bytes: &[u8]) -> Result<Self> {
                let arr: [u8; std::mem::size_of::<$ty>()] = bytes.try_into().map_err(|_| {
                    StoreError::Codec(format!(
                        "key of {} bytes is not a {}",
                        bytes.len(),
                        stringify!($ty)
                    ))
                })?;
                Ok(<$ty>::from_be_bytes(arr))
            }
        }
    };
}

impl_int_key!(u16);
impl_int_key!(u32);
impl_int_key!(u64);

impl KeyCodec for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StoreError::Codec(format!("key is not utf8: {e}")))
    }
}

/// Composite key of two fixed-width components. The first component must be
/// fixed-width for decoding to find the split point; we restrict to integer
/// firsts via the `FixedWidthKey` marker.
impl<A: KeyCodec + FixedWidthKey, B: KeyCodec> KeyCodec for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let w = A::WIDTH;
        if bytes.len() < w {
            return Err(StoreError::Codec("composite key too short".into()));
        }
        Ok((A::decode(&bytes[..w])?, B::decode(&bytes[w..])?))
    }
}

/// Marker for keys with a fixed encoded width (usable as non-final composite
/// components and as index prefixes).
pub trait FixedWidthKey {
    const WIDTH: usize;
}

impl FixedWidthKey for u16 {
    const WIDTH: usize = 2;
}
impl FixedWidthKey for u32 {
    const WIDTH: usize = 4;
}
impl FixedWidthKey for u64 {
    const WIDTH: usize = 8;
}
impl<A: FixedWidthKey, B: FixedWidthKey> FixedWidthKey for (A, B) {
    const WIDTH: usize = A::WIDTH + B::WIDTH;
}

/// A record type stored in its own table.
///
/// The `Clone + Send + Sync + 'static` bounds let decoded records live in
/// the store's shared entity cache as `Arc<E>` (see
/// [`crate::db::Store::cache_lookup`]); every record type is plain data,
/// so the bounds cost nothing.
pub trait Entity: Serialize + DeserializeOwned + Clone + Send + Sync + 'static {
    /// The table this entity lives in (statically assigned per subsystem).
    const TABLE: TableId;
    /// Human-readable name for diagnostics.
    const NAME: &'static str;
    /// Primary key type.
    type Key: KeyCodec + Ord + Clone;

    /// Extracts the primary key.
    fn primary_key(&self) -> Self::Key;
}

/// Typed view of one entity table.
pub struct TypedTable<E: Entity> {
    store: Arc<Store>,
    _marker: PhantomData<fn() -> E>,
}

impl<E: Entity> Clone for TypedTable<E> {
    fn clone(&self) -> Self {
        TypedTable {
            store: Arc::clone(&self.store),
            _marker: PhantomData,
        }
    }
}

impl<E: Entity> TypedTable<E> {
    /// Wraps `store`; no I/O happens until the first operation.
    pub fn new(store: Arc<Store>) -> Self {
        TypedTable {
            store,
            _marker: PhantomData,
        }
    }

    /// The underlying store handle.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Inserts or overwrites `entity`.
    pub fn upsert(&self, entity: &E) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        self.stage_upsert(&mut batch, entity)?;
        self.store.commit(batch)
    }

    /// Inserts `entity`, failing with [`StoreError::Conflict`] if the key
    /// already exists.
    pub fn insert_new(&self, entity: &E) -> Result<()> {
        let key = entity.primary_key().encoded();
        if self.store.contains(E::TABLE, &key) {
            return Err(StoreError::Conflict(format!(
                "{} key {key:02x?} already exists",
                E::NAME
            )));
        }
        self.upsert(entity)
    }

    /// Stages an upsert into an existing batch (for multi-table
    /// atomicity). Key and record are encoded straight into the batch.
    pub fn stage_upsert(&self, batch: &mut WriteBatch, entity: &E) -> Result<()> {
        batch.put_with(
            E::TABLE,
            |k| entity.primary_key().encode_into(k),
            |v| Ok(serbin::to_writer(v, entity)?),
        )
    }

    /// Like [`TypedTable::stage_upsert`], but also hands the store a clone
    /// of the decoded entity so the commit writes it through into the
    /// entity cache — the next `get` of this key costs no decode. Use on
    /// records the hot path re-reads (resource rows, project rows); skip
    /// for write-once records (posts), where caching is pure overhead.
    pub fn stage_upsert_cached(&self, batch: &mut WriteBatch, entity: &E) -> Result<()> {
        if !self.store.entity_cache_enabled() {
            return self.stage_upsert(batch, entity);
        }
        batch.put_cached_with(
            E::TABLE,
            |k| entity.primary_key().encode_into(k),
            |v| Ok(serbin::to_writer(v, entity)?),
            Arc::new(entity.clone()),
        )
    }

    /// [`TypedTable::stage_upsert_cached`] taking ownership: the entity
    /// moves into the cache hint, so hot paths that already own the final
    /// record pay one encode and zero clones.
    pub fn stage_upsert_owned(&self, batch: &mut WriteBatch, entity: E) -> Result<()> {
        if !self.store.entity_cache_enabled() {
            return self.stage_upsert(batch, &entity);
        }
        let entity = Arc::new(entity);
        batch.put_cached_with(
            E::TABLE,
            |k| entity.primary_key().encode_into(k),
            |v| Ok(serbin::to_writer(v, &*entity)?),
            entity.clone(),
        )
    }

    /// Stages a delete into an existing batch.
    pub fn stage_delete(&self, batch: &mut WriteBatch, key: &E::Key) {
        batch.delete_with(E::TABLE, |k| key.encode_into(k));
    }

    /// Point lookup through the entity cache: a hit costs one clone of the
    /// cached record instead of a decode. With the cache disabled this is
    /// a plain decode — no `Arc`, no clone.
    pub fn get(&self, key: &E::Key) -> Result<Option<E>> {
        if !self.store.entity_cache_enabled() {
            return match self.store.get(E::TABLE, &key.encoded())? {
                Some(bytes) => Ok(Some(serbin::from_bytes(&bytes)?)),
                None => Ok(None),
            };
        }
        Ok(self.get_arc(key)?.map(|arc| (*arc).clone()))
    }

    /// Point lookup returning the shared cached record itself — the
    /// zero-copy variant of [`TypedTable::get`] for read-only call sites.
    pub fn get_arc(&self, key: &E::Key) -> Result<Option<Arc<E>>> {
        let enc = key.encoded();
        let Some(bytes) = self.store.get(E::TABLE, &enc)? else {
            return Ok(None);
        };
        if !self.store.entity_cache_enabled() {
            return Ok(Some(Arc::new(serbin::from_bytes(&bytes)?)));
        }
        if let Some(hit) = self.store.cache_lookup(E::TABLE, &enc, &bytes) {
            // A downcast failure would mean two entity types share a table
            // id; treat it as a miss rather than trusting the alias.
            if let Ok(arc) = hit.downcast::<E>() {
                return Ok(Some(arc));
            }
        }
        let decoded: Arc<E> = Arc::new(serbin::from_bytes(&bytes)?);
        self.store
            .cache_store(E::TABLE, &enc, bytes, decoded.clone());
        Ok(Some(decoded))
    }

    /// Read-modify-write: fetches `key`, applies `f`, and commits the new
    /// record (write-through) as one staged batch. The whole cycle runs
    /// under the store's RMW lock ([`crate::db::Store::rmw_guard`]), so
    /// concurrent `update` calls — on any table of this store — cannot
    /// lose each other's changes. Writers that commit the same key
    /// directly (outside `update`) are not excluded. Returns the updated
    /// record, or `None` if the key is absent.
    pub fn update<F: FnOnce(&mut E)>(&self, key: &E::Key, f: F) -> Result<Option<E>> {
        let _rmw = self.store.rmw_guard();
        let Some(mut entity) = self.get(key)? else {
            return Ok(None);
        };
        f(&mut entity);
        let mut batch = WriteBatch::with_capacity(1);
        self.stage_upsert_cached(&mut batch, &entity)?;
        self.store.commit(batch)?;
        Ok(Some(entity))
    }

    /// Point lookup that treats absence as an error.
    pub fn must_get(&self, key: &E::Key) -> Result<E> {
        self.get(key)?.ok_or_else(|| StoreError::NotFound {
            table: E::TABLE,
            key: key.encoded(),
        })
    }

    /// Deletes `key`; returns whether it existed.
    pub fn delete(&self, key: &E::Key) -> Result<bool> {
        let encoded = key.encoded();
        let existed = self.store.contains(E::TABLE, &encoded);
        if existed {
            self.store.delete(E::TABLE, encoded)?;
        }
        Ok(existed)
    }

    /// Every entity, in key order.
    pub fn scan_all(&self) -> Result<Vec<E>> {
        self.store
            .scan_all(E::TABLE)
            .into_iter()
            .map(|(_, v)| serbin::from_bytes(&v).map_err(Into::into))
            .collect()
    }

    /// Entities with keys in `[from, to)` (`None` = unbounded), key order.
    pub fn scan_range(&self, from: &E::Key, to: Option<&E::Key>) -> Result<Vec<E>> {
        let to_enc = to.map(|k| k.encoded());
        self.store
            .scan_range(E::TABLE, &from.encoded(), to_enc.as_deref())
            .into_iter()
            .map(|(_, v)| serbin::from_bytes(&v).map_err(Into::into))
            .collect()
    }

    /// Streams every entity through `f` in key order without materializing
    /// the table. `f` returns whether to keep going. The table's shards
    /// stay read-locked while streaming — decode-and-filter loops belong
    /// here; long computations should collect first.
    pub fn for_each<F: FnMut(E) -> bool>(&self, f: F) -> Result<()> {
        self.for_each_range_raw(&[], None, f)
    }

    /// [`TypedTable::for_each`] over keys in `[from, to)`.
    pub fn for_each_range<F: FnMut(E) -> bool>(
        &self,
        from: &E::Key,
        to: Option<&E::Key>,
        f: F,
    ) -> Result<()> {
        let to_enc = to.map(|k| k.encoded());
        self.for_each_range_raw(&from.encoded(), to_enc.as_deref(), f)
    }

    fn for_each_range_raw<F: FnMut(E) -> bool>(
        &self,
        from: &[u8],
        to: Option<&[u8]>,
        mut f: F,
    ) -> Result<()> {
        let mut decode_err = None;
        self.store
            .for_each_range(E::TABLE, from, to, |_, v| match serbin::from_bytes(v) {
                Ok(entity) => f(entity),
                Err(e) => {
                    decode_err = Some(e);
                    false
                }
            });
        match decode_err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Primary keys in `[from, to)` (`None` = unbounded), in key order,
    /// from one range scan that decodes no record.
    pub fn keys_in_range(&self, from: &E::Key, to: Option<&E::Key>) -> Result<Vec<E::Key>> {
        let to_enc = to.map(|k| k.encoded());
        let mut keys = Vec::new();
        let mut decode_err = None;
        self.store
            .for_each_range(E::TABLE, &from.encoded(), to_enc.as_deref(), |k, _| {
                match E::Key::decode(k) {
                    Ok(key) => {
                        keys.push(key);
                        true
                    }
                    Err(e) => {
                        decode_err = Some(e);
                        false
                    }
                }
            });
        match decode_err {
            Some(e) => Err(e),
            None => Ok(keys),
        }
    }

    /// Number of stored entities.
    pub fn count(&self) -> usize {
        self.store.count(E::TABLE)
    }
}

/// A secondary index mapping an extracted key to primary keys.
///
/// Index rows are `(secondary ‖ primary) → primary`; because the secondary
/// key is fixed-width, a prefix scan on the secondary key enumerates exactly
/// the matching primaries in `(secondary, primary)` order.
pub struct IndexDef<E: Entity, K: KeyCodec + FixedWidthKey> {
    /// Table holding the index rows.
    pub table: TableId,
    /// Extracts the indexed value from an entity.
    pub extract: fn(&E) -> K,
}

impl<E: Entity, K: KeyCodec + FixedWidthKey> IndexDef<E, K> {
    /// Stages the index maintenance for a transition `old → new` of the same
    /// primary key. Pass `old = None` for inserts, `new = None` for deletes.
    pub fn stage_update(&self, batch: &mut WriteBatch, old: Option<&E>, new: Option<&E>) {
        if let Some(o) = old {
            batch.delete_with(self.table, |row| {
                (self.extract)(o).encode_into(row);
                o.primary_key().encode_into(row);
            });
        }
        if let Some(n) = new {
            // Appending encoded keys cannot fail.
            let _ = batch.put_with(
                self.table,
                |row| {
                    (self.extract)(n).encode_into(row);
                    n.primary_key().encode_into(row);
                },
                |pk| {
                    n.primary_key().encode_into(pk);
                    Ok(())
                },
            );
        }
    }

    /// Stages the index row for a brand-new entity directly from its
    /// indexed value and encoded primary key — the insert half of
    /// [`IndexDef::stage_update`] without needing a built `E` (lets hot
    /// paths stage records from borrowed parts). Byte-compatible with
    /// `stage_update(None, Some(e))` by construction.
    pub fn stage_insert(&self, batch: &mut WriteBatch, key: &K, primary_key_encoded: &[u8]) {
        // Appending bytes cannot fail.
        let _ = batch.put_with(
            self.table,
            |row| Self::row_key(row, key, primary_key_encoded),
            |pk| {
                pk.extend_from_slice(primary_key_encoded);
                Ok(())
            },
        );
    }

    /// The delete half of [`IndexDef::stage_update`] from the indexed value
    /// and encoded primary key alone.
    pub fn stage_remove(&self, batch: &mut WriteBatch, key: &K, primary_key_encoded: &[u8]) {
        batch.delete_with(self.table, |row| {
            Self::row_key(row, key, primary_key_encoded)
        });
    }

    /// Appends the `secondary ‖ primary` row key to `row`.
    fn row_key(row: &mut Vec<u8>, key: &K, primary_key_encoded: &[u8]) {
        key.encode_into(row);
        row.extend_from_slice(primary_key_encoded);
    }

    /// Primary keys of entities whose indexed value equals `key`.
    pub fn lookup(&self, store: &Store, key: &K) -> Result<Vec<E::Key>> {
        store
            .scan_prefix(self.table, &key.encoded())
            .into_iter()
            .map(|(_, pk)| E::Key::decode(&pk))
            .collect()
    }

    /// Primary keys for indexed values in `[from, to)`, ascending by
    /// `(indexed value, primary key)` — e.g. "fewest posts first".
    pub fn range(&self, store: &Store, from: &K, to: Option<&K>) -> Result<Vec<E::Key>> {
        let to_enc = to.map(|k| k.encoded());
        store
            .scan_range(self.table, &from.encoded(), to_enc.as_deref())
            .into_iter()
            .map(|(_, pk)| E::Key::decode(&pk))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Widget {
        id: u32,
        posts: u32,
        name: String,
    }

    impl Entity for Widget {
        const TABLE: TableId = TableId(10);
        const NAME: &'static str = "widget";
        type Key = u32;

        fn primary_key(&self) -> u32 {
            self.id
        }
    }

    const POSTS_IDX: IndexDef<Widget, u32> = IndexDef {
        table: TableId(11),
        extract: |w| w.posts,
    };

    fn table() -> TypedTable<Widget> {
        TypedTable::new(Arc::new(Store::in_memory()))
    }

    #[test]
    fn key_encoding_preserves_order() {
        let mut keys: Vec<u32> = vec![0, 1, 255, 256, 65535, 65536, u32::MAX];
        keys.sort_unstable();
        let encoded: Vec<Vec<u8>> = keys.iter().map(|k| k.encoded()).collect();
        let mut sorted = encoded.clone();
        sorted.sort();
        assert_eq!(encoded, sorted);
    }

    #[test]
    fn composite_key_roundtrip_and_order() {
        let k: (u32, u64) = (7, 9);
        let bytes = k.encoded();
        assert_eq!(<(u32, u64)>::decode(&bytes).unwrap(), k);

        let a = (1u32, u64::MAX).encoded();
        let b = (2u32, 0u64).encoded();
        assert!(a < b, "first component dominates");
    }

    #[test]
    fn crud_roundtrip() {
        let t = table();
        let w = Widget {
            id: 1,
            posts: 0,
            name: "r1".into(),
        };
        t.upsert(&w).unwrap();
        assert_eq!(t.get(&1).unwrap().unwrap(), w);
        assert_eq!(t.count(), 1);
        assert!(t.delete(&1).unwrap());
        assert!(!t.delete(&1).unwrap());
        assert!(t.get(&1).unwrap().is_none());
    }

    #[test]
    fn insert_new_conflicts_on_duplicate() {
        let t = table();
        let w = Widget {
            id: 5,
            posts: 0,
            name: "x".into(),
        };
        t.insert_new(&w).unwrap();
        assert!(matches!(t.insert_new(&w), Err(StoreError::Conflict(_))));
    }

    #[test]
    fn must_get_reports_not_found() {
        let t = table();
        assert!(matches!(t.must_get(&99), Err(StoreError::NotFound { .. })));
    }

    #[test]
    fn scan_range_in_key_order() {
        let t = table();
        for id in [30u32, 10, 20, 40] {
            t.upsert(&Widget {
                id,
                posts: id,
                name: String::new(),
            })
            .unwrap();
        }
        let hits = t.scan_range(&10, Some(&40)).unwrap();
        let ids: Vec<u32> = hits.iter().map(|w| w.id).collect();
        assert_eq!(ids, vec![10, 20, 30]);
        assert_eq!(t.scan_all().unwrap().len(), 4);
    }

    #[test]
    fn secondary_index_tracks_updates() {
        let t = table();
        let store = Arc::clone(t.store());
        let mk = |id: u32, posts: u32| Widget {
            id,
            posts,
            name: String::new(),
        };

        // Insert three widgets with post counts 5, 0, 5.
        for (id, posts) in [(1, 5), (2, 0), (3, 5)] {
            let w = mk(id, posts);
            let mut b = WriteBatch::new();
            t.stage_upsert(&mut b, &w).unwrap();
            POSTS_IDX.stage_update(&mut b, None, Some(&w));
            store.commit(b).unwrap();
        }

        assert_eq!(POSTS_IDX.lookup(&store, &5).unwrap(), vec![1, 3]);
        assert_eq!(POSTS_IDX.lookup(&store, &0).unwrap(), vec![2]);

        // Widget 1 gains a post: 5 → 6.
        let old = mk(1, 5);
        let new = mk(1, 6);
        let mut b = WriteBatch::new();
        t.stage_upsert(&mut b, &new).unwrap();
        POSTS_IDX.stage_update(&mut b, Some(&old), Some(&new));
        store.commit(b).unwrap();

        assert_eq!(POSTS_IDX.lookup(&store, &5).unwrap(), vec![3]);
        assert_eq!(POSTS_IDX.lookup(&store, &6).unwrap(), vec![1]);

        // Range scan enumerates "fewest posts first".
        let asc = POSTS_IDX.range(&store, &0, None).unwrap();
        assert_eq!(asc, vec![2, 3, 1]);

        // Delete widget 3 entirely.
        let w3 = mk(3, 5);
        let mut b = WriteBatch::new();
        t.stage_delete(&mut b, &3);
        POSTS_IDX.stage_update(&mut b, Some(&w3), None);
        store.commit(b).unwrap();
        assert!(POSTS_IDX.lookup(&store, &5).unwrap().is_empty());
    }

    #[test]
    fn string_keys_roundtrip() {
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        struct Named {
            key: String,
            v: u8,
        }
        impl Entity for Named {
            const TABLE: TableId = TableId(12);
            const NAME: &'static str = "named";
            type Key = String;
            fn primary_key(&self) -> String {
                self.key.clone()
            }
        }
        let t: TypedTable<Named> = TypedTable::new(Arc::new(Store::in_memory()));
        t.upsert(&Named {
            key: "alpha".into(),
            v: 1,
        })
        .unwrap();
        assert_eq!(t.get(&"alpha".to_string()).unwrap().unwrap().v, 1);
    }
}

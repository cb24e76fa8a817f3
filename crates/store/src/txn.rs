//! Atomic multi-table write batches.
//!
//! A [`WriteBatch`] collects puts and deletes across any number of logical
//! tables; [`crate::Store::commit`] appends the whole batch as **one** WAL
//! frame and applies it to the memtables under a single writer lock, so a
//! batch is all-or-nothing both on disk and in memory. The iTag managers use
//! this to keep entity tables and their secondary indexes mutually
//! consistent.
//!
//! ## Layout
//!
//! A batch is one byte buffer, its *body*, holding every op back to back
//! exactly as serbin encodes an [`Op`]:
//!
//! ```text
//! put:    varint(0) ++ varint(table) ++ varint(key len) ++ key ++ varint(value len) ++ value
//! delete: varint(1) ++ varint(table) ++ varint(key len) ++ key
//! ```
//!
//! Beside the body sits one small header per op: its table and the byte
//! ranges of its key and value in the body. Staging encodes keys and values
//! straight into the body ([`WriteBatch::put_with`]), so no op owns an
//! allocation of its own, and [`WriteBatch::append`] concatenates bodies.
//!
//! The body is a WAL frame without its prefix. A frame's payload is
//! `varint(lsn) ++ varint(op count) ++ body`, which is byte-identical to
//! `serbin(WalEntry { lsn, ops })` (serbin writes a struct as its fields in
//! order and a `Vec` as its length and elements). The store therefore
//! writes each frame from the body without a second copy, applies each put
//! by copying its key and value out of the body into the pair's one stored
//! buffer, and recovery decodes a frame into the same header-over-bytes
//! form ([`decode_frame`]).

use crate::codec::{read_uvarint, write_uvarint};
use crate::error::{Result, StoreError};
use crate::TableId;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

/// A type-erased decoded entity, as stored in the entity cache and carried
/// by write-through hints (see [`WriteBatch::put_cached`]).
pub type CachedEntity = Arc<dyn Any + Send + Sync>;

/// A single mutation, in its owned form. Batches do not hold ops this way
/// (see the module docs); this is the type a WAL frame's ops decode to
/// with serbin, and what [`WriteBatch::ops`] returns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Insert or overwrite `key` in `table`.
    Put {
        table: TableId,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// Remove `key` from `table` (no-op if absent).
    Delete { table: TableId, key: Vec<u8> },
}

/// Serbin's variant indexes of [`Op::Put`] and [`Op::Delete`].
const PUT: u64 = 0;
const DELETE: u64 = 1;

/// The WAL frame payload: a batch plus its log sequence number.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalEntry {
    pub lsn: u64,
    pub ops: Vec<Op>,
}

/// Where one op's parts sit in the bytes it was staged into or decoded
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OpHead {
    pub(crate) table: TableId,
    pub(crate) key: Range<usize>,
    /// The value's bytes; `None` for a delete.
    pub(crate) value: Option<Range<usize>>,
}

impl OpHead {
    /// The op's key and (for a put) value, sliced out of `bytes`; `None`
    /// when a range does not fit, which a batch or a decoded frame never
    /// produces.
    pub(crate) fn parts<'b>(&self, bytes: &'b [u8]) -> Option<(&'b [u8], Option<&'b [u8]>)> {
        let key = bytes.get(self.key.clone())?;
        let value = match &self.value {
            Some(r) => Some(bytes.get(r.clone())?),
            None => None,
        };
        Some((key, value))
    }

    fn shifted(&self, by: usize) -> OpHead {
        OpHead {
            table: self.table,
            key: self.key.start + by..self.key.end + by,
            value: self.value.as_ref().map(|r| r.start + by..r.end + by),
        }
    }
}

/// An ordered set of mutations committed atomically, held as one
/// serbin-encoded body plus per-op headers (see the module docs).
///
/// Hints are a side channel next to the ops: `(op index, decoded entity)`
/// pairs that let the store install the already-decoded record into its
/// entity cache when the batch is applied. They are never serialized (the
/// WAL carries only the ops; the cache is rebuilt on demand after
/// recovery) and have no effect on the committed bytes.
#[derive(Default, Clone)]
pub struct WriteBatch {
    pub(crate) body: Vec<u8>,
    pub(crate) heads: Vec<OpHead>,
    pub(crate) hints: Vec<(u32, CachedEntity)>,
}

impl std::fmt::Debug for WriteBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteBatch")
            .field("ops", &self.ops())
            .field("hints", &self.hints.len())
            .finish()
    }
}

/// Number of bytes `v` takes as a varint.
fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends one length-prefixed field that `write` appends to `body`, and
/// returns the field's range. One length byte is reserved up front; a
/// field of 128 bytes or more widens it in place, which moves the field
/// once. On error the body is cut back to where it was.
fn field(
    body: &mut Vec<u8>,
    write: impl FnOnce(&mut Vec<u8>) -> Result<()>,
) -> Result<Range<usize>> {
    let at = body.len();
    body.push(0);
    if let Err(e) = write(body) {
        body.truncate(at);
        return Err(e);
    }
    let len = body.len().saturating_sub(at + 1);
    let n = uvarint_len(len as u64);
    if n == 1 {
        if let Some(b) = body.get_mut(at) {
            *b = len as u8;
        }
        return Ok(at + 1..body.len());
    }
    let mut rest = len as u64;
    let prefix = (0..n).map(|i| {
        let byte = (rest & 0x7F) as u8;
        rest >>= 7;
        if i + 1 < n {
            byte | 0x80
        } else {
            byte
        }
    });
    body.splice(at..at + 1, prefix);
    Ok(at + n..body.len())
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Pre-sizes the op headers when the caller knows the batch size.
    pub fn with_capacity(n: usize) -> Self {
        WriteBatch {
            heads: Vec::with_capacity(n),
            ..WriteBatch::default()
        }
    }

    /// Stages an insert/overwrite.
    pub fn put(&mut self, table: TableId, key: Vec<u8>, value: Vec<u8>) -> &mut Self {
        self.put_slices(table, &key, &value);
        self
    }

    /// Stages an insert/overwrite from borrowed key and value bytes.
    pub fn put_slices(&mut self, table: TableId, key: &[u8], value: &[u8]) -> &mut Self {
        // Copying slices cannot fail.
        let _ = self.put_with(
            table,
            |k| k.extend_from_slice(key),
            |v| {
                v.extend_from_slice(value);
                Ok(())
            },
        );
        self
    }

    /// Stages an insert/overwrite whose key and value are encoded straight
    /// into the batch: `key` and then `value` append their bytes to the
    /// buffer they are handed (and must only append). If `value` fails,
    /// nothing is staged and its error is returned.
    pub fn put_with(
        &mut self,
        table: TableId,
        key: impl FnOnce(&mut Vec<u8>),
        value: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        let start = self.body.len();
        write_uvarint(&mut self.body, PUT);
        write_uvarint(&mut self.body, table.0 as u64);
        let key = field(&mut self.body, |b| {
            key(b);
            Ok(())
        });
        match key.and_then(|key| Ok((key, field(&mut self.body, value)?))) {
            Ok((key, value)) => {
                self.heads.push(OpHead {
                    table,
                    key,
                    value: Some(value),
                });
                Ok(())
            }
            Err(e) => {
                self.body.truncate(start);
                Err(e)
            }
        }
    }

    /// Stages an insert/overwrite together with its decoded form, which the
    /// store writes through into its entity cache when the batch commits.
    /// `decoded` must be the value `value` deserializes to — the typed
    /// layer upholds this; raw callers are on their own.
    pub fn put_cached(
        &mut self,
        table: TableId,
        key: Vec<u8>,
        value: Vec<u8>,
        decoded: CachedEntity,
    ) -> &mut Self {
        self.hints.push((self.heads.len() as u32, decoded));
        self.put_slices(table, &key, &value)
    }

    /// [`WriteBatch::put_with`] plus a write-through hint, as for
    /// [`WriteBatch::put_cached`].
    pub fn put_cached_with(
        &mut self,
        table: TableId,
        key: impl FnOnce(&mut Vec<u8>),
        value: impl FnOnce(&mut Vec<u8>) -> Result<()>,
        decoded: CachedEntity,
    ) -> Result<()> {
        let idx = self.heads.len() as u32;
        self.put_with(table, key, value)?;
        self.hints.push((idx, decoded));
        Ok(())
    }

    /// Stages a delete.
    pub fn delete(&mut self, table: TableId, key: Vec<u8>) -> &mut Self {
        self.delete_with(table, |k| k.extend_from_slice(&key));
        self
    }

    /// Stages a delete whose key `key` appends straight into the batch.
    pub fn delete_with(&mut self, table: TableId, key: impl FnOnce(&mut Vec<u8>)) {
        write_uvarint(&mut self.body, DELETE);
        write_uvarint(&mut self.body, table.0 as u64);
        // Appending a key cannot fail.
        if let Ok(key) = field(&mut self.body, |b| {
            key(b);
            Ok(())
        }) {
            self.heads.push(OpHead {
                table,
                key,
                value: None,
            });
        }
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Drops all staged operations, keeping the allocations.
    pub fn clear(&mut self) {
        self.body.clear();
        self.heads.clear();
        self.hints.clear();
    }

    /// Appends every op of `other` after this batch's ops, preserving
    /// order: the bodies are concatenated and `other`'s ranges shifted past
    /// this body. Cache hints ride along with their op (indexes are
    /// shifted past the existing tail), so a merged batch writes through
    /// exactly like its parts would have. Used by the engine's
    /// cross-project group commit to fold several projects' merge frames
    /// into one WAL frame + fsync.
    pub fn append(&mut self, other: WriteBatch) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let base = self.heads.len() as u32;
        let by = self.body.len();
        self.body.extend_from_slice(&other.body);
        self.heads.extend(other.heads.iter().map(|h| h.shifted(by)));
        self.hints
            .extend(other.hints.into_iter().map(|(i, d)| (base + i, d)));
    }

    /// Payload size of the staged ops in bytes (keys + values; the
    /// encoding adds a few varint bytes per op). Drives the byte budget of
    /// the engine's cross-project commit batching.
    pub fn ops_bytes(&self) -> usize {
        self.heads
            .iter()
            .map(|h| h.key.len() + h.value.as_ref().map_or(0, |v| v.len()))
            .sum()
    }

    /// The staged ops in their owned form (diagnostics and tests; this
    /// copies every key and value).
    pub fn ops(&self) -> Vec<Op> {
        ops_of(&self.body, &self.heads)
    }
}

/// The owned ops that `heads` describe over `bytes`.
fn ops_of(bytes: &[u8], heads: &[OpHead]) -> Vec<Op> {
    heads
        .iter()
        .filter_map(|h| {
            let (key, value) = h.parts(bytes)?;
            Some(match value {
                Some(value) => Op::Put {
                    table: h.table,
                    key: key.to_vec(),
                    value: value.to_vec(),
                },
                None => Op::Delete {
                    table: h.table,
                    key: key.to_vec(),
                },
            })
        })
        .collect()
}

/// Reads a WAL frame payload front to back, tracking offsets into it.
struct FrameReader<'a> {
    frame: &'a [u8],
    rest: &'a [u8],
}

fn corrupt(what: &str) -> StoreError {
    StoreError::Corrupt(format!("undecodable WAL entry: {what}"))
}

impl FrameReader<'_> {
    fn varint(&mut self) -> Result<u64> {
        let (v, rest) = read_uvarint(self.rest).ok_or_else(|| corrupt("bad varint"))?;
        self.rest = rest;
        Ok(v)
    }

    /// A length-prefixed field's range in the frame.
    fn field(&mut self) -> Result<Range<usize>> {
        let len = self.varint()?;
        let start = self.frame.len() - self.rest.len();
        match usize::try_from(len)
            .ok()
            .and_then(|len| self.rest.get(len..))
        {
            Some(rest) => {
                self.rest = rest;
                Ok(start..self.frame.len() - rest.len())
            }
            None => Err(corrupt("field runs past the frame")),
        }
    }
}

/// Decodes a WAL frame payload, `varint(lsn) ++ varint(op count) ++
/// body`, into its LSN and its op headers. The header ranges index
/// `frame` itself. Accepts exactly the payloads that decode as a
/// [`WalEntry`] and consume every byte; anything else is
/// [`StoreError::Corrupt`].
pub(crate) fn decode_frame(frame: &[u8]) -> Result<(u64, Vec<OpHead>)> {
    let mut r = FrameReader { frame, rest: frame };
    let lsn = r.varint()?;
    let count = r.varint()?;
    // An op takes at least four bytes, which bounds what a corrupt count
    // can make this allocate.
    let mut heads = Vec::with_capacity((count as usize).min(r.rest.len() / 4));
    for _ in 0..count {
        let variant = r.varint()?;
        let table = u16::try_from(r.varint()?).map_err(|_| corrupt("table id"))?;
        let key = r.field()?;
        let value = match variant {
            PUT => Some(r.field()?),
            DELETE => None,
            v => return Err(corrupt(&format!("op variant {v}"))),
        };
        heads.push(OpHead {
            table: TableId(table),
            key,
            value,
        });
    }
    if !r.rest.is_empty() {
        return Err(corrupt(&format!("{} trailing bytes", r.rest.len())));
    }
    Ok((lsn, heads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serbin;

    #[test]
    fn batch_builder_collects_in_order() {
        let mut b = WriteBatch::new();
        b.put(TableId(1), vec![1], vec![10])
            .delete(TableId(2), vec![2])
            .put(TableId(1), vec![3], vec![30]);
        assert_eq!(b.len(), 3);
        assert!(matches!(b.ops()[1], Op::Delete { .. }));
        b.clear();
        assert!(b.is_empty());
        assert!(b.body.is_empty());
    }

    #[test]
    fn append_shifts_hint_indexes_past_the_tail() {
        let decoded: CachedEntity = Arc::new(42u32);
        let mut a = WriteBatch::new();
        a.put(TableId(1), vec![1], vec![10]);
        let mut b = WriteBatch::new();
        b.delete(TableId(2), vec![2]);
        b.put_cached(TableId(1), vec![3], vec![30], Arc::clone(&decoded));
        a.append(b);
        assert_eq!(a.len(), 3);
        assert!(matches!(a.ops()[1], Op::Delete { .. }));
        assert_eq!(a.hints.len(), 1);
        // The hinted put was op 1 of `b`; after appending past one
        // existing op it must point at op 2.
        assert_eq!(a.hints[0].0, 2);
        assert_eq!(a.ops_bytes(), 1 + 1 + 1 + (1 + 1));
        assert_eq!(
            a.ops()[2],
            Op::Put {
                table: TableId(1),
                key: vec![3],
                value: vec![30]
            }
        );
    }

    #[test]
    fn body_is_the_serbin_encoding_of_the_ops() {
        let mut b = WriteBatch::new();
        for len in [0usize, 1, 127, 128, 300, 16_384] {
            b.put(TableId(300), vec![7; len % 200], vec![len as u8; len]);
            b.delete(TableId(len as u16), vec![9; len]);
        }
        let ops = b.ops();
        assert_eq!(ops.len(), 12);
        let mut frame = Vec::new();
        write_uvarint(&mut frame, 5);
        write_uvarint(&mut frame, ops.len() as u64);
        frame.extend_from_slice(&b.body);
        let entry = WalEntry { lsn: 5, ops };
        assert_eq!(frame, serbin::to_bytes(&entry).unwrap());
        let (lsn, heads) = decode_frame(&frame).unwrap();
        assert_eq!((lsn, ops_of(&frame, &heads)), (5, entry.ops));
    }

    #[test]
    fn a_failed_value_encode_stages_nothing() {
        let mut b = WriteBatch::new();
        b.put(TableId(1), vec![1], vec![2]);
        let before = b.body.clone();
        let err = b.put_with(
            TableId(1),
            |k| k.push(3),
            |v| {
                v.extend_from_slice(&[0; 200]);
                Err(StoreError::Codec("nope".into()))
            },
        );
        assert!(err.is_err());
        assert_eq!((b.len(), &b.body), (1, &before));
    }

    #[test]
    fn malformed_frames_are_corrupt() {
        let entry = WalEntry {
            lsn: 3,
            ops: vec![Op::Put {
                table: TableId(1),
                key: vec![1, 2],
                value: vec![3],
            }],
        };
        let good = serbin::to_bytes(&entry).unwrap();
        assert!(decode_frame(&good).is_ok());
        let mut trailing = good.clone();
        trailing.push(0);
        let mut bad_variant = good.clone();
        bad_variant[2] = 2;
        for bad in [
            &good[..good.len() - 1],
            &trailing[..],
            &bad_variant[..],
            &[],
        ] {
            assert!(
                matches!(decode_frame(bad), Err(StoreError::Corrupt(_))),
                "{bad:?}"
            );
            assert!(serbin::from_bytes::<WalEntry>(bad).is_err());
        }
    }

    #[test]
    fn wal_entry_roundtrips_through_serbin() {
        let entry = WalEntry {
            lsn: 7,
            ops: vec![
                Op::Put {
                    table: TableId(3),
                    key: vec![0, 1],
                    value: vec![2, 3, 4],
                },
                Op::Delete {
                    table: TableId(3),
                    key: vec![9],
                },
            ],
        };
        let bytes = crate::serbin::to_bytes(&entry).unwrap();
        let back: WalEntry = crate::serbin::from_bytes(&bytes).unwrap();
        assert_eq!(back, entry);
    }
}

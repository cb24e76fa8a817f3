//! Point-in-time snapshots of the full table set.
//!
//! A snapshot is the serbin encoding of every table's sorted contents plus
//! the LSN it covers, wrapped in `[magic][crc][len][payload]` and installed
//! with the write-to-temp + atomic-rename idiom so that a crash during
//! checkpointing can never destroy the previous snapshot.
//!
//! Two producers exist for the same byte format: [`write`] serializes an
//! in-memory [`Snapshot`] (the reference implementation, used by tests),
//! and [`SnapshotWriter`] streams entries straight from the store's shard
//! iterators to disk — no intermediate clone of the table contents — by
//! hand-rolling serbin's struct/seq layout (plain field concatenation,
//! varint-prefixed sequences) and back-patching the header's crc/len once
//! the payload length is known. `streamed_snapshot_matches_write` pins the
//! two outputs byte-for-byte.

use crate::codec::{crc32, write_uvarint, Crc32};
use crate::error::{Result, StoreError};
use crate::faults::{self, FaultFile};
use crate::{serbin, TableId};
use serde::{Deserialize, Serialize};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// `ITAGSNP1` — snapshot file magic + format version.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ITAGSNP1";

/// Serialized form of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// LSN of the last WAL entry folded into this snapshot. Replay resumes
    /// with the first WAL entry whose LSN is greater.
    pub last_lsn: u64,
    /// Every table's full sorted contents.
    pub tables: Vec<TableDump>,
}

/// One table inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableDump {
    pub table: TableId,
    /// Key/value pairs in key order.
    pub entries: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Writes `snapshot` to `path` atomically (temp file + rename). The
/// `snapshot.write` fault site covers the whole producer: the entry
/// check fails the operation outright, and the [`FaultFile`] wrapper
/// injects byte-level faults into the temp file (a torn temp file never
/// installs — the rename only happens after a clean sync).
pub fn write(path: &Path, snapshot: &Snapshot) -> Result<()> {
    faults::check_io(faults::SNAPSHOT_WRITE)?;
    let payload = serbin::to_bytes(snapshot)?;
    let tmp = path.with_extension("snp.tmp");
    {
        let mut file = FaultFile::new(std::fs::File::create(&tmp)?, faults::SNAPSHOT_WRITE);
        file.write_all(&SNAPSHOT_MAGIC)?;
        file.write_all(&crc32(&payload).to_le_bytes())?;
        file.write_all(&(payload.len() as u64).to_le_bytes())?;
        file.write_all(&payload)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself where the platform allows it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_data();
        }
    }
    Ok(())
}

/// Streams a snapshot to disk entry by entry (see module docs). The
/// declared table and entry counts are enforced: [`SnapshotWriter::finish`]
/// fails if they were not met exactly, because the counts are the seq
/// length prefixes already written into the payload.
pub struct SnapshotWriter {
    out: BufWriter<FaultFile>,
    crc: Crc32,
    payload_len: u64,
    tmp: PathBuf,
    path: PathBuf,
    tables_left: u64,
    entries_left: u64,
    varint_buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Opens the temp file and writes the header placeholder plus the
    /// snapshot preamble (`last_lsn`, table count).
    pub fn create(path: &Path, last_lsn: u64, table_count: u64) -> Result<Self> {
        faults::check_io(faults::CHECKPOINT_STREAM)?;
        let tmp = path.with_extension("snp.tmp");
        let mut out = BufWriter::new(FaultFile::new(
            std::fs::File::create(&tmp)?,
            faults::CHECKPOINT_STREAM,
        ));
        out.write_all(&SNAPSHOT_MAGIC)?;
        // crc + len are back-patched in finish().
        out.write_all(&[0u8; 12])?;
        let mut w = SnapshotWriter {
            out,
            crc: Crc32::new(),
            payload_len: 0,
            tmp,
            path: path.to_path_buf(),
            tables_left: table_count,
            entries_left: 0,
            varint_buf: Vec::with_capacity(10),
        };
        w.emit_varint(last_lsn)?;
        w.emit_varint(table_count)?;
        Ok(w)
    }

    fn emit(&mut self, bytes: &[u8]) -> Result<()> {
        self.crc.update(bytes);
        self.payload_len += bytes.len() as u64;
        self.out.write_all(bytes)?;
        Ok(())
    }

    fn emit_varint(&mut self, v: u64) -> Result<()> {
        self.varint_buf.clear();
        write_uvarint(&mut self.varint_buf, v);
        let buf = std::mem::take(&mut self.varint_buf);
        self.emit(&buf)?;
        self.varint_buf = buf;
        Ok(())
    }

    /// Starts the next table dump. The previous table must be complete.
    pub fn begin_table(&mut self, table: TableId, entry_count: u64) -> Result<()> {
        // Per-table poll so `nth`/`every` triggers can fail a checkpoint
        // mid-stream, not only at creation.
        faults::check_io(faults::CHECKPOINT_STREAM)?;
        if self.entries_left != 0 {
            return Err(StoreError::Codec(format!(
                "snapshot table started with {} entries still owed",
                self.entries_left
            )));
        }
        if self.tables_left == 0 {
            return Err(StoreError::Codec(
                "snapshot writer got more tables than declared".into(),
            ));
        }
        self.tables_left -= 1;
        self.entries_left = entry_count;
        self.emit_varint(table.0 as u64)?;
        self.emit_varint(entry_count)
    }

    /// Appends one key/value pair of the current table (key order is the
    /// caller's responsibility — the store feeds a merged ordered scan).
    pub fn entry(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.entries_left == 0 {
            return Err(StoreError::Codec(
                "snapshot writer got more entries than declared".into(),
            ));
        }
        self.entries_left -= 1;
        self.emit_varint(key.len() as u64)?;
        self.emit(key)?;
        self.emit_varint(value.len() as u64)?;
        self.emit(value)
    }

    /// Back-patches crc + payload length, fsyncs, and atomically installs
    /// the snapshot over `path`.
    pub fn finish(mut self) -> Result<()> {
        if self.tables_left != 0 || self.entries_left != 0 {
            return Err(StoreError::Codec(format!(
                "snapshot writer finished early: {} tables / {} entries owed",
                self.tables_left, self.entries_left
            )));
        }
        self.out.flush()?;
        let crc = self.crc.finish();
        let len = self.payload_len;
        let file = self.out.get_mut();
        file.seek(SeekFrom::Start(SNAPSHOT_MAGIC.len() as u64))?;
        file.write_all(&crc.to_le_bytes())?;
        file.write_all(&len.to_le_bytes())?;
        file.sync_data()?;
        std::fs::rename(&self.tmp, &self.path)?;
        // Persist the rename itself where the platform allows it.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_data();
            }
        }
        Ok(())
    }
}

/// One item of a snapshot, in file order: each table, then its pairs in
/// key order.
pub enum Item<'a> {
    Table(TableId),
    Pair(&'a [u8], &'a [u8]),
}

/// Streams a snapshot, if one exists, through `visit` straight from the
/// file's bytes, so a reader that keeps the pairs copies each one once.
/// Returns the snapshot's `last_lsn`; `Ok(None)` means a fresh database.
/// The payload is checksummed before `visit` sees any of it, and it is
/// parsed with serbin's layout for [`Snapshot`] (see [`SnapshotWriter`]).
pub fn read_with(path: &Path, mut visit: impl FnMut(Item<'_>)) -> Result<Option<u64>> {
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    // Polled after the open so a fresh directory (no snapshot yet) does
    // not consume a recovery-fault trigger.
    faults::check_io(faults::RECOVERY_SCAN)?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;

    if data.len() < SNAPSHOT_MAGIC.len() + 4 + 8 {
        return Err(StoreError::Corrupt("snapshot shorter than header".into()));
    }
    if data.get(..SNAPSHOT_MAGIC.len()) != Some(&SNAPSHOT_MAGIC[..]) {
        return Err(StoreError::Corrupt("bad snapshot magic".into()));
    }
    let corrupt_header = || StoreError::Corrupt("snapshot header unreadable".into());
    let crc = data
        .get(8..)
        .and_then(crate::codec::read_le_u32)
        .ok_or_else(corrupt_header)?;
    let len = data
        .get(12..)
        .and_then(crate::codec::read_le_u64)
        .ok_or_else(corrupt_header)?;
    let mut rest = usize::try_from(len)
        .ok()
        .and_then(|len| data.get(20..)?.get(..len))
        .ok_or_else(|| StoreError::Corrupt("snapshot payload truncated".into()))?;
    if crc32(rest) != crc {
        return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
    }

    let last_lsn = take_varint(&mut rest)?;
    for _ in 0..take_varint(&mut rest)? {
        let table = u16::try_from(take_varint(&mut rest)?)
            .map_err(|_| StoreError::Corrupt("snapshot table id out of range".into()))?;
        visit(Item::Table(TableId(table)));
        for _ in 0..take_varint(&mut rest)? {
            let key = take_bytes(&mut rest)?;
            let value = take_bytes(&mut rest)?;
            visit(Item::Pair(key, value));
        }
    }
    if !rest.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the snapshot payload",
            rest.len()
        )));
    }
    Ok(Some(last_lsn))
}

/// Consumes one varint from the front of `rest`.
fn take_varint(rest: &mut &[u8]) -> Result<u64> {
    let (v, tail) = crate::codec::read_uvarint(rest)
        .ok_or_else(|| StoreError::Corrupt("snapshot payload truncated".into()))?;
    *rest = tail;
    Ok(v)
}

/// Consumes one length-prefixed byte string from the front of `rest`.
fn take_bytes<'a>(rest: &mut &'a [u8]) -> Result<&'a [u8]> {
    let len = take_varint(rest)?;
    let (bytes, tail) = usize::try_from(len)
        .ok()
        .and_then(|len| rest.split_at_checked(len))
        .ok_or_else(|| StoreError::Corrupt("snapshot payload truncated".into()))?;
    *rest = tail;
    Ok(bytes)
}

/// Reads a whole snapshot if one exists. `Ok(None)` means a fresh
/// database.
pub fn read(path: &Path) -> Result<Option<Snapshot>> {
    let mut tables: Vec<TableDump> = Vec::new();
    let last_lsn = read_with(path, |item| match item {
        Item::Table(table) => tables.push(TableDump {
            table,
            entries: Vec::new(),
        }),
        Item::Pair(k, v) => {
            if let Some(dump) = tables.last_mut() {
                dump.entries.push((k.to_vec(), v.to_vec()));
            }
        }
    })?;
    Ok(last_lsn.map(|last_lsn| Snapshot { last_lsn, tables }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;

    fn sample() -> Snapshot {
        Snapshot {
            last_lsn: 42,
            tables: vec![
                TableDump {
                    table: TableId(1),
                    entries: vec![
                        (b"a".to_vec(), b"1".to_vec()),
                        (b"b".to_vec(), b"2".to_vec()),
                    ],
                },
                TableDump {
                    table: TableId(9),
                    entries: vec![],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let dir = TestDir::new("snap-rt");
        let path = dir.path().join("db.snp");
        write(&path, &sample()).unwrap();
        let back = read(&path).unwrap().unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn streamed_snapshot_matches_write() {
        // The streaming writer hand-rolls serbin's layout; the two
        // producers must emit byte-identical files.
        let dir = TestDir::new("snap-stream");
        let snap = sample();
        let ref_path = dir.path().join("ref.snp");
        write(&ref_path, &snap).unwrap();

        let stream_path = dir.path().join("stream.snp");
        let mut w =
            SnapshotWriter::create(&stream_path, snap.last_lsn, snap.tables.len() as u64).unwrap();
        for dump in &snap.tables {
            w.begin_table(dump.table, dump.entries.len() as u64)
                .unwrap();
            for (k, v) in &dump.entries {
                w.entry(k, v).unwrap();
            }
        }
        w.finish().unwrap();

        assert_eq!(
            std::fs::read(&ref_path).unwrap(),
            std::fs::read(&stream_path).unwrap(),
            "streamed snapshot bytes diverged from the reference encoder"
        );
        assert_eq!(read(&stream_path).unwrap().unwrap(), snap);
    }

    #[test]
    fn snapshot_writer_enforces_declared_counts() {
        let dir = TestDir::new("snap-counts");
        let path = dir.path().join("db.snp");
        // Fewer tables than declared.
        let w = SnapshotWriter::create(&path, 1, 2).unwrap();
        assert!(w.finish().is_err());
        // More entries than declared.
        let mut w = SnapshotWriter::create(&path, 1, 1).unwrap();
        w.begin_table(TableId(1), 0).unwrap();
        assert!(w.entry(b"k", b"v").is_err());
        // Fewer entries than declared.
        let mut w = SnapshotWriter::create(&path, 1, 1).unwrap();
        w.begin_table(TableId(1), 2).unwrap();
        w.entry(b"k", b"v").unwrap();
        assert!(w.finish().is_err());
        // A failed stream never installs over the target path.
        assert!(read(&path).unwrap().is_none());
    }

    /// A payload whose checksum matches but whose layout is broken (a
    /// writer bug, not a torn write) is `Corrupt`, never a panic.
    #[test]
    fn malformed_payload_with_a_valid_checksum_is_corrupt() {
        let dir = TestDir::new("snap-malformed");
        let path = dir.path().join("db.snp");
        let valid = serbin::to_bytes(&sample()).unwrap();
        let mut short_table = Vec::new();
        for v in [1u64, 1, 5, 3, 2] {
            write_uvarint(&mut short_table, v);
        }
        let mut trailing = valid.clone();
        trailing.push(0);
        let mut huge_table_id = Vec::new();
        for v in [1u64, 1, 1 << 20, 0] {
            write_uvarint(&mut huge_table_id, v);
        }
        for payload in [short_table, trailing, huge_table_id, vec![0x80]] {
            let mut file = SNAPSHOT_MAGIC.to_vec();
            file.extend(crc32(&payload).to_le_bytes());
            file.extend((payload.len() as u64).to_le_bytes());
            file.extend(&payload);
            std::fs::write(&path, &file).unwrap();
            assert!(
                matches!(read(&path), Err(StoreError::Corrupt(_))),
                "payload {payload:?}"
            );
        }
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = TestDir::new("snap-none");
        assert!(read(&dir.path().join("db.snp")).unwrap().is_none());
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let dir = TestDir::new("snap-corrupt");
        let path = dir.path().join("db.snp");
        write(&path, &sample()).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(read(&path), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn leftover_tmp_file_does_not_shadow_snapshot() {
        let dir = TestDir::new("snap-tmp");
        let path = dir.path().join("db.snp");
        // A crash can leave a garbage temp file behind; a subsequent write
        // must still install atomically over it.
        std::fs::write(path.with_extension("snp.tmp"), b"garbage").unwrap();
        write(&path, &sample()).unwrap();
        assert_eq!(read(&path).unwrap().unwrap(), sample());
    }

    #[test]
    fn truncated_snapshot_is_corrupt_not_panic() {
        let dir = TestDir::new("snap-trunc");
        let path = dir.path().join("db.snp");
        write(&path, &sample()).unwrap();
        let data = std::fs::read(&path).unwrap();
        for cut in [0usize, 4, 10, data.len() / 2] {
            std::fs::write(&path, &data[..cut]).unwrap();
            assert!(read(&path).is_err(), "cut={cut}");
        }
    }
}

//! Write-ahead log with CRC-framed records and torn-tail recovery.
//!
//! On-disk layout: a fixed 8-byte file header (`magic || version`) followed
//! by frames of `[len: u32 LE][crc32(payload): u32 LE][payload]`. Recovery
//! scans frames until EOF or the first frame whose length or checksum is
//! invalid — that point is treated as a torn write (the classic ARIES-style
//! assumption for an append-only log) and the file is truncated there on the
//! next append.

use crate::codec::{crc32, read_le_u32, Crc32};
use crate::error::{Result, StoreError};
use crate::faults::{self, FaultFile};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// `ITAGWAL1` — identifies a WAL file and its format version.
pub const WAL_MAGIC: [u8; 8] = *b"ITAGWAL1";

/// Frame header size: length + checksum.
const FRAME_HEADER: usize = 8;

/// Appender half of the WAL. One writer exists per store.
///
/// The file sits behind a [`FaultFile`] so the `wal.append` fault site
/// can inject short writes, `EINTR`, and crash-at-byte-offset into the
/// byte stream (offsets count from the start of the file, magic
/// included) and `wal.sync` can fail the fsync.
pub struct Wal {
    writer: BufWriter<FaultFile>,
    path: PathBuf,
    /// Bytes of the file known to contain valid frames (header included).
    len: u64,
    appended_frames: u64,
}

fn wrap(file: File) -> FaultFile {
    FaultFile::new(file, faults::WAL_APPEND).with_sync_site(faults::WAL_SYNC)
}

impl Wal {
    /// Creates a fresh WAL at `path`, truncating any existing file.
    pub fn create(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut file = wrap(file);
        file.write_all(&WAL_MAGIC)?;
        file.flush()?;
        Ok(Wal {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            len: WAL_MAGIC.len() as u64,
            appended_frames: 0,
        })
    }

    /// Opens an existing WAL for appending after recovery decided that the
    /// first `valid_len` bytes hold intact frames. Anything after that point
    /// is a torn tail and is cut off.
    pub fn open_for_append(path: &Path, valid_len: u64) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = wrap(file);
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            len: valid_len,
            appended_frames: 0,
        })
    }

    /// Appends one frame. The frame is buffered; call [`Wal::sync`] to make
    /// it durable (the store decides based on its durability level).
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.append_parts(&[payload])
    }

    /// Appends one frame whose payload is `parts` joined, without joining
    /// them: the length and checksum are taken over the parts in order,
    /// so the frame is byte-identical to `append(&parts.concat())`.
    pub fn append_parts(&mut self, parts: &[&[u8]]) -> Result<()> {
        faults::check_io(faults::WAL_APPEND)?;
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let len = u32::try_from(total)
            .map_err(|_| StoreError::Codec("WAL frame larger than 4 GiB".into()))?;
        let mut crc = Crc32::new();
        for part in parts {
            crc.update(part);
        }
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(&crc.finish().to_le_bytes())?;
        for part in parts {
            self.writer.write_all(part)?;
        }
        self.len += (FRAME_HEADER + total) as u64;
        self.appended_frames += 1;
        Ok(())
    }

    /// Flushes buffered frames and fsyncs the file. This is the store's
    /// single fsync choke point, so it doubles as the lockcheck probe for
    /// "lock held across fsync" (see `parking_lot::lockcheck`).
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        parking_lot::lockcheck::note_fsync();
        Ok(())
    }

    /// Flushes buffered frames to the OS without fsync.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Total bytes written (valid prefix).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no frames have been written beyond the header.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Frames appended through this handle (diagnostics).
    pub fn appended_frames(&self) -> u64 {
        self.appended_frames
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Outcome of scanning a WAL file on startup.
pub struct WalScan {
    /// Intact frame payloads, in append order.
    pub frames: Vec<Vec<u8>>,
    /// Length of the valid prefix; the file should be truncated here before
    /// further appends.
    pub valid_len: u64,
    /// True when a torn tail was detected (and silently dropped).
    pub truncated_tail: bool,
}

/// Reads every intact frame from the WAL at `path`.
///
/// * A missing file yields an empty scan (fresh database).
/// * A bad magic header is a hard [`StoreError::Corrupt`] — the file is not
///   a WAL at all, and destroying it silently would lose someone's data.
/// * A torn final frame is expected after a crash and is dropped.
// lint: allow(panic-path)
pub fn scan(path: &Path) -> Result<WalScan> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                frames: Vec::new(),
                valid_len: WAL_MAGIC.len() as u64,
                truncated_tail: false,
            })
        }
        Err(e) => return Err(e.into()),
    };
    // Polled after the open so a fresh directory (no WAL yet) does not
    // consume a recovery-fault trigger.
    faults::check_io(faults::RECOVERY_SCAN)?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;

    if data.len() < WAL_MAGIC.len() {
        // File exists but even the header is torn: treat as empty.
        return Ok(WalScan {
            frames: Vec::new(),
            valid_len: WAL_MAGIC.len() as u64,
            truncated_tail: true,
        });
    }
    if data[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "{} is not an iTag WAL (bad magic)",
            path.display()
        )));
    }

    let mut frames = Vec::new();
    let mut offset = WAL_MAGIC.len();
    let mut truncated_tail = false;
    while offset < data.len() {
        if data.len() - offset < FRAME_HEADER {
            truncated_tail = true;
            break;
        }
        let (Some(len), Some(crc)) = (
            read_le_u32(&data[offset..]).map(|v| v as usize),
            read_le_u32(&data[offset + 4..]),
        ) else {
            // Unreachable given the FRAME_HEADER length check above, but
            // a short read is a torn tail, never a panic.
            truncated_tail = true;
            break;
        };
        let body_start = offset + FRAME_HEADER;
        if data.len() - body_start < len {
            truncated_tail = true;
            break;
        }
        let payload = &data[body_start..body_start + len];
        if crc32(payload) != crc {
            truncated_tail = true;
            break;
        }
        frames.push(payload.to_vec());
        offset = body_start + len;
    }

    Ok(WalScan {
        frames,
        valid_len: offset as u64,
        truncated_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;

    #[test]
    fn append_and_scan_roundtrip() {
        let dir = TestDir::new("wal-roundtrip");
        let path = dir.path().join("test.wal");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..100u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let scan = scan(&path).unwrap();
        assert_eq!(scan.frames.len(), 100);
        assert!(!scan.truncated_tail);
        for (i, frame) in scan.frames.iter().enumerate() {
            assert_eq!(frame.as_slice(), (i as u32).to_le_bytes());
        }
    }

    #[test]
    fn a_frame_appended_in_parts_equals_the_joined_frame() {
        let dir = TestDir::new("wal-parts");
        let (joined, parted) = (dir.path().join("joined.wal"), dir.path().join("parted.wal"));
        let parts: [&[u8]; 4] = [b"lsn", b"", b"ops", &[7; 9000]];
        let mut wal = Wal::create(&joined).unwrap();
        wal.append(&parts.concat()).unwrap();
        wal.sync().unwrap();
        let mut wal = Wal::create(&parted).unwrap();
        wal.append_parts(&parts).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.len(), 8 + 8 + 9006);
        assert_eq!(
            std::fs::read(&joined).unwrap(),
            std::fs::read(&parted).unwrap()
        );
    }

    #[test]
    fn missing_file_is_empty_scan() {
        let dir = TestDir::new("wal-missing");
        let scan = scan(&dir.path().join("nope.wal")).unwrap();
        assert!(scan.frames.is_empty());
        assert!(!scan.truncated_tail);
    }

    #[test]
    fn torn_tail_is_dropped_and_recovery_can_continue() {
        let dir = TestDir::new("wal-torn");
        let path = dir.path().join("test.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"frame-one").unwrap();
        wal.append(b"frame-two").unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Simulate a torn write: chop bytes off the final frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let s = scan(&path).unwrap();
        assert_eq!(s.frames.len(), 1);
        assert_eq!(s.frames[0], b"frame-one");
        assert!(s.truncated_tail);

        // Re-open for append at the valid prefix and write again.
        let mut wal = Wal::open_for_append(&path, s.valid_len).unwrap();
        wal.append(b"frame-three").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let s = scan(&path).unwrap();
        assert_eq!(s.frames.len(), 2);
        assert_eq!(s.frames[1], b"frame-three");
        assert!(!s.truncated_tail);
    }

    #[test]
    fn corrupt_frame_crc_truncates_from_that_frame() {
        let dir = TestDir::new("wal-crc");
        let path = dir.path().join("test.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"will-be-corrupted").unwrap();
        wal.append(b"unreachable").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte inside the second frame's payload.
        let second_payload_start = WAL_MAGIC.len() + FRAME_HEADER + 4 + FRAME_HEADER;
        data[second_payload_start] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let s = scan(&path).unwrap();
        assert_eq!(s.frames.len(), 1);
        assert!(s.truncated_tail);
    }

    #[test]
    fn bad_magic_is_hard_error() {
        let dir = TestDir::new("wal-magic");
        let path = dir.path().join("test.wal");
        std::fs::write(&path, b"NOTAWAL!extra-bytes-here").unwrap();
        assert!(matches!(scan(&path), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn empty_payload_frames_are_legal() {
        let dir = TestDir::new("wal-empty-frame");
        let path = dir.path().join("test.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"").unwrap();
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let s = scan(&path).unwrap();
        assert_eq!(s.frames.len(), 2);
        assert!(s.frames[0].is_empty());
    }
}

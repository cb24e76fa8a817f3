//! Low-level encoding utilities: a fast non-cryptographic hasher, CRC32
//! integrity checksums, and LEB128 variable-length integers.
//!
//! The hasher is the FxHash algorithm used by rustc (public domain): very
//! fast for the small integer keys that dominate iTag's hot maps (tag ids,
//! resource ids). HashDoS resistance is irrelevant here — all keys are
//! internally generated.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Multiplicative constant from the FxHash algorithm.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash hasher: `hash = (hash.rotl(5) ^ word) * SEED` per input word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    // lint: allow(panic-path)
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut buf = [0u8; 8];
            buf[..bytes.len()].copy_from_slice(bytes);
            self.add_to_hash(u64::from_le_bytes(buf));
            self.add_to_hash(bytes.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`]; the default map type across iTag.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

static CRC_TABLE: OnceLock<[u32; 256]> = OnceLock::new();

fn crc_table() -> &'static [u32; 256] {
    CRC_TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// Reads a little-endian `u32` from the front of `b`, or `None` when `b`
/// is too short. The file-format scanners use these instead of
/// slice-`try_into().unwrap()` so a short buffer is a recoverable
/// condition (torn tail, corrupt header) rather than a panic.
pub fn read_le_u32(b: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = b.get(..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Little-endian `u64` counterpart of [`read_le_u32`].
pub fn read_le_u64(b: &[u8]) -> Option<u64> {
    let arr: [u8; 8] = b.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(arr))
}

/// CRC-32 (IEEE 802.3 polynomial) over `data`. Used to frame WAL records and
/// snapshot payloads so torn or bit-rotted writes are detected on recovery.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Incremental CRC-32 over a byte stream; `update` in any chunking yields
/// the same digest as one-shot [`crc32`]. Lets the streaming snapshot
/// writer checksum while it writes instead of buffering the payload.
#[derive(Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    // lint: allow(panic-path)
    pub fn update(&mut self, data: &[u8]) {
        let table = crc_table();
        for &b in data {
            self.state = table[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// Appends `v` to `out` as an unsigned LEB128 varint (1–10 bytes).
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from the front of `input`, returning the
/// value and the remaining slice.
pub fn read_uvarint(input: &[u8]) -> Option<(u64, &[u8])> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if shift >= 64 {
            return None; // overlong encoding
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return input.get(i + 1..).map(|rest| (v, rest));
        }
        shift += 7;
    }
    None // truncated
}

/// Zig-zag maps a signed integer onto an unsigned one so small-magnitude
/// negatives stay short in varint form.
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn incremental_crc32_matches_one_shot_for_any_chunking() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expect = crc32(&data);
        for chunk in [1usize, 3, 7, 64, 999, 1000] {
            let mut c = Crc32::new();
            for part in data.chunks(chunk) {
                c.update(part);
            }
            assert_eq!(c.finish(), expect, "chunk size {chunk}");
        }
        assert_eq!(
            Crc32::new().finish(),
            0,
            "empty stream matches crc32(b\"\")"
        );
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for bit in 0..data.len() * 8 {
            let mut copy = data.clone();
            copy[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&copy), base, "bit {bit} flip undetected");
        }
    }

    #[test]
    fn uvarint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let (got, rest) = read_uvarint(&buf).unwrap();
            assert_eq!(got, v);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn uvarint_truncated_input_is_none() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(read_uvarint(&buf[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn fxhash_is_deterministic_and_spreads() {
        let mut h1 = FxHasher::default();
        h1.write_u64(42);
        let mut h2 = FxHasher::default();
        h2.write_u64(42);
        assert_eq!(h1.finish(), h2.finish());

        let mut seen = FxHashSet::default();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "collisions on sequential u64 keys");
    }

    proptest! {
        #[test]
        fn uvarint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let (got, rest) = read_uvarint(&buf).unwrap();
            prop_assert_eq!(got, v);
            prop_assert!(rest.is_empty());
        }

        #[test]
        fn zigzag_roundtrip(v in any::<i64>()) {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }

        #[test]
        fn zigzag_small_magnitudes_are_short(v in -64i64..64) {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, zigzag_encode(v));
            prop_assert_eq!(buf.len(), 1);
        }

        #[test]
        fn fxhash_bytes_matches_itself(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut a = FxHasher::default();
            a.write(&data);
            let mut b = FxHasher::default();
            b.write(&data);
            prop_assert_eq!(a.finish(), b.finish());
        }
    }
}

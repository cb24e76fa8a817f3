//! Vendored stand-in for the `bytes` crate.
//!
//! Only [`Bytes`] is provided: a cheaply clonable, immutable view of a
//! contiguous byte buffer. The buffer is one `Arc<[u8]>`; a `Bytes` is
//! that buffer plus an `(offset, length)` window onto it. Two properties
//! follow, and the store layer relies on both:
//!
//! * **Cloning copies a pointer, never the payload** ("monitors copy
//!   nothing").
//! * **[`Bytes::slice`] is zero-copy**: several views can share one
//!   buffer, so a key and its value can live in a single allocation that
//!   is written once and freed once. The buffer is freed when its last
//!   view drops.
//!
//! Equality, ordering and hashing look only at the viewed bytes, never at
//! which buffer holds them. A view addresses at most `u32::MAX` bytes
//! (its window is two `u32`s, which keeps a `Bytes` at 24 bytes);
//! building one from a longer buffer panics.

use std::hash::{Hash, Hasher};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable immutable byte buffer, or a window onto one.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<[u8]>,
    off: u32,
    len: u32,
}

/// `len` as a view length. Panics past `u32::MAX` (see the crate docs).
fn view_len(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(len) => len,
        Err(_) => panic!("Bytes views address at most u32::MAX bytes, got {len}"),
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from_arc(Arc::from(&[][..]))
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_arc(Arc::from(data))
    }

    /// Copies `head ++ tail` into one fresh buffer: one allocation and
    /// one copy of each part, with no staging buffer in between. Not in
    /// the upstream crate; the store lays each key and its value out in
    /// one buffer with it.
    pub fn concat(head: &[u8], tail: &[u8]) -> Self {
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, head.len() + tail.len()).collect();
        // A fresh `Arc` has no other owner, so `get_mut` always succeeds.
        if let Some(b) = Arc::get_mut(&mut buf) {
            let (h, t) = b.split_at_mut(head.len());
            h.copy_from_slice(head);
            t.copy_from_slice(tail);
        }
        Bytes::from_arc(buf)
    }

    fn from_arc(buf: Arc<[u8]>) -> Self {
        let len = view_len(buf.len());
        Bytes { buf, off: 0, len }
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the contents out into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// A view of `range` of this view, sharing its buffer: no bytes are
    /// copied and nothing is allocated.
    ///
    /// # Panics
    ///
    /// If the range is inverted or ends past `self.len()`, like slicing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "range {start}..{end} out of bounds of a {}-byte view",
            self.len()
        );
        Bytes {
            buf: Arc::clone(&self.buf),
            off: self.off + start as u32,
            len: (end - start) as u32,
        }
    }

    /// Splits the view in two at `at`: `self` keeps `[0, at)` and the
    /// returned view is `[at, len)`. Zero-copy, like [`Bytes::slice`].
    ///
    /// # Panics
    ///
    /// If `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Self {
        let tail = self.slice(at..);
        self.len = at as u32;
        tail
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let start = self.off as usize;
        &self.buf[start..start + self.len as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

/// Hashes exactly like `[u8]`, as `Borrow<[u8]>` requires.
impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_arc(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from_arc(Arc::from(v))
    }
}

/// Collects straight into the shared buffer: an iterator that knows its
/// exact length (a chain of copied slices, say) costs one allocation.
impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from_arc(iter.into_iter().collect())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self[..], f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn clone_is_shallow() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(Arc::strong_count(&a.buf), 2);
    }

    #[test]
    fn conversions() {
        let b = Bytes::from(&b"abc"[..]);
        assert_eq!(b.to_vec(), vec![b'a', b'b', b'c']);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[1..], b"bc");
    }

    #[test]
    fn concat_joins_both_parts_in_one_buffer() {
        let mut key = Bytes::concat(b"key", b"value");
        let value = key.split_off(3);
        assert_eq!((&key[..], &value[..]), (&b"key"[..], &b"value"[..]));
        assert!(Arc::ptr_eq(&key.buf, &value.buf));
        assert!(Bytes::concat(b"", b"").is_empty());
    }

    #[test]
    fn slices_share_one_buffer() {
        let pair: Bytes = b"key".iter().chain(b"value").copied().collect();
        let key = pair.slice(..3);
        let value = pair.slice(3..);
        assert_eq!(key, b"key"[..]);
        assert_eq!(value, b"value"[..]);
        assert_eq!(Arc::strong_count(&pair.buf), 3);
        assert_eq!(value.as_ptr(), pair[3..].as_ptr());
        let mut split = pair.clone();
        let tail = split.split_off(3);
        assert_eq!((split.as_ptr(), split.len()), (key.as_ptr(), key.len()));
        assert_eq!((tail.as_ptr(), tail.len()), (value.as_ptr(), value.len()));
        drop((split, tail));
        let inner = value.slice(1..=2);
        assert_eq!(inner, b"al"[..]);
        assert!(value.slice(5..).is_empty());
        drop(pair);
        drop(key);
        assert_eq!(Arc::strong_count(&value.buf), 2);
    }

    #[test]
    fn views_compare_and_hash_by_content() {
        let pair: Bytes = b"abab".iter().copied().collect();
        let (a, b) = (pair.slice(..2), pair.slice(2..));
        let fresh = Bytes::from(&b"ab"[..]);
        assert_eq!(a, b);
        assert_eq!(a, fresh);
        assert_eq!(hash_of(&a), hash_of(&fresh));
        assert_eq!(hash_of(&a), hash_of(&b"ab"[..]));
        assert!(pair.slice(..1) < a);
        assert_eq!(format!("{a:?}"), format!("{:?}", &b"ab"[..]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        Bytes::from(vec![1u8, 2]).slice(1..3);
    }
}

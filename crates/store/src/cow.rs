//! The page-shared copy-on-write ordered map behind every memtable
//! partition.
//!
//! A [`CowMap`] is an [`Arc`]'d sorted *directory* of [`Arc`]'d leaf
//! *pages*. Each page holds at most [`PAGE`] `(key, value)` pairs in key
//! order, and the pages cover ascending, disjoint key runs. An insert into
//! a full page splits it in two, or opens a new page when the key goes
//! past the page's last key; a page that empties is dropped.
//!
//! Costs, with `n` pairs in the map:
//!
//! * **Clone** — one refcount bump (the directory). An MVCC capture
//!   ([`crate::Store::read_snapshot`]) therefore stays `O(shards × tables)`.
//! * **Write, map uniquely owned** — copies nothing: the directory and the
//!   page are mutated in place.
//! * **Write while a clone is alive** — copies the directory (≈ `n / PAGE`
//!   page handles) and the one page the key lands on (≤ [`PAGE`] pair
//!   handles). Every other page stays shared with the clone. The count is
//!   returned to the caller, which surfaces it as
//!   [`crate::StoreStats::cow_pairs_copied`].
//!
//! A lookup is a binary search over the directory's first keys, then one
//! inside the page. Both arrays carry each key's first 8 bytes inline, so
//! a probe dereferences a key only when those bytes tie, and a directory
//! entry is a single handle (its page), which keeps the directory copy to
//! one refcount bump per page. The map never panics: every index is
//! checked.

use bytes::Bytes;
use std::cmp::Ordering;
use std::sync::Arc;

/// Maximum pairs per page. A copy under a live clone touches at most this
/// many pair handles plus the directory.
pub(crate) const PAGE: usize = 128;

/// A key's first 8 bytes, big-endian and zero-padded. If `a < b` then
/// `prefix(a) <= prefix(b)`, so unequal prefixes order their keys.
fn prefix(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    for (d, s) in buf.iter_mut().zip(key) {
        *d = *s;
    }
    u64::from_be_bytes(buf)
}

/// A key being searched for, with its prefix computed once.
#[derive(Clone, Copy)]
struct Probe<'k> {
    prefix: u64,
    key: &'k [u8],
}

impl<'k> Probe<'k> {
    fn new(key: &'k [u8]) -> Self {
        Probe {
            prefix: prefix(key),
            key,
        }
    }

    /// How a stored slot orders against this key.
    fn vs(self, slot: &Slot) -> Ordering {
        slot.prefix
            .cmp(&self.prefix)
            .then_with(|| slot.key.as_ref().cmp(self.key))
    }
}

/// One stored pair, with its key's prefix inline.
#[derive(Clone)]
struct Slot {
    prefix: u64,
    key: Bytes,
    value: Bytes,
}

type Page = Arc<Vec<Slot>>;

/// One directory entry: a page and the prefix of its first key.
#[derive(Clone)]
struct Entry {
    prefix: u64,
    page: Page,
}

impl Entry {
    fn new(page: Vec<Slot>) -> Self {
        Entry {
            prefix: page.first().map_or(0, |s| s.prefix),
            page: Arc::new(page),
        }
    }

    /// How this page's first key orders against `probe`.
    fn vs(&self, probe: Probe<'_>) -> Ordering {
        self.prefix.cmp(&probe.prefix).then_with(|| {
            let first = self.page.first().map_or(&[][..], |s| s.key.as_ref());
            first.cmp(probe.key)
        })
    }
}

/// An ordered `Bytes → Bytes` map with page-grained copy-on-write (see the
/// module docs). Pages are never empty.
#[derive(Clone, Default)]
pub(crate) struct CowMap {
    pages: Arc<Vec<Entry>>,
    len: usize,
}

/// Index of the page whose key run could hold `probe`: the last page whose
/// first key is `<= probe`, or 0 when it sorts before every page.
fn page_for(pages: &[Entry], probe: Probe<'_>) -> usize {
    pages
        .partition_point(|e| e.vs(probe).is_le())
        .saturating_sub(1)
}

/// Where `probe` is, or would be inserted, in `page`.
fn search(page: &[Slot], probe: Probe<'_>) -> Result<usize, usize> {
    page.binary_search_by(|s| probe.vs(s))
}

/// Unshares the directory, adding the handles copied to `copied`.
fn dir_mut<'a>(pages: &'a mut Arc<Vec<Entry>>, copied: &mut usize) -> &'a mut Vec<Entry> {
    if Arc::get_mut(pages).is_none() {
        *copied += pages.len();
    }
    Arc::make_mut(pages)
}

/// Unshares one page, adding the pair handles copied to `copied`. A copy
/// gets a power-of-two capacity no larger than [`PAGE`], like a page grown
/// in place, so a later insert cannot blow it past a page's footprint.
fn page_mut<'a>(slot: &'a mut Page, copied: &mut usize) -> &'a mut Vec<Slot> {
    if Arc::get_mut(slot).is_none() {
        let mut fresh = Vec::with_capacity((slot.len() + 1).next_power_of_two().min(PAGE));
        fresh.extend(slot.iter().cloned());
        *copied += fresh.len();
        *slot = Arc::new(fresh);
    }
    Arc::make_mut(slot)
}

impl CowMap {
    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&Bytes> {
        let probe = Probe::new(key);
        let page = &self.pages.get(page_for(&self.pages, probe))?.page;
        let i = search(page, probe).ok()?;
        page.get(i).map(|s| &s.value)
    }

    /// True if `key` is present.
    pub(crate) fn contains_key(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// The largest key.
    pub(crate) fn last_key(&self) -> Option<&Bytes> {
        self.pages
            .last()
            .and_then(|e| e.page.last())
            .map(|s| &s.key)
    }

    /// Every pair, in key order.
    pub(crate) fn iter(&self) -> Range<'_> {
        self.range(&[], None)
    }

    /// Pairs with keys in `[from, to)` (`to = None` means unbounded), in
    /// key order. An empty or inverted interval yields nothing.
    pub(crate) fn range(&self, from: &[u8], to: Option<&[u8]>) -> Range<'_> {
        let (page, pos) = self.seek(from);
        let end = match to {
            Some(to) => self.seek(to),
            None => (self.pages.len(), 0),
        };
        Range {
            pages: &self.pages,
            page,
            pos,
            end,
        }
    }

    /// Position `(page, index)` of the first key `>= key`, normalized so
    /// that the index is inside the page or the page is one past the end.
    fn seek(&self, key: &[u8]) -> (usize, usize) {
        let probe = Probe::new(key);
        let p = page_for(&self.pages, probe);
        match self.pages.get(p).map(|e| &e.page) {
            Some(page) => {
                let i = page.partition_point(|s| probe.vs(s).is_lt());
                if i < page.len() {
                    (p, i)
                } else {
                    (p + 1, 0)
                }
            }
            None => (self.pages.len(), 0),
        }
    }

    /// Inserts `key → value`, overwriting any previous value. Returns how
    /// many handles were copied to unshare the directory and the page (0
    /// when the map is uniquely owned).
    pub(crate) fn insert(&mut self, key: Bytes, value: Bytes) -> usize {
        let mut copied = 0;
        let slot = Slot {
            prefix: prefix(&key),
            key,
            value,
        };
        let probe = Probe {
            prefix: slot.prefix,
            key: &slot.key,
        };
        let pages = dir_mut(&mut self.pages, &mut copied);
        let p = page_for(pages, probe);
        let Some(entry) = pages.get_mut(p) else {
            // Empty map: open the first page.
            pages.push(Entry::new(vec![slot]));
            self.len += 1;
            return copied;
        };
        let page = page_mut(&mut entry.page, &mut copied);
        let i = match search(page, probe) {
            Ok(i) => {
                if let Some(old) = page.get_mut(i) {
                    old.value = slot.value;
                }
                return copied;
            }
            Err(i) => i,
        };
        self.len += 1;
        if i == 0 {
            // Only the first page can take a key below its first key.
            entry.prefix = slot.prefix;
        }
        if page.len() < PAGE {
            page.insert(i, slot);
            return copied;
        }
        // The page is full. Past its last key (an ascending load, or
        // appends at the end of one key range) open a fresh page after it,
        // so sequential keys pack full pages; anywhere else split the
        // page in half.
        let new_page = if i == page.len() {
            vec![slot]
        } else {
            let mut right = page.split_off(PAGE / 2);
            if i <= PAGE / 2 {
                page.insert(i, slot);
            } else {
                right.insert(i - PAGE / 2, slot);
            }
            right
        };
        pages.insert(p + 1, Entry::new(new_page));
        copied
    }

    /// Removes `key`. Returns how many handles were copied to unshare the
    /// directory and the page; a miss copies nothing.
    pub(crate) fn remove(&mut self, key: &[u8]) -> usize {
        let probe = Probe::new(key);
        let p = page_for(&self.pages, probe);
        let Some((i, page_len)) = self
            .pages
            .get(p)
            .and_then(|e| search(&e.page, probe).ok().map(|i| (i, e.page.len())))
        else {
            return 0;
        };
        let mut copied = 0;
        let pages = dir_mut(&mut self.pages, &mut copied);
        if page_len == 1 {
            pages.remove(p);
        } else if let Some(entry) = pages.get_mut(p) {
            let page = page_mut(&mut entry.page, &mut copied);
            page.remove(i);
            if let (0, Some(first)) = (i, page.first()) {
                entry.prefix = first.prefix;
            }
        }
        self.len -= 1;
        copied
    }
}

/// In-order iterator over a [`CowMap`] interval (see [`CowMap::range`]).
pub(crate) struct Range<'a> {
    pages: &'a [Entry],
    page: usize,
    pos: usize,
    /// Exclusive end position, normalized like [`CowMap::seek`].
    end: (usize, usize),
}

impl<'a> Iterator for Range<'a> {
    type Item = (&'a Bytes, &'a Bytes);

    fn next(&mut self) -> Option<Self::Item> {
        if (self.page, self.pos) >= self.end {
            return None;
        }
        let page = &self.pages.get(self.page)?.page;
        let slot = page.get(self.pos)?;
        self.pos += 1;
        if self.pos >= page.len() {
            self.page += 1;
            self.pos = 0;
        }
        Some((&slot.key, &slot.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    type Oracle = BTreeMap<Vec<u8>, Vec<u8>>;

    fn key(k: u16) -> Vec<u8> {
        k.to_be_bytes().to_vec()
    }

    /// Keys of 2 to 15 bytes, many sharing their first 8 bytes or
    /// differing only by a trailing zero, so the inline prefixes tie and
    /// the full-key comparison decides. Injective in `k`.
    fn mixed_key(k: u16) -> Vec<u8> {
        let mut v = vec![b'p'; (k % 4) as usize * 4];
        v.extend(k.to_be_bytes());
        if k.is_multiple_of(5) {
            v.push(0);
        }
        v
    }

    fn pairs(it: Range<'_>) -> Vec<(Vec<u8>, Vec<u8>)> {
        it.map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }

    fn oracle_range(o: &Oracle, from: &[u8], to: Option<&[u8]>) -> Vec<(Vec<u8>, Vec<u8>)> {
        o.iter()
            .filter(|(k, _)| k.as_slice() >= from && to.is_none_or(|t| k.as_slice() < t))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Checks `m` against `o` on every read the memtable uses, plus the
    /// structural invariants (no empty or overfull page, ascending runs).
    fn check(m: &CowMap, o: &Oracle) {
        assert_eq!(m.len(), o.len());
        assert_eq!(pairs(m.iter()), oracle_range(o, &[], None));
        assert_eq!(
            m.last_key().map(|k| k.to_vec()),
            o.keys().next_back().cloned()
        );
        let mut prev: Option<&Bytes> = None;
        for entry in m.pages.iter() {
            let page = &entry.page;
            assert_eq!(page.first().map(|s| s.prefix), Some(entry.prefix));
            assert!(
                !page.is_empty() && page.len() <= PAGE,
                "page size {}",
                page.len()
            );
            assert!(page.capacity() <= PAGE, "page capacity {}", page.capacity());
            for s in page.iter() {
                assert_eq!(s.prefix, prefix(&s.key));
                assert!(prev.is_none_or(|p| *p < s.key), "keys out of order");
                prev = Some(&s.key);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        Put(u16, u8),
        Del(u16),
        Scan(u16, Option<u16>),
        Clone,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => (0u16..1500, any::<u8>()).prop_map(|(k, v)| Step::Put(k, v)),
            3 => (0u16..1500).prop_map(Step::Del),
            1 => (0u16..1600, prop::option::of(0u16..1600)).prop_map(|(a, b)| Step::Scan(a, b)),
            1 => Just(Step::Clone),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random puts, deletes and range scans against a `BTreeMap`
        /// oracle, with clones taken at random points: every clone keeps
        /// reading exactly the contents it was taken with while the
        /// original moves on (snapshot isolation).
        #[test]
        fn matches_btreemap_and_clones_stay_frozen(
            steps in prop::collection::vec(arb_step(), 1..3000),
        ) {
            let mut m = CowMap::default();
            let mut o = Oracle::new();
            let mut frozen: Vec<(CowMap, Oracle)> = Vec::new();
            for step in steps {
                match step {
                    Step::Put(k, v) => {
                        m.insert(Bytes::from(mixed_key(k)), Bytes::from(vec![v]));
                        o.insert(mixed_key(k), vec![v]);
                    }
                    Step::Del(k) => {
                        m.remove(&mixed_key(k));
                        o.remove(&mixed_key(k));
                        prop_assert!(!m.contains_key(&mixed_key(k)));
                    }
                    Step::Scan(a, b) => {
                        let to = b.map(mixed_key);
                        prop_assert_eq!(
                            pairs(m.range(&mixed_key(a), to.as_deref())),
                            oracle_range(&o, &mixed_key(a), to.as_deref())
                        );
                        prop_assert_eq!(m.get(&mixed_key(a)).map(|v| v.to_vec()), o.get(&mixed_key(a)).cloned());
                    }
                    Step::Clone => frozen.push((m.clone(), o.clone())),
                }
            }
            check(&m, &o);
            for (snap, at) in &frozen {
                check(snap, at);
            }
        }
    }

    #[test]
    fn uniquely_owned_writes_copy_nothing() {
        let mut m = CowMap::default();
        for k in 0..5_000u16 {
            assert_eq!(m.insert(Bytes::from(key(k)), Bytes::from(vec![1])), 0);
        }
        assert_eq!(m.remove(&key(7)), 0);
        assert_eq!(m.insert(Bytes::from(key(9)), Bytes::from(vec![2])), 0);
    }

    #[test]
    fn a_write_under_a_clone_copies_the_directory_and_one_page() {
        let mut m = CowMap::default();
        for k in 0..20_000u16 {
            m.insert(Bytes::from(key(k)), Bytes::from(vec![1]));
        }
        // Ascending loads pack full pages.
        assert_eq!(m.pages.len(), 20_000 / PAGE + 1);
        let snap = m.clone();
        let copied = m.insert(Bytes::from(key(12_345)), Bytes::from(vec![2]));
        assert!(
            copied > 0 && copied <= m.pages.len() + PAGE,
            "copied {copied}"
        );
        // Only the touched page was unshared.
        let shared = m
            .pages
            .iter()
            .zip(snap.pages.iter())
            .filter(|(a, b)| Arc::ptr_eq(&a.page, &b.page))
            .count();
        assert_eq!(shared, m.pages.len() - 1);
        assert_eq!(snap.get(&key(12_345)).map(|v| v.to_vec()), Some(vec![1]));
        assert_eq!(m.get(&key(12_345)).map(|v| v.to_vec()), Some(vec![2]));
        // A miss under a clone copies nothing; the second write to the
        // now-private page copies only the (private) directory — nothing.
        assert_eq!(m.remove(&key(60_000)), 0);
        assert_eq!(m.insert(Bytes::from(key(12_346)), Bytes::from(vec![3])), 0);
    }

    #[test]
    fn emptied_pages_are_dropped() {
        let mut m = CowMap::default();
        for k in 0..1_000u16 {
            m.insert(Bytes::from(key(k)), Bytes::from(vec![1]));
        }
        for k in 0..1_000u16 {
            m.remove(&key(k));
        }
        assert_eq!(m.len(), 0);
        assert!(m.pages.is_empty());
        assert!(m.last_key().is_none());
        assert_eq!(m.iter().count(), 0);
    }
}

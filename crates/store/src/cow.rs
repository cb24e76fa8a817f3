//! The page-shared copy-on-write ordered map behind every memtable
//! partition.
//!
//! A [`CowMap`] is an [`Arc`]'d sorted *directory* of [`Arc`]'d leaf
//! *pages*. Each page is one allocation holding at most [`PAGE`]
//! `(key, value)` pairs in key order, and the pages cover ascending,
//! disjoint key runs. An insert into a full page splits it in two, or
//! opens a new page when the key goes past the page's last key; a page
//! that empties is dropped.
//!
//! Costs, with `n` pairs in the map:
//!
//! * **Clone** — one refcount bump (the directory). An MVCC capture
//!   ([`crate::Store::read_snapshot`]) therefore stays `O(shards × tables)`.
//! * **Append** (a key past the map's last key: ordered loads such as
//!   population seeding and checkpoint recovery) — no directory search,
//!   no page search, no split. The pair goes onto the last page, or onto
//!   a fresh page allocated at full [`PAGE`] capacity, so an ordered load
//!   packs full pages and allocates one page per [`PAGE`] pairs.
//! * **Write, map uniquely owned** — copies nothing: the directory and the
//!   page are mutated in place. An overwrite replaces the key and the
//!   value together, so when the store keeps both as views of one buffer
//!   the overwritten pair's buffer is released with it.
//! * **Write while a clone is alive** — copies the directory (≈ `n / PAGE`
//!   page handles) and the one page the key lands on (≤ [`PAGE`] pair
//!   handles). Every other page stays shared with the clone. The count is
//!   returned to the caller, which surfaces it as
//!   [`crate::StoreStats::cow_pairs_copied`].
//!
//! Pair bytes are never copied by the map: keys and values are [`Bytes`]
//! handles. A lookup is a binary search over the directory's first keys,
//! then one inside the page. Both arrays carry each key's first 8 bytes
//! inline, so a probe dereferences a key only when those bytes tie, and a
//! directory entry is a single handle (its page), which keeps the
//! directory copy to one refcount bump per page. The map never panics:
//! every index is checked.

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

/// A page's slot array in one allocation: its pairs in key order, then
/// `None` spare capacity. The array's length is the page's capacity; the
/// pair count lives in the directory [`Entry`].
type Page = Arc<[Option<Slot>]>;

/// A page of capacity `cap` holding `slots` (at most `cap` of them),
/// allocated once: every piece of the iterator knows its length, so the
/// `Arc` is sized up front and filled in place.
fn new_page(cap: usize, slots: impl Iterator<Item = Option<Slot>>) -> Page {
    slots
        .chain(std::iter::repeat_with(|| None))
        .take(cap)
        .collect()
}

/// One directory entry: a page, its pair count and the prefix of its
/// first key.
#[derive(Clone)]
struct Entry {
    prefix: u64,
    len: usize,
    page: Page,
}

impl Entry {
    /// A fresh page at full capacity holding just `slot`.
    fn fresh(slot: Slot) -> Self {
        Entry {
            prefix: slot.prefix,
            len: 1,
            page: new_page(PAGE, std::iter::once(Some(slot))),
        }
    }

    /// The occupied slots (all `Some`), in key order.
    fn slots(&self) -> &[Option<Slot>] {
        self.page.get(..self.len).unwrap_or_default()
    }

    fn slot(&self, i: usize) -> Option<&Slot> {
        self.slots().get(i)?.as_ref()
    }

    fn last(&self) -> Option<&Slot> {
        self.slots().last()?.as_ref()
    }

    /// How this page's first key orders against `probe`.
    fn vs(&self, probe: Probe<'_>) -> Ordering {
        self.prefix.cmp(&probe.prefix).then_with(|| {
            let first = self.slot(0).map_or(&[][..], |s| s.key.as_ref());
            first.cmp(probe.key)
        })
    }

    /// Where `probe` is, or would be inserted, in this page.
    fn search(&self, probe: Probe<'_>) -> Result<usize, usize> {
        self.slots().binary_search_by(|s| match s {
            Some(s) => probe.vs(s),
            None => Ordering::Greater,
        })
    }

    /// The page's slot array, unshared and with room for at least `need`
    /// pairs. A shared page is copied, adding the pair handles copied to
    /// `copied`. A page that is too small is regrown to the next power of
    /// two, capped at [`PAGE`], like a vector grown in place (moving its
    /// pairs when it is private), so a page never outgrows a page's
    /// footprint.
    fn writable(&mut self, need: usize, copied: &mut usize) -> &mut [Option<Slot>] {
        let len = self.len;
        if self.page.len() < need {
            let cap = need.next_power_of_two().min(PAGE).max(need);
            self.page = match Arc::get_mut(&mut self.page) {
                Some(slots) => new_page(cap, slots.iter_mut().take(len).map(Option::take)),
                None => {
                    *copied += len;
                    new_page(cap, self.slots().iter().cloned())
                }
            };
        }
        // One uniqueness check: `make_mut` copies a shared page (same
        // capacity) and leaves a private one where it is.
        let before = Arc::as_ptr(&self.page);
        let slots = Arc::make_mut(&mut self.page);
        if !std::ptr::eq(before, slots) {
            *copied += len;
        }
        slots
    }

    /// Inserts `slot` at index `i`; the page must have a free slot.
    fn insert(&mut self, i: usize, slot: Slot, copied: &mut usize) {
        let len = self.len;
        if i == 0 {
            self.prefix = slot.prefix;
        }
        let slots = self.writable(len + 1, copied);
        if let Some(run) = slots.get_mut(i..=len) {
            if let Some(free) = run.last_mut() {
                *free = Some(slot);
            }
            if i < len {
                run.rotate_right(1);
            }
            self.len += 1;
        }
    }

    /// Removes the pair at index `i`.
    fn remove(&mut self, i: usize, copied: &mut usize) {
        let len = self.len;
        let slots = self.writable(len, copied);
        if let Some(run) = slots.get_mut(i..len) {
            run.rotate_left(1);
            if let Some(last) = run.last_mut() {
                *last = None;
            }
            self.len -= 1;
        }
        if let Some(first) = self.slot(0) {
            self.prefix = first.prefix;
        }
    }

    /// Moves the upper half of this full page into a new page of full
    /// capacity, returned as its own entry.
    fn split(&mut self, copied: &mut usize) -> Entry {
        let len = self.len;
        let slots = self.writable(len, copied);
        let upper = slots.get_mut(PAGE / 2..len).unwrap_or_default();
        let right = new_page(PAGE, upper.iter_mut().map(Option::take));
        self.len = PAGE / 2;
        let mut entry = Entry {
            prefix: 0,
            len: len - PAGE / 2,
            page: right,
        };
        entry.prefix = entry.slot(0).map_or(0, |s| s.prefix);
        entry
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

/// Unshares the directory, adding the handles copied to `copied`.
fn dir_mut<'a>(pages: &'a mut Arc<Vec<Entry>>, copied: &mut usize) -> &'a mut Vec<Entry> {
    let (before, len) = (Arc::as_ptr(pages), pages.len());
    let dir = Arc::make_mut(pages);
    if !std::ptr::eq(before, dir) {
        *copied += len;
    }
    dir
}

impl CowMap {
    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&Bytes> {
        let probe = Probe::new(key);
        let entry = self.pages.get(page_for(&self.pages, probe))?;
        let i = entry.search(probe).ok()?;
        entry.slot(i).map(|s| &s.value)
    }

    /// True if `key` is present.
    pub(crate) fn contains_key(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// The largest key.
    pub(crate) fn last_key(&self) -> Option<&Bytes> {
        self.pages.last().and_then(Entry::last).map(|s| &s.key)
    }

    /// Every pair, in key order.
    #[cfg(test)]
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
        match self.pages.get(p) {
            Some(entry) => {
                let i = entry
                    .slots()
                    .partition_point(|s| s.as_ref().is_some_and(|s| probe.vs(s).is_lt()));
                if i < entry.len {
                    (p, i)
                } else {
                    (p + 1, 0)
                }
            }
            None => (self.pages.len(), 0),
        }
    }

    /// Inserts `key → value`, replacing both the key and the value of an
    /// existing pair. Returns how many handles were copied to unshare the
    /// directory and the page (0 when the map is uniquely owned).
    pub(crate) fn insert(&mut self, key: Bytes, value: Bytes) -> usize {
        let slot = Slot {
            prefix: prefix(&key),
            key,
            value,
        };
        let probe = Probe {
            prefix: slot.prefix,
            key: &slot.key,
        };
        let past_end = self
            .pages
            .last()
            .and_then(Entry::last)
            .is_none_or(|last| probe.vs(last).is_lt());
        if past_end {
            return self.append(slot);
        }
        let mut copied = 0;
        let pages = dir_mut(&mut self.pages, &mut copied);
        let p = page_for(pages, probe);
        let Some(entry) = pages.get_mut(p) else {
            return copied;
        };
        let i = match entry.search(probe) {
            Ok(i) => {
                let len = entry.len;
                if let Some(old) = entry.writable(len, &mut copied).get_mut(i) {
                    *old = Some(slot);
                }
                return copied;
            }
            Err(i) => i,
        };
        self.len += 1;
        if entry.len < PAGE {
            entry.insert(i, slot, &mut copied);
            return copied;
        }
        // The page is full. Past its last key (appends at the end of one
        // key range) open a fresh page after it; anywhere else split the
        // page in half.
        let new_entry = if i == entry.len {
            Entry::fresh(slot)
        } else {
            let mut right = entry.split(&mut copied);
            if i <= PAGE / 2 {
                entry.insert(i, slot, &mut copied);
            } else {
                right.insert(i - PAGE / 2, slot, &mut copied);
            }
            right
        };
        pages.insert(p + 1, new_entry);
        copied
    }

    /// The append path of [`CowMap::insert`]: `slot`'s key sorts after
    /// every key in the map.
    fn append(&mut self, slot: Slot) -> usize {
        let mut copied = 0;
        let pages = dir_mut(&mut self.pages, &mut copied);
        self.len += 1;
        match pages.last_mut() {
            Some(last) if last.len < PAGE => {
                let i = last.len;
                last.insert(i, slot, &mut copied);
            }
            _ => pages.push(Entry::fresh(slot)),
        }
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
            .and_then(|e| e.search(probe).ok().map(|i| (i, e.len)))
        else {
            return 0;
        };
        let mut copied = 0;
        let pages = dir_mut(&mut self.pages, &mut copied);
        if page_len == 1 {
            pages.remove(p);
        } else if let Some(entry) = pages.get_mut(p) {
            entry.remove(i, &mut copied);
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

/// A pair with its key's inline prefix: ordering by `(prefix, key)` is
/// key order, and decides on the prefix alone unless prefixes tie.
pub(crate) type Prefixed<'a> = (u64, &'a Bytes, &'a Bytes);

impl<'a> Range<'a> {
    /// The next pair with its key's prefix, for merging the ranges of
    /// several maps.
    pub(crate) fn next_prefixed(&mut self) -> Option<Prefixed<'a>> {
        if (self.page, self.pos) >= self.end {
            return None;
        }
        let entry = self.pages.get(self.page)?;
        let slot = entry.slot(self.pos)?;
        self.pos += 1;
        if self.pos >= entry.len {
            self.page += 1;
            self.pos = 0;
        }
        Some((slot.prefix, &slot.key, &slot.value))
    }
}

impl<'a> Iterator for Range<'a> {
    type Item = (&'a Bytes, &'a Bytes);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_prefixed().map(|(_, k, v)| (k, v))
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
            assert_eq!(entry.slot(0).map(|s| s.prefix), Some(entry.prefix));
            assert!(
                entry.len >= 1 && entry.len <= entry.page.len(),
                "page size {} of capacity {}",
                entry.len,
                entry.page.len()
            );
            assert!(
                entry.page.len() <= PAGE,
                "page capacity {}",
                entry.page.len()
            );
            assert!(
                entry.page.iter().skip(entry.len).all(Option::is_none),
                "a pair past the page's count"
            );
            for s in entry.slots() {
                let s = s.as_ref().expect("occupied slot");
                assert_eq!(s.prefix, prefix(&s.key));
                assert!(prev.is_none_or(|p| *p < s.key), "keys out of order");
                prev = Some(&s.key);
            }
        }
    }

    /// The copy bound of one write: the directory plus one page.
    fn assert_copy_bound(copied: usize, m: &CowMap) {
        let bound = m.pages.len() + PAGE;
        assert!(copied <= bound, "a write copied {copied} handles > {bound}");
    }

    #[derive(Debug, Clone)]
    enum Step {
        Put(u16, u8),
        /// `len` puts of ascending keys from `from` (an ordered load).
        Run(u16, u16),
        Del(u16),
        Scan(u16, Option<u16>),
        Clone,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            6 => (0u16..1500, any::<u8>()).prop_map(|(k, v)| Step::Put(k, v)),
            1 => (0u16..1500, 1u16..64).prop_map(|(k, n)| Step::Run(k, n)),
            3 => (0u16..1500).prop_map(Step::Del),
            1 => (0u16..1600, prop::option::of(0u16..1600)).prop_map(|(a, b)| Step::Scan(a, b)),
            1 => Just(Step::Clone),
        ]
    }

    /// Keys of ordered runs: ascending in `k`, and after every
    /// [`mixed_key`] of the same `k` range, so a run past the map's last
    /// key takes the append path while a run into the middle of earlier
    /// runs splits pages.
    fn run_key(k: u16) -> Vec<u8> {
        let mut v = b"r".to_vec();
        v.extend(k.to_be_bytes());
        v
    }

    /// Applies one put to the map and the oracle, checking that while a
    /// clone is alive the write copies at most the directory and one page.
    fn put(m: &mut CowMap, o: &mut Oracle, key: Vec<u8>, v: u8) {
        let copied = m.insert(Bytes::from(key.clone()), Bytes::from(vec![v]));
        assert_copy_bound(copied, m);
        o.insert(key, vec![v]);
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
                    Step::Put(k, v) => put(&mut m, &mut o, mixed_key(k), v),
                    Step::Run(from, len) => {
                        for k in from..from.saturating_add(len).min(1500) {
                            put(&mut m, &mut o, run_key(k), k as u8);
                        }
                    }
                    Step::Del(k) => {
                        for key in [mixed_key(k), run_key(k)] {
                            assert_copy_bound(m.remove(&key), &m);
                            o.remove(&key);
                            prop_assert!(!m.contains_key(&key));
                        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// An ordered load in runs, with clones taken between random runs:
        /// every append under a live clone copies at most the directory
        /// of full pages and the last page — `n / PAGE + PAGE` handles
        /// for `n` pairs — the load packs full pages, and every clone
        /// keeps reading what it was taken with.
        #[test]
        fn ascending_loads_pack_pages_and_copy_one_page_under_a_clone(
            runs in prop::collection::vec((1usize..700, any::<bool>()), 1..40),
        ) {
            let mut m = CowMap::default();
            let mut o = Oracle::new();
            let mut frozen: Vec<(CowMap, Oracle)> = Vec::new();
            let mut next = 0u32;
            for (len, clone_after) in runs {
                for _ in 0..len {
                    let key = next.to_be_bytes().to_vec();
                    next += 1;
                    let n = m.len();
                    let copied = m.insert(Bytes::from(key.clone()), Bytes::from(vec![1]));
                    prop_assert!(
                        copied <= n / PAGE + PAGE,
                        "an append into {} pairs copied {} handles", n, copied
                    );
                    o.insert(key, vec![1]);
                }
                if clone_after {
                    frozen.push((m.clone(), o.clone()));
                }
            }
            prop_assert_eq!(m.pages.len(), m.len().div_ceil(PAGE));
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

    /// An overwrite replaces the key handle too, so a pair stored as two
    /// views of one buffer never keeps an overwritten buffer alive.
    #[test]
    fn an_overwrite_replaces_both_views() {
        let views = |k: &[u8], v: &[u8]| {
            let mut key: Bytes = k.iter().chain(v).copied().collect();
            let value = key.split_off(k.len());
            (key, value)
        };
        let mut m = CowMap::default();
        let (k1, v1) = views(b"key", b"old");
        m.insert(k1, v1);
        let (k2, v2) = views(b"key", b"new");
        let (k2_ptr, v2_ptr) = (k2.as_ptr(), v2.as_ptr());
        m.insert(k2, v2);
        let (key, value) = m.iter().next().unwrap();
        assert_eq!((key.as_ptr(), value.as_ptr()), (k2_ptr, v2_ptr));
        assert_eq!(m.len(), 1);
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

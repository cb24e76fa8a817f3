//! Copy-on-write containers behind O(pages) snapshot captures.
//!
//! [`crate::engine::ITagEngine::snapshot`] runs under the engine lock on
//! every dashboard read that follows a write, so what it copies per
//! project must not grow with the campaign. Both containers here clone in
//! a handful of `Arc` bumps and pay for sharing on the writer's side, once
//! per piece touched after a capture — the scheme `itag_store::cow::CowMap`
//! uses for memtables.

use std::sync::Arc;

/// Entries per [`PagedVec`] page.
const PAGE: usize = 64;
/// Points per sealed [`Series`] chunk.
const CHUNK: usize = 256;

/// A fixed-length vector of `Arc`-shared entries in `Arc`-shared pages.
/// A clone copies one pointer per page. The first write to an entry after
/// a clone copies that entry's page of pointers and the entry itself;
/// later writes to it are in place.
#[derive(Debug, Clone, Default)]
pub struct PagedVec<T> {
    pages: Vec<Arc<Vec<Arc<T>>>>,
}

impl<T> FromIterator<T> for PagedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut pages = Vec::new();
        let mut page = Vec::with_capacity(PAGE);
        for item in items {
            page.push(Arc::new(item));
            if page.len() == PAGE {
                pages.push(Arc::new(std::mem::replace(
                    &mut page,
                    Vec::with_capacity(PAGE),
                )));
            }
        }
        if !page.is_empty() {
            pages.push(Arc::new(page));
        }
        PagedVec { pages }
    }
}

impl<T: Clone> PagedVec<T> {
    pub fn get(&self, i: usize) -> Option<&T> {
        self.pages.get(i / PAGE)?.get(i % PAGE).map(|e| &**e)
    }

    /// Unique access to entry `i`, unsharing its page and itself first.
    pub fn make_mut(&mut self, i: usize) -> Option<&mut T> {
        let page = Arc::make_mut(self.pages.get_mut(i / PAGE)?);
        page.get_mut(i % PAGE).map(Arc::make_mut)
    }
}

/// An append-only sequence: sealed `Arc`'d chunks plus an `Arc`'d tail.
/// A clone is two pointer copies. The first push after a clone copies the
/// tail (under [`CHUNK`] points); sealing a chunk while a clone is alive
/// copies one pointer per sealed chunk.
#[derive(Debug, Clone)]
pub struct Series<T> {
    sealed: Arc<Vec<Arc<[T]>>>,
    tail: Arc<Vec<T>>,
}

impl<T: Clone> Series<T> {
    pub fn new(first: T) -> Self {
        Series {
            sealed: Arc::default(),
            tail: Arc::new(vec![first]),
        }
    }

    pub fn push(&mut self, point: T) {
        if self.tail.len() == CHUNK {
            let full = std::mem::replace(&mut self.tail, Arc::new(Vec::with_capacity(CHUNK)));
            let chunk: Arc<[T]> = Arc::try_unwrap(full).map_or_else(|a| a[..].into(), Into::into);
            Arc::make_mut(&mut self.sealed).push(chunk);
        }
        Arc::make_mut(&mut self.tail).push(point);
    }

    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.sealed
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
    }

    pub fn first(&self) -> Option<&T> {
        self.iter().next()
    }

    pub fn last(&self) -> Option<&T> {
        self.tail.last()
    }

    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_writes_after_a_clone_leave_the_clone_alone() {
        let mut live: PagedVec<u32> = (0..200).collect();
        let frozen = live.clone();
        *live.make_mut(130).unwrap() += 1000;
        assert_eq!(live.get(130), Some(&1130));
        assert_eq!(frozen.get(130), Some(&130));
        // Only page 2 was unshared; the others are still the same pages.
        for (p, (a, b)) in live.pages.iter().zip(&frozen.pages).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), p != 130 / PAGE, "page {p}");
        }
        assert_eq!(live.get(200), None);
        assert!(live.make_mut(200).is_none());
    }

    #[test]
    fn series_clones_are_frozen_across_chunk_seals() {
        let mut live = Series::new(0u32);
        let mut frozen = Vec::new();
        for i in 1..(3 * CHUNK as u32) {
            if i % 97 == 0 {
                frozen.push((i as usize, live.clone()));
            }
            live.push(i);
        }
        assert_eq!(live.to_vec(), (0..3 * CHUNK as u32).collect::<Vec<_>>());
        assert_eq!(live.first(), Some(&0));
        assert_eq!(live.last(), Some(&(3 * CHUNK as u32 - 1)));
        for (len, s) in frozen {
            assert_eq!(s.to_vec(), (0..len as u32).collect::<Vec<_>>());
        }
    }
}

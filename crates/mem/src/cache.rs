//! An epoch-tagged Copy-On-Access page cache.
//!
//! The runtime no longer uses it: a worker's COA fault copies the page
//! straight out of the commit unit's image, so there is no round trip
//! left for a cache to save. The benchmark's `probe.mem.cache_serve_ns`
//! still times a serve. What follows is the design it was built for.
//!
//! COA fetches pull committed pages at page granularity — the paper's
//! "page granularity doubles as prefetching". This cache turns that into
//! cross-iteration (and cross-recovery) reuse: every fetched page is
//! retained in its *pristine* committed form, tagged with the commit
//! epoch the reply carried. When speculative state is rolled back and the
//! page is faulted again, the worker revalidates the cached copy against
//! the commit unit's per-page modification epochs — a 16-byte round trip
//! instead of a 4 KiB page transfer whenever the page has not been
//! committed to since.
//!
//! The cache never affects correctness: a copy is served locally only when
//! its tag equals the newest epoch the worker has seen, and over the wire
//! the commit unit confirms freshness before the copy is reused. A copy
//! reused while the worker's epoch view lags behind the commit unit can at
//! worst reproduce a value-speculation miss that value validation already
//! catches — the same window every COA fetch has always had.

use dsmtx_uva::PageId;
use fxhash::FxHashMap;

use crate::page::Page;

/// One retained committed page and the commit epoch it was current at.
#[derive(Debug, Clone)]
struct CachedPage {
    epoch: u64,
    page: Page,
}

/// Pristine committed pages retained across speculative rollbacks, keyed
/// by page id and tagged with the commit epoch of the COA reply that
/// delivered (or last revalidated) them.
#[derive(Debug, Default)]
pub struct PageCache {
    entries: FxHashMap<PageId, CachedPage>,
    hits: u64,
    misses: u64,
    stale: u64,
}

impl PageCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The epoch tag of the cached copy of `id`, if one is retained.
    pub fn epoch_of(&self, id: PageId) -> Option<u64> {
        self.entries.get(&id).map(|c| c.epoch)
    }

    /// Serves the cached copy of `id` (the caller has established it is
    /// current). Counts a hit.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not cached; guard with [`PageCache::epoch_of`].
    pub fn serve(&mut self, id: PageId) -> Page {
        self.hits += 1;
        self.entries[&id].page.clone()
    }

    /// Re-tags the cached copy of `id` after the commit unit confirmed it
    /// is still the current committed image, and serves it. Counts a hit
    /// (the page payload never crossed the wire).
    ///
    /// # Panics
    ///
    /// Panics when `id` is not cached.
    pub fn revalidate(&mut self, id: PageId, epoch: u64) -> Page {
        let entry = self
            .entries
            .get_mut(&id)
            .expect("revalidate of uncached page");
        entry.epoch = epoch;
        self.hits += 1;
        entry.page.clone()
    }

    /// Installs a freshly fetched committed page. Counts a miss when the
    /// page was not cached, a stale refetch when it replaced an outdated
    /// copy.
    pub fn install(&mut self, id: PageId, epoch: u64, page: Page) {
        if self
            .entries
            .insert(id, CachedPage { epoch, page })
            .is_some()
        {
            self.stale += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Number of retained pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fetches served from the cache without a page payload on the wire
    /// (local serves + wire revalidations).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Full-page fetches of pages the cache did not hold.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Full-page refetches that replaced an outdated cached copy.
    pub fn stale(&self) -> u64 {
        self.stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(word: u64) -> Page {
        let mut p = Page::zeroed();
        p.set_word(0, word);
        p
    }

    #[test]
    fn install_then_serve_returns_the_pristine_copy() {
        let mut cache = PageCache::new();
        cache.install(PageId(7), 3, page_with(42));
        assert_eq!(cache.epoch_of(PageId(7)), Some(3));
        assert_eq!(cache.epoch_of(PageId(8)), None);
        let p = cache.serve(PageId(7));
        assert_eq!(p.word(0), 42);
        assert_eq!((cache.hits(), cache.misses(), cache.stale()), (1, 1, 0));
    }

    #[test]
    fn revalidate_retags_and_counts_a_hit() {
        let mut cache = PageCache::new();
        cache.install(PageId(7), 3, page_with(42));
        let p = cache.revalidate(PageId(7), 9);
        assert_eq!(p.word(0), 42);
        assert_eq!(cache.epoch_of(PageId(7)), Some(9));
        assert_eq!((cache.hits(), cache.misses(), cache.stale()), (1, 1, 0));
    }

    #[test]
    fn reinstall_counts_a_stale_refetch() {
        let mut cache = PageCache::new();
        cache.install(PageId(7), 3, page_with(42));
        cache.install(PageId(7), 8, page_with(43));
        assert_eq!(cache.serve(PageId(7)).word(0), 43);
        assert_eq!((cache.misses(), cache.stale()), (1, 1));
        assert_eq!(cache.len(), 1);
    }
}

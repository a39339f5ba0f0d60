//! Worker page tables with access protection.
//!
//! At the start of parallel execution each worker's heap is fully
//! access-protected (§4.2): no page is resident. The first touch of a
//! word on a non-resident page raises a [`PageFault`]; the runtime
//! services it by asking the commit unit for the committed page
//! (Copy-On-Access) and installing it. Rollback calls
//! [`PageTable::protect_all`], dropping all resident pages so that COA
//! refetches committed state.
//!
//! Every speculative load and store resolves its page here, so a lookup
//! is one probe: resident pages live in a slab behind a page → slot
//! index, and the table remembers the last page it resolved, so a run of
//! accesses to one page skips even that probe.

use dsmtx_uva::{PageId, VAddr};
use fxhash::FxHashMap;

use crate::page::Page;

/// Raised when an access touches a page that is not locally resident.
///
/// Carries the page that must be fetched from its home before the access
/// can retry — the software analogue of an `mprotect` fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFault(pub PageId);

impl std::fmt::Display for PageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page fault on {}", self.0)
    }
}

impl std::error::Error for PageFault {}

/// A worker's page table.
///
/// Pages without a slot are access-protected; `protect_all` therefore
/// just empties the slab and its index.
#[derive(Debug, Default)]
pub struct PageTable {
    /// Resident pages, in install order since the last `protect_all`.
    slots: Vec<Page>,
    /// Page → index into `slots`. Fx-hashed: `PageId` keys are interior
    /// and trusted, and the index sits on the per-access fast path of
    /// every speculative load/store.
    index: FxHashMap<PageId, u32>,
    /// The page the last lookup resolved, and its slot. Valid until
    /// `protect_all` empties the slab; a re-install keeps the slot.
    last: Option<(PageId, u32)>,
    /// Pages fetched via COA since the last reset (for statistics).
    faults_served: u64,
}

impl PageTable {
    /// An empty, fully protected table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of resident page `id`, probing the index only when `id`
    /// is not the page the previous lookup resolved.
    #[inline]
    fn slot(&mut self, id: PageId) -> Result<usize, PageFault> {
        match self.last {
            Some((page, slot)) if page == id => Ok(slot as usize),
            _ => {
                let slot = *self.index.get(&id).ok_or(PageFault(id))?;
                self.last = Some((id, slot));
                Ok(slot as usize)
            }
        }
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PageFault`] when the containing page is not resident.
    #[inline]
    pub fn read(&mut self, addr: VAddr) -> Result<u64, PageFault> {
        let slot = self.slot(addr.page())?;
        Ok(self.slots[slot].word(addr.word_in_page()))
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PageFault`] when the containing page is not resident:
    /// DSMTX fetches the committed page even on a write so that the
    /// page's other words stay coherent.
    #[inline]
    pub fn write(&mut self, addr: VAddr, value: u64) -> Result<(), PageFault> {
        let slot = self.slot(addr.page())?;
        self.slots[slot].set_word(addr.word_in_page(), value);
        Ok(())
    }

    /// Installs a page fetched via Copy-On-Access, replacing the local
    /// copy if the page is already resident. The installed page becomes
    /// the remembered one, so the faulting access's retry does not probe.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` pages would be resident.
    pub fn install(&mut self, id: PageId, page: Page) {
        self.faults_served += 1;
        let slot = match self.index.get(&id) {
            Some(&slot) => {
                self.slots[slot as usize] = page;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("resident pages fit in u32");
                self.slots.push(page);
                self.index.insert(id, slot);
                slot
            }
        };
        self.last = Some((id, slot));
    }

    /// Re-protects the entire heap: every page becomes non-resident,
    /// exactly what recovery step 4 of §4.3 does. Returns the number of
    /// pages dropped.
    pub fn protect_all(&mut self) -> usize {
        let n = self.slots.len();
        self.slots.clear();
        self.index.clear();
        self.last = None;
        n
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.slots.len()
    }

    /// Number of COA installs since construction.
    pub fn faults_served(&self) -> u64 {
        self.faults_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx_uva::OwnerId;

    fn addr(owner: u16, off: u64) -> VAddr {
        VAddr::new(OwnerId(owner), off)
    }

    #[test]
    fn fresh_table_faults_on_read_and_write() {
        let mut t = PageTable::new();
        let a = addr(1, 64);
        assert_eq!(t.read(a), Err(PageFault(a.page())));
        assert_eq!(t.write(a, 9), Err(PageFault(a.page())));
    }

    #[test]
    fn install_then_access() {
        let mut t = PageTable::new();
        let a = addr(1, 64);
        let mut p = Page::zeroed();
        p.set_word(a.word_in_page(), 123);
        t.install(a.page(), p);
        assert_eq!(t.read(a).unwrap(), 123);
        t.write(a, 124).unwrap();
        assert_eq!(t.read(a).unwrap(), 124);
    }

    #[test]
    fn protect_all_reprotects_everything() {
        let mut t = PageTable::new();
        let a = addr(2, 0);
        let b = addr(2, 8192);
        t.install(a.page(), Page::zeroed());
        t.install(b.page(), Page::zeroed());
        assert_eq!(t.resident_pages(), 2);
        assert_eq!(t.protect_all(), 2);
        assert_eq!(t.resident_pages(), 0);
        assert_eq!(t.read(a), Err(PageFault(a.page())));
    }

    #[test]
    fn faults_served_counts_installs() {
        let mut t = PageTable::new();
        assert_eq!(t.faults_served(), 0);
        t.install(addr(0, 0).page(), Page::zeroed());
        t.install(addr(0, 4096).page(), Page::zeroed());
        assert_eq!(t.faults_served(), 2);
    }

    #[test]
    fn distinct_owners_map_distinct_pages() {
        let mut t = PageTable::new();
        let a = addr(1, 0);
        let b = addr(2, 0);
        t.install(a.page(), Page::zeroed());
        t.write(a, 1).unwrap();
        assert_eq!(t.read(a), Ok(1));
        assert_eq!(t.read(b), Err(PageFault(b.page())));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dsmtx_uva::{OwnerId, PAGE_WORDS};
    use proptest::prelude::*;

    const PAGE: u64 = PAGE_WORDS;

    fn filled(value: u64) -> Page {
        let mut p = Page::zeroed();
        for w in 0..PAGE as usize {
            p.set_word(w, value);
        }
        p
    }

    /// Reads `addr`, installing the backing page on a fault.
    fn read_in(t: &mut PageTable, addr: VAddr, backing: u64) -> u64 {
        t.read(addr).unwrap_or_else(|PageFault(page)| {
            t.install(page, filled(backing));
            t.read(addr).expect("page just installed")
        })
    }

    /// Writes `addr`, installing the backing page on a fault.
    fn write_in(t: &mut PageTable, addr: VAddr, value: u64, backing: u64) {
        if let Err(PageFault(page)) = t.write(addr, value) {
            t.install(page, filled(backing));
            t.write(addr, value).expect("page just installed");
        }
    }

    proptest! {
        /// The page table is exactly a lazy copy of a backing image: after
        /// installing on fault, reads always match the backing store
        /// overlaid with local writes. Interleaves `protect_all` (which
        /// drops every local write), re-installs of a page (which drop
        /// that page's local writes) and runs that alternate between two
        /// pages, so the remembered page is re-resolved, invalidated and
        /// missed as well as hit.
        #[test]
        fn table_matches_overlay_model(
            ops in proptest::collection::vec((0u64..8, 0..4 * PAGE, any::<u64>()), 1..150),
            backing in any::<u64>(),
        ) {
            let mut t = PageTable::new();
            let mut model: std::collections::HashMap<u64, u64> = Default::default();
            let at = |word: u64| VAddr::new(OwnerId(1), word * 8);
            for (kind, word, value) in ops {
                match kind {
                    0..=2 => {
                        let want = model.get(&word).copied().unwrap_or(backing);
                        prop_assert_eq!(read_in(&mut t, at(word), backing), want);
                    }
                    3 | 4 => {
                        write_in(&mut t, at(word), value, backing);
                        model.insert(word, value);
                    }
                    5 => {
                        t.protect_all();
                        model.clear();
                        prop_assert_eq!(t.resident_pages(), 0);
                    }
                    6 => {
                        // A fresh committed copy replaces the local one.
                        t.install(at(word).page(), filled(backing));
                        model.retain(|w, _| w / PAGE != word / PAGE);
                    }
                    _ => {
                        let other = (word + PAGE * (1 + value % 3)) % (4 * PAGE);
                        for step in 0..8u64 {
                            let w = if step % 2 == 0 { word } else { other };
                            if step < 4 {
                                write_in(&mut t, at(w), value.wrapping_add(step), backing);
                                model.insert(w, value.wrapping_add(step));
                            } else {
                                prop_assert_eq!(read_in(&mut t, at(w), backing), model[&w]);
                            }
                        }
                    }
                }
            }
            // protect_all resets everything to faulting.
            t.protect_all();
            prop_assert_eq!(t.resident_pages(), 0);
        }
    }
}

//! A worker's speculative memory: page table + ordered access log.
//!
//! All speculative loads and stores of an MTX happen in the private memory
//! of the worker executing the subTX (§3.1). [`SpecMem`] wraps the page
//! table and records every access *in program order*: stores are needed for
//! uncommitted value forwarding and group commit; loads are needed for
//! value-based validation; and the interleaving matters because the
//! try-commit unit replays the stream — a load must be checked against the
//! memory image as of that point in the program, not after later stores.
//!
//! Faults are surfaced to the caller through a `fetch` closure so the
//! runtime can copy the committed page in (Copy-On-Access).
//!
//! Uncommitted values forwarded from earlier subTXs may land on pages that
//! are not yet locally resident; they are kept in a pending overlay and
//! re-applied when the page is eventually fetched, so committed page
//! content and newer forwarded words never clobber one another.

use dsmtx_uva::{PageId, VAddr};
use fxhash::FxHashMap;

use crate::page::Page;
use crate::table::{PageFault, PageTable};

/// Whether an access was a load or a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Speculative load; `value` is the observed (predicted) value.
    Load,
    /// Speculative store; `value` is the stored value.
    Store,
}

/// One logged access in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Load or store.
    pub kind: AccessKind,
    /// The touched address.
    pub addr: VAddr,
    /// Stored or observed value.
    pub value: u64,
}

/// Private speculative memory of one worker.
#[derive(Debug, Default)]
pub struct SpecMem {
    table: PageTable,
    /// Forwarded words for pages not yet resident: page → (word, value) in
    /// arrival order. Fx-hashed: interior keys, replayed on the
    /// validation hot path.
    pending: FxHashMap<PageId, Vec<(usize, u64)>>,
    /// Program-ordered access log of the current subTX.
    log: Vec<AccessRecord>,
}

impl SpecMem {
    /// An empty, fully protected memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Speculatively loads the word at `addr`, logging the observation.
    ///
    /// `fetch` services a Copy-On-Access fault by producing the committed
    /// page (in the runtime, a copy out of the commit unit's image).
    ///
    /// # Errors
    ///
    /// Propagates any error from `fetch`.
    pub fn read<E>(
        &mut self,
        addr: VAddr,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<u64, E> {
        let value = self.read_unlogged(addr, fetch)?;
        self.log.push(AccessRecord {
            kind: AccessKind::Load,
            addr,
            value,
        });
        Ok(value)
    }

    /// Loads without logging — for reads the parallelization plan knows are
    /// speculation-free (e.g. provably loop-invariant data). Using this is
    /// an optimization the paper's manual parallelizations apply; misuse
    /// converts a detectable misspeculation into silent wrong output, so
    /// prefer [`SpecMem::read`].
    ///
    /// # Errors
    ///
    /// Propagates any error from `fetch`.
    #[inline]
    pub fn read_unlogged<E>(
        &mut self,
        addr: VAddr,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<u64, E> {
        match self.table.read(addr) {
            Ok(value) => Ok(value),
            Err(PageFault(page_id)) => {
                self.fault_in(page_id, fetch)?;
                Ok(self.table.read(addr).expect("page just installed"))
            }
        }
    }

    /// Speculatively stores `value` at `addr`, logging the store.
    ///
    /// # Errors
    ///
    /// Propagates any error from `fetch` (a store to a protected page also
    /// faults, because the rest of the page must hold committed data).
    pub fn write<E>(
        &mut self,
        addr: VAddr,
        value: u64,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<(), E> {
        self.write_unlogged(addr, value, fetch)?;
        self.log.push(AccessRecord {
            kind: AccessKind::Store,
            addr,
            value,
        });
        Ok(())
    }

    /// Stores without logging — for per-worker private scratch (memory
    /// versioning): the value stays in this worker's version only, is
    /// never validated, forwarded, or committed, and disappears on
    /// rollback.
    ///
    /// # Errors
    ///
    /// Propagates any error from `fetch`.
    #[inline]
    pub fn write_unlogged<E>(
        &mut self,
        addr: VAddr,
        value: u64,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<(), E> {
        if let Err(PageFault(page_id)) = self.table.write(addr, value) {
            self.fault_in(page_id, fetch)?;
            self.table.write(addr, value).expect("page just installed");
        }
        Ok(())
    }

    /// Applies an uncommitted value forwarded from an earlier subTX.
    ///
    /// Not logged: the forwarding subTX already logged the store. If the
    /// page is not resident the word is kept pending and applied after the
    /// eventual COA install.
    pub fn apply_forwarded(&mut self, addr: VAddr, value: u64) {
        if let Err(PageFault(page_id)) = self.table.write(addr, value) {
            self.pending
                .entry(page_id)
                .or_default()
                .push((addr.word_in_page(), value));
        }
    }

    /// Services a fault on `page_id`: fetches the committed page, lays
    /// any pending forwarded words over it and installs it.
    #[cold]
    fn fault_in<E>(
        &mut self,
        page_id: PageId,
        fetch: impl FnOnce(PageId) -> Result<Page, E>,
    ) -> Result<(), E> {
        let mut page = fetch(page_id)?;
        // Newer forwarded words override the committed image.
        if let Some(pending) = self.pending.remove(&page_id) {
            for (word, value) in pending {
                page.set_word(word, value);
            }
        }
        self.table.install(page_id, page);
        Ok(())
    }

    /// Drains the program-ordered access log (end of subTX).
    pub fn drain_log(&mut self) -> Vec<AccessRecord> {
        std::mem::take(&mut self.log)
    }

    /// Views the access log without draining.
    pub fn log(&self) -> &[AccessRecord] {
        &self.log
    }

    /// Extracts only the stores of `records`, preserving program order.
    pub fn stores_of(records: &[AccessRecord]) -> impl Iterator<Item = (VAddr, u64)> + '_ {
        records
            .iter()
            .filter(|r| r.kind == AccessKind::Store)
            .map(|r| (r.addr, r.value))
    }

    /// Rolls back all speculative state: re-protects every page, discards
    /// pending forwards and the access log. Returns the number of pages
    /// dropped (§4.3 step 4 re-installs access protection on the heap).
    pub fn rollback(&mut self) -> usize {
        self.pending.clear();
        self.log.clear();
        self.table.protect_all()
    }

    /// Number of COA installs performed so far.
    pub fn faults_served(&self) -> u64 {
        self.table.faults_served()
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.table.resident_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx_uva::OwnerId;
    use std::convert::Infallible;

    fn a(off: u64) -> VAddr {
        VAddr::new(OwnerId(0), off)
    }

    fn zero_fetch(_: PageId) -> Result<Page, Infallible> {
        Ok(Page::zeroed())
    }

    fn committed_fetch(value: u64) -> impl Fn(PageId) -> Result<Page, Infallible> {
        move |_| {
            let mut p = Page::zeroed();
            for w in 0..8 {
                p.set_word(w, value);
            }
            Ok(p)
        }
    }

    #[test]
    fn read_fetches_and_logs() {
        let mut m = SpecMem::new();
        let v = m.read(a(8), committed_fetch(9)).unwrap();
        assert_eq!(v, 9);
        assert_eq!(
            m.log(),
            &[AccessRecord {
                kind: AccessKind::Load,
                addr: a(8),
                value: 9
            }]
        );
        assert_eq!(m.faults_served(), 1);
        // Second read of the same page: no new fault.
        let _ = m.read(a(16), committed_fetch(9)).unwrap();
        assert_eq!(m.faults_served(), 1);
    }

    #[test]
    fn write_then_read_sees_own_store_in_order() {
        let mut m = SpecMem::new();
        let before = m.read(a(8), zero_fetch).unwrap();
        m.write(a(8), 5, zero_fetch).unwrap();
        let after = m.read(a(8), zero_fetch).unwrap();
        assert_eq!(before, 0);
        assert_eq!(after, 5);
        let log = m.drain_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].kind, AccessKind::Load);
        assert_eq!(log[0].value, 0);
        assert_eq!(log[1].kind, AccessKind::Store);
        assert_eq!(log[2].kind, AccessKind::Load);
        assert_eq!(log[2].value, 5);
        assert!(m.log().is_empty());
    }

    #[test]
    fn forwarded_value_visible_before_fetch() {
        let mut m = SpecMem::new();
        // Earlier subTX forwards a store to a page we have never touched.
        m.apply_forwarded(a(8), 42);
        // The later fetch returns committed content; the forwarded word
        // must override it, other words must keep committed values.
        let v = m.read(a(8), committed_fetch(7)).unwrap();
        assert_eq!(v, 42);
        let other = m.read(a(16), committed_fetch(7)).unwrap();
        assert_eq!(other, 7);
    }

    #[test]
    fn forwarded_value_applies_directly_when_resident() {
        let mut m = SpecMem::new();
        let _ = m.read(a(8), zero_fetch).unwrap();
        m.apply_forwarded(a(8), 13);
        assert_eq!(m.read(a(8), zero_fetch).unwrap(), 13);
    }

    #[test]
    fn forwarded_values_are_not_logged() {
        let mut m = SpecMem::new();
        m.apply_forwarded(a(8), 1);
        assert!(m.log().is_empty());
    }

    #[test]
    fn later_forward_wins_over_earlier_pending() {
        let mut m = SpecMem::new();
        m.apply_forwarded(a(8), 1);
        m.apply_forwarded(a(8), 2);
        assert_eq!(m.read(a(8), zero_fetch).unwrap(), 2);
    }

    #[test]
    fn rollback_discards_everything() {
        let mut m = SpecMem::new();
        m.write(a(8), 5, zero_fetch).unwrap();
        m.apply_forwarded(a(4096 * 3), 9);
        assert_eq!(m.rollback(), 1);
        assert!(m.log().is_empty());
        assert_eq!(m.resident_pages(), 0);
        // After rollback the next access refetches committed state and the
        // pending forward is gone.
        assert_eq!(m.read(a(4096 * 3), committed_fetch(7)).unwrap(), 7);
    }

    #[test]
    fn rollback_between_accesses_to_one_page_refetches() {
        let mut m = SpecMem::new();
        m.write(a(8), 5, zero_fetch).unwrap();
        assert_eq!(m.read(a(16), zero_fetch).unwrap(), 0);
        m.rollback();
        // Same page as the accesses before the rollback: it must fault
        // again and see the committed page, not the rolled-back store.
        assert_eq!(m.read(a(8), committed_fetch(7)).unwrap(), 7);
        assert_eq!(m.faults_served(), 2);
        m.write(a(16), 6, zero_fetch).unwrap();
        assert_eq!(m.read(a(16), zero_fetch).unwrap(), 6);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn stores_of_filters_and_orders() {
        let mut m = SpecMem::new();
        let _ = m.read(a(8), zero_fetch).unwrap();
        m.write(a(8), 1, zero_fetch).unwrap();
        m.write(a(16), 2, zero_fetch).unwrap();
        let log = m.drain_log();
        let stores: Vec<_> = SpecMem::stores_of(&log).collect();
        assert_eq!(stores, vec![(a(8), 1), (a(16), 2)]);
    }

    #[test]
    fn write_unlogged_is_private() {
        let mut m = SpecMem::new();
        m.write_unlogged(a(8), 9, zero_fetch).unwrap();
        assert!(m.log().is_empty());
        assert_eq!(m.read_unlogged(a(8), zero_fetch).unwrap(), 9);
        m.rollback();
        assert_eq!(m.read_unlogged(a(8), zero_fetch).unwrap(), 0);
    }

    #[test]
    fn read_unlogged_leaves_no_trace() {
        let mut m = SpecMem::new();
        let _ = m.read_unlogged(a(8), committed_fetch(3)).unwrap();
        assert!(m.log().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dsmtx_uva::OwnerId;
    use proptest::prelude::*;
    use std::convert::Infallible;

    fn a(off: u64) -> VAddr {
        VAddr::new(OwnerId(0), off * 8)
    }

    proptest! {
        /// SpecMem behaves like a plain map from the program's perspective:
        /// any sequence of reads/writes observes exactly the last local
        /// write (or the committed value from the fetch closure).
        #[test]
        fn reads_match_reference_model(
            ops in proptest::collection::vec((0u64..2048, any::<u64>(), any::<bool>()), 1..200),
            committed in any::<u64>(),
        ) {
            let mut m = SpecMem::new();
            let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            let fetch = |_: PageId| -> Result<Page, Infallible> {
                let mut p = Page::zeroed();
                for w in 0..512 {
                    p.set_word(w, committed);
                }
                Ok(p)
            };
            for (word, value, is_write) in ops {
                if is_write {
                    m.write(a(word), value, fetch).unwrap();
                    model.insert(word, value);
                } else {
                    let got = m.read(a(word), fetch).unwrap();
                    let want = model.get(&word).copied().unwrap_or(committed);
                    prop_assert_eq!(got, want);
                }
            }
        }

        /// The access log replayed against the committed image reproduces
        /// the final private state for every written address.
        #[test]
        fn log_replay_reconstructs_state(
            ops in proptest::collection::vec((0u64..512, any::<u64>()), 1..100),
        ) {
            let mut m = SpecMem::new();
            let fetch = |_: PageId| -> Result<Page, Infallible> { Ok(Page::zeroed()) };
            for (word, value) in &ops {
                m.write(a(*word), *value, fetch).unwrap();
            }
            let log = m.drain_log();
            let mut replay: std::collections::HashMap<VAddr, u64> = Default::default();
            for (addr, value) in SpecMem::stores_of(&log) {
                replay.insert(addr, value);
            }
            for (word, _) in &ops {
                let live = m.read_unlogged(a(*word), fetch).unwrap();
                prop_assert_eq!(replay[&a(*word)], live);
            }
        }
    }
}

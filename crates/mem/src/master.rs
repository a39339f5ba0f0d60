//! The commit unit's committed memory image.
//!
//! Only the commit unit executes the sequential, non-transactional portions
//! of the program, so its memory is always the single source of committed
//! truth (§3.1). Pages are created zero-filled on first write (demand
//! zero); [`MasterMem::page`] is the copy a Copy-On-Access fault takes.
//!
//! Runs of consecutive words go through [`MasterMem::write_words`] and
//! [`MasterMem::read_words`], which pay one map probe and one dirty-set
//! insert per page instead of per word: that is how the pre-loop code
//! fills its inputs and reads its outputs back at memory speed.
//!
//! The page map is internally partitioned by [`shard_of`] into a fixed
//! number of sub-maps so that group commit can apply a large write-set in
//! parallel ([`MasterMem::commit_writes_parallel`]): each helper thread
//! owns a disjoint partition of `PageId` space, mirroring how the paper's
//! §3.2 parallel commit units each own part of the address space. The
//! partition count is an interior detail — reads and sequential commits
//! behave exactly as a single flat map would.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use dsmtx_uva::{PageId, VAddr, PAGE_WORDS};
use fxhash::{FxHashMap, FxHashSet};

use crate::page::Page;
use crate::shard::shard_of;
use crate::spec::{AccessKind, AccessRecord};

/// Fixed interior partition count of the committed page map.
const INTERNAL_SHARDS: usize = 8;

/// Write-set size below which parallel apply is pure overhead: spawning a
/// scoped thread costs far more than hashing a few thousand words.
const PARALLEL_APPLY_MIN_WRITES: usize = 4096;

/// Committed memory: the image COA fetches from and group commit updates.
#[derive(Debug)]
pub struct MasterMem {
    /// `PageId` space hash-partitioned by `shard_of(page, INTERNAL_SHARDS)`.
    shards: Vec<FxHashMap<PageId, Page>>,
    commits_applied: u64,
    /// Pages written since the last [`MasterMem::take_dirty`] drain.
    dirty: FxHashSet<PageId>,
    /// When set, every `read`/`write` appends an [`AccessRecord`] to
    /// `recorded`. Off by default and off on every hot path: the flag is a
    /// single relaxed atomic load per access. The dependence analyzer's
    /// sequential recorder flips it on while replaying a workload's
    /// recovery body against this image.
    recording: AtomicBool,
    /// Program-order access log accumulated while `recording` is set. A
    /// `std::sync::Mutex` (not a spinlock shim) so `MasterMem` stays
    /// `Sync` and `Debug` without extra bounds; the recorder is the only
    /// contender, so the lock is always uncontended.
    recorded: Mutex<Vec<AccessRecord>>,
}

impl Default for MasterMem {
    fn default() -> Self {
        MasterMem {
            shards: vec![FxHashMap::default(); INTERNAL_SHARDS],
            commits_applied: 0,
            dirty: FxHashSet::default(),
            recording: AtomicBool::new(false),
            recorded: Mutex::new(Vec::new()),
        }
    }
}

impl MasterMem {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn map_of(&self, id: PageId) -> &FxHashMap<PageId, Page> {
        &self.shards[shard_of(id, INTERNAL_SHARDS)]
    }

    /// Reads the committed word at `addr` (zero if never written).
    #[inline]
    pub fn read(&self, addr: VAddr) -> u64 {
        let value = self
            .map_of(addr.page())
            .get(&addr.page())
            .map_or(0, |p| p.word(addr.word_in_page()));
        if self.recording.load(Ordering::Relaxed) {
            self.log(AccessKind::Load, addr, value);
        }
        value
    }

    /// Writes the committed word at `addr`, creating the page on demand.
    #[inline]
    pub fn write(&mut self, addr: VAddr, value: u64) {
        if self.recording.load(Ordering::Relaxed) {
            self.log(AccessKind::Store, addr, value);
        }
        let id = addr.page();
        self.dirty.insert(id);
        self.shards[shard_of(id, INTERNAL_SHARDS)]
            .entry(id)
            .or_default()
            .set_word(addr.word_in_page(), value);
    }

    /// Writes `data` to the consecutive words starting at `base`, creating
    /// pages on demand: one map probe and one dirty-set insert per page,
    /// with a slice copy in between. Equivalent to calling
    /// [`MasterMem::write`] on each word in order.
    ///
    /// While recording, it takes that per-word path, so the access log
    /// holds one record per word exactly as a per-word loop logs it.
    pub fn write_words(&mut self, base: VAddr, data: &[u64]) {
        if self.is_recording() {
            for (i, &w) in (0u64..).zip(data) {
                self.write(base.add_words(i), w);
            }
            return;
        }
        let mut rest = data;
        for (id, words) in page_runs(base, data.len()) {
            let (chunk, tail) = rest.split_at(words.len());
            self.dirty.insert(id);
            self.shards[shard_of(id, INTERNAL_SHARDS)]
                .entry(id)
                .or_default()
                .words_mut()[words]
                .copy_from_slice(chunk);
            rest = tail;
        }
    }

    /// Reads `len` consecutive words starting at `base`: one map probe per
    /// page; words on pages never written read as zero. Equivalent to
    /// calling [`MasterMem::read`] on each word in order, and takes that
    /// path while recording (see [`MasterMem::write_words`]).
    pub fn read_words(&self, base: VAddr, len: usize) -> Vec<u64> {
        if self.is_recording() {
            return (0u64..)
                .take(len)
                .map(|i| self.read(base.add_words(i)))
                .collect();
        }
        let mut out = Vec::with_capacity(len);
        for (id, words) in page_runs(base, len) {
            match self.map_of(id).get(&id) {
                Some(page) => out.extend_from_slice(&page.words()[words]),
                None => out.resize(out.len() + words.len(), 0),
            }
        }
        out
    }

    #[cold]
    fn log(&self, kind: AccessKind, addr: VAddr, value: u64) {
        self.recorded
            .lock()
            .expect("access log poisoned")
            .push(AccessRecord { kind, addr, value });
    }

    /// Turns the program-order access log on or off. While on, every
    /// [`MasterMem::read`] and [`MasterMem::write`] appends to the log the
    /// dependence analyzer later drains with
    /// [`MasterMem::drain_recorded`].
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Whether the access log is currently capturing.
    pub fn is_recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Drains and returns the access log accumulated since the last drain
    /// (program order). The analyzer's recorder calls this once per
    /// iteration to slice the stream at iteration boundaries.
    pub fn drain_recorded(&self) -> Vec<AccessRecord> {
        std::mem::take(&mut *self.recorded.lock().expect("access log poisoned"))
    }

    /// Returns a copy of the committed page, for Copy-On-Access.
    ///
    /// Unwritten pages read as zero pages, like fresh anonymous memory.
    pub fn page(&self, id: PageId) -> Page {
        self.map_of(id).get(&id).cloned().unwrap_or_default()
    }

    /// Applies one MTX's write-set in program order (group transaction
    /// commit): when a location is stored by several subTXs, the last
    /// update takes effect.
    pub fn commit_writes<I>(&mut self, writes: I)
    where
        I: IntoIterator<Item = (VAddr, u64)>,
    {
        for (addr, value) in writes {
            self.write(addr, value);
        }
        self.commits_applied += 1;
    }

    /// Like [`MasterMem::commit_writes`], but applies the interior page
    /// partitions on scoped helper threads when the write-set is large
    /// enough to amortize the spawns.
    ///
    /// Equivalent to the sequential path bit for bit: partitioning by page
    /// keeps every address's updates on one thread in program order, so
    /// last-writer-wins is preserved, and distinct partitions touch
    /// disjoint pages.
    pub fn commit_writes_parallel(&mut self, writes: Vec<(VAddr, u64)>) {
        if writes.len() < PARALLEL_APPLY_MIN_WRITES {
            self.commit_writes(writes);
            return;
        }
        let mut buckets: Vec<Vec<(VAddr, u64)>> = vec![Vec::new(); INTERNAL_SHARDS];
        for (addr, value) in writes {
            self.dirty.insert(addr.page());
            buckets[shard_of(addr.page(), INTERNAL_SHARDS)].push((addr, value));
        }
        std::thread::scope(|scope| {
            for (map, bucket) in self.shards.iter_mut().zip(buckets) {
                if bucket.is_empty() {
                    continue;
                }
                scope.spawn(move || {
                    for (addr, value) in bucket {
                        map.entry(addr.page())
                            .or_default()
                            .set_word(addr.word_in_page(), value);
                    }
                });
            }
        });
        self.commits_applied += 1;
    }

    /// Number of `commit_writes` calls so far (committed MTX count).
    pub fn commits_applied(&self) -> u64 {
        self.commits_applied
    }

    /// Drains the set of pages written since the previous drain.
    pub fn take_dirty(&mut self) -> FxHashSet<PageId> {
        std::mem::take(&mut self.dirty)
    }

    /// Number of materialized (non-zero-backed) pages.
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(FxHashMap::len).sum()
    }

    /// All materialized pages as `(id, words)` pairs, sorted by page id —
    /// a canonical snapshot for differential comparison across runs.
    pub fn snapshot(&self) -> Vec<(PageId, Page)> {
        let mut pages: Vec<(PageId, Page)> = self
            .shards
            .iter()
            .flat_map(|m| m.iter().map(|(id, p)| (*id, p.clone())))
            .collect();
        pages.sort_by_key(|(id, _)| *id);
        pages
    }
}

/// Splits the `len` consecutive words starting at `base` at page
/// boundaries: each touched page, in address order, with the range of its
/// words the run covers.
fn page_runs(base: VAddr, len: usize) -> impl Iterator<Item = (PageId, Range<usize>)> {
    let mut addr = base;
    let mut left = len;
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let start = addr.word_in_page();
        let n = left.min(PAGE_WORDS as usize - start);
        let run = (addr.page(), start..start + n);
        left -= n;
        if left > 0 {
            addr = addr.add_words(n as u64);
        }
        Some(run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx_uva::OwnerId;

    fn a(off: u64) -> VAddr {
        VAddr::new(OwnerId(0), off)
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MasterMem::new();
        assert_eq!(m.read(a(8)), 0);
        assert_eq!(m.page(a(8).page()), Page::zeroed());
    }

    #[test]
    fn write_then_read() {
        let mut m = MasterMem::new();
        m.write(a(8), 5);
        assert_eq!(m.read(a(8)), 5);
        assert_eq!(m.read(a(16)), 0);
    }

    #[test]
    fn group_commit_last_writer_wins() {
        let mut m = MasterMem::new();
        // Two subTXs of one MTX write the same address; subTX order is
        // program order, so the later value must stick.
        m.commit_writes(vec![(a(8), 1), (a(16), 7), (a(8), 2)]);
        assert_eq!(m.read(a(8)), 2);
        assert_eq!(m.read(a(16)), 7);
        assert_eq!(m.commits_applied(), 1);
    }

    #[test]
    fn page_snapshot_is_a_copy() {
        let mut m = MasterMem::new();
        m.write(a(8), 1);
        let snap = m.page(a(8).page());
        m.write(a(8), 2);
        assert_eq!(snap.word(a(8).word_in_page()), 1, "snapshot must not alias");
        assert_eq!(m.read(a(8)), 2);
    }

    #[test]
    fn pages_materialize_on_write_only() {
        let mut m = MasterMem::new();
        let _ = m.read(a(4096 * 10));
        assert_eq!(m.resident_pages(), 0);
        m.write(a(0), 1);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn parallel_commit_matches_sequential() {
        // Large enough to take the scoped-thread path, with repeated
        // addresses so last-writer-wins is exercised.
        let writes: Vec<(VAddr, u64)> = (0..10_000u64).map(|i| (a((i % 3000) * 8), i)).collect();
        let mut seq = MasterMem::new();
        seq.commit_writes(writes.clone());
        let mut par = MasterMem::new();
        par.commit_writes_parallel(writes);
        assert_eq!(seq.snapshot(), par.snapshot());
        assert_eq!(par.commits_applied(), 1);
    }

    #[test]
    fn small_write_sets_stay_sequential_and_correct() {
        let mut m = MasterMem::new();
        m.commit_writes_parallel(vec![(a(8), 1), (a(8), 2)]);
        assert_eq!(m.read(a(8)), 2);
        assert_eq!(m.commits_applied(), 1);
    }

    #[test]
    fn recording_captures_program_order_and_drains() {
        let mut m = MasterMem::new();
        m.write(a(8), 7); // not recorded: recording is off
        m.set_recording(true);
        assert!(m.is_recording());
        assert_eq!(m.read(a(8)), 7);
        m.write(a(16), 9);
        assert_eq!(m.read(a(16)), 9);
        m.set_recording(false);
        m.write(a(24), 1); // not recorded again
        let log = m.drain_recorded();
        assert_eq!(log.len(), 3);
        assert_eq!(
            (log[0].kind, log[0].addr, log[0].value),
            (AccessKind::Load, a(8), 7)
        );
        assert_eq!(
            (log[1].kind, log[1].addr, log[1].value),
            (AccessKind::Store, a(16), 9)
        );
        assert_eq!(
            (log[2].kind, log[2].addr, log[2].value),
            (AccessKind::Load, a(16), 9)
        );
        assert!(m.drain_recorded().is_empty(), "drain must reset the log");
    }

    #[test]
    fn recorded_bulk_io_logs_what_a_per_word_loop_logs() {
        // An unaligned run straddling a page boundary, read back in part.
        let base = a(8 * 500);
        let data: Vec<u64> = (1..=700).collect();
        let mut bulk = MasterMem::new();
        bulk.set_recording(true);
        bulk.write_words(base, &data);
        assert_eq!(bulk.read_words(base.add_words(3), 600), data[3..603]);
        let mut word = MasterMem::new();
        word.set_recording(true);
        for (i, &w) in (0u64..).zip(&data) {
            word.write(base.add_words(i), w);
        }
        for i in 3..603 {
            word.read(base.add_words(i));
        }
        let log = bulk.drain_recorded();
        assert_eq!(log.len(), 700 + 600);
        assert_eq!(log, word.drain_recorded());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut m = MasterMem::new();
        for p in [9u64, 3, 7, 1] {
            m.write(a(p * 4096), p);
        }
        let snap = m.snapshot();
        assert_eq!(snap.len(), 4);
        let ids: Vec<u64> = snap.iter().map(|(id, _)| id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dsmtx_uva::OwnerId;
    use proptest::prelude::*;

    const PAGE: u64 = PAGE_WORDS;

    fn at(word: u64) -> VAddr {
        VAddr::new(OwnerId(1), word * 8)
    }

    proptest! {
        /// Bulk writes and reads agree with the per-word path word for
        /// word, and each bulk write dirties exactly the pages it touches.
        /// Runs start anywhere in four pages and span 0 to three pages, so
        /// they are unaligned, straddle page boundaries and overlap; reads
        /// cover eight pages, so some were never written.
        #[test]
        fn bulk_io_matches_per_word_io(
            writes in proptest::collection::vec(
                (0..4 * PAGE, 0..3 * PAGE as usize + 1, any::<u64>()),
                1..6,
            ),
            reads in proptest::collection::vec((0..8 * PAGE, 0..3 * PAGE as usize + 1), 1..6),
        ) {
            let mut bulk = MasterMem::new();
            let mut word = MasterMem::new();
            for (start, len, seed) in writes {
                let data: Vec<u64> = (0..len as u64).map(|i| seed.wrapping_add(i)).collect();
                bulk.write_words(at(start), &data);
                for (i, &w) in (0u64..).zip(&data) {
                    word.write(at(start + i), w);
                }
                let touched: FxHashSet<PageId> =
                    (start..start + len as u64).map(|w| at(w).page()).collect();
                let dirty = bulk.take_dirty();
                prop_assert_eq!(&dirty, &touched);
                prop_assert_eq!(dirty, word.take_dirty());
            }
            prop_assert_eq!(bulk.snapshot(), word.snapshot());
            for (start, len) in reads {
                let want: Vec<u64> = (0..len as u64).map(|i| word.read(at(start + i))).collect();
                prop_assert_eq!(bulk.read_words(at(start), len), want);
            }
        }
    }
}

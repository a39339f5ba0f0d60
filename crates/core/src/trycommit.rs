//! The try-commit unit: MTX validation off the critical path (§3.2).
//!
//! The unit maintains its own memory image — committed pages copied out
//! of the commit unit's image on the first replayed load or store to
//! each page (Copy-On-Access), overlaid with every speculative store it
//! has replayed since. It reads the per-subTX access streams of all
//! workers in place, from the commit unit's block map, and replays them
//! in global program order: MTX 0 stage 0, MTX 0 stage 1, …, MTX 1
//! stage 0, … Each replayed store updates the image; each replayed load
//! is a *value prediction* — if the image's value at that program point
//! differs from what the worker observed, a true dependence manifested
//! that the plan speculated away, and the unit reports the conflict to
//! the commit unit (§3.1's unified value prediction and checking
//! mechanism).
//!
//! The unit sends no verdict: replay runs in program order and stops at
//! the first conflict, so its whole verdict stream is one monotone
//! validated-through cursor plus a `poisoned` flag. The commit unit owns
//! the shards, runs their turns on its own thread, and reads both in
//! place (`TryCommitUnit::validated`, `TryCommitUnit::conflicted`).
//!
//! False (anti/output) dependences never reach this unit: memory
//! versioning in the workers' private memories already broke them.
//!
//! # Sharding (§3.2)
//!
//! The paper notes the validation algorithm "is parallelizable": value
//! prediction of a load depends only on prior stores to the same address.
//! When `unit_shards > 1`, N instances of this unit exist, each owning
//! the disjoint partition of `PageId` space given by [`dsmtx_mem::route`]
//! (the hash partition, or the shape's profile-guided shard map), with
//! its own replay image. Every shard reads the same one block per subTX
//! and skips the records whose page routes to another shard, so each
//! shard's program-order cursor advances through every (MTX, stage) — a
//! shard whose partition a subTX never touched replays no record of it.
//! This module is the only one that knows the partition. The shards
//! partition state, not threads: the commit unit runs their turns one
//! after another on the thread that called `MtxSystem::run`, and commits
//! an MTX once every cursor is past it, or recovers once any shard is
//! poisoned at it.

use std::convert::Infallible;
use std::time::{Duration, Instant};

use dsmtx_mem::{route, AccessKind, AccessRecord, SpecMem};
use dsmtx_obs::Histogram;
use dsmtx_uva::VAddr;
use fxhash::FxHashMap;

use crate::commit::{CommittedImage, StageBlocks};
use crate::config::PipelineShape;
use crate::ids::{MtxId, StageId};
use crate::trace::{TraceBuffer, TraceKind};
use crate::wire::AccessBlock;

/// One detected conflict with its attribution context: which page
/// mismatched, which shard caught it, and which MTX wrote the page first
/// in the speculative window (the likely dependence source). Joined to
/// lifecycle spans by `(mtx, attempt)` and to the analyzer's predicted
/// conflict sites by `page` when `repro why` attributes the abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictRecord {
    /// The squashed MTX.
    pub mtx: u64,
    /// Its speculative attempt number (from the frame's trace context).
    pub attempt: u32,
    /// Pipeline stage whose stream exposed the mismatch.
    pub stage: u16,
    /// `PageId` of the conflicting load.
    pub page: u64,
    /// Try-commit shard owning that page partition.
    pub shard: u16,
    /// First speculative writer of that page in this validation window:
    /// `(mtx, attempt)` of the earliest replayed store, when any stores
    /// were replayed to the page before the mismatch.
    pub first_writer: Option<(u64, u32)>,
}

/// Per-shard statistics returned by [`TryCommitUnit::finish`].
#[derive(Debug, Default)]
pub(crate) struct TryCommitCounters {
    /// MTXs this shard validated in its page partition.
    pub validated: u64,
    /// Conflicts this shard detected in its page partition.
    pub conflicts: u64,
    /// Every conflict this shard detected, in detection order (one entry
    /// per conflict, so a repeated page means the same page conflicted
    /// across recoveries). The analyzer's certification pass checks
    /// their pages against the conflict sites the partition linter
    /// predicted.
    pub conflict_events: Vec<ConflictRecord>,
    /// COA pages copied into the replay image, on a first replayed load
    /// or store to the page.
    pub coa_fetches: u64,
    /// Stream arrival → program-order replay start, per subTX stream.
    pub replay_lag: Histogram,
    /// Final-stage stream arrival → cursor advance, per MTX.
    pub verdict_latency: Histogram,
    /// Time spent in this shard's productive turns.
    pub busy: Duration,
}

pub(crate) struct TryCommitUnit {
    shape: PipelineShape,
    /// This shard's own trace buffer.
    trace: TraceBuffer,
    /// This shard's index (0 at `unit_shards = 1`).
    shard: u16,
    /// The replay image: committed pages + speculative stores in order.
    /// Covers only this shard's page partition.
    image: SpecMem,
    /// Where the replay image copies committed pages from.
    committed: CommittedImage,
    /// The validated-through cursor: every MTX below it validated in
    /// this shard's partition.
    cursor_mtx: MtxId,
    cursor_stage: StageId,
    /// Attempt number of the stream currently replaying (trace context
    /// from the frame that delivered it).
    cursor_attempt: u32,
    /// First speculative writer per page in this validation window:
    /// `page -> (mtx, attempt)` of the earliest replayed store. Reset at
    /// recovery together with the image.
    first_writers: FxHashMap<u64, (u64, u32)>,
    /// Set when the MTX at the cursor conflicted: stop replaying, wait
    /// for recovery.
    poisoned: bool,
    counters: TryCommitCounters,
}

pub(crate) struct TryCommitWiring {
    pub shape: PipelineShape,
    pub trace: TraceBuffer,
    pub shard: u16,
    pub committed: CommittedImage,
}

impl TryCommitUnit {
    pub(crate) fn new(w: TryCommitWiring) -> Self {
        TryCommitUnit {
            shape: w.shape,
            trace: w.trace,
            shard: w.shard,
            image: SpecMem::new(),
            committed: w.committed,
            cursor_mtx: MtxId(0),
            cursor_stage: StageId(0),
            cursor_attempt: 0,
            first_writers: FxHashMap::default(),
            poisoned: false,
            counters: TryCommitCounters::default(),
        }
    }

    /// This shard's statistics and its trace.
    pub(crate) fn finish(mut self) -> (TryCommitCounters, TraceBuffer) {
        self.counters.coa_fetches = self.image.faults_served();
        (self.counters, self.trace)
    }

    /// Whether every MTX up to `m` validated in this shard's partition.
    pub(crate) fn validated(&self, m: MtxId) -> bool {
        self.cursor_mtx > m
    }

    /// Whether `m` conflicted in this shard's partition.
    pub(crate) fn conflicted(&self, m: MtxId) -> bool {
        self.poisoned && self.cursor_mtx == m
    }

    /// One unit turn: unless poisoned, replay the blocks of `blocks`
    /// that are ready in program order, advancing the cursor as each MTX
    /// validates; stops at the first conflict. Returns whether the turn
    /// made progress.
    pub(crate) fn turn(&mut self, blocks: &StageBlocks) -> bool {
        if self.poisoned {
            return false;
        }
        let at = Instant::now();
        let mut progress = false;
        while let Some(arrived) = blocks.get(&(self.cursor_mtx.0, self.cursor_stage.0)) {
            progress = true;
            let attempt = arrived.attempt;
            self.cursor_attempt = attempt;
            self.counters
                .replay_lag
                .record(arrived.at.elapsed().as_micros() as u64);
            if let Some(conflict_addr) = self.replay(&arrived.block) {
                // Conflict: freeze at this MTX until the commit unit,
                // which reads the flag, orchestrates recovery.
                let page = conflict_addr.page().0;
                self.counters.conflicts += 1;
                self.counters.conflict_events.push(ConflictRecord {
                    mtx: self.cursor_mtx.0,
                    attempt,
                    stage: self.cursor_stage.0,
                    page,
                    shard: self.shard,
                    first_writer: self.first_writers.get(&page).copied(),
                });
                self.trace.record(
                    Some(self.cursor_mtx),
                    attempt,
                    Some(self.cursor_stage),
                    TraceKind::Conflict,
                );
                self.poisoned = true;
                break;
            }
            if self.cursor_stage.0 + 1 == self.shape.n_stages() {
                self.trace
                    .record(Some(self.cursor_mtx), attempt, None, TraceKind::Validated);
                self.cursor_mtx = self.cursor_mtx.next();
                self.cursor_stage = StageId(0);
                self.counters.validated += 1;
                self.counters
                    .verdict_latency
                    .record(arrived.at.elapsed().as_micros() as u64);
            } else {
                self.cursor_stage = StageId(self.cursor_stage.0 + 1);
            }
        }
        if progress {
            self.counters.busy += at.elapsed();
        }
        progress
    }

    /// Replays one subTX block against the image. Returns the address of
    /// the first mismatching load (`None` when the block validates). The
    /// block decodes by cursor as it replays — no intermediate record
    /// vector is materialized.
    fn replay(&mut self, block: &AccessBlock) -> Option<VAddr> {
        block.iter().find_map(|r| self.replay_record(r))
    }

    fn replay_record(&mut self, r: AccessRecord) -> Option<VAddr> {
        let shards = self.shape.unit_shards();
        if route(self.shape.shard_map(), r.addr.page(), shards) != usize::from(self.shard) {
            // Another shard validates this page.
            return None;
        }
        match r.kind {
            AccessKind::Store => {
                // Remember the earliest speculative writer of each page:
                // when a later load on the page mismatches, that writer is
                // the likely source of the manifested dependence.
                self.first_writers
                    .entry(r.addr.page().0)
                    .or_insert((self.cursor_mtx.0, self.cursor_attempt));
                // A first store to a page copies the committed page in, as
                // a first load does: no replayed store to the page came
                // before it since the last reset, so the committed copy is
                // the program-order state at the cursor (DESIGN.md §9).
                let Ok(()) = self.image.write_unlogged(r.addr, r.value, |page| {
                    Ok::<_, Infallible>(self.committed.page(page))
                });
            }
            AccessKind::Load => {
                let Ok(actual) = self.image.read_unlogged(r.addr, |page| {
                    Ok::<_, Infallible>(self.committed.page(page))
                });
                if actual != r.value {
                    return Some(r.addr);
                }
            }
        }
        None
    }

    /// §4.3 recovery, between barriers B2 and B3: roll the replay image
    /// back and resume validating at the iteration after the re-executed
    /// one.
    pub(crate) fn reset(&mut self, boundary: MtxId) {
        self.image.rollback();
        self.first_writers.clear();
        self.cursor_mtx = boundary.next();
        self.cursor_stage = StageId(0);
        self.poisoned = false;
    }
}

impl std::fmt::Debug for TryCommitUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TryCommitUnit")
            .field("cursor_mtx", &self.cursor_mtx)
            .field("cursor_stage", &self.cursor_stage)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

//! The try-commit unit: MTX validation off the critical path (§3.2).
//!
//! The unit maintains its own memory image — committed pages copied on
//! demand out of the commit unit's image (Copy-On-Access), overlaid with
//! every speculative store it has replayed. It consumes the per-subTX access
//! streams of all workers and replays them in global program order: MTX 0
//! stage 0, MTX 0 stage 1, …, MTX 1 stage 0, … Each replayed store updates
//! the image; each replayed load is a *value prediction* — if the image's
//! value at that program point differs from what the worker observed, a
//! true dependence manifested that the plan speculated away, and the unit
//! reports the conflict to the commit unit (§3.1's unified value
//! prediction and checking mechanism).
//!
//! The unit reports on one word of a `VerdictBoard` rather than a link:
//! replay runs in program order and stops at the first conflict, so its
//! whole verdict stream is one monotone validated-through cursor plus a
//! conflict bit — what the paper's cluster could publish with a
//! one-sided RDMA WRITE.
//!
//! False (anti/output) dependences never reach this unit: memory
//! versioning in the workers' private memories already broke them.
//!
//! # Sharding (§3.2)
//!
//! The paper notes the validation algorithm "is parallelizable": value
//! prediction of a load depends only on prior stores to the same address.
//! When `unit_shards > 1`, N instances of this unit run, each owning the
//! disjoint hash-partition of `PageId` space given by
//! [`dsmtx_mem::shard_of`]. Workers pack each access record into the
//! responsible shard's `ValBlock` and send a frame to *every* shard, so
//! each shard's program-order cursor advances through every (MTX, stage)
//! — a shard whose partition a subTX never touched replays an empty
//! block. Each shard publishes its own verdict word; the commit unit
//! reads them all (every cursor past an MTX commits it, any conflict in
//! it recovers).

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dsmtx_fabric::RecvPort;
use dsmtx_mem::{AccessKind, AccessRecord, SpecMem};
use dsmtx_obs::Histogram;
use dsmtx_uva::VAddr;
use fxhash::FxHashMap;

use crate::commit::CommittedImage;
use crate::config::PipelineShape;
use crate::control::{ControlPlane, Interrupt, EPOCH_UNSEEN};
use crate::ids::{MtxId, StageId};
use crate::poll;
use crate::trace::{Role, TraceKind, TraceSink};
use crate::wire::{AccessBlock, Msg};

/// Top bit of a verdict word: the MTX at the word's cursor conflicted.
const CONFLICT: u64 = 1 << 63;

/// The try-commit shards' verdicts: one word per shard, holding its
/// validated-through cursor (every MTX below it validated in the shard's
/// partition) and, in [`CONFLICT`], whether the cursor's MTX conflicted.
///
/// Only its shard writes a word: as each MTX validates, at a conflict,
/// and between recovery barriers B2 and B3, when it resets to
/// `boundary + 1`. It stores with `Release` after recording the trace
/// event, and the commit unit loads with `Acquire`, so a `Validated`
/// event always precedes its `Committed`. The commit unit reads only
/// about its next MTX `m`, and no cursor lags `m`: it commits only MTXs
/// every cursor passed, and recovery resets every word to the new `m`.
#[derive(Debug, Clone)]
pub(crate) struct VerdictBoard(Arc<[AtomicU64]>);

impl VerdictBoard {
    pub(crate) fn new(shards: usize) -> Self {
        VerdictBoard((0..shards).map(|_| AtomicU64::new(0)).collect())
    }

    /// Shard `shard` only: every MTX below `cursor` validated, and the
    /// one at `cursor` conflicted when `conflict` is set.
    fn publish(&self, shard: u16, cursor: MtxId, conflict: bool) {
        let word = cursor.0 | if conflict { CONFLICT } else { 0 };
        self.0[usize::from(shard)].store(word, Ordering::Release);
    }

    /// Whether some shard conflicted in `m`.
    pub(crate) fn conflicted(&self, m: MtxId) -> bool {
        let bad = m.0 | CONFLICT;
        self.0.iter().any(|w| w.load(Ordering::Acquire) == bad)
    }

    /// Whether every shard validated `m`.
    pub(crate) fn validated(&self, m: MtxId) -> bool {
        self.0
            .iter()
            .all(|w| w.load(Ordering::Acquire) & !CONFLICT > m.0)
    }
}

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

/// Per-shard statistics returned by [`TryCommitUnit::run`].
#[derive(Debug, Default)]
pub(crate) struct TryCommitCounters {
    /// MTXs this shard validated in its page partition.
    pub validated: u64,
    /// Conflicts this shard detected in its page partition.
    pub conflicts: u64,
    /// `PageId` of every conflicting load, in detection order (one entry
    /// per conflict, so repeats mean the same page conflicted across
    /// recoveries). The analyzer's certification pass checks this set
    /// against the conflict sites the partition linter predicted.
    pub conflict_pages: Vec<u64>,
    /// Full attribution context for every conflict this shard detected,
    /// in detection order (the "why" behind each `conflict_pages` entry).
    pub conflict_events: Vec<ConflictRecord>,
    /// COA pages copied into the replay image.
    pub coa_fetches: u64,
    /// Stream arrival → program-order replay start, per subTX stream.
    pub replay_lag: Histogram,
    /// Final-stage stream arrival → verdict publish, per MTX.
    pub verdict_latency: Histogram,
    /// Busy fraction of the shard thread, parts per million.
    pub busy_ppm: u64,
}

pub(crate) struct TryCommitUnit {
    shape: PipelineShape,
    ctrl: ControlPlane,
    trace: TraceSink,
    /// This shard's index (0 at `unit_shards = 1`).
    shard: u16,
    /// The replay image: committed pages + speculative stores in order.
    /// Covers only this shard's page partition.
    image: SpecMem,
    /// Where the replay image copies committed pages from.
    committed: CommittedImage,
    /// Validation streams, one per worker (this shard's partition only).
    val_in: Vec<RecvPort<Msg>>,
    /// Where this shard publishes its verdict word.
    board: VerdictBoard,
    /// Received subTX blocks awaiting their replay turn, with their
    /// attempt number and arrival time (for replay-lag / verdict-latency
    /// histograms).
    done: FxHashMap<(u64, u16), (Box<AccessBlock>, u32, Instant)>,
    cursor_mtx: MtxId,
    cursor_stage: StageId,
    /// Attempt number of the stream currently replaying (trace context
    /// from the frame that delivered it).
    cursor_attempt: u32,
    /// First speculative writer per page in this validation window:
    /// `page -> (mtx, attempt)` of the earliest replayed store. Reset at
    /// recovery together with the image.
    first_writers: FxHashMap<u64, (u64, u32)>,
    /// Set after publishing a conflict: stop replaying, wait for
    /// recovery.
    poisoned: bool,
    counters: TryCommitCounters,
}

pub(crate) struct TryCommitWiring {
    pub shape: PipelineShape,
    pub ctrl: ControlPlane,
    pub trace: TraceSink,
    pub shard: u16,
    pub val_in: Vec<RecvPort<Msg>>,
    pub board: VerdictBoard,
    pub committed: CommittedImage,
}

impl TryCommitUnit {
    pub(crate) fn new(w: TryCommitWiring) -> Self {
        TryCommitUnit {
            shape: w.shape,
            ctrl: w.ctrl,
            trace: w.trace,
            shard: w.shard,
            image: SpecMem::new(),
            committed: w.committed,
            val_in: w.val_in,
            board: w.board,
            done: FxHashMap::default(),
            cursor_mtx: MtxId(0),
            cursor_stage: StageId(0),
            cursor_attempt: 0,
            first_writers: FxHashMap::default(),
            poisoned: false,
            counters: TryCommitCounters::default(),
        }
    }

    /// The unit's thread body; returns this shard's statistics. It loops
    /// on [`poll::wait`] with one unit turn as the step.
    pub(crate) fn run(mut self) -> TryCommitCounters {
        let started = Instant::now();
        let mut busy = std::time::Duration::ZERO;
        let ctrl = self.ctrl.clone();
        let mut seen = EPOCH_UNSEEN;
        loop {
            let turn = poll::wait(&ctrl, &mut seen, None, || {
                let at = Instant::now();
                let progress = self.turn();
                if progress {
                    busy += at.elapsed();
                }
                Ok(progress.then_some(()))
            });
            match turn {
                Ok(()) => {}
                Err(Interrupt::Recovery { boundary }) => {
                    self.do_recovery(boundary);
                    seen = EPOCH_UNSEEN;
                }
                Err(Interrupt::Terminate) => break,
                // The turn never fails and the wait has no deadline: only
                // the control plane's statuses reach here.
                Err(intr) => unreachable!("try-commit shard interrupted by {intr}"),
            }
        }
        let total = started.elapsed().as_nanos().max(1);
        self.counters.busy_ppm = (busy.as_nanos().min(total) * 1_000_000 / total) as u64;
        self.counters.coa_fetches = self.image.faults_served();
        self.counters
    }

    /// One unit turn: ingest what arrived, then, unless poisoned, replay
    /// what is ready. Returns whether the turn made progress.
    fn turn(&mut self) -> bool {
        let mut progress = self.ingest();
        if !self.poisoned {
            progress |= self.replay_turn();
        }
        progress
    }

    /// Drains what is available on the validation queues into the replay
    /// buffer, at most one batch per queue, so a worker that outpaces
    /// this shard cannot keep it from replaying. Never blocks.
    fn ingest(&mut self) -> bool {
        let budget = self.shape.batch();
        let mut progress = false;
        for port in &mut self.val_in {
            for _ in 0..budget {
                let msg = match port.try_consume() {
                    Ok(Some(m)) => m,
                    Ok(None) => break,
                    Err(_) => {
                        // A dying peer is unrecoverable: publish the typed
                        // shutdown (once) so no thread blocks forever on
                        // the dead worker's silence.
                        self.ctrl.report_channel_down();
                        break;
                    }
                };
                progress = true;
                match msg {
                    Msg::ValBlock {
                        mtx,
                        attempt,
                        stage,
                        block,
                    } => {
                        self.done
                            .insert((mtx.0, stage.0), (block, attempt, Instant::now()));
                    }
                    other => panic!("unexpected message on validation plane: {other:?}"),
                }
            }
        }
        progress
    }

    /// Replays the ready streams in program order, publishing the
    /// verdict word as each MTX validates; stops at the first conflict.
    fn replay_turn(&mut self) -> bool {
        let mut progress = false;
        while let Some((block, attempt, arrived)) =
            self.done.remove(&(self.cursor_mtx.0, self.cursor_stage.0))
        {
            progress = true;
            self.cursor_attempt = attempt;
            self.counters
                .replay_lag
                .record(arrived.elapsed().as_micros() as u64);
            if let Some(conflict_addr) = self.replay(&block) {
                // Conflict: tell the commit unit and freeze until it
                // orchestrates recovery. The word stays at this MTX.
                let page = conflict_addr.page().0;
                self.counters.conflicts += 1;
                self.counters.conflict_pages.push(page);
                self.counters.conflict_events.push(ConflictRecord {
                    mtx: self.cursor_mtx.0,
                    attempt,
                    stage: self.cursor_stage.0,
                    page,
                    shard: self.shard,
                    first_writer: self.first_writers.get(&page).copied(),
                });
                self.trace.record(
                    Role::TryCommit(self.shard),
                    Some(self.cursor_mtx),
                    attempt,
                    Some(self.cursor_stage),
                    TraceKind::Conflict,
                );
                self.board.publish(self.shard, self.cursor_mtx, true);
                self.poisoned = true;
                return true;
            }
            if self.cursor_stage.0 + 1 == self.shape.n_stages() {
                self.trace.record(
                    Role::TryCommit(self.shard),
                    Some(self.cursor_mtx),
                    attempt,
                    None,
                    TraceKind::Validated,
                );
                self.cursor_mtx = self.cursor_mtx.next();
                self.cursor_stage = StageId(0);
                self.board.publish(self.shard, self.cursor_mtx, false);
                self.counters.validated += 1;
                self.counters
                    .verdict_latency
                    .record(arrived.elapsed().as_micros() as u64);
            } else {
                self.cursor_stage = StageId(self.cursor_stage.0 + 1);
            }
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
        match r.kind {
            AccessKind::Store => {
                // Remember the earliest speculative writer of each page:
                // when a later load on the page mismatches, that writer is
                // the likely source of the manifested dependence.
                self.first_writers
                    .entry(r.addr.page().0)
                    .or_insert((self.cursor_mtx.0, self.cursor_attempt));
                self.image.apply_forwarded(r.addr, r.value);
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

    /// §4.3 recovery: rendezvous, flush, re-protect, resume validating at
    /// the iteration after the re-executed one. The verdict word resets
    /// between B2 and B3, while the commit unit reads no word.
    fn do_recovery(&mut self, boundary: MtxId) {
        let barrier = self.ctrl.barrier().clone();
        barrier.wait(); // B1
        for port in &mut self.val_in {
            port.drain();
        }
        barrier.wait(); // B2
        self.image.rollback();
        self.done.clear();
        self.first_writers.clear();
        self.cursor_mtx = boundary.next();
        self.cursor_stage = StageId(0);
        self.poisoned = false;
        self.board.publish(self.shard, self.cursor_mtx, false);
        barrier.wait(); // B3
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

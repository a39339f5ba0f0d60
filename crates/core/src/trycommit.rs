//! The try-commit unit: MTX validation off the critical path (§3.2).
//!
//! The unit maintains its own memory image — committed pages fetched on
//! demand from the commit unit (Copy-On-Access), overlaid with every
//! speculative store it has replayed. It consumes the per-subTX access
//! streams of all workers and replays them in global program order: MTX 0
//! stage 0, MTX 0 stage 1, …, MTX 1 stage 0, … Each replayed store updates
//! the image; each replayed load is a *value prediction* — if the image's
//! value at that program point differs from what the worker observed, a
//! true dependence manifested that the plan speculated away, and the unit
//! reports the conflict to the commit unit (§3.1's unified value
//! prediction and checking mechanism).
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
//! block. Each shard reports an independent per-MTX verdict; the commit
//! unit aggregates them (all-OK commits, any-bad recovers).

use std::time::Instant;

use dsmtx_fabric::{RecvPort, SendPort};
use dsmtx_mem::{AccessKind, AccessRecord, Page, SpecMem};
use dsmtx_obs::Histogram;
use dsmtx_uva::{PageId, VAddr};
use fxhash::FxHashMap;

use crate::config::PipelineShape;
use crate::control::{ControlPlane, Interrupt, EPOCH_UNSEEN};
use crate::ids::{MtxId, StageId};
use crate::poll;
use crate::trace::{Role, TraceKind, TraceSink};
use crate::wire::{AccessBlock, Msg, EPOCH_NONE};
use crate::worker::{classify, flush_port};

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
    /// MTXs this shard sent `VerdictOk` for.
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
    /// COA pages fetched into the replay image.
    pub coa_fetches: u64,
    /// Stream arrival → program-order replay start, per subTX stream.
    pub replay_lag: Histogram,
    /// Final-stage stream arrival → verdict send, per MTX.
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
    /// The control epoch the turn's inner waits last saw; the run loop
    /// keeps its own.
    epoch: u64,
    /// Receive deadline under fault injection (`None` = wait forever).
    data_timeout: Option<std::time::Duration>,
    /// The replay image: committed pages + speculative stores in order.
    /// Covers only this shard's page partition.
    image: SpecMem,
    /// Validation streams, one per worker (this shard's partition only).
    val_in: Vec<RecvPort<Msg>>,
    /// Verdicts and COA requests to the commit unit.
    to_commit: SendPort<Msg>,
    /// COA replies from the commit unit.
    coa_in: RecvPort<Msg>,
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
    /// Set after reporting a conflict or raising a fabric fault: stop
    /// replaying, wait for recovery.
    poisoned: bool,
    counters: TryCommitCounters,
}

pub(crate) struct TryCommitWiring {
    pub shape: PipelineShape,
    pub ctrl: ControlPlane,
    pub trace: TraceSink,
    pub shard: u16,
    pub val_in: Vec<RecvPort<Msg>>,
    pub to_commit: SendPort<Msg>,
    pub coa_in: RecvPort<Msg>,
}

impl TryCommitUnit {
    pub(crate) fn new(w: TryCommitWiring) -> Self {
        let data_timeout = w.shape.recv_deadline();
        TryCommitUnit {
            shape: w.shape,
            ctrl: w.ctrl,
            trace: w.trace,
            shard: w.shard,
            epoch: EPOCH_UNSEEN,
            data_timeout,
            image: SpecMem::new(),
            val_in: w.val_in,
            to_commit: w.to_commit,
            coa_in: w.coa_in,
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
        // The loop's own seen epoch: the step borrows `self`, so the
        // turn's inner waits (the verdict flush, a COA fetch) cannot share
        // `self.epoch` with it.
        let mut seen = EPOCH_UNSEEN;
        loop {
            let turn = poll::wait(&ctrl, &mut seen, None, || {
                let at = Instant::now();
                let progress = self.turn()?;
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
                Err(Interrupt::ChannelDown) => {
                    // A peer thread is gone: typed shutdown instead of a
                    // silent exit that leaves everyone else hanging.
                    self.ctrl.report_channel_down();
                    break;
                }
                Err(Interrupt::FabricTimeout) => {
                    // A transfer to/from the commit unit exhausted its
                    // retry budget: request a recovery round and stop
                    // replaying until the commit unit orchestrates it.
                    self.ctrl.raise_fabric_fault();
                    self.poisoned = true;
                }
            }
        }
        let total = started.elapsed().as_nanos().max(1);
        self.counters.busy_ppm = (busy.as_nanos().min(total) * 1_000_000 / total) as u64;
        self.counters.coa_fetches = self.image.faults_served();
        self.counters
    }

    /// One unit turn: ingest what arrived, then, unless poisoned, replay
    /// what is ready. Returns whether the turn made progress.
    fn turn(&mut self) -> Result<bool, Interrupt> {
        let mut progress = self.ingest();
        if !self.poisoned {
            progress |= self.replay_ready()?;
        }
        Ok(progress)
    }

    /// Drains whatever is available on the validation queues into the
    /// replay buffer. Never blocks.
    fn ingest(&mut self) -> bool {
        let mut progress = false;
        for port in &mut self.val_in {
            loop {
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

    /// Replays every stream whose program-order turn has come, then ships
    /// the turn's verdicts in one flush. (A COA fetch mid-turn ships the
    /// verdicts queued before it, since they share the port.)
    fn replay_ready(&mut self) -> Result<bool, Interrupt> {
        let progress = self.replay_turn()?;
        flush_port(&self.ctrl, &mut self.epoch, &mut self.to_commit)?;
        Ok(progress)
    }

    /// Replays the ready streams in program order, queueing a verdict per
    /// finished MTX; stops at the first conflict.
    fn replay_turn(&mut self) -> Result<bool, Interrupt> {
        let mut progress = false;
        while let Some((block, attempt, arrived)) =
            self.done.remove(&(self.cursor_mtx.0, self.cursor_stage.0))
        {
            progress = true;
            self.cursor_attempt = attempt;
            self.counters
                .replay_lag
                .record(arrived.elapsed().as_micros() as u64);
            if let Some(conflict_addr) = self.replay(&block)? {
                // Conflict: tell the commit unit and freeze until it
                // orchestrates recovery.
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
                self.to_commit
                    .produce(Msg::VerdictBad {
                        mtx: self.cursor_mtx,
                    })
                    .map_err(classify)?;
                self.poisoned = true;
                return Ok(true);
            }
            if self.cursor_stage.0 + 1 == self.shape.n_stages() {
                self.trace.record(
                    Role::TryCommit(self.shard),
                    Some(self.cursor_mtx),
                    attempt,
                    None,
                    TraceKind::Validated,
                );
                self.to_commit
                    .produce(Msg::VerdictOk {
                        mtx: self.cursor_mtx,
                    })
                    .map_err(classify)?;
                self.counters.validated += 1;
                self.counters
                    .verdict_latency
                    .record(arrived.elapsed().as_micros() as u64);
                self.cursor_mtx = self.cursor_mtx.next();
                self.cursor_stage = StageId(0);
            } else {
                self.cursor_stage = StageId(self.cursor_stage.0 + 1);
            }
        }
        Ok(progress)
    }

    /// Replays one subTX block against the image. Returns the address of
    /// the first mismatching load (`None` when the block validates). The
    /// block decodes by cursor as it replays — no intermediate record
    /// vector is materialized.
    fn replay(&mut self, block: &AccessBlock) -> Result<Option<VAddr>, Interrupt> {
        for r in block.iter() {
            if let Some(addr) = self.replay_record(r)? {
                return Ok(Some(addr));
            }
        }
        Ok(None)
    }

    fn replay_record(&mut self, r: AccessRecord) -> Result<Option<VAddr>, Interrupt> {
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
                let Self {
                    image,
                    to_commit,
                    coa_in,
                    ctrl,
                    epoch,
                    data_timeout,
                    ..
                } = self;
                let actual = image.read_unlogged(r.addr, |page| {
                    coa_fetch(to_commit, coa_in, ctrl, epoch, *data_timeout, page)
                })?;
                if actual != r.value {
                    return Ok(Some(r.addr));
                }
            }
        }
        Ok(None)
    }

    /// §4.3 recovery: rendezvous, flush, re-protect, resume validating at
    /// the iteration after the re-executed one.
    fn do_recovery(&mut self, boundary: MtxId) {
        let barrier = self.ctrl.barrier().clone();
        barrier.wait(); // B1
        self.to_commit.clear();
        for port in &mut self.val_in {
            port.drain();
        }
        self.coa_in.drain();
        barrier.wait(); // B2
        self.image.rollback();
        self.done.clear();
        self.first_writers.clear();
        self.cursor_mtx = boundary.next();
        self.cursor_stage = StageId(0);
        self.poisoned = false;
        barrier.wait(); // B3
        self.epoch = EPOCH_UNSEEN;
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

/// COA round trip to the commit unit (the try-commit image is initialized
/// lazily from committed pages, exactly like a worker's memory). The
/// shards keep no page cache — their image already retains replayed pages
/// until recovery — so every request advertises [`EPOCH_NONE`] and always
/// draws the full page.
fn coa_fetch(
    to_commit: &mut SendPort<Msg>,
    coa_in: &mut RecvPort<Msg>,
    ctrl: &ControlPlane,
    epoch: &mut u64,
    timeout: Option<std::time::Duration>,
    page: PageId,
) -> Result<Page, Interrupt> {
    to_commit
        .produce(Msg::CoaRequest {
            page: page.0,
            have: EPOCH_NONE,
        })
        .map_err(classify)?;
    flush_port(ctrl, epoch, to_commit)?;
    let reply = poll::wait(ctrl, epoch, timeout, || {
        coa_in.try_consume().map_err(classify)
    })?;
    match reply {
        Msg::CoaReply { page: p, data, .. } => {
            assert_eq!(p, page.0, "out-of-order COA reply");
            Ok(*data)
        }
        other => panic!("expected CoaReply, got {other:?}"),
    }
}

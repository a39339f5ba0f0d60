//! The commit unit: group transaction commit and recovery orchestration.
//!
//! The commit unit owns the only committed memory image and is its only
//! writer. It executed the sequential pre-loop code (in this
//! reproduction: the caller built [`dsmtx_mem::MasterMem`] before the
//! run), takes in every worker's one unit link, and keeps each subTX's
//! block in one `(mtx, stage)` map. Once *every* try-commit shard's
//! cursor has passed an MTX, it applies the stores of that MTX's blocks
//! in program order (group transaction commit, §3.1: last update to an
//! address wins). A conflict in any shard, or an explicit worker
//! misspeculation, makes it orchestrate the §4.3 recovery protocol and
//! re-execute the squashed iteration single-threaded.
//!
//! The unit owns the try-commit shards and is their only driver: the
//! thread that calls `MtxSystem::run` runs the unit's loop, and each turn
//! takes in what arrived, then runs every shard's turn over the block
//! map, then its own step. So a shard reads the blocks and the commit
//! unit reads the shard's verdict in place, on the one thread, and a
//! recovery round stays straight-line inside one turn: the workers and
//! this thread meet at the barriers, and the unit clears the map and
//! resets the shards itself.
//!
//! Copy-On-Access takes no turn of this unit: workers and try-commit
//! shards copy committed pages out of the image themselves, through a
//! read-only `CommittedImage` handle — a one-sided read, like an RDMA
//! READ on the paper's cluster. The unit takes the image's write lock
//! only to apply a group commit, to run the recovery body and to run the
//! `on_commit` hook, never waits on another role while it holds it, and
//! drops it before any shard turn: a shard's page copy on the thread
//! that holds the write lock would never return.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use dsmtx_fabric::RecvPort;
use dsmtx_mem::{AccessKind, MasterMem, Page};
use dsmtx_uva::PageId;
use fxhash::FxHashMap;

use crate::config::PipelineShape;
use crate::control::{ControlPlane, Interrupt, Status, EPOCH_UNSEEN};
use crate::ids::MtxId;
use crate::poll;
use crate::program::{CommitHook, IterOutcome, RecoveryFn};
use crate::trace::{TraceBuffer, TraceKind};
use crate::trycommit::{TryCommitCounters, TryCommitUnit};
use crate::wire::{AccessBlock, Msg};

/// Read-only access to the committed image, for workers and try-commit
/// shards. The commit unit holds the only write handle.
#[derive(Debug, Clone)]
pub(crate) struct CommittedImage(Arc<RwLock<MasterMem>>);

impl CommittedImage {
    pub(crate) fn new(image: &Arc<RwLock<MasterMem>>) -> Self {
        CommittedImage(Arc::clone(image))
    }

    /// A copy of committed page `id`, taken under the read lock. Any
    /// committed version is safe to hand out: value validation catches a
    /// stale page.
    pub(crate) fn page(&self, id: PageId) -> Page {
        // Poisoned only by a commit-unit panic outside the user hooks
        // (a panicking hook releases the lock first). Every page write
        // leaves the map sound, the run has failed anyway, and the
        // `Terminating` status `run` publishes unwinds this thread.
        self.0
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .page(id)
    }
}

/// A subTX's block as the commit unit received it.
#[derive(Debug)]
pub(crate) struct Arrived {
    /// The subTX's filtered access stream.
    pub block: Box<AccessBlock>,
    /// Speculative attempt number (trace context from the frame).
    pub attempt: u32,
    /// When the commit unit took the frame off its link (the start of the
    /// shards' replay-lag and verdict-latency histograms).
    pub at: Instant,
}

/// Every received subTX block not yet committed, by `(mtx, stage)`. The
/// try-commit shards replay from it and group commit applies from it.
pub(crate) type StageBlocks = FxHashMap<(u64, u16), Arrived>;

/// Per-MTX events gathered from workers.
#[derive(Debug, Default, Clone, Copy)]
struct Events {
    misspec: bool,
    exit: bool,
    /// Speculative attempt number carried by the worker frames (trace
    /// context), echoed on this unit's lifecycle events for the MTX.
    attempt: u32,
}

/// What the units' loop hands back to `MtxSystem::run` when it ends.
pub(crate) struct UnitsOutcome {
    pub counters: CommitCounters,
    /// Each try-commit shard's counters, by shard.
    pub shards: Vec<TryCommitCounters>,
    /// The receive ends of the unit links, for their traffic counters.
    pub links: Vec<RecvPort<Msg>>,
    /// Each shard's trace buffer, then the commit unit's.
    pub traces: Vec<TraceBuffer>,
}

/// Counters reported at the end of the run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CommitCounters {
    pub committed: u64,
    pub recovered_iterations: u64,
    pub last_iteration: Option<MtxId>,
    /// MTXs squashed because a try-commit shard's value validation
    /// conflicted in them.
    pub validation_conflicts: u64,
    /// Misspeculations declared explicitly by workers (`mtx_misspec`).
    pub worker_misspecs: u64,
    /// Recovery rounds run in answer to fabric-timeout requests (as
    /// opposed to misspeculation verdicts).
    pub fault_recoveries: u64,
}

pub(crate) struct CommitUnit {
    shape: PipelineShape,
    ctrl: ControlPlane,
    /// The commit unit's own trace buffer.
    trace: TraceBuffer,
    /// The committed image; this unit is its only writer.
    master: Arc<RwLock<MasterMem>>,
    /// Unit links, one per worker, in worker order.
    from_workers: Vec<RecvPort<Msg>>,
    /// The try-commit shards, whose turns only this unit runs.
    shards: Vec<TryCommitUnit>,
    /// Received subTX blocks, freed once their MTX commits.
    blocks: StageBlocks,
    /// Per-MTX events, keyed by MTX: a hash map keeps its table as MTXs
    /// pass, where a B-tree allocates and frees nodes.
    events: FxHashMap<u64, Events>,
    next_commit: MtxId,
    recovery: RecoveryFn,
    on_commit: Option<CommitHook>,
    limit: Option<u64>,
    counters: CommitCounters,
}

pub(crate) struct CommitWiring {
    pub shape: PipelineShape,
    pub ctrl: ControlPlane,
    pub trace: TraceBuffer,
    pub master: Arc<RwLock<MasterMem>>,
    pub from_workers: Vec<RecvPort<Msg>>,
    pub shards: Vec<TryCommitUnit>,
    pub recovery: RecoveryFn,
    pub on_commit: Option<CommitHook>,
    pub limit: Option<u64>,
}

impl CommitUnit {
    pub(crate) fn new(w: CommitWiring) -> Self {
        CommitUnit {
            shape: w.shape,
            ctrl: w.ctrl,
            trace: w.trace,
            master: w.master,
            from_workers: w.from_workers,
            shards: w.shards,
            blocks: StageBlocks::default(),
            events: FxHashMap::default(),
            next_commit: MtxId(0),
            recovery: w.recovery,
            on_commit: w.on_commit,
            limit: w.limit,
            counters: CommitCounters::default(),
        }
    }

    /// The units' loop, run by the caller of `MtxSystem::run`; returns
    /// what the units counted and traced. It loops on [`poll::wait`] with
    /// one unit turn as the step.
    pub(crate) fn run(mut self) -> UnitsOutcome {
        if self.limit == Some(0) {
            self.terminate(None);
        } else {
            self.run_turns();
        }
        let (shards, mut traces): (Vec<_>, Vec<_>) =
            self.shards.into_iter().map(TryCommitUnit::finish).unzip();
        traces.push(self.trace);
        UnitsOutcome {
            counters: self.counters,
            shards,
            links: self.from_workers,
            traces,
        }
    }

    fn run_turns(&mut self) {
        let ctrl = self.ctrl.clone();
        let mut seen = EPOCH_UNSEEN;
        loop {
            let turn = poll::wait(&ctrl, &mut seen, None, || {
                Ok(match self.turn() {
                    StepResult::Idle => None,
                    done => Some(done),
                })
            });
            match turn {
                Ok(StepResult::Terminated) => break,
                Ok(_) => {}
                // The commit unit is normally the only status writer, but
                // a thread that found its channel dead publishes the typed
                // `Terminating` shutdown directly — honor it instead of
                // spinning forever on queues that will never fill.
                Err(Interrupt::Terminate) => {
                    self.trace.record(None, 0, None, TraceKind::Terminated);
                    break;
                }
                // Only this unit publishes `Recovering`, and it runs each
                // recovery round to its end inside one turn.
                Err(intr) => unreachable!("commit unit interrupted by {intr}"),
            }
        }
    }

    /// One unit turn: drain the inputs, run every shard's turn, answer a
    /// fabric-fault request with a recovery round, and otherwise try to
    /// commit the next MTX.
    fn turn(&mut self) -> StepResult {
        let mut progress = self.ingest();
        for shard in &mut self.shards {
            progress |= shard.turn(&self.blocks);
        }
        // A fabric timeout anywhere converts into a recovery round at the
        // next commit boundary — never later, or uncommitted intermediate
        // MTXs would be silently lost.
        if self.ctrl.take_fabric_fault() {
            self.counters.fault_recoveries += 1;
            return self.recover(self.next_commit, true);
        }
        match self.step() {
            StepResult::Idle if progress => StepResult::Progress,
            done => done,
        }
    }

    /// Drains available worker input, at most one batch per stream.
    /// Never blocks.
    ///
    /// The bound keeps a worker that produces faster than this unit
    /// consumes from holding the unit here: the step after it, which
    /// commits or starts the next recovery, always comes.
    fn ingest(&mut self) -> bool {
        let budget = self.shape.batch();
        let mut progress = false;
        for worker in 0..self.from_workers.len() {
            for _ in 0..budget {
                let msg = match self.from_workers[worker].try_consume() {
                    Ok(Some(m)) => m,
                    Ok(None) => break,
                    Err(_) => {
                        // The worker thread is gone: typed shutdown, not a
                        // silent break that leaves the system spinning.
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
                        let at = Instant::now();
                        let arrived = Arrived { block, attempt, at };
                        self.blocks.insert((mtx.0, stage.0), arrived);
                        self.events.entry(mtx.0).or_default().attempt = attempt;
                    }
                    Msg::LoopExit { mtx } => {
                        self.events.entry(mtx.0).or_default().exit = true;
                    }
                    Msg::WorkerMisspec { mtx, attempt } => {
                        self.counters.worker_misspecs += 1;
                        let ev = self.events.entry(mtx.0).or_default();
                        ev.attempt = attempt;
                        ev.misspec = true;
                    }
                    other => panic!("unexpected message on a unit link: {other:?}"),
                }
            }
        }
        progress
    }

    /// Tries to advance the commit cursor by one MTX.
    fn step(&mut self) -> StepResult {
        let m = self.next_commit;
        let ev = self.events.get(&m.0).copied().unwrap_or_default();
        let conflicted = self.shards.iter().any(|s| s.conflicted(m));
        if conflicted {
            // Counted here, once per MTX a verdict squashes, however many
            // shards conflicted in it; a conflict that an earlier
            // misspeculation or a fault round preempts is not counted.
            self.counters.validation_conflicts += 1;
        }
        if ev.misspec || conflicted {
            return self.recover(m, false);
        }
        // Group-commit decision: every shard must have validated its
        // partition of the MTX. A shard's cursor passes the MTX only by
        // replaying the block of each of its stages, so all are here.
        if !self.shards.iter().all(|s| s.validated(m)) {
            return StepResult::Idle;
        }
        // Group transaction commit: apply the subTXs' stores in program
        // (stage) order, straight from the received blocks; the last store
        // to an address wins.
        let n_stages = self.shape.n_stages();
        let blocks = &self.blocks;
        let mut master = self.master.write().expect(ONLY_WRITER);
        master.commit_writes((0..n_stages).flat_map(|s| {
            blocks[&(m.0, s)]
                .block
                .iter()
                .filter(|r| r.kind == AccessKind::Store)
                .map(|r| (r.addr, r.value))
        }));
        self.counters.committed += 1;
        self.counters.last_iteration = Some(m);
        self.trace
            .record(Some(m), ev.attempt, None, TraceKind::Committed);
        let hooked = match &mut self.on_commit {
            Some(hook) => catch_unwind(AssertUnwindSafe(|| hook(m, &master))),
            None => Ok(()),
        };
        drop(master);
        for s in 0..n_stages {
            self.blocks.remove(&(m.0, s));
        }
        if let Err(panic) = hooked {
            self.abandon(panic, false);
        }
        let exit_now = self.events.remove(&m.0).is_some_and(|e| e.exit);
        if exit_now || self.limit == Some(m.0 + 1) {
            self.terminate(Some(m));
            return StepResult::Terminated;
        }
        self.next_commit = m.next();
        StepResult::Progress
    }

    /// Orchestrates the §4.3 recovery protocol around the squashed MTX.
    /// `fault` distinguishes a round answering a fabric-fault request
    /// from a data-misspeculation squash — downstream attribution treats
    /// the retries it causes as `fault_induced_retry`, not conflicts.
    fn recover(&mut self, boundary: MtxId, fault: bool) -> StepResult {
        // A typed channel-down shutdown may have raced in: publishing
        // `Recovering` over it would park this unit at a barrier a dead
        // thread can never reach. Honor the shutdown instead.
        if matches!(self.ctrl.status(), Status::Terminating { .. }) {
            return StepResult::Terminated;
        }
        let attempt = self.events.get(&boundary.0).map_or(0, |e| e.attempt);
        let kind = if fault {
            TraceKind::FaultRecoveryStart
        } else {
            TraceKind::RecoveryStart
        };
        self.trace.record(Some(boundary), attempt, None, kind);
        self.ctrl.publish(Status::Recovering { boundary });
        let ctrl = self.ctrl.clone();
        let barrier = ctrl.barrier();
        barrier.wait(); // B1: every thread is in recovery mode.

        // Discard any fault request that raced in while recovery was
        // starting: its raiser is already rendezvousing at these barriers,
        // so this round satisfies it. Without the clear the stale flag
        // would trigger a redundant second round — clearing here is what
        // makes re-entry under faults idempotent.
        self.ctrl.clear_fabric_fault();

        // Flush: everything buffered is speculative state at or after the
        // boundary (all earlier MTXs already committed in order).
        for port in &mut self.from_workers {
            port.drain();
        }
        self.blocks.clear();
        self.events.clear();
        barrier.wait(); // B2: queues are clean everywhere.

        // Re-execute the squashed iteration single-threaded on committed
        // memory while the workers re-protect their heaps. The write lock
        // is gone before the shards reset and before B3: no role waits at
        // a barrier holding it.
        let mut master = self.master.write().expect(ONLY_WRITER);
        let hooked = catch_unwind(AssertUnwindSafe(|| {
            let outcome = (self.recovery)(boundary, &mut master);
            if let Some(hook) = &mut self.on_commit {
                hook(boundary, &master);
            }
            outcome
        }));
        drop(master);
        let outcome = hooked.unwrap_or_else(|panic| self.abandon(panic, true));
        for shard in &mut self.shards {
            shard.reset(boundary);
        }
        self.counters.recovered_iterations += 1;
        self.counters.last_iteration = Some(boundary);
        self.ctrl.record_recovery();
        self.trace
            .record(Some(boundary), attempt, None, TraceKind::RecoveryEnd);

        let done = outcome == IterOutcome::Exit || self.limit == Some(boundary.0 + 1);
        if done {
            self.ctrl.publish(Status::Terminating {
                last: Some(boundary),
            });
        } else {
            self.ctrl.publish(Status::Running);
        }
        barrier.wait(); // B3: parallel execution may recommence.
        if done {
            self.trace
                .record(Some(boundary), attempt, None, TraceKind::Terminated);
            StepResult::Terminated
        } else {
            self.next_commit = boundary.next();
            StepResult::Progress
        }
    }

    /// Ends the units' loop after a user hook (`on_commit` or the
    /// recovery body) panicked, without stranding the workers: publish
    /// `Terminating` — inside a recovery round, also arrive at B3, where
    /// every worker waits — then resume the panic, which `run` reports
    /// as `RunError::ThreadPanic("commit")`. The caller has released the
    /// image.
    fn abandon(&self, panic: Box<dyn Any + Send>, in_recovery: bool) -> ! {
        self.ctrl.publish(Status::Terminating {
            last: self.counters.last_iteration,
        });
        if in_recovery {
            self.ctrl.barrier().wait(); // B3
        }
        resume_unwind(panic)
    }

    fn terminate(&mut self, last: Option<MtxId>) {
        self.ctrl.publish(Status::Terminating { last });
        self.trace.record(last, 0, None, TraceKind::Terminated);
    }
}

impl std::fmt::Debug for CommitUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitUnit")
            .field("next_commit", &self.next_commit)
            .field("committed", &self.counters.committed)
            .finish_non_exhaustive()
    }
}

enum StepResult {
    Progress,
    Idle,
    Terminated,
}

/// The image lock is poisoned only by a panic of its one writer, this
/// unit, which ends the units' loop.
const ONLY_WRITER: &str = "the commit unit is the image's only writer";

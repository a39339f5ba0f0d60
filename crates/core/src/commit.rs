//! The commit unit: group transaction commit and recovery orchestration.
//!
//! The commit unit owns the only committed memory image and is its only
//! writer. It executed the sequential pre-loop code (in this
//! reproduction: the caller built [`dsmtx_mem::MasterMem`] before the
//! run), buffers the store streams of every subTX, and — once *every*
//! try-commit shard validates an MTX's slice of the address space —
//! applies its subTX write-sets in program order (group transaction
//! commit, §3.1: last update to an address wins). A conflict verdict from
//! any shard, or an explicit worker misspeculation, makes it orchestrate
//! the §4.3 recovery protocol and re-execute the squashed iteration
//! single-threaded; all shards participate in the recovery barriers.
//!
//! Copy-On-Access takes no turn of this unit: workers and try-commit
//! shards copy committed pages out of the image themselves, through a
//! read-only `CommittedImage` handle — a one-sided read, like an RDMA
//! READ on the paper's cluster. The unit takes the image's write lock
//! only to apply a group commit, to run the recovery body and to run the
//! `on_commit` hook, and never waits on another role while it holds it.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

use dsmtx_fabric::RecvPort;
use dsmtx_mem::{MasterMem, Page};
use dsmtx_uva::PageId;
use fxhash::FxHashMap;

use crate::config::PipelineShape;
use crate::control::{ControlPlane, Interrupt, Status, EPOCH_UNSEEN};
use crate::ids::MtxId;
use crate::poll;
use crate::program::{CommitHook, IterOutcome, RecoveryFn};
use crate::trace::{Role, TraceKind, TraceSink};
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
        // Poisoned only by a commit-unit panic. Every page write leaves
        // the map sound, the run has failed anyway, and the channels the
        // dead unit dropped unwind this thread.
        self.0
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .page(id)
    }
}

/// Per-MTX events gathered from workers.
#[derive(Debug, Default, Clone, Copy)]
struct Events {
    misspec: bool,
    exit: bool,
    /// Speculative attempt number carried by the worker frames (trace
    /// context), echoed on this unit's lifecycle events for the MTX.
    attempt: u32,
}

/// Counters reported at the end of the run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CommitCounters {
    pub committed: u64,
    pub recovered_iterations: u64,
    pub last_iteration: Option<MtxId>,
    /// Conflicts detected by the try-commit unit's value validation.
    pub validation_conflicts: u64,
    /// Misspeculations declared explicitly by workers (`mtx_misspec`).
    pub worker_misspecs: u64,
    /// Recovery rounds run in answer to fabric-timeout requests (as
    /// opposed to misspeculation verdicts).
    pub fault_recoveries: u64,
}

/// Aggregated per-shard verdicts for one MTX: the group-commit decision
/// needs `VerdictOk` from *every* try-commit shard (each owns a disjoint
/// page partition), while a single `VerdictBad` from any shard squashes
/// the MTX.
#[derive(Debug, Default, Clone, Copy)]
struct VerdictState {
    /// Shards that reported `VerdictOk` so far.
    oks: u16,
    /// True once any shard reported a conflict.
    bad: bool,
}

pub(crate) struct CommitUnit {
    shape: PipelineShape,
    ctrl: ControlPlane,
    trace: TraceSink,
    /// The committed image; this unit is its only writer.
    master: Arc<RwLock<MasterMem>>,
    /// Store-frame/event streams, one per worker, in worker order.
    from_workers: Vec<RecvPort<Msg>>,
    /// Verdict streams, one per try-commit shard.
    from_trycommit: Vec<RecvPort<Msg>>,
    /// Received store blocks per (mtx, stage), decoded at group commit.
    store_sets: FxHashMap<(u64, u16), Box<AccessBlock>>,
    events: BTreeMap<u64, Events>,
    verdicts: BTreeMap<u64, VerdictState>,
    next_commit: MtxId,
    recovery: RecoveryFn,
    on_commit: Option<CommitHook>,
    limit: Option<u64>,
    counters: CommitCounters,
}

pub(crate) struct CommitWiring {
    pub shape: PipelineShape,
    pub ctrl: ControlPlane,
    pub trace: TraceSink,
    pub master: Arc<RwLock<MasterMem>>,
    pub from_workers: Vec<RecvPort<Msg>>,
    pub from_trycommit: Vec<RecvPort<Msg>>,
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
            from_trycommit: w.from_trycommit,
            store_sets: FxHashMap::default(),
            events: BTreeMap::new(),
            verdicts: BTreeMap::new(),
            next_commit: MtxId(0),
            recovery: w.recovery,
            on_commit: w.on_commit,
            limit: w.limit,
            counters: CommitCounters::default(),
        }
    }

    /// The unit's thread body; returns the run counters. It loops on
    /// [`poll::wait`] with one unit turn as the step.
    pub(crate) fn run(mut self) -> CommitCounters {
        if self.limit == Some(0) {
            self.terminate(None);
            return self.counters;
        }
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
                    self.trace
                        .record(Role::Commit, None, 0, None, TraceKind::Terminated);
                    break;
                }
                // Only this unit publishes `Recovering`, and it runs each
                // recovery round to its end inside one turn.
                Err(intr) => unreachable!("commit unit interrupted by {intr}"),
            }
        }
        self.counters
    }

    /// One unit turn: drain the inputs, answer a fabric-fault request with
    /// a recovery round, and otherwise try to commit the next MTX.
    fn turn(&mut self) -> StepResult {
        let progress = self.ingest();
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

    /// Drains available input, at most one batch per stream. Never
    /// blocks.
    ///
    /// The bound keeps a worker that produces faster than this unit
    /// consumes from holding the unit here: the step after it, which
    /// commits or starts the next recovery, always comes.
    fn ingest(&mut self) -> bool {
        let budget = self.shape.batch();
        let mut progress = false;
        // Worker streams: store frames and events.
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
                    Msg::CommitBlock {
                        mtx,
                        attempt,
                        stage,
                        exit,
                        block,
                    } => {
                        self.store_sets.insert((mtx.0, stage.0), block);
                        let ev = self.events.entry(mtx.0).or_default();
                        ev.attempt = attempt;
                        if exit {
                            ev.exit = true;
                        }
                    }
                    Msg::WorkerMisspec { mtx, attempt } => {
                        self.counters.worker_misspecs += 1;
                        let ev = self.events.entry(mtx.0).or_default();
                        ev.attempt = attempt;
                        ev.misspec = true;
                    }
                    other => panic!("unexpected message on commit plane: {other:?}"),
                }
            }
        }
        // Try-commit streams: per-shard verdicts.
        for shard in 0..self.from_trycommit.len() {
            for _ in 0..budget {
                let msg = match self.from_trycommit[shard].try_consume() {
                    Ok(Some(m)) => m,
                    Ok(None) => break,
                    Err(_) => {
                        self.ctrl.report_channel_down();
                        break;
                    }
                };
                progress = true;
                match msg {
                    Msg::VerdictOk { mtx } => {
                        self.verdicts.entry(mtx.0).or_default().oks += 1;
                    }
                    Msg::VerdictBad { mtx } => {
                        let v = self.verdicts.entry(mtx.0).or_default();
                        // Count conflicts per MTX, not per shard: several
                        // shards can each detect a mismatch in the same
                        // MTX, but it is one squash (and at one shard, one
                        // `VerdictBad` per recovery round — so this count
                        // is identical across shard configurations).
                        if !v.bad {
                            self.counters.validation_conflicts += 1;
                        }
                        v.bad = true;
                    }
                    other => panic!("unexpected message from try-commit: {other:?}"),
                }
            }
        }
        progress
    }

    /// Tries to advance the commit cursor by one MTX.
    fn step(&mut self) -> StepResult {
        let m = self.next_commit;
        let ev = self.events.get(&m.0).copied().unwrap_or_default();
        let verdict = self.verdicts.get(&m.0).copied().unwrap_or_default();
        if ev.misspec || verdict.bad {
            return self.recover(m, false);
        }
        // Group-commit decision: every shard must have validated its
        // partition of the MTX.
        if (verdict.oks as usize) < self.from_trycommit.len() {
            return StepResult::Idle;
        }
        // All stage write-sets must have arrived (they were sent at the
        // same subTX ends that produced the validated streams).
        let all_here = (0..self.shape.n_stages()).all(|s| self.store_sets.contains_key(&(m.0, s)));
        if !all_here {
            return StepResult::Idle;
        }
        // Group transaction commit: apply subTX write-sets in program
        // (stage) order; the last store to an address wins.
        let mut writes = Vec::new();
        for s in 0..self.shape.n_stages() {
            let block = self.store_sets.remove(&(m.0, s)).expect("checked above");
            writes.extend(block.iter().map(|r| (r.addr, r.value)));
        }
        {
            let mut master = self.master.write().expect(ONLY_WRITER);
            master.commit_writes_parallel(writes);
            self.counters.committed += 1;
            self.counters.last_iteration = Some(m);
            self.trace.record(
                Role::Commit,
                Some(m),
                ev.attempt,
                None,
                TraceKind::Committed,
            );
            if let Some(hook) = &mut self.on_commit {
                hook(m, &master);
            }
        }
        self.verdicts.remove(&m.0);
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
        self.trace
            .record(Role::Commit, Some(boundary), attempt, None, kind);
        self.ctrl.publish(Status::Recovering { boundary });
        let barrier = self.ctrl.barrier().clone();
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
        for port in &mut self.from_trycommit {
            port.drain();
        }
        self.store_sets.clear();
        self.events.clear();
        self.verdicts.clear();
        barrier.wait(); // B2: queues are clean everywhere.

        // Re-execute the squashed iteration single-threaded on committed
        // memory while the workers re-protect their heaps. The write lock
        // is gone before B3: no role waits at a barrier holding it.
        let outcome = {
            let mut master = self.master.write().expect(ONLY_WRITER);
            let outcome = (self.recovery)(boundary, &mut master);
            self.counters.recovered_iterations += 1;
            self.counters.last_iteration = Some(boundary);
            self.ctrl.record_recovery();
            if let Some(hook) = &mut self.on_commit {
                hook(boundary, &master);
            }
            outcome
        };
        self.trace.record(
            Role::Commit,
            Some(boundary),
            attempt,
            None,
            TraceKind::RecoveryEnd,
        );

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
            self.trace.record(
                Role::Commit,
                Some(boundary),
                attempt,
                None,
                TraceKind::Terminated,
            );
            StepResult::Terminated
        } else {
            self.next_commit = boundary.next();
            StepResult::Progress
        }
    }

    fn terminate(&mut self, last: Option<MtxId>) {
        self.ctrl.publish(Status::Terminating { last });
        self.trace
            .record(Role::Commit, last, 0, None, TraceKind::Terminated);
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
/// unit, which ends the unit's thread.
const ONLY_WRITER: &str = "the commit unit is the image's only writer";

//! The commit unit: group transaction commit, Copy-On-Access service, and
//! recovery orchestration.
//!
//! The commit unit owns the only committed memory image. It executed the
//! sequential pre-loop code (in this reproduction: the caller built
//! [`dsmtx_mem::MasterMem`] before the run), serves COA page requests from
//! workers and the try-commit unit, buffers the store streams of every
//! subTX, and — once *every* try-commit shard validates an MTX's slice of
//! the address space — applies its subTX write-sets in program order
//! (group transaction commit, §3.1: last update to an address wins). A
//! conflict verdict from any shard, or an explicit worker
//! misspeculation, makes it orchestrate the §4.3 recovery protocol and
//! re-execute the squashed iteration single-threaded; all shards
//! participate in the recovery barriers.

use std::collections::BTreeMap;

use dsmtx_fabric::{RecvPort, SendPort};
use dsmtx_mem::MasterMem;
use dsmtx_uva::PageId;
use fxhash::FxHashMap;

use crate::config::PipelineShape;
use crate::control::{ControlPlane, Interrupt, Status, EPOCH_UNSEEN};
use crate::ids::MtxId;
use crate::poll::Backoff;
use crate::program::{CommitHook, IterOutcome, RecoveryFn};
use crate::trace::{Role, TraceKind, TraceSink};
use crate::wire::{AccessBlock, Msg, EPOCH_NONE};

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
    pub coa_pages_served: u64,
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
    master: MasterMem,
    /// Store-frame/event/COA streams, one per worker, in worker order.
    from_workers: Vec<RecvPort<Msg>>,
    /// Verdict/COA streams, one per try-commit shard.
    from_trycommit: Vec<RecvPort<Msg>>,
    /// COA reply queues, one per worker, in worker order.
    coa_out: Vec<SendPort<Msg>>,
    /// COA reply queues, one per try-commit shard.
    coa_tc_out: Vec<SendPort<Msg>>,
    /// Received store blocks per (mtx, stage), decoded at group commit.
    store_sets: FxHashMap<(u64, u16), Box<AccessBlock>>,
    events: BTreeMap<u64, Events>,
    verdicts: BTreeMap<u64, VerdictState>,
    next_commit: MtxId,
    recovery: RecoveryFn,
    on_commit: Option<CommitHook>,
    limit: Option<u64>,
    counters: CommitCounters,
    /// Commit epoch: bumped after every mutation of committed memory
    /// (group commit, recovery re-execution). COA replies piggyback it so
    /// requesters can tag their cached copies.
    commit_epoch: u64,
    /// Per-page last-modification epochs; a page absent here has not been
    /// committed to since the pre-loop baseline (epoch 0). Never cleared:
    /// committed memory survives recovery, so do its modification times.
    page_epochs: FxHashMap<PageId, u64>,
}

pub(crate) struct CommitWiring {
    pub shape: PipelineShape,
    pub ctrl: ControlPlane,
    pub trace: TraceSink,
    pub master: MasterMem,
    pub from_workers: Vec<RecvPort<Msg>>,
    pub from_trycommit: Vec<RecvPort<Msg>>,
    pub coa_out: Vec<SendPort<Msg>>,
    pub coa_tc_out: Vec<SendPort<Msg>>,
    pub recovery: RecoveryFn,
    pub on_commit: Option<CommitHook>,
    pub limit: Option<u64>,
}

impl CommitUnit {
    pub(crate) fn new(w: CommitWiring) -> Self {
        let mut master = w.master;
        // Pre-loop sequential writes are the epoch-0 baseline: a page
        // absent from `page_epochs` reads as modified-at-0, so the dirty
        // set they left behind carries no information — discard it.
        let _ = master.take_dirty();
        CommitUnit {
            shape: w.shape,
            ctrl: w.ctrl,
            trace: w.trace,
            master,
            from_workers: w.from_workers,
            from_trycommit: w.from_trycommit,
            coa_out: w.coa_out,
            coa_tc_out: w.coa_tc_out,
            store_sets: FxHashMap::default(),
            events: BTreeMap::new(),
            verdicts: BTreeMap::new(),
            next_commit: MtxId(0),
            recovery: w.recovery,
            on_commit: w.on_commit,
            limit: w.limit,
            counters: CommitCounters::default(),
            commit_epoch: 0,
            page_epochs: FxHashMap::default(),
        }
    }

    /// Bumps the commit epoch after a mutation of committed memory and
    /// stamps every page the batch touched.
    fn advance_epoch(&mut self) {
        self.commit_epoch += 1;
        for page in self.master.take_dirty() {
            self.page_epochs.insert(page, self.commit_epoch);
        }
    }

    /// The unit's thread body; returns the final committed memory and the
    /// run counters.
    pub(crate) fn run(mut self) -> (MasterMem, CommitCounters) {
        if self.limit == Some(0) {
            self.terminate(None);
            return (self.master, self.counters);
        }
        let mut backoff = Backoff::new();
        let mut epoch = EPOCH_UNSEEN;
        loop {
            // The commit unit is normally the only status writer, but a
            // thread that found its channel dead publishes the typed
            // `Terminating` shutdown directly — honor it instead of
            // spinning forever on queues that will never fill.
            if let Some(Interrupt::Terminate) = self.ctrl.poll(&mut epoch) {
                self.trace
                    .record(Role::Commit, None, 0, None, TraceKind::Terminated);
                break;
            }
            let mut progress = self.ingest();
            // A fabric timeout anywhere converts into a recovery round at
            // the next commit boundary — never later, or uncommitted
            // intermediate MTXs would be silently lost.
            if self.ctrl.take_fabric_fault() {
                self.counters.fault_recoveries += 1;
                match self.recover(self.next_commit, true) {
                    StepResult::Terminated => break,
                    _ => {
                        backoff.reset();
                        continue;
                    }
                }
            }
            match self.step() {
                StepResult::Progress => progress = true,
                StepResult::Idle => {}
                StepResult::Terminated => break,
            }
            if progress {
                backoff.reset();
            } else {
                backoff.wait();
            }
        }
        (self.master, self.counters)
    }

    /// Drains available input and services COA requests. Never blocks.
    fn ingest(&mut self) -> bool {
        let mut progress = false;
        // Worker streams: store frames, events, COA requests.
        for worker in 0..self.from_workers.len() {
            loop {
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
                    Msg::CoaRequest { page, have } => self.serve_coa_worker(worker, page, have),
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
        // Try-commit streams: per-shard verdicts and COA requests.
        for shard in 0..self.from_trycommit.len() {
            loop {
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
                    Msg::CoaRequest { page, .. } => self.serve_coa_trycommit(shard, page),
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

    /// Builds the reply to a COA request: the full committed page, or a
    /// payload-free [`Msg::CoaFresh`] when the requester's cached copy
    /// (current as of epoch `have`) has not been committed to since.
    fn coa_reply(&mut self, page: u64, have: u64) -> Msg {
        let modified = self.page_epochs.get(&PageId(page)).copied().unwrap_or(0);
        if have != EPOCH_NONE && modified <= have {
            Msg::CoaFresh {
                page,
                epoch: self.commit_epoch,
            }
        } else {
            self.counters.coa_pages_served += 1;
            Msg::CoaReply {
                page,
                epoch: self.commit_epoch,
                data: Box::new(self.master.page(PageId(page))),
            }
        }
    }

    fn serve_coa_worker(&mut self, worker: usize, page: u64, have: u64) {
        let reply = self.coa_reply(page, have);
        let port = &mut self.coa_out[worker];
        // Replies are batch=1 queues with ample capacity: at most one
        // outstanding request per worker, so fault-free this cannot block.
        let sent = port.produce(reply).and_then(|()| {
            // Under fault injection the flush is a bounded retry loop.
            port.flush()
        });
        self.note_send_failure(sent);
    }

    fn serve_coa_trycommit(&mut self, shard: usize, page: u64) {
        // The shards advertise no cache; always ship the full page.
        let reply = self.coa_reply(page, EPOCH_NONE);
        let port = &mut self.coa_tc_out[shard];
        let sent = port.produce(reply).and_then(|()| port.flush());
        self.note_send_failure(sent);
    }

    /// Converts a failed COA-reply send into the appropriate control-plane
    /// action: an exhausted retry budget self-requests a recovery round
    /// (consumed at this unit's next loop turn); a dead peer becomes the
    /// typed shutdown. The starved requester's own receive deadline backs
    /// this up.
    fn note_send_failure(&mut self, sent: dsmtx_fabric::Result<()>) {
        match sent {
            Ok(()) => {}
            Err(dsmtx_fabric::FabricError::Timeout) => self.ctrl.raise_fabric_fault(),
            Err(_) => self.ctrl.report_channel_down(),
        }
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
        self.master.commit_writes_parallel(writes);
        self.advance_epoch();
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
            hook(m, &self.master);
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
        for port in &mut self.coa_out {
            port.clear();
        }
        for port in &mut self.coa_tc_out {
            port.clear();
        }
        self.store_sets.clear();
        self.events.clear();
        self.verdicts.clear();
        barrier.wait(); // B2: queues are clean everywhere.

        // Re-execute the squashed iteration single-threaded on committed
        // memory while the workers re-protect their heaps.
        let outcome = (self.recovery)(boundary, &mut self.master);
        self.advance_epoch();
        self.counters.recovered_iterations += 1;
        self.counters.last_iteration = Some(boundary);
        self.ctrl.record_recovery();
        if let Some(hook) = &mut self.on_commit {
            hook(boundary, &self.master);
        }
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

//! System construction and execution.
//!
//! [`MtxSystem`] is `mtx_newDSMTXsystem` of Table 1: it takes a pipeline
//! configuration, wires the communication topology (workers of earlier
//! stages to the executors of later stages, every worker to every
//! try-commit shard and to the commit unit, every shard to the commit
//! unit), shares the committed image, and spawns one thread per worker
//! plus `unit_shards` try-commit threads and the commit unit — the
//! paper's `mtx_spawn`, `mtx_tryCommitUnit`, and `mtx_commitUnit`, with
//! `DSMTX_Init`/`DSMTX_Finalize` folded into [`MtxSystem::run`]'s setup
//! and teardown. With `unit_shards > 1` the speculation units are
//! address-partitioned (§3.2): each shard owns a disjoint hash-partition
//! of the page space and validates only its slice of every MTX's access
//! stream.
//!
//! Only the topology the MTX protocol needs is wired — a worker connects
//! to the workers of later stages, the units, and (for ring stages) its
//! successor replica — so the channel count never grows quadratically in
//! the total thread count (§3.1). [`MtxSystem::run`] opens each link once,
//! in a fixed order, and hands its two ends straight to the roles it
//! joins. The commit unit sends on no link: workers and try-commit shards
//! copy committed pages out of the shared image themselves.

use std::sync::{Arc, RwLock};
use std::time::Instant;

use dsmtx_fabric::{channel_faulted, CostModel, FabricStats, FaultPlan, RetryPolicy};
use dsmtx_uva::{OwnerId, RegionAllocator};

use crate::commit::{CommitUnit, CommitWiring, CommittedImage};
use crate::config::{ConfigError, FaultTarget, PipelineShape, SystemConfig};
use crate::control::ControlPlane;
use crate::ids::WorkerId;
use crate::program::Program;
use crate::report::{RunReport, RunResult};
use crate::trace::TraceSink;
use crate::trycommit::{TryCommitUnit, TryCommitWiring};
use crate::wire::Msg;
use crate::worker::{worker_main, WorkerCtx, WorkerWiring};

/// Errors from running a program.
#[derive(Debug)]
pub enum RunError {
    /// The program's stage-body count does not match the pipeline.
    StageCountMismatch {
        /// Stages in the pipeline configuration.
        expected: u16,
        /// Stage bodies supplied by the program.
        actual: usize,
    },
    /// A runtime thread panicked (protocol violation or panicking stage
    /// body).
    ThreadPanic(&'static str),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::StageCountMismatch { expected, actual } => {
                write!(f, "pipeline has {expected} stages but program has {actual}")
            }
            RunError::ThreadPanic(who) => write!(f, "runtime thread panicked: {who}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The UVA region owner assigned to a worker's private heap.
///
/// Owner 0 is the commit unit (all state created by the sequential
/// pre-loop code); workers own the following regions.
pub fn worker_owner(worker: WorkerId) -> OwnerId {
    OwnerId(worker.0 + 1)
}

/// A configured DSMTX system, ready to run programs.
#[derive(Debug, Clone)]
pub struct MtxSystem {
    shape: PipelineShape,
    tracing: bool,
    trace_capacity: usize,
}

impl MtxSystem {
    /// Validates the configuration and builds a system.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn new(config: &SystemConfig) -> Result<Self, ConfigError> {
        Ok(MtxSystem {
            shape: config.build()?,
            tracing: false,
            trace_capacity: crate::trace::DEFAULT_TRACE_CAPACITY,
        })
    }

    /// Enables event tracing for subsequent runs (Figure-3 style execution
    /// model inspection).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Caps the trace buffer at `capacity` events for subsequent traced
    /// runs; events past the cap are counted in
    /// `RunReport::trace_dropped` instead of stored.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// The validated pipeline shape.
    pub fn shape(&self) -> &PipelineShape {
        &self.shape
    }

    /// Runs one parallelized loop to completion (commit of the final
    /// iteration), returning the committed memory and a report.
    ///
    /// # Errors
    ///
    /// [`RunError::StageCountMismatch`] if the program does not fit the
    /// pipeline; [`RunError::ThreadPanic`] if a stage body or the runtime
    /// itself panicked.
    pub fn run(&self, program: Program) -> Result<RunResult, RunError> {
        let shape = &self.shape;
        if program.stages.len() != shape.n_stages() as usize {
            return Err(RunError::StageCountMismatch {
                expected: shape.n_stages(),
                actual: program.stages.len(),
            });
        }
        let n_workers = shape.n_workers() as usize;
        let n_shards = shape.unit_shards();
        let trace = if self.tracing {
            TraceSink::with_capacity(self.trace_capacity)
        } else {
            TraceSink::disabled()
        };
        let ctrl = ControlPlane::new(n_workers + n_shards + 1);
        // The committed image: the commit unit writes it, every other
        // role only copies pages out of it (one-sided Copy-On-Access).
        let image = Arc::new(RwLock::new(program.master));

        // ---- links ----------------------------------------------------
        // Every link opens here, in one fixed order, and its two ends go
        // straight to the roles it joins. Link `i` draws its fault
        // decisions from `plan.injector(i)`, so a fault schedule is a pure
        // function of (seed, link order). A plan injects only into links
        // whose source role its target names: the injector lives on the
        // send side.
        let stats = FabricStats::new();
        let fault = shape
            .fault()
            .map(|fc| (fc.target, FaultPlan::new(fc.seed, fc.rates), fc.retry));
        let mut link = 0u64;
        let mut open = |class: FaultTarget| {
            let (injector, retry) = match fault {
                Some((target, plan, retry)) if target == FaultTarget::All || target == class => {
                    (Some(plan.injector(link)), retry)
                }
                _ => (None, RetryPolicy::DEFAULT),
            };
            link += 1;
            channel_faulted::<Msg>(
                shape.batch(),
                shape.capacity(),
                CostModel::FREE,
                stats.clone(),
                injector,
                retry,
            )
        };
        let workers = || (0..n_workers).map(|w| WorkerId(w as u16));

        // Data links: each worker to every later-stage worker, then to its
        // ring successor.
        let mut out: Vec<Vec<_>> = workers().map(|_| Vec::new()).collect();
        let mut inn: Vec<Vec<_>> = workers().map(|_| Vec::new()).collect();
        for a in workers() {
            let later = workers().filter(|&b| shape.stage_of(a) < shape.stage_of(b));
            for b in later.chain(shape.ring_next(a)) {
                let (tx, rx) = open(FaultTarget::WorkerLinks);
                out[usize::from(a.0)].push((b, tx));
                inn[usize::from(b.0)].push((a, rx));
            }
        }

        // Unit links: each worker to every try-commit shard and to the
        // commit unit.
        let mut val_in: Vec<Vec<_>> = (0..n_shards).map(|_| Vec::new()).collect();
        let mut from_workers = Vec::with_capacity(n_workers);
        let mut worker_wirings = Vec::with_capacity(n_workers);
        for ((worker, out), inn) in workers().zip(out).zip(inn) {
            let val_out = val_in
                .iter_mut()
                .map(|val_in| {
                    let (tx, rx) = open(FaultTarget::WorkerLinks);
                    val_in.push(rx);
                    tx
                })
                .collect();
            let (cu_out, from_worker) = open(FaultTarget::WorkerLinks);
            from_workers.push(from_worker);
            worker_wirings.push(WorkerWiring {
                worker,
                shape: shape.clone(),
                ctrl: ctrl.clone(),
                trace: trace.clone(),
                heap: RegionAllocator::new(worker_owner(worker)),
                out,
                inn,
                val_out,
                cu_out,
                committed: CommittedImage::new(&image),
            });
        }

        // Shard links: each try-commit shard's verdicts to the commit unit.
        let mut from_trycommit = Vec::with_capacity(n_shards);
        let mut tc_wirings = Vec::with_capacity(n_shards);
        for (shard, val_in) in val_in.into_iter().enumerate() {
            let (to_commit, from_shard) = open(FaultTarget::TryCommitLinks);
            from_trycommit.push(from_shard);
            tc_wirings.push(TryCommitWiring {
                shape: shape.clone(),
                ctrl: ctrl.clone(),
                trace: trace.clone(),
                shard: shard as u16,
                val_in,
                to_commit,
                committed: CommittedImage::new(&image),
            });
        }

        let cu_wiring = CommitWiring {
            shape: shape.clone(),
            ctrl: ctrl.clone(),
            trace: trace.clone(),
            master: Arc::clone(&image),
            from_workers,
            from_trycommit,
            recovery: program.recovery,
            on_commit: program.on_commit,
            limit: program.iteration_limit,
        };

        // ---- execution ------------------------------------------------
        let start = Instant::now();
        let stages = program.stages;
        let limit = program.iteration_limit;
        let outcome = std::thread::scope(|scope| {
            let mut worker_handles = Vec::with_capacity(n_workers);
            for wiring in worker_wirings {
                let stage = shape.stage_of(wiring.worker);
                let stage_fn = stages[stage.0 as usize].clone();
                worker_handles.push(scope.spawn(move || {
                    let ctx = WorkerCtx::new(wiring);
                    worker_main(ctx, stage_fn, limit)
                }));
            }
            let tc_handles: Vec<_> = tc_wirings
                .into_iter()
                .map(|w| scope.spawn(move || TryCommitUnit::new(w).run()))
                .collect();
            let cu_handle = scope.spawn(move || CommitUnit::new(cu_wiring).run());

            let commit_result = cu_handle.join();
            let tc_results: Vec<_> = tc_handles.into_iter().map(|h| h.join()).collect();
            let worker_results: Vec<_> = worker_handles.into_iter().map(|h| h.join()).collect();
            (commit_result, tc_results, worker_results)
        });
        let elapsed = start.elapsed();

        let (commit_result, tc_results, worker_results) = outcome;
        // First, because a commit-unit panic is also what poisons the
        // image lock.
        let counters = commit_result.map_err(|_| RunError::ThreadPanic("commit"))?;
        // Every page copied out of the committed image, by shards and
        // workers alike.
        let mut coa_pages_served = 0;
        let mut shard_stats = Vec::with_capacity(n_shards);
        let mut conflict_events = Vec::new();
        for r in tc_results {
            let c = r.map_err(|_| RunError::ThreadPanic("try-commit"))?;
            coa_pages_served += c.coa_fetches;
            conflict_events.extend(c.conflict_events);
            shard_stats.push(crate::report::ShardStats {
                validated: c.validated,
                conflicts: c.conflicts,
                conflict_pages: c.conflict_pages,
                coa_fetches: c.coa_fetches,
                replay_lag: c.replay_lag,
                verdict_latency: c.verdict_latency,
                busy_ppm: c.busy_ppm,
            });
        }
        // Deterministic order regardless of shard join order.
        conflict_events.sort_by_key(|e| (e.mtx, e.attempt, e.shard, e.page));
        let mut valplane = crate::report::ValPlaneStats::default();
        for r in worker_results {
            let ctx = r.map_err(|_| RunError::ThreadPanic("worker"))?;
            coa_pages_served += ctx.coa_faults();
            valplane.merge(&ctx.valplane());
        }
        let master = Arc::try_unwrap(image)
            .expect("every role has returned its image handle")
            .into_inner()
            .expect("the commit unit returned, so the image lock is sound");

        let report = RunReport {
            committed: counters.committed,
            recoveries: ctrl.recoveries(),
            recovered_iterations: counters.recovered_iterations,
            last_iteration: counters.last_iteration,
            coa_pages_served,
            validation_conflicts: counters.validation_conflicts,
            worker_misspecs: counters.worker_misspecs,
            fabric_timeouts: ctrl.fabric_faults(),
            fault_recoveries: counters.fault_recoveries,
            channel_downs: ctrl.channel_downs(),
            shard_stats,
            conflict_events,
            valplane,
            stats,
            elapsed,
            trace: trace.events(),
            trace_dropped: trace.dropped_events(),
        };
        Ok(RunResult { master, report })
    }
}

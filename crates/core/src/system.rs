//! System construction and execution.
//!
//! [`MtxSystem`] is `mtx_newDSMTXsystem` of Table 1: it takes a pipeline
//! configuration, wires the communication topology (workers of earlier
//! stages to the executors of later stages, every worker to the
//! speculation units over one link), shares the committed image,
//! spawns one thread per worker, and runs the speculation units itself —
//! the paper's `mtx_spawn`, `mtx_tryCommitUnit`, and `mtx_commitUnit`,
//! with `DSMTX_Init`/`DSMTX_Finalize` folded into [`MtxSystem::run`]'s
//! setup and teardown. The thread that calls [`MtxSystem::run`] is the
//! units' only thread: it runs the commit unit's loop, whose every turn
//! also runs each try-commit shard's turn, and then joins the workers.
//! With `unit_shards > 1` the speculation units are address-partitioned
//! (§3.2): each shard owns a disjoint hash-partition of the page space
//! and validates only its slice of every MTX's access stream, which it
//! reads from the same block as every other shard.
//!
//! Only the topology the MTX protocol needs is wired — a worker connects
//! to the workers of later stages, the units (one link, at every shard
//! count), and (for ring stages) its successor replica — so the channel
//! count never grows quadratically in the total thread count (§3.1).
//! [`MtxSystem::run`] opens each link once, in a fixed order, and hands
//! its two ends straight to the roles it joins. Every link starts at a
//! worker: the speculation units send on none. Workers and try-commit
//! shards copy committed pages out of the shared image themselves, the
//! shards read the commit unit's received blocks in place, and the
//! commit unit reads each shard's verdicts in place.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use dsmtx_fabric::{channel_faulted, CostModel, FabricStats, FaultPlan, RetryPolicy};
use dsmtx_uva::{OwnerId, RegionAllocator};

use crate::commit::{CommitUnit, CommitWiring, CommittedImage};
use crate::config::{ConfigError, PipelineShape, SystemConfig};
use crate::control::{ControlPlane, Status};
use crate::ids::WorkerId;
use crate::program::Program;
use crate::report::{RunReport, RunResult};
use crate::trace::{self, Role, TraceBuffer, DEFAULT_TRACE_CAPACITY};
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
    /// A runtime role panicked: `"worker"` for a worker thread (a
    /// panicking stage body or a protocol violation), `"commit"` for the
    /// speculation units on the calling thread (a panicking `on_commit`
    /// hook or recovery body, or a protocol violation in the commit unit
    /// or a try-commit shard).
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
        })
    }

    /// Enables event tracing for subsequent runs (Figure-3 style execution
    /// model inspection). A traced run stores at most
    /// [`DEFAULT_TRACE_CAPACITY`] events, split evenly across its roles,
    /// and counts the rest in `RunReport::trace_dropped`.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
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
    /// pipeline; [`RunError::ThreadPanic`] if a stage body, a hook, or the
    /// runtime itself panicked. No panic escapes this call.
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
        // Every role records into a buffer of its own, stamped from one
        // origin; `trace::merge` joins them once the roles have returned.
        let origin = self.tracing.then(Instant::now);
        let share = DEFAULT_TRACE_CAPACITY / (n_workers + n_shards + 1);
        let role_trace = |role| TraceBuffer::new(role, origin, share);
        // The recovery barriers' parties: the workers and this thread.
        let ctrl = ControlPlane::new(n_workers + 1);
        // The committed image: the commit unit writes it, every other
        // role only copies pages out of it (one-sided Copy-On-Access).
        let image = Arc::new(RwLock::new(program.master));

        // ---- links ----------------------------------------------------
        // Every link opens here, in one fixed order, and its two ends go
        // straight to the roles it joins. Link `i` draws its fault
        // decisions from `plan.injector(i)`, so a fault schedule is a pure
        // function of (seed, link order). Each end counts its own traffic.
        let fault = shape
            .fault()
            .map(|fc| (FaultPlan::new(fc.seed, fc.rates), fc.retry));
        let mut link = 0u64;
        let mut open = || {
            let (injector, retry) = match fault {
                Some((plan, retry)) => (Some(plan.injector(link)), retry),
                None => (None, RetryPolicy::DEFAULT),
            };
            link += 1;
            channel_faulted::<Msg>(
                shape.batch(),
                shape.capacity(),
                CostModel::FREE,
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
                let (tx, rx) = open();
                out[usize::from(a.0)].push((b, tx));
                inn[usize::from(b.0)].push((a, rx));
            }
        }

        // Unit links: one from each worker to the speculation units.
        let mut from_workers = Vec::with_capacity(n_workers);
        let mut worker_wirings = Vec::with_capacity(n_workers);
        for ((worker, out), inn) in workers().zip(out).zip(inn) {
            let (unit_out, from_worker) = open();
            from_workers.push(from_worker);
            worker_wirings.push(WorkerWiring {
                worker,
                shape: shape.clone(),
                ctrl: ctrl.clone(),
                trace: role_trace(Role::Worker(u32::from(worker.0))),
                heap: RegionAllocator::new(worker_owner(worker)),
                out,
                inn,
                unit_out,
                committed: CommittedImage::new(&image),
            });
        }

        let shards = (0..n_shards)
            .map(|shard| {
                TryCommitUnit::new(TryCommitWiring {
                    shape: shape.clone(),
                    trace: role_trace(Role::TryCommit(shard as u16)),
                    shard: shard as u16,
                    committed: CommittedImage::new(&image),
                })
            })
            .collect();

        let cu_wiring = CommitWiring {
            shape: shape.clone(),
            ctrl: ctrl.clone(),
            trace: role_trace(Role::Commit),
            master: Arc::clone(&image),
            from_workers,
            shards,
            recovery: program.recovery,
            on_commit: program.on_commit,
            limit: program.iteration_limit,
        };

        // ---- execution ------------------------------------------------
        let start = Instant::now();
        let stages = program.stages;
        let limit = program.iteration_limit;
        let (units, worker_results) = std::thread::scope(|scope| {
            let workers: Vec<_> = worker_wirings
                .into_iter()
                .map(|wiring| {
                    let stage_fn = stages[shape.stage_of(wiring.worker).0 as usize].clone();
                    scope.spawn(move || worker_main(WorkerCtx::new(wiring), stage_fn, limit))
                })
                .collect();
            let units = catch_unwind(AssertUnwindSafe(|| CommitUnit::new(cu_wiring).run()));
            if units.is_err() {
                // A hook panic has published this already; any other
                // unit panic has not, and the workers wait on the status.
                ctrl.publish(Status::Terminating { last: None });
            }
            let workers: Vec<_> = workers.into_iter().map(|h| h.join()).collect();
            (units, workers)
        });
        let elapsed = start.elapsed();

        // First, because a unit panic is also what poisons the image lock.
        let units = units.map_err(|_| RunError::ThreadPanic("commit"))?;
        // Every page copied out of the committed image, by shards and
        // workers alike.
        let mut coa_pages_served = 0;
        let mut shard_stats = Vec::with_capacity(n_shards);
        let mut conflict_events = Vec::new();
        let wall = elapsed.as_nanos().max(1);
        for c in units.shards {
            coa_pages_served += c.coa_fetches;
            conflict_events.extend(c.conflict_events);
            shard_stats.push(crate::report::ShardStats {
                validated: c.validated,
                conflicts: c.conflicts,
                coa_fetches: c.coa_fetches,
                replay_lag: c.replay_lag,
                verdict_latency: c.verdict_latency,
                busy_ppm: (c.busy.as_nanos().min(wall) * 1_000_000 / wall) as u64,
            });
        }
        // Deterministic order across shards.
        conflict_events.sort_by_key(|e| (e.mtx, e.attempt, e.shard, e.page));
        // Telemetry stays with the role that recorded it until here: fold
        // every link end's counters into one set, and merge the roles'
        // traces.
        let mut stats = FabricStats::new();
        let mut traces = Vec::with_capacity(n_workers + n_shards + 1);
        let mut valplane = crate::report::ValPlaneStats::default();
        for r in worker_results {
            let ctx = r.map_err(|_| RunError::ThreadPanic("worker"))?;
            coa_pages_served += ctx.coa_faults();
            valplane.merge(&ctx.valplane());
            for port in ctx.link_stats() {
                stats.merge(port);
            }
            traces.push(ctx.trace);
        }
        for port in &units.links {
            stats.merge(port.stats());
        }
        // Workers first, then the units: the order that events stamped in
        // the same microsecond keep, which is the order a subTX flows
        // through the roles.
        traces.extend(units.traces);
        let (trace, trace_dropped) = trace::merge(traces);
        let master = Arc::try_unwrap(image)
            .expect("every role has returned its image handle")
            .into_inner()
            .expect("the units returned, so the image lock is sound");

        let counters = units.counters;
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
            trace,
            trace_dropped,
        };
        Ok(RunResult { master, report })
    }
}

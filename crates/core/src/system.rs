//! System construction and execution.
//!
//! [`MtxSystem`] is `mtx_newDSMTXsystem` of Table 1: it takes a pipeline
//! configuration, wires the communication topology (workers of earlier
//! stages to the executors of later stages, every worker to every
//! try-commit shard and to the commit unit, COA reply channels back), and
//! spawns one thread per worker plus `unit_shards` try-commit threads and
//! the commit unit — the paper's `mtx_spawn`, `mtx_tryCommitUnit`, and
//! `mtx_commitUnit`, with `DSMTX_Init`/`DSMTX_Finalize` folded into
//! [`MtxSystem::run`]'s setup and teardown. With `unit_shards > 1` the
//! speculation units are address-partitioned (§3.2): each shard owns a
//! disjoint hash-partition of the page space and validates only its
//! slice of every MTX's access stream.
//!
//! Only the topology the MTX protocol needs is wired — a worker connects
//! to the workers of later stages, the units, and (for ring stages) its
//! successor replica — so the channel count never grows quadratically in
//! the total thread count (§3.1).

use std::time::Instant;

use dsmtx_fabric::{EndpointId, FaultPlan, MeshBuilder};
use dsmtx_uva::{OwnerId, RegionAllocator};

use crate::commit::{CommitUnit, CommitWiring};
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

        // ---- topology -------------------------------------------------
        let mut builder = MeshBuilder::new();
        let worker_eps: Vec<EndpointId> = (0..n_workers)
            .map(|w| builder.endpoint(format!("worker{w}")))
            .collect();
        let tc_eps: Vec<EndpointId> = (0..n_shards)
            .map(|s| builder.endpoint(format!("try-commit{s}")))
            .collect();
        let cu_ep = builder.endpoint("commit");

        // Fault injection: derive every faulted link's decision stream
        // from one plan, selected by the link's *source* endpoint. The
        // schedule is then a pure function of (seed, wiring order) — the
        // same seed replays the same faults.
        let fault_target = shape.fault().map(|fc| {
            builder.fault_plan(FaultPlan::new(fc.seed, fc.rates));
            builder.retry_policy(fc.retry);
            fc.target
        });
        let hits =
            |t: FaultTarget| fault_target == Some(FaultTarget::All) || fault_target == Some(t);
        let worker_links = hits(FaultTarget::WorkerLinks);
        let tc_links = hits(FaultTarget::TryCommitLinks);
        let cu_links = hits(FaultTarget::CommitLinks);

        let batch = shape.batch();
        let cap = shape.capacity();
        let link = |b: &mut MeshBuilder,
                    from: EndpointId,
                    to: EndpointId,
                    batch: usize,
                    cap: usize,
                    faulted: bool| {
            if faulted {
                b.connect_faulted(from, to, batch, cap).map(|_| ())
            } else {
                b.connect(from, to, batch, cap).map(|_| ())
            }
        };
        for a in 0..n_workers {
            let sa = shape.stage_of(WorkerId(a as u16));
            for b in 0..n_workers {
                let sb = shape.stage_of(WorkerId(b as u16));
                if sa < sb {
                    link(
                        &mut builder,
                        worker_eps[a],
                        worker_eps[b],
                        batch,
                        cap,
                        worker_links,
                    )
                    .expect("data link");
                }
            }
            if let Some(next) = shape.ring_next(WorkerId(a as u16)) {
                link(
                    &mut builder,
                    worker_eps[a],
                    worker_eps[usize::from(next.0)],
                    batch,
                    cap,
                    worker_links,
                )
                .expect("ring link");
            }
        }
        for &ep in &worker_eps {
            for &tc in &tc_eps {
                link(&mut builder, ep, tc, batch, cap, worker_links).expect("validation link");
            }
            link(&mut builder, ep, cu_ep, batch, cap, worker_links).expect("commit link");
            link(&mut builder, cu_ep, ep, 1, 8, cu_links).expect("coa reply link");
        }
        for &tc in &tc_eps {
            link(&mut builder, tc, cu_ep, batch, cap, tc_links).expect("verdict link");
            link(&mut builder, cu_ep, tc, 1, 8, cu_links).expect("coa reply link");
        }

        let mut mesh = builder.build::<Msg>();

        // ---- port bundles ---------------------------------------------
        // Workers were declared first, so their endpoint ids are dense in
        // 0..n_workers; shard index = position in `tc_eps`.
        let is_worker = |ep: EndpointId| ep.0 < n_workers;
        let as_worker = |ep: EndpointId| WorkerId(ep.0 as u16);
        let shard_of_ep = |ep: EndpointId| tc_eps.iter().position(|&t| t == ep);

        let mut worker_wirings = Vec::with_capacity(n_workers);
        for (w, &ep) in worker_eps.iter().enumerate() {
            let ports = mesh.take_ports(ep).expect("worker ports");
            let mut out = Vec::new();
            let mut inn = Vec::new();
            let mut val_out: Vec<Option<_>> = (0..n_shards).map(|_| None).collect();
            let mut cu_out = None;
            let mut coa_in = None;
            for (dst, port) in ports.sends {
                if let Some(s) = shard_of_ep(dst) {
                    val_out[s] = Some(port);
                } else if dst == cu_ep {
                    cu_out = Some(port);
                } else {
                    out.push((as_worker(dst), port));
                }
            }
            for (src, port) in ports.recvs {
                if src == cu_ep {
                    coa_in = Some(port);
                } else {
                    inn.push((as_worker(src), port));
                }
            }
            let worker = WorkerId(w as u16);
            worker_wirings.push(WorkerWiring {
                worker,
                shape: shape.clone(),
                ctrl: ctrl.clone(),
                trace: trace.clone(),
                heap: RegionAllocator::new(worker_owner(worker)),
                out,
                inn,
                val_out: val_out
                    .into_iter()
                    .map(|p| p.expect("validation port"))
                    .collect(),
                cu_out: cu_out.expect("commit port"),
                coa_in: coa_in.expect("coa reply port"),
            });
        }

        let tc_wirings: Vec<TryCommitWiring> = tc_eps
            .iter()
            .enumerate()
            .map(|(shard, &tc)| {
                let ports = mesh.take_ports(tc).expect("try-commit ports");
                let mut val_in = Vec::new();
                let mut coa_in = None;
                for (src, port) in ports.recvs {
                    if src == cu_ep {
                        coa_in = Some(port);
                    } else {
                        val_in.push(port);
                    }
                }
                let mut to_commit = None;
                for (dst, port) in ports.sends {
                    debug_assert_eq!(dst, cu_ep);
                    to_commit = Some(port);
                }
                TryCommitWiring {
                    shape: shape.clone(),
                    ctrl: ctrl.clone(),
                    trace: trace.clone(),
                    shard: shard as u16,
                    val_in,
                    to_commit: to_commit.expect("verdict port"),
                    coa_in: coa_in.expect("coa reply port"),
                }
            })
            .collect();

        let cu_wiring = {
            let ports = mesh.take_ports(cu_ep).expect("commit ports");
            let mut from_workers = Vec::new();
            let mut from_trycommit: Vec<Option<_>> = (0..n_shards).map(|_| None).collect();
            for (src, port) in ports.recvs {
                if let Some(s) = shard_of_ep(src) {
                    from_trycommit[s] = Some(port);
                } else {
                    from_workers.push((as_worker(src), port));
                }
            }
            let mut coa_out = Vec::new();
            let mut coa_tc_out: Vec<Option<_>> = (0..n_shards).map(|_| None).collect();
            for (dst, port) in ports.sends {
                if let Some(s) = shard_of_ep(dst) {
                    coa_tc_out[s] = Some(port);
                } else if is_worker(dst) {
                    coa_out.push((as_worker(dst), port));
                }
            }
            CommitWiring {
                shape: shape.clone(),
                ctrl: ctrl.clone(),
                trace: trace.clone(),
                master: program.master,
                from_workers,
                from_trycommit: from_trycommit
                    .into_iter()
                    .map(|p| p.expect("verdict port"))
                    .collect(),
                coa_out,
                coa_tc_out: coa_tc_out
                    .into_iter()
                    .map(|p| p.expect("coa reply port"))
                    .collect(),
                recovery: program.recovery,
                on_commit: program.on_commit,
                limit: program.iteration_limit,
            }
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
        let (master, counters) = commit_result.map_err(|_| RunError::ThreadPanic("commit"))?;
        let mut shard_stats = Vec::with_capacity(n_shards);
        let mut conflict_events = Vec::new();
        for r in tc_results {
            let c = r.map_err(|_| RunError::ThreadPanic("try-commit"))?;
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
            valplane.merge(&ctx.valplane());
        }

        let report = RunReport {
            committed: counters.committed,
            recoveries: ctrl.recoveries(),
            recovered_iterations: counters.recovered_iterations,
            last_iteration: counters.last_iteration,
            coa_pages_served: counters.coa_pages_served,
            validation_conflicts: counters.validation_conflicts,
            worker_misspecs: counters.worker_misspecs,
            fabric_timeouts: ctrl.fabric_faults(),
            fault_recoveries: counters.fault_recoveries,
            channel_downs: ctrl.channel_downs(),
            shard_stats,
            conflict_events,
            valplane,
            stats: mesh.stats(),
            elapsed,
            trace: trace.events(),
            trace_dropped: trace.dropped_events(),
        };
        Ok(RunResult { master, report })
    }
}

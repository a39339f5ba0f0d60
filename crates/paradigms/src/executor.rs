//! Executors: one per paradigm, wrapping the core runtime.
//!
//! Each executor builds the pipeline configuration its paradigm implies
//! and runs a [`Program`]. Workloads supply stage bodies and a sequential
//! recovery body; the executor owns the shape.

use std::sync::atomic::{AtomicBool, Ordering};

use dsmtx::{
    ConfigError, IterOutcome, MtxSystem, Program, RecoveryFn, RunError, RunResult, StageFn,
    StageId, StageKind, SystemConfig,
};
use dsmtx_mem::MasterMem;

/// Process-wide default for [`Tuning::trace`]. Harnesses that need
/// lifecycle spans from kernels they don't construct directly (e.g.
/// `repro why` driving a workload's shipped plan) flip this before the
/// run instead of threading a flag through every executor.
static TRACE_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Sets the process-wide default for [`Tuning::trace`]; affects tunings
/// created *after* the call. Returns the previous value so callers can
/// restore it.
pub fn set_trace_default(on: bool) -> bool {
    TRACE_DEFAULT.swap(on, Ordering::Relaxed)
}

/// Shared tuning knobs for all executors. Queue batch and capacity keep
/// [`SystemConfig`]'s defaults.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// Try-commit shard count (§3.2 parallel speculation units); 1 is
    /// the single-unit topology.
    pub unit_shards: usize,
    /// Record a lifecycle trace ([`dsmtx::TraceEvent`] stream) for the
    /// run; defaults to the process-wide [`set_trace_default`] value.
    pub trace: bool,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            unit_shards: 1,
            trace: TRACE_DEFAULT.load(Ordering::Relaxed),
        }
    }
}

impl Tuning {
    /// Default tuning at an explicit try-commit shard count — what the
    /// certification harness uses to run every kernel's shipped plan at
    /// shards ∈ {1, 2, 4}.
    pub fn with_unit_shards(unit_shards: usize) -> Self {
        Tuning {
            unit_shards,
            ..Tuning::default()
        }
    }
}

fn build(cfg: &mut SystemConfig, tuning: Tuning) -> &mut SystemConfig {
    cfg.unit_shards(tuning.unit_shards)
}

fn build_system(cfg: &SystemConfig, tuning: Tuning) -> Result<MtxSystem, ConfigError> {
    Ok(MtxSystem::new(cfg)?.trace(tuning.trace))
}

/// Spec-DOALL: one parallel stage; all cross-iteration dependences are
/// speculated away (validated by value).
#[derive(Debug, Clone, Copy)]
pub struct SpecDoall {
    /// Worker replicas.
    pub replicas: u16,
    /// Executor tuning.
    pub tuning: Tuning,
}

impl SpecDoall {
    /// An executor with default tuning.
    pub fn new(replicas: u16) -> Self {
        SpecDoall {
            replicas,
            tuning: Tuning::default(),
        }
    }

    /// Runs `body` over `limit` iterations.
    ///
    /// # Errors
    ///
    /// Configuration or runtime errors from the core system.
    pub fn run(
        &self,
        master: MasterMem,
        body: StageFn,
        recovery: RecoveryFn,
        limit: Option<u64>,
    ) -> Result<RunResult, ExecError> {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel {
            replicas: self.replicas,
        });
        build(&mut cfg, self.tuning);
        let system = build_system(&cfg, self.tuning)?;
        Ok(system.run(Program {
            master,
            stages: vec![body],
            recovery,
            on_commit: None,
            iteration_limit: limit,
        })?)
    }
}

/// TLS baseline: single-threaded transactions on a replica ring.
/// Synchronized dependences are forwarded with
/// [`dsmtx::WorkerCtx::sync_produce`]/[`dsmtx::WorkerCtx::sync_take`],
/// putting inter-thread latency on the critical path (cyclic pattern).
#[derive(Debug, Clone, Copy)]
pub struct Tls {
    /// Worker replicas.
    pub replicas: u16,
    /// Executor tuning.
    pub tuning: Tuning,
}

impl Tls {
    /// An executor with default tuning.
    pub fn new(replicas: u16) -> Self {
        Tls {
            replicas,
            tuning: Tuning::default(),
        }
    }

    /// Runs `body` over `limit` iterations.
    ///
    /// # Errors
    ///
    /// Configuration or runtime errors from the core system.
    pub fn run(
        &self,
        master: MasterMem,
        body: StageFn,
        recovery: RecoveryFn,
        limit: Option<u64>,
    ) -> Result<RunResult, ExecError> {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel {
            replicas: self.replicas,
        })
        .ring(StageId(0));
        build(&mut cfg, self.tuning);
        let system = build_system(&cfg, self.tuning)?;
        Ok(system.run(Program {
            master,
            stages: vec![body],
            recovery,
            on_commit: None,
            iteration_limit: limit,
        })?)
    }
}

/// DSWP / Spec-DSWP pipeline builder: `Pipeline::new().seq(a).par(4, b).seq(c)`.
pub struct Pipeline {
    stages: Vec<(StageKind, StageFn)>,
    tuning: Tuning,
    shard_map: Option<dsmtx_mem::ShardMap>,
    on_commit: Option<dsmtx::CommitHook>,
}

impl Pipeline {
    /// An empty pipeline with default tuning.
    pub fn new() -> Self {
        Pipeline {
            stages: Vec::new(),
            tuning: Tuning::default(),
            shard_map: None,
            on_commit: None,
        }
    }

    /// Appends a sequential stage.
    pub fn seq(mut self, body: StageFn) -> Self {
        self.stages.push((StageKind::Sequential, body));
        self
    }

    /// Appends a parallel (DOALL) stage with `replicas` workers.
    pub fn par(mut self, replicas: u16, body: StageFn) -> Self {
        self.stages.push((StageKind::Parallel { replicas }, body));
        self
    }

    /// Overrides the executor tuning.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Installs a per-commit hook.
    pub fn on_commit(mut self, hook: dsmtx::CommitHook) -> Self {
        self.on_commit = Some(hook);
        self
    }

    /// Installs a profile-guided page→shard placement for the run
    /// (`None` keeps the default hash partition).
    pub fn shard_map(mut self, map: Option<dsmtx_mem::ShardMap>) -> Self {
        self.shard_map = map;
        self
    }

    /// Total worker count of the pipeline.
    pub fn workers(&self) -> u16 {
        self.stages.iter().map(|(k, _)| k.replicas()).sum()
    }

    /// Runs the pipeline over `limit` iterations.
    ///
    /// # Errors
    ///
    /// Configuration or runtime errors from the core system.
    pub fn run(
        self,
        master: MasterMem,
        recovery: RecoveryFn,
        limit: Option<u64>,
    ) -> Result<RunResult, ExecError> {
        let mut cfg = SystemConfig::new();
        for (kind, _) in &self.stages {
            cfg.stage(*kind);
        }
        build(&mut cfg, self.tuning);
        if let Some(map) = self.shard_map.clone() {
            cfg.shard_map(map);
        }
        let system = build_system(&cfg, self.tuning)?;
        Ok(system.run(Program {
            master,
            stages: self.stages.into_iter().map(|(_, f)| f).collect(),
            recovery,
            on_commit: self.on_commit,
            iteration_limit: limit,
        })?)
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("stages", &self.stages.len())
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

/// Executor errors: configuration or runtime failure.
#[derive(Debug)]
pub enum ExecError {
    /// Invalid pipeline configuration.
    Config(ConfigError),
    /// The run itself failed.
    Run(RunError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Config(e) => write!(f, "configuration: {e}"),
            ExecError::Run(e) => write!(f, "run: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ConfigError> for ExecError {
    fn from(e: ConfigError) -> Self {
        ExecError::Config(e)
    }
}

impl From<RunError> for ExecError {
    fn from(e: RunError) -> Self {
        ExecError::Run(e)
    }
}

/// Convenience: a recovery body that does nothing (valid only for plans
/// whose iterations cannot misspeculate).
pub fn no_recovery() -> RecoveryFn {
    Box::new(|_, _| IterOutcome::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx::{MtxId, WorkerCtx};
    use dsmtx_uva::{OwnerId, RegionAllocator};
    use std::sync::Arc;

    #[test]
    fn spec_doall_runs() {
        let mut heap = RegionAllocator::new(OwnerId(0));
        let out = heap.alloc_words(10).unwrap();
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            ctx.write_no_forward(out.add_words(mtx.0), mtx.0 * 2)?;
            Ok(IterOutcome::Continue)
        });
        let r = SpecDoall::new(3)
            .run(MasterMem::new(), body, no_recovery(), Some(10))
            .unwrap();
        for i in 0..10 {
            assert_eq!(r.master.read(out.add_words(i)), i * 2);
        }
    }

    #[test]
    fn tls_ring_runs() {
        let mut heap = RegionAllocator::new(OwnerId(0));
        let acc_cell = heap.alloc_words(1).unwrap();
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let acc = match ctx.sync_take().first() {
                Some(&v) => v,
                None => ctx.read(acc_cell)?,
            };
            let next = acc + mtx.0;
            ctx.write_no_forward(acc_cell, next)?;
            ctx.sync_produce(next);
            Ok(IterOutcome::Continue)
        });
        let r = Tls::new(2)
            .run(
                MasterMem::new(),
                body,
                Box::new(move |mtx, m| {
                    let acc = m.read(acc_cell);
                    m.write(acc_cell, acc + mtx.0);
                    IterOutcome::Continue
                }),
                Some(12),
            )
            .unwrap();
        assert_eq!(r.master.read(acc_cell), (0..12).sum::<u64>());
    }

    #[test]
    fn pipeline_builder_runs() {
        let mut heap = RegionAllocator::new(OwnerId(0));
        let sum = heap.alloc_words(1).unwrap();
        let first = Arc::new(|ctx: &mut WorkerCtx, mtx: MtxId| {
            ctx.produce(mtx.0 + 1);
            Ok(IterOutcome::Continue)
        });
        let second = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| {
            let v = ctx.consume();
            ctx.produce(v * v);
            Ok(IterOutcome::Continue)
        });
        let third = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| {
            let v = ctx.consume();
            let acc = ctx.read(sum)?;
            ctx.write(sum, acc + v)?;
            Ok(IterOutcome::Continue)
        });
        let p = Pipeline::new().seq(first).par(2, second).seq(third);
        assert_eq!(p.workers(), 4);
        let r = p.run(MasterMem::new(), no_recovery(), Some(6)).unwrap();
        let expect: u64 = (1..=6u64).map(|x| x * x).sum();
        assert_eq!(r.master.read(sum), expect);
    }

    #[test]
    fn pipeline_with_shard_map_commits_identical_memory() {
        // A plan-shipped page→shard map must not change committed state:
        // it only re-routes validation traffic. Run the same DOALL body
        // with and without a map that pins every touched page to one
        // shard, at 2 try-commit shards, and compare the heap.
        let mut heap = RegionAllocator::new(OwnerId(0));
        let out = heap.alloc_words(16).unwrap();
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            ctx.write_no_forward(out.add_words(mtx.0), mtx.0 + 7)?;
            Ok(IterOutcome::Continue)
        });
        let mut map = dsmtx_mem::ShardMap::new();
        for w in 0..16 {
            map.assign(out.add_words(w).page(), 1);
        }
        let tuning = Tuning::with_unit_shards(2);
        let base = Pipeline::new()
            .par(2, body.clone())
            .tuning(tuning)
            .run(MasterMem::new(), no_recovery(), Some(16))
            .unwrap();
        let mapped = Pipeline::new()
            .par(2, body)
            .tuning(tuning)
            .shard_map(Some(map))
            .run(MasterMem::new(), no_recovery(), Some(16))
            .unwrap();
        for w in 0..16 {
            let a = out.add_words(w);
            assert_eq!(base.master.read(a), mapped.master.read(a));
            assert_eq!(mapped.master.read(a), w + 7);
        }
        assert_eq!(mapped.report.committed, 16);
    }

    #[test]
    fn trace_default_yields_spans() {
        let prev = set_trace_default(true);
        let tuning = Tuning::default();
        set_trace_default(prev);
        assert!(tuning.trace);

        let body = Arc::new(|_: &mut WorkerCtx, _: MtxId| Ok(IterOutcome::Continue));
        let ex = SpecDoall {
            replicas: 2,
            tuning: Tuning {
                trace: true,
                ..Tuning::default()
            },
        };
        let r = ex
            .run(MasterMem::new(), body, no_recovery(), Some(6))
            .unwrap();
        let spans = r.report.spans().spans;
        assert_eq!(spans.len(), 6);
        assert!(spans.iter().all(|s| s.committed_us.is_some()));
    }

    #[test]
    fn exec_error_displays() {
        let mut cfg = SystemConfig::new();
        let err = MtxSystem::new(cfg.batch(0)).map(|_| ()).unwrap_err();
        let e: ExecError = err.into();
        assert!(e.to_string().contains("configuration"));
    }
}

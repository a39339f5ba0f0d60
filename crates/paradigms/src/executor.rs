//! The executor: one MTX pipeline per plan, wrapping the core runtime.
//!
//! Every Table 2 paradigm is a configuration of one [`Pipeline`]:
//! Spec-DOALL is one parallel stage, `DSWP+[…]` and `Spec-DSWP+[…]` are
//! sequential and parallel stages in order, and the TLS baseline is one
//! parallel stage made a [`Pipeline::ring`]. Workloads supply stage bodies
//! and a sequential recovery body; the pipeline owns the shape.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use dsmtx::{
    ConfigError, IterOutcome, MtxSystem, Program, RecoveryFn, RunError, RunResult, StageFn,
    StageId, StageKind, SystemConfig,
};
use dsmtx_mem::{MasterMem, ShardMap};

/// Process-wide default for whether a [`Pipeline`] records a lifecycle
/// trace. Harnesses that need lifecycle spans from kernels they don't
/// construct directly (e.g. `repro why` driving a workload's shipped
/// plan) flip this before the run instead of threading a flag through
/// every kernel.
static TRACE_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Sets the process-wide trace default; affects pipelines created
/// *after* the call. Returns the previous value so callers can restore
/// it.
pub fn set_trace_default(on: bool) -> bool {
    TRACE_DEFAULT.swap(on, Ordering::Relaxed)
}

/// Runs `f` with the process-wide trace default set to `on`, then
/// restores the previous value — also when `f` returns an error or
/// panics. A process-wide lock serializes the callers, so one caller's
/// restore cannot switch tracing off under another caller's runs.
pub fn with_trace_default<T>(on: bool, f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    /// Restores the saved default when dropped.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_trace_default(self.0);
        }
    }
    // A caller that panicked poisoned the lock, but its `Restore` ran on
    // the unwind and the lock guards no data, so the guard is sound.
    let _lock = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore(set_trace_default(on));
    f()
}

/// An MTX pipeline, built stage by stage:
/// `Pipeline::new().seq(a).par(4, b).seq(c)` is `Spec-DSWP+[S,DOALL,S]`,
/// `Pipeline::new().par(4, b)` is Spec-DOALL, and
/// `Pipeline::new().par(4, b).ring()` is the TLS baseline.
pub struct Pipeline {
    stages: Vec<(StageKind, StageFn)>,
    ring: Option<StageId>,
    unit_shards: usize,
    shard_map: Option<ShardMap>,
    trace: bool,
}

impl Pipeline {
    /// An empty pipeline with one try-commit shard, tracing when the
    /// process-wide [`set_trace_default`] is on.
    pub fn new() -> Self {
        Pipeline {
            stages: Vec::new(),
            ring: None,
            unit_shards: 1,
            shard_map: None,
            trace: TRACE_DEFAULT.load(Ordering::Relaxed),
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

    /// Makes the stage appended last a ring — the TLS baseline: one
    /// transaction per iteration on the stage's replicas, with
    /// synchronized dependences forwarded replica-to-replica through
    /// [`dsmtx::WorkerCtx::sync_produce`]/[`dsmtx::WorkerCtx::sync_take`],
    /// which puts inter-thread latency on the critical path (the cyclic
    /// pattern of Figure 1). [`Pipeline::run`] fails with
    /// [`ConfigError`] unless that stage is parallel.
    pub fn ring(mut self) -> Self {
        let last = self.stages.len().saturating_sub(1);
        self.ring = Some(StageId(u16::try_from(last).unwrap_or(u16::MAX)));
        self
    }

    /// Sets the try-commit shard count (§3.2 parallel speculation
    /// units); 1, the default, is the single-unit topology.
    pub fn shards(mut self, unit_shards: usize) -> Self {
        self.unit_shards = unit_shards;
        self
    }

    /// Installs a profile-guided page→shard placement for the run
    /// (`None` keeps the default hash partition).
    pub fn shard_map(mut self, map: Option<ShardMap>) -> Self {
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
        if let Some(stage) = self.ring {
            cfg.ring(stage);
        }
        cfg.unit_shards(self.unit_shards);
        if let Some(map) = self.shard_map {
            cfg.shard_map(map);
        }
        let system = MtxSystem::new(&cfg)?.trace(self.trace);
        Ok(system.run(Program {
            master,
            stages: self.stages.into_iter().map(|(_, f)| f).collect(),
            recovery,
            on_commit: None,
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
        let r = Pipeline::new()
            .par(3, body)
            .run(MasterMem::new(), no_recovery(), Some(10))
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
            let synced = ctx.sync_take().next();
            let acc = match synced {
                Some(v) => v,
                None => ctx.read(acc_cell)?,
            };
            let next = acc + mtx.0;
            ctx.write_no_forward(acc_cell, next)?;
            ctx.sync_produce(next);
            Ok(IterOutcome::Continue)
        });
        let r = Pipeline::new()
            .par(2, body)
            .ring()
            .run(
                MasterMem::new(),
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
        let base = Pipeline::new()
            .par(2, body.clone())
            .shards(2)
            .run(MasterMem::new(), no_recovery(), Some(16))
            .unwrap();
        let mapped = Pipeline::new()
            .par(2, body)
            .shards(2)
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
        let body = Arc::new(|_: &mut WorkerCtx, _: MtxId| Ok(IterOutcome::Continue));
        let pipeline = with_trace_default(true, || Pipeline::new().par(2, body));
        assert!(pipeline.trace);
        let r = pipeline
            .run(MasterMem::new(), no_recovery(), Some(6))
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

        // Only a parallel stage can be a ring.
        let body = Arc::new(|_: &mut WorkerCtx, _: MtxId| Ok(IterOutcome::Continue));
        let e = Pipeline::new()
            .seq(body)
            .ring()
            .run(MasterMem::new(), no_recovery(), Some(1))
            .unwrap_err();
        assert!(e.to_string().contains("cannot be a ring"), "{e}");
    }
}

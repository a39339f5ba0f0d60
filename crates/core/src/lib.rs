//! # DSMTX — Distributed Software Multi-threaded Transactional memory
//!
//! A software-only runtime that enables both thread-level speculation
//! (TLS) and speculative decoupled software pipelining (Spec-DSWP) on
//! machines *without* shared memory, reproducing Kim, Raman, Liu, Lee &
//! August, "Scalable Speculative Parallelization on Commodity Clusters"
//! (MICRO 2010).
//!
//! ## The model
//!
//! A parallelized loop iteration is a **Multi-threaded Transaction
//! (MTX)**; each pipeline stage's slice of the iteration is a **subTX**,
//! ordered by sequential program order. Workers execute subTXs in private
//! memories (no sharing); uncommitted stores are explicitly forwarded to
//! later subTXs; a **try-commit unit** validates every speculative load
//! against the value the program order actually produces; a **commit
//! unit** owns committed memory, which the other threads copy pages out of
//! on first touch (Copy-On-Access), and applies validated MTX write-sets
//! atomically in iteration order. On
//! misspeculation, a barrier/flush/re-execute protocol (§4.3) rolls the
//! system back.
//!
//! ## Quick start
//!
//! Parallelize a two-stage pipeline that squares numbers and sums them:
//!
//! ```
//! use std::sync::Arc;
//! use dsmtx::{
//!     IterOutcome, MtxId, MtxSystem, Program, StageId, StageKind, SystemConfig,
//! };
//! use dsmtx_mem::MasterMem;
//! use dsmtx_uva::{OwnerId, RegionAllocator, VAddr};
//!
//! // Pre-loop sequential state: an input array and a sum cell, owned by
//! // the commit unit (owner 0).
//! let mut heap = RegionAllocator::new(OwnerId(0));
//! let input = heap.alloc_words(8)?;
//! let sum = heap.alloc_words(1)?;
//! let mut master = MasterMem::new();
//! for i in 0..8 {
//!     master.write(input.add_words(i), i + 1);
//! }
//!
//! // Stage 0 (parallel): square the element. Stage 1 (sequential): sum.
//! let mut cfg = SystemConfig::new();
//! cfg.stage(StageKind::Parallel { replicas: 2 })
//!     .stage(StageKind::Sequential);
//! let system = MtxSystem::new(&cfg)?;
//!
//! let square = Arc::new(move |ctx: &mut dsmtx::WorkerCtx, mtx: MtxId| {
//!     let x = ctx.read(input.add_words(mtx.0))?;
//!     ctx.produce(x * x);
//!     Ok(IterOutcome::Continue)
//! });
//! let accumulate = Arc::new(move |ctx: &mut dsmtx::WorkerCtx, _mtx: MtxId| {
//!     let sq = ctx.consume();
//!     let cur = ctx.read(sum)?;
//!     ctx.write(sum, cur + sq)?;
//!     Ok(IterOutcome::Continue)
//! });
//!
//! let result = system.run(Program {
//!     master,
//!     stages: vec![square, accumulate],
//!     recovery: Box::new(|_, _| IterOutcome::Continue),
//!     on_commit: None,
//!     iteration_limit: Some(8),
//! })?;
//! assert_eq!(result.master.read(sum), (1..=8u64).map(|x| x * x).sum());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod commit;
pub mod config;
pub mod control;
pub mod footprint;
pub mod ids;
pub mod poll;
pub mod program;
pub mod report;
pub mod spans;
pub mod system;
pub mod trace;
pub mod trycommit;
pub mod wire;
pub mod worker;

pub use config::{ConfigError, FaultConfig, FaultTarget, PipelineShape, StageKind, SystemConfig};
pub use control::{ControlPlane, Interrupt, Status};
pub use footprint::{AccessMode, FootprintFn, Region, StageRole, StageSpec};
pub use ids::{MtxId, StageId, WorkerId};
pub use program::{CommitHook, IterOutcome, Program, RecoveryFn, StageFn};
pub use report::{RunReport, RunResult, ShardStats, ValPlaneStats};
pub use spans::{build_spans, chrome_spans, RecoveryRound, RunSpans, SpanMetrics};
pub use system::{worker_owner, MtxSystem, RunError};
pub use trace::{Role, TraceEvent, TraceKind, TraceSink, DEFAULT_TRACE_CAPACITY};
pub use trycommit::ConflictRecord;
pub use worker::{AccessFilter, WorkerCtx};

//! Replay executor: runs an auto-partitioned candidate plan through the
//! *real* runtime.
//!
//! A [`crate::plan::Candidate`] assigns every recorded address to one
//! stage. This executor turns that assignment into live stage bodies:
//! each stage replays, for every iteration, exactly the subset of the
//! recorded raw access stream that touches its own addresses — loads
//! through [`dsmtx::WorkerCtx::read`] (so value validation sees them)
//! and stores through [`dsmtx::WorkerCtx::write_no_forward`] with the
//! recorded value. Because the address partition is total and each
//! address's program order is preserved inside its owning stage, the
//! committed memory of the replay equals the sequential run's; carried
//! flows the planner put in a sequential stage are served from the
//! single replica's retained speculative memory, and anything it chose
//! to speculate is validated by value at the try-commit shards exactly
//! as a hand plan would be.
//!
//! Recovery is the *fresh* plan's own recovery body (the §4.3 sequential
//! re-execution path), so misspeculation is survivable, and the fresh
//! plan's shipped shard map (if any) routes validation traffic. The
//! caller must pass a freshly rebuilt [`AnalysisPlan`] — planning runs
//! the recovery body against the plan's master and mutates it.

use std::collections::BTreeSet;
use std::sync::Arc;

use dsmtx::{IterOutcome, MtxId, RunResult, StageRole, WorkerCtx};
use dsmtx_mem::{AccessKind, AccessRecord};
use dsmtx_paradigms::{ExecError, Pipeline};
use dsmtx_uva::VAddr;
use dsmtx_workloads::AnalysisPlan;

use crate::plan::Candidate;

/// Runs `candidate` over the recorded `raw_iters` through the real
/// runtime, with `replicas` workers per parallel stage and
/// `unit_shards` try-commit shards. `fresh` must be a newly built plan
/// for the same workload and scale (its master is the pre-loop memory,
/// its recovery the sequential body, its shard map the shipped routing).
///
/// # Errors
///
/// Configuration or runtime errors from the core system.
pub fn run_candidate(
    candidate: &Candidate,
    raw_iters: &[Vec<AccessRecord>],
    fresh: AnalysisPlan,
    replicas: u16,
    unit_shards: usize,
) -> Result<RunResult, ExecError> {
    let iters: Arc<Vec<Vec<AccessRecord>>> = Arc::new(raw_iters.to_vec());
    let mut owned_sets: Vec<BTreeSet<VAddr>> = vec![BTreeSet::new(); candidate.stages.len()];
    for (&addr, &stage) in &candidate.assignment {
        owned_sets[stage].insert(addr);
    }

    let mut pipeline = Pipeline::new();
    for (spec, owned) in candidate.stages.iter().zip(owned_sets) {
        let owned = Arc::new(owned);
        let iters = Arc::clone(&iters);
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            for r in &iters[mtx.0 as usize] {
                if !owned.contains(&r.addr) {
                    continue;
                }
                match r.kind {
                    AccessKind::Load => {
                        let _ = ctx.read(r.addr)?;
                    }
                    AccessKind::Store => ctx.write_no_forward(r.addr, r.value)?,
                }
            }
            Ok(IterOutcome::Continue)
        });
        pipeline = match spec.role {
            StageRole::Parallel => pipeline.par(replicas, body),
            StageRole::Sequential | StageRole::Ring => pipeline.seq(body),
        };
    }

    pipeline
        .shards(unit_shards)
        .shard_map(fresh.shard_map.clone())
        .run(fresh.master, fresh.recovery, Some(raw_iters.len() as u64))
}

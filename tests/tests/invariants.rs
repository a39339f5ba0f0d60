//! Cross-crate consistency invariants: trace properties of the runtime,
//! and agreement between each kernel's Table-2 paradigm, its simulator
//! profile, and its real parallel plan.

use std::sync::Arc;

use dsmtx::{
    IterOutcome, MtxId, MtxSystem, Program, StageKind, SystemConfig, TraceKind, WorkerCtx,
};
use dsmtx_mem::MasterMem;
use dsmtx_paradigms::Paradigm;
use dsmtx_sim::profile::StageShape;
use dsmtx_workloads::all_kernels;

/// The paradigm named in Table 2 and the simulator profile must agree on
/// the pipeline shape (stage count and which stages are parallel).
#[test]
fn paradigm_and_profile_shapes_agree() {
    for kernel in all_kernels() {
        let info = kernel.info();
        let profile = kernel.profile();
        let profile_shapes: Vec<bool> = profile
            .stages
            .iter()
            .map(|s| s.shape == StageShape::Parallel)
            .collect();
        match &info.paradigm {
            Paradigm::SpecDoall => {
                assert_eq!(profile_shapes, vec![true], "{}", info.name);
            }
            Paradigm::Dswp { stages, .. } | Paradigm::SpecDswp { stages } => {
                let named: Vec<bool> = stages
                    .iter()
                    .map(|s| matches!(s, dsmtx_paradigms::paradigm::StageLabel::Doall))
                    .collect();
                assert_eq!(profile_shapes, named, "{}", info.name);
            }
            other => panic!("{}: unexpected paradigm {other}", info.name),
        }
        // MTX requirement matches the paper: Spec-DSWP plans need MTXs.
        let spans_pipeline = matches!(info.paradigm, Paradigm::SpecDswp { .. });
        assert_eq!(
            info.paradigm.needs_mtx(),
            spans_pipeline
                || matches!(
                    info.paradigm,
                    Paradigm::Dswp {
                        spec_stage: Some(_),
                        ..
                    }
                )
        );
    }
}

/// Trace invariants across a run with recoveries:
/// * commits are strictly increasing (iteration order);
/// * every committed MTX had at least one subTX begin;
/// * recovery start/end events pair up.
#[test]
fn trace_invariants_under_recovery() {
    const N: u64 = 16;
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if mtx.0 == 6 || mtx.0 == 11 {
            return ctx.misspec();
        }
        Ok(IterOutcome::Continue)
    });
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 3 });
    let result = MtxSystem::new(&cfg)
        .unwrap()
        .trace(true)
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(|_, _| IterOutcome::Continue),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();

    let trace = &result.report.trace;
    let commits: Vec<u64> = trace
        .iter()
        .filter(|e| e.kind == TraceKind::Committed)
        .map(|e| e.mtx.unwrap().0)
        .collect();
    for w in commits.windows(2) {
        assert!(w[0] < w[1], "commit order violated: {commits:?}");
    }

    let begun: std::collections::HashSet<u64> = trace
        .iter()
        .filter(|e| e.kind == TraceKind::SubTxBegin)
        .map(|e| e.mtx.unwrap().0)
        .collect();
    for c in &commits {
        assert!(begun.contains(c), "mtx{c} committed without a subTX begin");
    }

    let starts = trace
        .iter()
        .filter(|e| e.kind == TraceKind::RecoveryStart)
        .count();
    let ends = trace
        .iter()
        .filter(|e| e.kind == TraceKind::RecoveryEnd)
        .count();
    assert_eq!(starts, 2);
    assert_eq!(ends, 2);
    assert_eq!(result.report.recoveries, 2);
    // Iteration 11 may run (and misspeculate) once before the recovery of
    // 6 squashes it and once after, so the event count is 2 or 3.
    assert!(
        (2..=3).contains(&result.report.worker_misspecs),
        "{}",
        result.report.worker_misspecs
    );
    assert_eq!(result.report.total_iterations(), N);
}

/// COA accounting: the pages copied out of the committed image are
/// exactly the distinct pages each worker and the try-commit shard
/// touched, and private worker pages come in as zero pages without
/// polluting committed memory.
#[test]
fn coa_serves_committed_and_private_pages() {
    const N: u64 = 8;
    let mut heap = dsmtx_uva::RegionAllocator::new(dsmtx_uva::OwnerId(0));
    // Spread the input over several pages.
    let input = heap.alloc_pages(4).unwrap();
    let mut master = MasterMem::new();
    for p in 0..4u64 {
        master.write(input.add_words(p * 512), p + 1);
    }
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let p = mtx.0 % 4;
        let v = ctx.read(input.add_words(p * 512))?;
        // Worker-private scratch on the worker's own page.
        let scratch = ctx.heap().alloc_pages(1).unwrap();
        ctx.write_private(scratch, v * 10)?;
        let got = ctx.read_private(scratch)?;
        assert_eq!(got, v * 10);
        ctx.heap().free(scratch).unwrap();
        Ok(IterOutcome::Continue)
    });
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 2 });
    let result = MtxSystem::new(&cfg)
        .unwrap()
        .run(Program {
            master,
            stages: vec![body],
            recovery: Box::new(|_, _| IterOutcome::Continue),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();
    // Each worker faults the two input pages it reads plus its scratch
    // page (6 in all), and the try-commit shard the 4 input pages it
    // validates.
    assert_eq!(result.report.shard_stats[0].coa_fetches, 4);
    assert_eq!(result.report.coa_pages_served, 10);
    // The scratch writes never reached committed memory (worker-owned
    // regions stay zero in the master image).
    let w0_region = dsmtx::worker_owner(dsmtx::WorkerId(0));
    let foreign = dsmtx_uva::VAddr::new(w0_region, 8);
    assert_eq!(result.master.read(foreign), 0);
}

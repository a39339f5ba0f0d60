//! Dependence analyzer & speculation linter — the "compiler side" of the
//! DSMTX reproduction.
//!
//! The runtime half of the paper executes a hand-partitioned plan and
//! recovers when speculation fails; this crate is the missing analysis
//! half that *predicts* when it will fail:
//!
//! 1. [`record`](mod@record) — instrumented sequential execution: run a plan's
//!    recovery body (the §4.3 re-execution path) for every iteration
//!    against [`dsmtx_mem::MasterMem`] with recording on, capturing the
//!    program-order load/store stream per iteration;
//! 2. [`pdg`] — dependence-graph extraction: classify every memory
//!    dependence as flow/anti/output, intra-iteration or loop-carried
//!    (with distance), and tag silent stores that value-based validation
//!    can never observe;
//! 3. [`lint`](mod@lint) — partition validation: check the graph and raw stream
//!    against the plan's declared [`dsmtx::StageSpec`]s, emitting typed
//!    findings with a predicted misspeculation rate per 1000 iterations;
//! 4. [`cert`] — certification: assert that conflicts the real runtime
//!    observes are a subset of what the analyzer predicted, closing the
//!    loop between static claim and dynamic behavior;
//! 5. [`plan`] — the auto-partitioner: condense the recorded dependence
//!    graph into SCCs, classify each by the weakest schedule that
//!    preserves it, and emit ranked candidate [`dsmtx::StageSpec`] plans
//!    (refusing any the linter grades as misspeculating), diffed against
//!    the hand-written Table 2 partition;
//! 6. [`exec`] — the replay executor that runs an auto candidate through
//!    the real runtime so its conflict behavior can be certified too.
//!
//! `repro analyze --workload W --format {text,jsonl}` drives 1–4 and
//! `repro plan --workload W [--apply]` drives 5–6 from the CLI; the
//! differential test-suite drives them across every registry workload at
//! 1, 2 and 4 try-commit shards.

// ISSUE 5 satellite: this crate builds with perf and correctness lint
// groups promoted to hard errors.
#![deny(clippy::perf, clippy::correctness)]
#![deny(missing_docs)]

pub mod cert;
pub mod exec;
pub mod lint;
pub mod pdg;
pub mod plan;
pub mod record;
pub mod report;
pub mod why;

pub use cert::{certify, Certificate};
pub use exec::run_candidate;
pub use lint::{lint, Finding, FindingKind, LintReport, Severity};
pub use pdg::{build, DepEdge, DepGraph, DepKind};
pub use plan::{
    auto_plan, export_plan_metrics, render_plan_jsonl, render_plan_text, Candidate, Divergence,
    PlanDiff, PlanOutcome, Rejected, SccClass, SccSummary, Score,
};
pub use record::{record, IterTrace, LoopTrace};
pub use report::{export_cert_metrics, export_metrics, render_jsonl, render_text, summary_line};
pub use why::{attribute, cause_counts, export_why_metrics};

use dsmtx_workloads::AnalysisPlan;

/// The full output of one analysis run: the recorded trace, the
/// dependence graph built from it, and the linter's verdict against the
/// plan's declared stages.
#[derive(Debug)]
pub struct Analysis {
    /// Per-iteration access streams.
    pub trace: LoopTrace,
    /// Classified dependences.
    pub graph: DepGraph,
    /// Findings and the predicted conflict-page superset.
    pub report: LintReport,
}

/// Records, classifies, and lints one plan end to end.
pub fn analyze(plan: &mut AnalysisPlan) -> Analysis {
    let trace = record::record(plan);
    let graph = pdg::build(&trace);
    let report = lint::lint(&trace, &graph, &plan.stages, plan.shard_map.as_ref());
    Analysis {
        trace,
        graph,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx::{IterOutcome, Region, StageRole, StageSpec};
    use dsmtx_mem::MasterMem;
    use dsmtx_uva::{OwnerId, VAddr};

    #[test]
    fn analyze_runs_the_whole_pipeline() {
        let at = |off: u64| VAddr::new(OwnerId(0), off);
        let mut plan = AnalysisPlan {
            name: "e2e",
            iterations: 4,
            master: MasterMem::new(),
            recovery: Box::new(move |mtx, master| {
                master.write(at(mtx.0 * 8), mtx.0);
                IterOutcome::Continue
            }),
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(move |mtx| vec![Region::write("out", at(mtx * 8), 1)]),
            )],
            shard_map: None,
        };
        let analysis = analyze(&mut plan);
        assert_eq!(analysis.trace.iters.len(), 4);
        assert!(analysis.graph.edges.is_empty());
        assert!(!analysis.report.has_errors());
    }
}

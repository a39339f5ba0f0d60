//! Auto-partitioner integration: golden plan reports per workload, the
//! apply-path certification loop, refusal of planted mis-partitions, a
//! property pass over randomized synthetic loops, and the shipped
//! shard-map demonstration.
//!
//! The load-bearing claims, in order: (1) for every registry workload
//! the planner emits at least one candidate whose lint report carries
//! zero Error findings; (2) executing the top-ranked candidate through
//! the real runtime observes only conflict pages the candidate's own
//! lint predicted, and its conflict count is no worse than the
//! hand-written Table 2 plan's; (3) a loop with an unsynchronized
//! value-changing carried flow gets its doall candidate *refused*, not
//! ranked; (4) the two properties above hold across randomized loops,
//! not just the eleven shipped ones.
//!
//! Golden files live in `tests/golden/plan_*.txt`; set
//! `DSMTX_UPDATE_GOLDEN=1` to regenerate after an intentional
//! report-format change.

use std::sync::Arc;

use dsmtx::{IterOutcome, Region, RunResult, StageRole, StageSpec};
use dsmtx_analyze::{
    analyze, auto_plan, certify, render_plan_jsonl, render_plan_text, run_candidate, FindingKind,
    PlanOutcome, Severity,
};
use dsmtx_integration_tests::under_watchdog;
use dsmtx_mem::MasterMem;
use dsmtx_obs::json;
use dsmtx_paradigms::ExecError;
use dsmtx_uva::{OwnerId, VAddr};
use dsmtx_workloads::{all_kernels, kernel_by_name, AnalysisPlan, Scale};
use proptest::prelude::*;

/// Replicas per parallel stage when applying a candidate.
const APPLY_REPLICAS: u16 = 2;
/// Try-commit shards when applying a candidate.
const APPLY_SHARDS: usize = 2;

/// Applies `outcome`'s top candidate through the real runtime, on a
/// `fresh` plan, under the watchdog.
fn apply_best(
    what: &str,
    outcome: &Arc<PlanOutcome>,
    fresh: AnalysisPlan,
) -> Result<RunResult, ExecError> {
    let outcome = Arc::clone(outcome);
    under_watchdog(what, move || {
        let best = outcome.best().expect("a viable candidate");
        run_candidate(
            best,
            &outcome.raw_iters,
            fresh,
            APPLY_REPLICAS,
            APPLY_SHARDS,
        )
    })
}

fn at(off: u64) -> VAddr {
    VAddr::new(OwnerId(0), off)
}

/// Compares rendered text against `tests/golden/<name>.txt`, rewriting
/// the file instead when `DSMTX_UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("DSMTX_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        expected, actual,
        "golden {name} drifted; rerun with DSMTX_UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn golden_auto_plan_per_workload() {
    for k in all_kernels() {
        let name = k.info().name;
        let mut plan = k.plan(Scale::test()).unwrap();
        let outcome = auto_plan(&mut plan);
        assert!(
            outcome.best().is_some(),
            "{name}: planner must emit a viable candidate"
        );
        let golden = format!("plan_{}", name.replace('.', "_"));
        assert_golden(&golden, &render_plan_text(&outcome));
    }
}

#[test]
fn auto_plan_jsonl_rows_validate_per_workload() {
    for k in all_kernels() {
        let name = k.info().name;
        let mut plan = k.plan(Scale::test()).unwrap();
        let outcome = auto_plan(&mut plan);
        let mut records = std::collections::BTreeSet::new();
        for line in render_plan_jsonl(&outcome).lines() {
            json::validate(line).unwrap_or_else(|e| panic!("{name}: bad JSONL row {line}: {e}"));
            for rec in ["plan", "plan_candidate", "plan_rejected", "plan_diff"] {
                if line.contains(&format!("\"record\":\"{rec}\"")) {
                    records.insert(rec);
                }
            }
        }
        assert!(
            records.contains("plan") && records.contains("plan_candidate"),
            "{name}: JSONL stream must carry summary and candidate rows, got {records:?}"
        );
    }
}

/// Every candidate the planner *emits* (as opposed to rejects) must lint
/// with zero Error findings — the refusal contract, checked on the real
/// workloads here and on randomized loops in the proptest below.
#[test]
fn emitted_candidates_lint_clean_on_every_workload() {
    for k in all_kernels() {
        let name = k.info().name;
        let mut plan = k.plan(Scale::test()).unwrap();
        let outcome = auto_plan(&mut plan);
        for c in &outcome.candidates {
            assert!(
                !c.report.has_errors(),
                "{name}: emitted candidate `{}` has Error findings: {:?}",
                c.name,
                c.report.findings
            );
        }
    }
}

#[test]
fn applied_auto_plans_certify_and_match_hand_conflicts() {
    let mut auto_no_worse_somewhere = false;
    for k in all_kernels() {
        let name = k.info().name;
        let mut plan = k.plan(Scale::test()).unwrap();
        let outcome = Arc::new(auto_plan(&mut plan));
        let best = outcome
            .best()
            .unwrap_or_else(|| panic!("{name}: no viable auto plan"));
        let fresh = k.plan(Scale::test()).unwrap();
        let what = format!("{name}: applying `{}`", best.name);
        let result = apply_best(&what, &outcome, fresh).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            result.report.total_iterations(),
            outcome.iterations,
            "{name}: the applied plan must commit every recorded iteration"
        );
        let observed = result.report.conflict_pages();
        let cert = certify(&best.report, &observed, APPLY_SHARDS);
        assert!(
            cert.holds(),
            "{name}: auto plan `{}` observed conflicts on pages {:?} its own lint \
             never predicted (predicted {:?})",
            best.name,
            cert.unpredicted,
            cert.predicted
        );
        let hand = under_watchdog(&format!("{name}: the hand plan"), move || {
            kernel_by_name(name)
                .unwrap()
                .run_reported(APPLY_REPLICAS, APPLY_SHARDS, Scale::test())
        })
        .unwrap();
        auto_no_worse_somewhere |=
            result.report.validation_conflicts <= hand.report.validation_conflicts;
    }
    assert!(
        auto_no_worse_somewhere,
        "on at least one workload the auto plan's conflict count must be \
         no worse than the hand-written plan's"
    );
}

/// A loop whose accumulator is a genuine value-changing carried flow,
/// declared to the analyzer as if it were freely parallel. The planner
/// must refuse the doall candidate outright (not merely rank it last)
/// and pick a shape that serializes the accumulator.
#[test]
fn planted_mispartition_refuses_the_doall_candidate() {
    let mut master = MasterMem::new();
    for i in 0..8u64 {
        master.write(at(1024 + i * 8), 5 + i);
    }
    let mut plan = AnalysisPlan {
        name: "synthetic-planted",
        iterations: 8,
        master,
        recovery: Box::new(|mtx, master| {
            let acc = master.read(at(0));
            let v = master.read(at(1024 + mtx.0 * 8));
            master.write(at(0), acc + v);
            master.write(at(2048 + mtx.0 * 8), v * 2);
            IterOutcome::Continue
        }),
        // The (wrong) hand claim: everything, accumulator included, is
        // independent per-iteration work.
        stages: vec![StageSpec::new(
            "compute",
            StageRole::Parallel,
            Box::new(|mtx| {
                vec![
                    Region::read_write("acc", at(0), 1),
                    Region::read("input", at(1024 + mtx * 8), 1),
                    Region::write("out", at(2048 + mtx * 8), 1),
                ]
            }),
        )],
        shard_map: None,
    };
    let outcome = Arc::new(auto_plan(&mut plan));
    let refused: Vec<&str> = outcome.rejected.iter().map(|r| r.name).collect();
    assert!(
        refused.contains(&"doall"),
        "doall must be refused, got rejected={refused:?}"
    );
    let doall = outcome.rejected.iter().find(|r| r.name == "doall").unwrap();
    assert!(
        doall.reason.contains("unforwarded_loop_carried_flow"),
        "refusal must name the carried flow: {}",
        doall.reason
    );
    let best = outcome.best().expect("a serializing shape survives");
    assert!(
        best.stages
            .iter()
            .any(|s| matches!(s.role, StageRole::Sequential | StageRole::Ring)),
        "the winner must serialize the accumulator, got shape {}",
        best.shape()
    );
    assert!(!best.report.has_errors());
    // The winner is also *runnable*: zero conflicts, full commit.
    let mut master = MasterMem::new();
    for i in 0..8u64 {
        master.write(at(1024 + i * 8), 5 + i);
    }
    let fresh = AnalysisPlan {
        name: "synthetic-planted",
        iterations: 8,
        master,
        recovery: Box::new(|mtx, master| {
            let acc = master.read(at(0));
            let v = master.read(at(1024 + mtx.0 * 8));
            master.write(at(0), acc + v);
            master.write(at(2048 + mtx.0 * 8), v * 2);
            IterOutcome::Continue
        }),
        stages: Vec::new(),
        shard_map: None,
    };
    let result = apply_best("the synthetic winner", &outcome, fresh).unwrap();
    assert_eq!(result.report.total_iterations(), 8);
    let cert = certify(&best.report, &result.report.conflict_pages(), APPLY_SHARDS);
    assert!(cert.holds());
}

/// Parameters for one randomized synthetic loop.
#[derive(Debug, Clone)]
struct LoopShape {
    iterations: u64,
    cells: u64,
    with_acc: bool,
    with_silent: bool,
    multiplier: u64,
}

fn build_synthetic(shape: &LoopShape) -> AnalysisPlan {
    let mut master = MasterMem::new();
    for i in 0..shape.cells {
        master.write(at(1024 + i * 8), 3 + i);
    }
    if shape.with_silent {
        // Pre-seeded so every store in the loop rewrites the same value:
        // the carried flow exists but is silent to value validation.
        master.write(at(8), 7);
    }
    let s = shape.clone();
    AnalysisPlan {
        name: "synthetic-prop",
        iterations: shape.iterations,
        master,
        recovery: Box::new(move |mtx, master| {
            let cell = 1024 + (mtx.0 % s.cells) * 8;
            let v = master.read(at(cell));
            master.write(at(2048 + mtx.0 * 8), v * s.multiplier);
            if s.with_acc {
                let acc = master.read(at(0));
                master.write(at(0), acc + v + 1);
            }
            if s.with_silent {
                let sil = master.read(at(8));
                master.write(at(8), sil);
            }
            IterOutcome::Continue
        }),
        // Hand stages only feed the diff, not candidate linting; a
        // single blanket stage is enough.
        stages: vec![StageSpec::new(
            "compute",
            StageRole::Parallel,
            Box::new(move |mtx| vec![Region::write("out", at(2048 + mtx * 8), 1)]),
        )],
        shard_map: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Across randomized loops: the planner always emits a viable
    /// candidate, every emitted candidate lints with zero Errors, the
    /// winner's address assignment is total, and a value-changing
    /// accumulator always forces refusal of the doall shape.
    #[test]
    fn planner_refusal_contract_holds(
        iterations in 2u64..11,
        cells in 1u64..7,
        with_acc in any::<bool>(),
        with_silent in any::<bool>(),
        multiplier in 1u64..6,
    ) {
        let shape = LoopShape { iterations, cells, with_acc, with_silent, multiplier };
        let mut plan = build_synthetic(&shape);
        let outcome = auto_plan(&mut plan);
        let best = outcome.best().expect("a viable candidate always exists");
        for c in &outcome.candidates {
            prop_assert!(
                !c.report.has_errors(),
                "emitted candidate `{}` has Error findings: {:?}",
                c.name,
                c.report.findings
            );
        }
        prop_assert_eq!(best.assignment.len() as u64, outcome.addresses);
        if shape.with_acc {
            prop_assert!(
                outcome.rejected.iter().any(|r| r.name == "doall"),
                "value-changing accumulator must refuse doall; rejected: {:?}",
                outcome.rejected
            );
            prop_assert!(best.stages.iter().any(|s| s.role == StageRole::Sequential));
        } else {
            // No value-changing carried flow anywhere: doall wins and
            // predicts zero misspeculation (silent carried stores are
            // invisible to value validation by construction).
            prop_assert_eq!(best.name, "doall");
            prop_assert_eq!(best.score.misspec_per_1k, 0);
        }
    }

    /// Determinism: planning the same loop twice renders byte-identical
    /// reports (the property golden files and CI artifacts rely on).
    #[test]
    fn planner_is_deterministic(
        iterations in 2u64..11,
        cells in 1u64..7,
        with_acc in any::<bool>(),
        with_silent in any::<bool>(),
        multiplier in 1u64..6,
    ) {
        let shape = LoopShape { iterations, cells, with_acc, with_silent, multiplier };
        let mut a = build_synthetic(&shape);
        let mut b = build_synthetic(&shape);
        prop_assert_eq!(
            render_plan_text(&auto_plan(&mut a)),
            render_plan_text(&auto_plan(&mut b))
        );
    }
}

/// The profile-guided shard maps shipped with alvinn and bzip2 keep
/// their lint reports free of Warning-severity hotspot findings (the
/// residual single-page skew is demoted to Info as irreducible), while
/// stripping the map off the same plan surfaces the Warning the map
/// exists to fix.
#[test]
fn shipped_shard_maps_demote_hotspots() {
    for name in ["052.alvinn", "256.bzip2"] {
        let k = dsmtx_workloads::kernel_by_name(name).unwrap();
        let mut plan = k.plan(Scale::test()).unwrap();
        assert!(
            plan.shard_map.is_some(),
            "{name} ships a profile-guided shard map"
        );
        let with_map = analyze(&mut plan);
        assert!(
            !with_map
                .report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::ShardHotspot && f.severity >= Severity::Warning),
            "{name}: with its shipped map, no Warning-level hotspot: {:?}",
            with_map.report.findings
        );

        let mut stripped = k.plan(Scale::test()).unwrap();
        stripped.shard_map = None;
        let without_map = analyze(&mut stripped);
        assert!(
            without_map
                .report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::ShardHotspot && f.severity == Severity::Warning),
            "{name}: without the map the hotspot warning must come back: {:?}",
            without_map.report.findings
        );
    }
}

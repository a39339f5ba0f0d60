//! Analyzer integration: golden dependence graphs, partition-linter
//! negatives, and the predicted-vs-observed conflict certification pass.
//!
//! Certification is the load-bearing claim of the analysis pipeline: the
//! conflict pages a real speculative run observes must be a subset of
//! what the sequential dependence analysis predicted, for every registry
//! workload at 1, 2, and 4 try-commit shards. The planted-conflict
//! variants (parser's unknown token, li's `SETENV` corpus) keep the pass
//! honest — they manufacture runs where the observed side is non-empty.
//!
//! Golden files live in `tests/golden/`; set `DSMTX_UPDATE_GOLDEN=1` to
//! regenerate them after an intentional report-format change.

use dsmtx::{IterOutcome, Region, StageRole, StageSpec};
use dsmtx_analyze::{analyze, certify, export_cert_metrics, render_text, FindingKind, Severity};
use dsmtx_integration_tests::under_watchdog;
use dsmtx_mem::MasterMem;
use dsmtx_obs::{schema, Registry};
use dsmtx_uva::{OwnerId, VAddr};
use dsmtx_workloads::li::{Corpus, Li};
use dsmtx_workloads::parser::Parser;
use dsmtx_workloads::{all_kernels, kernel_by_name, AnalysisPlan, Scale};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

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

/// Pure DOALL: each iteration reads its own input word and writes its
/// own output word. No dependences of any kind.
fn doall_plan() -> AnalysisPlan {
    let mut master = MasterMem::new();
    for i in 0..6u64 {
        master.write(at(i * 8), 100 + i);
    }
    AnalysisPlan {
        name: "synthetic-doall",
        iterations: 6,
        master,
        recovery: Box::new(|mtx, master| {
            let v = master.read(at(mtx.0 * 8));
            master.write(at(1024 + mtx.0 * 8), v * 3 + 1);
            IterOutcome::Continue
        }),
        stages: vec![StageSpec::new(
            "compute",
            StageRole::Parallel,
            Box::new(|mtx| {
                vec![
                    Region::read("input", at(mtx * 8), 1),
                    Region::write("out", at(1024 + mtx * 8), 1),
                ]
            }),
        )],
        shard_map: None,
    }
}

/// A running sum carried across iterations through a declared-forwarded
/// cell (the TLS ring's sync_produce/sync_take pattern): the carried
/// flow dependence exists but is synchronized, not speculated.
fn forwarded_plan() -> AnalysisPlan {
    let mut master = MasterMem::new();
    for i in 0..6u64 {
        master.write(at(64 + i * 8), 10 + i);
    }
    AnalysisPlan {
        name: "synthetic-forwarded",
        iterations: 6,
        master,
        recovery: Box::new(|mtx, master| {
            let acc = master.read(at(0));
            let v = master.read(at(64 + mtx.0 * 8));
            master.write(at(0), acc + v);
            IterOutcome::Continue
        }),
        stages: vec![StageSpec::new(
            "scan",
            StageRole::Ring,
            Box::new(|mtx| {
                vec![
                    Region::read_write("acc", at(0), 1),
                    Region::read("input", at(64 + mtx * 8), 1),
                ]
            }),
        )
        .forward(Region::read_write("acc", at(0), 1))],
        shard_map: None,
    }
}

#[test]
fn golden_doall_dependence_graph() {
    let mut plan = doall_plan();
    let analysis = analyze(&mut plan);
    assert!(analysis.graph.edges.is_empty(), "DOALL has no dependences");
    assert!(analysis.report.findings.is_empty());
    assert_golden("doall", &render_text(&analysis.graph, &analysis.report));
}

#[test]
fn golden_forwarded_carried_dep() {
    let mut plan = forwarded_plan();
    let analysis = analyze(&mut plan);
    assert_eq!(
        analysis.graph.carried_flows().count(),
        5,
        "iterations 1..=5 read the prior sum"
    );
    assert!(
        analysis.report.findings.is_empty(),
        "forwarded dependence is synchronized, not speculated: {:?}",
        analysis.report.findings
    );
    assert_golden("forwarded", &render_text(&analysis.graph, &analysis.report));
}

#[test]
fn mispartitioned_two_stage_program_is_flagged() {
    // Deliberately wrong partition: the accumulator dependence is split
    // across two *parallel* stages (producer stores, consumer loads) and
    // nothing is forwarded — the runtime would speculate on every
    // iteration, and the consumer also pokes a scratch cell the plan
    // never declared.
    let mut plan = AnalysisPlan {
        name: "synthetic-mispartitioned",
        iterations: 8,
        master: MasterMem::new(),
        recovery: Box::new(|mtx, master| {
            let acc = master.read(at(0));
            master.write(at(0), acc + mtx.0 + 1);
            master.write(at(4096), acc); // undeclared scratch cell
            IterOutcome::Continue
        }),
        stages: vec![
            StageSpec::new(
                "produce",
                StageRole::Parallel,
                Box::new(|_| vec![Region::write("acc", at(0), 1)]),
            ),
            StageSpec::new(
                "consume",
                StageRole::Parallel,
                Box::new(|_| vec![Region::read("acc", at(0), 1)]),
            ),
        ],
        shard_map: None,
    };
    let analysis = analyze(&mut plan);
    assert!(analysis.report.has_errors());
    let kinds: Vec<FindingKind> = analysis.report.findings.iter().map(|f| f.kind).collect();
    assert!(
        kinds.contains(&FindingKind::UnforwardedLoopCarriedFlow),
        "{kinds:?}"
    );
    assert!(
        kinds.contains(&FindingKind::CapturedStateEscape),
        "{kinds:?}"
    );
    let flow = analysis
        .report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::UnforwardedLoopCarriedFlow)
        .unwrap();
    assert_eq!(flow.severity, Severity::Error);
    assert_eq!(flow.instances, 7);
    assert!(flow.predicted_misspec_per_1k > 0);
    // Both the speculated accumulator and the escaped scratch page are
    // in the predicted conflict superset.
    assert!(analysis
        .report
        .predicted_conflict_pages
        .contains(&at(0).page().0));
    assert!(analysis
        .report
        .predicted_conflict_pages
        .contains(&at(4096).page().0));
}

#[test]
fn shipped_plans_certify_across_shard_counts() {
    let mut reg = Registry::new();
    for k in all_kernels() {
        let name = k.info().name;
        let mut plan = k.plan(Scale::test()).unwrap();
        let analysis = analyze(&mut plan);
        assert!(
            !analysis.report.has_errors(),
            "{name}: shipped plan has error findings: {:?}",
            analysis.report.findings
        );
        for shards in SHARD_COUNTS {
            let result = under_watchdog(&format!("{name} at {shards} shard(s)"), move || {
                kernel_by_name(name)
                    .unwrap()
                    .run_reported(2, shards, Scale::test())
            })
            .unwrap();
            let cert = certify(&analysis.report, &result.report.conflict_pages(), shards);
            export_cert_metrics(&mut reg, &cert);
            assert!(
                cert.holds(),
                "{name} at {shards} shard(s): observed conflicts on pages {:?} the \
                 analyzer never predicted (predicted {:?})",
                cert.unpredicted,
                cert.predicted
            );
        }
    }
    // Soundness roll-up in the shared schema: 11 workloads x 3 shard
    // counts checked, zero unpredicted pages anywhere.
    let mut runs = 0;
    for k in all_kernels() {
        for shards in SHARD_COUNTS {
            let shards_s = shards.to_string();
            let labels = [("workload", k.info().name), ("shards", shards_s.as_str())];
            runs += reg.counter(schema::CERT_RUNS, &labels).unwrap_or(0);
            assert_eq!(
                reg.counter(schema::CERT_UNPREDICTED_PAGES, &labels),
                Some(0)
            );
        }
    }
    assert_eq!(runs, 33);
}

/// Runs planted-conflict certification: asserts observed ⊆ predicted on
/// every run, and that at least one run actually observed a conflict
/// (the schedule-dependent part, hence the retry loop).
fn certify_planted(
    name: &str,
    analysis: &dsmtx_analyze::Analysis,
    mut run: impl FnMut(usize) -> Vec<u64>,
) {
    assert!(
        analysis.report.has_errors(),
        "{name}: planted conflict must lint as an error"
    );
    let mut observed_any = false;
    for _attempt in 0..8 {
        for shards in SHARD_COUNTS {
            let observed = run(shards);
            let cert = certify(&analysis.report, &observed, shards);
            assert!(
                cert.holds(),
                "{name} at {shards} shard(s): unpredicted conflict pages {:?}",
                cert.unpredicted
            );
            observed_any |= !cert.is_vacuous();
        }
        if observed_any {
            break;
        }
    }
    assert!(
        observed_any,
        "{name}: certification was vacuous — no run ever observed a conflict"
    );
}

#[test]
fn parser_planted_unknown_certifies_non_vacuously() {
    let scale = Scale::test();
    let mut plan = Parser.plan_with_planted_unknown(scale).unwrap();
    let analysis = analyze(&mut plan);
    certify_planted("197.parser(planted)", &analysis, |shards| {
        under_watchdog(&format!("197.parser(planted) at {shards}"), move || {
            Parser.run_reported_planted_unknown(2, shards, scale)
        })
        .unwrap()
        .report
        .conflict_pages()
    });
}

#[test]
fn li_setenv_certifies_non_vacuously() {
    let scale = Scale::test();
    let corpus = Corpus {
        with_setenv: true,
        with_exit: false,
    };
    let mut plan = Li.plan_corpus(scale, corpus).unwrap();
    let analysis = analyze(&mut plan);
    certify_planted("130.li(setenv)", &analysis, |shards| {
        under_watchdog(&format!("130.li(setenv) at {shards}"), move || {
            Li.run_corpus_reported(2, shards, scale, corpus)
        })
        .unwrap()
        .report
        .conflict_pages()
    });
}

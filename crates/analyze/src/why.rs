//! Misspeculation attribution: joins a run's lifecycle spans against the
//! dependence analysis to explain *why* each abort happened.
//!
//! Every aborted span gets a typed [`AbortCause`]:
//!
//! * [`AbortCause::PredictedCarriedDep`] — the conflicting page is in the
//!   linter's predicted conflict superset (an unforwarded loop-carried
//!   flow or a captured-state escape). The analyzer saw this coming.
//! * [`AbortCause::FaultInducedRetry`] — the squash came from a fabric
//!   fault (§4.3 recovery), not a data conflict.
//! * [`AbortCause::CrossShardFalseConflict`] — the page appears only in
//!   [`FindingKind::CrossStageOutputDep`] findings: commit-order noise
//!   between stages, not a true carried dependence.
//! * [`AbortCause::Unpredicted`] — nothing in the analysis explains it.
//!   This is the red flag: either the plan's self-description or the
//!   analyzer missed a real dependence.
//!
//! Collateral squashes — spans unwound by a recovery round they did not
//! cause — inherit the attribution of the round's boundary conflict, so
//! retries of innocent MTXs do not masquerade as unpredicted aborts.

use std::collections::BTreeMap;

use dsmtx_obs::{schema, AbortCause, MtxSpan, Registry, SpanOutcome};

use crate::lint::{FindingKind, LintReport};

/// Attributes a cause to every aborted span in place. Spans must come
/// from one traced run (`RunReport::spans`); `lint` is the analysis of
/// the same plan. Committed and incomplete spans are left untouched.
pub fn attribute(spans: &mut [MtxSpan], lint: &LintReport) {
    let cross_shard_pages: Vec<u64> = lint
        .findings
        .iter()
        .filter(|f| f.kind == FindingKind::CrossStageOutputDep)
        .flat_map(|f| f.pages.iter().copied())
        .collect();

    let cause_of_page = |page: u64| {
        if lint.predicted_conflict_pages.contains(&page) {
            AbortCause::PredictedCarriedDep
        } else if cross_shard_pages.contains(&page) {
            AbortCause::CrossShardFalseConflict
        } else {
            AbortCause::Unpredicted
        }
    };

    // Recovery rounds: every span squashed by one RecoveryStart shares
    // its timestamp. The boundary conflict (earliest detected in the
    // round) explains the round's collateral squashes.
    let mut boundary: BTreeMap<u64, AbortCause> = BTreeMap::new();
    for span in spans.iter() {
        if span.outcome() != SpanOutcome::Aborted {
            continue;
        }
        let (Some(sq), Some(c)) = (span.squashed_us, span.conflict) else {
            continue;
        };
        boundary
            .entry(sq)
            .and_modify(|cur| {
                // Keep the earliest conflict's cause; ties favor the
                // more specific (non-unpredicted) verdict.
                if *cur == AbortCause::Unpredicted {
                    *cur = cause_of_page(c.page);
                }
            })
            .or_insert_with(|| cause_of_page(c.page));
    }

    for span in spans.iter_mut() {
        if span.outcome() != SpanOutcome::Aborted {
            continue;
        }
        span.cause = Some(match span.conflict {
            // A span with its own detected conflict is explained by the
            // page, even inside a fault round.
            Some(c) => cause_of_page(c.page),
            None if span.fault_squashed => AbortCause::FaultInducedRetry,
            // Collateral: inherit the round's boundary attribution.
            None => span
                .squashed_us
                .and_then(|sq| boundary.get(&sq).copied())
                .unwrap_or(AbortCause::Unpredicted),
        });
    }
}

/// Aborts per cause, in [`AbortCause::ALL`] order (zero entries
/// included, so histograms are stable across runs).
pub fn cause_counts(spans: &[MtxSpan]) -> Vec<(AbortCause, u64)> {
    AbortCause::ALL
        .iter()
        .map(|&cause| {
            let n = spans
                .iter()
                .filter(|s| s.outcome() == SpanOutcome::Aborted && s.cause == Some(cause))
                .count() as u64;
            (cause, n)
        })
        .collect()
}

/// Exports attempt totals and the per-cause abort histogram under the
/// shared `why.*` schema names, labeled by workload.
pub fn export_why_metrics(reg: &mut Registry, spans: &[MtxSpan], workload: &str) {
    reg.add(
        schema::WHY_ATTEMPTS,
        &[("workload", workload)],
        spans.len() as u64,
    );
    for (cause, n) in cause_counts(spans) {
        reg.add(
            schema::WHY_ABORTS,
            &[("workload", workload), ("cause", cause.name())],
            n,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{Finding, Severity};
    use dsmtx_obs::ConflictInfo;
    use std::collections::BTreeSet;

    fn lint_with(predicted: &[u64], cross: &[u64]) -> LintReport {
        let mut findings = Vec::new();
        if !cross.is_empty() {
            findings.push(Finding {
                kind: FindingKind::CrossStageOutputDep,
                severity: Severity::Warning,
                subject: "test".into(),
                pages: cross.to_vec(),
                instances: 1,
                value_changing: 0,
                predicted_misspec_per_1k: 0,
                message: String::new(),
            });
        }
        LintReport {
            name: "test",
            iterations: 1,
            findings,
            predicted_conflict_pages: predicted.iter().copied().collect::<BTreeSet<u64>>(),
        }
    }

    fn aborted(mtx: u64, conflict_page: Option<u64>, squashed_us: u64, fault: bool) -> MtxSpan {
        let mut s = MtxSpan::new(mtx, 0);
        s.conflict = conflict_page.map(|page| ConflictInfo {
            page,
            shard: 0,
            first_writer_mtx: None,
            first_writer_attempt: 0,
            at_us: squashed_us.saturating_sub(1),
        });
        s.squashed_us = Some(squashed_us);
        s.fault_squashed = fault;
        s
    }

    #[test]
    fn predicted_page_is_attributed() {
        let mut spans = vec![aborted(1, Some(0x40), 10, false)];
        attribute(&mut spans, &lint_with(&[0x40], &[]));
        assert_eq!(spans[0].cause, Some(AbortCause::PredictedCarriedDep));
    }

    #[test]
    fn fault_round_without_conflict_is_fault_induced() {
        let mut spans = vec![aborted(1, None, 10, true)];
        attribute(&mut spans, &lint_with(&[], &[]));
        assert_eq!(spans[0].cause, Some(AbortCause::FaultInducedRetry));
    }

    #[test]
    fn cross_stage_only_page_is_false_conflict() {
        let mut spans = vec![aborted(1, Some(0x99), 10, false)];
        attribute(&mut spans, &lint_with(&[], &[0x99]));
        assert_eq!(spans[0].cause, Some(AbortCause::CrossShardFalseConflict));
    }

    #[test]
    fn unexplained_conflict_is_unpredicted() {
        let mut spans = vec![aborted(1, Some(0x7), 10, false)];
        attribute(&mut spans, &lint_with(&[0x40], &[0x99]));
        assert_eq!(spans[0].cause, Some(AbortCause::Unpredicted));
    }

    #[test]
    fn collateral_inherits_boundary_cause() {
        let mut spans = vec![
            aborted(1, Some(0x40), 10, false),
            // Squashed by the same round, no conflict of its own.
            aborted(2, None, 10, false),
            // Different round with no boundary at all.
            aborted(3, None, 25, false),
        ];
        attribute(&mut spans, &lint_with(&[0x40], &[]));
        assert_eq!(spans[1].cause, Some(AbortCause::PredictedCarriedDep));
        assert_eq!(spans[2].cause, Some(AbortCause::Unpredicted));
    }

    #[test]
    fn committed_spans_are_untouched_and_counted() {
        let mut committed = MtxSpan::new(0, 0);
        committed.committed_us = Some(5);
        let mut spans = vec![committed, aborted(1, Some(0x40), 10, false)];
        attribute(&mut spans, &lint_with(&[0x40], &[]));
        assert_eq!(spans[0].cause, None);

        let counts = cause_counts(&spans);
        assert_eq!(counts.len(), AbortCause::ALL.len());
        assert_eq!(
            counts
                .iter()
                .find(|(c, _)| *c == AbortCause::PredictedCarriedDep)
                .unwrap()
                .1,
            1
        );

        let mut reg = Registry::new();
        export_why_metrics(&mut reg, &spans, "test");
        assert_eq!(
            reg.counter(schema::WHY_ATTEMPTS, &[("workload", "test")]),
            Some(2)
        );
        assert_eq!(
            reg.counter(
                schema::WHY_ABORTS,
                &[("workload", "test"), ("cause", "predicted_carried_dep")]
            ),
            Some(1)
        );
        for line in reg.to_jsonl().lines() {
            dsmtx_obs::json::validate(line).expect("metric rows parse");
        }
    }
}

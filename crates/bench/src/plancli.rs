//! The `repro plan` section: runs the auto-partitioner over registry
//! workloads, renders the candidate ranking and the auto-vs-hand diff,
//! and (with `--apply`) executes the top-ranked auto plan through the
//! real runtime and certifies its observed conflicts against its own
//! predicted superset.
//!
//! `--workload W` picks one Table 2 kernel by name (default: all
//! eleven); `--format text|jsonl` picks the rendering. The process exit
//! code is the CI gate: a workload for which the planner cannot emit a
//! single lint-clean candidate, or (under `--apply`) an auto plan whose
//! observed conflicts escape its predicted pages, is a failure.

use std::fmt::Write as _;

use dsmtx_analyze::{auto_plan, certify, export_plan_metrics, render_plan_jsonl, render_plan_text};
use dsmtx_obs::{json, schema, Registry};
use dsmtx_workloads::{all_kernels, kernel_by_name, Scale};

use crate::analyzecli::AnalyzeFormat;

/// Worker replicas per parallel stage of an applied auto plan.
const APPLY_REPLICAS: u16 = 2;
/// Try-commit shards the applied auto plan runs with.
const APPLY_SHARDS: usize = 2;

/// The rendered report plus whether the gate failed.
#[derive(Debug)]
pub struct PlanCliOutcome {
    /// Rendered output in the requested format.
    pub output: String,
    /// Whether `repro plan` should exit nonzero.
    pub gate_failed: bool,
}

/// Plans `workload` (a Table 2 name, or `"all"`) at the test scale and
/// renders the result; with `apply`, also runs each top-ranked auto plan
/// through the real runtime and certifies it.
///
/// # Errors
///
/// Unknown workload name, a kernel failing to rebuild its plan, or a
/// runtime failure while applying a candidate.
pub fn run_plan(
    workload: &str,
    format: AnalyzeFormat,
    apply: bool,
) -> Result<PlanCliOutcome, String> {
    let kernels = if workload == "all" {
        all_kernels()
    } else {
        vec![kernel_by_name(workload).ok_or_else(|| {
            let names: Vec<&str> = all_kernels().iter().map(|k| k.info().name).collect();
            format!("unknown workload `{workload}`; known: {}", names.join(", "))
        })?]
    };

    let mut reg = Registry::new();
    let mut out = String::new();
    let mut summaries = Vec::new();
    let mut gate_failed = false;
    for k in &kernels {
        let name = k.info().name;
        let mut plan = k.plan(Scale::test()).map_err(|e| format!("{name}: {e}"))?;
        let outcome = auto_plan(&mut plan);
        export_plan_metrics(&mut reg, &outcome);
        let picked = match outcome.best() {
            Some(best) => best.name,
            None => {
                gate_failed = true;
                "none"
            }
        };
        match format {
            AnalyzeFormat::Text => {
                let _ = write!(out, "{}", render_plan_text(&outcome));
            }
            AnalyzeFormat::Jsonl => {
                let _ = write!(out, "{}", render_plan_jsonl(&outcome));
            }
        }

        let mut apply_note = String::new();
        if apply {
            if let Some(best) = outcome.best() {
                let fresh = k.plan(Scale::test()).map_err(|e| format!("{name}: {e}"))?;
                let result = dsmtx_analyze::run_candidate(
                    best,
                    &outcome.raw_iters,
                    fresh,
                    APPLY_REPLICAS,
                    APPLY_SHARDS,
                )
                .map_err(|e| format!("{name}: applying `{}`: {e}", best.name))?;
                let observed = result.report.conflict_pages();
                let cert = certify(&best.report, &observed, APPLY_SHARDS);
                let hand = k
                    .run_reported(APPLY_REPLICAS, APPLY_SHARDS, Scale::test())
                    .map_err(|e| format!("{name}: hand plan: {e}"))?;
                let shards = APPLY_SHARDS.to_string();
                let labels = [("workload", name), ("shards", shards.as_str())];
                reg.add(
                    schema::PLAN_APPLY_CONFLICTS,
                    &labels,
                    result.report.validation_conflicts,
                );
                reg.add(
                    schema::PLAN_APPLY_UNPREDICTED,
                    &labels,
                    cert.unpredicted.len() as u64,
                );
                gate_failed |= !cert.holds();
                match format {
                    AnalyzeFormat::Text => {
                        let _ = writeln!(
                            out,
                            "apply `{}`: committed {}  conflicts {} (auto) vs {} (hand)  \
                             certified observed ⊆ predicted: {}",
                            best.name,
                            result.report.total_iterations(),
                            result.report.validation_conflicts,
                            hand.report.validation_conflicts,
                            if cert.holds() { "ok" } else { "FAIL" }
                        );
                    }
                    AnalyzeFormat::Jsonl => {
                        let _ = writeln!(
                            out,
                            "{{\"record\":\"plan_apply\",\"workload\":{},\"candidate\":{},\
                             \"shards\":{},\"committed\":{},\"auto_conflicts\":{},\
                             \"hand_conflicts\":{},\"unpredicted_pages\":{},\"holds\":{}}}",
                            json::string(name),
                            json::string(best.name),
                            APPLY_SHARDS,
                            result.report.total_iterations(),
                            result.report.validation_conflicts,
                            hand.report.validation_conflicts,
                            cert.unpredicted.len(),
                            cert.holds()
                        );
                    }
                }
                let _ = write!(
                    apply_note,
                    "  auto_conflicts {} hand_conflicts {} cert {}",
                    result.report.validation_conflicts,
                    hand.report.validation_conflicts,
                    if cert.holds() { "ok" } else { "FAIL" }
                );
            }
        }
        if matches!(format, AnalyzeFormat::Text) {
            out.push('\n');
        }
        summaries.push(format!(
            "{name:<16} picked {picked:<10} candidates {} rejected {} agree {}/{}{apply_note}",
            outcome.candidates.len(),
            outcome.rejected.len(),
            outcome.diff.agreements,
            outcome.diff.total,
        ));
    }
    match format {
        AnalyzeFormat::Text => {
            let _ = writeln!(out, "== plan roll-up ==");
            for s in &summaries {
                let _ = writeln!(out, "{s}");
            }
            let _ = writeln!(
                out,
                "gate: {}",
                if gate_failed {
                    "FAIL (no viable auto plan, or observed conflicts escaped the prediction)"
                } else {
                    "ok"
                }
            );
        }
        AnalyzeFormat::Jsonl => {
            let _ = write!(out, "{}", reg.to_jsonl());
        }
    }
    Ok(PlanCliOutcome {
        output: out,
        gate_failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_every_registry_workload() {
        let outcome = run_plan("all", AnalyzeFormat::Text, false).expect("plan all");
        for k in all_kernels() {
            assert!(
                outcome.output.contains(k.info().name),
                "missing {}",
                k.info().name
            );
        }
        assert!(outcome.output.contains("plan roll-up"));
        assert!(
            !outcome.gate_failed,
            "every workload must yield a viable auto plan:\n{}",
            outcome.output
        );
    }

    #[test]
    fn jsonl_rows_parse_and_carry_metrics() {
        let outcome = run_plan("crc32", AnalyzeFormat::Jsonl, false).expect("plan crc32");
        let mut saw_plan = false;
        let mut saw_metric = false;
        for line in outcome.output.lines() {
            dsmtx_obs::json::validate(line).expect("row parses");
            saw_plan |= line.contains("\"record\":\"plan\"");
            saw_metric |= line.contains("plan.candidates");
        }
        assert!(saw_plan && saw_metric);
    }

    #[test]
    fn apply_runs_and_certifies_one_workload() {
        let outcome = run_plan("crc32", AnalyzeFormat::Text, true).expect("plan --apply crc32");
        assert!(outcome.output.contains("apply `"), "{}", outcome.output);
        assert!(!outcome.gate_failed, "{}", outcome.output);
    }

    #[test]
    fn unknown_workload_is_a_helpful_error() {
        let err = run_plan("999.nonesuch", AnalyzeFormat::Text, false).unwrap_err();
        assert!(err.contains("unknown workload"));
        assert!(err.contains("crc32"), "lists the known names");
    }
}

//! The `repro analyze` section: runs the dependence analyzer and
//! partition linter over registry workloads and renders the result.
//!
//! `--workload W` picks one Table 2 kernel by name (default: all
//! eleven); `--format text|jsonl` picks the rendering. The process exit
//! code is the CI gate: any Error-severity finding on a shipped plan is
//! a failure.

use std::fmt::Write as _;

use dsmtx_analyze::{analyze, export_metrics, render_jsonl, render_text, summary_line};
use dsmtx_obs::Registry;
use dsmtx_workloads::{all_kernels, kernel_by_name, Scale};

/// Output rendering for [`run_analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeFormat {
    /// Human-readable report per workload plus a roll-up footer.
    Text,
    /// One JSON object per line: `analysis` and `finding` rows, then
    /// the `analyze.*` metric rows from the shared registry schema.
    Jsonl,
}

impl AnalyzeFormat {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "text" => Some(AnalyzeFormat::Text),
            "jsonl" => Some(AnalyzeFormat::Jsonl),
            _ => None,
        }
    }
}

/// The rendered report plus whether any shipped plan had an
/// Error-severity finding (the CI gate).
#[derive(Debug)]
pub struct AnalyzeOutcome {
    /// Rendered output in the requested format.
    pub output: String,
    /// Whether `repro analyze` should exit nonzero.
    pub gate_failed: bool,
}

/// Analyzes `workload` (a Table 2 name, or `"all"`) at the test scale
/// and renders the result.
///
/// # Errors
///
/// Unknown workload name, or a kernel failing to rebuild its plan.
pub fn run_analyze(workload: &str, format: AnalyzeFormat) -> Result<AnalyzeOutcome, String> {
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
        let mut plan = k
            .plan(Scale::test())
            .map_err(|e| format!("{}: {e}", k.info().name))?;
        let analysis = analyze(&mut plan);
        export_metrics(&mut reg, &analysis.graph, &analysis.report);
        gate_failed |= analysis.report.has_errors();
        match format {
            AnalyzeFormat::Text => {
                let _ = write!(out, "{}", render_text(&analysis.graph, &analysis.report));
                out.push('\n');
            }
            AnalyzeFormat::Jsonl => {
                let _ = write!(out, "{}", render_jsonl(&analysis.graph, &analysis.report));
            }
        }
        summaries.push(summary_line(&analysis.report));
    }
    match format {
        AnalyzeFormat::Text => {
            let _ = writeln!(out, "== lint roll-up ==");
            for s in &summaries {
                let _ = writeln!(out, "{s}");
            }
            let _ = writeln!(
                out,
                "gate: {}",
                if gate_failed {
                    "FAIL (error-severity findings on a shipped plan)"
                } else {
                    "ok"
                }
            );
        }
        AnalyzeFormat::Jsonl => {
            let _ = write!(out, "{}", reg.to_jsonl());
        }
    }
    Ok(AnalyzeOutcome {
        output: out,
        gate_failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzes_every_registry_workload() {
        let outcome = run_analyze("all", AnalyzeFormat::Text).expect("analyze all");
        for k in all_kernels() {
            assert!(
                outcome.output.contains(k.info().name),
                "missing {}",
                k.info().name
            );
        }
        assert!(outcome.output.contains("lint roll-up"));
        assert!(
            !outcome.gate_failed,
            "shipped plans must be error-free:\n{}",
            outcome.output
        );
    }

    #[test]
    fn jsonl_rows_parse_and_carry_metrics() {
        let outcome = run_analyze("crc32", AnalyzeFormat::Jsonl).expect("analyze crc32");
        let mut saw_analysis = false;
        let mut saw_metric = false;
        for line in outcome.output.lines() {
            dsmtx_obs::json::validate(line).expect("row parses");
            saw_analysis |= line.contains("\"record\":\"analysis\"");
            saw_metric |= line.contains("analyze.edges");
        }
        assert!(saw_analysis && saw_metric);
    }

    #[test]
    fn unknown_workload_is_a_helpful_error() {
        let err = run_analyze("999.nonesuch", AnalyzeFormat::Text).unwrap_err();
        assert!(err.contains("unknown workload"));
        assert!(err.contains("crc32"), "lists the known names");
    }
}

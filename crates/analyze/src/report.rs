//! Report rendering: human-readable text and machine-readable JSONL.
//!
//! The JSONL rows share the repo's observability conventions (one JSON
//! object per line, hand-escaped via [`dsmtx_obs::json`], validated in
//! tests by the same strict parser the metric exporters use). Two row
//! shapes: a `"record":"analysis"` summary per workload, then one
//! `"record":"finding"` row per lint finding.

use std::fmt::Write as _;

use dsmtx_obs::{json, schema, Registry};

use crate::cert::Certificate;
use crate::lint::{LintReport, Severity};
use crate::pdg::{DepGraph, DepKind};

fn count_severity(report: &LintReport, sev: Severity) -> usize {
    report.findings.iter().filter(|f| f.severity == sev).count()
}

fn carried_count(graph: &DepGraph, kind: DepKind, carried: bool) -> u64 {
    graph
        .of_kind(kind)
        .filter(|e| e.carried() == carried)
        .count() as u64
}

/// Renders the analysis as indented text for `repro analyze`.
pub fn render_text(graph: &DepGraph, report: &LintReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {}: dependence analysis ==", graph.name);
    let _ = writeln!(
        out,
        "iterations {}  loads {}  stores {}  edges {}",
        graph.iterations,
        graph.loads,
        graph.stores,
        graph.edges.len()
    );
    for kind in [DepKind::Flow, DepKind::Anti, DepKind::Output] {
        let _ = writeln!(
            out,
            "  {:<6} intra {:<6} carried {}",
            kind.name(),
            carried_count(graph, kind, false),
            carried_count(graph, kind, true)
        );
    }
    let errors = report.errors().count();
    let warnings = count_severity(report, Severity::Warning);
    let infos = count_severity(report, Severity::Info);
    if infos > 0 {
        let _ = writeln!(
            out,
            "findings: {errors} error(s), {warnings} warning(s), {infos} info"
        );
    } else {
        let _ = writeln!(out, "findings: {errors} error(s), {warnings} warning(s)");
    }
    for f in &report.findings {
        let _ = writeln!(
            out,
            "  [{}] {} {}: {}",
            f.severity.name(),
            f.kind.name(),
            f.subject,
            f.message
        );
    }
    let pages: Vec<String> = report
        .predicted_conflict_pages
        .iter()
        .map(u64::to_string)
        .collect();
    let _ = writeln!(
        out,
        "predicted conflict pages: {} [{}]",
        pages.len(),
        pages.join(", ")
    );
    out
}

fn pages_json(pages: &[u64]) -> String {
    let items: Vec<String> = pages.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Renders the analysis as JSONL: one summary row, then one row per
/// finding.
pub fn render_jsonl(graph: &DepGraph, report: &LintReport) -> String {
    let mut out = String::new();
    let predicted: Vec<u64> = report.predicted_conflict_pages.iter().copied().collect();
    let _ = writeln!(
        out,
        "{{\"record\":\"analysis\",\"workload\":{},\"iterations\":{},\
         \"loads\":{},\"stores\":{},\"edges\":{},\
         \"flow_carried\":{},\"anti_carried\":{},\"output_carried\":{},\
         \"findings\":{},\"errors\":{},\"predicted_conflict_pages\":{}}}",
        json::string(graph.name),
        graph.iterations,
        graph.loads,
        graph.stores,
        graph.edges.len(),
        carried_count(graph, DepKind::Flow, true),
        carried_count(graph, DepKind::Anti, true),
        carried_count(graph, DepKind::Output, true),
        report.findings.len(),
        report.errors().count(),
        pages_json(&predicted)
    );
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{{\"record\":\"finding\",\"workload\":{},\"kind\":{},\
             \"severity\":{},\"subject\":{},\"pages\":{},\"instances\":{},\
             \"value_changing\":{},\"predicted_misspec_per_1k\":{},\
             \"message\":{}}}",
            json::string(report.name),
            json::string(f.kind.name()),
            json::string(f.severity.name()),
            json::string(&f.subject),
            pages_json(&f.pages),
            f.instances,
            f.value_changing,
            f.predicted_misspec_per_1k,
            json::string(&f.message)
        );
    }
    out
}

/// Exports the analysis into an observability registry under the shared
/// `analyze.*` schema names, labeled by workload.
pub fn export_metrics(reg: &mut Registry, graph: &DepGraph, report: &LintReport) {
    let labels = [("workload", graph.name)];
    for (name, value) in [
        (schema::ANALYZE_EDGES, graph.edges.len()),
        (schema::ANALYZE_CARRIED_FLOWS, graph.carried_flows().count()),
        (schema::ANALYZE_FINDINGS_ERROR, report.errors().count()),
        (
            schema::ANALYZE_FINDINGS_WARNING,
            count_severity(report, Severity::Warning),
        ),
        (
            schema::ANALYZE_PREDICTED_PAGES,
            report.predicted_conflict_pages.len(),
        ),
    ] {
        reg.add(name, &labels, value as u64);
    }
}

/// Exports one certification check into an observability registry under
/// the shared `cert.*` schema names, labeled by workload and shard
/// count.
pub fn export_cert_metrics(reg: &mut Registry, cert: &Certificate) {
    let shards = cert.shards.to_string();
    let labels = [("workload", cert.name), ("shards", shards.as_str())];
    reg.add(schema::CERT_RUNS, &labels, 1);
    reg.add(
        schema::CERT_OBSERVED_PAGES,
        &labels,
        cert.observed.len() as u64,
    );
    reg.add(
        schema::CERT_UNPREDICTED_PAGES,
        &labels,
        cert.unpredicted.len() as u64,
    );
}

/// One-line summary used by the CLI's roll-up footer.
pub fn summary_line(report: &LintReport) -> String {
    let errors = report.errors().count();
    let warnings = count_severity(report, Severity::Warning);
    let verdict = if errors > 0 {
        "FAIL"
    } else if report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Warning)
    {
        "warn"
    } else {
        "ok"
    };
    format!(
        "{:<16} {verdict:<4} errors {errors} warnings {warnings} predicted_pages {}",
        report.name,
        report.predicted_conflict_pages.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint;
    use crate::pdg::build;
    use crate::record::record;
    use dsmtx::{IterOutcome, Region, StageRole, StageSpec};
    use dsmtx_mem::MasterMem;
    use dsmtx_uva::{OwnerId, VAddr};
    use dsmtx_workloads::AnalysisPlan;

    fn at(off: u64) -> VAddr {
        VAddr::new(OwnerId(0), off)
    }

    fn analyzed() -> (DepGraph, LintReport) {
        // Speculated accumulator: yields one error finding.
        let mut plan = AnalysisPlan {
            name: "render \"me\"",
            iterations: 4,
            master: MasterMem::new(),
            recovery: Box::new(|mtx, master| {
                let v = master.read(at(0));
                master.write(at(0), v + mtx.0 + 1);
                IterOutcome::Continue
            }),
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(|_| vec![Region::read_write("acc", at(0), 1)]),
            )],
            shard_map: None,
        };
        let trace = record(&mut plan);
        let graph = build(&trace);
        let report = lint(&trace, &graph, &plan.stages, plan.shard_map.as_ref());
        (graph, report)
    }

    #[test]
    fn text_report_names_the_finding() {
        let (graph, report) = analyzed();
        let text = render_text(&graph, &report);
        assert!(text.contains("unforwarded_loop_carried_flow"));
        assert!(text.contains("1 error(s)"));
        assert!(text.contains("predicted conflict pages: 1"));
    }

    #[test]
    fn jsonl_rows_each_parse() {
        let (graph, report) = analyzed();
        let dump = render_jsonl(&graph, &report);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 1 + report.findings.len());
        for line in &lines {
            dsmtx_obs::json::validate(line).expect("row parses as JSON");
        }
        assert!(lines[0].contains("\"record\":\"analysis\""));
        assert!(lines[0].contains("\"workload\":\"render \\\"me\\\"\""));
        assert!(lines[1].contains("\"record\":\"finding\""));
    }

    #[test]
    fn summary_line_reports_fail_on_errors() {
        let (_, report) = analyzed();
        assert!(summary_line(&report).contains("FAIL"));
    }

    #[test]
    fn metrics_export_uses_the_shared_schema() {
        let (graph, report) = analyzed();
        let mut reg = Registry::new();
        export_metrics(&mut reg, &graph, &report);
        let labels = [("workload", graph.name)];
        assert_eq!(
            reg.counter(schema::ANALYZE_FINDINGS_ERROR, &labels),
            Some(1)
        );
        assert_eq!(reg.counter(schema::ANALYZE_CARRIED_FLOWS, &labels), Some(3));
        let cert = crate::cert::certify(&report, &[0], 2);
        export_cert_metrics(&mut reg, &cert);
        let cert_labels = [("workload", graph.name), ("shards", "2")];
        assert_eq!(reg.counter(schema::CERT_RUNS, &cert_labels), Some(1));
        assert_eq!(
            reg.counter(schema::CERT_UNPREDICTED_PAGES, &cert_labels),
            Some(0),
            "page 0 was predicted"
        );
        for line in reg.to_jsonl().lines() {
            dsmtx_obs::json::validate(line).expect("metric rows parse");
        }
    }
}

//! The `repro why` section: causal misspeculation reports.
//!
//! Runs a registry workload's shipped plan with lifecycle tracing on,
//! joins the resulting spans against the dependence analysis
//! ([`dsmtx_analyze::attribute`]), and prints each MTX's causal chain:
//! per-attempt wall-clock decomposition (queue wait / execute / flush /
//! validation lag / commit-order hold), the conflict that squashed it
//! (page, owning shard, first speculative writer), the typed abort
//! cause, and how the retry chained onto the original attempt.
//!
//! Any `unpredicted` abort — one the analysis cannot explain — is
//! surfaced loudly: it means the plan's self-description or the analyzer
//! missed a real dependence.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dsmtx::RunSpans;
use dsmtx_analyze::{analyze, attribute, cause_counts, export_why_metrics};
use dsmtx_obs::{json, AbortCause, MtxSpan, Registry, SpanOutcome};
use dsmtx_paradigms::with_trace_default;
use dsmtx_workloads::{all_kernels, kernel_by_name, Scale};

use crate::analyzecli::AnalyzeFormat;

/// Workers used for the traced run — same as the certification harness.
const WORKERS: u16 = 2;
/// Schedule-dependent conflicts may need several runs to manifest; the
/// planted variants retry up to this many times (the certification
/// tests' convention).
const MAX_RUNS: usize = 8;

/// Options for [`run_why`].
#[derive(Debug, Clone)]
pub struct WhyOptions {
    /// Table 2 workload name; `"all"` (the CLI default) means the
    /// planted-conflict parser variant, the canonical abort generator.
    pub workload: String,
    /// Use the planted-conflict variant (parser only).
    pub planted: bool,
    /// Report one MTX's chain (all its attempts) instead of the top-K.
    pub mtx: Option<u64>,
    /// How many chains to report when `mtx` is unset.
    pub top: usize,
    /// Try-commit shard count for the traced run.
    pub shards: usize,
    /// Output rendering.
    pub format: AnalyzeFormat,
}

impl Default for WhyOptions {
    fn default() -> Self {
        WhyOptions {
            workload: "all".into(),
            planted: false,
            mtx: None,
            top: 5,
            shards: 2,
            format: AnalyzeFormat::Text,
        }
    }
}

/// The rendered report plus the span-level artifacts.
#[derive(Debug)]
pub struct WhyOutcome {
    /// Rendered output in the requested format.
    pub output: String,
    /// Chrome `trace_event` JSON of the run's spans (for `--trace-out`).
    pub chrome_trace: String,
    /// Aborts the analysis could not explain — the red flag.
    pub unpredicted: u64,
}

/// One MTX's attempts, oldest first.
type Chain<'a> = (u64, Vec<&'a MtxSpan>);

/// Runs the workload traced, attributes every abort, and renders the
/// causal chains.
///
/// # Errors
///
/// Unknown workload, `--planted` on a workload without a planted
/// variant, an `mtx` the run never reached, or kernel failures.
pub fn run_why(opts: &WhyOptions) -> Result<WhyOutcome, String> {
    let scale = Scale::test();
    // Bare `repro why` reports the planted parser: the one registry run
    // guaranteed to have aborts worth explaining.
    let (name, planted) = if opts.workload == "all" {
        ("197.parser", true)
    } else {
        (opts.workload.as_str(), opts.planted)
    };

    let parser = dsmtx_workloads::parser::Parser;
    let (mut plan, run): (_, Box<dyn Fn(usize) -> Result<_, String>>) = if planted {
        if name != "197.parser" {
            return Err(format!(
                "`--planted` is only available for 197.parser, not `{name}`"
            ));
        }
        (
            parser
                .plan_with_planted_unknown(scale)
                .map_err(|e| e.to_string())?,
            Box::new(move |shards| {
                parser
                    .run_reported_planted_unknown(WORKERS, shards, scale)
                    .map_err(|e| e.to_string())
            }),
        )
    } else {
        let k = kernel_by_name(name).ok_or_else(|| {
            let names: Vec<&str> = all_kernels().iter().map(|k| k.info().name).collect();
            format!("unknown workload `{name}`; known: {}", names.join(", "))
        })?;
        let plan = k.plan(scale).map_err(|e| e.to_string())?;
        (
            plan,
            Box::new(move |shards| {
                kernel_by_name(name)
                    .expect("resolved above")
                    .run_reported(WORKERS, shards, scale)
                    .map_err(|e| e.to_string())
            }),
        )
    };
    let analysis = analyze(&mut plan);

    // Planted conflicts are schedule-dependent: rerun until one
    // manifests (or give up and report the clean run).
    let mut traced = RunSpans::default();
    let runs = if planted { MAX_RUNS } else { 1 };
    with_trace_default(true, || {
        for _ in 0..runs {
            traced = run(opts.shards)?.report.spans();
            if traced
                .spans
                .iter()
                .any(|s| s.outcome() == SpanOutcome::Aborted)
            {
                break;
            }
        }
        Ok::<_, String>(())
    })?;
    if let Some(m) = opts.mtx {
        let mtxs = || traced.spans.iter().map(|s| s.mtx);
        if !mtxs().any(|mtx| mtx == m) {
            return Err(match (mtxs().min(), mtxs().max()) {
                (Some(first), Some(last)) => {
                    format!("--mtx {m} is not in the run (MTXs {first}..={last})")
                }
                _ => format!("--mtx {m} is not in the run (it traced no MTX)"),
            });
        }
    }

    attribute(&mut traced.spans, &analysis.report);
    let workload_label = if planted {
        format!("{name}+planted")
    } else {
        name.to_string()
    };
    Ok(render(&workload_label, opts, &traced))
}

/// Groups spans into per-MTX chains and picks the ones to report:
/// `--mtx` selects exactly one; otherwise chains with aborted attempts
/// come first (most attempts, then longest), followed by the slowest
/// committed chains, truncated to `top`.
fn select_chains<'a>(spans: &'a [MtxSpan], opts: &WhyOptions) -> Vec<Chain<'a>> {
    let mut by_mtx: BTreeMap<u64, Vec<&MtxSpan>> = BTreeMap::new();
    for s in spans {
        by_mtx.entry(s.mtx).or_default().push(s);
    }
    if let Some(m) = opts.mtx {
        return by_mtx.into_iter().filter(|(mtx, _)| *mtx == m).collect();
    }
    let mut chains: Vec<Chain<'a>> = by_mtx.into_iter().collect();
    chains.sort_by_key(|(mtx, attempts)| {
        let aborted = attempts
            .iter()
            .filter(|s| s.outcome() == SpanOutcome::Aborted)
            .count();
        let total: u64 = attempts.iter().map(|s| s.total_us()).sum();
        (std::cmp::Reverse(aborted), std::cmp::Reverse(total), *mtx)
    });
    chains.truncate(opts.top);
    chains
}

fn outcome_name(s: &MtxSpan) -> &'static str {
    match s.outcome() {
        SpanOutcome::Committed => "committed",
        SpanOutcome::Aborted => "aborted",
        SpanOutcome::Incomplete => "incomplete",
    }
}

fn render(workload: &str, opts: &WhyOptions, traced: &RunSpans) -> WhyOutcome {
    let spans = &traced.spans;
    let chains = select_chains(spans, opts);
    let counts = cause_counts(spans);
    let committed = spans
        .iter()
        .filter(|s| s.outcome() == SpanOutcome::Committed)
        .count();
    let aborted = spans
        .iter()
        .filter(|s| s.outcome() == SpanOutcome::Aborted)
        .count();
    let unpredicted = counts
        .iter()
        .find(|(c, _)| *c == AbortCause::Unpredicted)
        .map_or(0, |(_, n)| *n);

    let output = match opts.format {
        AnalyzeFormat::Text => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "== repro why: {workload} (shards={}, workers={WORKERS}) ==",
                opts.shards
            );
            let _ = writeln!(
                out,
                "attempts {}  committed {committed}  aborted {aborted}",
                spans.len()
            );
            let hist: Vec<String> = counts
                .iter()
                .map(|(c, n)| format!("{} {n}", c.name()))
                .collect();
            let _ = writeln!(out, "aborts by cause: {}", hist.join(" | "));
            if unpredicted > 0 {
                let _ = writeln!(
                    out,
                    "*** RED FLAG: {unpredicted} abort(s) the analysis cannot explain \
                     — the plan's self-description or the analyzer missed a real \
                     dependence ***"
                );
            }
            for (mtx, attempts) in &chains {
                let _ = writeln!(out);
                for s in attempts {
                    let _ = writeln!(
                        out,
                        "mtx {mtx} attempt {}: {}  total {}us",
                        s.attempt,
                        outcome_name(s).to_uppercase(),
                        s.total_us()
                    );
                    let _ = writeln!(
                        out,
                        "  queue_wait {}us  exec {}us  flush {}us",
                        s.queue_wait_us(),
                        s.exec_us(),
                        s.flush_us()
                    );
                    if let Some(v) = s.validation_lag_us() {
                        let _ = write!(out, "  validation_lag {v}us");
                        if let Some(h) = s.commit_hold_us() {
                            let _ = write!(out, "  commit_hold {h}us");
                        }
                        let _ = writeln!(out);
                    }
                    if let Some(c) = s.conflict {
                        let writer = match c.first_writer_mtx {
                            Some(w) => format!("mtx {w}#a{}", c.first_writer_attempt),
                            None => "<none>".into(),
                        };
                        let _ = writeln!(
                            out,
                            "  conflict: page {:#x} shard {} first_writer {writer} at {}us",
                            c.page, c.shard, c.at_us
                        );
                    }
                    if let Some(q) = s.squashed_us {
                        let cause = s.cause.map_or("<unattributed>", AbortCause::name);
                        let kind = if s.fault_squashed { "fault" } else { "data" };
                        let _ =
                            writeln!(out, "  squashed at {q}us ({kind} recovery) cause={cause}");
                    }
                }
            }
            out
        }
        AnalyzeFormat::Jsonl => {
            let mut out = String::new();
            for (mtx, attempts) in &chains {
                for s in attempts {
                    let _ = write!(
                        out,
                        "{{\"record\":\"why\",\"workload\":{},\"mtx\":{mtx},\
                         \"attempt\":{},\"outcome\":{},\"queue_wait_us\":{},\
                         \"exec_us\":{},\"flush_us\":{},\"validation_lag_us\":{},\
                         \"commit_hold_us\":{},\"total_us\":{},\"fault\":{}",
                        json::string(workload),
                        s.attempt,
                        json::string(outcome_name(s)),
                        s.queue_wait_us(),
                        s.exec_us(),
                        s.flush_us(),
                        s.validation_lag_us().unwrap_or(0),
                        s.commit_hold_us().unwrap_or(0),
                        s.total_us(),
                        s.fault_squashed,
                    );
                    if let Some(cause) = s.cause {
                        let _ = write!(out, ",\"cause\":{}", json::string(cause.name()));
                    }
                    if let Some(c) = s.conflict {
                        let _ = write!(
                            out,
                            ",\"conflict_page\":{},\"conflict_shard\":{}",
                            c.page, c.shard
                        );
                        if let Some(w) = c.first_writer_mtx {
                            let _ = write!(out, ",\"first_writer_mtx\":{w}");
                        }
                    }
                    let _ = writeln!(out, "}}");
                }
            }
            let mut reg = Registry::new();
            export_why_metrics(&mut reg, spans, workload);
            let _ = write!(out, "{}", reg.to_jsonl());
            out
        }
    };

    WhyOutcome {
        output,
        chrome_trace: dsmtx::chrome_spans(traced).render(),
        unpredicted,
    }
}

// ---------------------------------------------------------------------
// BENCH_mtx_lifecycle: per-stage time decomposition + abort-cause
// histogram for the planted parser at shards {1, 2, 4}.
// ---------------------------------------------------------------------

/// One shard count's lifecycle totals.
#[derive(Debug)]
pub struct LifecycleRow {
    /// Try-commit shard count.
    pub shards: usize,
    /// Spans (attempts) observed.
    pub attempts: u64,
    /// Committed / aborted attempt counts.
    pub committed: u64,
    /// Aborted attempts.
    pub aborted: u64,
    /// Mean per-attempt phase times in microseconds.
    pub queue_wait_us: u64,
    /// Mean execute time.
    pub exec_us: u64,
    /// Mean flush time.
    pub flush_us: u64,
    /// Mean validation lag over validated attempts.
    pub validation_lag_us: u64,
    /// Mean commit-order hold over committed attempts.
    pub commit_hold_us: u64,
    /// Aborts per cause, in [`AbortCause::ALL`] order.
    pub causes: Vec<(AbortCause, u64)>,
}

/// Runs the planted parser traced at each shard count and decomposes
/// attempt wall-clock into lifecycle phases.
///
/// # Errors
///
/// Kernel failures.
pub fn run_mtx_lifecycle(shard_counts: &[usize]) -> Result<Vec<LifecycleRow>, String> {
    let scale = Scale::test();
    let parser = dsmtx_workloads::parser::Parser;
    let mut plan = parser
        .plan_with_planted_unknown(scale)
        .map_err(|e| e.to_string())?;
    let analysis = analyze(&mut plan);

    with_trace_default(true, || {
        let mut rows = Vec::new();
        for &shards in shard_counts {
            let mut spans = Vec::new();
            for _ in 0..MAX_RUNS {
                let result = parser
                    .run_reported_planted_unknown(WORKERS, shards, scale)
                    .map_err(|e| e.to_string())?;
                spans = result.report.spans().spans;
                if spans.iter().any(|s| s.outcome() == SpanOutcome::Aborted) {
                    break;
                }
            }
            attribute(&mut spans, &analysis.report);

            let attempts = spans.len() as u64;
            let committed = spans
                .iter()
                .filter(|s| s.outcome() == SpanOutcome::Committed)
                .count() as u64;
            let aborted = spans
                .iter()
                .filter(|s| s.outcome() == SpanOutcome::Aborted)
                .count() as u64;
            let mean = |total: u64, n: u64| total.checked_div(n).unwrap_or(0);
            let validated = spans.iter().filter(|s| s.validated_us.is_some()).count() as u64;
            rows.push(LifecycleRow {
                shards,
                attempts,
                committed,
                aborted,
                queue_wait_us: mean(spans.iter().map(MtxSpan::queue_wait_us).sum(), attempts),
                exec_us: mean(spans.iter().map(MtxSpan::exec_us).sum(), attempts),
                flush_us: mean(spans.iter().map(MtxSpan::flush_us).sum(), attempts),
                validation_lag_us: mean(
                    spans.iter().filter_map(MtxSpan::validation_lag_us).sum(),
                    validated,
                ),
                commit_hold_us: mean(
                    spans.iter().filter_map(MtxSpan::commit_hold_us).sum(),
                    committed,
                ),
                causes: cause_counts(&spans),
            });
        }
        Ok(rows)
    })
}

/// Renders the lifecycle rows as the single-line `BENCH_mtx_lifecycle`
/// JSON artifact.
pub fn mtx_lifecycle_json(rows: &[LifecycleRow]) -> String {
    let mut out =
        String::from("{\"bench\":\"mtx_lifecycle\",\"workload\":\"197.parser+planted\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let causes: Vec<String> = r
            .causes
            .iter()
            .map(|(c, n)| format!("{}:{n}", json::string(c.name())))
            .collect();
        let _ = write!(
            out,
            "{{\"shards\":{},\"attempts\":{},\"committed\":{},\"aborted\":{},\
             \"queue_wait_us\":{},\"exec_us\":{},\"flush_us\":{},\
             \"validation_lag_us\":{},\"commit_hold_us\":{},\"causes\":{{{}}}}}",
            r.shards,
            r.attempts,
            r.committed,
            r.aborted,
            r.queue_wait_us,
            r.exec_us,
            r.flush_us,
            r.validation_lag_us,
            r.commit_hold_us,
            causes.join(",")
        );
    }
    out.push_str("]}");
    out
}

/// Text rendering of the lifecycle rows for the CLI.
pub fn mtx_lifecycle_text(rows: &[LifecycleRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== MTX lifecycle decomposition: 197.parser+planted ({WORKERS} workers) =="
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>9} {:>7} {:>10} {:>8} {:>8} {:>12} {:>11}",
        "shards",
        "attempts",
        "committed",
        "aborted",
        "queue_us",
        "exec_us",
        "flush_us",
        "val_lag_us",
        "hold_us"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>9} {:>7} {:>10} {:>8} {:>8} {:>12} {:>11}",
            r.shards,
            r.attempts,
            r.committed,
            r.aborted,
            r.queue_wait_us,
            r.exec_us,
            r.flush_us,
            r.validation_lag_us,
            r.commit_hold_us
        );
    }
    for r in rows {
        let hist: Vec<String> = r
            .causes
            .iter()
            .map(|(c, n)| format!("{} {n}", c.name()))
            .collect();
        let _ = writeln!(
            out,
            "shards={}: aborts by cause: {}",
            r.shards,
            hist.join(" | ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn why_reports_planted_parser_aborts() {
        let outcome = run_why(&WhyOptions::default()).expect("why runs");
        assert!(outcome.output.contains("197.parser+planted"));
        assert!(outcome.output.contains("aborts by cause"));
        assert_eq!(
            outcome.unpredicted, 0,
            "planted parser aborts must be attributed:\n{}",
            outcome.output
        );
        json::validate(&outcome.chrome_trace).expect("span trace parses");
    }

    #[test]
    fn why_jsonl_rows_parse() {
        let outcome = run_why(&WhyOptions {
            format: AnalyzeFormat::Jsonl,
            top: 3,
            ..WhyOptions::default()
        })
        .expect("why runs");
        let mut saw_why = false;
        for line in outcome.output.lines() {
            json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            saw_why |= line.contains("\"record\":\"why\"");
        }
        assert!(saw_why, "no why rows:\n{}", outcome.output);
        assert!(outcome.output.contains("why.attempts"));
    }

    #[test]
    fn why_mtx_filter_selects_one_chain() {
        let all = run_why(&WhyOptions {
            format: AnalyzeFormat::Jsonl,
            top: 1,
            ..WhyOptions::default()
        })
        .expect("why runs");
        let row = all
            .output
            .lines()
            .find(|l| l.contains("\"record\":\"why\""))
            .expect("at least one row");
        let mtx: u64 = row
            .split("\"mtx\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("mtx field");
        let one = run_why(&WhyOptions {
            format: AnalyzeFormat::Jsonl,
            mtx: Some(mtx),
            ..WhyOptions::default()
        })
        .expect("why runs");
        for line in one
            .output
            .lines()
            .filter(|l| l.contains("\"record\":\"why\""))
        {
            assert!(line.contains(&format!("\"mtx\":{mtx}")), "{line}");
        }
    }

    #[test]
    fn unknown_workload_is_a_helpful_error() {
        let err = run_why(&WhyOptions {
            workload: "999.nonesuch".into(),
            ..WhyOptions::default()
        })
        .unwrap_err();
        assert!(err.contains("unknown workload"));
    }

    #[test]
    fn lifecycle_json_parses() {
        let rows = run_mtx_lifecycle(&[1]).expect("lifecycle runs");
        let doc = mtx_lifecycle_json(&rows);
        json::validate(&doc).expect("artifact parses");
        assert!(doc.contains("\"bench\":\"mtx_lifecycle\""));
        assert!(doc.contains("\"causes\""));
        assert!(mtx_lifecycle_text(&rows).contains("shards=1"));
    }
}

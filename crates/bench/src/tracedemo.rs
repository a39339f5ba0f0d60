//! A real traced pipeline run feeding the telemetry exporters.
//!
//! The `repro` binary's `trace` section runs a three-stage Spec-DSWP
//! pipeline with tracing on, then renders three artifacts from the same
//! [`dsmtx::RunReport`], all from its lifecycle spans
//! ([`dsmtx::RunReport::spans`]):
//!
//! * a Chrome `trace_event` JSON (`--trace-out`), loadable in
//!   `chrome://tracing` or Perfetto: [`dsmtx::chrome_spans`], the format
//!   `repro why` writes, with one track per worker and an
//!   `mtx-lifecycle` track of milestones and recovery rounds;
//! * a JSONL metrics dump (`--metrics-out`) under the shared
//!   [`dsmtx_obs::schema`] names;
//! * a stage-occupancy text report (always printed).

use std::sync::Arc;

use dsmtx::{
    chrome_spans, FaultConfig, IterOutcome, MtxId, MtxSystem, Program, Role, RunResult,
    SpanMetrics, StageKind, SystemConfig, WorkerCtx,
};
use dsmtx_mem::MasterMem;
use dsmtx_obs::Registry;
use dsmtx_uva::{OwnerId, RegionAllocator};

use crate::format::Table;

/// Stage-1's per-word work: 64 rounds of Knuth's LCG.
fn churn(x: u64) -> u64 {
    let mut v = x;
    for _ in 0..64 {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    v
}

/// Runs the demo pipeline (`iters` iterations, traced) and returns the
/// full result. The loop is the paper's running example shape: a
/// sequential traversal stage, a replicated work stage, and a sequential
/// accumulation stage.
pub fn run_traced_pipeline(iters: u64) -> RunResult {
    run_traced_pipeline_faulted(iters, None)
}

/// [`run_traced_pipeline`], optionally under a deterministic fault plan
/// (the `repro --fault-seed/--fault-rate` path).
pub fn run_traced_pipeline_faulted(iters: u64, fault: Option<FaultConfig>) -> RunResult {
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(iters).expect("alloc");
    let out = heap.alloc_words(iters).expect("alloc");
    let checksum = heap.alloc_words(1).expect("alloc");
    let mut master = MasterMem::new();
    for i in 0..iters {
        master.write(input.add_words(i), i * 7 + 3);
    }

    let s0 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let x = ctx.read(input.add_words(mtx.0))?;
        ctx.produce(x);
        Ok(IterOutcome::Continue)
    });
    let s1 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let x = ctx.consume();
        // A little real work so stage-1 spans have visible width.
        let v = churn(x);
        ctx.write_no_forward(out.add_words(mtx.0), v)?;
        ctx.produce(v);
        Ok(IterOutcome::Continue)
    });
    let s2 = Arc::new(move |ctx: &mut WorkerCtx, _mtx: MtxId| {
        let v = ctx.consume();
        let acc = ctx.read(checksum)?;
        ctx.write(checksum, acc.wrapping_add(v))?;
        Ok(IterOutcome::Continue)
    });

    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Sequential)
        .stage(StageKind::Parallel { replicas: 2 })
        .stage(StageKind::Sequential);
    if let Some(f) = fault {
        cfg.faults(f);
    }
    MtxSystem::new(&cfg)
        .expect("config")
        .trace(true)
        .run(Program {
            master,
            stages: vec![s0, s1, s2],
            // Under fault injection, recovered iterations re-execute
            // sequentially through this closure — it must mirror the
            // three stages exactly or faulted runs would lose work.
            recovery: Box::new(move |mtx, m| {
                let v = churn(m.read(input.add_words(mtx.0)));
                m.write(out.add_words(mtx.0), v);
                let acc = m.read(checksum);
                m.write(checksum, acc.wrapping_add(v));
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(iters),
        })
        .expect("run")
}

/// Chrome `trace_event` JSON for a run.
pub fn chrome_trace_json(result: &RunResult) -> String {
    chrome_spans(&result.report.spans()).render()
}

/// JSONL metrics dump for a run (shared schema with the simulator).
pub fn metrics_jsonl(result: &RunResult) -> String {
    let mut reg = Registry::new();
    result.report.to_registry(&mut reg);
    reg.to_jsonl()
}

/// The stage-occupancy report: per-stage latency quantiles, per-worker
/// busy fractions, and the mean critical-path breakdown per MTX.
pub fn occupancy_text(result: &RunResult) -> String {
    let m = SpanMetrics::new(&result.report.spans().spans);
    let mut out = String::from("Pipeline telemetry (traced run)\n\n");

    let mut t = Table::new(vec!["stage", "subTXs", "p50 us", "p99 us", "mean us"]);
    for (stage, h) in &m.stage_exec {
        t.row(vec![
            format!("stage{stage}"),
            h.count().to_string(),
            h.p50().to_string(),
            h.p99().to_string(),
            format!("{:.1}", h.mean()),
        ]);
    }
    out.push_str("Per-stage subTX execution latency:\n");
    out.push_str(&t.render());

    let mut t = Table::new(vec!["role", "busy %"]);
    for (w, frac) in m.occupancy() {
        t.row(vec![
            Role::Worker(w).to_string(),
            format!("{:.1}", 100.0 * frac),
        ]);
    }
    out.push_str("\nWorker occupancy (busy / traced span):\n");
    out.push_str(&t.render());

    // Summed subTX time per committed MTX, across its stages.
    let subtx_us: u64 = m.stage_exec.values().map(|h| h.sum()).sum();
    let exec_us = subtx_us as f64 / m.total_latency.count().max(1) as f64;
    out.push_str(&format!(
        "\nMean per-MTX critical path: exec {exec_us:.1} us, validation wait {:.1} us, \
         commit wait {:.1} us, total {:.1} us\n",
        m.validation_wait.mean(),
        m.commit_wait.mean(),
        m.total_latency.mean()
    ));
    out.push_str(&format!(
        "Committed {} MTXs over {} us; fabric moved {} bytes ({} sent / {} \
         received packets); trace dropped {} events\n",
        result.report.committed,
        m.window_us,
        result.report.stats.bytes(),
        result.report.stats.packets(),
        result.report.stats.recv_packets(),
        result.report.trace_dropped,
    ));
    if result.report.stats.faults_total() > 0 || result.report.fabric_timeouts > 0 {
        out.push_str(&format!(
            "Fault injection: {} faults injected, {} send retries, {} fabric \
             timeouts, {} fault recoveries, {} channels down\n",
            result.report.stats.faults_total(),
            result.report.stats.retries(),
            result.report.fabric_timeouts,
            result.report.fault_recoveries,
            result.report.channel_downs,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pipeline_produces_valid_artifacts() {
        let result = run_traced_pipeline(24);
        assert_eq!(result.report.committed, 24);

        let trace = chrome_trace_json(&result);
        dsmtx_obs::json::validate(&trace).expect("valid chrome trace JSON");
        assert!(trace.contains("\"traceEvents\""));
        // Worker and lifecycle tracks are present, with MTX-labeled
        // spans and validated/committed milestones.
        assert!(trace.contains("worker0"));
        assert!(trace.contains("mtx-lifecycle"));
        assert!(trace.contains("validated mtx"));
        assert!(trace.contains("committed mtx"));

        let metrics = metrics_jsonl(&result);
        for line in metrics.lines() {
            dsmtx_obs::json::validate(line).expect("valid JSONL line");
        }
        assert!(metrics.contains(dsmtx_obs::schema::STAGE_EXEC_US));
        assert!(metrics.contains(dsmtx_obs::schema::FABRIC_SENT_BYTES));

        let text = occupancy_text(&result);
        assert!(text.contains("Per-stage subTX execution latency"));
        assert!(text.contains("worker0"));
        assert!(text.contains("Committed 24 MTXs"));
    }

    #[test]
    fn faulted_run_commits_identical_results() {
        use dsmtx_fabric::FaultRates;

        let clean = run_traced_pipeline(32);
        let fault = FaultConfig::new(7, FaultRates::uniform(0.10));
        let faulted = run_traced_pipeline_faulted(32, Some(fault));
        assert_eq!(clean.report.total_iterations(), 32);
        assert_eq!(faulted.report.total_iterations(), 32);

        // Both runs allocate from a fresh region heap in the same order,
        // so addresses line up: re-derive them and compare committed
        // memory cell-for-cell (out[0..32] then the checksum word).
        let mut heap = RegionAllocator::new(OwnerId(0));
        let _input = heap.alloc_words(32).unwrap();
        let out = heap.alloc_words(32).unwrap();
        let checksum = heap.alloc_words(1).unwrap();
        for i in 0..32 {
            assert_eq!(
                faulted.master.read(out.add_words(i)),
                clean.master.read(out.add_words(i)),
                "out[{i}] diverged under faults"
            );
        }
        assert_eq!(faulted.master.read(checksum), clean.master.read(checksum));

        let metrics = metrics_jsonl(&faulted);
        assert!(metrics.contains(dsmtx_obs::schema::RUN_FABRIC_TIMEOUTS));
        assert!(metrics.contains(dsmtx_obs::schema::RUN_FAULT_RECOVERIES));
        let text = occupancy_text(&faulted);
        if faulted.report.stats.faults_total() > 0 {
            assert!(text.contains("Fault injection:"), "{text}");
        }
    }

    #[test]
    fn run_is_invariant_clean_and_correct() {
        let result = run_traced_pipeline(16);
        let run = result.report.spans();
        run.check().expect("no invariant violations");
        // Stage latency quantiles are live on the same report.
        let stage1 = &SpanMetrics::new(&run.spans).stage_exec[&1];
        assert!(stage1.p99() >= stage1.p50());
    }
}

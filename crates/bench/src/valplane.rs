//! Validation-plane compaction benchmark.
//!
//! Runs a validation-bound Spec-DOALL loop once and reports what crossed
//! the unit plane — records, bytes, packed frames, filter suppressions,
//! and the try-commit unit's verdict latency — next to a per-record
//! baseline counted from the loop itself (one message per access on the
//! validation plane and per store on the commit plane, plus framing).
//! The gap between the two rows is what per-subTX access filtering and
//! one packed `AccessBlock` frame per subTX buy.
//!
//! A wrong run reports nothing: before any number is returned, the
//! committed memory must equal the loop's recovery body replayed
//! sequentially over a [`MasterMem`], and the MTXs must have committed in
//! iteration order. The shipped-to-per-record byte ratio also feeds the
//! simulator's `val_compaction` knob so the model's shard-sweep
//! predictions reflect the protocol actually running.

use std::sync::Arc;
use std::time::Duration;

use dsmtx::wire::Msg;
use dsmtx::{
    IterOutcome, MtxId, MtxSystem, Program, StageKind, SystemConfig, ValPlaneStats, WorkerCtx,
};
use dsmtx_mem::MasterMem;
use dsmtx_sim::unit_shard_sweep_with;
use dsmtx_uva::{OwnerId, RegionAllocator};
use dsmtx_workloads::kernel_by_name;

use crate::format::Table;

/// Everything one run produced that the artifact needs.
struct ValRun {
    valplane: ValPlaneStats,
    verdict_p50_us: u64,
    verdict_p99_us: u64,
    elapsed: Duration,
}

/// What the run shipped, reduced to the artifact's fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValPlanePoint {
    /// Wall-clock time of the parallel section, microseconds.
    pub elapsed_us: u64,
    /// Messages that actually crossed the unit plane.
    pub records: u64,
    /// Bytes that actually crossed (framing + payload).
    pub bytes: u64,
    /// Accesses suppressed by the write-combining filter.
    pub records_filtered: u64,
    /// Packed frames shipped.
    pub blocks: u64,
    /// Mean records per packed frame.
    pub block_fill: f64,
    /// Try-commit verdict latency, p50 microseconds.
    pub verdict_p50_us: u64,
    /// Try-commit verdict latency, p99 microseconds.
    pub verdict_p99_us: u64,
}

/// The per-record baseline next to what was shipped, plus the
/// simulator's prediction.
#[derive(Debug, Clone)]
pub struct ValPlaneSweep {
    /// Iterations per run.
    pub iters: u64,
    /// Scattered writes per iteration (the validation load).
    pub writes_per_iter: u64,
    /// Cores available to this process when the sweep ran.
    pub cores: usize,
    /// Messages one message per access record would have shipped
    /// (counted from the loop, not run).
    pub pre_records: u64,
    /// Bytes one message per access record would have cost.
    pub pre_bytes: u64,
    /// What the run actually shipped (filter + packed frames).
    pub post: ValPlanePoint,
    /// Per-record messages divided by shipped messages.
    pub records_ratio: f64,
    /// Per-record bytes divided by shipped bytes.
    pub bytes_ratio: f64,
    /// The simulator's predicted loop speedup from feeding the measured
    /// byte ratio into its `val_compaction` knob (128 simulated cores,
    /// one speculation-unit shard).
    pub sim_predicted_speedup: f64,
}

/// What one message per access record would ship for the loop, as
/// `(messages, bytes)`: per MTX, one message per access (one load,
/// `writes_per_iter` stores) on the validation plane and one per store on
/// the commit plane, plus a begin/end framing pair on each plane (the
/// loop runs on one try-commit shard). The fabric charges each message
/// one `Msg` slot.
fn per_record(iters: u64, writes_per_iter: u64) -> (u64, u64) {
    let messages = iters * (2 * writes_per_iter + 5);
    (messages, messages * std::mem::size_of::<Msg>() as u64)
}

/// Runs the validation-bound DOALL once, with tracing on, and returns
/// what the artifact needs.
///
/// # Panics
///
/// Panics unless the committed memory equals the recovery body replayed
/// sequentially and the MTXs committed in iteration order — numbers from
/// a wrong run mean nothing.
fn run_valplane_once(iters: u64, writes_per_iter: u64) -> ValRun {
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(iters).expect("alloc");
    let data = heap.alloc_words(iters * writes_per_iter).expect("alloc");
    let initial = || {
        let mut m = MasterMem::new();
        for i in 0..iters {
            m.write(input.add_words(i), i.wrapping_mul(0x9E37_79B9) | 1);
        }
        m
    };
    // The loop body on committed memory: the recovery re-execution, and
    // replayed over every iteration, the sequential reference.
    let sequential = move |mtx: MtxId, m: &mut MasterMem| {
        let x = m.read(input.add_words(mtx.0));
        for k in 0..writes_per_iter {
            m.write(data.add_words(k * iters + mtx.0), x.wrapping_add(k));
        }
        IterOutcome::Continue
    };

    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let x = ctx.read(input.add_words(mtx.0))?;
        for k in 0..writes_per_iter {
            // Column-major scatter, same shape as the shard sweep: each
            // MTX's stores spread across the page space.
            ctx.write_no_forward(data.add_words(k * iters + mtx.0), x.wrapping_add(k))?;
        }
        Ok(IterOutcome::Continue)
    });
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 3 });
    let result = MtxSystem::new(&cfg)
        .expect("config")
        .trace(true)
        .run(Program {
            master: initial(),
            stages: vec![body],
            recovery: Box::new(sequential),
            on_commit: None,
            iteration_limit: Some(iters),
        })
        .expect("run");

    let mut reference = initial();
    for i in 0..iters {
        sequential(MtxId(i), &mut reference);
    }
    let (got, want) = (result.master.snapshot(), reference.snapshot());
    assert_eq!(got.len(), want.len(), "committed a different page set");
    for ((id_a, page_a), (id_b, page_b)) in got.iter().zip(want.iter()) {
        assert_eq!(id_a, id_b, "page ids diverged from the sequential run");
        assert!(
            page_a == page_b,
            "page {id_a:?} diverged from the sequential run"
        );
    }
    let commit_order = result.report.spans().commit_order;
    assert!(
        commit_order.iter().copied().eq(0..iters),
        "MTXs did not commit in iteration order"
    );

    let mut verdicts = dsmtx_obs::Histogram::new();
    for s in &result.report.shard_stats {
        verdicts.merge(&s.verdict_latency);
    }
    ValRun {
        valplane: result.report.valplane.clone(),
        verdict_p50_us: verdicts.p50(),
        verdict_p99_us: verdicts.p99(),
        elapsed: result.report.elapsed,
    }
}

/// Runs the loop, checks it against the sequential run, and returns the
/// per-record baseline next to what was shipped.
///
/// # Panics
///
/// Panics if the run committed different memory than the sequential run
/// or committed out of iteration order.
pub fn run_valplane_sweep(iters: u64, writes_per_iter: u64) -> ValPlaneSweep {
    let r = run_valplane_once(iters, writes_per_iter);
    let v = &r.valplane;
    let post = ValPlanePoint {
        elapsed_us: (r.elapsed.as_micros() as u64).max(1),
        records: v.records_post,
        bytes: v.bytes_post,
        records_filtered: v.records_filtered,
        blocks: v.blocks,
        block_fill: v.block_fill(),
        verdict_p50_us: r.verdict_p50_us,
        verdict_p99_us: r.verdict_p99_us,
    };
    let (pre_records, pre_bytes) = per_record(iters, writes_per_iter);
    let records_ratio = pre_records as f64 / post.records.max(1) as f64;
    let bytes_ratio = pre_bytes as f64 / post.bytes.max(1) as f64;

    // Feed the measured byte ratio into the simulator: predicted loop
    // speedup of the compacted protocol on the paper's 128-core platform,
    // one speculation-unit shard, validation-heavy profile.
    let vc = (post.bytes as f64 / pre_bytes.max(1) as f64).clamp(0.0, 1.0);
    let profile = validation_heavy_profile();
    let before = unit_shard_sweep_with(&profile, 128, &[1], 1.0);
    let after = unit_shard_sweep_with(&profile, 128, &[1], vc);
    let sim_predicted_speedup = match (before.first(), after.first()) {
        (Some(b), Some(a)) if b.speedup > 0.0 => a.speedup / b.speedup,
        _ => 1.0,
    };

    ValPlaneSweep {
        iters,
        writes_per_iter,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pre_records,
        pre_bytes,
        post,
        records_ratio,
        bytes_ratio,
        sim_predicted_speedup,
    }
}

/// The validation-heavy parser variant used by the shard sweep, shared so
/// both artifacts model the same workload.
pub(crate) fn validation_heavy_profile() -> dsmtx_sim::WorkloadProfile {
    let mut profile = kernel_by_name("197.parser").expect("known").profile();
    profile.validation_words = 4096.0;
    profile.stages[0].bytes_out = 512.0;
    profile.stages[0].work_fraction = 0.005;
    profile.stages[1].work_fraction = 0.99;
    profile.stages[2].work_fraction = 0.005;
    profile
}

/// Measures the compacted protocol's byte ratio (shipped over
/// per-record bytes) on a small validation-bound run — the plug-in value
/// for the simulator's `val_compaction` knob.
pub fn measured_compaction_factor() -> f64 {
    let (iters, writes_per_iter) = (128, 16);
    let r = run_valplane_once(iters, writes_per_iter);
    let (_, pre_bytes) = per_record(iters, writes_per_iter);
    (r.valplane.bytes_post as f64 / pre_bytes as f64).clamp(0.0, 1.0)
}

/// Renders the sweep as a text table for the `repro` binary.
pub fn valplane_text(s: &ValPlaneSweep) -> String {
    let mut t = Table::new(vec![
        "protocol",
        "records",
        "bytes",
        "filtered",
        "blocks",
        "fill",
        "verdict p50/p99 (us)",
        "elapsed (us)",
    ]);
    // The per-record row is counted, not run: only its sizes exist.
    let mut counted = vec![
        "per-record (counted)".to_string(),
        s.pre_records.to_string(),
        s.pre_bytes.to_string(),
    ];
    counted.resize(8, "-".to_string());
    t.row(counted);
    let p = &s.post;
    t.row(vec![
        "packed (shipped)".to_string(),
        p.records.to_string(),
        p.bytes.to_string(),
        p.records_filtered.to_string(),
        p.blocks.to_string(),
        format!("{:.1}", p.block_fill),
        format!("{}/{}", p.verdict_p50_us, p.verdict_p99_us),
        p.elapsed_us.to_string(),
    ]);
    format!(
        "Validation-plane compaction (filter + packed frames)\n\
         validation-bound DOALL: {} iters x {} scattered writes, {} core(s)\n\
         committed memory equals the sequential run, commits in iteration order\n\n{}\n\
         records {:.1}x fewer, bytes {:.1}x fewer; simulator predicts \
         {:.2}x loop speedup at 128 cores from the measured byte ratio",
        s.iters,
        s.writes_per_iter,
        s.cores,
        t.render(),
        s.records_ratio,
        s.bytes_ratio,
        s.sim_predicted_speedup,
    )
}

/// Serializes the sweep as the `BENCH_valplane.json` artifact.
pub fn valplane_json(s: &ValPlaneSweep) -> String {
    let p = &s.post;
    format!(
        concat!(
            r#"{{"bench":"valplane","workload":"validation_bound_doall","#,
            r#""iters":{},"writes_per_iter":{},"cores":{},"#,
            r#""pre":{{"records":{},"bytes":{}}},"#,
            r#""post":{{"records":{},"bytes":{},"records_filtered":{},"#,
            r#""blocks":{},"block_fill":{:.2},"#,
            r#""verdict_p50_us":{},"verdict_p99_us":{},"elapsed_us":{}}},"#,
            r#""records_ratio":{:.4},"bytes_ratio":{:.4},"#,
            r#""sim_predicted_speedup":{:.4},"identical":true}}"#
        ),
        s.iters,
        s.writes_per_iter,
        s.cores,
        s.pre_records,
        s.pre_bytes,
        p.records,
        p.bytes,
        p.records_filtered,
        p.blocks,
        p.block_fill,
        p.verdict_p50_us,
        p.verdict_p99_us,
        p.elapsed_us,
        s.records_ratio,
        s.bytes_ratio,
        s.sim_predicted_speedup,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_hits_the_reduction_bars() {
        // The acceptance shape at a test-sized run: the per-iteration
        // arithmetic (per-record messages vs two frames) is independent
        // of the iteration count, so the ratios transfer to the full
        // 512x32 artifact run.
        let s = run_valplane_sweep(96, 16);
        assert!(
            s.records_ratio >= 5.0,
            "records only {:.2}x fewer",
            s.records_ratio
        );
        assert!(
            s.bytes_ratio >= 2.0,
            "bytes only {:.2}x fewer",
            s.bytes_ratio
        );
        assert!(
            s.sim_predicted_speedup >= 1.0,
            "sim predicts a slowdown: {}",
            s.sim_predicted_speedup
        );
        // The run must actually pack: one frame per MTX, many records per
        // frame.
        assert_eq!(s.post.blocks, 96);
        assert!(s.post.block_fill > 1.0);
    }

    #[test]
    fn artifact_json_is_valid_and_complete() {
        let s = run_valplane_sweep(64, 8);
        let json = valplane_json(&s);
        dsmtx_obs::json::validate(&json).expect("valid JSON artifact");
        assert!(json.contains(r#""bench":"valplane""#));
        assert!(json.contains(r#""pre":"#));
        assert!(json.contains(r#""post":"#));
        assert!(json.contains(r#""identical":true"#));

        let text = valplane_text(&s);
        assert!(text.contains("compaction"));
        assert!(text.contains("packed"));
    }

    #[test]
    fn measured_factor_is_a_real_reduction() {
        let f = measured_compaction_factor();
        assert!(f > 0.0 && f <= 0.5, "factor {f} not a >=2x reduction");
    }
}

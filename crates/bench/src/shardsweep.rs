//! Real-runtime speculation-unit shard sweep (§3.2).
//!
//! The simulator's `unit_shard_sweep` predicts how much headroom
//! parallelizing the try-commit/commit units buys on a validation-heavy
//! workload. This module measures the same knob on the *real* runtime: a
//! validation-bound Spec-DOALL loop (each iteration scatters writes over
//! many pages, so program-order replay at the try-commit unit dominates)
//! is run at `unit_shards` 1, 2, and 4, and the measured scaling is
//! reported next to the simulator's prediction.
//!
//! The measured side is honest about the runtime: a shard partitions
//! replay state, not threads. Every shard's turn runs on the thread that
//! calls `MtxSystem::run`, one after another, so the measured column
//! shows what sharding costs, not parallel scaling, on any host; the
//! simulated column carries the scaling claim. The artifact records the
//! core count it ran on.

use std::sync::Arc;
use std::time::Duration;

use dsmtx::{IterOutcome, MtxId, MtxSystem, Program, StageKind, SystemConfig, WorkerCtx};
use dsmtx_mem::MasterMem;
use dsmtx_sim::unit_shard_sweep_with;
use dsmtx_uva::{OwnerId, RegionAllocator};

use crate::format::Table;

/// Shard counts the sweep visits.
pub const SWEEP_SHARDS: [usize; 3] = [1, 2, 4];

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardRunPoint {
    /// Configured `unit_shards`.
    pub shards: usize,
    /// Wall-clock time of the parallel section, microseconds.
    pub elapsed_us: u64,
    /// Elapsed at `shards = 1` divided by elapsed at this point.
    pub speedup: f64,
}

/// The full sweep: measured points plus the simulator's prediction for
/// the same knob.
#[derive(Debug, Clone)]
pub struct ShardSweep {
    /// Iterations per run.
    pub iters: u64,
    /// Scattered writes per iteration (the validation load).
    pub writes_per_iter: u64,
    /// Cores available to this process when the sweep ran.
    pub cores: usize,
    /// Real-runtime measurements.
    pub measured: Vec<ShardRunPoint>,
    /// Simulated `(shards, speedup-relative-to-one-shard)` on the
    /// validation-heavy profile, 128 simulated cores.
    pub simulated: Vec<(u32, f64)>,
}

/// Runs the validation-bound DOALL once and returns the parallel-section
/// wall-clock time.
///
/// Three replicas each execute iterations that read one input word and
/// scatter `writes_per_iter` stores column-major across the data region —
/// every iteration touches `writes_per_iter` distinct pages (for
/// `iters >= 512`), so the per-MTX access stream is long and its replay
/// partitions evenly across try-commit shards.
pub fn run_validation_bound(iters: u64, writes_per_iter: u64, shards: usize) -> Duration {
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(iters).expect("alloc");
    let data = heap.alloc_words(iters * writes_per_iter).expect("alloc");
    let mut master = MasterMem::new();
    for i in 0..iters {
        master.write(input.add_words(i), i.wrapping_mul(0x9E37_79B9) | 1);
    }

    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let x = ctx.read(input.add_words(mtx.0))?;
        for k in 0..writes_per_iter {
            // Column-major: write k of iteration i lands on page k (for
            // iters >= one page), spreading each MTX across the page
            // space.
            ctx.write_no_forward(data.add_words(k * iters + mtx.0), x.wrapping_add(k))?;
        }
        Ok(IterOutcome::Continue)
    });
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 3 })
        .unit_shards(shards);
    let result = MtxSystem::new(&cfg)
        .expect("config")
        .run(Program {
            master,
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                let x = m.read(input.add_words(mtx.0));
                for k in 0..writes_per_iter {
                    m.write(data.add_words(k * iters + mtx.0), x.wrapping_add(k));
                }
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(iters),
        })
        .expect("run");
    assert_eq!(result.report.total_iterations(), iters, "lost iterations");
    result.report.elapsed
}

/// Runs the measured sweep and attaches the simulator's prediction.
///
/// Rounds are interleaved — each round visits every shard count
/// back-to-back, and each point keeps its best round — so a load spike
/// on a shared host penalizes all configurations alike instead of
/// skewing whichever block it happened to land on. Single runs on an
/// oversubscribed host vary by 2x+; the per-point minimum is the stable
/// estimate of the true cost.
pub fn run_shard_sweep(iters: u64, writes_per_iter: u64, max_shards: usize) -> ShardSweep {
    let shard_counts: Vec<usize> = SWEEP_SHARDS
        .iter()
        .copied()
        .filter(|&s| s <= max_shards.max(1))
        .collect();
    let mut best_us = vec![u64::MAX; shard_counts.len()];
    for _round in 0..3 {
        for (i, &shards) in shard_counts.iter().enumerate() {
            let t = run_validation_bound(iters, writes_per_iter, shards);
            best_us[i] = best_us[i].min((t.as_micros() as u64).max(1));
        }
    }
    let base_us = best_us[0];
    let measured = shard_counts
        .iter()
        .zip(&best_us)
        .map(|(&shards, &elapsed_us)| ShardRunPoint {
            shards,
            elapsed_us,
            speedup: base_us as f64 / elapsed_us as f64,
        })
        .collect();

    // The simulator's §3.2 prediction on the validation-heavy parser
    // variant (same tweak as the ablation report), normalized to one
    // shard so both columns read as relative scaling. The measured runs
    // above shipped the compacted validation plane, so the model gets the
    // measured compaction factor too.
    let profile = crate::valplane::validation_heavy_profile();
    let vc = crate::valplane::measured_compaction_factor();
    let sim_shards: Vec<u32> = shard_counts.iter().map(|&s| s as u32).collect();
    let pts = unit_shard_sweep_with(&profile, 128, &sim_shards, vc);
    let sim_base = pts.first().map_or(1.0, |p| p.speedup);
    let simulated = pts
        .iter()
        .map(|p| (p.shards, p.speedup / sim_base))
        .collect();

    ShardSweep {
        iters,
        writes_per_iter,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        measured,
        simulated,
    }
}

/// Renders the sweep as a text table for the `repro` binary.
pub fn shard_sweep_text(s: &ShardSweep) -> String {
    let mut t = Table::new(vec![
        "unit shards",
        "elapsed (us)",
        "measured x",
        "simulated x",
    ]);
    for (i, p) in s.measured.iter().enumerate() {
        let sim = s.simulated.get(i).map_or(1.0, |&(_, x)| x);
        t.row(vec![
            p.shards.to_string(),
            p.elapsed_us.to_string(),
            format!("{:.2}", p.speedup),
            format!("{:.2}", sim),
        ]);
    }
    format!(
        "Real-runtime speculation-unit shard sweep (§3.2)\n\
         validation-bound DOALL: {} iters x {} scattered writes, {} core(s)\n\
         (the shards' turns run one after another on the calling thread, so\n\
         the measured column shows what sharding costs, not parallel scaling;\n\
         the simulated column is the 128-core prediction, both normalized to\n\
         1 shard)\n\n{}",
        s.iters,
        s.writes_per_iter,
        s.cores,
        t.render()
    )
}

/// Serializes the sweep as the `BENCH_shard_sweep.json` artifact.
pub fn shard_sweep_json(s: &ShardSweep) -> String {
    let measured: Vec<String> = s
        .measured
        .iter()
        .map(|p| {
            format!(
                r#"{{"shards":{},"elapsed_us":{},"speedup":{:.4}}}"#,
                p.shards, p.elapsed_us, p.speedup
            )
        })
        .collect();
    let simulated: Vec<String> = s
        .simulated
        .iter()
        .map(|&(shards, x)| format!(r#"{{"shards":{shards},"speedup":{x:.4}}}"#))
        .collect();
    format!(
        concat!(
            r#"{{"bench":"shard_sweep","workload":"validation_bound_doall","#,
            r#""iters":{},"writes_per_iter":{},"cores":{},"#,
            r#""measured":[{}],"simulated":[{}]}}"#
        ),
        s.iters,
        s.writes_per_iter,
        s.cores,
        measured.join(","),
        simulated.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_bound_run_completes_at_every_shard_count() {
        for shards in SWEEP_SHARDS {
            let elapsed = run_validation_bound(64, 8, shards);
            assert!(elapsed.as_nanos() > 0);
        }
    }

    #[test]
    fn sweep_json_is_valid_and_complete() {
        let sweep = run_shard_sweep(64, 8, 4);
        assert_eq!(sweep.measured.len(), 3);
        assert_eq!(sweep.simulated.len(), 3);
        assert!(sweep.cores >= 1);
        assert!((sweep.measured[0].speedup - 1.0).abs() < 1e-9);
        assert!((sweep.simulated[0].1 - 1.0).abs() < 1e-9);
        // The simulator must predict headroom from sharding on the
        // validation-heavy profile.
        assert!(
            sweep.simulated[2].1 > 1.0,
            "sim predicts {:.2}x at 4 shards",
            sweep.simulated[2].1
        );

        let json = shard_sweep_json(&sweep);
        dsmtx_obs::json::validate(&json).expect("valid JSON artifact");
        assert!(json.contains(r#""bench":"shard_sweep""#));
        assert!(json.contains(r#""measured":"#));
        assert!(json.contains(r#""simulated":"#));

        let text = shard_sweep_text(&sweep);
        assert!(text.contains("shard sweep"));
        assert!(text.contains("unit shards"));
    }
}

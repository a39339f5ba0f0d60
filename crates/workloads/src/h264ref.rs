//! `464.h264ref` — SPEC CINT2006 video encoder.
//!
//! Paper plan: `Spec-DSWP+[DOALL, S]`: Groups of Pictures (GoPs) encode in
//! parallel; dynamic memory versioning breaks the false dependences on the
//! frame buffers. The synchronized dependence (rate control) sits inside
//! an inner loop, which effectively serializes TLS; Spec-DSWP moves that
//! dependence cycle into its own stage. Speedup is limited primarily by
//! the number of GoPs available (§5.2).
//!
//! Kernel: each iteration encodes one GoP — per frame, a
//! motion-search-flavoured sum of absolute differences against the
//! previous frame, computed in a *worker-private* reconstruction buffer
//! (the versioned frame arrays). The sequential stage runs rate control:
//! the bitstream size of a GoP depends on the rate state left by the
//! previous GoP.

use std::sync::Arc;

use dsmtx::{
    IterOutcome, MtxId, RecoveryFn, Region, RunResult, StageId, StageRole, StageSpec, WorkerCtx,
};
use dsmtx_mem::MasterMem;
use dsmtx_paradigms::paradigm::StageLabel;
use dsmtx_paradigms::{Paradigm, Pipeline, SpecKind};
use dsmtx_sim::{
    profile::{StageProfile, StageShape},
    TlsPlan, WorkloadProfile,
};
use dsmtx_uva::VAddr;

use crate::analysis::AnalysisPlan;
use crate::common::{
    load_words, master_heap, store_words, Kernel, KernelError, Mode, Scale, Stream, Table2Entry,
};

/// Frames per GoP.
pub const FRAMES: u64 = 4;
/// Motion-search offsets examined per pixel.
const SEARCH: u64 = 3;

/// The h264ref kernel.
#[derive(Debug, Default)]
pub struct H264Ref;

/// Encodes one GoP (pixel data for FRAMES frames of `px` pixels each),
/// returning its raw cost.
pub(crate) fn encode_gop(gop: &[u64], px: u64) -> u64 {
    let mut reference = vec![128u64; px as usize]; // flat I-frame predictor
    let mut cost = 0u64;
    for f in 0..FRAMES {
        let frame = &gop[(f * px) as usize..((f + 1) * px) as usize];
        for (i, &p) in frame.iter().enumerate() {
            let mut best = u64::MAX;
            for s in 0..SEARCH {
                let j = (i + s as usize) % px as usize;
                let diff = p.abs_diff(reference[j]);
                best = best.min(diff);
            }
            cost = cost.wrapping_add(best).rotate_left(1);
        }
        reference.copy_from_slice(frame); // versioned reconstruction buffer
    }
    cost
}

/// Rate control: bitstream size of a GoP given the carried rate state.
/// Returns `(size, new_state)`.
pub(crate) fn rate_control(cost: u64, state: u64) -> (u64, u64) {
    let size = (cost % 10_000).wrapping_add(state % 997);
    let new_state = state.wrapping_mul(31).wrapping_add(cost).rotate_left(7);
    (size, new_state)
}

fn generate(scale: Scale) -> Vec<u64> {
    let mut s = Stream::new(scale.seed ^ 0x464);
    (0..scale.iterations * FRAMES * scale.unit)
        .map(|_| s.below(256))
        .collect()
}

/// Shared layout of the parallel runs. Allocation order is fixed, so
/// rebuilding it always yields the same bases — `plan()` and the runners
/// agree on addresses.
struct Layout {
    g_base: VAddr,
    out_base: VAddr,
    state_cell: VAddr,
}

fn layout(scale: Scale) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let gop_words = FRAMES * scale.unit;
    let mut heap = master_heap();
    let g_base = heap
        .alloc_words(n * gop_words)
        .map_err(|e| KernelError(e.to_string()))?;
    let out_base = heap
        .alloc_words(n)
        .map_err(|e| KernelError(e.to_string()))?;
    let state_cell = heap
        .alloc_words(1)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout {
        g_base,
        out_base,
        state_cell,
    })
}

fn initial_master(gops: &[u64], lay: &Layout) -> MasterMem {
    let mut master = MasterMem::new();
    store_words(&mut master, lay.g_base, gops);
    master
}

fn recovery_fn(lay: &Layout, scale: Scale) -> RecoveryFn {
    let (g_base, out_base, state_cell) = (lay.g_base, lay.out_base, lay.state_cell);
    let px = scale.unit;
    let gop_words = FRAMES * px;
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let gop = load_words(master, g_base.add_words(mtx.0 * gop_words), gop_words);
        let cost = encode_gop(&gop, px);
        let state = master.read(state_cell);
        let (size, new_state) = rate_control(cost, state);
        master.write(out_base.add_words(mtx.0), size);
        master.write(state_cell, new_state);
        IterOutcome::Continue
    })
}

impl H264Ref {
    fn sequential(gops: &[u64], scale: Scale) -> Vec<u64> {
        let px = scale.unit;
        let gop_words = FRAMES * px;
        let mut state = 0u64;
        let mut out = Vec::with_capacity(scale.iterations as usize + 1);
        for i in 0..scale.iterations {
            let gop = &gops[(i * gop_words) as usize..((i + 1) * gop_words) as usize];
            let cost = encode_gop(gop, px);
            let (size, new_state) = rate_control(cost, state);
            out.push(size);
            state = new_state;
        }
        out.push(state);
        out
    }

    /// The parallel paths, at an explicit try-commit shard count,
    /// returning the full run result.
    fn result_generated(
        &self,
        mode: Mode,
        shards: usize,
        scale: Scale,
    ) -> Result<RunResult, KernelError> {
        let gops = generate(scale);
        let n = scale.iterations;
        let px = scale.unit;
        let gop_words = FRAMES * px;
        let lay = layout(scale)?;
        let master = initial_master(&gops, &lay);
        let (g_base, out_base, state_cell) = (lay.g_base, lay.out_base, lay.state_cell);
        let recovery = recovery_fn(&lay, scale);

        let encode_iter = move |ctx: &mut WorkerCtx, i: u64| -> Result<u64, dsmtx::Interrupt> {
            // The versioned reconstruction buffer lives in the worker's
            // own UVA region (memory versioning).
            let scratch = ctx.heap().alloc_words(px).expect("worker scratch");
            for k in 0..px {
                ctx.write_private(scratch.add_words(k), 128)?;
            }
            let mut cost = 0u64;
            for f in 0..FRAMES {
                let mut frame = Vec::with_capacity(px as usize);
                for k in 0..px {
                    frame.push(ctx.read_private(g_base.add_words(i * gop_words + f * px + k))?);
                }
                for (idx, &p) in frame.iter().enumerate() {
                    let mut best = u64::MAX;
                    for s in 0..SEARCH {
                        let j = ((idx + s as usize) % px as usize) as u64;
                        let r = ctx.read_private(scratch.add_words(j))?;
                        best = best.min(p.abs_diff(r));
                    }
                    cost = cost.wrapping_add(best).rotate_left(1);
                }
                for (k, &p) in frame.iter().enumerate() {
                    ctx.write_private(scratch.add_words(k as u64), p)?;
                }
            }
            ctx.heap().free(scratch).expect("scratch freed");
            Ok(cost)
        };

        let pipeline = match mode {
            Mode::Dsmtx { workers } => {
                let encode = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let cost = encode_iter(ctx, mtx.0)?;
                    ctx.produce_to(StageId(1), cost);
                    Ok(IterOutcome::Continue)
                });
                // The rate-control dependence cycle lives in its own
                // sequential stage.
                let rate = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let cost = ctx.consume_from(StageId(0));
                    let state = ctx.read(state_cell)?;
                    let (size, new_state) = rate_control(cost, state);
                    ctx.write_no_forward(out_base.add_words(mtx.0), size)?;
                    ctx.write(state_cell, new_state)?;
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new().par(workers.max(1), encode).seq(rate)
            }
            Mode::Tls { workers } => {
                // TLS: rate control is synchronized inside the iteration —
                // the whole transaction waits on the ring value.
                let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let synced = ctx.sync_take().next();
                    let state = match synced {
                        Some(v) => v,
                        None => ctx.read(state_cell)?,
                    };
                    let cost = encode_iter(ctx, mtx.0)?;
                    let (size, new_state) = rate_control(cost, state);
                    ctx.write_no_forward(out_base.add_words(mtx.0), size)?;
                    ctx.write_no_forward(state_cell, new_state)?;
                    ctx.sync_produce(new_state);
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new().par(workers.max(1), body).ring()
            }
            Mode::Sequential => unreachable!("parallel paths only"),
        };
        Ok(pipeline.shards(shards).run(master, recovery, Some(n))?)
    }
}

impl Kernel for H264Ref {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "464.h264ref",
            suite: "SPEC CINT 2006",
            description: "video encoder",
            paradigm: Paradigm::SpecDswp {
                stages: vec![StageLabel::Doall, StageLabel::S],
            },
            speculation: vec![SpecKind::MemoryVersioning],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "464.h264ref".into(),
            // The number of GoPs in the input bounds the parallelism.
            iter_work: 90.0e-3,
            iterations: 80,
            coverage: 0.99,
            stages: vec![
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.995,
                    bytes_out: 64.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.005,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 12.0,
            tls: TlsPlan {
                // The inner-loop synchronized dependence serializes TLS.
                sync_fraction: 0.9,
                bytes_per_iter: 64.0,
                validation_words: 12.0,
            },
            chunked: false,
            invocation: None,
        }
    }

    fn reference(&self, scale: Scale) -> Vec<u64> {
        Self::sequential(&generate(scale), scale)
    }

    fn parallel(
        &self,
        mode: Mode,
        unit_shards: usize,
        scale: Scale,
    ) -> Result<RunResult, KernelError> {
        self.result_generated(mode, unit_shards, scale)
    }

    fn output(&self, master: &MasterMem, scale: Scale) -> Result<Vec<u64>, KernelError> {
        let lay = layout(scale)?;
        let mut out = load_words(master, lay.out_base, scale.iterations);
        out.push(master.read(lay.state_cell));
        Ok(out)
    }

    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        let lay = layout(scale)?;
        let master = initial_master(&generate(scale), &lay);
        let recovery = recovery_fn(&lay, scale);
        let (g_base, out_base, state_cell) = (lay.g_base, lay.out_base, lay.state_cell);
        let gop_words = FRAMES * scale.unit;
        Ok(AnalysisPlan {
            name: "464.h264ref",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![
                // The reconstruction buffer is worker-private (memory
                // versioning), so only the GoP pixels are committed state.
                StageSpec::new(
                    "encode",
                    StageRole::Parallel,
                    Box::new(move |mtx| {
                        vec![Region::read(
                            "gops",
                            g_base.add_words(mtx * gop_words),
                            gop_words,
                        )]
                    }),
                ),
                // Rate control carries its state in the sequential stage.
                StageSpec::new(
                    "rate",
                    StageRole::Sequential,
                    Box::new(move |mtx| {
                        vec![
                            Region::write("out", out_base.add_words(mtx), 1),
                            Region::read_write("rate_state", state_cell, 1),
                        ]
                    }),
                ),
            ],
            shard_map: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_agree() {
        let k = H264Ref;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 3 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 2 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
    }

    #[test]
    fn rate_state_chains_across_gops() {
        // Same cost twice gives different sizes because the state moved.
        let (s1, st1) = rate_control(1000, 0);
        let (s2, _) = rate_control(1000, st1);
        assert_ne!(s1, s2);
    }

    #[test]
    fn perfectly_predicted_video_costs_zero() {
        let px = 16;
        // Every frame equals the flat predictor: all residuals are zero.
        let static_gop = vec![128u64; (FRAMES * px) as usize];
        assert_eq!(encode_gop(&static_gop, px), 0);
        // Any busy scene costs something.
        let mut moving_gop = static_gop;
        for (i, p) in moving_gop.iter_mut().enumerate() {
            *p = (i as u64 * 37) % 256;
        }
        assert_ne!(encode_gop(&moving_gop, px), 0);
    }

    #[test]
    fn profile_is_consistent() {
        H264Ref.profile().check();
    }
}

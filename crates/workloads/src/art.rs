//! `179.art` — SPEC CFP2000 image recognition (Adaptive Resonance Theory).
//!
//! Paper plan: `Spec-DSWP+[S, DOALL, S]`. Iteration execution times are
//! highly unbalanced because the inner loops' trip counts vary, so the
//! first stage distributes work by queue occupancy; TLS's round-trip
//! communication makes its speedup grow slower than Spec-DSWP (§5.2).
//! This reproduction's runtime distributes round-robin (occupancy-based
//! dispatch is future work); the imbalance itself is faithfully present.
//!
//! Kernel: each iteration matches one image window against a template
//! bank; the refinement loop's trip count is data-dependent and varies by
//! an order of magnitude. A sequential stage tracks the global best
//! match.

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

/// Maximum refinement iterations (the imbalance knob).
const MAX_TRIPS: u64 = 24;

/// The art kernel.
#[derive(Debug, Default)]
pub struct Art;

/// Data-dependent refinement trip count for a window.
pub(crate) fn trips(window: &[u64]) -> u64 {
    1 + window.first().copied().unwrap_or(0) % MAX_TRIPS
}

/// Matches one window: iterative refinement whose length varies per
/// window. Returns the match score.
pub(crate) fn match_window(window: &[u64]) -> u64 {
    let t = trips(window);
    let mut acc = 0x9E37_79B9u64;
    for round in 0..t {
        for &px in window {
            acc = acc
                .rotate_left(((px % 13) + round) as u32 % 63)
                .wrapping_add(px.wrapping_mul(round * 2 + 1));
        }
    }
    acc
}

fn generate(scale: Scale) -> Vec<u64> {
    let mut s = Stream::new(scale.seed ^ 0x179);
    (0..scale.iterations * scale.unit)
        .map(|_| s.below(251))
        .collect()
}

/// Folds a score into the `[best_score, best_index]` state.
fn fold_best(state: &mut [u64], score: u64, index: u64) {
    if score > state[0] {
        state[0] = score;
        state[1] = index;
    }
}

/// Shared layout of the parallel runs. Allocation order is fixed, so
/// rebuilding it always yields the same bases — `plan()` and the runners
/// agree on addresses.
struct Layout {
    w_base: VAddr,
    out_base: VAddr,
    best_base: VAddr,
}

fn layout(scale: Scale) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let mut heap = master_heap();
    let w_base = heap
        .alloc_words(n * scale.unit)
        .map_err(|e| KernelError(e.to_string()))?;
    let out_base = heap
        .alloc_words(n)
        .map_err(|e| KernelError(e.to_string()))?;
    let best_base = heap
        .alloc_words(2)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout {
        w_base,
        out_base,
        best_base,
    })
}

fn initial_master(windows: &[u64], lay: &Layout) -> MasterMem {
    let mut master = MasterMem::new();
    store_words(&mut master, lay.w_base, windows);
    master
}

fn recovery_fn(lay: &Layout, scale: Scale) -> RecoveryFn {
    let (w_base, out_base, best_base) = (lay.w_base, lay.out_base, lay.best_base);
    let unit = scale.unit;
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let window = load_words(master, w_base.add_words(mtx.0 * unit), unit);
        let score = match_window(&window);
        master.write(out_base.add_words(mtx.0), score);
        let mut best = [master.read(best_base), master.read(best_base.add_words(1))];
        fold_best(&mut best, score, mtx.0);
        master.write(best_base, best[0]);
        master.write(best_base.add_words(1), best[1]);
        IterOutcome::Continue
    })
}

impl Art {
    fn sequential(windows: &[u64], scale: Scale) -> Vec<u64> {
        let mut best = [0u64, 0u64];
        let mut out = Vec::with_capacity(scale.iterations as usize + 2);
        for i in 0..scale.iterations {
            let w = &windows[(i * scale.unit) as usize..((i + 1) * scale.unit) as usize];
            let score = match_window(w);
            out.push(score);
            fold_best(&mut best, score, i);
        }
        out.extend_from_slice(&best);
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
        let windows = generate(scale);
        let n = scale.iterations;
        let unit = scale.unit;
        let lay = layout(scale)?;
        let master = initial_master(&windows, &lay);
        let (w_base, out_base, best_base) = (lay.w_base, lay.out_base, lay.best_base);
        let recovery = recovery_fn(&lay, scale);

        let compute_score = move |ctx: &mut WorkerCtx, i: u64| -> Result<u64, dsmtx::Interrupt> {
            let window: Vec<u64> = (0..unit)
                .map(|k| ctx.read_private(w_base.add_words(i * unit + k)))
                .collect::<Result<_, _>>()?;
            Ok(match_window(&window))
        };

        let pipeline = match mode {
            Mode::Dsmtx { workers } => {
                let dispatch = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    ctx.produce_to(StageId(1), mtx.0);
                    Ok(IterOutcome::Continue)
                });
                let matcher = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| {
                    let i = ctx.consume_from(StageId(0));
                    let score = compute_score(ctx, i)?;
                    ctx.produce_to(StageId(2), score);
                    Ok(IterOutcome::Continue)
                });
                let reduce = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let score = ctx.consume_from(StageId(1));
                    ctx.write_no_forward(out_base.add_words(mtx.0), score)?;
                    let best0 = ctx.read(best_base)?;
                    if score > best0 {
                        ctx.write_no_forward(best_base, score)?;
                        ctx.write_no_forward(best_base.add_words(1), mtx.0)?;
                    }
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new()
                    .seq(dispatch)
                    .par(workers.max(1), matcher)
                    .seq(reduce)
            }
            Mode::Tls { workers } => {
                let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let score = compute_score(ctx, mtx.0)?;
                    ctx.write_no_forward(out_base.add_words(mtx.0), score)?;
                    let incoming: Vec<u64> = ctx.sync_take().collect();
                    let mut best = if incoming.len() == 2 {
                        [incoming[0], incoming[1]]
                    } else {
                        [ctx.read(best_base)?, ctx.read(best_base.add_words(1))?]
                    };
                    fold_best(&mut best, score, mtx.0);
                    ctx.write_no_forward(best_base, best[0])?;
                    ctx.write_no_forward(best_base.add_words(1), best[1])?;
                    ctx.sync_produce(best[0]);
                    ctx.sync_produce(best[1]);
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new().par(workers.max(1), body).ring()
            }
            Mode::Sequential => unreachable!("parallel paths only"),
        };
        Ok(pipeline.shards(shards).run(master, recovery, Some(n))?)
    }
}

impl Kernel for Art {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "179.art",
            suite: "SPEC CFP 2000",
            description: "image recognition",
            paradigm: Paradigm::SpecDswp {
                stages: vec![StageLabel::S, StageLabel::Doall, StageLabel::S],
            },
            speculation: vec![SpecKind::MemoryVersioning],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "179.art".into(),
            iter_work: 3.0e-3,
            iterations: 6000,
            coverage: 0.99,
            stages: vec![
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.01,
                    bytes_out: 4_096.0,
                },
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.98,
                    bytes_out: 16.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.01,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 24.0,
            tls: TlsPlan {
                // The round-trip for the best-match state slows TLS as
                // cores (and hence latency) grow.
                sync_fraction: 0.035,
                bytes_per_iter: 256.0,
                validation_words: 24.0,
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
        out.push(master.read(lay.best_base));
        out.push(master.read(lay.best_base.add_words(1)));
        Ok(out)
    }

    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        let lay = layout(scale)?;
        let master = initial_master(&generate(scale), &lay);
        let recovery = recovery_fn(&lay, scale);
        let (w_base, out_base, best_base) = (lay.w_base, lay.out_base, lay.best_base);
        let unit = scale.unit;
        Ok(AnalysisPlan {
            name: "179.art",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![
                // The dispatcher only ships the window index; no
                // committed-state footprint.
                StageSpec::new("dispatch", StageRole::Sequential, Box::new(|_| Vec::new())),
                StageSpec::new(
                    "matcher",
                    StageRole::Parallel,
                    Box::new(move |mtx| {
                        vec![Region::read("windows", w_base.add_words(mtx * unit), unit)]
                    }),
                ),
                // The best-match fold is a carried dependence kept inside
                // the sequential reduce stage.
                StageSpec::new(
                    "reduce",
                    StageRole::Sequential,
                    Box::new(move |mtx| {
                        vec![
                            Region::write("out", out_base.add_words(mtx), 1),
                            Region::read_write("best", best_base, 2),
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
        let k = Art;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 3 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 2 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
    }

    #[test]
    fn trip_counts_really_vary() {
        let windows = generate(Scale::test());
        let scale = Scale::test();
        let counts: std::collections::HashSet<u64> = (0..scale.iterations)
            .map(|i| trips(&windows[(i * scale.unit) as usize..((i + 1) * scale.unit) as usize]))
            .collect();
        assert!(counts.len() > 1, "imbalance requires varying trip counts");
    }

    #[test]
    fn best_match_is_argmax() {
        let k = Art;
        let scale = Scale::test();
        let out = k.run(Mode::Sequential, scale).unwrap();
        let scores = &out[..scale.iterations as usize];
        let best_score = out[scale.iterations as usize];
        let best_index = out[scale.iterations as usize + 1];
        assert_eq!(best_score, *scores.iter().max().unwrap());
        assert_eq!(scores[best_index as usize], best_score);
    }

    #[test]
    fn profile_is_consistent() {
        Art.profile().check();
    }
}

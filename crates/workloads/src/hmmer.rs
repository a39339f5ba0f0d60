//! `456.hmmer` — SPEC CINT2006 gene sequence database search.
//!
//! Paper plan: `Spec-DSWP+[DOALL, S]`: the first (parallel) stage scores
//! sequences against the profile HMM; the second (sequential) stage
//! histograms the scores with a max-reduction. Spec-DSWP scales further
//! than TLS because TLS's cyclic dependence (the histogram/max state)
//! puts inter-thread latency on the critical path at high core counts
//! (§5.2).
//!
//! Kernel: a Viterbi-flavoured dynamic program scores each sequence
//! against a fixed profile; the reduction stage maintains an 8-bucket
//! histogram and the maximum score. The TLS baseline forwards the whole
//! reduction state around the replica ring every iteration.

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

/// Number of HMM states in the profile.
pub const STATES: usize = 12;
/// Histogram buckets.
pub const BUCKETS: u64 = 8;
/// Words in the generated profile matrix.
const P_LEN: u64 = 64;

/// The hmmer kernel.
#[derive(Debug, Default)]
pub struct Hmmer;

/// Scores one sequence against the profile with a banded DP.
pub(crate) fn score(profile: &[u64], seq: &[u64]) -> u64 {
    let mut dp = [0i64; STATES];
    for &tok in seq {
        let mut next = [i64::MIN / 2; STATES];
        for s in 0..STATES {
            let emit = (profile[(s as u64 * 31 + tok) as usize % profile.len()] % 17) as i64 - 6;
            let stay = dp[s];
            let step = if s > 0 { dp[s - 1] } else { 0 };
            next[s] = stay.max(step) + emit;
        }
        dp = next;
    }
    let best = dp.iter().copied().max().unwrap_or(0).max(0);
    best as u64
}

fn generate(scale: Scale) -> (Vec<u64>, Vec<u64>) {
    let mut s = Stream::new(scale.seed ^ 0x44);
    let profile: Vec<u64> = (0..P_LEN).map(|_| s.next() % 97).collect();
    let seqs: Vec<u64> = (0..scale.iterations * scale.unit)
        .map(|_| s.below(23))
        .collect();
    (profile, seqs)
}

/// Output layout: `[hist[0..BUCKETS], max_score]`.
fn fold(hist_max: &mut [u64], sc: u64) {
    hist_max[(sc % BUCKETS) as usize] += 1;
    if sc > hist_max[BUCKETS as usize] {
        hist_max[BUCKETS as usize] = sc;
    }
}

/// Shared layout of the parallel runs. Allocation order is fixed, so
/// rebuilding it always yields the same bases — `plan()` and the runners
/// agree on addresses.
struct Layout {
    p_base: VAddr,
    s_base: VAddr,
    h_base: VAddr,
}

fn layout(scale: Scale) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let mut heap = master_heap();
    let p_base = heap
        .alloc_words(P_LEN)
        .map_err(|e| KernelError(e.to_string()))?;
    let s_base = heap
        .alloc_words(n * scale.unit)
        .map_err(|e| KernelError(e.to_string()))?;
    let h_base = heap
        .alloc_words(BUCKETS + 1)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout {
        p_base,
        s_base,
        h_base,
    })
}

fn initial_master(profile: &[u64], seqs: &[u64], lay: &Layout) -> MasterMem {
    let mut master = MasterMem::new();
    store_words(&mut master, lay.p_base, profile);
    store_words(&mut master, lay.s_base, seqs);
    master
}

fn recovery_fn(lay: &Layout, scale: Scale) -> RecoveryFn {
    let (p_base, s_base, h_base) = (lay.p_base, lay.s_base, lay.h_base);
    let unit = scale.unit;
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let prof = load_words(master, p_base, P_LEN);
        let seq = load_words(master, s_base.add_words(mtx.0 * unit), unit);
        let sc = score(&prof, &seq);
        let mut state = load_words(master, h_base, BUCKETS + 1);
        fold(&mut state, sc);
        store_words(master, h_base, &state);
        IterOutcome::Continue
    })
}

impl Hmmer {
    fn sequential(profile: &[u64], seqs: &[u64], scale: Scale) -> Vec<u64> {
        let mut out = vec![0u64; BUCKETS as usize + 1];
        for i in 0..scale.iterations {
            let seq = &seqs[(i * scale.unit) as usize..((i + 1) * scale.unit) as usize];
            fold(&mut out, score(profile, seq));
        }
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
        let (profile, seqs) = generate(scale);
        let n = scale.iterations;
        let unit = scale.unit;
        let lay = layout(scale)?;
        let master = initial_master(&profile, &seqs, &lay);
        let (p_base, s_base, h_base) = (lay.p_base, lay.s_base, lay.h_base);
        let recovery = recovery_fn(&lay, scale);

        let load_score = move |ctx: &mut WorkerCtx, i: u64| -> Result<u64, dsmtx::Interrupt> {
            // The profile matrix and the sequence database are read-only
            // after loop entry (COA distributes them page by page).
            let prof: Vec<u64> = (0..P_LEN)
                .map(|k| ctx.read_private(p_base.add_words(k)))
                .collect::<Result<_, _>>()?;
            let seq: Vec<u64> = (0..unit)
                .map(|k| ctx.read_private(s_base.add_words(i * unit + k)))
                .collect::<Result<_, _>>()?;
            Ok(score(&prof, &seq))
        };

        let pipeline = match mode {
            Mode::Dsmtx { workers } => {
                let compute = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let sc = load_score(ctx, mtx.0)?;
                    ctx.produce_to(StageId(1), sc);
                    Ok(IterOutcome::Continue)
                });
                let reduce = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| {
                    let sc = ctx.consume_from(StageId(0));
                    let bucket = h_base.add_words(sc % BUCKETS);
                    let cur = ctx.read(bucket)?;
                    ctx.write_no_forward(bucket, cur + 1)?;
                    let max_cell = h_base.add_words(BUCKETS);
                    let max = ctx.read(max_cell)?;
                    if sc > max {
                        ctx.write_no_forward(max_cell, sc)?;
                    }
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new().par(workers.max(1), compute).seq(reduce)
            }
            Mode::Tls { workers } => {
                // TLS forwards the entire reduction state on the ring —
                // the cyclic pattern that caps its scalability.
                let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let sc = load_score(ctx, mtx.0)?;
                    let incoming: Vec<u64> = ctx.sync_take().collect();
                    let mut state = if incoming.len() == (BUCKETS + 1) as usize {
                        incoming
                    } else {
                        (0..=BUCKETS)
                            .map(|k| ctx.read(h_base.add_words(k)))
                            .collect::<Result<_, _>>()?
                    };
                    fold(&mut state, sc);
                    for (k, &v) in state.iter().enumerate() {
                        ctx.write_no_forward(h_base.add_words(k as u64), v)?;
                        ctx.sync_produce(v);
                    }
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new().par(workers.max(1), body).ring()
            }
            Mode::Sequential => unreachable!("parallel paths only"),
        };
        Ok(pipeline.shards(shards).run(master, recovery, Some(n))?)
    }
}

impl Kernel for Hmmer {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "456.hmmer",
            suite: "SPEC CINT 2006",
            description: "gene sequence database search",
            paradigm: Paradigm::SpecDswp {
                stages: vec![StageLabel::Doall, StageLabel::S],
            },
            speculation: vec![SpecKind::MemoryVersioning],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "456.hmmer".into(),
            iter_work: 2.0e-3,
            iterations: 20_000,
            coverage: 0.995,
            stages: vec![
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.995,
                    bytes_out: 8.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.005,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 12.0,
            tls: TlsPlan {
                // The whole reduction state rides the ring.
                sync_fraction: 0.012,
                bytes_per_iter: 72.0,
                validation_words: 12.0,
            },
            chunked: false,
            invocation: None,
        }
    }

    fn reference(&self, scale: Scale) -> Vec<u64> {
        let (profile, seqs) = generate(scale);
        Self::sequential(&profile, &seqs, scale)
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
        Ok(load_words(master, layout(scale)?.h_base, BUCKETS + 1))
    }

    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        let lay = layout(scale)?;
        let (profile, seqs) = generate(scale);
        let master = initial_master(&profile, &seqs, &lay);
        let recovery = recovery_fn(&lay, scale);
        let (p_base, s_base, h_base) = (lay.p_base, lay.s_base, lay.h_base);
        let unit = scale.unit;
        Ok(AnalysisPlan {
            name: "456.hmmer",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![
                StageSpec::new(
                    "compute",
                    StageRole::Parallel,
                    Box::new(move |mtx| {
                        vec![
                            Region::read("profile", p_base, P_LEN),
                            Region::read("seqs", s_base.add_words(mtx * unit), unit),
                        ]
                    }),
                ),
                // The histogram/max fold is the cyclic dependence kept in
                // the sequential reduce stage.
                StageSpec::new(
                    "reduce",
                    StageRole::Sequential,
                    Box::new(move |_| vec![Region::read_write("hist", h_base, BUCKETS + 1)]),
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
        let k = Hmmer;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 3 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 3 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
    }

    #[test]
    fn histogram_counts_every_sequence() {
        let k = Hmmer;
        let scale = Scale::test();
        let out = k.run(Mode::Sequential, scale).unwrap();
        let total: u64 = out[..BUCKETS as usize].iter().sum();
        assert_eq!(total, scale.iterations);
    }

    #[test]
    fn score_is_monotone_in_sequence_length() {
        let (profile, _) = generate(Scale::test());
        let short = score(&profile, &[1, 2]);
        let long = score(&profile, &[1, 2, 1, 2, 1, 2, 1, 2]);
        // Longer sequences can only accumulate more (scores clamp at 0).
        assert!(long >= short || short == 0);
    }

    #[test]
    fn max_is_at_least_every_bucketed_score() {
        let k = Hmmer;
        let out = k.run(Mode::Sequential, Scale::test()).unwrap();
        let max = out[BUCKETS as usize];
        let (profile, seqs) = generate(Scale::test());
        let scale = Scale::test();
        for i in 0..scale.iterations {
            let seq = &seqs[(i * scale.unit) as usize..((i + 1) * scale.unit) as usize];
            assert!(score(&profile, seq) <= max);
        }
    }

    #[test]
    fn profile_is_consistent() {
        Hmmer.profile().check();
    }
}

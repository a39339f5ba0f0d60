//! `052.alvinn` — SPEC CFP92 neural network training.
//!
//! Paper plan: `Spec-DOALL` over the second-level loop of a nest. Every
//! invocation re-initializes the workers with data from the commit unit
//! and ends with a reduction over many arrays, and those per-invocation
//! synchronizations limit the speedup (§5.2). The DSMTX and TLS
//! parallelizations are identical.
//!
//! Kernel: a tiny two-layer perceptron trained by epoch. Each epoch
//! (invocation) runs a Spec-DOALL loop over the training samples: every
//! iteration does the forward pass and writes its gradient contribution to
//! a private slot (memory versioning keeps the slots independent). The
//! sequential inter-invocation code — the commit unit's role — reduces
//! the gradients and updates the weights, seeding the next epoch.

use std::sync::Arc;

use dsmtx::{
    IterOutcome, MtxId, RecoveryFn, Region, RunResult, StageFn, StageRole, StageSpec, WorkerCtx,
};
use dsmtx_mem::MasterMem;
use dsmtx_paradigms::{Paradigm, Pipeline, SpecKind};
use dsmtx_sim::{
    profile::{StageProfile, StageShape},
    InvocationProfile, TlsPlan, WorkloadProfile,
};

use dsmtx_uva::VAddr;

use crate::analysis::AnalysisPlan;
use crate::common::{
    f2w, load_words, master_heap, profiled_shard_map, shard_map_for, store_words, w2f, Kernel,
    KernelError, Mode, Scale, Stream, Table2Entry,
};

/// Input neurons.
pub const IN: u64 = 6;
/// Hidden neurons.
pub const HID: u64 = 4;
/// Output neurons.
pub const OUT: u64 = 2;
/// Training epochs (loop-nest invocations).
pub const EPOCHS: u64 = 3;
/// Learning rate.
const ETA: f64 = 0.05;

const W1_WORDS: u64 = IN * HID;
const W2_WORDS: u64 = HID * OUT;
const GRAD_WORDS: u64 = W1_WORDS + W2_WORDS;
const SAMPLE_WORDS: u64 = IN + OUT;

/// The alvinn kernel.
#[derive(Debug, Default)]
pub struct Alvinn;

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Forward + backward pass for one sample; returns the gradient
/// contribution (concatenated ∂W1, ∂W2).
fn gradient(w1: &[f64], w2: &[f64], sample: &[f64]) -> Vec<f64> {
    let input = &sample[..IN as usize];
    let target = &sample[IN as usize..];
    // Forward.
    let mut hidden = [0.0f64; HID as usize];
    for h in 0..HID as usize {
        let mut acc = 0.0;
        for i in 0..IN as usize {
            acc += w1[i * HID as usize + h] * input[i];
        }
        hidden[h] = sigmoid(acc);
    }
    let mut output = [0.0f64; OUT as usize];
    for o in 0..OUT as usize {
        let mut acc = 0.0;
        for h in 0..HID as usize {
            acc += w2[h * OUT as usize + o] * hidden[h];
        }
        output[o] = sigmoid(acc);
    }
    // Backward.
    let mut delta_out = [0.0f64; OUT as usize];
    for o in 0..OUT as usize {
        delta_out[o] = (target[o] - output[o]) * output[o] * (1.0 - output[o]);
    }
    let mut delta_hid = [0.0f64; HID as usize];
    for h in 0..HID as usize {
        let mut acc = 0.0;
        for o in 0..OUT as usize {
            acc += delta_out[o] * w2[h * OUT as usize + o];
        }
        delta_hid[h] = acc * hidden[h] * (1.0 - hidden[h]);
    }
    let mut grad = vec![0.0f64; GRAD_WORDS as usize];
    for i in 0..IN as usize {
        for h in 0..HID as usize {
            grad[i * HID as usize + h] = delta_hid[h] * input[i];
        }
    }
    for h in 0..HID as usize {
        for o in 0..OUT as usize {
            grad[W1_WORDS as usize + h * OUT as usize + o] = delta_out[o] * hidden[h];
        }
    }
    grad
}

fn generate(scale: Scale) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut s = Stream::new(scale.seed);
    let mut rnd = |scale: f64| (s.below(2001) as f64 / 1000.0 - 1.0) * scale;
    let w1: Vec<f64> = (0..W1_WORDS).map(|_| rnd(0.5)).collect();
    let w2: Vec<f64> = (0..W2_WORDS).map(|_| rnd(0.5)).collect();
    let samples: Vec<f64> = (0..scale.iterations * SAMPLE_WORDS)
        .map(|k| {
            if k % SAMPLE_WORDS >= IN {
                (rnd(0.5) + 1.0) / 2.0 // targets in (0, 1)
            } else {
                rnd(1.0)
            }
        })
        .collect();
    (w1, w2, samples)
}

/// Applies the summed gradients to the weights (the sequential
/// inter-invocation reduction).
fn apply_epoch(w1: &mut [f64], w2: &mut [f64], grads: &[Vec<f64>]) {
    for g in grads {
        for (i, w) in w1.iter_mut().enumerate() {
            *w += ETA * g[i];
        }
        for (i, w) in w2.iter_mut().enumerate() {
            *w += ETA * g[W1_WORDS as usize + i];
        }
    }
}

/// Heap layout of the parallel plan (deterministic allocation order, so
/// `plan()` and the runners agree on addresses).
struct Layout {
    w_base: VAddr,
    s_base: VAddr,
    g_base: VAddr,
}

fn layout(scale: Scale) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let mut heap = master_heap();
    let w_base = heap
        .alloc_words(W1_WORDS + W2_WORDS)
        .map_err(|e| KernelError(e.to_string()))?;
    let s_base = heap
        .alloc_words(n * SAMPLE_WORDS)
        .map_err(|e| KernelError(e.to_string()))?;
    let g_base = heap
        .alloc_words(n * GRAD_WORDS)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout {
        w_base,
        s_base,
        g_base,
    })
}

/// Committed memory at first-invocation entry: initial weights + samples.
fn initial_master(lay: &Layout, scale: Scale) -> MasterMem {
    let (w1_init, w2_init, samples) = generate(scale);
    let mut master = MasterMem::new();
    let weight_words: Vec<u64> = w1_init
        .iter()
        .chain(w2_init.iter())
        .map(|&f| f2w(f))
        .collect();
    store_words(&mut master, lay.w_base, &weight_words);
    let sample_words: Vec<u64> = samples.iter().map(|&f| f2w(f)).collect();
    store_words(&mut master, lay.s_base, &sample_words);
    master
}

fn body_fn(lay: &Layout) -> StageFn {
    let (w_base, s_base, g_base) = (lay.w_base, lay.s_base, lay.g_base);
    Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        // Live-in weights arrive by Copy-On-Access each invocation.
        let mut w1 = [0.0f64; W1_WORDS as usize];
        for (k, w) in w1.iter_mut().enumerate() {
            *w = w2f(ctx.read(w_base.add_words(k as u64))?);
        }
        let mut w2 = [0.0f64; W2_WORDS as usize];
        for (k, w) in w2.iter_mut().enumerate() {
            *w = w2f(ctx.read(w_base.add_words(W1_WORDS + k as u64))?);
        }
        let mut sample = [0.0f64; SAMPLE_WORDS as usize];
        for (k, v) in sample.iter_mut().enumerate() {
            *v = w2f(ctx.read_private(s_base.add_words(mtx.0 * SAMPLE_WORDS + k as u64))?);
        }
        let grad = gradient(&w1, &w2, &sample);
        // Private gradient slot: memory versioning, no conflicts.
        for (k, g) in grad.iter().enumerate() {
            ctx.write_no_forward(g_base.add_words(mtx.0 * GRAD_WORDS + k as u64), f2w(*g))?;
        }
        Ok(IterOutcome::Continue)
    })
}

fn recovery_fn(lay: &Layout) -> RecoveryFn {
    let (w_base, s_base, g_base) = (lay.w_base, lay.s_base, lay.g_base);
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let w: Vec<f64> = load_words(master, w_base, W1_WORDS + W2_WORDS)
            .into_iter()
            .map(w2f)
            .collect();
        let s: Vec<f64> = load_words(master, s_base.add_words(mtx.0 * SAMPLE_WORDS), SAMPLE_WORDS)
            .into_iter()
            .map(w2f)
            .collect();
        let grad = gradient(&w[..W1_WORDS as usize], &w[W1_WORDS as usize..], &s);
        for (k, g) in grad.iter().enumerate() {
            master.write(g_base.add_words(mtx.0 * GRAD_WORDS + k as u64), f2w(*g));
        }
        IterOutcome::Continue
    })
}

impl Alvinn {
    fn sequential(scale: Scale) -> Vec<u64> {
        let (mut w1, mut w2, samples) = generate(scale);
        for _ in 0..EPOCHS {
            let grads: Vec<Vec<f64>> = (0..scale.iterations)
                .map(|i| {
                    let s =
                        &samples[(i * SAMPLE_WORDS) as usize..((i + 1) * SAMPLE_WORDS) as usize];
                    gradient(&w1, &w2, s)
                })
                .collect();
            apply_epoch(&mut w1, &mut w2, &grads);
        }
        w1.iter().chain(w2.iter()).map(|&f| f2w(f)).collect()
    }

    /// All [`EPOCHS`] invocations of the parallel section, with the
    /// weight update between them.
    fn train(scale: Scale, workers: u16) -> Result<Vec<u64>, KernelError> {
        let n = scale.iterations;
        let lay = layout(scale)?;
        let (w_base, g_base) = (lay.w_base, lay.g_base);
        let mut master = initial_master(&lay, scale);
        let body = body_fn(&lay);

        for _epoch in 0..EPOCHS {
            let recovery = recovery_fn(&lay);
            let result =
                Pipeline::new()
                    .par(workers.max(1), body.clone())
                    .run(master, recovery, Some(n))?;
            master = result.master;
            // Inter-invocation sequential code (commit unit): reduce the
            // gradient arrays and update the weights.
            let mut w1: Vec<f64> = load_words(&master, w_base, W1_WORDS)
                .into_iter()
                .map(w2f)
                .collect();
            let mut w2: Vec<f64> = load_words(&master, w_base.add_words(W1_WORDS), W2_WORDS)
                .into_iter()
                .map(w2f)
                .collect();
            let grads: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    load_words(&master, g_base.add_words(i * GRAD_WORDS), GRAD_WORDS)
                        .into_iter()
                        .map(w2f)
                        .collect()
                })
                .collect();
            apply_epoch(&mut w1, &mut w2, &grads);
            let weight_words: Vec<u64> = w1.iter().chain(w2.iter()).map(|&f| f2w(f)).collect();
            store_words(&mut master, w_base, &weight_words);
        }
        Ok(load_words(&master, w_base, W1_WORDS + W2_WORDS))
    }
}

impl Kernel for Alvinn {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "052.alvinn",
            suite: "SPEC CFP 92",
            description: "neural network",
            paradigm: Paradigm::SpecDoall,
            speculation: vec![SpecKind::MemoryVersioning],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "052.alvinn".into(),
            iter_work: 120.0e-6,
            iterations: 2400,
            coverage: 0.99,
            stages: vec![StageProfile {
                shape: StageShape::Parallel,
                work_fraction: 1.0,
                bytes_out: 360.0, // the gradient contribution
            }],
            validation_words: 50.0,
            tls: TlsPlan {
                sync_fraction: 0.0,
                bytes_per_iter: 360.0,
                validation_words: 50.0,
            },
            // The invocation-boundary synchronizations that plateau the
            // curve: live-in weights out, gradient arrays back.
            chunked: true,
            invocation: Some(InvocationProfile {
                count: 40,
                init_bytes_per_worker: 6_000.0,
                reduce_bytes_per_worker: 6_000.0,
            }),
        }
    }

    fn reference(&self, scale: Scale) -> Vec<u64> {
        Self::sequential(scale)
    }

    /// One invocation (the first epoch's Spec-DOALL section) at an
    /// explicit shard count — the certified parallel section; the
    /// inter-invocation weight update is sequential commit-unit code.
    fn parallel(
        &self,
        mode: Mode,
        unit_shards: usize,
        scale: Scale,
    ) -> Result<RunResult, KernelError> {
        let (Mode::Dsmtx { workers } | Mode::Tls { workers }) = mode else {
            unreachable!("parallel paths only")
        };
        let n = scale.iterations;
        let lay = layout(scale)?;
        let master = initial_master(&lay, scale);
        let body = body_fn(&lay);
        let recovery = recovery_fn(&lay);
        // The plan ships a profile-guided shard map (the store stream is
        // heavily page-skewed); install it so a sharded run routes
        // validation traffic the way the analyzer weighed it.
        let shard_map = shard_map_for(unit_shards, || {
            profiled_shard_map(initial_master(&lay, scale), &mut recovery_fn(&lay), n)
        });
        Ok(Pipeline::new()
            .par(workers.max(1), body)
            .shards(unit_shards)
            .shard_map(shard_map)
            .run(master, recovery, Some(n))?)
    }

    fn output(&self, master: &MasterMem, scale: Scale) -> Result<Vec<u64>, KernelError> {
        Ok(load_words(
            master,
            layout(scale)?.w_base,
            W1_WORDS + W2_WORDS,
        ))
    }

    /// Runs all [`EPOCHS`] invocations: a parallel run is not one
    /// [`Kernel::parallel`] section but the whole training loop.
    fn run(&self, mode: Mode, scale: Scale) -> Result<Vec<u64>, KernelError> {
        match mode {
            Mode::Sequential => Ok(Self::sequential(scale)),
            // Both parallelizations are the same Spec-DOALL (§5.1).
            Mode::Dsmtx { workers } | Mode::Tls { workers } => Self::train(scale, workers),
        }
    }

    /// The first invocation's loop: weights are live-in (validated
    /// reads), samples private, gradient slots disjoint per iteration.
    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        let lay = layout(scale)?;
        let master = initial_master(&lay, scale);
        let recovery = recovery_fn(&lay);
        let shard_map = profiled_shard_map(
            initial_master(&lay, scale),
            &mut recovery_fn(&lay),
            scale.iterations,
        );
        let (w_base, s_base, g_base) = (lay.w_base, lay.s_base, lay.g_base);
        Ok(AnalysisPlan {
            name: "052.alvinn",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![StageSpec::new(
                "train",
                StageRole::Parallel,
                Box::new(move |mtx| {
                    vec![
                        Region::read("weights", w_base, W1_WORDS + W2_WORDS),
                        Region::read(
                            "samples",
                            s_base.add_words(mtx * SAMPLE_WORDS),
                            SAMPLE_WORDS,
                        ),
                        Region::write("grads", g_base.add_words(mtx * GRAD_WORDS), GRAD_WORDS),
                    ]
                }),
            )],
            shard_map: Some(shard_map),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_matches_sequential_exactly() {
        let k = Alvinn;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 3 }, scale).unwrap();
        assert_eq!(seq, par, "bitwise-identical weights after training");
    }

    #[test]
    fn training_changes_weights() {
        let scale = Scale::test();
        let (w1, w2, _) = generate(scale);
        let init: Vec<u64> = w1.iter().chain(w2.iter()).map(|&f| f2w(f)).collect();
        let trained = Alvinn.run(Mode::Sequential, scale).unwrap();
        assert_ne!(init, trained);
    }

    #[test]
    fn gradient_is_zero_for_perfect_output_direction() {
        // With zero input, ∂W1 must be zero (delta × input).
        let w1 = vec![0.1; W1_WORDS as usize];
        let w2 = vec![0.1; W2_WORDS as usize];
        let mut sample = vec![0.0; SAMPLE_WORDS as usize];
        sample[IN as usize] = 0.5;
        let g = gradient(&w1, &w2, &sample);
        for v in &g[..W1_WORDS as usize] {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn profile_is_consistent() {
        Alvinn.profile().check();
    }
}

//! `swaptions` — PARSEC portfolio pricing.
//!
//! Paper plan: `Spec-DOALL` over the outermost loop with control-flow
//! speculation on an error condition during price calculation; the DSMTX
//! and TLS parallelizations coincide, and scalability is limited by the
//! input size (the number of swaptions, §5.2).
//!
//! Kernel: each iteration prices one swaption with a deterministic
//! HJM-flavoured Monte Carlo: simulate forward-rate paths with a
//! per-swaption pseudo-random stream and average the discounted payoff.

use std::sync::Arc;

use dsmtx::{IterOutcome, MtxId, RecoveryFn, Region, RunResult, StageRole, StageSpec, WorkerCtx};
use dsmtx_mem::MasterMem;
use dsmtx_paradigms::{Paradigm, Pipeline, SpecKind};
use dsmtx_sim::{
    profile::{StageProfile, StageShape},
    TlsPlan, WorkloadProfile,
};
use dsmtx_uva::VAddr;

use crate::analysis::AnalysisPlan;
use crate::common::{
    f2w, load_words, master_heap, run_on, store_words, w2f, Kernel, KernelError, Mode, Scale,
    Stream, Table2Entry,
};

/// Words per swaption record: strike, maturity, volatility, seed.
pub const SWAPTION_WORDS: u64 = 4;
/// Monte Carlo paths per swaption.
const PATHS: u64 = 32;
/// Time steps per path.
const STEPS: u64 = 16;

/// The swaptions kernel.
#[derive(Debug, Default)]
pub struct Swaptions;

/// Uniform in [-1, 1) from the stream (triangle-ish shock).
fn shock(s: &mut Stream) -> f64 {
    (s.below(2_000_001) as f64 / 1_000_000.0) - 1.0
}

/// Prices one swaption; `Err(())` is the speculated error path (a
/// degenerate volatility).
fn price(rec: &[u64]) -> Result<u64, ()> {
    let strike = w2f(rec[0]);
    let maturity = w2f(rec[1]);
    let vol = w2f(rec[2]);
    let seed = rec[3];
    if vol <= 0.0 || maturity <= 0.0 {
        return Err(());
    }
    let dt = maturity / STEPS as f64;
    let mut sum = 0.0;
    for p in 0..PATHS {
        let mut s = Stream::new(seed ^ (p + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rate = 0.05;
        for _ in 0..STEPS {
            rate += vol * shock(&mut s) * dt.sqrt() + 0.001 * dt;
            rate = rate.max(0.0);
        }
        let payoff = (rate - strike).max(0.0);
        sum += payoff * (-rate * maturity).exp();
    }
    Ok(f2w(sum / PATHS as f64))
}

fn error_output(i: u64) -> u64 {
    0x5BAD_0000_0000_0000 | i
}

/// Heap layout of the parallel plan (deterministic allocation order, so
/// `plan()` and the runners agree on addresses).
struct Layout {
    in_base: VAddr,
    out_base: VAddr,
}

fn layout(scale: Scale) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let mut heap = master_heap();
    let in_base = heap
        .alloc_words(n * SWAPTION_WORDS)
        .map_err(|e| KernelError(e.to_string()))?;
    let out_base = heap
        .alloc_words(n)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout { in_base, out_base })
}

fn recovery_fn(lay: &Layout) -> RecoveryFn {
    let (in_base, out_base) = (lay.in_base, lay.out_base);
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let rec = load_words(
            master,
            in_base.add_words(mtx.0 * SWAPTION_WORDS),
            SWAPTION_WORDS,
        );
        let out = price(&rec).unwrap_or_else(|()| error_output(mtx.0));
        master.write(out_base.add_words(mtx.0), out);
        IterOutcome::Continue
    })
}

fn generate(scale: Scale, plant_error: bool) -> Vec<u64> {
    let mut s = Stream::new(scale.seed);
    let mut input = Vec::with_capacity((scale.iterations * SWAPTION_WORDS) as usize);
    for _ in 0..scale.iterations {
        let strike = 0.02 + s.below(8) as f64 / 100.0;
        let maturity = 1.0 + s.below(10) as f64;
        let vol = 0.05 + s.below(30) as f64 / 100.0;
        input.extend_from_slice(&[f2w(strike), f2w(maturity), f2w(vol), s.next()]);
    }
    if plant_error {
        let idx = (scale.iterations / 2) * SWAPTION_WORDS + 2;
        input[idx as usize] = f2w(0.0); // degenerate volatility
    }
    input
}

impl Swaptions {
    fn sequential(input: &[u64], scale: Scale) -> Vec<u64> {
        (0..scale.iterations)
            .map(|i| {
                let rec =
                    &input[(i * SWAPTION_WORDS) as usize..((i + 1) * SWAPTION_WORDS) as usize];
                price(rec).unwrap_or_else(|()| error_output(i))
            })
            .collect()
    }

    /// The parallel paths, at an explicit try-commit shard count,
    /// returning the full run result.
    fn result_with_input(
        &self,
        mode: Mode,
        shards: usize,
        scale: Scale,
        input: &[u64],
    ) -> Result<RunResult, KernelError> {
        let n = scale.iterations;
        let workers = match mode {
            Mode::Sequential => unreachable!("parallel paths only"),
            // The paper notes both parallelizations are identical
            // Spec-DOALL for this benchmark.
            Mode::Dsmtx { workers } | Mode::Tls { workers } => workers.max(1),
        };
        let lay = layout(scale)?;
        let (in_base, out_base) = (lay.in_base, lay.out_base);
        let mut master = MasterMem::new();
        store_words(&mut master, in_base, input);

        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let rec: Vec<u64> = (0..SWAPTION_WORDS)
                .map(|k| ctx.read_private(in_base.add_words(mtx.0 * SWAPTION_WORDS + k)))
                .collect::<Result<_, _>>()?;
            match price(&rec) {
                Ok(p) => {
                    ctx.write_no_forward(out_base.add_words(mtx.0), p)?;
                    Ok(IterOutcome::Continue)
                }
                Err(()) => ctx.misspec(),
            }
        });
        let recovery = recovery_fn(&lay);
        Ok(Pipeline::new()
            .par(workers, body)
            .shards(shards)
            .run(master, recovery, Some(n))?)
    }

    /// Runs with one degenerate swaption to exercise the error path.
    pub fn run_with_planted_error(
        &self,
        mode: Mode,
        scale: Scale,
    ) -> Result<Vec<u64>, KernelError> {
        let input = generate(scale, true);
        run_on(
            self,
            mode,
            scale,
            || Self::sequential(&input, scale),
            |mode| self.result_with_input(mode, 1, scale, &input),
        )
    }
}

impl Kernel for Swaptions {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "swaptions",
            suite: "PARSEC",
            description: "portfolio pricing",
            paradigm: Paradigm::SpecDoall,
            speculation: vec![SpecKind::ControlFlow],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "swaptions".into(),
            // The input has a bounded number of swaptions: parallelism is
            // input-size limited.
            iter_work: 15.0e-3,
            iterations: 384,
            coverage: 0.998,
            stages: vec![StageProfile {
                shape: StageShape::Parallel,
                work_fraction: 1.0,
                bytes_out: 8.0,
            }],
            validation_words: 2.0,
            tls: TlsPlan {
                sync_fraction: 0.0,
                bytes_per_iter: 8.0,
                validation_words: 2.0,
            },
            chunked: false,
            invocation: None,
        }
    }

    fn reference(&self, scale: Scale) -> Vec<u64> {
        Self::sequential(&generate(scale, false), scale)
    }

    fn parallel(
        &self,
        mode: Mode,
        unit_shards: usize,
        scale: Scale,
    ) -> Result<RunResult, KernelError> {
        self.result_with_input(mode, unit_shards, scale, &generate(scale, false))
    }

    fn output(&self, master: &MasterMem, scale: Scale) -> Result<Vec<u64>, KernelError> {
        Ok(load_words(
            master,
            layout(scale)?.out_base,
            scale.iterations,
        ))
    }

    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        let lay = layout(scale)?;
        let mut master = MasterMem::new();
        store_words(&mut master, lay.in_base, &generate(scale, false));
        let recovery = recovery_fn(&lay);
        let (in_base, out_base) = (lay.in_base, lay.out_base);
        Ok(AnalysisPlan {
            name: "swaptions",
            iterations: scale.iterations,
            master,
            recovery,
            // Single Spec-DOALL stage: per-iteration disjoint reads and
            // writes, nothing carried.
            stages: vec![StageSpec::new(
                "price",
                StageRole::Parallel,
                Box::new(move |mtx| {
                    vec![
                        Region::read(
                            "swaptions",
                            in_base.add_words(mtx * SWAPTION_WORDS),
                            SWAPTION_WORDS,
                        ),
                        Region::write("out", out_base.add_words(mtx), 1),
                    ]
                }),
            )],
            shard_map: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_agree() {
        let k = Swaptions;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 3 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 2 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
    }

    #[test]
    fn error_path_recovers() {
        let k = Swaptions;
        let scale = Scale::test();
        let seq = k.run_with_planted_error(Mode::Sequential, scale).unwrap();
        let par = k
            .run_with_planted_error(Mode::Dsmtx { workers: 2 }, scale)
            .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn prices_are_positive_and_vol_sensitive() {
        let lo = w2f(price(&[f2w(0.05), f2w(5.0), f2w(0.05), 42]).unwrap());
        let hi = w2f(price(&[f2w(0.05), f2w(5.0), f2w(0.35), 42]).unwrap());
        assert!(lo >= 0.0);
        assert!(
            hi > lo,
            "higher volatility raises option value: {hi} vs {lo}"
        );
    }

    #[test]
    fn profile_is_consistent() {
        Swaptions.profile().check();
    }
}

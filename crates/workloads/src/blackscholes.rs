//! `blackscholes` — PARSEC option pricing.
//!
//! Paper plan: `DSWP+[Spec-DOALL, S]` with control-flow speculation on an
//! error condition; the TLS parallelization peaks around 52 cores because
//! inter-thread communication latency grows with the core count (§5.2).
//!
//! Kernel: each iteration prices one European option with the
//! Black-Scholes closed form. The speculated error path is an invalid
//! option (non-positive time to maturity); recovery prices it with the
//! guarded sequential code.

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
    f2w, load_words, master_heap, run_on, store_words, w2f, Kernel, KernelError, Mode, Scale,
    Stream, Table2Entry,
};

/// Words per option record: spot, strike, rate, volatility, time, is_put.
pub const OPTION_WORDS: u64 = 6;

/// The blackscholes kernel.
#[derive(Debug, Default)]
pub struct BlackScholes;

/// Cumulative normal distribution (Abramowitz–Stegun 26.2.17).
fn cnd(x: f64) -> f64 {
    let l = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * l);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let w = 1.0 - (-l * l / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt() * poly;
    if x < 0.0 {
        1.0 - w
    } else {
        w
    }
}

/// Prices one option; `Err(())` is the rare error path the plan
/// speculates against.
fn price(opt: &[u64]) -> Result<u64, ()> {
    let (s, k, r, v, t) = (
        w2f(opt[0]),
        w2f(opt[1]),
        w2f(opt[2]),
        w2f(opt[3]),
        w2f(opt[4]),
    );
    let is_put = opt[5] != 0;
    if t <= 0.0 || v <= 0.0 || s <= 0.0 || k <= 0.0 {
        return Err(());
    }
    let d1 = ((s / k).ln() + (r + v * v / 2.0) * t) / (v * t.sqrt());
    let d2 = d1 - v * t.sqrt();
    let call = s * cnd(d1) - k * (-r * t).exp() * cnd(d2);
    let p = if is_put {
        call - s + k * (-r * t).exp()
    } else {
        call
    };
    Ok(f2w(p))
}

fn error_output(i: u64) -> u64 {
    0xEBAD_0000_0000_0000 | i
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
        .alloc_words(n * OPTION_WORDS)
        .map_err(|e| KernelError(e.to_string()))?;
    let out_base = heap
        .alloc_words(n)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout { in_base, out_base })
}

fn recovery_fn(lay: &Layout) -> RecoveryFn {
    let (in_base, out_base) = (lay.in_base, lay.out_base);
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let opt = load_words(
            master,
            in_base.add_words(mtx.0 * OPTION_WORDS),
            OPTION_WORDS,
        );
        let out = price(&opt).unwrap_or_else(|()| error_output(mtx.0));
        master.write(out_base.add_words(mtx.0), out);
        IterOutcome::Continue
    })
}

fn generate(scale: Scale, plant_error: bool) -> Vec<u64> {
    let mut s = Stream::new(scale.seed);
    let mut input = Vec::with_capacity((scale.iterations * OPTION_WORDS) as usize);
    for _ in 0..scale.iterations {
        let spot = 20.0 + s.below(160) as f64;
        let strike = 20.0 + s.below(160) as f64;
        let rate = 0.01 + s.below(9) as f64 / 100.0;
        let vol = 0.10 + s.below(50) as f64 / 100.0;
        let time = 0.25 + s.below(16) as f64 / 4.0;
        let is_put = s.below(2);
        input.extend_from_slice(&[
            f2w(spot),
            f2w(strike),
            f2w(rate),
            f2w(vol),
            f2w(time),
            is_put,
        ]);
    }
    if plant_error {
        // Invalid maturity on the middle option.
        let idx = (scale.iterations / 2) * OPTION_WORDS + 4;
        input[idx as usize] = f2w(-1.0);
    }
    input
}

impl BlackScholes {
    fn sequential(input: &[u64], scale: Scale) -> Vec<u64> {
        (0..scale.iterations)
            .map(|i| {
                let opt = &input[(i * OPTION_WORDS) as usize..((i + 1) * OPTION_WORDS) as usize];
                price(opt).unwrap_or_else(|()| error_output(i))
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
        let lay = layout(scale)?;
        let (in_base, out_base) = (lay.in_base, lay.out_base);
        let mut master = MasterMem::new();
        store_words(&mut master, in_base, input);

        let load_option =
            move |ctx: &mut WorkerCtx, i: u64| -> Result<Vec<u64>, dsmtx::Interrupt> {
                (0..OPTION_WORDS)
                    .map(|k| ctx.read_private(in_base.add_words(i * OPTION_WORDS + k)))
                    .collect()
            };
        let compute = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let opt = load_option(ctx, mtx.0)?;
            match price(&opt) {
                Ok(p) => {
                    ctx.produce_to(StageId(1), p);
                    Ok(IterOutcome::Continue)
                }
                Err(()) => ctx.misspec(),
            }
        });
        let emit = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let p = ctx.consume_from(StageId(0));
            ctx.write_no_forward(out_base.add_words(mtx.0), p)?;
            Ok(IterOutcome::Continue)
        });
        let recovery = recovery_fn(&lay);

        let pipeline = match mode {
            Mode::Dsmtx { workers } => Pipeline::new().par(workers.max(1), compute).seq(emit),
            Mode::Tls { workers } => {
                let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let opt = load_option(ctx, mtx.0)?;
                    match price(&opt) {
                        Ok(p) => {
                            ctx.write_no_forward(out_base.add_words(mtx.0), p)?;
                            Ok(IterOutcome::Continue)
                        }
                        Err(()) => ctx.misspec(),
                    }
                });
                Pipeline::new().par(workers.max(1), body)
            }
            Mode::Sequential => unreachable!("parallel paths only"),
        };
        Ok(pipeline.shards(shards).run(master, recovery, Some(n))?)
    }

    /// Runs with one invalid option to exercise the speculated error path.
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

impl Kernel for BlackScholes {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "blackscholes",
            suite: "PARSEC",
            description: "option pricing",
            paradigm: Paradigm::Dswp {
                stages: vec![StageLabel::Doall, StageLabel::S],
                spec_stage: Some(0),
            },
            speculation: vec![SpecKind::ControlFlow],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "blackscholes".into(),
            iter_work: 250.0e-6,
            iterations: 20_000,
            coverage: 0.995,
            stages: vec![
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.997,
                    bytes_out: 8.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.003,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 2.0,
            tls: TlsPlan {
                sync_fraction: 0.004,
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
            name: "blackscholes",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![
                // Option records are read-only after loop entry.
                StageSpec::new(
                    "compute",
                    StageRole::Parallel,
                    Box::new(move |mtx| {
                        vec![Region::read(
                            "options",
                            in_base.add_words(mtx * OPTION_WORDS),
                            OPTION_WORDS,
                        )]
                    }),
                ),
                StageSpec::new(
                    "emit",
                    StageRole::Sequential,
                    Box::new(move |mtx| vec![Region::write("out", out_base.add_words(mtx), 1)]),
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
        let k = BlackScholes;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 3 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 2 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
    }

    #[test]
    fn error_path_recovers() {
        let k = BlackScholes;
        let scale = Scale::test();
        let seq = k.run_with_planted_error(Mode::Sequential, scale).unwrap();
        let par = k
            .run_with_planted_error(Mode::Dsmtx { workers: 2 }, scale)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(
            seq[(scale.iterations / 2) as usize],
            error_output(scale.iterations / 2)
        );
    }

    #[test]
    fn put_call_parity_holds() {
        // C - P = S - K e^{-rT}
        let opt_call = [f2w(100.0), f2w(100.0), f2w(0.05), f2w(0.2), f2w(1.0), 0];
        let opt_put = [f2w(100.0), f2w(100.0), f2w(0.05), f2w(0.2), f2w(1.0), 1];
        let c = w2f(price(&opt_call).unwrap());
        let p = w2f(price(&opt_put).unwrap());
        let parity = 100.0 - 100.0 * (-0.05f64).exp();
        assert!((c - p - parity).abs() < 1e-9, "c={c} p={p}");
    }

    #[test]
    fn cnd_is_a_distribution() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-7);
        assert!(cnd(6.0) > 0.999999);
        assert!(cnd(-6.0) < 1e-6);
        assert!((cnd(1.0) + cnd(-1.0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn profile_is_consistent() {
        BlackScholes.profile().check();
    }
}

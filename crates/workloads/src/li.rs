//! `130.li` — SPEC CINT95 lisp interpreter.
//!
//! Paper plan: `DSWP+[Spec-DOALL, S]`. The parallelization speculates
//! that each script is independent of the others — that it neither
//! changes the interpreter's environment nor exits the interpreter.
//! Environment accesses execute transactionally; control-flow speculation
//! breaks the program-exit dependence. The TLS baseline is limited by
//! synchronization on the print instruction (§5.2).
//!
//! Kernel: a stack-machine interpreter. Scripts are mostly pure; a rare
//! `SETENV` opcode mutates the shared environment (the speculated
//! dependence — later scripts' validated environment reads then manifest
//! it), and a rare `EXIT` opcode ends the whole loop under control
//! speculation.

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
    load_words, master_heap, run_on, store_words, Kernel, KernelError, Mode, Scale, Stream,
    Table2Entry,
};

/// Environment cells.
pub const ENV_WORDS: u64 = 8;

/// Opcodes: a word is `op * 256 + arg`.
pub mod op {
    /// Push `arg`.
    pub const PUSH: u64 = 0;
    /// Pop two, push sum.
    pub const ADD: u64 = 1;
    /// Pop two, push product (wrapping, offset to avoid zeros).
    pub const MUL: u64 = 2;
    /// Push `env[arg % ENV_WORDS]`.
    pub const READENV: u64 = 3;
    /// `env[arg % ENV_WORDS] = top` (rare: the speculated mutation).
    pub const SETENV: u64 = 4;
    /// End of script; result is the stack top.
    pub const HALT: u64 = 5;
    /// End of the whole interpreter loop (rare: control speculation).
    pub const EXIT: u64 = 6;
}

/// What interpreting one script did.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Eval {
    /// The script's printed result.
    pub result: u64,
    /// Environment writes `(index, value)` in order.
    pub env_writes: Vec<(u64, u64)>,
    /// True when the script exits the interpreter.
    pub exits: bool,
}

/// Interprets one script against the environment snapshot.
pub(crate) fn eval(script: &[u64], env: &[u64]) -> Eval {
    let mut env = env.to_vec();
    let mut stack: Vec<u64> = Vec::new();
    let mut writes = Vec::new();
    let mut exits = false;
    for &word in script {
        let (o, arg) = (word / 256, word % 256);
        match o {
            op::PUSH => stack.push(arg),
            op::ADD => {
                let b = stack.pop().unwrap_or(0);
                let a = stack.pop().unwrap_or(0);
                stack.push(a.wrapping_add(b));
            }
            op::MUL => {
                let b = stack.pop().unwrap_or(0);
                let a = stack.pop().unwrap_or(0);
                stack.push(a.wrapping_mul(b).wrapping_add(1));
            }
            op::READENV => stack.push(env[(arg % ENV_WORDS) as usize]),
            op::SETENV => {
                let v = stack.last().copied().unwrap_or(0);
                env[(arg % ENV_WORDS) as usize] = v;
                writes.push((arg % ENV_WORDS, v));
            }
            op::EXIT => {
                exits = true;
                break;
            }
            _ => break, // HALT or unknown
        }
    }
    Eval {
        result: stack.last().copied().unwrap_or(0),
        env_writes: writes,
        exits,
    }
}

/// Script corpus options.
#[derive(Debug, Clone, Copy)]
pub struct Corpus {
    /// Insert one `SETENV` script in the middle (manifests the speculated
    /// environment dependence).
    pub with_setenv: bool,
    /// End the run with an `EXIT` script at ~3/4 of the corpus (exercises
    /// loop-exit control speculation; the tail scripts are dead).
    pub with_exit: bool,
}

fn generate(scale: Scale, corpus: Corpus) -> (Vec<u64>, Vec<u64>) {
    let mut s = Stream::new(scale.seed ^ 0x130);
    let env: Vec<u64> = (0..ENV_WORDS).map(|_| 1 + s.below(100)).collect();
    let mut scripts = Vec::with_capacity((scale.iterations * scale.unit) as usize);
    for i in 0..scale.iterations {
        let mut script = Vec::with_capacity(scale.unit as usize);
        script.push(op::PUSH * 256 + s.below(200));
        while (script.len() as u64) < scale.unit - 1 {
            match s.below(5) {
                0 | 1 => script.push(op::PUSH * 256 + s.below(200)),
                2 => script.push(op::ADD * 256),
                3 => script.push(op::MUL * 256),
                _ => script.push(op::READENV * 256 + s.below(ENV_WORDS)),
            }
        }
        if corpus.with_setenv && i == scale.iterations / 2 {
            script[scale.unit as usize - 2] = op::SETENV * 256 + 3;
        }
        if corpus.with_exit && i == scale.iterations * 3 / 4 {
            script[scale.unit as usize - 2] = op::EXIT * 256;
        }
        script.push(op::HALT * 256);
        scripts.extend(script);
    }
    (env, scripts)
}

impl Corpus {
    /// The default corpus: pure scripts only.
    pub fn pure() -> Self {
        Corpus {
            with_setenv: false,
            with_exit: false,
        }
    }
}

/// Shared layout of the parallel runs. Allocation order is fixed, so
/// rebuilding it always yields the same bases — `plan()` and the runners
/// agree on addresses.
struct Layout {
    env_base: VAddr,
    s_base: VAddr,
    out_base: VAddr,
    count_cell: VAddr,
}

fn layout(scale: Scale) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let mut heap = master_heap();
    let env_base = heap
        .alloc_words(ENV_WORDS)
        .map_err(|e| KernelError(e.to_string()))?;
    let s_base = heap
        .alloc_words(n * scale.unit)
        .map_err(|e| KernelError(e.to_string()))?;
    let out_base = heap
        .alloc_words(n)
        .map_err(|e| KernelError(e.to_string()))?;
    let count_cell = heap
        .alloc_words(1)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout {
        env_base,
        s_base,
        out_base,
        count_cell,
    })
}

fn initial_master(env0: &[u64], scripts: &[u64], lay: &Layout) -> MasterMem {
    let mut master = MasterMem::new();
    store_words(&mut master, lay.env_base, env0);
    store_words(&mut master, lay.s_base, scripts);
    master
}

fn recovery_fn(lay: &Layout, scale: Scale) -> RecoveryFn {
    let (env_base, s_base, out_base, count_cell) =
        (lay.env_base, lay.s_base, lay.out_base, lay.count_cell);
    let unit = scale.unit;
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let script = load_words(master, s_base.add_words(mtx.0 * unit), unit);
        let env = load_words(master, env_base, ENV_WORDS);
        let ev = eval(&script, &env);
        for (k, v) in &ev.env_writes {
            master.write(env_base.add_words(*k), *v);
        }
        master.write(out_base.add_words(mtx.0), ev.result);
        master.write(count_cell, mtx.0 + 1);
        if ev.exits {
            IterOutcome::Exit
        } else {
            IterOutcome::Continue
        }
    })
}

/// The li kernel.
#[derive(Debug, Default)]
pub struct Li;

impl Li {
    fn sequential(scale: Scale, corpus: Corpus) -> Vec<u64> {
        let (mut env, scripts) = generate(scale, corpus);
        let mut out = Vec::new();
        for i in 0..scale.iterations {
            let script = &scripts[(i * scale.unit) as usize..((i + 1) * scale.unit) as usize];
            let ev = eval(script, &env);
            for (k, v) in &ev.env_writes {
                env[*k as usize] = *v;
            }
            out.push(ev.result);
            if ev.exits {
                break;
            }
        }
        let count = out.len() as u64;
        out.push(count);
        out.extend(env);
        out
    }

    /// Runs with an explicit corpus shape.
    pub fn run_corpus(
        &self,
        mode: Mode,
        scale: Scale,
        corpus: Corpus,
    ) -> Result<Vec<u64>, KernelError> {
        run_on(
            self,
            mode,
            scale,
            || Self::sequential(scale, corpus),
            |mode| self.result_corpus(mode, 1, scale, corpus),
        )
    }

    /// The parallel paths, at an explicit try-commit shard count,
    /// returning the full run result.
    fn result_corpus(
        &self,
        mode: Mode,
        shards: usize,
        scale: Scale,
        corpus: Corpus,
    ) -> Result<RunResult, KernelError> {
        let (env0, scripts) = generate(scale, corpus);
        let n = scale.iterations;
        let unit = scale.unit;
        let lay = layout(scale)?;
        let master = initial_master(&env0, &scripts, &lay);
        let (env_base, s_base, out_base, count_cell) =
            (lay.env_base, lay.s_base, lay.out_base, lay.count_cell);
        let recovery = recovery_fn(&lay, scale);

        let eval_iter = move |ctx: &mut WorkerCtx, i: u64| -> Result<Eval, dsmtx::Interrupt> {
            let script: Vec<u64> = (0..unit)
                .map(|k| ctx.read_private(s_base.add_words(i * unit + k)))
                .collect::<Result<_, _>>()?;
            // Environment reads are validated: the "scripts are
            // independent" speculation.
            let env: Vec<u64> = (0..ENV_WORDS)
                .map(|k| ctx.read(env_base.add_words(k)))
                .collect::<Result<_, _>>()?;
            Ok(eval(&script, &env))
        };

        let pipeline = match mode {
            Mode::Dsmtx { workers } => {
                let interpret = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let ev = eval_iter(ctx, mtx.0)?;
                    for (k, v) in &ev.env_writes {
                        ctx.write(env_base.add_words(*k), *v)?;
                    }
                    ctx.produce_to(StageId(1), ev.result);
                    Ok(if ev.exits {
                        IterOutcome::Exit
                    } else {
                        IterOutcome::Continue
                    })
                });
                // The sequential "print" stage.
                let print = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let r = ctx.consume_from(StageId(0));
                    ctx.write_no_forward(out_base.add_words(mtx.0), r)?;
                    ctx.write_no_forward(count_cell, mtx.0 + 1)?;
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new().par(workers.max(1), interpret).seq(print)
            }
            Mode::Tls { workers } => {
                // TLS orders the print through the ring (the §5.2 print
                // synchronization), forwarding the environment with it.
                let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let script: Vec<u64> = (0..unit)
                        .map(|k| ctx.read_private(s_base.add_words(mtx.0 * unit + k)))
                        .collect::<Result<_, _>>()?;
                    let incoming: Vec<u64> = ctx.sync_take().collect();
                    let env: Vec<u64> = if incoming.len() == ENV_WORDS as usize {
                        incoming
                    } else {
                        (0..ENV_WORDS)
                            .map(|k| ctx.read(env_base.add_words(k)))
                            .collect::<Result<_, _>>()?
                    };
                    let ev = eval(&script, &env);
                    let mut env_after = env;
                    for (k, v) in &ev.env_writes {
                        env_after[*k as usize] = *v;
                        ctx.write_no_forward(env_base.add_words(*k), *v)?;
                    }
                    ctx.write_no_forward(out_base.add_words(mtx.0), ev.result)?;
                    ctx.write_no_forward(count_cell, mtx.0 + 1)?;
                    for &v in &env_after {
                        ctx.sync_produce(v);
                    }
                    Ok(if ev.exits {
                        IterOutcome::Exit
                    } else {
                        IterOutcome::Continue
                    })
                });
                Pipeline::new().par(workers.max(1), body).ring()
            }
            Mode::Sequential => unreachable!("parallel paths only"),
        };
        // The loop ends at the corpus's end or, earlier, at a committed
        // EXIT script (loop-exit control speculation).
        Ok(pipeline.shards(shards).run(master, recovery, Some(n))?)
    }

    /// [`Kernel::run_reported`] for an explicit corpus shape — the
    /// certification tests use the SETENV corpus to observe the
    /// speculated environment dependence manifesting.
    ///
    /// # Errors
    ///
    /// Runtime failures (thread panics, configuration errors).
    pub fn run_corpus_reported(
        &self,
        workers: u16,
        unit_shards: usize,
        scale: Scale,
        corpus: Corpus,
    ) -> Result<RunResult, KernelError> {
        self.result_corpus(Mode::Dsmtx { workers }, unit_shards, scale, corpus)
    }

    /// [`Kernel::plan`] for an explicit corpus shape.
    ///
    /// # Errors
    ///
    /// Address-space exhaustion while rebuilding the heap layout.
    pub fn plan_corpus(&self, scale: Scale, corpus: Corpus) -> Result<AnalysisPlan, KernelError> {
        let lay = layout(scale)?;
        let (env0, scripts) = generate(scale, corpus);
        let master = initial_master(&env0, &scripts, &lay);
        let recovery = recovery_fn(&lay, scale);
        let (env_base, s_base, out_base, count_cell) =
            (lay.env_base, lay.s_base, lay.out_base, lay.count_cell);
        let unit = scale.unit;
        Ok(AnalysisPlan {
            name: "130.li",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![
                // Environment reads are validated and the rare SETENV
                // store is the speculated dependence — both live in the
                // parallel interpret stage.
                StageSpec::new(
                    "interpret",
                    StageRole::Parallel,
                    Box::new(move |mtx| {
                        vec![
                            Region::read("scripts", s_base.add_words(mtx * unit), unit),
                            Region::read_write("env", env_base, ENV_WORDS),
                        ]
                    }),
                ),
                StageSpec::new(
                    "print",
                    StageRole::Sequential,
                    Box::new(move |mtx| {
                        vec![
                            Region::write("out", out_base.add_words(mtx), 1),
                            Region::write("count", count_cell, 1),
                        ]
                    }),
                ),
            ],
            shard_map: None,
        })
    }
}

impl Kernel for Li {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "130.li",
            suite: "SPEC CINT 95",
            description: "lisp interpreter",
            paradigm: Paradigm::Dswp {
                stages: vec![StageLabel::Doall, StageLabel::S],
                spec_stage: Some(0),
            },
            speculation: vec![
                SpecKind::ControlFlow,
                SpecKind::MemoryValue,
                SpecKind::MemoryVersioning,
            ],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "130.li".into(),
            iter_work: 800.0e-6,
            iterations: 10_000,
            coverage: 0.99,
            stages: vec![
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.985,
                    bytes_out: 64.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.015,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 16.0,
            tls: TlsPlan {
                // The print synchronization serializes a slice of every
                // iteration behind a ring hop.
                sync_fraction: 0.12,
                bytes_per_iter: 128.0,
                validation_words: 16.0,
            },
            chunked: false,
            invocation: None,
        }
    }

    fn reference(&self, scale: Scale) -> Vec<u64> {
        Self::sequential(scale, Corpus::pure())
    }

    fn parallel(
        &self,
        mode: Mode,
        unit_shards: usize,
        scale: Scale,
    ) -> Result<RunResult, KernelError> {
        self.result_corpus(mode, unit_shards, scale, Corpus::pure())
    }

    fn output(&self, master: &MasterMem, scale: Scale) -> Result<Vec<u64>, KernelError> {
        let lay = layout(scale)?;
        let count = master.read(lay.count_cell);
        let mut out = load_words(master, lay.out_base, count);
        out.push(count);
        out.extend(load_words(master, lay.env_base, ENV_WORDS));
        Ok(out)
    }

    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        self.plan_corpus(scale, Corpus::pure())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_agree_on_pure_scripts() {
        let k = Li;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 3 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 2 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
    }

    #[test]
    fn setenv_script_manifests_and_recovers() {
        let k = Li;
        let scale = Scale::test();
        let corpus = Corpus {
            with_setenv: true,
            with_exit: false,
        };
        let seq = k.run_corpus(Mode::Sequential, scale, corpus).unwrap();
        let par = k
            .run_corpus(Mode::Dsmtx { workers: 2 }, scale, corpus)
            .unwrap();
        assert_eq!(seq, par);
        // The environment really changed.
        let clean = k.run(Mode::Sequential, scale).unwrap();
        assert_ne!(seq, clean);
    }

    #[test]
    fn exit_script_terminates_early_everywhere() {
        let k = Li;
        let scale = Scale::test();
        let corpus = Corpus {
            with_setenv: false,
            with_exit: true,
        };
        let seq = k.run_corpus(Mode::Sequential, scale, corpus).unwrap();
        let par = k
            .run_corpus(Mode::Dsmtx { workers: 2 }, scale, corpus)
            .unwrap();
        let tls = k
            .run_corpus(Mode::Tls { workers: 2 }, scale, corpus)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
        let count = seq[seq.len() - 1 - ENV_WORDS as usize];
        assert_eq!(count, scale.iterations * 3 / 4 + 1, "exited early");
    }

    #[test]
    fn eval_reads_environment() {
        let env = vec![5, 6, 7, 8, 9, 10, 11, 12];
        let script = vec![op::READENV * 256 + 2, op::HALT * 256];
        assert_eq!(eval(&script, &env).result, 7);
    }

    #[test]
    fn eval_setenv_records_write() {
        let env = vec![0; ENV_WORDS as usize];
        let script = vec![op::PUSH * 256 + 9, op::SETENV * 256 + 1, op::HALT * 256];
        let ev = eval(&script, &env);
        assert_eq!(ev.env_writes, vec![(1, 9)]);
    }

    #[test]
    fn profile_is_consistent() {
        Li.profile().check();
    }
}

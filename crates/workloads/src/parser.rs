//! `197.parser` — SPEC CINT2000 English parser.
//!
//! Paper plan: `Spec-DSWP+[S, DOALL, S]`. The values of various global
//! data structures are speculated to be reset at the end of each
//! iteration, control-flow speculation covers error cases, the entire
//! dictionary is copied to each worker by Copy-On-Access on first use,
//! and sentences flow from the first stage to the parsers. Beyond 32
//! threads, communication bandwidth becomes the bottleneck (§5.2).
//!
//! Kernel: each iteration parses one sentence — binary-searching every
//! token in a shared dictionary and scoring adjacent-token links with a
//! small dynamic program. A global *dictionary generation* cell models
//! the speculated global state: unknown tokens (rare error case) bump it,
//! which manifests the speculated dependence and rolls later sentences
//! back.

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

/// Dictionary entries.
pub const DICT_WORDS: u64 = 512;

/// The parser kernel.
#[derive(Debug, Default)]
pub struct Parser;

/// Binary search returning the token's rank, or `None` for unknown
/// tokens (the rare error case).
fn rank(dict: &[u64], token: u64) -> Option<u64> {
    dict.binary_search(&token).ok().map(|i| i as u64)
}

/// Scores one sentence against the dictionary under generation `gen`.
/// Returns `(score, new_gen)` — unknown tokens bump the generation.
pub(crate) fn parse(dict: &[u64], sentence: &[u64], gen: u64) -> (u64, u64) {
    let mut new_gen = gen;
    let mut prev_rank = 0u64;
    let mut score = gen.wrapping_mul(0x9E37);
    for &tok in sentence {
        let r = match rank(dict, tok) {
            Some(r) => r,
            None => {
                new_gen += 1;
                0
            }
        };
        // Link strength between adjacent ranks.
        let link = (r ^ prev_rank).wrapping_mul(31).rotate_left(5);
        score = score.wrapping_add(link).rotate_left(3);
        prev_rank = r;
    }
    (score, new_gen)
}

/// The sorted, deduplicated dictionary, and the input stream after it.
/// The dictionary is drawn first, so its length — which fixes the heap
/// layout — costs no sentences.
fn dictionary(scale: Scale) -> (Vec<u64>, Stream) {
    let mut s = Stream::new(scale.seed ^ 0x197);
    let mut dict: Vec<u64> = (0..DICT_WORDS).map(|_| s.next() % 100_000).collect();
    dict.sort_unstable();
    dict.dedup();
    (dict, s)
}

fn generate(scale: Scale, plant_unknown: bool) -> (Vec<u64>, Vec<u64>) {
    let (dict, mut s) = dictionary(scale);
    let sentences: Vec<u64> = (0..scale.iterations * scale.unit)
        .map(|_| dict[(s.next() % dict.len() as u64) as usize])
        .collect();
    let mut sentences = sentences;
    if plant_unknown {
        let idx = (scale.iterations / 2) * scale.unit + 3;
        sentences[idx as usize] = 100_001; // definitely not in the dictionary
    }
    (dict, sentences)
}

/// Shared layout of the parallel runs. The dictionary length is
/// data-dependent (sort + dedup), so the layout takes it as a parameter;
/// the allocation order is fixed, so rebuilding it always yields the same
/// bases — `plan()` and the runners agree on addresses.
struct Layout {
    d_base: VAddr,
    s_base: VAddr,
    out_base: VAddr,
    gen_cell: VAddr,
}

fn layout(scale: Scale, dict_len: u64) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let mut heap = master_heap();
    let d_base = heap
        .alloc_words(dict_len)
        .map_err(|e| KernelError(e.to_string()))?;
    let s_base = heap
        .alloc_words(n * scale.unit)
        .map_err(|e| KernelError(e.to_string()))?;
    let out_base = heap
        .alloc_words(n)
        .map_err(|e| KernelError(e.to_string()))?;
    let gen_cell = heap
        .alloc_words(1)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout {
        d_base,
        s_base,
        out_base,
        gen_cell,
    })
}

fn initial_master(dict: &[u64], sentences: &[u64], lay: &Layout) -> MasterMem {
    let mut master = MasterMem::new();
    store_words(&mut master, lay.d_base, dict);
    store_words(&mut master, lay.s_base, sentences);
    master
}

fn recovery_fn(lay: &Layout, scale: Scale, dict_len: u64) -> RecoveryFn {
    let (d_base, s_base, out_base, gen_cell) = (lay.d_base, lay.s_base, lay.out_base, lay.gen_cell);
    let unit = scale.unit;
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let dict = load_words(master, d_base, dict_len);
        let sentence = load_words(master, s_base.add_words(mtx.0 * unit), unit);
        let gen = master.read(gen_cell);
        let (score, new_gen) = parse(&dict, &sentence, gen);
        master.write(out_base.add_words(mtx.0), score);
        master.write(gen_cell, new_gen);
        IterOutcome::Continue
    })
}

impl Parser {
    fn sequential(dict: &[u64], sentences: &[u64], scale: Scale) -> Vec<u64> {
        let mut gen = 0u64;
        let mut out = Vec::with_capacity(scale.iterations as usize + 1);
        for i in 0..scale.iterations {
            let sentence = &sentences[(i * scale.unit) as usize..((i + 1) * scale.unit) as usize];
            let (score, g) = parse(dict, sentence, gen);
            out.push(score);
            gen = g;
        }
        out.push(gen);
        out
    }

    /// The parallel paths, at an explicit try-commit shard count,
    /// returning the full run result.
    fn result_with_input(
        &self,
        mode: Mode,
        shards: usize,
        scale: Scale,
        dict: &[u64],
        sentences: &[u64],
    ) -> Result<RunResult, KernelError> {
        let n = scale.iterations;
        let unit = scale.unit;
        let dict_len = dict.len() as u64;
        let lay = layout(scale, dict_len)?;
        let master = initial_master(dict, sentences, &lay);
        let (d_base, s_base, out_base, gen_cell) =
            (lay.d_base, lay.s_base, lay.out_base, lay.gen_cell);
        let recovery = recovery_fn(&lay, scale, dict_len);

        let parse_iter =
            move |ctx: &mut WorkerCtx, i: u64| -> Result<(u64, u64, u64), dsmtx::Interrupt> {
                // The dictionary is read-only: COA copies it to each worker on
                // first access (the §5.2 dictionary-transfer cost).
                let dict: Vec<u64> = (0..dict_len)
                    .map(|k| ctx.read_private(d_base.add_words(k)))
                    .collect::<Result<_, _>>()?;
                let sentence: Vec<u64> = (0..unit)
                    .map(|k| ctx.read_private(s_base.add_words(i * unit + k)))
                    .collect::<Result<_, _>>()?;
                // The speculated global: read validated, so a concurrent bump
                // by an error sentence manifests as misspeculation.
                let gen = ctx.read(gen_cell)?;
                let (score, new_gen) = parse(&dict, &sentence, gen);
                Ok((score, gen, new_gen))
            };

        let pipeline = match mode {
            Mode::Dsmtx { workers } => {
                // Stage 0 (S): sentence dispatch (models the reader; the
                // sentence words themselves travel by COA here, so the
                // produced token is just the iteration id).
                let dispatch = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    ctx.produce_to(StageId(1), mtx.0);
                    Ok(IterOutcome::Continue)
                });
                let parse_stage = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| {
                    let i = ctx.consume_from(StageId(0));
                    let (score, gen, new_gen) = parse_iter(ctx, i)?;
                    if new_gen != gen {
                        // Error case: the global really changes.
                        ctx.write(gen_cell, new_gen)?;
                    }
                    ctx.produce_to(StageId(2), score);
                    Ok(IterOutcome::Continue)
                });
                let emit = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let score = ctx.consume_from(StageId(1));
                    ctx.write_no_forward(out_base.add_words(mtx.0), score)?;
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new()
                    .seq(dispatch)
                    .par(workers.max(1), parse_stage)
                    .seq(emit)
            }
            Mode::Tls { workers } => {
                // TLS synchronizes the global on the ring.
                let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let dict: Vec<u64> = (0..dict_len)
                        .map(|k| ctx.read_private(d_base.add_words(k)))
                        .collect::<Result<_, _>>()?;
                    let sentence: Vec<u64> = (0..unit)
                        .map(|k| ctx.read_private(s_base.add_words(mtx.0 * unit + k)))
                        .collect::<Result<_, _>>()?;
                    let synced = ctx.sync_take().next();
                    let gen = match synced {
                        Some(g) => g,
                        None => ctx.read(gen_cell)?,
                    };
                    let (score, new_gen) = parse(&dict, &sentence, gen);
                    ctx.write_no_forward(out_base.add_words(mtx.0), score)?;
                    ctx.write_no_forward(gen_cell, new_gen)?;
                    ctx.sync_produce(new_gen);
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new().par(workers.max(1), body).ring()
            }
            Mode::Sequential => unreachable!("parallel paths only"),
        };
        Ok(pipeline.shards(shards).run(master, recovery, Some(n))?)
    }

    /// Runs with one unknown token planted, manifesting the speculated
    /// global dependence.
    pub fn run_with_planted_unknown(
        &self,
        mode: Mode,
        scale: Scale,
    ) -> Result<Vec<u64>, KernelError> {
        let (dict, sentences) = generate(scale, true);
        run_on(
            self,
            mode,
            scale,
            || Self::sequential(&dict, &sentences, scale),
            |mode| self.result_with_input(mode, 1, scale, &dict, &sentences),
        )
    }

    /// [`Kernel::run_reported`] with one unknown token planted — the
    /// certification tests use this to observe the speculated generation
    /// dependence manifesting as a try-commit conflict.
    ///
    /// # Errors
    ///
    /// Runtime failures (thread panics, configuration errors).
    pub fn run_reported_planted_unknown(
        &self,
        workers: u16,
        unit_shards: usize,
        scale: Scale,
    ) -> Result<RunResult, KernelError> {
        let (dict, sentences) = generate(scale, true);
        self.result_with_input(
            Mode::Dsmtx { workers },
            unit_shards,
            scale,
            &dict,
            &sentences,
        )
    }

    fn plan_with(&self, scale: Scale, plant_unknown: bool) -> Result<AnalysisPlan, KernelError> {
        let (dict, sentences) = generate(scale, plant_unknown);
        let dict_len = dict.len() as u64;
        let lay = layout(scale, dict_len)?;
        let master = initial_master(&dict, &sentences, &lay);
        let recovery = recovery_fn(&lay, scale, dict_len);
        let (d_base, s_base, out_base, gen_cell) =
            (lay.d_base, lay.s_base, lay.out_base, lay.gen_cell);
        let unit = scale.unit;
        Ok(AnalysisPlan {
            name: "197.parser",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![
                // The dispatcher ships only the iteration id.
                StageSpec::new("dispatch", StageRole::Sequential, Box::new(|_| Vec::new())),
                // The parse stage reads the COA-distributed dictionary and
                // sentence, and speculates on the generation global: its
                // read is validated and the rare unknown-token bump writes
                // it back — the genuinely speculated carried dependence.
                StageSpec::new(
                    "parse",
                    StageRole::Parallel,
                    Box::new(move |mtx| {
                        vec![
                            Region::read("dict", d_base, dict_len),
                            Region::read("sentences", s_base.add_words(mtx * unit), unit),
                            Region::read_write("gen", gen_cell, 1),
                        ]
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

    /// [`Kernel::plan`] with one unknown token planted: the generation
    /// carried dependence becomes value-changing.
    ///
    /// # Errors
    ///
    /// Address-space exhaustion while rebuilding the heap layout.
    pub fn plan_with_planted_unknown(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        self.plan_with(scale, true)
    }
}

impl Kernel for Parser {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "197.parser",
            suite: "SPEC CINT 2000",
            description: "English parser",
            paradigm: Paradigm::SpecDswp {
                stages: vec![StageLabel::S, StageLabel::Doall, StageLabel::S],
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
            name: "197.parser".into(),
            iter_work: 1.5e-3,
            iterations: 8000,
            coverage: 0.98,
            stages: vec![
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.02,
                    // Sentences plus dictionary traffic: bandwidth grows
                    // fast with thread count (§5.3), biting past ~32.
                    bytes_out: 24_576.0,
                },
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.95,
                    bytes_out: 64.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.03,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 64.0,
            tls: TlsPlan {
                sync_fraction: 0.08,
                bytes_per_iter: 512.0,
                validation_words: 64.0,
            },
            chunked: false,
            invocation: None,
        }
    }

    fn reference(&self, scale: Scale) -> Vec<u64> {
        let (dict, sentences) = generate(scale, false);
        Self::sequential(&dict, &sentences, scale)
    }

    fn parallel(
        &self,
        mode: Mode,
        unit_shards: usize,
        scale: Scale,
    ) -> Result<RunResult, KernelError> {
        let (dict, sentences) = generate(scale, false);
        self.result_with_input(mode, unit_shards, scale, &dict, &sentences)
    }

    fn output(&self, master: &MasterMem, scale: Scale) -> Result<Vec<u64>, KernelError> {
        let lay = layout(scale, dictionary(scale).0.len() as u64)?;
        let mut out = load_words(master, lay.out_base, scale.iterations);
        out.push(master.read(lay.gen_cell));
        Ok(out)
    }

    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        self.plan_with(scale, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_agree() {
        let k = Parser;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 2 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 2 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
        // No unknown tokens: the generation never moved.
        assert_eq!(*seq.last().unwrap(), 0);
    }

    #[test]
    fn unknown_token_manifests_the_speculated_global() {
        let k = Parser;
        let scale = Scale::test();
        let seq = k.run_with_planted_unknown(Mode::Sequential, scale).unwrap();
        let par = k
            .run_with_planted_unknown(Mode::Dsmtx { workers: 2 }, scale)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(*seq.last().unwrap(), 1, "generation bumped once");
        // Scores after the error sentence differ from the clean run.
        let clean = k.run(Mode::Sequential, scale).unwrap();
        assert_ne!(seq, clean);
    }

    #[test]
    fn parse_depends_on_generation() {
        let dict = vec![1, 5, 9];
        let (a, _) = parse(&dict, &[1, 5], 0);
        let (b, _) = parse(&dict, &[1, 5], 1);
        assert_ne!(a, b);
    }

    #[test]
    fn profile_is_consistent() {
        Parser.profile().check();
    }
}

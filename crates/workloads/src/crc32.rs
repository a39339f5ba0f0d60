//! `crc32` — polynomial code checksum (reference implementation suite).
//!
//! Paper plan: `DSWP+[Spec-DOALL, S]` with control-flow speculation that
//! errors do not occur during the CRC computation; block reads instead of
//! character reads; speedup limited by the number of input files (§5.2).
//!
//! Kernel: one iteration checksums one "file" (a span of input words)
//! with a CRC-64 fold. A rare in-band error marker models the speculated
//! error path: hitting it misspeculates, and recovery computes the file's
//! checksum sequentially (flagging it in the output).

use std::sync::Arc;

use dsmtx::{IterOutcome, MtxId, RecoveryFn, Region, RunResult, StageRole, StageSpec, WorkerCtx};
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

/// In-band marker for the speculated error path.
pub const ERROR_MARKER: u64 = 0xBAD0_BAD0_BAD0_BAD0;

const POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// The crc32 kernel.
#[derive(Debug, Default)]
pub struct Crc32;

fn crc_step(crc: u64, word: u64) -> u64 {
    let mut c = crc ^ word;
    for _ in 0..8 {
        let mask = (c & 1).wrapping_neg();
        c = (c >> 1) ^ (POLY & mask);
    }
    c
}

/// Checksums one file span; `Err(())` models the error path the plan
/// speculates against.
fn crc_file(words: &[u64]) -> Result<u64, ()> {
    let mut crc = u64::MAX;
    for &w in words {
        if w == ERROR_MARKER {
            return Err(());
        }
        crc = crc_step(crc, w);
    }
    Ok(crc)
}

/// Generates the input corpus. `plant_error` inserts the rare marker in
/// one file, to exercise misspeculation in tests.
fn generate(scale: Scale, plant_error: bool) -> Vec<u64> {
    let mut s = Stream::new(scale.seed);
    let mut input: Vec<u64> = (0..scale.iterations * scale.unit)
        .map(|_| s.next())
        .collect();
    for w in input.iter_mut() {
        if *w == ERROR_MARKER {
            *w = 0; // keep the corpus clean by default
        }
    }
    if plant_error {
        let idx = (scale.iterations / 2) * scale.unit + scale.unit / 2;
        input[idx as usize] = ERROR_MARKER;
    }
    input
}

/// Output of the error path: the checksum slot is flagged.
fn error_output(file: u64) -> u64 {
    0xEEEE_0000_0000_0000 | file
}

/// Heap layout of the parallel plan. The region allocator is
/// deterministic, so rebuilding the same allocation sequence always
/// yields the same bases — `plan()` and the runners agree on addresses.
struct Layout {
    in_base: VAddr,
    out_base: VAddr,
}

fn layout(scale: Scale) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let mut heap = master_heap();
    let in_base = heap
        .alloc_words(n * scale.unit)
        .map_err(|e| KernelError(e.to_string()))?;
    let out_base = heap
        .alloc_words(n)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout { in_base, out_base })
}

fn recovery_fn(lay: &Layout, scale: Scale) -> RecoveryFn {
    let (in_base, out_base, unit) = (lay.in_base, lay.out_base, scale.unit);
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let span = load_words(master, in_base.add_words(mtx.0 * unit), unit);
        let out = match crc_file(&span) {
            Ok(crc) => crc,
            Err(()) => error_output(mtx.0),
        };
        master.write(out_base.add_words(mtx.0), out);
        IterOutcome::Continue
    })
}

impl Crc32 {
    /// Sequential reference.
    fn sequential(input: &[u64], scale: Scale) -> Vec<u64> {
        (0..scale.iterations)
            .map(|f| {
                let span = &input[(f * scale.unit) as usize..((f + 1) * scale.unit) as usize];
                match crc_file(span) {
                    Ok(crc) => crc,
                    Err(()) => error_output(f),
                }
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

        let unit = scale.unit;
        // Parallel stage: checksum the file; the error path misspeculates.
        let compute = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let mut crc = u64::MAX;
            for k in 0..unit {
                // The input is read-only after loop entry: unvalidated.
                let w = ctx.read_private(in_base.add_words(mtx.0 * unit + k))?;
                if w == ERROR_MARKER {
                    // Control-flow speculation failed: rare error path.
                    return ctx.misspec();
                }
                crc = crc_step(crc, w);
            }
            ctx.produce_to(dsmtx::StageId(1), crc);
            Ok(IterOutcome::Continue)
        });
        // Sequential output stage, as in the paper's plan.
        let emit = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let crc = ctx.consume_from(dsmtx::StageId(0));
            ctx.write_no_forward(out_base.add_words(mtx.0), crc)?;
            Ok(IterOutcome::Continue)
        });
        let recovery = recovery_fn(&lay, scale);

        let pipeline = match mode {
            Mode::Dsmtx { workers } => Pipeline::new().par(workers.max(1), compute).seq(emit),
            Mode::Tls { workers } => {
                // The TLS plan degenerates to Spec-DOALL here (no
                // synchronized dependences): the compute stage writes the
                // output slot itself.
                let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let mut crc = u64::MAX;
                    for k in 0..unit {
                        let w = ctx.read_private(in_base.add_words(mtx.0 * unit + k))?;
                        if w == ERROR_MARKER {
                            return ctx.misspec();
                        }
                        crc = crc_step(crc, w);
                    }
                    ctx.write_no_forward(out_base.add_words(mtx.0), crc)?;
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new().par(workers.max(1), body)
            }
            Mode::Sequential => unreachable!("parallel paths only"),
        };
        Ok(pipeline.shards(shards).run(master, recovery, Some(n))?)
    }

    /// Runs with a planted error to exercise the misspeculation path.
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

impl Kernel for Crc32 {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "crc32",
            suite: "Ref. Impl.",
            description: "polynomial code checksum",
            paradigm: Paradigm::Dswp {
                stages: vec![StageLabel::Doall, StageLabel::S],
                spec_stage: Some(0),
            },
            speculation: vec![SpecKind::ControlFlow, SpecKind::MemoryVersioning],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "crc32".into(),
            // A handful of large input files bounds the parallelism.
            iter_work: 30.0e-3,
            iterations: 96,
            coverage: 0.995,
            stages: vec![
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.99,
                    bytes_out: 16.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.01,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 4.0,
            tls: TlsPlan {
                // Output ordering synchronizes a sliver of each iteration.
                sync_fraction: 0.01,
                bytes_per_iter: 16.0,
                validation_words: 4.0,
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
        let recovery = recovery_fn(&lay, scale);
        let (in_base, out_base, unit) = (lay.in_base, lay.out_base, scale.unit);
        Ok(AnalysisPlan {
            name: "crc32",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![
                // The input is read-only after loop entry (read_private).
                StageSpec::new(
                    "compute",
                    StageRole::Parallel,
                    Box::new(move |mtx| {
                        vec![Region::read("input", in_base.add_words(mtx * unit), unit)]
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
    fn parallel_matches_sequential() {
        let k = Crc32;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 3 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 3 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
        assert_eq!(seq.len(), scale.iterations as usize);
    }

    #[test]
    fn planted_error_recovers_to_sequential_answer() {
        let k = Crc32;
        let scale = Scale::test();
        let seq = k.run_with_planted_error(Mode::Sequential, scale).unwrap();
        let par = k
            .run_with_planted_error(Mode::Dsmtx { workers: 2 }, scale)
            .unwrap();
        assert_eq!(seq, par);
        // The flagged file really took the error path.
        let bad = (scale.iterations / 2) as usize;
        assert_eq!(seq[bad], error_output(bad as u64));
    }

    #[test]
    fn crc_is_sensitive_to_every_word() {
        let a = crc_file(&[1, 2, 3]).unwrap();
        let b = crc_file(&[1, 2, 4]).unwrap();
        let c = crc_file(&[2, 1, 3]).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn profile_is_consistent() {
        Crc32.profile().check();
    }
}

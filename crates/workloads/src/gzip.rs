//! `164.gzip` — SPEC CINT2000 file compressor.
//!
//! Paper plan: `Spec-DSWP+[S, DOALL, S]`. The original algorithm's block
//! boundaries depend on the previous block's compression, which serializes
//! the loop; the Y-branch breaks that dependence by starting blocks at
//! fixed intervals, and DSMTX's memory versioning gives each worker its
//! own version of the block arrays. Scalability is limited by
//! communication bandwidth: the read stage ships every block's data down
//! the pipeline (§5.2, Figure 5(a) shows gzip's bandwidth demand is the
//! highest of the suite).
//!
//! Kernel: fixed-interval blocks (the Y-branched semantics are the
//! reference), run-length compression, and a sequential output stage that
//! appends `[len, payload…]` records at a cursor. A rare in-band escape
//! marker models the speculated rare path.

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

/// Rare in-band marker whose handling the plan speculates away.
pub const ESCAPE: u64 = 0xE5CA_9EE5_CA9E_E5CA;

/// The gzip kernel.
#[derive(Debug, Default)]
pub struct Gzip;

/// Run-length compresses one block into `[count, value]` pairs plus a
/// trailing checksum; `Err(())` on the rare escape marker.
pub(crate) fn rle_compress(block: &[u64]) -> Result<Vec<u64>, ()> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut checksum = 0xC0DEu64;
    while i < block.len() {
        if block[i] == ESCAPE {
            return Err(());
        }
        let mut run = 1;
        while i + run < block.len() && block[i + run] == block[i] {
            run += 1;
        }
        out.push(run as u64);
        out.push(block[i]);
        checksum = checksum
            .rotate_left(7)
            .wrapping_add(block[i])
            .wrapping_mul(run as u64 | 1);
        i += run;
    }
    out.push(checksum);
    Ok(out)
}

/// On the escape path the block is stored raw with a flag record.
fn escape_record(block: &[u64]) -> Vec<u64> {
    let mut out = vec![u64::MAX];
    out.extend_from_slice(block);
    out
}

/// Compressible input: small alphabet with runs.
fn generate(scale: Scale, plant_escape: bool) -> Vec<u64> {
    let mut s = Stream::new(scale.seed);
    let total = (scale.iterations * scale.unit) as usize;
    let mut input = Vec::with_capacity(total);
    while input.len() < total {
        let value = 0x1000 + s.below(4);
        let run = 1 + s.below(6) as usize;
        for _ in 0..run.min(total - input.len()) {
            input.push(value);
        }
    }
    if plant_escape {
        let idx = (scale.iterations / 2) * scale.unit + 1;
        input[idx as usize] = ESCAPE;
    }
    input
}

/// Appends a record at the output cursor (sequential semantics shared by
/// the reference, the last pipeline stage, and recovery).
fn append_record(stream: &mut Vec<u64>, record: &[u64]) {
    stream.push(record.len() as u64);
    stream.extend_from_slice(record);
}

/// Shared layout of the parallel runs. Allocation order is fixed, so
/// rebuilding it always yields the same bases — `plan()` and the runners
/// agree on addresses.
struct Layout {
    in_base: VAddr,
    stream_base: VAddr,
    cursor: VAddr,
    stream_cap: u64,
}

fn layout(scale: Scale) -> Result<Layout, KernelError> {
    let n = scale.iterations;
    let stream_cap = n * (2 * scale.unit + 3);
    let mut heap = master_heap();
    let in_base = heap
        .alloc_words(n * scale.unit)
        .map_err(|e| KernelError(e.to_string()))?;
    let stream_base = heap
        .alloc_words(stream_cap)
        .map_err(|e| KernelError(e.to_string()))?;
    let cursor = heap
        .alloc_words(1)
        .map_err(|e| KernelError(e.to_string()))?;
    Ok(Layout {
        in_base,
        stream_base,
        cursor,
        stream_cap,
    })
}

fn initial_master(input: &[u64], lay: &Layout) -> MasterMem {
    let mut master = MasterMem::new();
    store_words(&mut master, lay.in_base, input);
    master
}

fn recovery_fn(lay: &Layout, scale: Scale) -> RecoveryFn {
    let (in_base, stream_base, cursor) = (lay.in_base, lay.stream_base, lay.cursor);
    let unit = scale.unit;
    Box::new(move |mtx: MtxId, master: &mut MasterMem| {
        let block = load_words(master, in_base.add_words(mtx.0 * unit), unit);
        let record = compress_block_or_escape(&block);
        let cur = master.read(cursor);
        master.write(stream_base.add_words(cur), record.len() as u64);
        for (k, &w) in record.iter().enumerate() {
            master.write(stream_base.add_words(cur + 1 + k as u64), w);
        }
        master.write(cursor, cur + 1 + record.len() as u64);
        IterOutcome::Continue
    })
}

fn compress_block_or_escape(block: &[u64]) -> Vec<u64> {
    rle_compress(block).unwrap_or_else(|()| escape_record(block))
}

impl Gzip {
    fn sequential(input: &[u64], scale: Scale) -> Vec<u64> {
        let mut stream = Vec::new();
        for b in 0..scale.iterations {
            let block = &input[(b * scale.unit) as usize..((b + 1) * scale.unit) as usize];
            append_record(&mut stream, &compress_block_or_escape(block));
        }
        let mut out = vec![stream.len() as u64];
        out.extend(stream);
        out
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
        let unit = scale.unit;
        let lay = layout(scale)?;
        let master = initial_master(input, &lay);
        let (in_base, stream_base, cursor) = (lay.in_base, lay.stream_base, lay.cursor);
        let recovery = recovery_fn(&lay, scale);

        let pipeline = match mode {
            Mode::Dsmtx { workers } => {
                // Stage 0 (S): the file reader ships whole blocks down the
                // pipeline — the bandwidth-heavy part of the plan.
                let read = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    for k in 0..unit {
                        let w = ctx.read_private(in_base.add_words(mtx.0 * unit + k))?;
                        ctx.produce_to(StageId(1), w);
                    }
                    Ok(IterOutcome::Continue)
                });
                // Stage 1 (DOALL): compress in a private block version.
                let compress = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| {
                    let block: Vec<u64> = (0..unit).map(|_| ctx.consume_from(StageId(0))).collect();
                    match rle_compress(&block) {
                        Ok(record) => {
                            ctx.produce_to(StageId(2), record.len() as u64);
                            for w in record {
                                ctx.produce_to(StageId(2), w);
                            }
                            Ok(IterOutcome::Continue)
                        }
                        Err(()) => ctx.misspec(), // rare escape path
                    }
                });
                // Stage 2 (S): append records in order at the cursor.
                let emit = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| {
                    let len = ctx.consume_from(StageId(1));
                    let cur = ctx.read(cursor)?;
                    ctx.write_no_forward(stream_base.add_words(cur), len)?;
                    for k in 0..len {
                        let w = ctx.consume_from(StageId(1));
                        ctx.write_no_forward(stream_base.add_words(cur + 1 + k), w)?;
                    }
                    ctx.write(cursor, cur + 1 + len)?;
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new()
                    .seq(read)
                    .par(workers.max(1), compress)
                    .seq(emit)
            }
            Mode::Tls { workers } => {
                // TLS: each transaction reads its block directly (no bulk
                // forwarding) and the output cursor is synchronized on the
                // ring.
                let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                    let block: Vec<u64> = (0..unit)
                        .map(|k| ctx.read_private(in_base.add_words(mtx.0 * unit + k)))
                        .collect::<Result<_, _>>()?;
                    let record = match rle_compress(&block) {
                        Ok(r) => r,
                        Err(()) => return ctx.misspec(),
                    };
                    let synced = ctx.sync_take().next();
                    let cur = match synced {
                        Some(c) => c,
                        None => ctx.read(cursor)?,
                    };
                    ctx.write_no_forward(stream_base.add_words(cur), record.len() as u64)?;
                    for (k, &w) in record.iter().enumerate() {
                        ctx.write_no_forward(stream_base.add_words(cur + 1 + k as u64), w)?;
                    }
                    let next = cur + 1 + record.len() as u64;
                    ctx.write_no_forward(cursor, next)?;
                    ctx.sync_produce(next);
                    Ok(IterOutcome::Continue)
                });
                Pipeline::new().par(workers.max(1), body).ring()
            }
            Mode::Sequential => unreachable!("parallel paths only"),
        };
        Ok(pipeline.shards(shards).run(master, recovery, Some(n))?)
    }

    /// Runs with one escape-marked block to exercise the rare path.
    pub fn run_with_planted_escape(
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

impl Kernel for Gzip {
    fn info(&self) -> Table2Entry {
        Table2Entry {
            name: "164.gzip",
            suite: "SPEC CINT 2000",
            description: "file compressor",
            paradigm: Paradigm::SpecDswp {
                stages: vec![StageLabel::S, StageLabel::Doall, StageLabel::S],
            },
            speculation: vec![SpecKind::MemoryVersioning],
        }
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "164.gzip".into(),
            iter_work: 1.2e-3,
            iterations: 4000,
            coverage: 0.99,
            stages: vec![
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.03,
                    // Whole blocks ship down the pipeline: the bandwidth
                    // wall of Figure 5(a).
                    bytes_out: 65_536.0,
                },
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.94,
                    bytes_out: 16_384.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.03,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 96.0,
            tls: TlsPlan {
                sync_fraction: 0.15,
                bytes_per_iter: 2_048.0,
                validation_words: 96.0,
            },
            chunked: true,
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
        let lay = layout(scale)?;
        let len = master.read(lay.cursor);
        assert!(len <= lay.stream_cap, "stream overflow");
        let mut out = vec![len];
        out.extend(load_words(master, lay.stream_base, len));
        Ok(out)
    }

    fn plan(&self, scale: Scale) -> Result<AnalysisPlan, KernelError> {
        let lay = layout(scale)?;
        let master = initial_master(&generate(scale, false), &lay);
        let recovery = recovery_fn(&lay, scale);
        let (in_base, stream_base, cursor) = (lay.in_base, lay.stream_base, lay.cursor);
        let (unit, stream_cap) = (scale.unit, lay.stream_cap);
        Ok(AnalysisPlan {
            name: "164.gzip",
            iterations: scale.iterations,
            master,
            recovery,
            stages: vec![
                // Stage 0 (S): the reader ships the block down the pipeline.
                StageSpec::new(
                    "read",
                    StageRole::Sequential,
                    Box::new(move |mtx| {
                        vec![Region::read("input", in_base.add_words(mtx * unit), unit)]
                    }),
                ),
                // Stage 1 (DOALL): compresses a private block version; no
                // committed-state footprint.
                StageSpec::new("compress", StageRole::Parallel, Box::new(|_| Vec::new())),
                // Stage 2 (S): appends at the cursor. The record lands at a
                // cursor-dependent offset, so the whole stream is declared.
                StageSpec::new(
                    "emit",
                    StageRole::Sequential,
                    Box::new(move |_| {
                        vec![
                            Region::read_write("cursor", cursor, 1),
                            Region::write("stream", stream_base, stream_cap),
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
        let k = Gzip;
        let scale = Scale::test();
        let seq = k.run(Mode::Sequential, scale).unwrap();
        let par = k.run(Mode::Dsmtx { workers: 2 }, scale).unwrap();
        let tls = k.run(Mode::Tls { workers: 2 }, scale).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
    }

    #[test]
    fn escape_path_recovers_everywhere() {
        let k = Gzip;
        let scale = Scale::test();
        let seq = k.run_with_planted_escape(Mode::Sequential, scale).unwrap();
        let par = k
            .run_with_planted_escape(Mode::Dsmtx { workers: 2 }, scale)
            .unwrap();
        let tls = k
            .run_with_planted_escape(Mode::Tls { workers: 2 }, scale)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, tls);
        // The escaped block is stored raw.
        assert!(seq.contains(&u64::MAX));
    }

    #[test]
    fn rle_actually_compresses_runs() {
        let block = vec![7, 7, 7, 7, 9, 9];
        let out = rle_compress(&block).unwrap();
        assert_eq!(&out[..4], &[4, 7, 2, 9]);
        assert_eq!(out.len(), 5); // two pairs + checksum
    }

    #[test]
    fn rle_rejects_escape() {
        assert!(rle_compress(&[1, ESCAPE, 2]).is_err());
    }

    #[test]
    fn profile_is_consistent() {
        Gzip.profile().check();
    }
}

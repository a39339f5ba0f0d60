//! Differential harness for §3.2 speculation-unit sharding.
//!
//! `unit_shards` must be invisible to program semantics: for every
//! workload, shard counts 1, 2, and 4 must produce byte-identical
//! committed memory, identical conflict verdicts, and an identical commit
//! order — fault-free and under pinned fault seeds. The `unit_shards = 1`
//! runs double as a regression guard that the sharded wiring collapses to
//! the pre-sharding runtime.
//!
//! Fault-free, *everything* must be bit-identical across shard counts:
//! memory, verdicts, commit order, iteration accounting. Under fault
//! injection the schedule is a pure function of `(seed, link declaration
//! order)`, and a sharded mesh has more links than an unsharded one — so
//! the injected schedules necessarily differ across topologies and the
//! per-run recovery counters are not comparable. What MUST still hold is
//! the paper's end-to-end guarantee: byte-identical committed memory
//! (equal to the sequential model) and no lost or duplicated iterations,
//! at every shard count, for every pinned seed.
//!
//! Every run ships the packed validation plane (filtered access streams
//! in `AccessBlock` frames), so the comparisons against the sequential
//! model double as its end-to-end check; the last three tests guard that
//! the packing, the batching and the filtering are actually exercised.

use dsmtx::FaultTarget;
use dsmtx_fabric::FaultRates;
use dsmtx_integration_tests::{
    run_workload_sharded, seed_from_env, FaultCase, RunSummary, Workload, ALL_WORKLOADS,
};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Pinned seeds, mirrored by CI's fault-matrix job (overridable through
/// `DSMTX_FAULT_SEED`).
const FAULT_SEEDS: [u64; 3] = [1, 20260806, 0xDEAD_BEEF];

const N: u64 = 24;

/// Asserts that two summaries describe bit-identical executions: same
/// committed memory (every page, every word), same conflict verdicts,
/// same commit order, same iteration accounting.
fn assert_identical(base: &RunSummary, other: &RunSummary, what: &str) {
    assert_eq!(base.outputs, other.outputs, "{what}: output cells diverged");
    assert_eq!(
        base.total_iterations, other.total_iterations,
        "{what}: iteration counts diverged"
    );
    assert_eq!(
        base.validation_conflicts, other.validation_conflicts,
        "{what}: conflict verdicts diverged"
    );
    assert_eq!(
        base.commit_order, other.commit_order,
        "{what}: commit order diverged"
    );
    assert_identical_memory(base, other, what);
}

/// Asserts byte-identical committed memory: same page set, same words.
fn assert_identical_memory(base: &RunSummary, other: &RunSummary, what: &str) {
    assert_eq!(
        base.memory.len(),
        other.memory.len(),
        "{what}: page sets diverged"
    );
    for ((id_a, page_a), (id_b, page_b)) in base.memory.iter().zip(other.memory.iter()) {
        assert_eq!(id_a, id_b, "{what}: page ids diverged");
        assert_eq!(page_a, page_b, "{what}: page {id_a:?} contents diverged");
    }
}

#[test]
fn shard_counts_are_semantically_invisible_fault_free() {
    for w in ALL_WORKLOADS {
        let base = run_workload_sharded(w, N, None, 1);
        assert_eq!(base.outputs, base.expected, "{w:?} shards=1");
        assert_eq!(base.total_iterations, N, "{w:?} shards=1");
        for shards in &SHARD_COUNTS[1..] {
            let s = run_workload_sharded(w, N, None, *shards);
            assert_identical(&base, &s, &format!("{w:?} shards={shards} (fault-free)"));
        }
    }
}

#[test]
fn shard_counts_preserve_memory_under_pinned_fault_seeds() {
    // Low uniform rates on all links: enough injected faults to exercise
    // the sharded recovery barrier without ballooning test time.
    let rates = FaultRates::uniform(0.05);
    for seed in FAULT_SEEDS {
        let seed = seed_from_env(seed);
        for w in ALL_WORKLOADS {
            let case = FaultCase {
                n: N,
                ..FaultCase::quick(seed, rates, FaultTarget::All, w)
            };
            let base = run_workload_sharded(w, N, Some(case.fault_config()), 1);
            assert_eq!(
                base.outputs,
                base.expected,
                "shards=1 diverged from the sequential model\n{}",
                case.reproducer()
            );
            assert_eq!(base.total_iterations, N, "{}", case.reproducer());
            for shards in &SHARD_COUNTS[1..] {
                let s = run_workload_sharded(w, N, Some(case.fault_config()), *shards);
                let what = format!(
                    "{w:?} shards={shards} seed={seed:#x}\n{}",
                    case.reproducer()
                );
                assert_eq!(
                    s.outputs, s.expected,
                    "{what}: diverged from the sequential model"
                );
                assert_eq!(
                    s.total_iterations, N,
                    "{what}: iterations lost or duplicated"
                );
                assert_identical_memory(&base, &s, &what);
            }
        }
    }
}

#[test]
fn sharded_runs_actually_split_the_page_space() {
    // Guard against the differential tests passing vacuously: with 4
    // shards and a DOALL working set spanning several pages (2048
    // iterations = 4 input + 4 output pages), more than one shard must
    // end up owning touched pages.
    let pages: Vec<_> = run_workload_sharded(Workload::DoallSum, 2048, None, 4)
        .memory
        .iter()
        .map(|(id, _)| dsmtx_mem::shard_of(*id, 4))
        .collect();
    let distinct = {
        let mut s = pages.clone();
        s.sort_unstable();
        s.dedup();
        s.len()
    };
    assert!(
        distinct >= 2,
        "all {} touched pages hashed into one of 4 shards: {pages:?}",
        pages.len()
    );
}

#[test]
fn packed_frames_are_shipped_and_shrink_the_plane() {
    // Guard against the comparisons above passing vacuously: every
    // workload must actually ship non-empty AccessBlock frames, and the
    // packed plane must cost fewer bytes than one message per record.
    for w in ALL_WORKLOADS {
        let vp = run_workload_sharded(w, N, None, 1).valplane;
        assert!(vp.blocks > 0, "{w:?}: no packed frames shipped");
        assert!(vp.block_records > 0, "{w:?}: packed frames were all empty");
        assert!(
            vp.bytes_post < vp.bytes_pre,
            "{w:?}: packing did not shrink the plane ({} !< {})",
            vp.bytes_post,
            vp.bytes_pre
        );
    }
}

#[test]
fn validation_and_commit_frames_ship_in_batches() {
    // The validation and commit planes ride the queue's batch threshold
    // instead of a flush at every subTX end, so a store-heavy DOALL moves
    // many frames per packet. Batching moves packets, not frames or
    // bytes: one block per (subTX, shard) plus one commit block per
    // subTX, and exactly the bytes of the per-subTX-flush protocol.
    use dsmtx::{IterOutcome, MtxId, MtxSystem, Program, StageKind, SystemConfig, WorkerCtx};
    use dsmtx_mem::MasterMem;
    use dsmtx_uva::{OwnerId, RegionAllocator};
    use std::sync::Arc;

    const N: u64 = 1024;
    const STORES: u64 = 32;
    let value = |i: u64, k: u64| (i * 7 + 1) ^ (k << 40);
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(N).unwrap();
    let data = heap.alloc_words(N * STORES).unwrap();
    let mut master = MasterMem::new();
    for i in 0..N {
        master.write(input.add_words(i), i * 7 + 1);
    }
    // Column-major: store k of every MTX lands in column k, so each MTX
    // scatters its stores over 32 pages and both shards.
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let x = ctx.read(input.add_words(mtx.0))?;
        for k in 0..STORES {
            ctx.write_no_forward(data.add_words(k * N + mtx.0), x ^ (k << 40))?;
        }
        Ok(IterOutcome::Continue)
    });
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 2 })
        .unit_shards(2);
    let result = MtxSystem::new(&cfg)
        .unwrap()
        .run(Program {
            master,
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                let x = m.read(input.add_words(mtx.0));
                for k in 0..STORES {
                    m.write(data.add_words(k * N + mtx.0), x ^ (k << 40));
                }
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();
    let report = &result.report;
    assert_eq!(report.recoveries, 0);
    for i in 0..N {
        for k in 0..STORES {
            assert_eq!(
                result.master.read(data.add_words(k * N + i)),
                value(i, k),
                "mtx {i} store {k}"
            );
        }
    }
    // A flush per subTX end shipped every item as its own packet here.
    let (items, packets) = (report.stats.items(), report.stats.packets());
    assert!(
        items / packets >= 8,
        "{items} items in {packets} packets: frames are not batched"
    );
    assert_eq!(report.valplane.records_post, 3 * N);
    // What the same loop shipped when every frame was flushed on its own:
    // 859,130 B at 32-byte queue slots, less 8 B for each of the
    // 3 × 1,024 frames now that a slot is 24 bytes (859,130 − 24,576).
    assert_eq!(report.valplane.bytes_post, 834_554);
}

#[test]
fn filtering_suppresses_repeat_accesses() {
    // The harness workloads touch each address once per subTX, so the
    // write-combining filter is exercised here with a loop that re-reads
    // and re-writes its cells: only the first load and the coalesced
    // final store of each cell survive, and the suppressed accesses must
    // not change the committed result.
    use dsmtx::{IterOutcome, MtxId, MtxSystem, Program, StageKind, SystemConfig, WorkerCtx};
    use dsmtx_mem::MasterMem;
    use dsmtx_uva::{OwnerId, RegionAllocator};
    use std::sync::Arc;

    let n = 16u64;
    let mut heap = RegionAllocator::new(OwnerId(0));
    let out = heap.alloc_words(n).unwrap();
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 2 });
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let cell = out.add_words(mtx.0);
        // 8 read-modify-write rounds of the same cell: 7 of the loads and
        // 7 of the stores are redundant on the validation plane.
        for _ in 0..8 {
            let v = ctx.read(cell)?;
            ctx.write(cell, v + mtx.0 + 1)?;
        }
        Ok(IterOutcome::Continue)
    });
    let result = MtxSystem::new(&cfg)
        .unwrap()
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(|_, _| IterOutcome::Continue),
            on_commit: None,
            iteration_limit: Some(n),
        })
        .unwrap();
    assert!(
        result.report.valplane.records_filtered > 0,
        "read-modify-write loop produced no filterable accesses"
    );
    for i in 0..n {
        assert_eq!(
            result.master.read(out.add_words(i)),
            8 * (i + 1),
            "cell {i} wrong"
        );
    }
}

//! The per-MTX allocation budget of the runtime's subTX path.
//!
//! Each worker and unit keeps its scratch buffers across subTXs, so the
//! only allocations an extra MTX may cost are the frames it ships: one
//! exact-size copy of each finished block (the box and at most three
//! streams), freed by the consumer. A buffer that regrows from empty on
//! every subTX shows up here as a per-MTX count that exceeds the budget
//! and grows with the records per subTX. Telemetry that a role never
//! writes must cost nothing either: a link end's `FabricStats` and an
//! unwritten `Histogram` allocate no buckets.
//!
//! This binary holds exactly one test: the counting allocator sees every
//! thread, so nothing else may allocate while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsmtx::{
    IterOutcome, MtxId, MtxSystem, Program, RunReport, StageId, StageKind, SystemConfig, WorkerCtx,
};
use dsmtx_fabric::FabricStats;
use dsmtx_mem::MasterMem;
use dsmtx_obs::Histogram;
use dsmtx_uva::{OwnerId, RegionAllocator};

/// Counts every allocation and reallocation, on every thread.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// MTXs of the short and the long measured run; their difference is
/// what the extra MTXs cost, with every per-run cost cancelled.
const SHORT: u64 = 256;
const LONG: u64 = 1024;

/// Words between two columns of the store region: each of an MTX's
/// stores lands on a page of its own.
const COLUMN: u64 = LONG;

/// User values each pipeline stage passes to the next.
const USER_VALUES: u64 = 64;

/// Measured runs per case; the median is reported.
const ROUNDS: usize = 3;

/// Allocations of one `run` call and its report.
fn counted_run(system: &MtxSystem, program: Program) -> (u64, RunReport) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = system.run(program).expect("run");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(result.report.recoveries, 0, "the loop must not recover");
    (allocs, result.report)
}

/// Allocations made building and dropping one `make()`.
fn allocs_of<T>(make: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    drop(std::hint::black_box(make()));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocations per extra MTX, blocks shipped per extra MTX, and
/// allocations of one whole [`LONG`] run, of the loop `program(n)`
/// builds: after a warm-up run, the medians over [`ROUNDS`] of the
/// difference between a [`LONG`] and a [`SHORT`] run and of the [`LONG`]
/// run.
fn per_extra_mtx(system: &MtxSystem, program: impl Fn(u64) -> Program) -> (f64, f64, u64) {
    counted_run(system, program(SHORT));
    let extra = (LONG - SHORT) as f64;
    let mut allocs = Vec::new();
    let mut runs = Vec::new();
    let mut blocks = 0.0;
    for _ in 0..ROUNDS {
        let (short, short_report) = counted_run(system, program(SHORT));
        let (long, long_report) = counted_run(system, program(LONG));
        assert_eq!(long_report.committed, LONG);
        allocs.push((long as f64 - short as f64) / extra);
        runs.push(long);
        blocks = (long_report.valplane.blocks - short_report.valplane.blocks) as f64 / extra;
    }
    allocs.sort_by(f64::total_cmp);
    runs.sort_unstable();
    (allocs[ROUNDS / 2], blocks, runs[ROUNDS / 2])
}

/// A 2-replica Spec-DOALL over 2 try-commit shards: MTX `i` loads
/// `input[i]` and stores `x + k` into column `k`, `k < writes`.
fn scatter(writes: u64) -> (MtxSystem, impl Fn(u64) -> Program) {
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(LONG).unwrap();
    let data = heap.alloc_words(writes * COLUMN).unwrap();
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 2 })
        .unit_shards(2);
    let system = MtxSystem::new(&cfg).unwrap();
    let slot = move |i: u64, k: u64| data.add_words(k * COLUMN + i);
    let program = move |n: u64| {
        let mut master = MasterMem::new();
        for i in 0..n {
            master.write(input.add_words(i), 7 * i + 1);
        }
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let x = ctx.read(input.add_words(mtx.0))?;
            for k in 0..writes {
                ctx.write_no_forward(slot(mtx.0, k), x.wrapping_add(k))?;
            }
            Ok(IterOutcome::Continue)
        });
        Program {
            master,
            stages: vec![body],
            recovery: Box::new(move |m: MtxId, mem: &mut MasterMem| {
                let x = mem.read(input.add_words(m.0));
                for k in 0..writes {
                    mem.write(slot(m.0, k), x.wrapping_add(k));
                }
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(n),
        }
    };
    (system, program)
}

/// An `[S, P(2), S]` pipeline that passes [`USER_VALUES`] user values
/// from each stage to the next: stage 0 loads `input[i]`, the last stage
/// stores the sum of what reached it into `out[i]`.
fn pipeline() -> (MtxSystem, impl Fn(u64) -> Program) {
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(LONG).unwrap();
    let out = heap.alloc_words(LONG).unwrap();
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Sequential)
        .stage(StageKind::Parallel { replicas: 2 })
        .stage(StageKind::Sequential);
    let system = MtxSystem::new(&cfg).unwrap();
    let sum = |x: u64| (0..USER_VALUES).map(|v| x + v + 1).sum::<u64>();
    let program = move |n: u64| {
        let mut master = MasterMem::new();
        for i in 0..n {
            master.write(input.add_words(i), 3 * i);
        }
        let first = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let x = ctx.read(input.add_words(mtx.0))?;
            for v in 0..USER_VALUES {
                ctx.produce(x + v);
            }
            Ok(IterOutcome::Continue)
        });
        let middle = Arc::new(|ctx: &mut WorkerCtx, _: MtxId| {
            for _ in 0..USER_VALUES {
                let v = ctx.consume();
                ctx.produce(v + 1);
            }
            Ok(IterOutcome::Continue)
        });
        let last = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let total = (0..USER_VALUES).map(|_| ctx.consume()).sum::<u64>();
            ctx.write_no_forward(out.add_words(mtx.0), total)?;
            Ok(IterOutcome::Continue)
        });
        Program {
            master,
            stages: vec![first, middle, last],
            recovery: Box::new(move |m: MtxId, mem: &mut MasterMem| {
                let x = mem.read(input.add_words(m.0));
                mem.write(out.add_words(m.0), sum(x));
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(n),
        }
    };
    (system, program)
}

/// A 2-replica Spec-DOALL whose stage is a synchronization ring: MTX `i`
/// takes the running sum MTX `i - 1` forwarded (MTX 0 loads it from the
/// accumulator), adds `input[i]`, stores the sum to the accumulator and
/// forwards it with one `sync_produce`.
fn ring() -> (MtxSystem, impl Fn(u64) -> Program) {
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(LONG).unwrap();
    let acc = heap.alloc_words(1).unwrap();
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 2 })
        .ring(StageId(0));
    let system = MtxSystem::new(&cfg).unwrap();
    let program = move |n: u64| {
        let mut master = MasterMem::new();
        for i in 0..n {
            master.write(input.add_words(i), 5 * i + 2);
        }
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let synced = ctx.sync_take().next();
            let sum = match synced {
                Some(v) => v,
                None => ctx.read(acc)?,
            };
            let next = sum + ctx.read(input.add_words(mtx.0))?;
            ctx.write_no_forward(acc, next)?;
            ctx.sync_produce(next);
            Ok(IterOutcome::Continue)
        });
        Program {
            master,
            stages: vec![body],
            recovery: Box::new(move |m: MtxId, mem: &mut MasterMem| {
                let next = mem.read(acc) + mem.read(input.add_words(m.0));
                mem.write(acc, next);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(n),
        }
    };
    (system, program)
}

#[test]
fn subtx_path_allocates_only_the_shipped_frames() {
    // Each row's budget is 4 allocations per shipped block plus its
    // headroom. The ring row reads a flat 4.0, so half an allocation
    // fails one extra allocation per MTX by a clear margin; the other
    // rows spread over a few tenths and keep a whole one.
    let mut rows = Vec::new();
    for writes in [8, 32, 64] {
        let (system, program) = scatter(writes);
        let row = per_extra_mtx(&system, program);
        rows.push((format!("doall w={writes}"), 1.0, row));
    }
    let (system, program) = pipeline();
    rows.push((
        "[S, P(2), S]".to_owned(),
        1.0,
        per_extra_mtx(&system, program),
    ));
    let (system, program) = ring();
    rows.push(("ring P(2)".to_owned(), 0.5, per_extra_mtx(&system, program)));

    // Telemetry nobody writes: a link end's counters, and the histogram
    // that end never records into.
    let idle = (allocs_of(FabricStats::new), allocs_of(Histogram::new));

    for (name, _, (allocs, blocks, run)) in &rows {
        println!(
            "{name}: {allocs:.2} allocations and {blocks:.2} blocks per extra MTX, \
             {run} allocations in one {LONG}-MTX run"
        );
    }
    println!(
        "unwritten telemetry: FabricStats::new() {} allocations, Histogram::new() {}",
        idle.0, idle.1
    );
    assert_eq!(idle, (0, 0), "telemetry that is never written allocates");
    for (name, headroom, (allocs, blocks, _)) in &rows {
        let budget = 4.0 * blocks + headroom;
        assert!(
            *allocs <= budget,
            "{name}: {allocs:.2} allocations per MTX, over the budget of {budget} \
             (4 per shipped block + {headroom})"
        );
    }
    // The count must not grow with the records per subTX.
    let (w8, w64) = (rows[0].2 .0, rows[2].2 .0);
    assert!(
        (w64 - w8).abs() <= 1.0,
        "allocations per MTX grow with the stores per MTX: {w8:.2} at 8, {w64:.2} at 64"
    );
}

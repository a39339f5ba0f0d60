//! End-to-end tests of the MTX runtime: pipelines, speculation,
//! misspeculation recovery, TLS rings, termination modes.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use dsmtx::{
    IterOutcome, MtxId, MtxSystem, Program, SpanMetrics, StageId, StageKind, SystemConfig,
    TraceKind, WorkerCtx,
};
use dsmtx_mem::MasterMem;
use dsmtx_obs::{schema, Registry};
use dsmtx_uva::{OwnerId, RegionAllocator};

fn heap0() -> RegionAllocator {
    RegionAllocator::new(OwnerId(0))
}

fn noop_recovery() -> dsmtx::RecoveryFn {
    Box::new(|_, _| IterOutcome::Continue)
}

/// How long one test may run. Healthy tests take milliseconds; a lost
/// flush or wakeup in the runtime would otherwise hang the suite without
/// saying which test is stuck.
const DEADLINE: Duration = Duration::from_secs(30);

/// Runs `body` on a thread of its own and fails the calling test, with
/// its name, when `body` is still running after [`DEADLINE`]. A panic in
/// `body` fails the test as usual.
fn under_deadline(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(DEADLINE) {
        let test = std::thread::current().name().unwrap_or("?").to_owned();
        panic!("DEADLINE: {test} still running after {DEADLINE:?} (lost flush or wakeup?)");
    }
    // Finished, or unwinding dropped `done`: surface the panic, if any.
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Spec-DOALL: independent iterations, no communication, counted loop.
#[test]
fn spec_doall_independent_iterations() {
    under_deadline(|| {
        const N: u64 = 24;
        let mut heap = heap0();
        let input = heap.alloc_words(N).unwrap();
        let output = heap.alloc_words(N).unwrap();
        let mut master = MasterMem::new();
        for i in 0..N {
            master.write(input.add_words(i), 3 * i + 1);
        }

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 4 });
        let system = MtxSystem::new(&cfg).unwrap();

        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let x = ctx.read(input.add_words(mtx.0))?;
            ctx.write_no_forward(output.add_words(mtx.0), x * x)?;
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master,
                stages: vec![body],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        for i in 0..N {
            let x = 3 * i + 1;
            assert_eq!(result.master.read(output.add_words(i)), x * x, "slot {i}");
        }
        assert_eq!(result.report.committed, N);
        assert_eq!(result.report.recoveries, 0);
    });
}

/// A three-stage Spec-DSWP pipeline [S, P(2), S] with produce/consume and
/// uncommitted value forwarding, checked against a sequential oracle.
#[test]
fn three_stage_pipeline_matches_sequential() {
    under_deadline(|| {
        const N: u64 = 16;
        let mut heap = heap0();
        let input = heap.alloc_words(N).unwrap();
        let checksum = heap.alloc_words(1).unwrap();
        let staged = heap.alloc_words(N).unwrap(); // written stage 0, read stage 1 via forwarding
        let mut master = MasterMem::new();
        for i in 0..N {
            master.write(input.add_words(i), i + 7);
        }

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential)
            .stage(StageKind::Parallel { replicas: 2 })
            .stage(StageKind::Sequential);
        let system = MtxSystem::new(&cfg).unwrap();

        // Stage 0: read input, stash doubled value in memory (forwarded) and
        // produce the index.
        let s0 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let x = ctx.read(input.add_words(mtx.0))?;
            ctx.write(staged.add_words(mtx.0), 2 * x)?;
            ctx.produce(mtx.0);
            Ok(IterOutcome::Continue)
        });
        // Stage 1 (parallel): read the forwarded value, square it, produce it.
        let s1 = Arc::new(move |ctx: &mut WorkerCtx, _mtx: MtxId| {
            let idx = ctx.consume();
            let doubled = ctx.read(staged.add_words(idx))?;
            ctx.produce(doubled * doubled);
            Ok(IterOutcome::Continue)
        });
        // Stage 2: fold into a running checksum.
        let s2 = Arc::new(move |ctx: &mut WorkerCtx, _mtx: MtxId| {
            let v = ctx.consume();
            let acc = ctx.read(checksum)?;
            ctx.write(checksum, acc.wrapping_mul(31).wrapping_add(v))?;
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master,
                stages: vec![s0, s1, s2],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        // Sequential oracle.
        let mut expect = 0u64;
        for i in 0..N {
            let x = i + 7;
            let sq = (2 * x) * (2 * x);
            expect = expect.wrapping_mul(31).wrapping_add(sq);
        }
        assert_eq!(result.master.read(checksum), expect);
        assert_eq!(result.report.committed, N);
        assert_eq!(result.report.recoveries, 0);
    });
}

/// A loop whose every iteration truly depends on the previous one, but
/// parallelized as if independent: value validation must catch the
/// dependence, recovery must re-execute, and the final result must still
/// be exact (progress through repeated rollback).
#[test]
fn constant_conflicts_still_converge() {
    under_deadline(|| {
        const N: u64 = 10;
        let mut heap = heap0();
        let counter = heap.alloc_words(1).unwrap();
        let master = MasterMem::new();

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 2 });
        let system = MtxSystem::new(&cfg).unwrap();

        let body = Arc::new(move |ctx: &mut WorkerCtx, _mtx: MtxId| {
            let c = ctx.read(counter)?;
            ctx.write_no_forward(counter, c + 1)?;
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master,
                stages: vec![body],
                recovery: Box::new(move |_, master| {
                    let c = master.read(counter);
                    master.write(counter, c + 1);
                    IterOutcome::Continue
                }),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        assert_eq!(result.master.read(counter), N, "count must be exact");
        assert!(
            result.report.recoveries > 0,
            "the dependence must have manifested at least once"
        );
        assert_eq!(result.report.total_iterations(), N);
    });
}

/// Explicit `mtx_misspec` (failed control speculation) for one iteration.
#[test]
fn worker_misspec_triggers_recovery() {
    under_deadline(|| {
        const N: u64 = 12;
        const BAD: u64 = 5;
        let mut heap = heap0();
        let out = heap.alloc_words(N).unwrap();
        let master = MasterMem::new();

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 3 });
        let system = MtxSystem::new(&cfg).unwrap();

        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            if mtx.0 == BAD {
                // Simulated rare path that speculation assumed untaken.
                return ctx.misspec();
            }
            ctx.write_no_forward(out.add_words(mtx.0), mtx.0 + 100)?;
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master,
                stages: vec![body],
                recovery: Box::new(move |mtx, master| {
                    // Sequential re-execution handles the rare path exactly.
                    master.write(out.add_words(mtx.0), mtx.0 + 100);
                    IterOutcome::Continue
                }),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        for i in 0..N {
            assert_eq!(result.master.read(out.add_words(i)), i + 100, "slot {i}");
        }
        assert_eq!(result.report.recoveries, 1);
        assert_eq!(result.report.recovered_iterations, 1);
        assert_eq!(result.report.total_iterations(), N);
    });
}

/// Uncounted loop: a sequential first stage discovers the exit condition
/// in the data (linked-list style traversal bound in memory).
#[test]
fn exit_outcome_terminates_uncounted_loop() {
    under_deadline(|| {
        let mut heap = heap0();
        let len_cell = heap.alloc_words(1).unwrap();
        let sum = heap.alloc_words(1).unwrap();
        let mut master = MasterMem::new();
        master.write(len_cell, 7); // the loop should run 7 iterations

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential)
            .stage(StageKind::Sequential);
        let system = MtxSystem::new(&cfg).unwrap();

        let s0 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let n = ctx.read(len_cell)?;
            ctx.produce(mtx.0 + 1);
            Ok(if mtx.0 + 1 >= n {
                IterOutcome::Exit
            } else {
                IterOutcome::Continue
            })
        });
        let s1 = Arc::new(move |ctx: &mut WorkerCtx, _mtx: MtxId| {
            let v = ctx.consume();
            let acc = ctx.read(sum)?;
            ctx.write(sum, acc + v)?;
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master,
                stages: vec![s0, s1],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: None,
            })
            .unwrap();

        assert_eq!(result.master.read(sum), (1..=7).sum::<u64>());
        assert_eq!(result.report.committed, 7);
        assert_eq!(result.report.last_iteration, Some(MtxId(6)));
    });
}

/// TLS/DOACROSS ring: a synchronized cross-iteration dependence forwarded
/// replica-to-replica with `sync_produce`/`sync_take`.
#[test]
fn tls_ring_synchronized_dependence() {
    under_deadline(|| {
        const N: u64 = 18;
        let mut heap = heap0();
        let input = heap.alloc_words(N).unwrap();
        let total = heap.alloc_words(1).unwrap();
        let mut master = MasterMem::new();
        for i in 0..N {
            master.write(input.add_words(i), i * i + 1);
        }

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 3 })
            .ring(StageId(0));
        let system = MtxSystem::new(&cfg).unwrap();

        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            // Receive the running sum from the previous iteration (0 at the
            // start; re-derived from committed memory after a recovery).
            let sums = ctx.sync_take();
            let acc = match sums.first() {
                Some(&v) => v,
                None => ctx.read(total)?, // iteration 0 or post-recovery
            };
            let x = ctx.read_private(input.add_words(mtx.0))?; // read-only input
            let new_acc = acc + x;
            // Persist so the value is committed (and recoverable), and forward
            // to the next iteration on the ring.
            ctx.write_no_forward(total, new_acc)?;
            ctx.sync_produce(new_acc);
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master,
                stages: vec![body],
                recovery: Box::new(move |mtx, master| {
                    let acc = master.read(total);
                    let x = master.read(input.add_words(mtx.0));
                    master.write(total, acc + x);
                    IterOutcome::Continue
                }),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        let expect: u64 = (0..N).map(|i| i * i + 1).sum();
        assert_eq!(result.master.read(total), expect);
        assert_eq!(result.report.recoveries, 0, "synchronized: no misspec");
    });
}

/// Zero-iteration loop: the system must terminate immediately.
#[test]
fn zero_iteration_loop() {
    under_deadline(|| {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 2 });
        let system = MtxSystem::new(&cfg).unwrap();
        let body = Arc::new(|_: &mut WorkerCtx, _: MtxId| Ok(IterOutcome::Continue));
        let result = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(0),
            })
            .unwrap();
        assert_eq!(result.report.committed, 0);
        assert_eq!(result.report.last_iteration, None);
    });
}

/// Single-iteration loop.
#[test]
fn single_iteration_loop() {
    under_deadline(|| {
        let mut heap = heap0();
        let cell = heap.alloc_words(1).unwrap();
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential);
        let system = MtxSystem::new(&cfg).unwrap();
        let body = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| {
            ctx.write(cell, 99)?;
            Ok(IterOutcome::Continue)
        });
        let result = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(1),
            })
            .unwrap();
        assert_eq!(result.master.read(cell), 99);
        assert_eq!(result.report.committed, 1);
    });
}

/// The on-commit hook observes MTXs strictly in iteration order.
#[test]
fn commit_hook_sees_iteration_order() {
    under_deadline(|| {
        const N: u64 = 20;
        let seen = Arc::new(parking_lot_stub::Mutex::new(Vec::new()));
        let seen2 = seen.clone();

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 4 });
        let system = MtxSystem::new(&cfg).unwrap();
        let body = Arc::new(|_: &mut WorkerCtx, _: MtxId| Ok(IterOutcome::Continue));
        let result = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: noop_recovery(),
                on_commit: Some(Box::new(move |mtx, _| {
                    seen2.lock().push(mtx.0);
                })),
                iteration_limit: Some(N),
            })
            .unwrap();
        assert_eq!(result.report.committed, N);
        let order = seen.lock().clone();
        assert_eq!(order, (0..N).collect::<Vec<_>>());
    });
}

/// Trace invariant: commits appear in iteration order and every iteration
/// has subTX begin/end events.
#[test]
fn trace_records_commit_order() {
    under_deadline(|| {
        const N: u64 = 8;
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 2 });
        let system = MtxSystem::new(&cfg).unwrap().trace(true);
        let body = Arc::new(|_: &mut WorkerCtx, _: MtxId| Ok(IterOutcome::Continue));
        let result = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        let commits: Vec<u64> = result
            .report
            .trace
            .iter()
            .filter(|e| e.kind == TraceKind::Committed)
            .map(|e| e.mtx.unwrap().0)
            .collect();
        assert_eq!(commits, (0..N).collect::<Vec<_>>());

        let begins = result
            .report
            .trace
            .iter()
            .filter(|e| e.kind == TraceKind::SubTxBegin)
            .count() as u64;
        assert!(begins >= N, "every iteration has at least one subTX begin");
    });
}

/// Worker-private scratch (memory versioning) never reaches committed
/// memory.
#[test]
fn private_writes_stay_private() {
    under_deadline(|| {
        const N: u64 = 8;
        let mut heap = heap0();
        let out = heap.alloc_words(N).unwrap();
        let scratch_probe = heap.alloc_words(1).unwrap();

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 2 });
        let system = MtxSystem::new(&cfg).unwrap();

        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            // Private scratch in the worker's own UVA region.
            let scratch = ctx.heap().alloc_words(4).unwrap();
            ctx.write_private(scratch, mtx.0 * 10)?;
            let v = ctx.read_private(scratch)?;
            ctx.write_no_forward(out.add_words(mtx.0), v + 1)?;
            // Also write privately to a shared location: must NOT commit.
            ctx.write_private(scratch_probe, 0xDEAD)?;
            ctx.heap().free(scratch).unwrap();
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        for i in 0..N {
            assert_eq!(result.master.read(out.add_words(i)), i * 10 + 1);
        }
        assert_eq!(
            result.master.read(scratch_probe),
            0,
            "private writes must never commit"
        );
    });
}

/// Program/pipeline mismatch is rejected up front.
#[test]
fn stage_count_mismatch_rejected() {
    under_deadline(|| {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential)
            .stage(StageKind::Sequential);
        let system = MtxSystem::new(&cfg).unwrap();
        let body: dsmtx::StageFn =
            Arc::new(|_: &mut WorkerCtx, _: MtxId| Ok(IterOutcome::Continue));
        let err = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(1),
            })
            .unwrap_err();
        assert!(matches!(err, dsmtx::RunError::StageCountMismatch { .. }));
    });
}

/// Misspeculation inside a multi-stage pipeline: later stages of squashed
/// iterations must unwind cleanly and the pipeline must refill.
#[test]
fn recovery_in_pipeline_refills() {
    under_deadline(|| {
        const N: u64 = 14;
        let mut heap = heap0();
        let dep = heap.alloc_words(1).unwrap();
        let out = heap.alloc_words(N).unwrap();
        let mut master = MasterMem::new();
        master.write(dep, 1);

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential)
            .stage(StageKind::Parallel { replicas: 2 });
        let system = MtxSystem::new(&cfg).unwrap();

        // Stage 0 produces the iteration id. Stage 1 reads a shared cell that
        // iteration 6 also writes — a rare cross-iteration dependence.
        let s0 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            ctx.produce(mtx.0);
            Ok(IterOutcome::Continue)
        });
        let s1 = Arc::new(move |ctx: &mut WorkerCtx, _mtx: MtxId| {
            let i = ctx.consume();
            let d = ctx.read(dep)?;
            if i == 6 {
                ctx.write_no_forward(dep, d + 1)?;
            }
            ctx.write_no_forward(out.add_words(i), d * 1000 + i)?;
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master,
                stages: vec![s0, s1],
                recovery: Box::new(move |mtx, master| {
                    let d = master.read(dep);
                    if mtx.0 == 6 {
                        master.write(dep, d + 1);
                    }
                    master.write(out.add_words(mtx.0), d * 1000 + mtx.0);
                    IterOutcome::Continue
                }),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        // Sequential oracle.
        let mut d = 1u64;
        for i in 0..N {
            let before = d;
            if i == 6 {
                d += 1;
            }
            assert_eq!(
                result.master.read(out.add_words(i)),
                before * 1000 + i,
                "slot {i}"
            );
        }
        assert_eq!(result.master.read(dep), 2);
        assert_eq!(result.report.total_iterations(), N);
    });
}

/// Exit discovered by a *later* pipeline stage (control speculation across
/// stages).
#[test]
fn exit_from_second_stage() {
    under_deadline(|| {
        let mut heap = heap0();
        let seen = heap.alloc_words(1).unwrap();
        let master = MasterMem::new();

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential)
            .stage(StageKind::Sequential);
        let system = MtxSystem::new(&cfg).unwrap();

        let s0 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            ctx.produce(mtx.0);
            Ok(IterOutcome::Continue)
        });
        let s1 = Arc::new(move |ctx: &mut WorkerCtx, _| {
            let i = ctx.consume();
            let acc = ctx.read(seen)?;
            ctx.write(seen, acc + 1)?;
            Ok(if i == 4 {
                IterOutcome::Exit
            } else {
                IterOutcome::Continue
            })
        });

        let result = system
            .run(Program {
                master,
                stages: vec![s0, s1],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: None,
            })
            .unwrap();
        assert_eq!(result.report.committed, 5);
        assert_eq!(result.master.read(seen), 5);
    });
}

/// COA transfers whole pages: after touching one word the rest of the page
/// is local (fault count does not grow per word).
#[test]
fn coa_page_granularity_prefetches() {
    under_deadline(|| {
        const N: u64 = 64; // all within one page (512 words)
        let mut heap = heap0();
        let arr = heap.alloc_words(N).unwrap();
        let out = heap.alloc_words(1).unwrap();
        let mut master = MasterMem::new();
        for i in 0..N {
            master.write(arr.add_words(i), i);
        }

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential);
        let system = MtxSystem::new(&cfg).unwrap();

        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let x = ctx.read(arr.add_words(mtx.0))?;
            let acc = ctx.read(out)?;
            ctx.write(out, acc + x)?;
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master,
                stages: vec![body],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        assert_eq!(result.master.read(out), (0..N).sum::<u64>());
        // arr spans one or two pages, out one more: a handful of pages, far
        // fewer than N faults.
        assert!(
            result.report.coa_pages_served <= 8,
            "COA must be page-granular: served {}",
            result.report.coa_pages_served
        );
    });
}

/// Minimal stand-in for a mutex (avoid adding a dev-dependency to core).
mod parking_lot_stub {
    pub struct Mutex<T>(std::sync::Mutex<T>);
    impl<T> Mutex<T> {
        pub fn new(v: T) -> Self {
            Mutex(std::sync::Mutex::new(v))
        }
        pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0.lock().unwrap()
        }
    }
}

/// `mtx_writeTo`: a store forwarded to one specific later stage only.
#[test]
fn targeted_forwarding_reaches_one_stage() {
    under_deadline(|| {
        const N: u64 = 10;
        let mut heap = heap0();
        let staged = heap.alloc_words(N).unwrap();
        let out = heap.alloc_words(N).unwrap();

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential)
            .stage(StageKind::Parallel { replicas: 2 })
            .stage(StageKind::Sequential);
        let system = MtxSystem::new(&cfg).unwrap();

        // Stage 0 targets stage 2 directly (stage 1 never reads it).
        let s0 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            ctx.write_to_stage(StageId(2), staged.add_words(mtx.0), mtx.0 * 11)?;
            ctx.produce_to(StageId(1), mtx.0);
            Ok(IterOutcome::Continue)
        });
        let s1 = Arc::new(move |ctx: &mut WorkerCtx, _| {
            let i = ctx.consume_from(StageId(0));
            ctx.produce_to(StageId(2), i + 1000);
            Ok(IterOutcome::Continue)
        });
        let s2 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let tagged = ctx.consume_from(StageId(1));
            let staged_v = ctx.read(staged.add_words(mtx.0))?;
            ctx.write_no_forward(out.add_words(mtx.0), staged_v + tagged)?;
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![s0, s1, s2],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();
        for i in 0..N {
            assert_eq!(result.master.read(out.add_words(i)), i * 11 + i + 1000);
        }
        assert_eq!(result.report.recoveries, 0, "no spurious conflicts");
    });
}

/// Two parallel stages in one pipeline: iteration-i frames route between
/// the matching replicas of each stage.
#[test]
fn two_parallel_stages_route_correctly() {
    under_deadline(|| {
        const N: u64 = 18;
        let mut heap = heap0();
        let out = heap.alloc_words(N).unwrap();

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 2 })
            .stage(StageKind::Parallel { replicas: 3 })
            .stage(StageKind::Sequential);
        let system = MtxSystem::new(&cfg).unwrap();

        let s0 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            ctx.produce_to(StageId(1), mtx.0 * 2);
            Ok(IterOutcome::Continue)
        });
        let s1 = Arc::new(move |ctx: &mut WorkerCtx, _| {
            let v = ctx.consume_from(StageId(0));
            ctx.produce_to(StageId(2), v + 1);
            Ok(IterOutcome::Continue)
        });
        let s2 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let v = ctx.consume_from(StageId(1));
            ctx.write_no_forward(out.add_words(mtx.0), v)?;
            Ok(IterOutcome::Continue)
        });

        let result = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![s0, s1, s2],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();
        for i in 0..N {
            assert_eq!(result.master.read(out.add_words(i)), i * 2 + 1, "slot {i}");
        }
    });
}

/// Runtime invariants hold on a clean traced pipeline run: commit order
/// equals iteration order, every Committed MTX was Validated first, and
/// every SubTxBegin has a matching SubTxEnd. The report's registry
/// export carries every span-derived metric, one sample per MTX.
#[test]
fn trace_analysis_invariants_hold_on_clean_run() {
    under_deadline(|| {
        const N: u64 = 16;
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential)
            .stage(StageKind::Parallel { replicas: 2 });
        let system = MtxSystem::new(&cfg).unwrap().trace(true);
        let s0 = Arc::new(|ctx: &mut WorkerCtx, mtx: MtxId| {
            ctx.produce(mtx.0);
            Ok(IterOutcome::Continue)
        });
        let s1 = Arc::new(|ctx: &mut WorkerCtx, _: MtxId| {
            let _ = ctx.consume();
            Ok(IterOutcome::Continue)
        });
        let result = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![s0, s1],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();

        let run = result.report.spans();
        run.check().expect("clean run has no violations");
        // Commit order is exactly iteration order.
        assert_eq!(run.commit_order, (0..N).collect::<Vec<_>>());
        // The latency pipeline saw every MTX.
        let metrics = SpanMetrics::new(&run.spans);
        assert_eq!(metrics.total_latency.count(), N);
        assert_eq!(metrics.validation_wait.count(), N);
        assert_eq!(metrics.commit_wait.count(), N);
        // Both stages ran and produced exec histograms.
        assert_eq!(metrics.stage_exec.len(), 2);
        assert_eq!(result.report.trace_dropped, 0);

        let reg = Registry::new();
        result.report.to_registry(&reg);
        for stage in ["0", "1"] {
            let exec = reg.histogram(schema::STAGE_EXEC_US, &[("stage", stage)]);
            assert_eq!(exec.count(), N, "stage {stage}");
        }
        for name in [
            schema::MTX_VALIDATION_WAIT_US,
            schema::MTX_COMMIT_WAIT_US,
            schema::MTX_TOTAL_LATENCY_US,
        ] {
            assert_eq!(reg.histogram(name, &[]).count(), N, "{name}");
        }
        let period = reg.histogram(schema::MTX_COMMIT_PERIOD_US, &[]);
        assert_eq!(period.count(), N - 1);
        // One gauge per worker: the sequential stage's and two replicas.
        let busy_gauges = reg
            .to_jsonl()
            .lines()
            .filter(|l| l.contains(&format!("\"name\":\"{}\"", schema::ROLE_BUSY_PPM)))
            .count();
        assert_eq!(busy_gauges, 3);
        for w in 0..3 {
            let role = format!("worker{w}");
            let ppm = reg.gauge(schema::ROLE_BUSY_PPM, &[("role", &role)]).value();
            assert!(ppm > 0 && ppm <= 1_000_000, "{role} busy {ppm} ppm");
        }
    });
}

/// The invariants still hold through misspeculation recovery (recovery
/// legitimately interrupts subTXs and skips the boundary iteration, which
/// the span checks must not flag).
#[test]
fn trace_analysis_invariants_hold_through_recovery() {
    under_deadline(|| {
        const N: u64 = 12;
        let mut heap = heap0();
        let cell = heap.alloc_words(1).unwrap();
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let v = ctx.read(cell)?;
            if mtx.0 == 4 {
                ctx.write_no_forward(cell, v + 1)?;
            }
            Ok(IterOutcome::Continue)
        });
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 2 });
        let result = MtxSystem::new(&cfg)
            .unwrap()
            .trace(true)
            .run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: Box::new(move |mtx, m| {
                    if mtx.0 == 4 {
                        let v = m.read(cell);
                        m.write(cell, v + 1);
                    }
                    IterOutcome::Continue
                }),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();
        assert!(result.report.recoveries >= 1, "dependence must manifest");
        let run = result.report.spans();
        run.check().expect("recovery is not an invariant violation");
        assert_eq!(run.rounds.len() as u64, result.report.recoveries);
        // Committed MTX ids still strictly increase.
        assert!(run.commit_order.windows(2).all(|w| w[0] < w[1]));
    });
}

/// A tiny trace capacity drops events past the cap and reports the count,
/// instead of growing without bound.
#[test]
fn trace_capacity_caps_and_counts_drops() {
    under_deadline(|| {
        const N: u64 = 16;
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 2 });
        let system = MtxSystem::new(&cfg).unwrap().trace(true).trace_capacity(8);
        let body = Arc::new(|_: &mut WorkerCtx, _: MtxId| Ok(IterOutcome::Continue));
        let result = system
            .run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: noop_recovery(),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();
        assert_eq!(result.report.trace.len(), 8);
        assert!(result.report.trace_dropped > 0, "the rest was counted");
    });
}

/// Misspeculation causes are attributed: explicit `mtx_misspec` vs
/// validation-detected conflicts.
#[test]
fn misspec_causes_are_attributed() {
    under_deadline(|| {
        const N: u64 = 10;
        let mut heap = heap0();
        let cell = heap.alloc_words(1).unwrap();

        // Explicit misspec at iteration 2; a genuine dependence manifests
        // around iteration 5 (read-modify-write of a shared cell).
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            if mtx.0 == 2 {
                return ctx.misspec();
            }
            let v = ctx.read(cell)?;
            if mtx.0 == 5 {
                ctx.write_no_forward(cell, v + 1)?;
            }
            Ok(IterOutcome::Continue)
        });
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 2 });
        let result = MtxSystem::new(&cfg)
            .unwrap()
            .run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: Box::new(move |mtx, m| {
                    if mtx.0 == 5 {
                        let v = m.read(cell);
                        m.write(cell, v + 1);
                    }
                    IterOutcome::Continue
                }),
                on_commit: None,
                iteration_limit: Some(N),
            })
            .unwrap();
        assert!(result.report.worker_misspecs >= 1, "explicit misspec seen");
        assert_eq!(result.master.read(cell), 1);
        assert_eq!(result.report.total_iterations(), N);
        assert!(
            result.report.recoveries >= 1,
            "at least the explicit one recovered"
        );
    });
}

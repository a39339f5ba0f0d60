//! Adversarial recovery scenarios: boundaries, pile-ups, and interactions
//! between misspeculation, termination, and pipelines.

use std::sync::Arc;

use dsmtx::{
    IterOutcome, MtxId, MtxSystem, Program, StageId, StageKind, SystemConfig, TraceKind, WorkerCtx,
};
use dsmtx_mem::MasterMem;
use dsmtx_uva::{OwnerId, RegionAllocator};

fn heap0() -> RegionAllocator {
    RegionAllocator::new(OwnerId(0))
}

fn doall(replicas: u16) -> MtxSystem {
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas });
    MtxSystem::new(&cfg).unwrap()
}

#[test]
fn misspec_on_first_iteration() {
    let mut heap = heap0();
    let out = heap.alloc_words(4).unwrap();
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if mtx.0 == 0 {
            return ctx.misspec();
        }
        ctx.write_no_forward(out.add_words(mtx.0), mtx.0)?;
        Ok(IterOutcome::Continue)
    });
    let result = doall(2)
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                m.write(out.add_words(mtx.0), mtx.0);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(4),
        })
        .unwrap();
    assert_eq!(result.report.recoveries, 1);
    for i in 0..4 {
        assert_eq!(result.master.read(out.add_words(i)), i);
    }
}

#[test]
fn misspec_on_last_iteration() {
    const N: u64 = 6;
    let mut heap = heap0();
    let out = heap.alloc_words(N).unwrap();
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if mtx.0 == N - 1 {
            return ctx.misspec();
        }
        ctx.write_no_forward(out.add_words(mtx.0), 1)?;
        Ok(IterOutcome::Continue)
    });
    let result = doall(3)
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                m.write(out.add_words(mtx.0), 1);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();
    assert_eq!(result.report.recoveries, 1);
    assert_eq!(result.report.total_iterations(), N);
    assert_eq!(result.master.read(out.add_words(N - 1)), 1);
}

#[test]
fn every_iteration_misspeculates() {
    const N: u64 = 8;
    let mut heap = heap0();
    let counter = heap.alloc_words(1).unwrap();
    let body = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| ctx.misspec());
    let result = doall(2)
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(move |_, m| {
                let c = m.read(counter);
                m.write(counter, c + 1);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();
    assert_eq!(result.report.recoveries, N);
    assert_eq!(result.report.committed, 0, "nothing commits speculatively");
    assert_eq!(result.master.read(counter), N, "but every iteration lands");
}

#[test]
fn recovery_exit_decision_terminates() {
    // The misspeculated iteration is the loop's last: the recovery body
    // returns Exit and the system must stop there.
    const EXIT: u64 = 3;
    let mut heap = heap0();
    let out = heap.alloc_words(16).unwrap();
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if mtx.0 == EXIT {
            return ctx.misspec();
        }
        ctx.write_no_forward(out.add_words(mtx.0), 1)?;
        Ok(IterOutcome::Continue)
    });
    let result = doall(2)
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                m.write(out.add_words(mtx.0), 1);
                if mtx.0 == EXIT {
                    IterOutcome::Exit
                } else {
                    IterOutcome::Continue
                }
            }),
            on_commit: None,
            iteration_limit: None, // uncounted: exit only via recovery
        })
        .unwrap();
    assert_eq!(result.report.last_iteration, Some(MtxId(EXIT)));
    assert_eq!(result.report.total_iterations(), EXIT + 1);
    assert_eq!(result.master.read(out.add_words(EXIT + 1)), 0, "squashed");
}

/// `recovery_exit_decision_terminates` with workers that never wait:
/// every MTX stores to one of 16 words on one page, so after its first
/// Copy-On-Access fault a replica has nothing left to wait for. It must
/// still see the recovery (at its next `begin`) and join the barriers,
/// or the loop never ends.
#[test]
fn uncounted_runahead_reaches_recovery() {
    use dsmtx_integration_tests::under_watchdog;

    under_watchdog(
        "uncounted run-ahead (a worker never saw the recovery?)",
        || {
            const EXIT: u64 = 3;
            let mut heap = heap0();
            let out = heap.alloc_words(16).unwrap();
            let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                if mtx.0 == EXIT {
                    return ctx.misspec();
                }
                ctx.write_no_forward(out.add_words(mtx.0 % 16), 1)?;
                Ok(IterOutcome::Continue)
            });
            let result = doall(2)
                .run(Program {
                    master: MasterMem::new(),
                    stages: vec![body],
                    recovery: Box::new(move |mtx, m| {
                        m.write(out.add_words(mtx.0 % 16), 1);
                        if mtx.0 == EXIT {
                            IterOutcome::Exit
                        } else {
                            IterOutcome::Continue
                        }
                    }),
                    on_commit: None,
                    iteration_limit: None,
                })
                .unwrap();
            assert_eq!(result.report.last_iteration, Some(MtxId(EXIT)));
            assert_eq!(result.report.total_iterations(), EXIT + 1);
            assert_eq!(result.master.read(out.add_words(EXIT + 1)), 0, "squashed");
        },
    );
}

/// A 2-replica DOALL of 16 MTXs that misspeculates at `misspec_at` and
/// whose recovery body and `on_commit` hook panic at `panic_at`. Every
/// worker has shipped all it holds when the panic comes, so nothing but
/// the control plane can tell the other roles that the commit unit is
/// gone.
fn panicking_hook_run(misspec_at: Option<u64>, panic_at: u64) -> Result<(), dsmtx::RunError> {
    const N: u64 = 16;
    let mut heap = heap0();
    let out = heap.alloc_words(N).unwrap();
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if Some(mtx.0) == misspec_at {
            return ctx.misspec();
        }
        ctx.write_no_forward(out.add_words(mtx.0), 1)?;
        Ok(IterOutcome::Continue)
    });
    doall(2)
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                assert_ne!(mtx.0, panic_at, "planted recovery-body panic");
                m.write(out.add_words(mtx.0), 1);
                IterOutcome::Continue
            }),
            on_commit: Some(Box::new(move |mtx, _| {
                assert_ne!(mtx.0, panic_at, "planted on_commit panic");
            })),
            iteration_limit: Some(N),
        })
        .map(drop)
}

#[test]
fn panicking_commit_hook_ends_the_run() {
    use dsmtx_integration_tests::under_watchdog;

    under_watchdog("panicking on_commit hook (roles never told?)", || {
        for panic_at in [2, 15] {
            let r = panicking_hook_run(None, panic_at);
            assert!(
                matches!(r, Err(dsmtx::RunError::ThreadPanic("commit"))),
                "hook panic at MTX {panic_at}: {r:?}"
            );
        }
    });
}

#[test]
fn panicking_recovery_body_ends_the_run() {
    use dsmtx_integration_tests::under_watchdog;

    under_watchdog("panicking recovery body (roles left at B3?)", || {
        let r = panicking_hook_run(Some(3), 3);
        assert!(
            matches!(r, Err(dsmtx::RunError::ThreadPanic("commit"))),
            "{r:?}"
        );
    });
}

#[test]
fn pipeline_recovery_with_forwarding_and_consumes() {
    // Misspeculation in the middle stage of a 3-stage pipeline: frames
    // in flight on both sides of the failing stage must flush cleanly.
    const N: u64 = 12;
    const BAD: u64 = 5;
    let mut heap = heap0();
    let input = heap.alloc_words(N).unwrap();
    let staged = heap.alloc_words(N).unwrap();
    let sum = heap.alloc_words(1).unwrap();
    let mut master = MasterMem::new();
    for i in 0..N {
        master.write(input.add_words(i), i + 1);
    }

    let s0 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let x = ctx.read(input.add_words(mtx.0))?;
        ctx.write(staged.add_words(mtx.0), x * 2)?;
        ctx.produce(mtx.0);
        Ok(IterOutcome::Continue)
    });
    let s1 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let i = ctx.consume();
        if mtx.0 == BAD {
            return ctx.misspec();
        }
        let v = ctx.read(staged.add_words(i))?;
        ctx.produce(v + 1);
        Ok(IterOutcome::Continue)
    });
    let s2 = Arc::new(move |ctx: &mut WorkerCtx, _: MtxId| {
        let v = ctx.consume();
        let acc = ctx.read(sum)?;
        ctx.write(sum, acc + v)?;
        Ok(IterOutcome::Continue)
    });

    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Sequential)
        .stage(StageKind::Parallel { replicas: 2 })
        .stage(StageKind::Sequential);
    let result = MtxSystem::new(&cfg)
        .unwrap()
        .trace(true)
        .run(Program {
            master,
            stages: vec![s0, s1, s2],
            recovery: Box::new(move |mtx, m| {
                let x = m.read(input.add_words(mtx.0));
                m.write(staged.add_words(mtx.0), x * 2);
                let acc = m.read(sum);
                m.write(sum, acc + x * 2 + 1);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();

    let expect: u64 = (1..=N).map(|x| 2 * x + 1).sum();
    assert_eq!(result.master.read(sum), expect);
    assert_eq!(result.report.recoveries, 1);

    // Commit order stays strictly increasing across the rollback.
    let commits: Vec<u64> = result
        .report
        .trace
        .iter()
        .filter(|e| e.kind == TraceKind::Committed)
        .map(|e| e.mtx.unwrap().0)
        .collect();
    let mut sorted = commits.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(commits, sorted, "commit order is iteration order");
}

#[test]
fn ring_recovery_mid_stream() {
    // TLS ring with a misspeculation in the middle: the successor
    // iteration re-derives the synchronized value from committed state.
    const N: u64 = 10;
    const BAD: u64 = 4;
    let mut heap = heap0();
    let acc_cell = heap.alloc_words(1).unwrap();
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if mtx.0 == BAD {
            return ctx.misspec();
        }
        let synced = ctx.sync_take().next();
        let acc = match synced {
            Some(v) => v,
            None => ctx.read(acc_cell)?,
        };
        let next = acc + (mtx.0 + 1) * 10;
        ctx.write_no_forward(acc_cell, next)?;
        ctx.sync_produce(next);
        Ok(IterOutcome::Continue)
    });
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 3 })
        .ring(StageId(0));
    let result = MtxSystem::new(&cfg)
        .unwrap()
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                let acc = m.read(acc_cell);
                m.write(acc_cell, acc + (mtx.0 + 1) * 10);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();
    let expect: u64 = (1..=N).map(|k| k * 10).sum();
    assert_eq!(result.master.read(acc_cell), expect);
    assert_eq!(result.report.recoveries, 1);
}

#[test]
fn natural_validation_conflict_in_pipeline() {
    // No explicit misspec: a genuine cross-iteration dependence is
    // detected by value validation in the try-commit unit.
    const N: u64 = 10;
    let mut heap = heap0();
    let cell = heap.alloc_words(1).unwrap();
    let out = heap.alloc_words(N).unwrap();
    let mut master = MasterMem::new();
    master.write(cell, 5);

    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let v = ctx.read(cell)?;
        if mtx.0 == 3 {
            ctx.write_no_forward(cell, v + 100)?; // rare mutation
        }
        ctx.write_no_forward(out.add_words(mtx.0), v)?;
        Ok(IterOutcome::Continue)
    });
    let result = doall(3)
        .run(Program {
            master,
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                let v = m.read(cell);
                if mtx.0 == 3 {
                    m.write(cell, v + 100);
                }
                m.write(out.add_words(mtx.0), v);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();
    // Sequential semantics: iterations 0..=3 read 5, later ones read 105.
    for i in 0..N {
        let want = if i <= 3 { 5 } else { 105 };
        assert_eq!(result.master.read(out.add_words(i)), want, "slot {i}");
    }
    assert_eq!(result.master.read(cell), 105);
}

#[test]
fn back_to_back_recoveries() {
    const N: u64 = 9;
    let mut heap = heap0();
    let out = heap.alloc_words(N).unwrap();
    // Iterations 2, 3, 4 all misspeculate: three consecutive rollbacks.
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if (2..=4).contains(&mtx.0) {
            return ctx.misspec();
        }
        ctx.write_no_forward(out.add_words(mtx.0), mtx.0 * 3)?;
        Ok(IterOutcome::Continue)
    });
    let result = doall(2)
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                m.write(out.add_words(mtx.0), mtx.0 * 3);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();
    assert_eq!(result.report.recoveries, 3);
    for i in 0..N {
        assert_eq!(result.master.read(out.add_words(i)), i * 3);
    }
}

/// One run of a two-stage loop whose stage 1 misspeculates at MTX 7, on
/// minimal queue tuning (batch 1, capacity 1). Constant backpressure:
/// every flush can block, and recovery must interrupt senders stuck on
/// full transports.
fn backpressure_round() {
    const N: u64 = 12;
    const BAD: u64 = 7;
    let mut heap = heap0();
    let input = heap.alloc_words(N).unwrap();
    let sum = heap.alloc_words(1).unwrap();
    let mut master = MasterMem::new();
    for i in 0..N {
        master.write(input.add_words(i), i + 2);
    }

    let s0 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        // Many produces per iteration to saturate the tiny queues.
        for k in 0..8 {
            let x = ctx.read(input.add_words(mtx.0))?;
            ctx.produce(x + k);
        }
        Ok(IterOutcome::Continue)
    });
    let s1 = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if mtx.0 == BAD {
            return ctx.misspec();
        }
        let mut acc = ctx.read(sum)?;
        for _ in 0..8 {
            acc = acc.wrapping_add(ctx.consume());
        }
        ctx.write(sum, acc)?;
        Ok(IterOutcome::Continue)
    });

    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Sequential)
        .stage(StageKind::Sequential)
        .batch(1)
        .capacity(1);
    let result = MtxSystem::new(&cfg)
        .unwrap()
        .run(Program {
            master,
            stages: vec![s0, s1],
            recovery: Box::new(move |mtx, m| {
                let x = m.read(input.add_words(mtx.0));
                let mut acc = m.read(sum);
                for k in 0..8 {
                    acc = acc.wrapping_add(x + k);
                }
                m.write(sum, acc);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(N),
        })
        .unwrap();

    let mut expect = 0u64;
    for i in 0..N {
        for k in 0..8 {
            expect = expect.wrapping_add(i + 2 + k);
        }
    }
    assert_eq!(result.master.read(sum), expect);
    assert_eq!(result.report.recoveries, 1);
}

#[test]
fn backpressure_with_recovery() {
    backpressure_round();
}

/// The backpressure window: stage 0 can block on the full queue to the
/// stage-1 worker that misspeculated while it still holds validation or
/// commit frames the commit unit needs to reach that MTX. A worker must
/// ship them before it blocks, or the loop deadlocks — in a few rounds
/// out of a hundred, so many rounds run under the harness watchdog.
#[test]
fn backpressure_window_never_hangs() {
    use dsmtx_integration_tests::under_watchdog;

    under_watchdog(
        "backpressure rounds (a worker blocked holding unshipped frames?)",
        || {
            for _ in 0..200 {
                backpressure_round();
            }
        },
    );
}

/// One short Spec-DOALL loop of `n` iterations over two replicas; when
/// `misspec_at_zero`, MTX 0 misspeculates and is re-executed by recovery.
fn short_loop(n: u64, misspec_at_zero: bool, shards: usize) {
    let mut heap = heap0();
    let out = heap.alloc_words(n.max(1)).unwrap();
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        if misspec_at_zero && mtx.0 == 0 {
            return ctx.misspec();
        }
        ctx.write_no_forward(out.add_words(mtx.0), mtx.0 + 1)?;
        Ok(IterOutcome::Continue)
    });
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 2 })
        .unit_shards(shards);
    let result = MtxSystem::new(&cfg)
        .unwrap()
        .run(Program {
            master: MasterMem::new(),
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                m.write(out.add_words(mtx.0), mtx.0 + 1);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(n),
        })
        .unwrap();
    assert_eq!(result.report.total_iterations(), n);
    assert_eq!(result.report.recoveries, u64::from(misspec_at_zero));
    for i in 0..n {
        assert_eq!(result.master.read(out.add_words(i)), i + 1);
    }
}

/// The start-up window: the commit unit can publish a status before some
/// role's thread has taken its first control-plane poll — a
/// zero-iteration loop terminates at once, a one-iteration loop right
/// after its only commit, a misspeculation at MTX 0 starts recovery
/// before the idle replica has run. Every role must still see that
/// status. Many short rounds under the harness watchdog turn a lost
/// wakeup into a failure instead of a hung suite.
#[test]
fn start_up_window_never_hangs() {
    use dsmtx_integration_tests::under_watchdog;

    under_watchdog("start-up rounds (lost control-plane wakeup?)", || {
        for round in 0..200 {
            let shards = 1 + round % 2;
            short_loop(0, false, shards);
            short_loop(1, false, shards);
            short_loop(4, true, shards);
        }
    });
}

/// The fault matrix: every injectable fault class — drop, delay,
/// duplicate, reorder, crash(stall) — injected on every link, each cell
/// asserting the faulted run commits byte-identical memory to the
/// fault-free run. Every link starts at a worker: the speculation units
/// send on none.
///
/// Seeds come from [`seed_from_env`], so a failing cell replays with
/// `DSMTX_FAULT_SEED=<seed> cargo test -q -p dsmtx-integration-tests`.
mod fault_matrix {
    use dsmtx_fabric::FaultRates;
    use dsmtx_integration_tests::{check_case, seed_from_env, FaultCase, Workload, ALL_WORKLOADS};

    /// Matrix default seed: today's date when the matrix was authored;
    /// any fixed value works, CI varies it via `DSMTX_FAULT_SEED`.
    const DEFAULT_SEED: u64 = 20_260_806;

    fn cell(rates: FaultRates) {
        let case = FaultCase::quick(seed_from_env(DEFAULT_SEED), rates, Workload::PipelineFold);
        check_case(&case);
    }

    macro_rules! matrix_cell {
        ($name:ident, $rates:expr) => {
            #[test]
            fn $name() {
                cell($rates);
            }
        };
    }

    matrix_cell!(drop_worker_links, FaultRates::only_drop(0.08));
    matrix_cell!(delay_worker_links, FaultRates::only_delay(0.08));
    matrix_cell!(duplicate_worker_links, FaultRates::only_duplicate(0.08));
    matrix_cell!(reorder_worker_links, FaultRates::only_reorder(0.08));
    matrix_cell!(crash_worker_links, FaultRates::only_stall(0.04, 6));

    /// A harsh cell that exhausts the retry budget: at a 40% drop rate
    /// with only 2 ship attempts, ~16% of messages convert into fabric
    /// timeouts, so the runtime must degrade into timeout-driven
    /// recovery — not just absorb faults in retries — and still commit
    /// byte-identical results.
    #[test]
    fn exhausted_retries_force_fault_recovery() {
        let mut case = FaultCase::quick(
            seed_from_env(9),
            FaultRates::only_drop(0.4),
            Workload::PipelineFold,
        );
        case.max_attempts = 2;
        let summary = check_case(&case);
        assert!(
            summary.fault_recoveries > 0,
            "retry budget never exhausted: the cell tested nothing\n{}",
            case.reproducer()
        );
    }

    /// The crash model end-to-end: a stalled endpoint outlives the whole
    /// retry budget, forcing the peer into timeout-driven recovery.
    #[test]
    fn crashed_endpoint_forces_fault_recovery() {
        let mut case = FaultCase::quick(
            seed_from_env(9),
            FaultRates::only_stall(0.3, 9),
            Workload::PipelineFold,
        );
        case.max_attempts = 3;
        let summary = check_case(&case);
        assert!(
            summary.fault_recoveries > 0,
            "stall windows never exhausted the budget\n{}",
            case.reproducer()
        );
    }

    /// A Spec-DOALL loop of `n` MTXs over 3 replicas and 2 try-commit
    /// shards in which every MTX reads and writes a page of its own, so
    /// every first touch copies a fresh committed page. Checks committed
    /// memory and returns the report.
    fn own_page_loop(n: u64, faults: Option<dsmtx::FaultConfig>) -> dsmtx::RunReport {
        use std::sync::Arc;

        use dsmtx::{IterOutcome, MtxId, MtxSystem, Program, StageKind, SystemConfig, WorkerCtx};
        use dsmtx_mem::MasterMem;
        use dsmtx_uva::{OwnerId, RegionAllocator, PAGE_WORDS};

        let mut heap = RegionAllocator::new(OwnerId(0));
        let base = heap.alloc_words(n * PAGE_WORDS).unwrap();
        let slot = move |i: u64| base.add_words(i * PAGE_WORDS);
        let mut master = MasterMem::new();
        for i in 0..n {
            master.write(slot(i), i * 3 + 1);
        }
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            let x = ctx.read(slot(mtx.0))?;
            ctx.write_no_forward(slot(mtx.0).add_words(1), x * 5)?;
            Ok(IterOutcome::Continue)
        });
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 3 })
            .unit_shards(2);
        if let Some(faults) = faults {
            cfg.faults(faults);
        }
        let result = MtxSystem::new(&cfg)
            .unwrap()
            .run(Program {
                master,
                stages: vec![body],
                recovery: Box::new(move |mtx, m| {
                    let x = m.read(slot(mtx.0));
                    m.write(slot(mtx.0).add_words(1), x * 5);
                    IterOutcome::Continue
                }),
                on_commit: None,
                iteration_limit: Some(n),
            })
            .unwrap();
        for i in 0..n {
            assert_eq!(result.master.read(slot(i).add_words(1)), (i * 3 + 1) * 5);
        }
        result.report
    }

    /// A fault plan reaches every link: every link starts at a worker,
    /// and every ship attempt on a faulted link duplicates, so each packet
    /// the run ships records exactly one `fault_dups`.
    #[test]
    fn fault_plan_reaches_every_link() {
        use dsmtx::FaultConfig;
        use dsmtx_integration_tests::under_watchdog;

        under_watchdog("duplicate-only runs", || {
            let plain = own_page_loop(48, None);
            assert!(plain.stats.packets() > 0 && plain.coa_pages_served > 0);
            assert_eq!(plain.stats.fault_dups(), 0, "no plan, yet a duplicate");

            // Duplicates lose no data and draw no retry budget, and the
            // long deadline keeps a slow host from turning silence into a
            // recovery round.
            let plan =
                FaultConfig::new(seed_from_env(DEFAULT_SEED), FaultRates::only_duplicate(1.0))
                    .recv_timeout_us(10_000_000);
            let faulted = own_page_loop(48, Some(plan));
            assert_eq!(faulted.recoveries, 0, "a duplicate caused a recovery");
            assert_eq!(
                faulted.stats.fault_dups(),
                faulted.stats.packets(),
                "the plan misses a link"
            );
        });
    }

    /// The headline acceptance check: three fixed seeds × three
    /// workloads under a uniform mix of every fault class, injected on
    /// every link — each run must commit byte-identical results to its
    /// fault-free twin.
    #[test]
    fn fixed_seeds_all_workloads_uniform_faults() {
        let mut faults_injected = 0;
        for seed in [1u64, DEFAULT_SEED, 0xDEAD_BEEF] {
            for workload in ALL_WORKLOADS {
                let mut case = FaultCase::quick(seed, FaultRates::uniform(0.10), workload);
                case.n = 32;
                faults_injected += check_case(&case).faults_injected;
            }
        }
        // The check must not pass vacuously: across 9 runs at 10% total
        // fault probability on every link, the plan must actually fire.
        assert!(faults_injected > 0, "no faults injected across the grid");
    }
}

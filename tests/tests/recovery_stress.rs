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
        let acc = match ctx.sync_take().first() {
            Some(&v) => v,
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

/// The fault matrix: every injectable fault class crossed with every
/// link group — {drop, delay, duplicate, reorder, crash(stall)} ×
/// {worker, try-commit, commit} — each cell asserting the faulted run
/// commits byte-identical memory to the fault-free run.
///
/// Seeds come from [`seed_from_env`], so a failing cell replays with
/// `DSMTX_FAULT_SEED=<seed> cargo test -q -p dsmtx-integration-tests`.
mod fault_matrix {
    use dsmtx::FaultTarget;
    use dsmtx_fabric::FaultRates;
    use dsmtx_integration_tests::{check_case, seed_from_env, FaultCase, Workload, ALL_WORKLOADS};

    /// Matrix default seed: today's date when the matrix was authored;
    /// any fixed value works, CI varies it via `DSMTX_FAULT_SEED`.
    const DEFAULT_SEED: u64 = 20_260_806;

    fn cell(rates: FaultRates, target: FaultTarget) {
        let case = FaultCase::quick(
            seed_from_env(DEFAULT_SEED),
            rates,
            target,
            Workload::PipelineFold,
        );
        check_case(&case);
    }

    macro_rules! matrix_cell {
        ($name:ident, $rates:expr, $target:expr) => {
            #[test]
            fn $name() {
                cell($rates, $target);
            }
        };
    }

    matrix_cell!(
        drop_worker_links,
        FaultRates::only_drop(0.08),
        FaultTarget::WorkerLinks
    );
    matrix_cell!(
        drop_trycommit_links,
        FaultRates::only_drop(0.08),
        FaultTarget::TryCommitLinks
    );
    matrix_cell!(
        drop_commit_links,
        FaultRates::only_drop(0.08),
        FaultTarget::CommitLinks
    );

    matrix_cell!(
        delay_worker_links,
        FaultRates::only_delay(0.08),
        FaultTarget::WorkerLinks
    );
    matrix_cell!(
        delay_trycommit_links,
        FaultRates::only_delay(0.08),
        FaultTarget::TryCommitLinks
    );
    matrix_cell!(
        delay_commit_links,
        FaultRates::only_delay(0.08),
        FaultTarget::CommitLinks
    );

    matrix_cell!(
        duplicate_worker_links,
        FaultRates::only_duplicate(0.08),
        FaultTarget::WorkerLinks
    );
    matrix_cell!(
        duplicate_trycommit_links,
        FaultRates::only_duplicate(0.08),
        FaultTarget::TryCommitLinks
    );
    matrix_cell!(
        duplicate_commit_links,
        FaultRates::only_duplicate(0.08),
        FaultTarget::CommitLinks
    );

    matrix_cell!(
        reorder_worker_links,
        FaultRates::only_reorder(0.08),
        FaultTarget::WorkerLinks
    );
    matrix_cell!(
        reorder_trycommit_links,
        FaultRates::only_reorder(0.08),
        FaultTarget::TryCommitLinks
    );
    matrix_cell!(
        reorder_commit_links,
        FaultRates::only_reorder(0.08),
        FaultTarget::CommitLinks
    );

    matrix_cell!(
        crash_worker_links,
        FaultRates::only_stall(0.04, 6),
        FaultTarget::WorkerLinks
    );
    matrix_cell!(
        crash_trycommit_links,
        FaultRates::only_stall(0.04, 6),
        FaultTarget::TryCommitLinks
    );
    matrix_cell!(
        crash_commit_links,
        FaultRates::only_stall(0.04, 6),
        FaultTarget::CommitLinks
    );

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
            FaultTarget::WorkerLinks,
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
            FaultTarget::All,
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

    /// What one link-targeting run shipped and duplicated.
    struct LinkTraffic {
        packets: u64,
        dups: u64,
        coa_pages: u64,
    }

    /// A Spec-DOALL loop of `n` MTXs over 3 replicas and 2 try-commit
    /// shards in which every MTX reads and writes a page of its own.
    /// Every COA fetch therefore misses the worker's page cache, so every
    /// COA reply carries a full page and `coa_pages_served` counts the
    /// replies exactly. Checks committed memory and returns the report.
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

    /// The own-page loop at 48 MTXs, under a duplicate-only plan on
    /// `target`'s links when one is given.
    fn link_traffic(target: Option<FaultTarget>) -> LinkTraffic {
        use dsmtx::FaultConfig;

        // Duplicates lose no data and draw no retry budget, and the long
        // deadline keeps a slow host from turning silence into a recovery
        // round.
        let faults = target.map(|target| {
            FaultConfig::new(seed_from_env(DEFAULT_SEED), FaultRates::only_duplicate(1.0))
                .target(target)
                .recv_timeout_us(10_000_000)
        });
        let report = own_page_loop(48, faults);
        assert_eq!(report.committed, 48);
        assert_eq!(
            report.recoveries, 0,
            "{target:?}: a duplicate caused a recovery"
        );
        assert_eq!(
            report.valplane.cache_hits, 0,
            "{target:?}: a COA fetch hit the cache"
        );
        LinkTraffic {
            packets: report.stats.packets(),
            dups: report.stats.fault_dups(),
            coa_pages: report.coa_pages_served,
        }
    }

    /// A dropped COA reply does not stall the commit unit: the reply
    /// stays buffered and the unit's next turn ships it. So an 80% drop
    /// rate on the COA replies costs retries, but no fabric timeout and
    /// no recovery round, with the default retry budget and a 20 ms
    /// receive deadline.
    #[test]
    fn faulted_coa_reply_does_not_stall_the_commit_unit() {
        use dsmtx::FaultConfig;
        use dsmtx_integration_tests::under_watchdog;

        let seed = seed_from_env(DEFAULT_SEED);
        under_watchdog("faulted COA replies", move || {
            let faults = FaultConfig::new(seed, FaultRates::only_drop(0.8))
                .target(FaultTarget::CommitLinks)
                .recv_timeout_us(20_000);
            let report = own_page_loop(128, Some(faults));
            assert!(report.stats.fault_drops() > 0, "seed {seed:#x}: no drops");
            assert_eq!(
                (report.fabric_timeouts, report.fault_recoveries),
                (0, 0),
                "seed {seed:#x}: a dropped COA reply stalled the commit unit \
                 (fabric timeouts, fault recoveries)"
            );
        });
    }

    /// A fault plan injects into exactly the links its target names.
    /// Every ship attempt on a faulted link duplicates, so each packet a
    /// faulted link ships records exactly one `fault_dups`; the COA
    /// replies are the only traffic the commit unit sends.
    #[test]
    fn fault_target_hits_exactly_its_links() {
        use dsmtx_integration_tests::under_watchdog;

        under_watchdog("link-targeting runs", || {
            let plain = link_traffic(None);
            assert!(plain.packets > 0 && plain.coa_pages > 0);
            assert_eq!(plain.dups, 0, "no plan, yet a duplicate");

            let all = link_traffic(Some(FaultTarget::All));
            assert_eq!(all.dups, all.packets, "All misses a link");

            let commit = link_traffic(Some(FaultTarget::CommitLinks));
            assert_eq!(
                commit.dups, commit.coa_pages,
                "CommitLinks must duplicate exactly the COA replies ({} packets)",
                commit.packets
            );

            for target in [FaultTarget::WorkerLinks, FaultTarget::TryCommitLinks] {
                let t = link_traffic(Some(target));
                assert!(
                    0 < t.dups && t.dups < t.packets,
                    "{target}: {} duplicates of {} packets",
                    t.dups,
                    t.packets
                );
            }
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
                let mut case =
                    FaultCase::quick(seed, FaultRates::uniform(0.10), FaultTarget::All, workload);
                case.n = 32;
                faults_injected += check_case(&case).faults_injected;
            }
        }
        // The check must not pass vacuously: across 9 runs at 10% total
        // fault probability on every link, the plan must actually fire.
        assert!(faults_injected > 0, "no faults injected across the grid");
    }
}

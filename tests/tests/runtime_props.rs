//! Property-based tests of the runtime: randomly generated programs must
//! match their sequential models exactly, with and without injected
//! misspeculation. Every run is under the harness watchdog, and every
//! stage body checks the iteration-limit contract.

use std::sync::Arc;

use dsmtx::{IterOutcome, MtxId, MtxSystem, Program, StageId, StageKind, SystemConfig, WorkerCtx};
use dsmtx_integration_tests::under_watchdog;
use dsmtx_mem::MasterMem;
use dsmtx_uva::{OwnerId, RegionAllocator};
use proptest::prelude::*;

fn heap0() -> RegionAllocator {
    RegionAllocator::new(OwnerId(0))
}

/// The iteration-limit contract stage bodies rely on: the runtime never
/// runs a stage body for an MTX at or past `iteration_limit` (`n`).
fn assert_within_limit(mtx: MtxId, n: u64) {
    assert!(
        mtx.0 < n,
        "stage body ran MTX {} at or past the limit {n}",
        mtx.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // the runtime spawns threads per case: keep it modest
        .. ProptestConfig::default()
    })]

    /// Spec-DOALL over random per-iteration transforms with disjoint
    /// output slots equals the sequential map, for any replica count.
    #[test]
    fn doall_equals_map(
        values in proptest::collection::vec(any::<u64>(), 1..24),
        replicas in 1u16..5,
        mult in 1u64..1000,
    ) {
        let n = values.len() as u64;
        let mut heap = heap0();
        let input = heap.alloc_words(n).unwrap();
        let output = heap.alloc_words(n).unwrap();
        let mut master = MasterMem::new();
        for (i, v) in values.iter().enumerate() {
            master.write(input.add_words(i as u64), *v);
        }
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            assert_within_limit(mtx, n);
            let x = ctx.read(input.add_words(mtx.0))?;
            ctx.write_no_forward(output.add_words(mtx.0), x.wrapping_mul(mult) ^ mtx.0)?;
            Ok(IterOutcome::Continue)
        });
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas });
        let result = under_watchdog(&format!("DOALL n={n} x{replicas}"), move || {
            MtxSystem::new(&cfg).unwrap().run(Program {
                master,
                stages: vec![body],
                recovery: Box::new(|_, _| IterOutcome::Continue),
                on_commit: None,
                iteration_limit: Some(n),
            }).unwrap()
        });
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(
                result.master.read(output.add_words(i as u64)),
                v.wrapping_mul(mult) ^ i as u64
            );
        }
        prop_assert_eq!(result.report.committed, n);
    }

    /// A produce/consume pipeline computes the same fold as the
    /// sequential loop for random values and shapes.
    #[test]
    fn pipeline_fold_matches(
        values in proptest::collection::vec(any::<u64>(), 1..20),
        replicas in 1u16..4,
    ) {
        let n = values.len() as u64;
        let mut heap = heap0();
        let input = heap.alloc_words(n).unwrap();
        let acc_cell = heap.alloc_words(1).unwrap();
        let mut master = MasterMem::new();
        for (i, v) in values.iter().enumerate() {
            master.write(input.add_words(i as u64), *v);
        }
        let first = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            assert_within_limit(mtx, n);
            let x = ctx.read(input.add_words(mtx.0))?;
            ctx.produce(x.rotate_left(11));
            Ok(IterOutcome::Continue)
        });
        let last = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            assert_within_limit(mtx, n);
            let v = ctx.consume();
            let acc = ctx.read(acc_cell)?;
            ctx.write(acc_cell, acc.wrapping_mul(1099511628211).wrapping_add(v))?;
            Ok(IterOutcome::Continue)
        });
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas }).stage(StageKind::Sequential);
        let result = under_watchdog(&format!("[DOALL x{replicas}, S] n={n}"), move || {
            MtxSystem::new(&cfg).unwrap().run(Program {
                master,
                stages: vec![first, last],
                recovery: Box::new(|_, _| IterOutcome::Continue),
                on_commit: None,
                iteration_limit: Some(n),
            }).unwrap()
        });
        let mut expect = 0u64;
        for v in &values {
            expect = expect.wrapping_mul(1099511628211).wrapping_add(v.rotate_left(11));
        }
        prop_assert_eq!(result.master.read(acc_cell), expect);
    }

    /// Arbitrary sets of misspeculating iterations recover exactly: the
    /// outputs match, and each bad iteration triggers exactly one
    /// rollback.
    #[test]
    fn misspec_sets_recover_exactly(
        n in 4u64..20,
        bad_bits in any::<u32>(),
        replicas in 1u16..4,
    ) {
        let bad = move |i: u64| (bad_bits >> (i % 32)) & 1 == 1;
        let mut heap = heap0();
        let out = heap.alloc_words(n).unwrap();
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            assert_within_limit(mtx, n);
            if bad(mtx.0) {
                return ctx.misspec();
            }
            ctx.write_no_forward(out.add_words(mtx.0), mtx.0 + 7)?;
            Ok(IterOutcome::Continue)
        });
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas });
        let result = under_watchdog(&format!("DOALL n={n} x{replicas} bad={bad_bits:#x}"), move || {
            MtxSystem::new(&cfg).unwrap().run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: Box::new(move |mtx, master| {
                    master.write(out.add_words(mtx.0), mtx.0 + 7);
                    IterOutcome::Continue
                }),
                on_commit: None,
                iteration_limit: Some(n),
            }).unwrap()
        });
        let bad_count = (0..n).filter(|&i| bad(i)).count() as u64;
        prop_assert_eq!(result.report.recoveries, bad_count);
        prop_assert_eq!(result.report.recovered_iterations, bad_count);
        prop_assert_eq!(result.report.total_iterations(), n);
        for i in 0..n {
            prop_assert_eq!(result.master.read(out.add_words(i)), i + 7);
        }
    }

    /// A TLS ring prefix-sum equals the sequential scan for random
    /// values, replica counts, and one injected misspeculation.
    #[test]
    fn tls_ring_scan_matches(
        values in proptest::collection::vec(1u64..1000, 2..16),
        replicas in 1u16..4,
        bad_at in proptest::option::of(0usize..16),
    ) {
        let n = values.len() as u64;
        let bad_at = bad_at.filter(|&b| (b as u64) < n);
        let mut heap = heap0();
        let input = heap.alloc_words(n).unwrap();
        let acc_cell = heap.alloc_words(1).unwrap();
        let scan = heap.alloc_words(n).unwrap();
        let mut master = MasterMem::new();
        for (i, v) in values.iter().enumerate() {
            master.write(input.add_words(i as u64), *v);
        }
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            assert_within_limit(mtx, n);
            if bad_at == Some(mtx.0 as usize) {
                // Only the speculative path misspeculates; after the
                // sequential re-execution the iteration is done.
                return ctx.misspec();
            }
            let synced = ctx.sync_take().next();
            let acc = match synced {
                Some(v) => v,
                None => ctx.read(acc_cell)?,
            };
            let x = ctx.read_private(input.add_words(mtx.0))?;
            let next = acc + x;
            ctx.write_no_forward(acc_cell, next)?;
            ctx.write_no_forward(scan.add_words(mtx.0), next)?;
            ctx.sync_produce(next);
            Ok(IterOutcome::Continue)
        });
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas }).ring(StageId(0));
        let result = under_watchdog(&format!("ring n={n} x{replicas} bad_at={bad_at:?}"), move || {
            MtxSystem::new(&cfg).unwrap().run(Program {
                master,
                stages: vec![body],
                recovery: Box::new(move |mtx, master| {
                    let acc = master.read(acc_cell);
                    let x = master.read(input.add_words(mtx.0));
                    master.write(acc_cell, acc + x);
                    master.write(scan.add_words(mtx.0), acc + x);
                    IterOutcome::Continue
                }),
                on_commit: None,
                iteration_limit: Some(n),
            }).unwrap()
        });
        let mut acc = 0u64;
        for (i, v) in values.iter().enumerate() {
            acc += v;
            prop_assert_eq!(result.master.read(scan.add_words(i as u64)), acc, "slot {}", i);
        }
        prop_assert_eq!(result.master.read(acc_cell), acc);
    }

    /// Exit at a random iteration commits exactly the prefix.
    #[test]
    fn exit_commits_exact_prefix(
        n in 2u64..20,
        exit_at in 0u64..20,
        replicas in 1u16..4,
    ) {
        let exit_at = exit_at.min(n - 1);
        let mut heap = heap0();
        let out = heap.alloc_words(n).unwrap();
        let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
            assert_within_limit(mtx, n);
            ctx.write_no_forward(out.add_words(mtx.0), 1)?;
            Ok(if mtx.0 == exit_at { IterOutcome::Exit } else { IterOutcome::Continue })
        });
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas });
        let result = under_watchdog(&format!("DOALL n={n} x{replicas} exit_at={exit_at}"), move || {
            MtxSystem::new(&cfg).unwrap().run(Program {
                master: MasterMem::new(),
                stages: vec![body],
                recovery: Box::new(|_, _| IterOutcome::Continue),
                on_commit: None,
                iteration_limit: Some(n),
            }).unwrap()
        });
        prop_assert_eq!(result.report.committed, exit_at + 1);
        for i in 0..=exit_at {
            prop_assert_eq!(result.master.read(out.add_words(i)), 1, "slot {}", i);
        }
        for i in (exit_at + 1)..n {
            prop_assert_eq!(result.master.read(out.add_words(i)), 0, "squashed {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case is two full runs (control + faulted)
        .. ProptestConfig::default()
    })]

    /// Arbitrary fault plans never corrupt committed memory, never
    /// violate the commit-order invariant, and never deadlock: the
    /// harness compares the faulted run against a fault-free twin,
    /// checks commit order from the trace, and hangs are caught by its
    /// wall-clock watchdog (which panics with the replayable
    /// `(seed, rates)` tuple).
    #[test]
    fn arbitrary_fault_plans_preserve_commits(
        seed in any::<u64>(),
        p in 0.0f64..0.35,
        workload_idx in 0usize..3,
    ) {
        use dsmtx_fabric::FaultRates;
        use dsmtx_integration_tests::{check_case, FaultCase, ALL_WORKLOADS};

        let mut case = FaultCase::quick(seed, FaultRates::uniform(p), ALL_WORKLOADS[workload_idx]);
        case.n = 24;
        check_case(&case);
    }
}

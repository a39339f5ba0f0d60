//! Workspace-level integration tests for the DSMTX reproduction — plus
//! the shared **seed-replayable fault harness**.
//!
//! Every fault-injection test funnels through [`check_case`]: it runs one
//! workload twice — fault-free and under a deterministic fault plan — and
//! asserts the committed memories are byte-identical and equal to the
//! sequential model. On any divergence, hang (wall-clock watchdog), or
//! panic, the failure message prints the full `(seed, rates, workload)`
//! tuple and a one-liner that replays exactly the failing schedule:
//!
//! ```text
//! DSMTX_FAULT_SEED=0x1badf00d cargo test -q -p dsmtx-integration-tests <test>
//! ```
//!
//! See `tests/`: kernel equivalence across execution modes, property-based
//! runtime checks, adversarial recovery scenarios, the fault matrix, and
//! simulator invariants.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsmtx::{
    FaultConfig, IterOutcome, MtxId, MtxSystem, Program, RunReport, StageId, StageKind,
    SystemConfig, TraceKind, ValPlaneStats, WorkerCtx,
};
use dsmtx_fabric::{FaultRates, RetryPolicy};
use dsmtx_mem::{MasterMem, Page};
use dsmtx_uva::{OwnerId, PageId, RegionAllocator};

/// How long a faulted run may take before the watchdog declares a hang.
/// Generous: a fault escalates only when a sender spends its retry
/// budget, which counts ship attempts, not time; each sender's own wait
/// paces them, so a recovery round starts within a few milliseconds.
pub const WATCHDOG: Duration = Duration::from_secs(30);

/// Runs `f` on a thread of its own under [`WATCHDOG`]: when it is still
/// running after that long, the caller fails with `what` in the message
/// instead of hanging the suite. A panic in `f` fails the caller too.
pub fn under_watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let handle = std::thread::spawn(f);
    let deadline = Instant::now() + WATCHDOG;
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "WATCHDOG: not finished after {WATCHDOG:?}: {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().unwrap_or_else(|_| panic!("panicked: {what}"))
}

/// The workloads the harness can replay. Each has an exact sequential
/// model and exercises a different slice of the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Spec-DOALL over 3 replicas: disjoint output slots, COA traffic,
    /// no cross-iteration dependences.
    DoallSum,
    /// Two-stage Spec-DSWP pipeline (parallel producer, sequential
    /// folder): produce/consume frames, forwarded stores, a true
    /// cross-iteration dependence carried by the sequential stage.
    PipelineFold,
    /// TLS ring prefix-sum over 3 replicas: synchronized cross-iteration
    /// values on ring links, recovery re-derivation after rollback.
    RingScan,
}

/// Every workload, for matrix-style iteration.
pub const ALL_WORKLOADS: [Workload; 3] = [
    Workload::DoallSum,
    Workload::PipelineFold,
    Workload::RingScan,
];

/// One fully specified fault scenario: replaying the same case gives
/// every link the same fault decision stream.
#[derive(Debug, Clone, Copy)]
pub struct FaultCase {
    /// Seed of the per-link decision streams.
    pub seed: u64,
    /// Per-class fault probabilities.
    pub rates: FaultRates,
    /// The workload under test.
    pub workload: Workload,
    /// Iteration count.
    pub n: u64,
    /// Send retry budget: ship attempts before a send converts into a
    /// fabric timeout, the only way a fault escalates.
    pub max_attempts: u32,
}

impl FaultCase {
    /// A case tuned for fast tests: a small retry budget, so injected
    /// faults convert into recoveries within a few dozen ship attempts
    /// instead of the default 64.
    pub fn quick(seed: u64, rates: FaultRates, workload: Workload) -> Self {
        FaultCase {
            seed,
            rates,
            workload,
            n: 40,
            max_attempts: 12,
        }
    }

    /// The runtime fault configuration this case expands to.
    pub fn fault_config(&self) -> FaultConfig {
        FaultConfig::new(self.seed, self.rates).retry(RetryPolicy {
            max_attempts: self.max_attempts,
        })
    }

    /// The `(seed, rates, …)` tuple plus a one-liner that replays exactly
    /// this schedule; printed by every harness failure.
    pub fn reproducer(&self) -> String {
        format!(
            "fault case: seed={:#x} rates=[{}] workload={:?} n={} \
             max_attempts={}\n\
             replay: DSMTX_FAULT_SEED={:#x} cargo test -q -p dsmtx-integration-tests",
            self.seed, self.rates, self.workload, self.n, self.max_attempts, self.seed,
        )
    }
}

/// Reads a seed override from `DSMTX_FAULT_SEED` (decimal or `0x…` hex),
/// falling back to `default_seed`. CI's fault-matrix job pins its seeds
/// through this hook; local reproduction uses the same door.
pub fn seed_from_env(default_seed: u64) -> u64 {
    match std::env::var("DSMTX_FAULT_SEED") {
        Err(_) => default_seed,
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            parsed.unwrap_or_else(|_| panic!("unparseable DSMTX_FAULT_SEED: {s:?}"))
        }
    }
}

/// What one run produced, reduced to the comparable essentials.
#[derive(Clone)]
pub struct RunSummary {
    /// Every output cell of the workload, read from committed memory.
    pub outputs: Vec<u64>,
    /// The sequential model's value for each output cell.
    pub expected: Vec<u64>,
    /// Iterations whose effects reached committed memory.
    pub total_iterations: u64,
    /// Misspeculation + fault recovery rounds.
    pub recoveries: u64,
    /// Fabric-timeout recovery requests raised.
    pub fabric_timeouts: u64,
    /// Recovery rounds run in answer to fabric timeouts.
    pub fault_recoveries: u64,
    /// Injected faults of any class (from fabric stats).
    pub faults_injected: u64,
    /// Conflicts detected by value validation (deduplicated per MTX, so
    /// the count is comparable across `unit_shards` settings).
    pub validation_conflicts: u64,
    /// MTX ids in commit order, from the trace (speculative commits only).
    pub commit_order: Vec<u64>,
    /// Full committed memory at loop exit, sorted by page id.
    pub memory: Vec<(PageId, Page)>,
    /// Validation-plane compaction counters (filtering, packed frames,
    /// COA cache) — used by the packed-frame non-vacuity guard.
    pub valplane: ValPlaneStats,
}

/// Runs `case` under its fault plan — with a fault-free control run first
/// — and asserts committed output is byte-identical to the fault-free
/// sequential result. Panics with the seed-replayable reproducer line on
/// divergence, lost/duplicated iterations, a runtime panic, or a hang.
pub fn check_case(case: &FaultCase) -> RunSummary {
    let control = run_workload(case.workload, case.n, None);
    assert_eq!(
        control.outputs, control.expected,
        "fault-free control run diverged from the sequential model (harness bug)"
    );

    let c = *case;
    let faulted = under_watchdog(
        &format!("faulted run (deadlocked recovery?)\n{}", case.reproducer()),
        move || run_unwatched(c.workload, c.n, Some(c.fault_config()), 1),
    );

    assert_eq!(
        faulted.outputs,
        control.outputs,
        "DIVERGENCE: faulted run committed different memory than the \
         fault-free run\n{}",
        case.reproducer()
    );
    assert_eq!(
        faulted.total_iterations,
        case.n,
        "iterations lost or duplicated under faults\n{}",
        case.reproducer()
    );
    faulted
}

/// Runs one workload, optionally under a fault plan, with tracing on; the
/// commit-order invariant (committed MTX ids strictly increasing) is
/// asserted inside.
pub fn run_workload(workload: Workload, n: u64, fault: Option<FaultConfig>) -> RunSummary {
    run_workload_sharded(workload, n, fault, 1)
}

/// [`run_workload`] with an explicit try-commit shard count — the
/// differential harness runs the same workload at `unit_shards` 1, 2, and
/// 4 and asserts bit-identical results. The run is under [`WATCHDOG`].
pub fn run_workload_sharded(
    workload: Workload,
    n: u64,
    fault: Option<FaultConfig>,
    shards: usize,
) -> RunSummary {
    under_watchdog(
        &format!("{workload:?} n={n} shards={shards} faults={fault:?}"),
        move || run_unwatched(workload, n, fault, shards),
    )
}

fn run_unwatched(
    workload: Workload,
    n: u64,
    fault: Option<FaultConfig>,
    shards: usize,
) -> RunSummary {
    match workload {
        Workload::DoallSum => doall_sum(n, fault, shards),
        Workload::PipelineFold => pipeline_fold(n, fault, shards),
        Workload::RingScan => ring_scan(n, fault, shards),
    }
}

/// Deterministic pseudo-input (splitmix64 finalizer).
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn system(cfg: &mut SystemConfig, fault: Option<FaultConfig>, shards: usize) -> MtxSystem {
    cfg.unit_shards(shards);
    if let Some(f) = fault {
        cfg.faults(f);
    }
    MtxSystem::new(cfg).unwrap().trace(true)
}

fn summarize(
    outputs: Vec<u64>,
    expected: Vec<u64>,
    master: &MasterMem,
    report: &RunReport,
) -> RunSummary {
    // Commit-order invariant: the commit unit applies MTX write-sets in
    // strictly increasing iteration order, faults or no faults.
    let commits: Vec<u64> = report
        .trace
        .iter()
        .filter(|e| e.kind == TraceKind::Committed)
        .map(|e| e.mtx.unwrap().0)
        .collect();
    assert!(
        commits.windows(2).all(|w| w[0] < w[1]),
        "commit order violated: {commits:?}"
    );
    RunSummary {
        outputs,
        expected,
        total_iterations: report.total_iterations(),
        recoveries: report.recoveries,
        fabric_timeouts: report.fabric_timeouts,
        fault_recoveries: report.fault_recoveries,
        faults_injected: report.stats.faults_total(),
        validation_conflicts: report.validation_conflicts,
        commit_order: commits,
        memory: master.snapshot(),
        valplane: report.valplane.clone(),
    }
}

fn doall_sum(n: u64, fault: Option<FaultConfig>, shards: usize) -> RunSummary {
    let step = |x: u64, i: u64| x.wrapping_mul(31).wrapping_add(i ^ 7);
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(n).unwrap();
    let out = heap.alloc_words(n).unwrap();
    let mut master = MasterMem::new();
    for i in 0..n {
        master.write(input.add_words(i), mix(i));
    }
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let x = ctx.read(input.add_words(mtx.0))?;
        ctx.write_no_forward(out.add_words(mtx.0), step(x, mtx.0))?;
        Ok(IterOutcome::Continue)
    });
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 3 });
    let result = system(&mut cfg, fault, shards)
        .run(Program {
            master,
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                let x = m.read(input.add_words(mtx.0));
                m.write(out.add_words(mtx.0), step(x, mtx.0));
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(n),
        })
        .unwrap();
    let outputs = (0..n)
        .map(|i| result.master.read(out.add_words(i)))
        .collect();
    let expected = (0..n).map(|i| step(mix(i), i)).collect();
    summarize(outputs, expected, &result.master, &result.report)
}

fn pipeline_fold(n: u64, fault: Option<FaultConfig>, shards: usize) -> RunSummary {
    const K: u64 = 1_099_511_628_211;
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(n).unwrap();
    let acc_cell = heap.alloc_words(1).unwrap();
    let trail = heap.alloc_words(n).unwrap();
    let mut master = MasterMem::new();
    for i in 0..n {
        master.write(input.add_words(i), mix(i));
    }
    let first = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let x = ctx.read(input.add_words(mtx.0))?;
        ctx.produce(x.rotate_left(11));
        Ok(IterOutcome::Continue)
    });
    let last = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
        let v = ctx.consume();
        let acc = ctx.read(acc_cell)?;
        let next = acc.wrapping_mul(K).wrapping_add(v);
        ctx.write(acc_cell, next)?;
        ctx.write_no_forward(trail.add_words(mtx.0), next)?;
        Ok(IterOutcome::Continue)
    });
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 2 })
        .stage(StageKind::Sequential);
    let result = system(&mut cfg, fault, shards)
        .run(Program {
            master,
            stages: vec![first, last],
            recovery: Box::new(move |mtx, m| {
                let x = m.read(input.add_words(mtx.0));
                let acc = m.read(acc_cell);
                let next = acc.wrapping_mul(K).wrapping_add(x.rotate_left(11));
                m.write(acc_cell, next);
                m.write(trail.add_words(mtx.0), next);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(n),
        })
        .unwrap();
    let mut outputs: Vec<u64> = (0..n)
        .map(|i| result.master.read(trail.add_words(i)))
        .collect();
    outputs.push(result.master.read(acc_cell));
    let mut acc = 0u64;
    let mut expected = Vec::with_capacity(n as usize + 1);
    for i in 0..n {
        acc = acc.wrapping_mul(K).wrapping_add(mix(i).rotate_left(11));
        expected.push(acc);
    }
    expected.push(acc);
    summarize(outputs, expected, &result.master, &result.report)
}

fn ring_scan(n: u64, fault: Option<FaultConfig>, shards: usize) -> RunSummary {
    let mut heap = RegionAllocator::new(OwnerId(0));
    let input = heap.alloc_words(n).unwrap();
    let acc_cell = heap.alloc_words(1).unwrap();
    let scan = heap.alloc_words(n).unwrap();
    let mut master = MasterMem::new();
    for i in 0..n {
        master.write(input.add_words(i), mix(i) % 1000);
    }
    let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
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
    cfg.stage(StageKind::Parallel { replicas: 3 })
        .ring(StageId(0));
    let result = system(&mut cfg, fault, shards)
        .run(Program {
            master,
            stages: vec![body],
            recovery: Box::new(move |mtx, m| {
                let acc = m.read(acc_cell);
                let x = m.read(input.add_words(mtx.0));
                m.write(acc_cell, acc + x);
                m.write(scan.add_words(mtx.0), acc + x);
                IterOutcome::Continue
            }),
            on_commit: None,
            iteration_limit: Some(n),
        })
        .unwrap();
    let mut outputs: Vec<u64> = (0..n)
        .map(|i| result.master.read(scan.add_words(i)))
        .collect();
    outputs.push(result.master.read(acc_cell));
    let mut acc = 0u64;
    let mut expected = Vec::with_capacity(n as usize + 1);
    for i in 0..n {
        acc += mix(i) % 1000;
        expected.push(acc);
    }
    expected.push(acc);
    summarize(outputs, expected, &result.master, &result.report)
}

#[cfg(test)]
mod harness_tests {
    use super::*;

    #[test]
    fn all_workloads_match_their_models_fault_free() {
        for w in ALL_WORKLOADS {
            let s = run_workload(w, 24, None);
            assert_eq!(s.outputs, s.expected, "{w:?}");
            assert_eq!(s.total_iterations, 24, "{w:?}");
            assert_eq!(s.faults_injected, 0, "{w:?}");
        }
    }

    #[test]
    fn seed_env_parsing() {
        // No env set in-process: the default flows through.
        assert_eq!(seed_from_env(42), 42);
    }

    #[test]
    fn reproducer_line_carries_the_tuple() {
        let case = FaultCase::quick(
            0x1BAD_F00D,
            FaultRates::uniform(0.2),
            Workload::PipelineFold,
        );
        let line = case.reproducer();
        assert!(line.contains("seed=0x1badf00d"), "{line}");
        assert!(line.contains("PipelineFold"), "{line}");
        assert!(line.contains("DSMTX_FAULT_SEED=0x1badf00d"), "{line}");
    }
}

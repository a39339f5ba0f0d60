//! System configuration: pipeline shape, batching, capacities.
//!
//! A DSMTX system is configured with a pipeline of stages (the
//! `configuration` argument of `mtx_newDSMTXsystem` in Table 1). Each stage
//! is sequential (one worker executes every iteration's subTX) or parallel
//! (replicas split iterations round-robin — the DOALL stage of
//! `DSWP+[S, DOALL, S]`-style plans). A parallel stage may additionally be
//! a *ring*: each replica owns a queue to its successor, which is how TLS
//! and DOACROSS forward synchronized cross-iteration dependences.

use dsmtx_fabric::{FaultRates, RetryPolicy};
use dsmtx_mem::ShardMap;

use crate::ids::{MtxId, StageId, WorkerId};

/// Fault-injection configuration for a run: seed, rates, and the timing
/// knobs that convert injected faults into recoveries. The plan injects
/// into every link of the run; every link starts at a worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed the per-link decision streams derive from.
    pub seed: u64,
    /// Per-class fault probabilities.
    pub rates: FaultRates,
    /// Deadline on blocking data receives, microseconds; silence past it
    /// raises a fabric-timeout recovery request.
    pub recv_timeout_us: u64,
    /// Send-side retry budget before a flush gives up with a timeout.
    pub retry: RetryPolicy,
}

impl FaultConfig {
    /// A plan over every link with 50 ms receive deadlines and the default
    /// retry budget.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultConfig {
            seed,
            rates,
            recv_timeout_us: 50_000,
            retry: RetryPolicy::DEFAULT,
        }
    }

    /// Sets the blocking-receive deadline in microseconds.
    pub fn recv_timeout_us(mut self, us: u64) -> Self {
        self.recv_timeout_us = us;
        self
    }

    /// Sets the send-side retry budget.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// How one pipeline stage executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// One worker executes the subTX of every iteration.
    Sequential,
    /// `replicas` workers split iterations round-robin (iteration *i* runs
    /// on replica *i mod replicas*).
    Parallel {
        /// Number of replica workers (≥ 1).
        replicas: u16,
    },
}

impl StageKind {
    /// Worker count of the stage.
    pub fn replicas(self) -> u16 {
        match self {
            StageKind::Sequential => 1,
            StageKind::Parallel { replicas } => replicas,
        }
    }
}

/// Errors detected while validating a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The pipeline has no stages.
    NoStages,
    /// A parallel stage was declared with zero replicas.
    ZeroReplicas(StageId),
    /// The ring stage index does not exist or is sequential.
    BadRingStage(StageId),
    /// Batch or capacity of zero.
    ZeroSize(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoStages => write!(f, "pipeline has no stages"),
            ConfigError::ZeroReplicas(s) => write!(f, "{s} has zero replicas"),
            ConfigError::BadRingStage(s) => {
                write!(f, "{s} cannot be a ring (missing or sequential)")
            }
            ConfigError::ZeroSize(what) => write!(f, "{what} must be nonzero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder-style system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    stages: Vec<StageKind>,
    ring_stage: Option<StageId>,
    batch: usize,
    capacity: usize,
    unit_shards: usize,
    shard_map: Option<ShardMap>,
    fault: Option<FaultConfig>,
}

impl SystemConfig {
    /// Starts an empty pipeline with the default batch (64 items), queue
    /// capacity (256 packets), and a single speculation-unit shard.
    pub fn new() -> Self {
        SystemConfig {
            stages: Vec::new(),
            ring_stage: None,
            batch: 64,
            capacity: 256,
            unit_shards: 1,
            shard_map: None,
            fault: None,
        }
    }

    /// Installs a fault-injection plan for the run. Fault-free when never
    /// called.
    pub fn faults(&mut self, fault: FaultConfig) -> &mut Self {
        self.fault = Some(fault);
        self
    }

    /// Appends a stage to the pipeline.
    pub fn stage(&mut self, kind: StageKind) -> &mut Self {
        self.stages.push(kind);
        self
    }

    /// Declares `stage` a ring: each replica gets a queue to its successor
    /// replica for synchronized cross-iteration dependences (TLS /
    /// DOACROSS).
    pub fn ring(&mut self, stage: StageId) -> &mut Self {
        self.ring_stage = Some(stage);
        self
    }

    /// Sets the queue batch threshold (items per packet).
    pub fn batch(&mut self, batch: usize) -> &mut Self {
        self.batch = batch;
        self
    }

    /// Sets the queue capacity (in-flight packets), which bounds how far a
    /// stage can run ahead of its consumers.
    pub fn capacity(&mut self, capacity: usize) -> &mut Self {
        self.capacity = capacity;
        self
    }

    /// Sets the number of try-commit shards (§3.2's "the algorithms …
    /// are parallelizable"). Each shard validates a disjoint
    /// hash-partition of `PageId` space against its own replay image;
    /// the commit unit aggregates per-shard verdicts into the group
    /// commit decision. The default of 1 reproduces the paper
    /// prototype's single speculation unit.
    pub fn unit_shards(&mut self, shards: usize) -> &mut Self {
        self.unit_shards = shards;
        self
    }

    /// Installs a profile-guided page→shard placement. The try-commit
    /// shards validate the pages it names on the recorded shard instead
    /// of the hash partition's — the explicit thread/data mapping the
    /// auto-planner ships when the store profile is skewed. Every shard
    /// reads the same map from the shared shape, so the partition stays
    /// agreed-upon.
    pub fn shard_map(&mut self, map: ShardMap) -> &mut Self {
        self.shard_map = Some(map);
        self
    }

    /// Validates and freezes the configuration.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn build(&self) -> Result<PipelineShape, ConfigError> {
        if self.stages.is_empty() {
            return Err(ConfigError::NoStages);
        }
        if self.batch == 0 {
            return Err(ConfigError::ZeroSize("batch"));
        }
        if self.capacity == 0 {
            return Err(ConfigError::ZeroSize("capacity"));
        }
        if self.unit_shards == 0 {
            return Err(ConfigError::ZeroSize("unit_shards"));
        }
        let mut first_worker = Vec::with_capacity(self.stages.len());
        let mut next = 0u16;
        for (i, st) in self.stages.iter().enumerate() {
            if st.replicas() == 0 {
                return Err(ConfigError::ZeroReplicas(StageId(i as u16)));
            }
            first_worker.push(next);
            next += st.replicas();
        }
        if let Some(ring) = self.ring_stage {
            let ok = matches!(
                self.stages.get(ring.0 as usize),
                Some(StageKind::Parallel { .. })
            );
            if !ok {
                return Err(ConfigError::BadRingStage(ring));
            }
        }
        Ok(PipelineShape {
            stages: self.stages.clone(),
            first_worker,
            n_workers: next,
            ring_stage: self.ring_stage,
            batch: self.batch,
            capacity: self.capacity,
            unit_shards: self.unit_shards,
            shard_map: self.shard_map.clone(),
            fault: self.fault,
        })
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A validated pipeline: stage layout plus worker/iteration mappings.
#[derive(Debug, Clone)]
pub struct PipelineShape {
    stages: Vec<StageKind>,
    /// First worker id of each stage.
    first_worker: Vec<u16>,
    n_workers: u16,
    ring_stage: Option<StageId>,
    batch: usize,
    capacity: usize,
    unit_shards: usize,
    shard_map: Option<ShardMap>,
    fault: Option<FaultConfig>,
}

impl PipelineShape {
    /// Number of pipeline stages.
    pub fn n_stages(&self) -> u16 {
        self.stages.len() as u16
    }

    /// Total worker thread count (excluding try-commit and commit units).
    pub fn n_workers(&self) -> u16 {
        self.n_workers
    }

    /// Kind of `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn kind(&self, stage: StageId) -> StageKind {
        self.stages[stage.0 as usize]
    }

    /// The stage a worker belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn stage_of(&self, worker: WorkerId) -> StageId {
        let idx = self
            .first_worker
            .partition_point(|&fw| fw <= worker.0)
            .checked_sub(1)
            .expect("worker id below first stage");
        assert!(worker.0 < self.n_workers, "worker id out of range");
        StageId(idx as u16)
    }

    /// Replica index of `worker` within its stage.
    pub fn replica_of(&self, worker: WorkerId) -> u16 {
        let stage = self.stage_of(worker);
        worker.0 - self.first_worker[stage.0 as usize]
    }

    /// The workers of `stage`, in replica order.
    pub fn workers_of(&self, stage: StageId) -> impl Iterator<Item = WorkerId> {
        let first = self.first_worker[stage.0 as usize];
        let count = self.stages[stage.0 as usize].replicas();
        (first..first + count).map(WorkerId)
    }

    /// The worker that executes the subTX of `mtx` at `stage`.
    pub fn executor(&self, stage: StageId, mtx: MtxId) -> WorkerId {
        let first = self.first_worker[stage.0 as usize];
        match self.stages[stage.0 as usize] {
            StageKind::Sequential => WorkerId(first),
            StageKind::Parallel { replicas } => {
                WorkerId(first + (mtx.0 % u64::from(replicas)) as u16)
            }
        }
    }

    /// The first iteration at or after `from` that `worker` executes.
    pub fn next_assigned(&self, worker: WorkerId, from: MtxId) -> MtxId {
        let stage = self.stage_of(worker);
        match self.stages[stage.0 as usize] {
            StageKind::Sequential => from,
            StageKind::Parallel { replicas } => {
                let r = u64::from(replicas);
                let k = u64::from(self.replica_of(worker));
                let base = from.0;
                let rem = base % r;
                let delta = (k + r - rem) % r;
                MtxId(base + delta)
            }
        }
    }

    /// The ring successor of `worker`, when its stage is the ring stage.
    pub fn ring_next(&self, worker: WorkerId) -> Option<WorkerId> {
        let stage = self.stage_of(worker);
        if self.ring_stage != Some(stage) {
            return None;
        }
        let first = self.first_worker[stage.0 as usize];
        let replicas = self.stages[stage.0 as usize].replicas();
        if replicas < 2 {
            return None;
        }
        let k = worker.0 - first;
        Some(WorkerId(first + (k + 1) % replicas))
    }

    /// The declared ring stage, if any.
    pub fn ring_stage(&self) -> Option<StageId> {
        self.ring_stage
    }

    /// Queue batch threshold.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Queue capacity in packets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of try-commit shards the system runs (≥ 1).
    pub fn unit_shards(&self) -> usize {
        self.unit_shards
    }

    /// The profile-guided page→shard placement, if one was installed.
    pub fn shard_map(&self) -> Option<&ShardMap> {
        self.shard_map.as_ref()
    }

    /// The fault-injection plan, if one was configured.
    pub fn fault(&self) -> Option<&FaultConfig> {
        self.fault.as_ref()
    }

    /// The blocking-receive deadline implied by the fault plan, if any.
    pub fn recv_deadline(&self) -> Option<std::time::Duration> {
        self.fault
            .as_ref()
            .map(|f| std::time::Duration::from_micros(f.recv_timeout_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s_d3_s() -> PipelineShape {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential)
            .stage(StageKind::Parallel { replicas: 3 })
            .stage(StageKind::Sequential);
        cfg.build().unwrap()
    }

    #[test]
    fn worker_layout_is_dense_and_ordered() {
        let p = s_d3_s();
        assert_eq!(p.n_stages(), 3);
        assert_eq!(p.n_workers(), 5);
        assert_eq!(p.stage_of(WorkerId(0)), StageId(0));
        assert_eq!(p.stage_of(WorkerId(1)), StageId(1));
        assert_eq!(p.stage_of(WorkerId(3)), StageId(1));
        assert_eq!(p.stage_of(WorkerId(4)), StageId(2));
        assert_eq!(p.replica_of(WorkerId(2)), 1);
        let w: Vec<_> = p.workers_of(StageId(1)).collect();
        assert_eq!(w, vec![WorkerId(1), WorkerId(2), WorkerId(3)]);
    }

    #[test]
    fn executor_round_robins_parallel_stages() {
        let p = s_d3_s();
        assert_eq!(p.executor(StageId(0), MtxId(7)), WorkerId(0));
        assert_eq!(p.executor(StageId(1), MtxId(0)), WorkerId(1));
        assert_eq!(p.executor(StageId(1), MtxId(1)), WorkerId(2));
        assert_eq!(p.executor(StageId(1), MtxId(5)), WorkerId(3));
        assert_eq!(p.executor(StageId(2), MtxId(5)), WorkerId(4));
    }

    #[test]
    fn next_assigned_respects_replica_phase() {
        let p = s_d3_s();
        // Worker 2 is replica 1 of the parallel stage: executes 1, 4, 7, ...
        assert_eq!(p.next_assigned(WorkerId(2), MtxId(0)), MtxId(1));
        assert_eq!(p.next_assigned(WorkerId(2), MtxId(1)), MtxId(1));
        assert_eq!(p.next_assigned(WorkerId(2), MtxId(2)), MtxId(4));
        // The sequential worker executes everything.
        assert_eq!(p.next_assigned(WorkerId(0), MtxId(9)), MtxId(9));
    }

    #[test]
    fn ring_wraps_within_stage() {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 4 })
            .ring(StageId(0));
        let p = cfg.build().unwrap();
        assert_eq!(p.ring_next(WorkerId(0)), Some(WorkerId(1)));
        assert_eq!(p.ring_next(WorkerId(3)), Some(WorkerId(0)));
    }

    #[test]
    fn no_ring_without_declaration() {
        let p = s_d3_s();
        assert_eq!(p.ring_next(WorkerId(1)), None);
    }

    #[test]
    fn single_replica_ring_has_no_successor() {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 1 })
            .ring(StageId(0));
        let p = cfg.build().unwrap();
        assert_eq!(p.ring_next(WorkerId(0)), None);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            SystemConfig::new().build().unwrap_err(),
            ConfigError::NoStages
        );

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 0 });
        assert_eq!(
            cfg.build().unwrap_err(),
            ConfigError::ZeroReplicas(StageId(0))
        );

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential).ring(StageId(0));
        assert_eq!(
            cfg.build().unwrap_err(),
            ConfigError::BadRingStage(StageId(0))
        );

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential).batch(0);
        assert_eq!(cfg.build().unwrap_err(), ConfigError::ZeroSize("batch"));

        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential).unit_shards(0);
        assert_eq!(
            cfg.build().unwrap_err(),
            ConfigError::ZeroSize("unit_shards")
        );
    }

    #[test]
    fn unit_shards_default_one_and_configurable() {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential);
        assert_eq!(cfg.build().unwrap().unit_shards(), 1);
        cfg.unit_shards(4);
        assert_eq!(cfg.build().unwrap().unit_shards(), 4);
    }

    #[test]
    fn shard_map_flows_into_the_shape() {
        let mut map = ShardMap::new();
        map.assign(dsmtx_uva::PageId(7), 3);
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential).shard_map(map.clone());
        let p = cfg.build().unwrap();
        assert_eq!(p.shard_map(), Some(&map));
        // Absent unless installed.
        let mut plain = SystemConfig::new();
        plain.stage(StageKind::Sequential);
        assert!(plain.build().unwrap().shard_map().is_none());
    }

    #[test]
    fn fault_config_flows_into_the_shape() {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Sequential)
            .faults(FaultConfig::new(0xABCD, FaultRates::only_drop(0.1)).recv_timeout_us(10_000));
        let p = cfg.build().unwrap();
        let f = p.fault().expect("plan installed");
        assert_eq!(f.seed, 0xABCD);
        assert_eq!(
            p.recv_deadline(),
            Some(std::time::Duration::from_millis(10))
        );
        // Fault-free shape exposes nothing.
        let mut plain = SystemConfig::new();
        plain.stage(StageKind::Sequential);
        let p = plain.build().unwrap();
        assert!(p.fault().is_none());
        assert_eq!(p.recv_deadline(), None);
    }

    #[test]
    fn tls_shape_is_one_parallel_stage() {
        let mut cfg = SystemConfig::new();
        cfg.stage(StageKind::Parallel { replicas: 8 })
            .ring(StageId(0));
        let p = cfg.build().unwrap();
        assert_eq!(p.n_workers(), 8);
        assert_eq!(p.executor(StageId(0), MtxId(13)), WorkerId(5));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_shape() -> impl Strategy<Value = PipelineShape> {
        proptest::collection::vec(
            prop_oneof![
                Just(StageKind::Sequential),
                (1u16..6).prop_map(|replicas| StageKind::Parallel { replicas }),
            ],
            1..5,
        )
        .prop_map(|stages| {
            let mut cfg = SystemConfig::new();
            for s in stages {
                cfg.stage(s);
            }
            cfg.build().expect("valid")
        })
    }

    proptest! {
        /// The executor mapping and the assignment schedule agree: every
        /// worker executes exactly the iterations mapped to it, in order.
        #[test]
        fn executor_and_assignment_are_consistent(shape in arb_shape(), span in 1u64..80) {
            for s in 0..shape.n_stages() {
                let stage = StageId(s);
                for i in 0..span {
                    let w = shape.executor(stage, MtxId(i));
                    prop_assert_eq!(shape.stage_of(w), stage);
                    // The worker's own schedule lands on i at i.
                    prop_assert_eq!(shape.next_assigned(w, MtxId(i)), MtxId(i));
                }
            }
        }

        /// next_assigned is the least fixed point: it returns the first
        /// iteration >= from that the worker executes, and nothing in
        /// between belongs to the worker.
        #[test]
        fn next_assigned_is_minimal(shape in arb_shape(), from in 0u64..60) {
            for w in 0..shape.n_workers() {
                let worker = WorkerId(w);
                let stage = shape.stage_of(worker);
                let next = shape.next_assigned(worker, MtxId(from));
                prop_assert!(next.0 >= from);
                prop_assert_eq!(shape.executor(stage, next), worker);
                for i in from..next.0 {
                    prop_assert_ne!(shape.executor(stage, MtxId(i)), worker);
                }
            }
        }

        /// Each iteration of each stage has exactly one executor, and the
        /// executors of a parallel stage rotate through all replicas.
        #[test]
        fn round_robin_covers_all_replicas(shape in arb_shape()) {
            for s in 0..shape.n_stages() {
                let stage = StageId(s);
                let replicas = shape.kind(stage).replicas() as u64;
                let seen: std::collections::HashSet<_> =
                    (0..replicas).map(|i| shape.executor(stage, MtxId(i))).collect();
                prop_assert_eq!(seen.len() as u64, replicas);
            }
        }

        /// Ring successors form a single cycle over the ring stage.
        #[test]
        fn ring_is_a_single_cycle(replicas in 2u16..8) {
            let mut cfg = SystemConfig::new();
            cfg.stage(StageKind::Sequential)
                .stage(StageKind::Parallel { replicas })
                .ring(StageId(1));
            let shape = cfg.build().unwrap();
            let start = shape.workers_of(StageId(1)).next().unwrap();
            let mut cur = start;
            let mut steps = 0;
            loop {
                cur = shape.ring_next(cur).expect("ring member");
                steps += 1;
                if cur == start {
                    break;
                }
                prop_assert!(steps <= replicas, "cycle longer than the stage");
            }
            prop_assert_eq!(steps, replicas);
        }
    }
}

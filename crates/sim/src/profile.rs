//! Workload profiles: the per-benchmark parameters that drive the
//! simulator.
//!
//! A profile captures what the paper's §5.2 prose and Table 2 say about
//! each benchmark's parallelization: how the iteration work splits across
//! pipeline stages, how many bytes move per iteration, what bounds the
//! available parallelism, how much of the application lies outside the
//! parallelized loop, and how the TLS-only plan differs (synchronized
//! dependences, different communication volume).

/// How one pipeline stage of a profile executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageShape {
    /// One worker runs every iteration's subTX.
    Sequential,
    /// The stage is replicated over all workers not consumed by
    /// sequential stages.
    Parallel,
}

/// One pipeline stage of a Spec-DSWP plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageProfile {
    /// Sequential or replicated.
    pub shape: StageShape,
    /// This stage's fraction of the iteration work (fractions sum to 1).
    pub work_fraction: f64,
    /// Bytes this stage sends to the next stage per iteration (produces +
    /// forwarded uncommitted stores).
    pub bytes_out: f64,
}

/// The TLS-only baseline plan for the same loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlsPlan {
    /// Fraction of the iteration that must wait for a synchronized value
    /// from the previous iteration (0 for Spec-DOALL-style TLS). This is
    /// the cyclic edge that puts latency on the critical path.
    pub sync_fraction: f64,
    /// Bytes communicated per iteration (synchronized values plus any
    /// input distribution, e.g. `256.bzip2`'s TLS sends only the file
    /// descriptor while Spec-DSWP ships whole blocks).
    pub bytes_per_iter: f64,
    /// Speculatively accessed words per iteration forwarded for
    /// validation and commit.
    pub validation_words: f64,
}

/// An outer-invocation structure (e.g. `052.alvinn` parallelizes the
/// second-level loop of a nest and synchronizes at every invocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationProfile {
    /// Number of invocations of the parallelized loop.
    pub count: u64,
    /// Bytes each worker must receive from the commit unit at invocation
    /// start (Copy-On-Access of live-ins).
    pub init_bytes_per_worker: f64,
    /// Bytes each worker contributes to the end-of-invocation reduction.
    pub reduce_bytes_per_worker: f64,
}

/// Everything the simulator needs to model one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name, as in Table 2.
    pub name: String,
    /// Sequential work per loop iteration, in seconds.
    pub iter_work: f64,
    /// Iterations per invocation of the parallelized loop. Small counts
    /// model parallelism limiters (GoPs for `464.h264ref`, input files
    /// for `crc32`, swaption count for `swaptions`).
    pub iterations: u64,
    /// Fraction of total application time spent in the parallelized
    /// loop(s) (Amdahl coverage).
    pub coverage: f64,
    /// Spec-DSWP pipeline stages.
    pub stages: Vec<StageProfile>,
    /// Words per iteration forwarded to the try-commit and commit units
    /// (speculative loads + stores).
    pub validation_words: f64,
    /// The TLS-only plan for the Figure 4 comparison.
    pub tls: TlsPlan,
    /// True when the application already produces its data in large
    /// chunks (arrays), so the per-message overhead is amortized even
    /// without the batched queues — `052.alvinn`, `164.gzip`, and
    /// `256.bzip2` in the paper (§5.3) see no benefit from the
    /// optimization.
    pub chunked: bool,
    /// Outer-loop synchronization, when present.
    pub invocation: Option<InvocationProfile>,
}

impl WorkloadProfile {
    /// Number of sequential stages in the Spec-DSWP plan.
    pub fn sequential_stages(&self) -> u32 {
        self.stages
            .iter()
            .filter(|s| s.shape == StageShape::Sequential)
            .count() as u32
    }

    /// Number of parallel stages in the Spec-DSWP plan.
    pub fn parallel_stages(&self) -> u32 {
        self.stages.len() as u32 - self.sequential_stages()
    }

    /// Sequential execution time of one invocation of the loop.
    pub fn loop_seq_time(&self) -> f64 {
        self.iter_work * self.iterations as f64
    }

    /// Validates internal consistency (fractions sum to 1, nonzero work).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent profiles; profiles are static data, so this
    /// is a programming-error check.
    pub fn check(&self) {
        assert!(self.iter_work > 0.0, "{}: zero iteration work", self.name);
        assert!(self.iterations > 0, "{}: zero iterations", self.name);
        assert!(
            (0.0..=1.0).contains(&self.coverage) && self.coverage > 0.0,
            "{}: bad coverage",
            self.name
        );
        assert!(!self.stages.is_empty(), "{}: no stages", self.name);
        let total: f64 = self.stages.iter().map(|s| s.work_fraction).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "{}: stage fractions sum to {total}",
            self.name
        );
        assert!(
            self.parallel_stages() <= 1,
            "{}: at most one parallel stage supported",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadProfile {
        WorkloadProfile {
            name: "sample".into(),
            iter_work: 1.0e-3,
            iterations: 100,
            coverage: 0.98,
            stages: vec![
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.05,
                    bytes_out: 4096.0,
                },
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.9,
                    bytes_out: 2048.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.05,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 64.0,
            tls: TlsPlan {
                sync_fraction: 0.05,
                bytes_per_iter: 128.0,
                validation_words: 64.0,
            },
            chunked: false,
            invocation: None,
        }
    }

    #[test]
    fn stage_counting() {
        let p = sample();
        assert_eq!(p.sequential_stages(), 2);
        assert_eq!(p.parallel_stages(), 1);
        assert!((p.loop_seq_time() - 0.1).abs() < 1e-12);
        p.check();
    }

    #[test]
    #[should_panic(expected = "stage fractions")]
    fn bad_fractions_detected() {
        let mut p = sample();
        p.stages[0].work_fraction = 0.5;
        p.check();
    }

    #[test]
    #[should_panic(expected = "zero iterations")]
    fn zero_iterations_detected() {
        let mut p = sample();
        p.iterations = 0;
        p.check();
    }
}

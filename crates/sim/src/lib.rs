//! Discrete-event cluster simulator for the DSMTX evaluation.
//!
//! The paper measures an InfiniBand cluster of 32 Dell PowerEdge 1950
//! nodes (4 cores each, Xeon 5160 @ 3 GHz). That hardware is not
//! available here, so the evaluation figures are regenerated on a
//! parametric performance model instead: the *behaviour* (speculation,
//! validation, commit, rollback) runs for real in the `dsmtx` runtime,
//! while the *timing at 8–128 cores* is simulated by this crate.
//!
//! The model is an iteration-level discrete-event simulation built on the
//! pipeline recurrences of decoupled software pipelining:
//!
//! * each stage executor is a server, busy for the stage's share of the
//!   iteration work plus per-message send/receive CPU overhead;
//! * every byte between stages, to the try-commit unit, and to the commit
//!   unit crosses a NIC with finite bandwidth and latency;
//! * validation and commit are serial servers in MTX order (the paper's
//!   §3.2 serialization);
//! * TLS plans add the cyclic synchronized-dependence edge that puts
//!   communication latency on the critical path (Figure 1);
//! * misspeculation triggers the §4.3 recovery sequence, with ERM / FLQ /
//!   SEQ accounted explicitly and RFP (pipeline refill plus squashed
//!   run-ahead) emerging from the timeline.
//!
//! See `DESIGN.md` §2 for why this substitution preserves the shape of
//! Figures 4–6, and [`schedule`] for the cycle-accurate Figure 1 model.

//! # Example
//!
//! ```
//! use dsmtx_sim::SimEngine;
//! use dsmtx_sim::profile::{StageProfile, StageShape};
//! use dsmtx_sim::{TlsPlan, WorkloadProfile};
//!
//! let profile = WorkloadProfile {
//!     name: "demo".into(),
//!     iter_work: 1.0e-3,
//!     iterations: 1000,
//!     coverage: 0.99,
//!     stages: vec![StageProfile {
//!         shape: StageShape::Parallel,
//!         work_fraction: 1.0,
//!         bytes_out: 64.0,
//!     }],
//!     validation_words: 8.0,
//!     tls: TlsPlan { sync_fraction: 0.02, bytes_per_iter: 64.0, validation_words: 8.0 },
//!     chunked: false,
//!     invocation: None,
//! };
//! let engine = SimEngine::default();
//! let dswp = engine.simulate_spec_dswp(&profile, 128, 0.0);
//! let tls = engine.simulate_tls(&profile, 128, 0.0);
//! assert!(dswp.app_speedup > tls.app_speedup);
//! ```

pub mod ablation;
pub mod cluster;
pub mod engine;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod schedule;

pub use ablation::{
    batch_sweep, coa_granularity, latency_sweep, runahead_sweep, unit_shard_sweep,
    unit_shard_sweep_with,
};
pub use cluster::ClusterConfig;
pub use engine::{RecoveryBreakdown, SimEngine, SimOutcome};
pub use profile::{InvocationProfile, StageProfile, TlsPlan, WorkloadProfile};
pub use report::{bandwidth_series, speedup_curve, SpeedupPoint};
pub use schedule::{doacross_schedule, dswp_schedule, Schedule};

//! Observability layer for the DSMTX reproduction.
//!
//! The paper's argument is quantitative (bandwidth, latency tolerance,
//! recovery cost), so every layer of this runtime reports into a shared
//! vocabulary defined here:
//!
//! - [`Histogram`] — log-bucketed latency/size histogram with ±12.5%
//!   relative error, mergeable across ports and roles after a run;
//! - [`Registry`] — labeled counters (`u64`), gauges (`i64`) and
//!   histograms plus a JSONL export, so simulated and real runs emit the
//!   same schema ([`schema`] holds the shared metric names);
//! - [`ChromeTrace`] — a `chrome://tracing` / Perfetto `trace_event`
//!   JSON writer for per-MTX lifecycle spans;
//! - [`json`] — the escaping and validation helpers backing both
//!   exporters.
//!
//! Every metric is a plain value with one owner, written through
//! `&mut self`: as on a cluster whose nodes share no memory, each role
//! keeps its own telemetry and the runtime merges it once the run
//! returns. This crate has no dependencies (std only) so it can sit
//! below the fabric in the crate DAG.

pub mod chrome;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod span;

pub use chrome::ChromeTrace;
pub use hist::Histogram;
pub use metrics::Registry;
pub use span::{check_spans, AbortCause, ConflictInfo, MtxSpan, SpanOutcome, StageSpan};

/// Shared metric names: the sim engine and the real runtime both emit
/// these, so a JSONL dump from either is comparable row-for-row.
pub mod schema {
    /// Per-stage subTX execution time, labeled `stage`.
    pub const STAGE_EXEC_US: &str = "stage.exec_us";
    /// Last `SubTxEnd` of an MTX to its `Validated` event.
    pub const MTX_VALIDATION_WAIT_US: &str = "mtx.validation_wait_us";
    /// `Validated` to `Committed` (commit-queue wait).
    pub const MTX_COMMIT_WAIT_US: &str = "mtx.commit_wait_us";
    /// First `SubTxBegin` to `Committed`.
    pub const MTX_TOTAL_LATENCY_US: &str = "mtx.total_latency_us";
    /// Inter-commit period observed at the commit unit.
    pub const MTX_COMMIT_PERIOD_US: &str = "mtx.commit_period_us";
    /// Busy fraction (0..=1, scaled by 1e6 when stored in a gauge) of a
    /// worker/try-commit/commit track, labeled `role`.
    pub const ROLE_BUSY_PPM: &str = "role.busy_ppm";

    /// Aborted speculative attempts by attributed cause, labeled
    /// `cause` with an [`crate::AbortCause`] name. A nonzero
    /// `cause="unpredicted"` count is a soundness red flag.
    pub const WHY_ABORTS: &str = "why.aborts";
    /// Speculative attempts observed by the span builder.
    pub const WHY_ATTEMPTS: &str = "why.attempts";

    /// Whole-run roll-ups.
    pub const RUN_ELAPSED_US: &str = "run.elapsed_us";
    pub const RUN_COMMITTED: &str = "run.committed";
    pub const RUN_RECOVERIES: &str = "run.recoveries";
    pub const RUN_BYTES: &str = "run.bytes";
    pub const RUN_BANDWIDTH_BPS: &str = "run.bandwidth_bps";
    pub const RUN_SPEEDUP_MILLI: &str = "run.speedup_milli";
    /// Trace events discarded after a role's capacity-bounded trace
    /// buffer filled.
    /// Nonzero means the span set is incomplete — `repro why` output
    /// and the drop counter both surface it.
    pub const TRACE_EVENTS_DROPPED: &str = "trace.events_dropped";
    /// Fabric timeouts raised to the control plane (each one requests a
    /// timeout-driven recovery round).
    pub const RUN_FABRIC_TIMEOUTS: &str = "run.fabric_timeouts";
    /// Recovery rounds entered because of a fabric fault (subset of
    /// `run.recoveries`).
    pub const RUN_FAULT_RECOVERIES: &str = "run.fault_recoveries";
    /// Disconnected channels reported while running (typed shutdowns).
    pub const RUN_CHANNEL_DOWNS: &str = "run.channel_downs";

    /// Per-try-commit-shard metrics (§3.2 parallel speculation units),
    /// labeled `shard`. At `unit_shards = 1` the single shard carries
    /// the whole validation plane.
    ///
    /// Arrival of a subTX's block at the speculation units to the start
    /// of this shard's program-order replay of it (how far the shard's
    /// image lags the workers).
    pub const SHARD_REPLAY_LAG_US: &str = "shard.replay_lag_us";
    /// Arrival of an MTX's final-stage stream to its verdict publish.
    pub const SHARD_VERDICT_LATENCY_US: &str = "shard.verdict_latency_us";
    /// Share of the run's wall time the units' thread spent in the
    /// shard's productive turns, parts per million.
    pub const SHARD_OCCUPANCY_PPM: &str = "shard.occupancy_ppm";
    /// MTXs this shard validated.
    pub const SHARD_VALIDATED: &str = "shard.validated";
    /// Conflicts this shard detected in its page partition.
    pub const SHARD_CONFLICTS: &str = "shard.conflicts";
    /// COA pages this shard fetched into its replay image.
    pub const SHARD_COA_FETCHES: &str = "shard.coa_fetches";

    /// Fabric counters (send and recv side) and distributions.
    pub const FABRIC_SENT_PACKETS: &str = "fabric.sent_packets";
    pub const FABRIC_SENT_ITEMS: &str = "fabric.sent_items";
    pub const FABRIC_SENT_BYTES: &str = "fabric.sent_bytes";
    pub const FABRIC_RECV_PACKETS: &str = "fabric.recv_packets";
    pub const FABRIC_RECV_ITEMS: &str = "fabric.recv_items";
    pub const FABRIC_RECV_BYTES: &str = "fabric.recv_bytes";
    pub const FABRIC_DRAINED_ITEMS: &str = "fabric.drained_items";
    pub const FABRIC_IN_FLIGHT_ITEMS: &str = "fabric.in_flight_items";
    pub const FABRIC_BATCH_ITEMS: &str = "fabric.batch_items";
    /// Ship → unpack dwell of a packet in the queue (the fabric-level
    /// component of an MTX's queue wait).
    pub const FABRIC_QUEUE_DWELL_US: &str = "fabric.queue_dwell_us";

    /// Injected-fault and retry counters (zero on fault-free runs).
    pub const FABRIC_FAULT_DROPS: &str = "fabric.fault.drops";
    pub const FABRIC_FAULT_STALLS: &str = "fabric.fault.stalls";
    pub const FABRIC_RETRIES: &str = "fabric.retries";
    pub const FABRIC_SEND_TIMEOUTS: &str = "fabric.send_timeouts";
    /// Batch buffers dropped at recycle because the bounded freelist was
    /// full (the allocator takes over; a liveness-neutral shed).
    pub const FABRIC_FREELIST_DROPS: &str = "fabric.freelist_drops";

    /// Validation-plane compaction counters (worker-side access filtering
    /// and packed `AccessBlock` frames).
    ///
    /// Fabric items actually shipped (block frames; each carries many
    /// records).
    pub const VALPLANE_RECORDS_POST: &str = "valplane.records_post";
    /// Access records suppressed by the worker-side store buffer
    /// (coalesced stores and duplicate loads).
    pub const VALPLANE_RECORDS_FILTERED: &str = "valplane.records_filtered";
    /// Bytes actually on the wire (frames plus packed payloads).
    pub const VALPLANE_BYTES_POST: &str = "valplane.bytes_post";
    /// `AccessBlock` frames shipped to the speculation units (one per
    /// subTX).
    pub const VALPLANE_BLOCKS: &str = "valplane.blocks";
    /// Access records carried inside those blocks (post-filter).
    pub const VALPLANE_BLOCK_RECORDS: &str = "valplane.block_records";

    /// Dependence-analyzer counters (the `dsmtx-analyze` static side),
    /// labeled `workload`.
    ///
    /// Dependence edges classified from the recorded sequential stream.
    pub const ANALYZE_EDGES: &str = "analyze.edges";
    /// Loop-carried flow edges — the dependences speculation can break.
    pub const ANALYZE_CARRIED_FLOWS: &str = "analyze.carried_flows";
    /// Error-severity lint findings (CI gate fails on any for a shipped
    /// plan).
    pub const ANALYZE_FINDINGS_ERROR: &str = "analyze.findings_error";
    /// Warning-severity lint findings.
    pub const ANALYZE_FINDINGS_WARNING: &str = "analyze.findings_warning";
    /// Pages in the analyzer's conservative conflict superset.
    pub const ANALYZE_PREDICTED_PAGES: &str = "analyze.predicted_pages";

    /// Predicted-vs-observed certification counters, labeled `workload`
    /// and `shards`.
    ///
    /// Certification runs checked (one per workload × shard count).
    pub const CERT_RUNS: &str = "cert.runs";
    /// Distinct pages where the certified run observed try-commit
    /// conflicts.
    pub const CERT_OBSERVED_PAGES: &str = "cert.observed_pages";
    /// Observed conflict pages the analyzer failed to predict — any
    /// nonzero value is an analyzer soundness bug.
    pub const CERT_UNPREDICTED_PAGES: &str = "cert.unpredicted_pages";

    /// Auto-partitioner counters (the `repro plan` planning pass),
    /// labeled `workload`.
    ///
    /// Strongly connected components condensed from the address
    /// dependence graph.
    pub const PLAN_SCCS: &str = "plan.sccs";
    /// Candidate plans that passed the linter and were ranked.
    pub const PLAN_CANDIDATES: &str = "plan.candidates";
    /// Candidate plans refused for Error-severity findings.
    pub const PLAN_REJECTED: &str = "plan.rejected";
    /// Addresses where the auto and hand partitions agree.
    pub const PLAN_AGREEMENTS: &str = "plan.agreements";
    /// Addresses where they diverge.
    pub const PLAN_DIVERGENCES: &str = "plan.divergences";

    /// Auto-plan execution (`repro plan --apply`) counters, labeled
    /// `workload` and `shards`.
    ///
    /// Value-validation conflicts the auto plan's replay run observed.
    pub const PLAN_APPLY_CONFLICTS: &str = "plan.apply.conflicts";
    /// Observed conflict pages outside the auto plan's own predicted
    /// superset — nonzero fails the gate.
    pub const PLAN_APPLY_UNPREDICTED: &str = "plan.apply.unpredicted";
}

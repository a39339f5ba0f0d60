//! Run results and statistics.

use std::time::Duration;

use dsmtx_fabric::FabricStats;
use dsmtx_mem::MasterMem;
use dsmtx_obs::{schema, Histogram, Registry};

use crate::ids::MtxId;
use crate::spans::{build_spans, RunSpans, SpanMetrics};
use crate::trace::TraceEvent;
use crate::trycommit::ConflictRecord;

/// Per-try-commit-shard statistics (§3.2 parallel speculation units).
///
/// Each shard validates a disjoint hash-partition of the page space; at
/// `unit_shards = 1` the single entry covers the whole validation plane.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// MTXs this shard validated in its page partition (its cursor
    /// advanced past them).
    pub validated: u64,
    /// Value-validation conflicts detected in this shard's partition
    /// (each one is a [`RunReport::conflict_events`] entry).
    pub conflicts: u64,
    /// COA pages copied into this shard's replay image: one per page per
    /// validation window, on the shard's first replayed load *or store*
    /// to it.
    pub coa_fetches: u64,
    /// SubTX block arrival at the units to this shard's replay start,
    /// microseconds.
    pub replay_lag: Histogram,
    /// MTX final-stage arrival to verdict (its cursor advance),
    /// microseconds.
    pub verdict_latency: Histogram,
    /// Share of the run's wall time that the units' thread (the caller
    /// of `MtxSystem::run`) spent in this shard's productive turns, parts
    /// per million. The shards' turns run one after another on that
    /// thread, so the shares of all shards and the commit unit's own
    /// work sum to at most one million.
    pub busy_ppm: u64,
}

/// Validation-plane compaction statistics, aggregated across workers:
/// what actually went on the wire (block frames plus their packed
/// payload bytes) and what the worker-side filter suppressed.
#[derive(Debug, Default, Clone)]
pub struct ValPlaneStats {
    /// Fabric items actually shipped (block frames).
    pub records_post: u64,
    /// Wire bytes actually spent (frames + packed payloads).
    pub bytes_post: u64,
    /// Access records suppressed by the worker-side store buffer.
    pub records_filtered: u64,
    /// `AccessBlock` frames shipped.
    pub blocks: u64,
    /// Access records carried inside those blocks (post-filter).
    pub block_records: u64,
}

impl ValPlaneStats {
    /// Folds another worker's counters into this aggregate.
    pub fn merge(&mut self, other: &ValPlaneStats) {
        self.records_post += other.records_post;
        self.bytes_post += other.bytes_post;
        self.records_filtered += other.records_filtered;
        self.blocks += other.blocks;
        self.block_records += other.block_records;
    }

    /// Mean records per shipped block (0 when no blocks shipped).
    pub fn block_fill(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.block_records as f64 / self.blocks as f64
        }
    }
}

/// Statistics and outcome of one parallel run.
#[derive(Debug)]
pub struct RunReport {
    /// Number of MTXs committed speculatively (excludes iterations
    /// re-executed sequentially during recovery).
    pub committed: u64,
    /// Number of misspeculation recoveries.
    pub recoveries: u64,
    /// Iterations re-executed sequentially by the commit unit.
    pub recovered_iterations: u64,
    /// The last iteration of the loop, if the loop ran at all.
    pub last_iteration: Option<MtxId>,
    /// Copy-On-Access pages copied out of the committed image: every
    /// worker's first touches plus every try-commit shard's fetches (a
    /// shard's first replayed load or store to a page).
    pub coa_pages_served: u64,
    /// MTXs squashed because value validation conflicted in them
    /// (speculated dependences that manifested): one per MTX, however
    /// many shards conflicted in it, so the count does not depend on
    /// `unit_shards`. A conflict that a misspeculation or fault round at
    /// an earlier MTX preempted is not counted; the shards' own
    /// `ShardStats::conflicts` still count it.
    pub validation_conflicts: u64,
    /// Misspeculations workers declared explicitly (`mtx_misspec`,
    /// failed control-flow speculation).
    pub worker_misspecs: u64,
    /// Fabric-timeout recovery requests raised (exhausted send retries or
    /// expired receive deadlines under fault injection).
    pub fabric_timeouts: u64,
    /// Recovery rounds run in answer to fabric-timeout requests.
    pub fault_recoveries: u64,
    /// Channels found disconnected while running (each converts into a
    /// typed shutdown; nonzero only when a thread died).
    pub channel_downs: u64,
    /// Per-try-commit-shard statistics, indexed by shard; length is the
    /// configured `unit_shards`.
    pub shard_stats: Vec<ShardStats>,
    /// Every conflict any shard detected, with attribution context
    /// (conflicting page, owning shard, first speculative writer),
    /// sorted by `(mtx, attempt, shard, page)`. Joined to lifecycle
    /// spans by `(mtx, attempt)` when `repro why` explains an abort.
    pub conflict_events: Vec<ConflictRecord>,
    /// Validation-plane compaction counters, aggregated over all
    /// workers.
    pub valplane: ValPlaneStats,
    /// Fabric traffic of every link end, merged once the run returned.
    pub stats: FabricStats,
    /// Wall-clock duration of the parallel section.
    pub elapsed: Duration,
    /// Trace events, when tracing was enabled.
    pub trace: Vec<TraceEvent>,
    /// Trace events discarded because a role's share of
    /// [`crate::DEFAULT_TRACE_CAPACITY`] was reached.
    pub trace_dropped: u64,
}

impl RunReport {
    /// Total iterations whose effects reached committed memory.
    pub fn total_iterations(&self) -> u64 {
        self.committed + self.recovered_iterations
    }

    /// Application-level bandwidth in bytes/second, the Figure 5(a)
    /// metric: total data transferred through DSMTX divided by execution
    /// time.
    pub fn bandwidth_bps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.stats.bytes() as f64 / secs
        }
    }

    /// Distinct pages on which any try-commit shard observed a
    /// value-validation conflict, sorted ascending — the "observed
    /// conflict sites" side of the analyzer's predicted-vs-observed
    /// certification pass.
    pub fn conflict_pages(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self.conflict_events.iter().map(|c| c.page).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Reads the trace once ([`build_spans`]): one lifecycle span per
    /// `(mtx, attempt)`, joined with the shards' conflict records, plus
    /// the commit order and the recovery rounds. Empty when the run was
    /// not traced. Causes are unset here — attribution lives in
    /// `dsmtx-analyze`, which joins spans against the PDG.
    pub fn spans(&self) -> RunSpans {
        build_spans(&self.trace, &self.conflict_events)
    }

    /// Exports run totals, fabric stats, and the span-derived latency
    /// and occupancy metrics ([`SpanMetrics`]) into `reg` under the
    /// shared [`dsmtx_obs::schema`] names; the simulator emits the same
    /// `run.*` names.
    pub fn to_registry(&self, reg: &mut Registry) {
        for (name, value) in [
            (schema::RUN_COMMITTED, self.committed),
            (schema::RUN_RECOVERIES, self.recoveries),
            (schema::RUN_BYTES, self.stats.bytes()),
            (schema::TRACE_EVENTS_DROPPED, self.trace_dropped),
            (schema::RUN_FABRIC_TIMEOUTS, self.fabric_timeouts),
            (schema::RUN_FAULT_RECOVERIES, self.fault_recoveries),
            (schema::RUN_CHANNEL_DOWNS, self.channel_downs),
        ] {
            reg.add(name, &[], value);
        }
        reg.set(schema::RUN_ELAPSED_US, &[], self.elapsed.as_micros() as i64);
        reg.set(schema::RUN_BANDWIDTH_BPS, &[], self.bandwidth_bps() as i64);
        for (s, stats) in self.shard_stats.iter().enumerate() {
            let shard = s.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard)];
            reg.add(schema::SHARD_VALIDATED, labels, stats.validated);
            reg.add(schema::SHARD_CONFLICTS, labels, stats.conflicts);
            reg.add(schema::SHARD_COA_FETCHES, labels, stats.coa_fetches);
            reg.set(schema::SHARD_OCCUPANCY_PPM, labels, stats.busy_ppm as i64);
            reg.install_histogram(
                schema::SHARD_REPLAY_LAG_US,
                labels,
                stats.replay_lag.clone(),
            );
            reg.install_histogram(
                schema::SHARD_VERDICT_LATENCY_US,
                labels,
                stats.verdict_latency.clone(),
            );
        }
        let v = &self.valplane;
        for (name, value) in [
            (schema::VALPLANE_RECORDS_POST, v.records_post),
            (schema::VALPLANE_RECORDS_FILTERED, v.records_filtered),
            (schema::VALPLANE_BYTES_POST, v.bytes_post),
            (schema::VALPLANE_BLOCKS, v.blocks),
            (schema::VALPLANE_BLOCK_RECORDS, v.block_records),
        ] {
            reg.add(name, &[], value);
        }
        self.stats.to_registry(reg);
        SpanMetrics::new(&self.spans().spans).to_registry(reg);
    }
}

/// Everything a run returns: the final committed memory plus the report.
#[derive(Debug)]
pub struct RunResult {
    /// Committed memory at loop exit; read program outputs from here.
    pub master: MasterMem,
    /// Statistics and trace.
    pub report: RunReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StageId;
    use crate::trace::{Role, TraceKind};

    fn empty_report() -> RunReport {
        RunReport {
            committed: 0,
            recoveries: 0,
            recovered_iterations: 0,
            last_iteration: None,
            coa_pages_served: 0,
            validation_conflicts: 0,
            worker_misspecs: 0,
            fabric_timeouts: 0,
            fault_recoveries: 0,
            channel_downs: 0,
            shard_stats: Vec::new(),
            conflict_events: Vec::new(),
            valplane: ValPlaneStats::default(),
            stats: FabricStats::new(),
            elapsed: Duration::ZERO,
            trace: Vec::new(),
            trace_dropped: 0,
        }
    }

    #[test]
    fn totals_and_bandwidth() {
        let mut stats = FabricStats::new();
        stats.record_packet(4, 4000);
        let r = RunReport {
            committed: 10,
            recoveries: 1,
            recovered_iterations: 1,
            last_iteration: Some(MtxId(10)),
            coa_pages_served: 3,
            stats,
            elapsed: Duration::from_secs(2),
            ..empty_report()
        };
        assert_eq!(r.total_iterations(), 11);
        assert!((r.bandwidth_bps() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_elapsed_has_zero_bandwidth() {
        let r = empty_report();
        assert_eq!(r.bandwidth_bps(), 0.0);
    }

    #[test]
    fn stage_latency_accessors_read_the_trace() {
        let w = Role::Worker(0);
        let mut r = empty_report();
        for (i, (begin, end)) in [(0u64, 80u64), (100, 220), (300, 390)].iter().enumerate() {
            let event = |role, stage, kind, at_us| TraceEvent {
                role,
                mtx: Some(MtxId(i as u64)),
                attempt: 0,
                stage,
                kind,
                at_us,
            };
            r.trace.extend([
                event(w, Some(StageId(0)), TraceKind::SubTxBegin, *begin),
                event(w, Some(StageId(0)), TraceKind::SubTxEnd, *end),
                event(Role::TryCommit(0), None, TraceKind::Validated, *end),
                event(Role::Commit, None, TraceKind::Committed, *end),
            ]);
        }
        let m = SpanMetrics::new(&r.spans().spans);
        // Durations 80, 120, 90 -> p50 is the middle one, within the
        // histogram's 12.5% bucket resolution.
        let p50 = m.stage_exec[&0].p50() as f64;
        assert!((p50 - 90.0).abs() / 90.0 < 0.13, "p50 {p50}");
        let p99 = m.stage_exec[&0].p99() as f64;
        assert!((p99 - 120.0).abs() / 120.0 < 0.13, "p99 {p99}");
        // An untraced stage has no histogram.
        assert!(!m.stage_exec.contains_key(&7));
    }

    #[test]
    fn registry_export_has_run_and_fabric_metrics() {
        let r = empty_report();
        let mut reg = Registry::new();
        r.to_registry(&mut reg);
        let dump = reg.to_jsonl();
        for line in dump.lines() {
            dsmtx_obs::json::validate(line).unwrap();
        }
        assert!(dump.contains(schema::RUN_COMMITTED));
        assert!(dump.contains(schema::RUN_FABRIC_TIMEOUTS));
        assert!(dump.contains(schema::RUN_FAULT_RECOVERIES));
        assert!(dump.contains(schema::RUN_CHANNEL_DOWNS));
        assert!(dump.contains(schema::FABRIC_SENT_BYTES));
        assert!(dump.contains(schema::VALPLANE_BYTES_POST));
    }

    #[test]
    fn valplane_merge_sums_and_block_fill_averages() {
        let mut a = ValPlaneStats {
            records_post: 10,
            bytes_post: 900,
            records_filtered: 20,
            blocks: 4,
            block_records: 80,
        };
        let b = ValPlaneStats {
            records_post: 5,
            blocks: 1,
            block_records: 20,
            ..ValPlaneStats::default()
        };
        a.merge(&b);
        assert_eq!(a.records_post, 15);
        assert_eq!(a.blocks, 5);
        assert!((a.block_fill() - 20.0).abs() < 1e-9);
        assert_eq!(ValPlaneStats::default().block_fill(), 0.0);
    }

    #[test]
    fn conflict_pages_aggregate_sorted_and_deduped() {
        let conflict = |mtx, page, shard| ConflictRecord {
            mtx,
            attempt: 0,
            stage: 0,
            page,
            shard,
            first_writer: None,
        };
        let mut r = empty_report();
        // Shard 0 conflicted three times (page 9 twice), shard 1 once.
        r.conflict_events = vec![
            conflict(1, 9, 0),
            conflict(2, 2, 0),
            conflict(3, 5, 1),
            conflict(4, 9, 0),
        ];
        assert_eq!(r.conflict_pages(), vec![2, 5, 9]);
        assert!(empty_report().conflict_pages().is_empty());
    }

    #[test]
    fn registry_export_labels_each_shard() {
        let mut r = empty_report();
        r.shard_stats = vec![
            ShardStats {
                validated: 5,
                conflicts: 1,
                busy_ppm: 250_000,
                ..ShardStats::default()
            },
            ShardStats {
                validated: 7,
                ..ShardStats::default()
            },
        ];
        let mut reg = Registry::new();
        r.to_registry(&mut reg);
        let dump = reg.to_jsonl();
        for line in dump.lines() {
            dsmtx_obs::json::validate(line).unwrap();
        }
        assert!(dump.contains(schema::SHARD_VALIDATED));
        assert!(dump.contains(schema::SHARD_OCCUPANCY_PPM));
        assert!(dump.contains(schema::SHARD_REPLAY_LAG_US));
        assert!(dump.contains(r#""shard":"0""#) || dump.contains(r#""shard": "0""#));
        assert!(dump.contains(r#""shard":"1""#) || dump.contains(r#""shard": "1""#));
    }
}

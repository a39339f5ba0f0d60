//! Turns the raw `TraceSink` event stream into per-stage latency
//! histograms, occupancy, commit-queue waits, critical-path breakdowns,
//! runtime-invariant checks, and a Chrome `trace_event` export.
//!
//! The MTX lifecycle being measured (paper §3, Figure 3):
//!
//! ```text
//!   SubTxBegin ─ stage 0 ─ SubTxEnd ─ ... ─ SubTxEnd ─┐ (last stage)
//!        │                                            ▼
//!        │                              validation wait (try-commit queue)
//!        │                                            ▼
//!        │                                        Validated
//!        │                                            ▼
//!        │                               commit wait (commit queue)
//!        │                                            ▼
//!        └───────────── total latency ───────────► Committed
//! ```

use std::collections::{BTreeMap, HashMap};

use dsmtx_obs::{ChromeTrace, Histogram, Registry};

use crate::ids::{MtxId, StageId};
use crate::trace::{Role, TraceEvent, TraceKind};

/// Mean per-MTX time attribution: where a committed iteration's wall
/// clock went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPath {
    /// Mean time inside subTX execution (summed across stages).
    pub exec_us: f64,
    /// Mean wait from last `SubTxEnd` to `Validated`.
    pub validation_wait_us: f64,
    /// Mean wait from `Validated` to `Committed`.
    pub commit_wait_us: f64,
    /// Mean first `SubTxBegin` → `Committed`.
    pub total_us: f64,
}

/// Post-hoc analysis of one run's trace.
#[derive(Debug)]
pub struct TraceAnalysis {
    stage_exec: BTreeMap<u16, Histogram>,
    validation_wait: Histogram,
    commit_wait: Histogram,
    total_latency: Histogram,
    commit_period: Histogram,
    exec_per_mtx: Histogram,
    commit_order: Vec<MtxId>,
    busy_us: BTreeMap<Role, u64>,
    span_us: u64,
    recoveries: u64,
    violations: Vec<String>,
}

impl TraceAnalysis {
    /// Derives every metric from an event stream (as returned by
    /// `TraceSink::events` / stored in `RunReport::trace`).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut stage_exec: BTreeMap<u16, Histogram> = BTreeMap::new();
        let validation_wait = Histogram::new();
        let commit_wait = Histogram::new();
        let total_latency = Histogram::new();
        let commit_period = Histogram::new();
        let exec_per_mtx = Histogram::new();
        let mut commit_order = Vec::new();
        let mut busy_us: BTreeMap<Role, u64> = BTreeMap::new();
        let mut violations = Vec::new();

        // Per-role currently-open subTX, for begin/end matching.
        let mut open: HashMap<Role, (MtxId, StageId, u64)> = HashMap::new();
        // Per-MTX lifecycle aggregates.
        #[derive(Default)]
        struct Life {
            first_begin: Option<u64>,
            last_end: Option<u64>,
            exec_us: u64,
            validated_at: Option<u64>,
            committed_at: Option<u64>,
            unmatched_begins: u32,
            stray_ends: u32,
        }
        let mut lives: HashMap<MtxId, Life> = HashMap::new();
        let mut recoveries = 0u64;
        let mut last_commit_at: Option<u64> = None;

        for e in events {
            match e.kind {
                TraceKind::SubTxBegin => {
                    let (Some(mtx), Some(stage)) = (e.mtx, e.stage) else {
                        violations.push(format!("SubTxBegin without mtx/stage at {}us", e.at_us));
                        continue;
                    };
                    if let Some((open_mtx, _, _)) = open.insert(e.role, (mtx, stage, e.at_us)) {
                        lives.entry(open_mtx).or_default().unmatched_begins += 1;
                    }
                    let life = lives.entry(mtx).or_default();
                    life.first_begin = Some(life.first_begin.map_or(e.at_us, |t| t.min(e.at_us)));
                }
                TraceKind::SubTxEnd => {
                    let (Some(mtx), Some(stage)) = (e.mtx, e.stage) else {
                        violations.push(format!("SubTxEnd without mtx/stage at {}us", e.at_us));
                        continue;
                    };
                    match open.remove(&e.role) {
                        Some((m, s, began)) if m == mtx && s == stage => {
                            let dur = e.at_us.saturating_sub(began);
                            stage_exec.entry(stage.0).or_default().record(dur);
                            *busy_us.entry(e.role).or_insert(0) += dur;
                            let life = lives.entry(mtx).or_default();
                            life.exec_us += dur;
                            life.last_end = Some(life.last_end.map_or(e.at_us, |t| t.max(e.at_us)));
                        }
                        other => {
                            if let Some(o) = other {
                                open.insert(e.role, o);
                            }
                            lives.entry(mtx).or_default().stray_ends += 1;
                        }
                    }
                }
                TraceKind::Validated => {
                    if let Some(mtx) = e.mtx {
                        lives.entry(mtx).or_default().validated_at = Some(e.at_us);
                    }
                }
                TraceKind::Conflict => {}
                TraceKind::Committed => {
                    let Some(mtx) = e.mtx else {
                        violations.push(format!("Committed without mtx at {}us", e.at_us));
                        continue;
                    };
                    commit_order.push(mtx);
                    lives.entry(mtx).or_default().committed_at = Some(e.at_us);
                    if let Some(prev) = last_commit_at {
                        commit_period.record(e.at_us.saturating_sub(prev));
                    }
                    last_commit_at = Some(e.at_us);
                }
                TraceKind::RecoveryStart | TraceKind::FaultRecoveryStart => recoveries += 1,
                // Intra-subTX phase markers; the span builder consumes
                // them, the aggregate analysis keeps begin/end semantics.
                TraceKind::ExecBegin | TraceKind::FlushBegin => {}
                TraceKind::RecoveryEnd | TraceKind::Terminated => {}
            }
        }
        // Still-open subTXs at stream end (normal during recovery or
        // termination; a violation only if that MTX also committed).
        for (_, (mtx, _, _)) in open {
            lives.entry(mtx).or_default().unmatched_begins += 1;
        }

        // Lifecycle-derived distributions and committed-MTX invariants.
        for (mtx, life) in &lives {
            let Some(committed_at) = life.committed_at else {
                continue;
            };
            exec_per_mtx.record(life.exec_us);
            match life.validated_at {
                Some(v) => {
                    if v > committed_at {
                        violations.push(format!("{mtx} validated after commit"));
                    }
                    commit_wait.record(committed_at.saturating_sub(v));
                    if let Some(end) = life.last_end {
                        validation_wait.record(v.saturating_sub(end));
                    }
                }
                None => violations.push(format!("{mtx} committed without validation")),
            }
            if let Some(begin) = life.first_begin {
                total_latency.record(committed_at.saturating_sub(begin));
            } else {
                violations.push(format!("{mtx} committed but never began a subTX"));
            }
            if life.unmatched_begins > 0 {
                violations.push(format!(
                    "{mtx} committed with {} SubTxBegin(s) lacking a SubTxEnd",
                    life.unmatched_begins
                ));
            }
            if life.stray_ends > 0 {
                violations.push(format!(
                    "{mtx} has {} SubTxEnd(s) with no matching SubTxBegin",
                    life.stray_ends
                ));
            }
        }

        // Commit order must follow iteration order; with no recoveries it
        // must also be gapless.
        for pair in commit_order.windows(2) {
            if pair[1].0 <= pair[0].0 {
                violations.push(format!("{} committed after {}", pair[1], pair[0]));
            } else if recoveries == 0 && pair[1].0 != pair[0].0 + 1 {
                violations.push(format!(
                    "commit gap between {} and {} without recovery",
                    pair[0], pair[1]
                ));
            }
        }

        let span_us = match (events.first(), events.last()) {
            (Some(a), Some(b)) => b.at_us.saturating_sub(a.at_us),
            _ => 0,
        };

        violations.sort();
        TraceAnalysis {
            stage_exec,
            validation_wait,
            commit_wait,
            total_latency,
            commit_period,
            exec_per_mtx,
            commit_order,
            busy_us,
            span_us,
            recoveries,
            violations,
        }
    }

    /// Stages that executed at least one subTX, ascending.
    pub fn stages(&self) -> Vec<StageId> {
        self.stage_exec.keys().map(|&s| StageId(s)).collect()
    }

    /// SubTX execution-time histogram for one stage.
    pub fn stage_exec(&self, stage: StageId) -> Option<&Histogram> {
        self.stage_exec.get(&stage.0)
    }

    /// Wait from an MTX's last `SubTxEnd` to its `Validated` event.
    pub fn validation_wait(&self) -> &Histogram {
        &self.validation_wait
    }

    /// Commit-queue wait: `Validated` → `Committed`.
    pub fn commit_wait(&self) -> &Histogram {
        &self.commit_wait
    }

    /// First `SubTxBegin` → `Committed` per MTX.
    pub fn total_latency(&self) -> &Histogram {
        &self.total_latency
    }

    /// Inter-commit period at the commit unit (pipeline throughput).
    pub fn commit_period(&self) -> &Histogram {
        &self.commit_period
    }

    /// MTXs in the order the commit unit committed them.
    pub fn commit_order(&self) -> &[MtxId] {
        &self.commit_order
    }

    /// Misspeculation recoveries observed in the trace.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Wall-clock span covered by the trace, in microseconds.
    pub fn span_us(&self) -> u64 {
        self.span_us
    }

    /// Fraction of the trace span each role spent inside subTXs,
    /// ascending by role. Only roles that executed subTXs (workers)
    /// appear.
    pub fn occupancy(&self) -> Vec<(Role, f64)> {
        self.busy_us
            .iter()
            .map(|(&role, &busy)| {
                let frac = if self.span_us == 0 {
                    0.0
                } else {
                    busy as f64 / self.span_us as f64
                };
                (role, frac.min(1.0))
            })
            .collect()
    }

    /// Mean per-committed-MTX attribution of time.
    pub fn critical_path(&self) -> CriticalPath {
        CriticalPath {
            exec_us: self.exec_per_mtx.mean(),
            validation_wait_us: self.validation_wait.mean(),
            commit_wait_us: self.commit_wait.mean(),
            total_us: self.total_latency.mean(),
        }
    }

    /// Runtime invariants the trace must satisfy: commit order follows
    /// iteration order, every committed MTX validated first, and every
    /// committed MTX's `SubTxBegin`s have matching `SubTxEnd`s.
    ///
    /// # Errors
    ///
    /// Returns the list of human-readable violations.
    pub fn check_invariants(&self) -> Result<(), Vec<String>> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(self.violations.clone())
        }
    }

    /// Installs every derived histogram and occupancy gauge into `reg`
    /// under the shared [`dsmtx_obs::schema`] names.
    pub fn to_registry(&self, reg: &Registry) {
        for (stage, hist) in &self.stage_exec {
            reg.install_histogram(
                dsmtx_obs::schema::STAGE_EXEC_US,
                &[("stage", &stage.to_string())],
                hist.clone(),
            );
        }
        reg.install_histogram(
            dsmtx_obs::schema::MTX_VALIDATION_WAIT_US,
            &[],
            self.validation_wait.clone(),
        );
        reg.install_histogram(
            dsmtx_obs::schema::MTX_COMMIT_WAIT_US,
            &[],
            self.commit_wait.clone(),
        );
        reg.install_histogram(
            dsmtx_obs::schema::MTX_TOTAL_LATENCY_US,
            &[],
            self.total_latency.clone(),
        );
        reg.install_histogram(
            dsmtx_obs::schema::MTX_COMMIT_PERIOD_US,
            &[],
            self.commit_period.clone(),
        );
        for (role, frac) in self.occupancy() {
            reg.gauge(
                dsmtx_obs::schema::ROLE_BUSY_PPM,
                &[("role", &role.to_string())],
            )
            .set((frac * 1.0e6) as i64);
        }
    }

    /// Renders an event stream as Chrome `trace_event` JSON: one track
    /// per worker plus try-commit and commit tracks, MTX-labeled spans
    /// for subTXs and recovery, instants for validation and commit.
    pub fn chrome_trace(events: &[TraceEvent]) -> ChromeTrace {
        const PID: u64 = 1;
        const TID_TRY_COMMIT: u64 = 10_000;
        // Leaves room for one try-commit track per shard in between.
        const TID_COMMIT: u64 = 20_000;
        fn tid(role: Role) -> u64 {
            match role {
                Role::Worker(w) => w as u64,
                // One track per shard, above the worker tracks.
                Role::TryCommit(s) => TID_TRY_COMMIT + s as u64,
                Role::Commit => TID_COMMIT,
            }
        }

        let mut trace = ChromeTrace::new();
        let mut named: Vec<Role> = events.iter().map(|e| e.role).collect();
        named.sort();
        named.dedup();
        // Make sure the try-commit and commit tracks exist even if they
        // recorded nothing, and name every track.
        for extra in [Role::TryCommit(0), Role::Commit] {
            if !named.contains(&extra) {
                named.push(extra);
            }
        }
        for (i, role) in named.iter().enumerate() {
            trace.thread_name(PID, tid(*role), &role.to_string());
            trace.thread_sort_index(PID, tid(*role), i as i64);
        }

        let mut open: HashMap<Role, (MtxId, StageId, u64)> = HashMap::new();
        let mut recovery_start: Option<(MtxId, u64)> = None;
        for e in events {
            match e.kind {
                TraceKind::SubTxBegin => {
                    if let (Some(mtx), Some(stage)) = (e.mtx, e.stage) {
                        open.insert(e.role, (mtx, stage, e.at_us));
                    }
                }
                TraceKind::SubTxEnd => {
                    if let Some((mtx, stage, began)) = open.remove(&e.role) {
                        if Some(mtx) == e.mtx {
                            trace.span(
                                PID,
                                tid(e.role),
                                &mtx.to_string(),
                                "subtx",
                                began,
                                e.at_us.saturating_sub(began).max(1),
                                &[("stage", stage.to_string())],
                            );
                        }
                    }
                }
                TraceKind::Validated => {
                    if let Some(mtx) = e.mtx {
                        trace.instant(
                            PID,
                            tid(e.role),
                            &format!("validated {mtx}"),
                            "validate",
                            e.at_us,
                            &[],
                        );
                    }
                }
                TraceKind::Conflict => {
                    let label = e
                        .mtx
                        .map_or_else(|| "conflict".to_string(), |m| format!("conflict {m}"));
                    trace.instant(PID, tid(e.role), &label, "conflict", e.at_us, &[]);
                }
                TraceKind::Committed => {
                    if let Some(mtx) = e.mtx {
                        trace.instant(
                            PID,
                            TID_COMMIT,
                            &format!("committed {mtx}"),
                            "commit",
                            e.at_us,
                            &[],
                        );
                    }
                }
                TraceKind::RecoveryStart | TraceKind::FaultRecoveryStart => {
                    if let Some(mtx) = e.mtx {
                        recovery_start = Some((mtx, e.at_us));
                    }
                }
                TraceKind::ExecBegin | TraceKind::FlushBegin => {}
                TraceKind::RecoveryEnd => {
                    if let Some((mtx, began)) = recovery_start.take() {
                        trace.span(
                            PID,
                            TID_COMMIT,
                            &format!("recovery @{mtx}"),
                            "recovery",
                            began,
                            e.at_us.saturating_sub(began).max(1),
                            &[("boundary", mtx.to_string())],
                        );
                    }
                }
                TraceKind::Terminated => {
                    trace.instant(PID, TID_COMMIT, "terminated", "lifecycle", e.at_us, &[]);
                }
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(role: Role, mtx: u64, stage: Option<u16>, kind: TraceKind, at_us: u64) -> TraceEvent {
        TraceEvent {
            role,
            mtx: Some(MtxId(mtx)),
            attempt: 0,
            stage: stage.map(StageId),
            kind,
            at_us,
        }
    }

    /// A clean two-iteration, one-stage pipeline trace.
    fn clean_trace() -> Vec<TraceEvent> {
        let w = Role::Worker(0);
        vec![
            ev(w, 0, Some(0), TraceKind::SubTxBegin, 0),
            ev(w, 0, Some(0), TraceKind::SubTxEnd, 100),
            ev(Role::TryCommit(0), 0, None, TraceKind::Validated, 150),
            ev(w, 1, Some(0), TraceKind::SubTxBegin, 120),
            ev(Role::Commit, 0, None, TraceKind::Committed, 200),
            ev(w, 1, Some(0), TraceKind::SubTxEnd, 260),
            ev(Role::TryCommit(0), 1, None, TraceKind::Validated, 300),
            ev(Role::Commit, 1, None, TraceKind::Committed, 340),
            ev(Role::Commit, 1, None, TraceKind::Terminated, 350),
        ]
    }

    #[test]
    fn derives_lifecycle_latencies() {
        let a = TraceAnalysis::from_events(&clean_trace());
        a.check_invariants().expect("clean trace");
        assert_eq!(a.commit_order(), &[MtxId(0), MtxId(1)]);
        let exec = a.stage_exec(StageId(0)).expect("stage 0 seen");
        assert_eq!(exec.count(), 2);
        assert_eq!(exec.sum(), 100 + 140);
        // validation waits: 150-100=50, 300-260=40.
        assert_eq!(a.validation_wait().sum(), 90);
        // commit waits: 200-150=50, 340-300=40.
        assert_eq!(a.commit_wait().sum(), 90);
        // total latencies: 200-0, 340-120.
        assert_eq!(a.total_latency().sum(), 200 + 220);
        assert_eq!(a.commit_period().count(), 1);
        assert_eq!(a.commit_period().sum(), 140);
        assert_eq!(a.span_us(), 350);
        let cp = a.critical_path();
        assert!((cp.total_us - 210.0).abs() < 1e-9);
        assert!((cp.exec_us - 120.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_is_busy_over_span() {
        let a = TraceAnalysis::from_events(&clean_trace());
        let occ = a.occupancy();
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].0, Role::Worker(0));
        assert!((occ[0].1 - 240.0 / 350.0).abs() < 1e-9);
    }

    #[test]
    fn flags_commit_without_validation() {
        let mut events = clean_trace();
        events.retain(|e| !(e.kind == TraceKind::Validated && e.mtx == Some(MtxId(1))));
        let a = TraceAnalysis::from_events(&events);
        let viols = a.check_invariants().unwrap_err();
        assert!(
            viols.iter().any(|v| v.contains("without validation")),
            "{viols:?}"
        );
    }

    #[test]
    fn flags_out_of_order_commit() {
        let mut events = clean_trace();
        // Swap the two Committed events' MTX ids.
        for e in &mut events {
            if e.kind == TraceKind::Committed {
                e.mtx = Some(MtxId(1 - e.mtx.unwrap().0));
            }
        }
        let a = TraceAnalysis::from_events(&events);
        assert!(a.check_invariants().is_err());
    }

    #[test]
    fn flags_unmatched_begin_on_committed_mtx() {
        let w = Role::Worker(0);
        let events = vec![
            ev(w, 0, Some(0), TraceKind::SubTxBegin, 0),
            ev(Role::TryCommit(0), 0, None, TraceKind::Validated, 10),
            ev(Role::Commit, 0, None, TraceKind::Committed, 20),
        ];
        let a = TraceAnalysis::from_events(&events);
        let viols = a.check_invariants().unwrap_err();
        assert!(
            viols.iter().any(|v| v.contains("lacking a SubTxEnd")),
            "{viols:?}"
        );
    }

    #[test]
    fn interrupted_uncommitted_mtx_is_not_a_violation() {
        let w = Role::Worker(0);
        let events = vec![
            ev(w, 0, Some(0), TraceKind::SubTxBegin, 0),
            ev(w, 0, Some(0), TraceKind::SubTxEnd, 5),
            ev(Role::TryCommit(0), 0, None, TraceKind::Validated, 8),
            ev(Role::Commit, 0, None, TraceKind::Committed, 9),
            // Iteration 1 begins, conflicts, and is abandoned by recovery.
            ev(w, 1, Some(0), TraceKind::SubTxBegin, 10),
            ev(Role::TryCommit(0), 1, None, TraceKind::Conflict, 12),
            ev(Role::Commit, 1, None, TraceKind::RecoveryStart, 13),
            ev(Role::Commit, 1, None, TraceKind::RecoveryEnd, 20),
            // Speculation resumes past the boundary.
            ev(w, 2, Some(0), TraceKind::SubTxBegin, 21),
            ev(w, 2, Some(0), TraceKind::SubTxEnd, 25),
            ev(Role::TryCommit(0), 2, None, TraceKind::Validated, 26),
            ev(Role::Commit, 2, None, TraceKind::Committed, 28),
        ];
        let a = TraceAnalysis::from_events(&events);
        a.check_invariants()
            .expect("recovery-interrupted MTX 1 must not violate");
        assert_eq!(a.recoveries(), 1);
        // The commit gap 0 -> 2 is legal because a recovery intervened.
        assert_eq!(a.commit_order(), &[MtxId(0), MtxId(2)]);
    }

    #[test]
    fn commit_gap_without_recovery_is_a_violation() {
        let w = Role::Worker(0);
        let events = vec![
            ev(w, 0, Some(0), TraceKind::SubTxBegin, 0),
            ev(w, 0, Some(0), TraceKind::SubTxEnd, 5),
            ev(Role::TryCommit(0), 0, None, TraceKind::Validated, 6),
            ev(Role::Commit, 0, None, TraceKind::Committed, 7),
            ev(w, 2, Some(0), TraceKind::SubTxBegin, 8),
            ev(w, 2, Some(0), TraceKind::SubTxEnd, 12),
            ev(Role::TryCommit(0), 2, None, TraceKind::Validated, 13),
            ev(Role::Commit, 2, None, TraceKind::Committed, 14),
        ];
        let a = TraceAnalysis::from_events(&events);
        let viols = a.check_invariants().unwrap_err();
        assert!(viols.iter().any(|v| v.contains("commit gap")), "{viols:?}");
    }

    #[test]
    fn empty_trace_is_clean() {
        let a = TraceAnalysis::from_events(&[]);
        a.check_invariants().unwrap();
        assert!(a.commit_order().is_empty());
        assert_eq!(a.span_us(), 0);
        assert!(a.stages().is_empty());
    }

    #[test]
    fn chrome_export_is_valid_and_tracked() {
        let trace = TraceAnalysis::chrome_trace(&clean_trace());
        let doc = trace.render();
        dsmtx_obs::json::validate(&doc).expect("valid chrome trace JSON");
        assert!(doc.contains("\"worker0\""));
        assert!(doc.contains("\"try-commit0\""));
        assert!(doc.contains("\"commit\""));
        assert!(doc.contains("mtx0"));
        assert!(doc.contains("\"ph\":\"X\""));
    }

    #[test]
    fn registry_export_uses_shared_schema() {
        let a = TraceAnalysis::from_events(&clean_trace());
        let reg = Registry::new();
        a.to_registry(&reg);
        let dump = reg.to_jsonl();
        for line in dump.lines() {
            dsmtx_obs::json::validate(line).unwrap();
        }
        assert!(dump.contains(dsmtx_obs::schema::STAGE_EXEC_US));
        assert!(dump.contains(dsmtx_obs::schema::MTX_COMMIT_WAIT_US));
        assert!(dump.contains(dsmtx_obs::schema::ROLE_BUSY_PPM));
    }
}

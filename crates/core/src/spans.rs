//! Builds MTX lifecycle spans ([`dsmtx_obs::MtxSpan`]) from a run's
//! trace: one span per speculative *attempt* of each MTX, stitched
//! across roles by the `(mtx, attempt)` trace context the wire frames
//! propagate, and joined with the try-commit shards' conflict records
//! for misspeculation attribution (`repro why`).
//!
//! [`build_spans`] is the one reader of a run's `TraceEvent`s. Everything
//! else works from the [`RunSpans`] it returns: the run-level latency and
//! occupancy metrics ([`SpanMetrics`]), the Chrome export
//! ([`chrome_spans`]) and the runtime invariants ([`RunSpans::check`]).
//!
//! The builder replays the (globally ordered) event stream once:
//!
//! * worker `SubTxBegin`/`ExecBegin`/`FlushBegin`/`SubTxEnd` open,
//!   refine, and close per-stage intervals;
//! * try-commit `Validated` marks the span validated (the *last* shard's
//!   verdict, under sharding);
//! * try-commit `Conflict` attaches the matching [`ConflictRecord`];
//! * commit `Committed` closes the span as committed and extends the
//!   commit order;
//! * commit `RecoveryStart`/`FaultRecoveryStart` open a recovery round
//!   and `RecoveryEnd` closes it. Rounds are also deadlines: the r-th
//!   round squashes every uncommitted attempt numbered r-1 and clamps its
//!   intervals to the squash time — collateral squashes included (which
//!   is what lets the attribution engine explain retries of innocent
//!   MTXs), late events from stale workers notwithstanding.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dsmtx_obs::{
    check_spans, schema, ChromeTrace, ConflictInfo, Histogram, MtxSpan, Registry, StageSpan,
};

use crate::trace::{Role, TraceEvent, TraceKind};
use crate::trycommit::ConflictRecord;

/// One §4.3 recovery round, as the commit unit traced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRound {
    /// The MTX the round re-executed sequentially: the commit boundary.
    pub boundary: Option<u64>,
    /// `RecoveryStart` or `FaultRecoveryStart`: the squash deadline.
    pub start_us: u64,
    /// `RecoveryEnd`; `None` when the trace ends inside the round.
    pub end_us: Option<u64>,
    /// True for a round answering a fabric fault, not a conflict.
    pub fault: bool,
}

/// A run's trace, read once by [`build_spans`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSpans {
    /// One span per `(mtx, attempt)`, sorted by `(mtx, attempt)`.
    pub spans: Vec<MtxSpan>,
    /// MTXs in the order the commit unit committed them.
    pub commit_order: Vec<u64>,
    /// Recovery rounds in the order the commit unit ran them.
    pub rounds: Vec<RecoveryRound>,
}

/// Reads one run's trace. `conflicts` are the shards' conflict records
/// (as aggregated in `RunReport::conflict_events`), joined to `Conflict`
/// events by `(mtx, attempt, shard)`.
pub fn build_spans(events: &[TraceEvent], conflicts: &[ConflictRecord]) -> RunSpans {
    let mut spans: HashMap<(u64, u32), MtxSpan> = HashMap::new();
    // Per-worker currently-open stage interval.
    let mut open: HashMap<u32, (u64, u32, StageSpan)> = HashMap::new();

    fn with_span(spans: &mut HashMap<(u64, u32), MtxSpan>, mtx: u64, attempt: u32) -> &mut MtxSpan {
        spans
            .entry((mtx, attempt))
            .or_insert_with(|| MtxSpan::new(mtx, attempt))
    }

    fn push_stage(spans: &mut HashMap<(u64, u32), MtxSpan>, mtx: u64, attempt: u32, s: StageSpan) {
        with_span(spans, mtx, attempt).stages.push(s);
    }

    /// Records a stage interval that never saw its `SubTxEnd`.
    fn push_unended(
        spans: &mut HashMap<(u64, u32), MtxSpan>,
        mtx: u64,
        attempt: u32,
        s: StageSpan,
    ) {
        let span = with_span(spans, mtx, attempt);
        span.stages.push(close_stage(s));
        span.unmatched_subtx += 1;
    }

    let mut commit_order = Vec::new();
    // Round r bumps the global recovery count from r-1 to r, so it is
    // the causal deadline of every attempt numbered r-1.
    let mut rounds: Vec<RecoveryRound> = Vec::new();

    for e in events {
        match e.kind {
            TraceKind::SubTxBegin => {
                let (Role::Worker(w), Some(mtx), Some(stage)) = (e.role, e.mtx, e.stage) else {
                    continue;
                };
                // An interrupted subTX (recovery unwound it) leaves its
                // interval open; close it at its own begin so nothing is
                // silently lost.
                if let Some((m, a, s)) = open.remove(&w) {
                    push_unended(&mut spans, m, a, s);
                }
                open.insert(
                    w,
                    (
                        mtx.0,
                        e.attempt,
                        StageSpan {
                            stage: stage.0,
                            worker: w,
                            begin_us: e.at_us,
                            exec_begin_us: e.at_us,
                            flush_begin_us: e.at_us,
                            end_us: e.at_us,
                        },
                    ),
                );
                // Materialize the span at begin so even an attempt with
                // no completed stage exists for squash accounting.
                with_span(&mut spans, mtx.0, e.attempt);
            }
            TraceKind::ExecBegin => {
                if let (Role::Worker(w), Some(mtx)) = (e.role, e.mtx) {
                    if let Some((m, a, s)) = open.get_mut(&w) {
                        if *m == mtx.0 && *a == e.attempt {
                            s.exec_begin_us = e.at_us;
                            s.flush_begin_us = e.at_us;
                            s.end_us = e.at_us;
                        }
                    }
                }
            }
            TraceKind::FlushBegin => {
                if let (Role::Worker(w), Some(mtx)) = (e.role, e.mtx) {
                    if let Some((m, a, s)) = open.get_mut(&w) {
                        if *m == mtx.0 && *a == e.attempt {
                            s.flush_begin_us = e.at_us;
                            s.end_us = e.at_us;
                        }
                    }
                }
            }
            TraceKind::SubTxEnd => {
                let (Role::Worker(w), Some(mtx)) = (e.role, e.mtx) else {
                    continue;
                };
                match open.remove(&w) {
                    Some((m, a, mut s)) if m == mtx.0 && a == e.attempt => {
                        s.end_us = e.at_us;
                        push_stage(&mut spans, m, a, s);
                    }
                    other => {
                        // Mismatched end: close what was open, count the
                        // stray end.
                        if let Some((m, a, s)) = other {
                            push_unended(&mut spans, m, a, s);
                        }
                        with_span(&mut spans, mtx.0, e.attempt).unmatched_subtx += 1;
                    }
                }
            }
            TraceKind::Validated => {
                if let Some(mtx) = e.mtx {
                    let span = with_span(&mut spans, mtx.0, e.attempt);
                    // Under sharding every shard reports; the MTX is
                    // validated when the last one does.
                    span.validated_us = Some(span.validated_us.map_or(e.at_us, |t| t.max(e.at_us)));
                }
            }
            TraceKind::Conflict => {
                let Some(mtx) = e.mtx else { continue };
                let shard = match e.role {
                    Role::TryCommit(s) => Some(s),
                    _ => None,
                };
                let rec = conflicts.iter().find(|c| {
                    c.mtx == mtx.0 && c.attempt == e.attempt && shard.is_none_or(|s| c.shard == s)
                });
                let span = with_span(&mut spans, mtx.0, e.attempt);
                // Keep the earliest conflict (several shards can each
                // flag the same MTX).
                if span.conflict.is_none() {
                    span.conflict = Some(ConflictInfo {
                        page: rec.map_or(0, |c| c.page),
                        shard: rec.map(|c| c.shard).or(shard).unwrap_or(0),
                        first_writer_mtx: rec.and_then(|c| c.first_writer).map(|(m, _)| m),
                        first_writer_attempt: rec
                            .and_then(|c| c.first_writer)
                            .map_or(0, |(_, a)| a),
                        at_us: e.at_us,
                    });
                }
            }
            TraceKind::Committed => {
                if let Some(mtx) = e.mtx {
                    with_span(&mut spans, mtx.0, e.attempt).committed_us = Some(e.at_us);
                    commit_order.push(mtx.0);
                }
            }
            TraceKind::RecoveryStart | TraceKind::FaultRecoveryStart => {
                rounds.push(RecoveryRound {
                    boundary: e.mtx.map(|m| m.0),
                    start_us: e.at_us,
                    end_us: None,
                    fault: e.kind == TraceKind::FaultRecoveryStart,
                });
            }
            TraceKind::RecoveryEnd => {
                if let Some(round) = rounds.last_mut() {
                    round.end_us.get_or_insert(e.at_us);
                }
            }
            TraceKind::Terminated => {}
        }
    }
    // Close intervals still open at stream end (normal at termination).
    for (_, (m, a, s)) in open {
        push_unended(&mut spans, m, a, s);
    }

    let mut out: Vec<MtxSpan> = spans.into_values().collect();
    // Squash pass. An attempt is dead the moment its deadline round
    // starts, even though recovery is asynchronous: the RecoveryStart
    // event is recorded before the barrier rendezvous, while workers
    // blocked mid-subTX (or dispatching one more stale task off the old
    // recovery count) keep emitting events with the old attempt number
    // until they reach it. Clamping every dead span to its deadline
    // keeps retry intervals causally ordered — attempt r begins only
    // after round r, which is attempt r-1's deadline.
    for span in &mut out {
        if span.committed_us.is_some() {
            continue;
        }
        let Some(round) = rounds.get(span.attempt as usize) else {
            continue; // still in flight at stream end
        };
        let q = round.start_us;
        span.squashed_us = Some(q);
        span.fault_squashed = round.fault;
        for s in &mut span.stages {
            s.begin_us = s.begin_us.min(q);
            s.exec_begin_us = s.exec_begin_us.min(q);
            s.flush_begin_us = s.flush_begin_us.min(q);
            s.end_us = s.end_us.min(q);
        }
        span.validated_us = span.validated_us.map(|v| v.min(q));
    }
    for span in &mut out {
        span.stages.sort_by_key(|s| (s.stage, s.begin_us));
        // Cross-thread timestamp skew: each role stamps its own events,
        // and the worker records SubTxEnd only after handing its frames
        // to the fabric (a frame that fills its batch ships at once), so
        // a fast shard's Validated (and the commit unit's Committed) can
        // carry a timestamp a hair earlier than the event it causally
        // follows. Reconcile to causal order. A shard stamps Validated
        // in its turn, before the commit unit's step on the same thread
        // reads its cursor, so a Committed stamped before the raw
        // Validated is a real violation: it stays as recorded, for
        // `MtxSpan::well_formed` to report.
        if let (Some(v), Some(end)) = (
            span.validated_us,
            span.stages.iter().map(|s| s.end_us).max(),
        ) {
            span.validated_us = Some(v.max(end));
            if let Some(c) = span.committed_us.filter(|&c| c >= v) {
                span.committed_us = Some(c.max(end));
            }
        }
    }
    out.sort_by_key(|s| (s.mtx, s.attempt));
    RunSpans {
        spans: out,
        commit_order,
        rounds,
    }
}

impl RunSpans {
    /// The runtime invariants a run's trace must satisfy, on top of
    /// [`check_spans`]' per-attempt structure (which also reports a
    /// committed attempt stamped before its own `Validated`):
    ///
    /// * commit order strictly increases;
    /// * every MTX the commit order skips was the boundary of a recovery
    ///   round, which re-executed it sequentially;
    /// * every committed attempt was validated and has no unmatched
    ///   subTX begin or end.
    ///
    /// # Errors
    ///
    /// Every violation found, human-readable and sorted.
    pub fn check(&self) -> Result<(), Vec<String>> {
        let mut errs = check_spans(&self.spans).err().unwrap_or_default();
        let recovered: BTreeSet<u64> = self.rounds.iter().filter_map(|r| r.boundary).collect();
        // The MTX the commit unit must reach next.
        let mut next = 0;
        for &m in &self.commit_order {
            if m < next {
                errs.push(format!("mtx{m} committed after mtx{}", next - 1));
            } else if let Some(k) = (next..m).find(|k| !recovered.contains(k)) {
                errs.push(format!(
                    "commit gap before mtx{m}: mtx{k} neither committed nor recovered"
                ));
            }
            next = next.max(m + 1);
        }
        for s in self.spans.iter().filter(|s| s.committed_us.is_some()) {
            let tag = format!("mtx{}#a{}", s.mtx, s.attempt);
            if s.validated_us.is_none() {
                errs.push(format!("{tag}: committed without validation"));
            }
            if s.unmatched_subtx > 0 {
                errs.push(format!(
                    "{tag}: committed with {} unmatched subTX begin/end(s)",
                    s.unmatched_subtx
                ));
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            errs.sort();
            Err(errs)
        }
    }
}

/// Run-level latency and occupancy, folded from a run's spans: the
/// `stage.exec_us`, `mtx.*` and `role.busy_ppm` metrics
/// ([`SpanMetrics::to_registry`]) and `repro trace`'s occupancy report.
/// The latencies cover committed attempts; occupancy covers every
/// attempt a worker ran.
#[derive(Debug, Default)]
pub struct SpanMetrics {
    /// Per stage: each committed attempt's subTX, begin to end (queue
    /// wait and flush included).
    pub stage_exec: BTreeMap<u16, Histogram>,
    /// Per committed attempt: last stage end to validated.
    pub validation_wait: Histogram,
    /// Per committed attempt: validated to committed.
    pub commit_wait: Histogram,
    /// Per committed attempt: first stage begin to committed.
    pub total_latency: Histogram,
    /// Between successive commit timestamps.
    pub commit_period: Histogram,
    /// Per worker: its stage intervals summed over every attempt, a
    /// squashed one up to its squash.
    pub busy_us: BTreeMap<u32, u64>,
    /// First stage begin to the last event of any span.
    pub window_us: u64,
}

impl SpanMetrics {
    /// Folds a span set (see [`RunSpans::spans`]).
    pub fn new(spans: &[MtxSpan]) -> Self {
        let mut m = SpanMetrics::default();
        let mut commits = Vec::new();
        for span in spans {
            for st in &span.stages {
                *m.busy_us.entry(st.worker).or_default() += st.end_us.saturating_sub(st.begin_us);
            }
            let Some(c) = span.committed_us else { continue };
            commits.push(c);
            for st in &span.stages {
                m.stage_exec
                    .entry(st.stage)
                    .or_default()
                    .record(st.end_us.saturating_sub(st.begin_us));
            }
            if let Some(lag) = span.validation_lag_us() {
                m.validation_wait.record(lag);
            }
            if let Some(hold) = span.commit_hold_us() {
                m.commit_wait.record(hold);
            }
            m.total_latency.record(span.total_us());
        }
        commits.sort_unstable();
        for w in commits.windows(2) {
            m.commit_period.record(w[1] - w[0]);
        }
        let first = spans.iter().filter_map(MtxSpan::begin_us).min();
        let last = spans.iter().filter_map(MtxSpan::end_us).max();
        if let (Some(first), Some(last)) = (first, last) {
            m.window_us = last.saturating_sub(first);
        }
        m
    }

    /// Each worker's busy fraction of the window, ascending by worker.
    pub fn occupancy(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.busy_us.iter().map(|(&w, &busy)| {
            let frac = if self.window_us == 0 {
                0.0
            } else {
                busy as f64 / self.window_us as f64
            };
            (w, frac.min(1.0))
        })
    }

    /// Installs the histograms and the per-worker `role.busy_ppm` gauges
    /// into `reg` under the shared [`dsmtx_obs::schema`] names.
    pub fn to_registry(&self, reg: &mut Registry) {
        for (stage, hist) in &self.stage_exec {
            reg.install_histogram(
                schema::STAGE_EXEC_US,
                &[("stage", &stage.to_string())],
                hist.clone(),
            );
        }
        for (name, hist) in [
            (schema::MTX_VALIDATION_WAIT_US, &self.validation_wait),
            (schema::MTX_COMMIT_WAIT_US, &self.commit_wait),
            (schema::MTX_TOTAL_LATENCY_US, &self.total_latency),
            (schema::MTX_COMMIT_PERIOD_US, &self.commit_period),
        ] {
            reg.install_histogram(name, &[], hist.clone());
        }
        for (w, frac) in self.occupancy() {
            reg.set(
                schema::ROLE_BUSY_PPM,
                &[("role", &Role::Worker(w).to_string())],
                (frac * 1.0e6) as i64,
            );
        }
    }
}

/// Clamps a half-open stage interval shut at the latest phase timestamp
/// it reached (the subTX never recorded its end — recovery or
/// termination unwound it).
fn close_stage(mut s: StageSpan) -> StageSpan {
    s.end_us = s
        .end_us
        .max(s.flush_begin_us)
        .max(s.exec_begin_us)
        .max(s.begin_us);
    s
}

/// Renders a run as Chrome `trace_event` JSON with parent/child nesting:
/// per worker track, each stage interval is a parent box containing
/// `queue`/`exec`/`flush` child boxes; each attempt's milestones
/// (validated, committed, squashed) are instants on the lifecycle track,
/// and each finished recovery round is a box there. Retries are linked
/// through the shared `mtx` arg and their `attempt`.
pub fn chrome_spans(run: &RunSpans) -> ChromeTrace {
    const PID: u64 = 1;
    const TID_LIFECYCLE: u64 = 30_000;
    let spans = &run.spans;
    let mut trace = ChromeTrace::new();
    trace.thread_name(PID, TID_LIFECYCLE, "mtx-lifecycle");

    let mut workers: Vec<u32> = spans
        .iter()
        .flat_map(|s| s.stages.iter().map(|st| st.worker))
        .collect();
    workers.sort_unstable();
    workers.dedup();
    for &w in &workers {
        trace.thread_name(PID, w as u64, &format!("worker{w}"));
        trace.thread_sort_index(PID, w as u64, w as i64);
    }

    for span in spans {
        let name = format!("mtx{}#a{}", span.mtx, span.attempt);
        let base_args = [
            ("mtx", span.mtx.to_string()),
            ("attempt", span.attempt.to_string()),
        ];
        for st in &span.stages {
            let tid = st.worker as u64;
            // Parent box: the whole stage interval. Children nest inside
            // it by time containment on the same track.
            let mut args = base_args.to_vec();
            args.push(("stage", st.stage.to_string()));
            trace.span(
                PID,
                tid,
                &name,
                "subtx",
                st.begin_us,
                st.end_us.saturating_sub(st.begin_us).max(1),
                &args,
            );
            for (phase, from, to) in [
                ("queue", st.begin_us, st.exec_begin_us),
                ("exec", st.exec_begin_us, st.flush_begin_us),
                ("flush", st.flush_begin_us, st.end_us),
            ] {
                if to > from {
                    trace.span(PID, tid, phase, "phase", from, to - from, &base_args);
                }
            }
        }
        if let Some(v) = span.validated_us {
            trace.instant(
                PID,
                TID_LIFECYCLE,
                &format!("validated {name}"),
                "validate",
                v,
                &[],
            );
        }
        if let Some(c) = span.committed_us {
            trace.instant(
                PID,
                TID_LIFECYCLE,
                &format!("committed {name}"),
                "commit",
                c,
                &[],
            );
        }
        if let Some(q) = span.squashed_us {
            let mut args = base_args.to_vec();
            if let Some(cause) = span.cause {
                args.push(("cause", cause.name().to_string()));
            }
            if let Some(cf) = span.conflict {
                args.push(("page", format!("{:#x}", cf.page)));
                args.push(("shard", cf.shard.to_string()));
            }
            trace.instant(
                PID,
                TID_LIFECYCLE,
                &format!("squashed {name}"),
                "squash",
                q,
                &args,
            );
        }
    }
    for round in &run.rounds {
        let Some(end) = round.end_us else { continue };
        let name = round
            .boundary
            .map_or_else(|| "recovery".to_string(), |b| format!("recovery @mtx{b}"));
        trace.span(
            PID,
            TID_LIFECYCLE,
            &name,
            "recovery",
            round.start_us,
            end.saturating_sub(round.start_us).max(1),
            &[("fault", round.fault.to_string())],
        );
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MtxId, StageId};
    use dsmtx_obs::SpanOutcome;

    fn wev(w: u32, mtx: u64, attempt: u32, stage: u16, kind: TraceKind, at_us: u64) -> TraceEvent {
        TraceEvent {
            role: Role::Worker(w),
            mtx: Some(MtxId(mtx)),
            attempt,
            stage: Some(StageId(stage)),
            kind,
            at_us,
        }
    }

    fn uev(role: Role, mtx: u64, attempt: u32, kind: TraceKind, at_us: u64) -> TraceEvent {
        TraceEvent {
            role,
            mtx: Some(MtxId(mtx)),
            attempt,
            stage: None,
            kind,
            at_us,
        }
    }

    #[test]
    fn committed_span_decomposes_phases() {
        let events = vec![
            wev(0, 0, 0, 0, TraceKind::SubTxBegin, 0),
            wev(0, 0, 0, 0, TraceKind::ExecBegin, 10),
            wev(0, 0, 0, 0, TraceKind::FlushBegin, 60),
            wev(0, 0, 0, 0, TraceKind::SubTxEnd, 70),
            uev(Role::TryCommit(0), 0, 0, TraceKind::Validated, 90),
            uev(Role::Commit, 0, 0, TraceKind::Committed, 120),
        ];
        let spans = build_spans(&events, &[]).spans;
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.outcome(), SpanOutcome::Committed);
        assert_eq!(s.queue_wait_us(), 10);
        assert_eq!(s.exec_us(), 50);
        assert_eq!(s.flush_us(), 10);
        assert_eq!(s.validation_lag_us(), Some(20));
        assert_eq!(s.commit_hold_us(), Some(30));
        check_spans(&spans).unwrap();
    }

    #[test]
    fn sharded_validation_takes_last_shard() {
        let events = vec![
            wev(0, 0, 0, 0, TraceKind::SubTxBegin, 0),
            wev(0, 0, 0, 0, TraceKind::SubTxEnd, 10),
            uev(Role::TryCommit(1), 0, 0, TraceKind::Validated, 20),
            uev(Role::TryCommit(0), 0, 0, TraceKind::Validated, 35),
            uev(Role::Commit, 0, 0, TraceKind::Committed, 40),
        ];
        let spans = build_spans(&events, &[]).spans;
        assert_eq!(spans[0].validated_us, Some(35));
    }

    #[test]
    fn conflict_joins_record_and_recovery_squashes_collateral() {
        let conflicts = [ConflictRecord {
            mtx: 1,
            attempt: 0,
            stage: 0,
            page: 0x42,
            shard: 0,
            first_writer: Some((0, 0)),
        }];
        let events = vec![
            wev(0, 0, 0, 0, TraceKind::SubTxBegin, 0),
            wev(0, 0, 0, 0, TraceKind::SubTxEnd, 5),
            wev(1, 1, 0, 0, TraceKind::SubTxBegin, 1),
            wev(1, 1, 0, 0, TraceKind::SubTxEnd, 6),
            // MTX 2 is in flight when the conflict squashes the round.
            wev(2, 2, 0, 0, TraceKind::SubTxBegin, 2),
            uev(Role::TryCommit(0), 0, 0, TraceKind::Validated, 7),
            uev(Role::Commit, 0, 0, TraceKind::Committed, 8),
            uev(Role::TryCommit(0), 1, 0, TraceKind::Conflict, 9),
            uev(Role::Commit, 1, 0, TraceKind::RecoveryStart, 10),
            uev(Role::Commit, 1, 0, TraceKind::RecoveryEnd, 20),
            // Retry of 2 at attempt 1 commits.
            wev(2, 2, 1, 0, TraceKind::SubTxBegin, 21),
            wev(2, 2, 1, 0, TraceKind::SubTxEnd, 25),
            uev(Role::TryCommit(0), 2, 1, TraceKind::Validated, 26),
            uev(Role::Commit, 2, 1, TraceKind::Committed, 27),
        ];
        let spans = build_spans(&events, &conflicts).spans;
        check_spans(&spans).unwrap();
        let by_key: std::collections::HashMap<(u64, u32), &MtxSpan> =
            spans.iter().map(|s| ((s.mtx, s.attempt), s)).collect();
        // Committed MTX 0 untouched by the squash.
        assert_eq!(by_key[&(0, 0)].outcome(), SpanOutcome::Committed);
        // MTX 1 aborted with its joined conflict record.
        let c = by_key[&(1, 0)].conflict.expect("conflict attached");
        assert_eq!(c.page, 0x42);
        assert_eq!(c.first_writer_mtx, Some(0));
        assert_eq!(by_key[&(1, 0)].outcome(), SpanOutcome::Aborted);
        // MTX 2 attempt 0: collateral squash, no conflict of its own.
        let collateral = by_key[&(2, 0)];
        assert_eq!(collateral.outcome(), SpanOutcome::Aborted);
        assert!(collateral.conflict.is_none());
        assert!(!collateral.fault_squashed);
        // Its retry chains on with a larger attempt and commits.
        assert_eq!(by_key[&(2, 1)].outcome(), SpanOutcome::Committed);
    }

    #[test]
    fn fault_recovery_marks_fault_squashed() {
        let events = vec![
            wev(0, 3, 0, 0, TraceKind::SubTxBegin, 0),
            uev(Role::Commit, 3, 0, TraceKind::FaultRecoveryStart, 5),
            uev(Role::Commit, 3, 0, TraceKind::RecoveryEnd, 9),
        ];
        let spans = build_spans(&events, &[]).spans;
        assert_eq!(spans.len(), 1);
        assert!(spans[0].fault_squashed);
        assert_eq!(spans[0].outcome(), SpanOutcome::Aborted);
    }

    #[test]
    fn chrome_spans_nest_and_render_valid_json() {
        let events = vec![
            wev(0, 0, 0, 0, TraceKind::SubTxBegin, 0),
            wev(0, 0, 0, 0, TraceKind::ExecBegin, 10),
            wev(0, 0, 0, 0, TraceKind::FlushBegin, 60),
            wev(0, 0, 0, 0, TraceKind::SubTxEnd, 70),
            uev(Role::TryCommit(0), 0, 0, TraceKind::Validated, 90),
            uev(Role::Commit, 0, 0, TraceKind::Committed, 120),
        ];
        let doc = chrome_spans(&build_spans(&events, &[])).render();
        dsmtx_obs::json::validate(&doc).expect("valid chrome trace");
        assert!(doc.contains("mtx0#a0"));
        for phase in ["\"queue\"", "\"exec\"", "\"flush\""] {
            assert!(doc.contains(phase), "{phase} missing in {doc}");
        }
        assert!(doc.contains("committed mtx0#a0"));
    }

    /// A clean two-iteration, one-stage pipeline trace.
    fn clean_trace() -> Vec<TraceEvent> {
        vec![
            wev(0, 0, 0, 0, TraceKind::SubTxBegin, 0),
            wev(0, 0, 0, 0, TraceKind::SubTxEnd, 100),
            uev(Role::TryCommit(0), 0, 0, TraceKind::Validated, 150),
            wev(0, 1, 0, 0, TraceKind::SubTxBegin, 120),
            uev(Role::Commit, 0, 0, TraceKind::Committed, 200),
            wev(0, 1, 0, 0, TraceKind::SubTxEnd, 260),
            uev(Role::TryCommit(0), 1, 0, TraceKind::Validated, 300),
            uev(Role::Commit, 1, 0, TraceKind::Committed, 340),
            uev(Role::Commit, 1, 0, TraceKind::Terminated, 350),
        ]
    }

    /// MTX 1 begins, conflicts and is abandoned by a recovery round that
    /// re-executes it; speculation resumes past the boundary.
    fn recovered_trace() -> Vec<TraceEvent> {
        vec![
            wev(0, 0, 0, 0, TraceKind::SubTxBegin, 0),
            wev(0, 0, 0, 0, TraceKind::SubTxEnd, 5),
            uev(Role::TryCommit(0), 0, 0, TraceKind::Validated, 8),
            uev(Role::Commit, 0, 0, TraceKind::Committed, 9),
            wev(0, 1, 0, 0, TraceKind::SubTxBegin, 10),
            uev(Role::TryCommit(0), 1, 0, TraceKind::Conflict, 12),
            uev(Role::Commit, 1, 0, TraceKind::RecoveryStart, 13),
            uev(Role::Commit, 1, 0, TraceKind::RecoveryEnd, 20),
            wev(0, 2, 0, 0, TraceKind::SubTxBegin, 21),
            wev(0, 2, 0, 0, TraceKind::SubTxEnd, 25),
            uev(Role::TryCommit(0), 2, 0, TraceKind::Validated, 26),
            uev(Role::Commit, 2, 0, TraceKind::Committed, 28),
        ]
    }

    #[test]
    fn derives_lifecycle_latencies() {
        let run = build_spans(&clean_trace(), &[]);
        run.check().expect("clean trace");
        assert_eq!(run.commit_order, [0, 1]);
        let m = SpanMetrics::new(&run.spans);
        let exec = &m.stage_exec[&0];
        assert_eq!(exec.count(), 2);
        assert_eq!(exec.sum(), 100 + 140);
        // validation waits: 150-100=50, 300-260=40.
        assert_eq!(m.validation_wait.sum(), 90);
        // commit waits: 200-150=50, 340-300=40.
        assert_eq!(m.commit_wait.sum(), 90);
        // total latencies: 200-0, 340-120.
        assert_eq!(m.total_latency.sum(), 200 + 220);
        assert!((m.total_latency.mean() - 210.0).abs() < 1e-9);
        assert_eq!(m.commit_period.count(), 1);
        assert_eq!(m.commit_period.sum(), 140);
        // The window ends at the last commit, not at `Terminated`.
        assert_eq!(m.window_us, 340);
    }

    #[test]
    fn occupancy_is_busy_over_window() {
        let m = SpanMetrics::new(&build_spans(&clean_trace(), &[]).spans);
        let occ: Vec<(u32, f64)> = m.occupancy().collect();
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].0, 0);
        assert!((occ[0].1 - 240.0 / 340.0).abs() < 1e-9);
    }

    /// Asserts that `RunSpans::check` rejects `events` with a message
    /// containing `expect`.
    fn assert_flags(events: &[TraceEvent], expect: &str) {
        let errs = build_spans(events, &[]).check().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains(expect)),
            "{expect}: {errs:?}"
        );
    }

    #[test]
    fn flags_commit_without_validation() {
        let mut events = clean_trace();
        events.retain(|e| !(e.kind == TraceKind::Validated && e.mtx == Some(MtxId(1))));
        assert_flags(&events, "committed without validation");
    }

    #[test]
    fn flags_out_of_order_commit() {
        let mut events = clean_trace();
        for e in &mut events {
            if e.kind == TraceKind::Committed {
                e.mtx = e.mtx.map(|m| MtxId(1 - m.0));
            }
        }
        assert_flags(&events, "mtx0 committed after mtx1");
        // MTX 1 now commits at 200us, before its own Validated at 300us:
        // reconciliation must not hide that.
        assert_flags(&events, "mtx1#a0: committed at 200us before validated");
    }

    #[test]
    fn flags_unmatched_begin_on_committed_mtx() {
        let unended = vec![
            wev(0, 0, 0, 0, TraceKind::SubTxBegin, 0),
            uev(Role::TryCommit(0), 0, 0, TraceKind::Validated, 10),
            uev(Role::Commit, 0, 0, TraceKind::Committed, 20),
        ];
        assert_flags(&unended, "1 unmatched subTX");
        // An end without its begin is flagged the same way.
        let mut unbegun = clean_trace();
        unbegun.retain(|e| !(e.kind == TraceKind::SubTxBegin && e.mtx == Some(MtxId(1))));
        assert_flags(&unbegun, "1 unmatched subTX");
    }

    #[test]
    fn interrupted_uncommitted_mtx_is_not_a_violation() {
        let run = build_spans(&recovered_trace(), &[]);
        run.check()
            .expect("recovery-interrupted MTX 1 must not violate");
        assert_eq!(run.rounds.len(), 1);
        // The commit gap 0 -> 2 is legal because a recovery re-executed 1.
        assert_eq!(run.commit_order, [0, 2]);
    }

    #[test]
    fn commit_gap_without_recovery_is_a_violation() {
        let mut events = clean_trace();
        for e in &mut events {
            if e.mtx == Some(MtxId(1)) {
                e.mtx = Some(MtxId(2));
            }
        }
        assert_flags(&events, "commit gap before mtx2");
    }

    #[test]
    fn fault_round_covers_the_gap_it_leaves() {
        // A fault round whose boundary never began squashes no span; the
        // round alone covers the gap.
        let mut events: Vec<TraceEvent> = recovered_trace()
            .into_iter()
            .filter(|e| e.mtx != Some(MtxId(1)))
            .collect();
        events.extend([
            uev(Role::Commit, 1, 0, TraceKind::FaultRecoveryStart, 13),
            uev(Role::Commit, 1, 0, TraceKind::RecoveryEnd, 20),
        ]);
        events.sort_by_key(|e| e.at_us);
        let run = build_spans(&events, &[]);
        assert!(run.spans.iter().all(|s| s.squashed_us.is_none()));
        assert!(run.rounds[0].fault);
        run.check().expect("a fault round covers the gap it leaves");
    }

    #[test]
    fn empty_trace_is_clean() {
        let empty = build_spans(&[], &[]);
        empty.check().unwrap();
        assert!(empty.commit_order.is_empty());
        let m = SpanMetrics::new(&empty.spans);
        assert_eq!(m.window_us, 0);
        assert!(m.stage_exec.is_empty());
    }

    #[test]
    fn chrome_spans_draw_workers_and_recovery_rounds() {
        let doc = chrome_spans(&build_spans(&recovered_trace(), &[])).render();
        dsmtx_obs::json::validate(&doc).expect("valid chrome trace JSON");
        assert!(doc.contains("\"worker0\""));
        assert!(doc.contains("\"mtx-lifecycle\""));
        assert!(doc.contains("\"ph\":\"X\",\"name\":\"mtx0#a0\""));
        assert!(doc.contains(
            "\"ph\":\"X\",\"name\":\"recovery @mtx1\",\"cat\":\"recovery\",\"pid\":1,\"tid\":30000,\"ts\":13,\"dur\":7"
        ));
    }

    #[test]
    fn registry_export_uses_shared_schema() {
        let mut reg = Registry::new();
        SpanMetrics::new(&build_spans(&clean_trace(), &[]).spans).to_registry(&mut reg);
        let dump = reg.to_jsonl();
        for line in dump.lines() {
            dsmtx_obs::json::validate(line).unwrap();
        }
        let count =
            |name: &str, labels: &[(&str, &str)]| reg.histogram(name, labels).map(Histogram::count);
        assert_eq!(count(schema::STAGE_EXEC_US, &[("stage", "0")]), Some(2));
        assert_eq!(count(schema::MTX_COMMIT_WAIT_US, &[]), Some(2));
        assert_eq!(count(schema::MTX_COMMIT_PERIOD_US, &[]), Some(1));
        let busy = reg.gauge(schema::ROLE_BUSY_PPM, &[("role", "worker0")]);
        assert_eq!(busy, Some((240.0 / 340.0 * 1.0e6) as i64));
    }
}

//! Builds MTX lifecycle spans ([`dsmtx_obs::MtxSpan`]) from a run's
//! trace: one span per speculative *attempt* of each MTX, stitched
//! across roles by the `(mtx, attempt)` trace context the wire frames
//! propagate, and joined with the try-commit shards' conflict records
//! for misspeculation attribution (`repro why`).
//!
//! The builder replays the (globally ordered) event stream once:
//!
//! * worker `SubTxBegin`/`ExecBegin`/`FlushBegin`/`SubTxEnd` open,
//!   refine, and close per-stage intervals;
//! * try-commit `Validated` marks the span validated (the *last* shard's
//!   verdict, under sharding);
//! * try-commit `Conflict` attaches the matching [`ConflictRecord`];
//! * commit `Committed` closes the span as committed;
//! * commit `RecoveryStart`/`FaultRecoveryStart` are round deadlines:
//!   the r-th round squashes every uncommitted attempt numbered r-1 and
//!   clamps its intervals to the squash time — collateral squashes
//!   included (which is what lets the attribution engine explain retries
//!   of innocent MTXs), late events from stale workers notwithstanding.

use std::collections::HashMap;

use dsmtx_obs::{ChromeTrace, ConflictInfo, MtxSpan, StageSpan};

use crate::trace::{Role, TraceEvent, TraceKind};
use crate::trycommit::ConflictRecord;

/// Builds the span set of one run. `conflicts` are the shards' conflict
/// records (as aggregated in `RunReport::conflict_events`), joined to
/// `Conflict` events by `(mtx, attempt, shard)`. Spans come back sorted
/// by `(mtx, attempt)`.
pub fn build_spans(events: &[TraceEvent], conflicts: &[ConflictRecord]) -> Vec<MtxSpan> {
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

    // Recovery rounds in stream order: (squash time, fault-induced).
    // Round r bumps the global recovery count from r-1 to r, so it is
    // the causal deadline of every attempt numbered r-1.
    let mut rounds: Vec<(u64, bool)> = Vec::new();

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
                    push_stage(&mut spans, m, a, close_stage(s));
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
                if let Some((m, a, mut s)) = open.remove(&w) {
                    if m == mtx.0 && a == e.attempt {
                        s.end_us = e.at_us;
                        push_stage(&mut spans, m, a, s);
                    } else {
                        // Mismatched end: close what was open, drop the
                        // stray end.
                        push_stage(&mut spans, m, a, close_stage(s));
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
                }
            }
            TraceKind::RecoveryStart | TraceKind::FaultRecoveryStart => {
                rounds.push((e.at_us, e.kind == TraceKind::FaultRecoveryStart));
            }
            TraceKind::RecoveryEnd | TraceKind::Terminated => {}
        }
    }
    // Close intervals still open at stream end (normal at termination).
    for (_, (m, a, s)) in open {
        push_stage(&mut spans, m, a, close_stage(s));
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
        let Some(&(q, fault)) = rounds.get(span.attempt as usize) else {
            continue; // still in flight at stream end
        };
        span.squashed_us = Some(q);
        span.fault_squashed = fault;
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
        // follows. Reconcile to causal order.
        if let (Some(v), Some(end)) = (
            span.validated_us,
            span.stages.iter().map(|s| s.end_us).max(),
        ) {
            span.validated_us = Some(v.max(end));
        }
        if let (Some(c), Some(v)) = (span.committed_us, span.validated_us) {
            span.committed_us = Some(c.max(v));
        }
    }
    out.sort_by_key(|s| (s.mtx, s.attempt));
    out
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

/// Renders spans as Chrome `trace_event` JSON with parent/child nesting:
/// per worker track, each stage interval is a parent box containing
/// `queue`/`exec`/`flush` child boxes, and each attempt's milestones
/// (validated, committed, squashed) are instants on the lifecycle track.
/// Retries are linked through the shared `mtx` arg and their `attempt`.
pub fn chrome_spans(spans: &[MtxSpan]) -> ChromeTrace {
    const PID: u64 = 1;
    const TID_LIFECYCLE: u64 = 30_000;
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
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MtxId, StageId};
    use dsmtx_obs::{check_spans, SpanOutcome};

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
        let spans = build_spans(&events, &[]);
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
        let spans = build_spans(&events, &[]);
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
        let spans = build_spans(&events, &conflicts);
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
        let spans = build_spans(&events, &[]);
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
        let spans = build_spans(&events, &[]);
        let doc = chrome_spans(&spans).render();
        dsmtx_obs::json::validate(&doc).expect("valid chrome trace");
        assert!(doc.contains("mtx0#a0"));
        for phase in ["\"queue\"", "\"exec\"", "\"flush\""] {
            assert!(doc.contains(phase), "{phase} missing in {doc}");
        }
        assert!(doc.contains("committed mtx0#a0"));
    }
}

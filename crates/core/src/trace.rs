//! Execution tracing for the Figure-3 execution-model reproduction, for
//! test assertions about runtime invariants (e.g. commit order equals
//! iteration order), and as the raw feed of the span builder
//! ([`crate::spans::build_spans`]), the one reader that the trace
//! metrics, the Chrome export and the invariant checks work from.
//!
//! Each role of a run — every worker, every try-commit shard and the
//! commit unit — records into a trace buffer of its own, stamped from the
//! run's one origin `Instant`. `MtxSystem::run` merges the buffers once
//! the roles have returned.

use std::time::Instant;

use crate::ids::{MtxId, StageId};

/// Which unit recorded an event. Compact (4 bytes) and structured, so
/// per-worker analysis needs no string parsing and recording needs no
/// leaked strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// A pipeline worker, by worker index.
    Worker(u32),
    /// A try-commit speculation-unit shard (program-order validation),
    /// by shard index. At `unit_shards = 1` the single shard is 0.
    TryCommit(u16),
    /// The commit unit (group transaction commit, recovery).
    Commit,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Worker(w) => write!(f, "worker{w}"),
            Role::TryCommit(s) => write!(f, "try-commit{s}"),
            Role::Commit => f.write_str("commit"),
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A worker entered a subTX (`mtx_begin`).
    SubTxBegin,
    /// All upstream frames arrived; user code starts. The SubTxBegin →
    /// ExecBegin gap is the subTX's queue wait.
    ExecBegin,
    /// User code finished; packing the subTX's frames starts. The
    /// FlushBegin → SubTxEnd gap is the packing cost plus the ship of the
    /// data-plane frames; validation and commit frames ship later, with
    /// their batch.
    FlushBegin,
    /// A worker exited a subTX (`mtx_end`).
    SubTxEnd,
    /// Try-commit validated the MTX as conflict-free.
    Validated,
    /// Try-commit detected a conflict.
    Conflict,
    /// Commit unit committed the MTX.
    Committed,
    /// Commit unit started recovery for this boundary MTX (a data
    /// misspeculation squash).
    RecoveryStart,
    /// Commit unit started a recovery round because of a fabric fault
    /// (timeout / channel down), not a data conflict.
    FaultRecoveryStart,
    /// Commit unit finished recovery (pipeline restarting).
    RecoveryEnd,
    /// The system terminated after this MTX (if any).
    Terminated,
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which unit recorded the event.
    pub role: Role,
    /// The MTX involved, when applicable.
    pub mtx: Option<MtxId>,
    /// Speculative attempt number of that MTX: 0 on first execution,
    /// bumped past every recovery so a retry's events chain onto a new
    /// span of the same MTX. Roles learn it from the wire frames'
    /// propagated trace context.
    pub attempt: u32,
    /// The stage involved, when applicable.
    pub stage: Option<StageId>,
    /// The event kind.
    pub kind: TraceKind,
    /// Microseconds since the run's trace origin. Relative
    /// timestamps survive serialization and are what the Chrome
    /// `trace_event` format wants.
    pub at_us: u64,
}

/// Maximum events a traced run stores (1 Mi events ≈ 40 MB), split evenly
/// across its roles; past its share a role's buffer counts drops instead
/// of growing without bound.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// One role's trace: an append buffer that only its role writes, so
/// recording takes no lock. A disabled buffer records nothing and costs
/// one branch.
#[derive(Debug)]
pub(crate) struct TraceBuffer {
    role: Role,
    /// The run's one trace origin, shared by every role's buffer; `None`
    /// when the run is not traced.
    origin: Option<Instant>,
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer for `role` that stamps events relative to `origin` and
    /// stores at most `capacity` of them; it records nothing when
    /// `origin` is `None`.
    pub(crate) fn new(role: Role, origin: Option<Instant>, capacity: usize) -> Self {
        // Pre-sized, but never past the cap and never a silly allocation
        // for huge caps, so the record path seldom reallocates.
        let presize = if origin.is_some() {
            capacity.min(1 << 14)
        } else {
            0
        };
        TraceBuffer {
            role,
            origin,
            events: Vec::with_capacity(presize),
            capacity,
            dropped: 0,
        }
    }

    /// Records one event (no-op when disabled, counted when full).
    /// `attempt` is the MTX's speculative attempt number (0 when no MTX
    /// is involved).
    pub(crate) fn record(
        &mut self,
        mtx: Option<MtxId>,
        attempt: u32,
        stage: Option<StageId>,
        kind: TraceKind,
    ) {
        let Some(origin) = self.origin else { return };
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent {
                role: self.role,
                mtx,
                attempt,
                stage,
                kind,
                at_us: origin.elapsed().as_micros() as u64,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// Merges the roles' buffers into the run's trace, sorted by `at_us`,
/// and returns it with the number of events the buffers dropped. The sort
/// is stable and a role's own stamps never decrease, so each role's
/// events keep the order it recorded them in.
pub(crate) fn merge(buffers: impl IntoIterator<Item = TraceBuffer>) -> (Vec<TraceEvent>, u64) {
    let mut events = Vec::new();
    let mut dropped = 0;
    for buffer in buffers {
        events.extend(buffer.events);
        dropped += buffer.dropped;
    }
    events.sort_by_key(|e| e.at_us);
    (events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(role: Role) -> TraceBuffer {
        TraceBuffer::new(role, Some(Instant::now()), DEFAULT_TRACE_CAPACITY)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = TraceBuffer::new(Role::Commit, None, DEFAULT_TRACE_CAPACITY);
        t.record(Some(MtxId(1)), 0, None, TraceKind::Committed);
        assert_eq!(merge([t]), (Vec::new(), 0));
    }

    #[test]
    fn enabled_sink_records_in_order() {
        let mut t = enabled(Role::Worker(0));
        t.record(Some(MtxId(0)), 0, Some(StageId(0)), TraceKind::SubTxBegin);
        t.record(Some(MtxId(0)), 0, Some(StageId(0)), TraceKind::SubTxEnd);
        let (ev, _) = merge([t]);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].role, Role::Worker(0));
        assert_eq!(ev[0].kind, TraceKind::SubTxBegin);
        assert_eq!(ev[1].kind, TraceKind::SubTxEnd);
        assert!(ev[0].at_us <= ev[1].at_us);
    }

    #[test]
    fn attempts_are_carried_on_events() {
        let mut t = enabled(Role::Worker(0));
        t.record(Some(MtxId(4)), 0, Some(StageId(0)), TraceKind::SubTxBegin);
        t.record(Some(MtxId(4)), 2, Some(StageId(0)), TraceKind::SubTxBegin);
        let (ev, _) = merge([t]);
        assert_eq!(ev[0].attempt, 0);
        assert_eq!(ev[1].attempt, 2);
    }

    #[test]
    fn capacity_bounds_growth_and_counts_drops() {
        let mut t = TraceBuffer::new(Role::Commit, Some(Instant::now()), 3);
        for i in 0..10 {
            t.record(Some(MtxId(i)), 0, None, TraceKind::Committed);
        }
        let (ev, dropped) = merge([t]);
        assert_eq!(ev.len(), 3);
        assert_eq!(dropped, 7);
        // The survivors are the earliest events.
        assert_eq!(ev[0].mtx, Some(MtxId(0)));
        assert_eq!(ev[2].mtx, Some(MtxId(2)));
    }

    #[test]
    fn merge_sorts_by_time_and_keeps_each_roles_order() {
        let origin = Instant::now();
        let mut worker = TraceBuffer::new(Role::Worker(0), Some(origin), 8);
        let mut commit = TraceBuffer::new(Role::Commit, Some(origin), 2);
        let stamp = |b: &mut TraceBuffer, mtx: u64, kind, at_us| {
            b.events.push(TraceEvent {
                role: b.role,
                mtx: Some(MtxId(mtx)),
                attempt: 0,
                stage: None,
                kind,
                at_us,
            })
        };
        stamp(&mut worker, 0, TraceKind::SubTxBegin, 5);
        stamp(&mut worker, 0, TraceKind::ExecBegin, 5);
        stamp(&mut worker, 0, TraceKind::SubTxEnd, 9);
        stamp(&mut commit, 0, TraceKind::Committed, 2);
        stamp(&mut commit, 1, TraceKind::Committed, 5);
        commit.dropped = 4;
        let (ev, dropped) = merge([worker, commit]);
        assert_eq!(dropped, 4);
        let seen: Vec<_> = ev.iter().map(|e| (e.at_us, e.kind)).collect();
        assert_eq!(
            seen,
            [
                (2, TraceKind::Committed),
                (5, TraceKind::SubTxBegin),
                (5, TraceKind::ExecBegin),
                (5, TraceKind::Committed),
                (9, TraceKind::SubTxEnd),
            ]
        );
    }

    #[test]
    fn role_display_matches_legacy_strings() {
        assert_eq!(Role::Worker(3).to_string(), "worker3");
        assert_eq!(Role::TryCommit(0).to_string(), "try-commit0");
        assert_eq!(Role::TryCommit(2).to_string(), "try-commit2");
        assert_eq!(Role::Commit.to_string(), "commit");
    }
}

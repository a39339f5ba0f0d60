//! Execution tracing for the Figure-3 execution-model reproduction, for
//! test assertions about runtime invariants (e.g. commit order equals
//! iteration order), and as the raw feed of the span builder
//! ([`crate::spans::build_spans`]), the one reader that the trace
//! metrics, the Chrome export and the invariant checks work from.

use parking_lot::Mutex;
use std::sync::Arc;
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
    /// Microseconds since the sink's origin (run start). Relative
    /// timestamps survive serialization and are what the Chrome
    /// `trace_event` format wants.
    pub at_us: u64,
}

/// Default maximum buffered events (1 Mi events ≈ 40 MB); past it the
/// sink counts drops instead of growing without bound.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

#[derive(Debug)]
struct Buffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// Shared trace sink; cloning shares the buffer. Disabled sinks record
/// nothing and cost one branch.
#[derive(Debug, Clone)]
pub struct TraceSink {
    buf: Option<Arc<Mutex<Buffer>>>,
    origin: Instant,
}

impl TraceSink {
    /// A recording sink with the default capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A recording sink buffering at most `capacity` events; further
    /// records are counted in [`dropped_events`](Self::dropped_events)
    /// rather than stored. The buffer is pre-sized (up to a sane bound)
    /// so the hot record path never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            buf: Some(Arc::new(Mutex::new(Buffer {
                // Pre-size, but never more than the cap and never a
                // silly allocation for huge caps.
                events: Vec::with_capacity(capacity.min(1 << 16)),
                capacity,
                dropped: 0,
            }))),
            origin: Instant::now(),
        }
    }

    /// A no-op sink.
    pub fn disabled() -> Self {
        TraceSink {
            buf: None,
            origin: Instant::now(),
        }
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Records one event (no-op when disabled, counted when full).
    /// `attempt` is the MTX's speculative attempt number (0 when no MTX
    /// is involved).
    pub fn record(
        &self,
        role: Role,
        mtx: Option<MtxId>,
        attempt: u32,
        stage: Option<StageId>,
        kind: TraceKind,
    ) {
        if let Some(buf) = &self.buf {
            let at_us = self.origin.elapsed().as_micros() as u64;
            let mut b = buf.lock();
            if b.events.len() < b.capacity {
                b.events.push(TraceEvent {
                    role,
                    mtx,
                    attempt,
                    stage,
                    kind,
                    at_us,
                });
            } else {
                b.dropped += 1;
            }
        }
    }

    /// Snapshots all events recorded so far, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .as_ref()
            .map_or_else(Vec::new, |b| b.lock().events.clone())
    }

    /// Events that arrived after the buffer filled and were discarded.
    pub fn dropped_events(&self) -> u64 {
        self.buf.as_ref().map_or(0, |b| b.lock().dropped)
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let t = TraceSink::disabled();
        t.record(Role::Commit, Some(MtxId(1)), 0, None, TraceKind::Committed);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped_events(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_sink_records_in_order() {
        let t = TraceSink::enabled();
        let w = Role::Worker(0);
        t.record(
            w,
            Some(MtxId(0)),
            0,
            Some(StageId(0)),
            TraceKind::SubTxBegin,
        );
        t.record(w, Some(MtxId(0)), 0, Some(StageId(0)), TraceKind::SubTxEnd);
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, TraceKind::SubTxBegin);
        assert_eq!(ev[1].kind, TraceKind::SubTxEnd);
        assert!(ev[0].at_us <= ev[1].at_us);
    }

    #[test]
    fn clones_share_buffer() {
        let t = TraceSink::enabled();
        let t2 = t.clone();
        t2.record(Role::Commit, None, 0, None, TraceKind::Terminated);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn attempts_are_carried_on_events() {
        let t = TraceSink::enabled();
        let w = Role::Worker(0);
        t.record(
            w,
            Some(MtxId(4)),
            0,
            Some(StageId(0)),
            TraceKind::SubTxBegin,
        );
        t.record(
            w,
            Some(MtxId(4)),
            2,
            Some(StageId(0)),
            TraceKind::SubTxBegin,
        );
        let ev = t.events();
        assert_eq!(ev[0].attempt, 0);
        assert_eq!(ev[1].attempt, 2);
    }

    #[test]
    fn capacity_bounds_growth_and_counts_drops() {
        let t = TraceSink::with_capacity(3);
        for i in 0..10 {
            t.record(Role::Commit, Some(MtxId(i)), 0, None, TraceKind::Committed);
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped_events(), 7);
        // The survivors are the earliest events.
        assert_eq!(t.events()[0].mtx, Some(MtxId(0)));
        assert_eq!(t.events()[2].mtx, Some(MtxId(2)));
    }

    #[test]
    fn role_display_matches_legacy_strings() {
        assert_eq!(Role::Worker(3).to_string(), "worker3");
        assert_eq!(Role::TryCommit(0).to_string(), "try-commit0");
        assert_eq!(Role::TryCommit(2).to_string(), "try-commit2");
        assert_eq!(Role::Commit.to_string(), "commit");
    }
}

//! MTX lifecycle spans and the abort-cause taxonomy.
//!
//! A [`MtxSpan`] is one speculative *attempt* of one MTX, stitched
//! together from the events every role records as the iteration flows
//! through the §4 pipeline:
//!
//! ```text
//!   spawn ── queue wait ── execute ── flush ─┐ (per stage, per worker)
//!                                            ▼
//!                          validation lag (try-commit replay reaches it)
//!                                            ▼
//!                                     validated / conflict
//!                                            ▼
//!                          commit-order hold (group commit in order)
//!                                            ▼
//!                                    committed / aborted
//! ```
//!
//! Retries chain onto their original span: an MTX squashed by recovery
//! re-runs with a strictly larger `attempt`, so the span set for one
//! `mtx` id is an ordered chain whose last link either committed or was
//! cut off by termination. Aborted attempts carry an [`AbortCause`] —
//! the misspeculation-attribution verdict joined from the dependence
//! analyzer's predictions (`dsmtx-analyze`) and the run's fault record.
//!
//! This crate is std-only and sits below the runtime in the crate DAG,
//! so spans use raw `u64` MTX ids and `u16` stage/shard indices rather
//! than the runtime's newtypes.

/// Why a speculative MTX attempt aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortCause {
    /// The conflicting page was predicted by the dependence analyzer as
    /// a speculated loop-carried dependence (or an escaped-state page):
    /// the abort is the price of a speculation the plan knowingly takes.
    PredictedCarriedDep,
    /// The attempt was squashed by a fault-induced recovery round
    /// (fabric timeout / channel down), not by a data conflict of its
    /// own.
    FaultInducedRetry,
    /// The conflicting page was only ever flagged as a cross-stage
    /// output dependence: the value replay conflicted on a page whose
    /// final value is order-insensitive — a casualty of page-granular
    /// sharding, not a real flow violation.
    CrossShardFalseConflict,
    /// No prediction covers this abort. Any occurrence is a red flag:
    /// either the analyzer is unsound or the runtime misattributed.
    Unpredicted,
}

impl AbortCause {
    /// All causes, in severity-of-surprise order.
    pub const ALL: [AbortCause; 4] = [
        AbortCause::PredictedCarriedDep,
        AbortCause::FaultInducedRetry,
        AbortCause::CrossShardFalseConflict,
        AbortCause::Unpredicted,
    ];

    /// Stable snake_case name used in JSONL output and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::PredictedCarriedDep => "predicted_carried_dep",
            AbortCause::FaultInducedRetry => "fault_induced_retry",
            AbortCause::CrossShardFalseConflict => "cross_shard_false_conflict",
            AbortCause::Unpredicted => "unpredicted",
        }
    }
}

impl std::fmt::Display for AbortCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How one attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Group-committed by the commit unit.
    Committed,
    /// Squashed: conflicted at try-commit or cut down by a recovery.
    Aborted,
    /// Still in flight when the trace ended (normal at termination).
    Incomplete,
}

/// One stage's execution interval inside an attempt, on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Pipeline stage index.
    pub stage: u16,
    /// Worker that ran the subTX.
    pub worker: u32,
    /// SubTX entry (`mtx_begin`): the spawn point of this stage's work.
    pub begin_us: u64,
    /// All upstream frames received; user code starts.
    pub exec_begin_us: u64,
    /// User code done; packing the subTX's frames starts.
    pub flush_begin_us: u64,
    /// SubTX exit (`mtx_end`): frames packed, data-plane frames shipped.
    pub end_us: u64,
}

impl StageSpan {
    /// Queue wait: blocked on upstream frames before executing.
    pub fn queue_wait_us(&self) -> u64 {
        self.exec_begin_us.saturating_sub(self.begin_us)
    }

    /// Time inside user code.
    pub fn exec_us(&self) -> u64 {
        self.flush_begin_us.saturating_sub(self.exec_begin_us)
    }

    /// Time packing the subTX's frames and shipping its data-plane ones.
    /// Validation and commit frames ship with their batch, so the time
    /// they wait in the worker's buffer counts as validation lag.
    pub fn flush_us(&self) -> u64 {
        self.end_us.saturating_sub(self.flush_begin_us)
    }

    /// Checks the child intervals nest: begin ≤ exec ≤ flush ≤ end.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first ordering violation.
    pub fn well_formed(&self) -> Result<(), String> {
        let ts = [
            self.begin_us,
            self.exec_begin_us,
            self.flush_begin_us,
            self.end_us,
        ];
        if ts.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "stage {} on worker {}: phases out of order ({} ≤ {} ≤ {} ≤ {} fails)",
                self.stage, self.worker, ts[0], ts[1], ts[2], ts[3]
            ));
        }
        Ok(())
    }
}

/// Conflict details captured at the owning try-commit shard when value
/// replay diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictInfo {
    /// Page whose replayed load mismatched committed state.
    pub page: u64,
    /// Try-commit shard owning that page partition.
    pub shard: u16,
    /// Earliest speculative MTX that wrote the page in the current
    /// speculation window, if any store reached the shard first.
    pub first_writer_mtx: Option<u64>,
    /// Attempt number of that first writer.
    pub first_writer_attempt: u32,
    /// When the shard detected the divergence.
    pub at_us: u64,
}

/// One speculative attempt of one MTX: the unit of causal analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MtxSpan {
    /// MTX (iteration) id.
    pub mtx: u64,
    /// Attempt number; retries after recovery get strictly larger ones.
    pub attempt: u32,
    /// Per-stage execution intervals, ascending by stage.
    pub stages: Vec<StageSpan>,
    /// When the last try-commit shard validated the whole MTX.
    pub validated_us: Option<u64>,
    /// When the commit unit group-committed it.
    pub committed_us: Option<u64>,
    /// Conflict record, when this attempt itself conflicted.
    pub conflict: Option<ConflictInfo>,
    /// When a recovery squashed this attempt (its own conflict, another
    /// MTX's, or a fault round).
    pub squashed_us: Option<u64>,
    /// True when the squashing recovery was fault-induced.
    pub fault_squashed: bool,
    /// Attributed abort cause (None until attribution runs, and for
    /// committed attempts).
    pub cause: Option<AbortCause>,
}

impl MtxSpan {
    /// A fresh span with no recorded lifecycle yet.
    pub fn new(mtx: u64, attempt: u32) -> Self {
        MtxSpan {
            mtx,
            attempt,
            stages: Vec::new(),
            validated_us: None,
            committed_us: None,
            conflict: None,
            squashed_us: None,
            fault_squashed: false,
            cause: None,
        }
    }

    /// How the attempt ended.
    pub fn outcome(&self) -> SpanOutcome {
        if self.committed_us.is_some() {
            SpanOutcome::Committed
        } else if self.conflict.is_some() || self.squashed_us.is_some() {
            SpanOutcome::Aborted
        } else {
            SpanOutcome::Incomplete
        }
    }

    /// Earliest stage begin (the attempt's spawn point).
    pub fn begin_us(&self) -> Option<u64> {
        self.stages.iter().map(|s| s.begin_us).min()
    }

    /// Latest event on the attempt: commit, squash, validation, or the
    /// last stage end.
    pub fn end_us(&self) -> Option<u64> {
        [
            self.committed_us,
            self.squashed_us,
            self.validated_us,
            self.conflict.map(|c| c.at_us),
            self.stages.iter().map(|s| s.end_us).max(),
        ]
        .into_iter()
        .flatten()
        .max()
    }

    /// Summed time blocked on upstream frames across stages.
    pub fn queue_wait_us(&self) -> u64 {
        self.stages.iter().map(StageSpan::queue_wait_us).sum()
    }

    /// Summed time inside user code across stages.
    pub fn exec_us(&self) -> u64 {
        self.stages.iter().map(StageSpan::exec_us).sum()
    }

    /// Summed flush (packing) time across stages.
    pub fn flush_us(&self) -> u64 {
        self.stages.iter().map(StageSpan::flush_us).sum()
    }

    /// Last stage end → validated: how far the try-commit replay lagged.
    pub fn validation_lag_us(&self) -> Option<u64> {
        let end = self.stages.iter().map(|s| s.end_us).max()?;
        Some(self.validated_us?.saturating_sub(end))
    }

    /// Validated → committed: held for group-commit order.
    pub fn commit_hold_us(&self) -> Option<u64> {
        Some(self.committed_us?.saturating_sub(self.validated_us?))
    }

    /// Spawn → final event.
    pub fn total_us(&self) -> u64 {
        match (self.begin_us(), self.end_us()) {
            (Some(b), Some(e)) => e.saturating_sub(b),
            _ => 0,
        }
    }

    /// Structural validity of this attempt in isolation: each stage's
    /// phases nest, stages don't run backwards in stage order, and the
    /// post-execution milestones follow the last stage end.
    ///
    /// # Errors
    ///
    /// Every violation found, human-readable.
    pub fn well_formed(&self) -> Result<(), Vec<String>> {
        let tag = format!("mtx{}#a{}", self.mtx, self.attempt);
        let mut errs = Vec::new();
        for s in &self.stages {
            if let Err(e) = s.well_formed() {
                errs.push(format!("{tag}: {e}"));
            }
        }
        for w in self.stages.windows(2) {
            if w[0].stage >= w[1].stage {
                errs.push(format!(
                    "{tag}: stages not ascending ({} then {})",
                    w[0].stage, w[1].stage
                ));
            }
        }
        let last_end = self.stages.iter().map(|s| s.end_us).max();
        if let (Some(end), Some(v)) = (last_end, self.validated_us) {
            if v < end {
                errs.push(format!(
                    "{tag}: validated at {v}us before last stage end {end}us"
                ));
            }
        }
        if let (Some(v), Some(c)) = (self.validated_us, self.committed_us) {
            if c < v {
                errs.push(format!("{tag}: committed at {c}us before validated {v}us"));
            }
        }
        if self.committed_us.is_some() && (self.conflict.is_some() || self.squashed_us.is_some()) {
            errs.push(format!("{tag}: both committed and aborted"));
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

/// Checks a whole span set: every span is well-formed and, per MTX,
/// attempts are strictly increasing with non-overlapping intervals
/// (a retry can only start after the attempt it replaces ended).
///
/// # Errors
///
/// Every violation found, human-readable.
pub fn check_spans(spans: &[MtxSpan]) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    for s in spans {
        if let Err(mut e) = s.well_formed() {
            errs.append(&mut e);
        }
    }
    // Group attempts by mtx, in span-set order.
    let mut by_mtx: std::collections::BTreeMap<u64, Vec<&MtxSpan>> =
        std::collections::BTreeMap::new();
    for s in spans {
        by_mtx.entry(s.mtx).or_default().push(s);
    }
    for (mtx, chain) in by_mtx {
        for w in chain.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b.attempt <= a.attempt {
                errs.push(format!(
                    "mtx{mtx}: attempts not strictly increasing ({} then {})",
                    a.attempt, b.attempt
                ));
            }
            if let (Some(a_end), Some(b_begin)) = (a.end_us(), b.begin_us()) {
                if b_begin < a_end {
                    errs.push(format!(
                        "mtx{mtx}: attempt {} begins at {b_begin}us inside attempt {}'s interval (ends {a_end}us)",
                        b.attempt, a.attempt
                    ));
                }
            }
            if a.committed_us.is_some() {
                errs.push(format!(
                    "mtx{mtx}: attempt {} follows already-committed attempt {}",
                    b.attempt, a.attempt
                ));
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        errs.sort();
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(stage: u16, begin: u64, exec: u64, flush: u64, end: u64) -> StageSpan {
        StageSpan {
            stage,
            worker: 0,
            begin_us: begin,
            exec_begin_us: exec,
            flush_begin_us: flush,
            end_us: end,
        }
    }

    fn committed(mtx: u64, attempt: u32, base: u64) -> MtxSpan {
        let mut s = MtxSpan::new(mtx, attempt);
        s.stages
            .push(stage(0, base, base + 10, base + 60, base + 70));
        s.validated_us = Some(base + 90);
        s.committed_us = Some(base + 120);
        s
    }

    #[test]
    fn phase_decomposition_adds_up() {
        let s = committed(7, 0, 100);
        assert_eq!(s.queue_wait_us(), 10);
        assert_eq!(s.exec_us(), 50);
        assert_eq!(s.flush_us(), 10);
        assert_eq!(s.validation_lag_us(), Some(20));
        assert_eq!(s.commit_hold_us(), Some(30));
        assert_eq!(s.total_us(), 120);
        assert_eq!(s.outcome(), SpanOutcome::Committed);
        s.well_formed().unwrap();
    }

    #[test]
    fn aborted_and_incomplete_outcomes() {
        let mut a = MtxSpan::new(3, 0);
        a.stages.push(stage(0, 0, 1, 2, 3));
        a.conflict = Some(ConflictInfo {
            page: 9,
            shard: 1,
            first_writer_mtx: Some(2),
            first_writer_attempt: 0,
            at_us: 5,
        });
        assert_eq!(a.outcome(), SpanOutcome::Aborted);
        assert_eq!(a.end_us(), Some(5));

        let mut i = MtxSpan::new(4, 0);
        i.stages.push(stage(0, 0, 1, 2, 3));
        assert_eq!(i.outcome(), SpanOutcome::Incomplete);
    }

    #[test]
    fn backwards_phases_are_rejected() {
        let mut s = MtxSpan::new(1, 0);
        s.stages.push(stage(0, 10, 5, 20, 30)); // exec before begin
        let errs = s.well_formed().unwrap_err();
        assert!(errs[0].contains("phases out of order"), "{errs:?}");
    }

    #[test]
    fn validated_before_end_is_rejected() {
        let mut s = committed(1, 0, 100);
        s.validated_us = Some(100); // before stage end at 170
        let errs = s.well_formed().unwrap_err();
        assert!(errs[0].contains("before last stage end"), "{errs:?}");
    }

    #[test]
    fn retry_chain_must_order_and_not_overlap() {
        let mut a = MtxSpan::new(5, 0);
        a.stages.push(stage(0, 0, 1, 2, 10));
        a.squashed_us = Some(12);
        let b = committed(5, 1, 20);
        check_spans(&[a.clone(), b.clone()]).unwrap();

        // Same attempt number twice.
        let mut dup = b.clone();
        dup.attempt = 0;
        let errs = check_spans(&[a.clone(), dup]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("strictly increasing")),
            "{errs:?}"
        );

        // Retry starting inside the squashed attempt's interval.
        let mut overlap = committed(5, 1, 5);
        overlap.validated_us = Some(75);
        overlap.committed_us = Some(80);
        let errs = check_spans(&[a, overlap]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("inside attempt")),
            "{errs:?}"
        );
    }

    #[test]
    fn retry_after_commit_is_rejected() {
        let a = committed(6, 0, 0);
        let b = committed(6, 1, 200);
        let errs = check_spans(&[a, b]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("already-committed")),
            "{errs:?}"
        );
    }

    #[test]
    fn cause_names_are_stable() {
        let names: Vec<&str> = AbortCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "predicted_carried_dep",
                "fault_induced_retry",
                "cross_shard_false_conflict",
                "unpredicted"
            ]
        );
        assert_eq!(AbortCause::Unpredicted.to_string(), "unpredicted");
    }
}

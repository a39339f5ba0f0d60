//! Deterministic, seed-driven fault injection for the fabric.
//!
//! A link delivers in order and exactly once, like the MPI
//! point-to-point messages it stands in for (MPI's non-overtaking rule).
//! What a commodity cluster can still do to a send is fail it, or stall
//! the peer so that sends fail for a while. The paper's recovery protocol
//! (§4.3) must survive both, so this module gives every queue an optional
//! [`FaultInjector`] that fails ship attempts on a schedule derived
//! *only* from a `u64` seed and per-class rates. Two runs with the same
//! [`FaultPlan`] and the same per-link send sequences draw identical
//! fault decisions, which is what makes a failing schedule replayable
//! from its `(seed, rates)` tuple.
//!
//! The injector is pure decision logic: it owns the RNG and the stall
//! window state but touches neither the transport nor the statistics.
//! [`crate::queue::SendPort`] interprets the decisions and accounts for
//! them in [`crate::stats::FabricStats`].

/// Per-class fault probabilities, each in `[0, 1]`.
///
/// The classes are mutually exclusive per decision: one uniform draw is
/// partitioned by cumulative thresholds, so `drop + stall` must not
/// exceed 1. Both classes fail the ship attempt they hit; the packet
/// stays queued for the next one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// The attempt fails; the sender must retry.
    pub drop: f64,
    /// The endpoint goes unresponsive for [`FaultRates::stall_ops`] more
    /// ship attempts — the "crash" model: bounded unavailability that
    /// can outlast the sender's retry budget.
    pub stall: f64,
    /// Length of a stall window, in consecutive ship attempts.
    pub stall_ops: u32,
}

impl FaultRates {
    /// All-zero rates: the injector never fires.
    pub const NONE: FaultRates = FaultRates {
        drop: 0.0,
        stall: 0.0,
        stall_ops: 0,
    };

    /// A single-class schedule dropping attempts with probability `p`.
    pub fn only_drop(p: f64) -> Self {
        FaultRates {
            drop: p,
            ..Self::NONE
        }
    }

    /// A single-class schedule stalling the endpoint with probability `p`
    /// for windows of `ops` ship attempts.
    pub fn only_stall(p: f64, ops: u32) -> Self {
        FaultRates {
            stall: p,
            stall_ops: ops,
            ..Self::NONE
        }
    }

    /// An even mix of both classes, `p` total fault probability.
    pub fn uniform(p: f64) -> Self {
        FaultRates {
            drop: p / 2.0,
            stall: p / 2.0,
            stall_ops: 4,
        }
    }

    /// Sum of all class probabilities.
    pub fn total(&self) -> f64 {
        self.drop + self.stall
    }

    fn validate(&self) {
        for (name, p) in [("drop", self.drop), ("stall", self.stall)] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault rate `{name}` = {p} outside [0, 1]"
            );
        }
        assert!(
            self.total() <= 1.0 + 1e-9,
            "fault rates sum to {} > 1",
            self.total()
        );
    }
}

impl std::fmt::Display for FaultRates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drop={} stall={}x{}",
            self.drop, self.stall, self.stall_ops
        )
    }
}

/// What the injector decided for one ship attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Ship normally.
    None,
    /// Fail this attempt; the packet stays queued for retry.
    Drop,
    /// The endpoint is inside a stall window; the attempt fails and the
    /// packet stays queued for retry.
    Stall,
}

/// Retry budget for faulted sends.
///
/// The budget counts ship attempts, not time: the sender's own wait
/// paces the attempts (in the runtime, a worker's `dsmtx::poll::wait`
/// backoff). An exhausted budget is the only way a fault escalates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before a send gives up with [`crate::FabricError::Timeout`].
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The default budget: 64 attempts.
    pub const DEFAULT: RetryPolicy = RetryPolicy { max_attempts: 64 };
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A cluster-wide fault schedule: seed + rates.
///
/// The plan itself is immutable; each link derives its own
/// [`FaultInjector`] keyed by a stable link index, so injection on one
/// link never perturbs the decision stream of another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

impl FaultPlan {
    /// Builds a plan from a seed and per-class rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]` or the rates sum past 1.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        rates.validate();
        FaultPlan { seed, rates }
    }

    /// Derives the injector for link `link`. Deterministic: the same
    /// `(seed, link)` always yields the same decision stream.
    pub fn injector(&self, link: u64) -> FaultInjector {
        // Mix the link index into the seed so each link gets an
        // independent stream; splitmix64 output of (seed ^ f(link)).
        let mixed = splitmix64(&mut (self.seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        FaultInjector {
            rng: mixed,
            rates: self.rates,
            stalled_for: 0,
        }
    }
}

/// Per-link fault decision stream (splitmix64-driven).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: u64,
    rates: FaultRates,
    stalled_for: u32,
}

impl FaultInjector {
    /// Draws the fate of the next ship attempt.
    pub fn decide(&mut self) -> FaultDecision {
        // A stall window consumes attempts without advancing the RNG, so
        // the post-stall stream is independent of the window length.
        if self.stalled_for > 0 {
            self.stalled_for -= 1;
            return FaultDecision::Stall;
        }
        let u = unit_f64(splitmix64(&mut self.rng));
        let r = &self.rates;
        if u < r.drop {
            return FaultDecision::Drop;
        }
        if u < r.drop + r.stall {
            self.stalled_for = r.stall_ops;
            return FaultDecision::Stall;
        }
        FaultDecision::None
    }
}

/// One splitmix64 step: advances `state` and returns the mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a u64 to a uniform f64 in `[0, 1)` using the top 53 bits.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new(0xC0FFEE, FaultRates::uniform(0.5));
        let mut a = plan.injector(3);
        let mut b = plan.injector(3);
        let seq_a: Vec<_> = (0..256).map(|_| a.decide()).collect();
        let seq_b: Vec<_> = (0..256).map(|_| b.decide()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn different_links_get_different_streams() {
        let plan = FaultPlan::new(42, FaultRates::uniform(0.5));
        let mut a = plan.injector(0);
        let mut b = plan.injector(1);
        let seq_a: Vec<_> = (0..256).map(|_| a.decide()).collect();
        let seq_b: Vec<_> = (0..256).map(|_| b.decide()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn different_seeds_get_different_streams() {
        let ra = FaultPlan::new(1, FaultRates::uniform(0.5));
        let rb = FaultPlan::new(2, FaultRates::uniform(0.5));
        let seq_a: Vec<_> = {
            let mut i = ra.injector(0);
            (0..256).map(|_| i.decide()).collect()
        };
        let seq_b: Vec<_> = {
            let mut i = rb.injector(0);
            (0..256).map(|_| i.decide()).collect()
        };
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn zero_rates_never_fire() {
        let plan = FaultPlan::new(7, FaultRates::NONE);
        let mut inj = plan.injector(0);
        for _ in 0..1000 {
            assert_eq!(inj.decide(), FaultDecision::None);
        }
    }

    #[test]
    fn rate_one_always_fires() {
        let plan = FaultPlan::new(7, FaultRates::only_drop(1.0));
        let mut inj = plan.injector(0);
        for _ in 0..1000 {
            assert_eq!(inj.decide(), FaultDecision::Drop);
        }
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let plan = FaultPlan::new(99, FaultRates::only_drop(0.25));
        let mut inj = plan.injector(0);
        let n = 20_000;
        let drops = (0..n)
            .filter(|_| inj.decide() == FaultDecision::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn stall_window_spans_stall_ops_attempts() {
        let plan = FaultPlan::new(5, FaultRates::only_stall(1.0, 3));
        let mut inj = plan.injector(0);
        // First decide starts the window; then 3 more Stall decisions
        // drain it without consuming RNG draws.
        for _ in 0..4 {
            assert_eq!(inj.decide(), FaultDecision::Stall);
        }
        // With stall rate 1.0 the next draw opens a new window.
        assert_eq!(inj.decide(), FaultDecision::Stall);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn negative_rate_rejected() {
        let _ = FaultPlan::new(0, FaultRates::only_drop(-0.1));
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn oversubscribed_rates_rejected() {
        let _ = FaultPlan::new(
            0,
            FaultRates {
                drop: 0.5,
                stall: 0.6,
                stall_ops: 1,
            },
        );
    }

    #[test]
    fn rates_display_is_compact() {
        let s = FaultRates::uniform(0.2).to_string();
        assert!(s.contains("drop=0.1"));
        assert!(s.contains("stall=0.1x4"));
    }
}

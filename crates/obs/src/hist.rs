//! Log-bucketed histogram, a plain owned value.
//!
//! Values 0..=3 get exact buckets; above that each power-of-two octave is
//! split into 4 sub-buckets, giving a worst-case relative error of 12.5%
//! across the full `u64` range in 256 fixed slots (2 KiB of `u64`s,
//! allocated on the first `record`, so a histogram nothing writes costs
//! no allocation). One owner writes it: `record` and [`merge`] take
//! `&mut self`, and `Clone` copies the data. Whole histograms [`merge`]
//! so per-port or per-role instances can be aggregated after a run.
//!
//! [`merge`]: Histogram::merge

const EXACT: usize = 4; // values 0..=3 are exact
const SUB_BITS: u32 = 2; // 4 sub-buckets per octave
const SLOTS: usize = 256;

/// Mergeable log-bucketed histogram.
#[derive(Clone, Default)]
pub struct Histogram {
    /// Per-bucket counts: empty until the first observation, then
    /// `SLOTS` long.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    /// Exact extremes; meaningful once `count > 0`.
    min: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= 2
    let sub = ((v >> (octave - SUB_BITS)) & 0b11) as usize;
    EXACT + (octave as usize - 2) * 4 + sub
}

/// Smallest value mapping to bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i < EXACT {
        return i as u64;
    }
    let octave = (i - EXACT) / 4 + 2;
    if octave >= 64 {
        // Slots past the top octave are unreachable from `bucket_index`.
        return u64::MAX;
    }
    let sub = ((i - EXACT) % 4) as u64;
    (1u64 << octave) + (sub << (octave as u32 - SUB_BITS))
}

/// Representative (midpoint) value for bucket `i`.
fn bucket_mid(i: usize) -> u64 {
    if i < EXACT {
        return i as u64;
    }
    let lo = bucket_lower(i);
    let hi = if i + 1 < SLOTS {
        bucket_lower(i + 1).saturating_sub(1)
    } else {
        u64::MAX
    };
    lo + (hi - lo) / 2
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; SLOTS];
            self.min = value;
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`, within the bucket resolution
    /// (±12.5%), clamped to the exact observed min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other`'s observations into `self` (other is unchanged).
    pub fn merge(&mut self, other: &Histogram) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.clone_from(other);
            return;
        }
        for (n, m) in self.buckets.iter_mut().zip(&other.buckets) {
            *n += m;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lower(i), n))
            .collect()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0;
        let reachable = bucket_index(u64::MAX) + 1;
        for i in 1..reachable {
            let lo = bucket_lower(i);
            assert!(lo > prev, "bucket {i} lower {lo} <= {prev}");
            prev = lo;
        }
        // Every value maps into a bucket whose range contains it.
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1 << 20, u64::MAX / 3] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v);
            if i + 1 < SLOTS {
                assert!(v < bucket_lower(i + 1), "v={v} idx={i}");
            }
        }
    }

    #[test]
    fn exact_small_values() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 3);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 3);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.p50() as f64;
        let p99 = h.p99() as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.13, "p50 {p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.13, "p99 {p99}");
        assert!((h.mean() - 5000.5).abs() < 0.51);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
        }
        for v in 100..1000u64 {
            b.record(v * 17);
        }
        let mut both = Histogram::new();
        for v in 0..100u64 {
            both.record(v);
        }
        for v in 100..1000u64 {
            both.record(v * 17);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.p50(), both.p50());
        assert_eq!(a.p99(), both.p99());
        assert_eq!(a.snapshot(), both.snapshot());
        // Merging into an empty histogram copies; merging an empty one
        // changes nothing.
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.snapshot(), a.snapshot());
        assert_eq!((empty.min(), empty.max()), (a.min(), a.max()));
        a.merge(&Histogram::new());
        assert_eq!((a.count(), a.min()), (both.count(), both.min()));
    }

    #[test]
    fn clones_copy_the_data() {
        let mut h = Histogram::new();
        h.record(7);
        let mut copy = h.clone();
        copy.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 7);
        assert_eq!(copy.count(), 2);
        assert_eq!(copy.max(), 42);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.snapshot().is_empty());
    }
}

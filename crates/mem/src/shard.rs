//! Address-partitioned sharding of speculation-unit work.
//!
//! §3.2 of the paper notes the validation and commit "algorithms … are
//! parallelizable": value-based validation of a load depends only on the
//! prior stores to the *same address*, so the access stream of a subTX can
//! be split across N try-commit shards as long as every access to a given
//! page always lands on the same shard. [`shard_of`] is that routing
//! function — a pure, process-independent hash partition of [`PageId`]
//! space — and [`route`] applies a plan's [`ShardMap`] on top of it.
//!
//! Stability matters twice over: workers and try-commit shards live on
//! different threads (in the paper, different nodes) and must agree on the
//! partition without communicating, and the differential tests assert that
//! runs at different shard counts commit byte-identical memory — which
//! only holds if routing is deterministic.

use std::collections::BTreeMap;

use dsmtx_uva::PageId;

use crate::spec::AccessRecord;

/// Fibonacci-hashing multiplier (2^64 / φ), chosen so that the high bits
/// mix even when page ids are small and sequential — the common case for
/// dense arrays starting at offset 0.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The try-commit shard responsible for `page` when `n_shards` shards run.
///
/// Always 0 for `n_shards <= 1` (the single-unit configuration). The
/// function is pure and stable: every thread and every run computes the
/// same partition.
#[inline]
pub fn shard_of(page: PageId, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    let mixed = (page.0.wrapping_mul(GOLDEN) >> 32) as usize;
    mixed % n_shards
}

/// An explicit page→shard placement shipped with a plan, overriding the
/// hash partition of [`shard_of`] for the pages it names.
///
/// The map is profile-guided: [`ShardMap::balance`] weighs a recorded
/// store stream and greedily places the heaviest pages on the
/// least-loaded shard, which evens out the skew a pure hash can leave
/// when one or two pages carry most of the stores. Pages outside the
/// map fall back to the hash, so the map stays small and any page is
/// still routable.
///
/// Overrides are recorded against a *nominal* shard count and re-wrapped
/// with `% n_shards` at lookup, so one map stays consistent at every
/// shard count: all threads agree on the partition as long as they hold
/// the same map, which is all value-based validation needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardMap {
    /// Raw page index (`PageId.0`) → preferred shard.
    overrides: BTreeMap<u64, usize>,
}

impl ShardMap {
    /// An empty map: every page falls back to [`shard_of`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins `page` to `shard` (re-wrapped `% n_shards` at lookup).
    pub fn assign(&mut self, page: PageId, shard: usize) {
        self.overrides.insert(page.0, shard);
    }

    /// The override for `page`, if one was recorded.
    pub fn get(&self, page: PageId) -> Option<usize> {
        self.overrides.get(&page.0).copied()
    }

    /// Number of pages with an explicit placement.
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// True when no page has an explicit placement.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }

    /// Pages with explicit placements, ascending.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.overrides.keys().map(|&p| PageId(p))
    }

    /// The shard for `page` under this map: the recorded override
    /// (wrapped into range) when present, the hash partition otherwise.
    #[inline]
    pub fn shard_of(&self, page: PageId, n_shards: usize) -> usize {
        if n_shards <= 1 {
            return 0;
        }
        match self.overrides.get(&page.0) {
            Some(&s) => s % n_shards,
            None => shard_of(page, n_shards),
        }
    }

    /// Builds a balanced placement from a recorded (filtered) access
    /// stream: per-page store counts, heaviest page first, each placed
    /// on the currently least-loaded of `n_shards` bins (lowest index on
    /// ties). Deterministic — count ties break toward the lower page id.
    pub fn balance(records: &[AccessRecord], n_shards: usize) -> Self {
        let n = n_shards.max(1);
        let mut per_page: BTreeMap<u64, u64> = BTreeMap::new();
        for r in records {
            if r.kind == crate::spec::AccessKind::Store {
                *per_page.entry(r.addr.page().0).or_insert(0) += 1;
            }
        }
        let mut weighted: Vec<(u64, u64)> = per_page.into_iter().collect();
        weighted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut loads = vec![0u64; n];
        let mut map = Self::new();
        for (page, count) in weighted {
            let (shard, _) = loads
                .iter()
                .enumerate()
                .min_by_key(|&(s, &l)| (l, s))
                .expect("n >= 1 bins");
            loads[shard] += count;
            map.assign(PageId(page), shard);
        }
        map
    }
}

/// Routes `page` through `map` when one is present, else [`shard_of`] —
/// the single lookup both the try-commit shards and analysis passes call
/// so the partition stays agreed-upon everywhere.
#[inline]
pub fn route(map: Option<&ShardMap>, page: PageId, n_shards: usize) -> usize {
    match map {
        Some(m) => m.shard_of(page, n_shards),
        None => shard_of(page, n_shards),
    }
}

/// Per-shard speculative-store counts for a program-ordered access
/// stream at a hypothetical shard count — the introspection the
/// partition linter's `ShardHotspot` check runs without spinning up any
/// try-commit units. Index `s` holds the number of stores [`route`]
/// sends to shard `s` under `map` (the hash partition when `None`).
pub fn store_shard_load(
    records: &[AccessRecord],
    map: Option<&ShardMap>,
    n_shards: usize,
) -> Vec<u64> {
    let mut counts = vec![0u64; n_shards.max(1)];
    for r in records {
        if r.kind == crate::spec::AccessKind::Store {
            counts[route(map, r.addr.page(), n_shards)] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AccessKind;
    use dsmtx_uva::{OwnerId, VAddr, PAGE_BYTES};

    fn rec(page: u64, value: u64, kind: AccessKind) -> AccessRecord {
        AccessRecord {
            addr: VAddr::new(OwnerId(0), page * PAGE_BYTES),
            value,
            kind,
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        for p in 0..64 {
            assert_eq!(shard_of(PageId(p), 0), 0);
            assert_eq!(shard_of(PageId(p), 1), 0);
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for n in [2usize, 3, 4, 7, 8] {
            for p in 0..256u64 {
                let s = shard_of(PageId(p), n);
                assert!(s < n);
                assert_eq!(s, shard_of(PageId(p), n), "must be deterministic");
            }
        }
    }

    #[test]
    fn sequential_pages_spread_across_shards() {
        // Dense sequential page ids (the common array layout) must not
        // all collapse onto one shard.
        for n in [2usize, 4, 8] {
            let mut counts = vec![0usize; n];
            for p in 0..1024u64 {
                counts[shard_of(PageId(p), n)] += 1;
            }
            for (s, &c) in counts.iter().enumerate() {
                assert!(c > 0, "shard {s} of {n} received no pages");
                // Within 25% of a perfectly even split.
                let even = 1024 / n;
                assert!(
                    c <= even + even / 4,
                    "shard {s} of {n} got {c}/1024 pages (even split {even})"
                );
            }
        }
    }

    #[test]
    fn store_shard_load_counts_only_stores() {
        let stream: Vec<AccessRecord> = (0..40)
            .map(|i| {
                rec(
                    i % 5,
                    i,
                    if i % 2 == 0 {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    },
                )
            })
            .collect();
        for n in [1usize, 2, 4] {
            let counts = store_shard_load(&stream, None, n);
            assert_eq!(counts.len(), n);
            assert_eq!(counts.iter().sum::<u64>(), 20, "20 stores in the stream");
            // Every store must be counted on exactly the shard of its page.
            for (s, &count) in counts.iter().enumerate() {
                let stores = stream
                    .iter()
                    .filter(|r| r.kind == AccessKind::Store && shard_of(r.addr.page(), n) == s)
                    .count() as u64;
                assert_eq!(count, stores);
            }
        }
    }

    #[test]
    fn shard_map_overrides_and_falls_back() {
        let mut map = ShardMap::new();
        assert!(map.is_empty());
        map.assign(PageId(3), 1);
        map.assign(PageId(9), 5);
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(PageId(3)), Some(1));
        assert_eq!(map.get(PageId(4)), None);
        // Override wraps into range at lookup.
        assert_eq!(map.shard_of(PageId(9), 2), 1);
        assert_eq!(map.shard_of(PageId(9), 4), 1);
        // Unmapped pages fall back to the hash partition.
        for p in 0..32u64 {
            if map.get(PageId(p)).is_none() {
                for n in [2usize, 4] {
                    assert_eq!(map.shard_of(PageId(p), n), shard_of(PageId(p), n));
                }
            }
        }
        // n <= 1 always routes to 0, overrides included.
        assert_eq!(map.shard_of(PageId(3), 1), 0);
        assert_eq!(route(Some(&map), PageId(3), 2), 1);
        assert_eq!(route(None, PageId(3), 2), shard_of(PageId(3), 2));
    }

    #[test]
    fn balance_evens_a_skewed_stream() {
        // Eight equal-weight pages that the hash partition routes onto
        // one shard at n=2; the balanced map must split them evenly at
        // both 2 and 4 shards.
        let pages: Vec<u64> = (0..64)
            .filter(|&p| shard_of(PageId(p), 2) == 0)
            .take(8)
            .collect();
        let mut stream = Vec::new();
        for &p in &pages {
            for i in 0..16 {
                stream.push(rec(p, i, AccessKind::Store));
            }
        }
        let hashed = store_shard_load(&stream, None, 2);
        assert_eq!(hashed[0], stream.len() as u64, "planted skew missing");

        let map = ShardMap::balance(&stream, 4);
        assert_eq!(map.len(), pages.len());
        for n in [2usize, 4] {
            let counts = store_shard_load(&stream, Some(&map), n);
            assert_eq!(counts.iter().sum::<u64>(), stream.len() as u64);
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(
                max - min <= 16,
                "balanced map still skewed at n={n}: {counts:?}"
            );
        }
    }

    #[test]
    fn balance_is_deterministic() {
        let stream: Vec<AccessRecord> = (0..200)
            .map(|i| rec(i % 13, i, AccessKind::Store))
            .collect();
        assert_eq!(ShardMap::balance(&stream, 4), ShardMap::balance(&stream, 4));
    }
}

//! Reuse-distance (LRU stack distance) analysis.
//!
//! Table 1 of the paper: "for a given distance δ, probability of reusing one
//! data element/instruction before accessing δ other unique data
//! elements/instructions". That is the classic *stack distance*: the number
//! of distinct elements touched since the previous access to the same
//! element. We compute it exactly with the Bennett–Kruskal/Olken scheme:
//! each access takes the next timestamp, a bitmap marks the timestamps that
//! are the *latest* access of their element, and the stack distance of an
//! access is the count of marks after the element's previous access.
//!
//! The count is popcounts when the previous access lies in the same or the
//! neighbouring 64-bit word, and a Fenwick tree over whole words otherwise.
//! When the timestamps run out, the live marks are renumbered in order into
//! a bitmap sized by the live keys, which leaves every distance unchanged
//! and keeps memory proportional to the keys, not the accesses.
//!
//! Distances are summarized in power-of-two buckets
//! ([`ReuseHistogram`]); cold (first-touch) accesses are tracked separately.

use napel_ir::fxhash::FxHashMap;

/// Number of power-of-two distance buckets (bucket `b` holds distances in
/// `(2^(b−1), 2^b]`, bucket 0 holds distance ≤ 1).
pub const NUM_BUCKETS: usize = 24;

/// Histogram of reuse distances in power-of-two buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseHistogram {
    buckets: [u64; NUM_BUCKETS],
    cold: u64,
    total: u64,
    sum_log2: u64,
}

impl ReuseHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        ReuseHistogram {
            buckets: [0; NUM_BUCKETS],
            cold: 0,
            total: 0,
            sum_log2: 0,
        }
    }

    /// Records one access with the given stack distance (`None` = cold).
    #[inline]
    pub fn record(&mut self, distance: Option<u64>) {
        self.total += 1;
        match distance {
            None => self.cold += 1,
            Some(d) => {
                let b = bucket_of(d);
                self.buckets[b] += 1;
                self.sum_log2 += b as u64;
            }
        }
    }

    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold (first-touch) accesses.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Probability that an access reuses its element within distance
    /// `2^bucket` — the paper's per-δ reuse probability (cold accesses count
    /// as "not reused").
    pub fn cdf(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.buckets[..=bucket.min(NUM_BUCKETS - 1)].iter().sum();
        hits as f64 / self.total as f64
    }

    /// Probability mass of exactly bucket `b`.
    pub fn pdf(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.buckets[bucket.min(NUM_BUCKETS - 1)] as f64 / self.total as f64
    }

    /// Fraction of accesses that are cold.
    pub fn cold_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cold as f64 / self.total as f64
        }
    }

    /// Mean log₂ reuse distance over warm accesses (0 if none).
    pub fn mean_log2(&self) -> f64 {
        let warm = self.total - self.cold;
        if warm == 0 {
            0.0
        } else {
            self.sum_log2 as f64 / warm as f64
        }
    }

    /// Smallest bucket whose CDF reaches `q` (e.g. 0.5 for the median
    /// log₂-distance), or `NUM_BUCKETS` if never reached (mostly cold).
    ///
    /// One running prefix sum — O(B), not O(B²) of recomputing `cdf(b)`
    /// from scratch per bucket — with bit-identical results: the running
    /// sum is the same exact `u64` sum `cdf` would divide by `total`.
    pub fn quantile_bucket(&self, q: f64) -> usize {
        if self.total == 0 {
            // `cdf` is identically 0.0 here; preserve its comparison.
            return if 0.0 >= q { 0 } else { NUM_BUCKETS };
        }
        let mut hits = 0u64;
        for b in 0..NUM_BUCKETS {
            hits += self.buckets[b];
            if hits as f64 / self.total as f64 >= q {
                return b;
            }
        }
        NUM_BUCKETS
    }
}

impl Default for ReuseHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a distance (`d = 0` or `1` → bucket 0).
#[inline]
fn bucket_of(d: u64) -> usize {
    if d <= 1 {
        0
    } else {
        (64 - (d - 1).leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Maps sparse keys (addresses, pcs) to dense ids in first-seen order.
///
/// Every tracker keyed by the same value indexes flat arrays with the id,
/// so an address costs one hash probe however many trackers see it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    ids: FxHashMap<u64, u32>,
}

impl Interner {
    /// The id of `key`, assigning the next one on first sight.
    #[inline]
    pub(crate) fn intern(&mut self, key: u64) -> u32 {
        let next = self.ids.len();
        *self
            .ids
            .entry(key)
            .or_insert_with(|| u32::try_from(next).expect("more than 2^32 distinct keys"))
    }
}

/// Fewest timestamp slots a tracker keeps (64 words of live marks).
const MIN_SLOTS: usize = 4096;
/// Most timestamp slots: timestamps are stored as `u32`, below [`NEVER`].
const MAX_SLOTS: usize = 1 << 31;
/// `last` entry of a key never accessed.
const NEVER: u32 = u32::MAX;

/// Exact LRU stack-distance tracker over dense key ids (`0, 1, 2, …`).
///
/// # Example
///
/// ```
/// use napel_pisa::reuse::StackDistance;
///
/// let mut s = StackDistance::new();
/// assert_eq!(s.access(1), None);      // cold
/// assert_eq!(s.access(2), None);      // cold
/// assert_eq!(s.access(1), Some(1));   // one distinct element in between
/// assert_eq!(s.access(1), Some(0));   // immediate reuse
/// ```
#[derive(Debug, Clone, Default)]
pub struct StackDistance {
    /// One bit per timestamp, set while that timestamp is its key's latest
    /// access.
    live: Vec<u64>,
    /// Fenwick tree (1-based) over the live counts of the *sealed* words
    /// of `live`: word `w` enters at index `w + 1` once all 64 of its
    /// timestamps have been handed out.
    sealed: Vec<u32>,
    /// Latest timestamp of each key, or [`NEVER`].
    last: Vec<u32>,
    /// Every key seen, in first-touch order; each holds exactly one live
    /// mark.
    keys: Vec<u32>,
    /// Next timestamp to hand out.
    clock: usize,
}

impl StackDistance {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys seen.
    pub fn distinct(&self) -> usize {
        self.keys.len()
    }

    /// Records an access to `key`, returning its stack distance (`None` for
    /// first touch). Distance 0 means immediate re-access.
    #[inline(always)]
    pub fn access(&mut self, key: u32) -> Option<u64> {
        if self.clock == self.live.len() * 64 {
            self.renumber();
        }
        let t = self.clock;
        self.clock += 1;
        let k = key as usize;
        if k >= self.last.len() {
            self.last.resize(k + 1, NEVER);
        }
        // `t < MAX_SLOTS`, checked when the slots were sized.
        let prev = std::mem::replace(&mut self.last[k], t as u32);
        let (wt, bit) = (t / 64, 1u64 << (t % 64));
        let mut word = self.live[wt];
        let distance = if prev == NEVER {
            self.keys.push(key);
            None
        } else {
            // Count the marks strictly after `prev` and before `t` (the
            // words between are sealed), then clear `prev`'s.
            let (wp, prev_bit) = (prev as usize / 64, 1u64 << (prev % 64));
            let after_prev = !(prev_bit | (prev_bit - 1));
            let n = if wp == wt {
                word &= !prev_bit;
                (word & after_prev & (bit - 1)).count_ones()
            } else {
                let old = self.live[wp];
                self.live[wp] = old & !prev_bit;
                self.add_sealed(wp, u32::MAX); // −1
                (old & after_prev).count_ones()
                    + self.sealed_range(wp + 1, wt)
                    + (word & (bit - 1)).count_ones()
            };
            Some(u64::from(n))
        };
        word |= bit;
        self.live[wt] = word;
        if t % 64 == 63 {
            self.add_sealed(wt, word.count_ones());
        }
        distance
    }

    /// Live marks in the sealed words `lo..hi`: `prefix(hi) − prefix(lo)`,
    /// walking the two Fenwick paths only until they meet.
    fn sealed_range(&self, mut lo: usize, mut hi: usize) -> u32 {
        let mut sum = 0u32;
        while hi != lo {
            if hi > lo {
                sum = sum.wrapping_add(self.sealed[hi]);
                hi &= hi - 1;
            } else {
                sum = sum.wrapping_sub(self.sealed[lo]);
                lo &= lo - 1;
            }
        }
        sum
    }

    #[inline]
    fn add_sealed(&mut self, word: usize, delta: u32) {
        let mut i = word + 1;
        while i < self.sealed.len() {
            self.sealed[i] = self.sealed[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Moves the live marks, in order, to timestamps `0..keys` of a fresh
    /// bitmap of `max(MIN_SLOTS, next_pow2(4 × keys))` slots. Only the
    /// relative order of live marks enters a distance, so every later
    /// distance is unchanged, and at least three accesses per key pass
    /// before the next renumbering.
    #[cold]
    fn renumber(&mut self) {
        let n = self.keys.len();
        let slots = (4 * n).next_power_of_two().max(MIN_SLOTS);
        assert!(
            slots <= MAX_SLOTS,
            "stack-distance tracker outgrew u32 timestamps ({n} keys)"
        );
        // A live mark's new timestamp is its rank among the live marks.
        let rank_base: Vec<u32> = self
            .live
            .iter()
            .scan(0, |rank, w| {
                let base = *rank;
                *rank += w.count_ones();
                Some(base)
            })
            .collect();
        for &k in &self.keys {
            let t = self.last[k as usize] as usize;
            let below = self.live[t / 64] & ((1 << (t % 64)) - 1);
            self.last[k as usize] = rank_base[t / 64] + below.count_ones();
        }

        let (full, rest) = (n / 64, n % 64);
        self.live.clear();
        self.live.resize(slots / 64, 0);
        self.live[..full].fill(u64::MAX);
        if rest > 0 {
            self.live[full] = (1 << rest) - 1;
        }
        self.clock = n;
        // Linear Fenwick construction over the full (sealed) words.
        self.sealed.clear();
        self.sealed.resize(slots / 64 + 1, 0);
        self.sealed[1..=full].fill(64);
        for i in 1..self.sealed.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent < self.sealed.len() {
                self.sealed[parent] += self.sealed[i];
            }
        }
    }
}

/// Convenience: a stack-distance tracker feeding a histogram.
#[derive(Debug, Clone, Default)]
pub struct ReuseAnalyzer {
    stack: StackDistance,
    histogram: ReuseHistogram,
}

impl ReuseAnalyzer {
    /// Creates an empty analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to the dense key id `key`.
    #[inline]
    pub fn access(&mut self, key: u32) {
        let d = self.stack.access(key);
        self.histogram.record(d);
    }

    /// The accumulated histogram.
    pub fn histogram(&self) -> &ReuseHistogram {
        &self.histogram
    }

    /// Number of distinct keys observed (the footprint in elements).
    pub fn distinct(&self) -> usize {
        self.stack.distinct()
    }
}

#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference implementation: distinct elements since last access.
    fn naive_distances(keys: &[u32]) -> Vec<Option<u64>> {
        (0..keys.len())
            .map(|i| {
                let prev = keys[..i].iter().rposition(|&p| p == keys[i])?;
                let between: std::collections::HashSet<u32> =
                    keys[prev + 1..i].iter().copied().collect();
                Some(between.len() as u64)
            })
            .collect()
    }

    /// Deterministic LCG stream, one value per call.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        }
    }

    #[test]
    fn matches_naive_on_random_stream() {
        let mut next = lcg(12345);
        let keys: Vec<u32> = (0..500).map(|_| (next() % 40) as u32).collect();
        let expected = naive_distances(&keys);
        let mut s = StackDistance::new();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.access(k), expected[i], "mismatch at access {i}");
        }
    }

    #[test]
    fn sequential_scan_is_all_cold() {
        let mut s = StackDistance::new();
        for k in 0..100 {
            assert_eq!(s.access(k), None);
        }
        assert_eq!(s.distinct(), 100);
    }

    #[test]
    fn repeated_scan_distance_equals_working_set() {
        let mut s = StackDistance::new();
        for k in 0..10 {
            s.access(k);
        }
        for k in 0..10 {
            assert_eq!(s.access(k), Some(9), "cyclic scan reuse distance");
        }
    }

    /// Feeds `keys` to a fresh tracker and to the oracle, comparing every
    /// access (and the naive reference, when given); returns how many
    /// times the tracker renumbered its live marks.
    fn renumbered_against_oracle(
        keys: impl IntoIterator<Item = u32>,
        naive: Option<&[Option<u64>]>,
    ) -> usize {
        let mut s = StackDistance::new();
        let mut oracle = oracle::StackDistance::new();
        let mut renumbers = 0;
        for (i, k) in keys.into_iter().enumerate() {
            // A full bitmap renumbers on the next access.
            renumbers += usize::from(s.clock > 0 && s.clock == s.live.len() * 64);
            let d = s.access(k);
            assert_eq!(
                d,
                oracle.access(u64::from(k)),
                "oracle mismatch at access {i}"
            );
            if let Some(naive) = naive {
                assert_eq!(d, naive[i], "naive mismatch at access {i}");
            }
        }
        assert_eq!(s.distinct(), oracle.distinct());
        renumbers
    }

    #[test]
    fn distances_survive_renumbering_over_every_key_universe() {
        // Up to 1 000 live keys a tracker holds 4 096 slots, so 16 384
        // accesses renumber at least three times; short enough to check
        // the small universes against the naive reference too.
        for universe in [1u64, 2, 15, 64, 1_000] {
            let mut next = lcg(universe);
            let keys: Vec<u32> = (0..16_384).map(|_| (next() % universe) as u32).collect();
            let naive = (universe <= 64).then(|| naive_distances(&keys));
            let n = renumbered_against_oracle(keys, naive.as_deref());
            assert!(n >= 3, "{universe} keys: renumbered {n} times");
        }
        // A cyclic scan over seven keys.
        let n = renumbered_against_oracle((0..16_384).map(|i| i % 7), None);
        assert!(n >= 3, "cyclic scan: renumbered {n} times");
        // 100 000 random keys: 4 096 → 16 384 → 65 536 → 262 144 slots.
        let mut next = lcg(7);
        let n = renumbered_against_oracle((0..300_000).map(|_| (next() % 100_000) as u32), None);
        assert!(n >= 3, "100 000 keys: renumbered {n} times");
        // All distinct: every mark stays live.
        let n = renumbered_against_oracle(0..100_000, None);
        assert!(n >= 3, "all distinct: renumbered {n} times");
        // A growing universe mixing cold misses with reuse of hot keys.
        let mut next = lcg(0x9e3779b97f4a7c15);
        let n =
            renumbered_against_oracle((0..50_000u64).map(|i| (next() % (i / 2 + 16)) as u32), None);
        assert!(n >= 3, "growing universe: renumbered {n} times");
    }

    #[test]
    fn renumbering_bounds_memory_by_live_keys() {
        // 15 keys over a million accesses: the bitmap never grows past
        // its minimum, where a tracker over every timestamp would hold a
        // million.
        let mut s = StackDistance::new();
        let mut next = lcg(3);
        for _ in 0..1_000_000 {
            s.access((next() % 15) as u32);
        }
        assert_eq!(s.live.len() * 64, MIN_SLOTS);
        assert_eq!(s.sealed.len(), MIN_SLOTS / 64 + 1);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1 << 22), 22);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_cdf_monotone_and_bounded() {
        let mut h = ReuseHistogram::new();
        for d in [0u64, 1, 1, 3, 9, 100, 5000] {
            h.record(Some(d));
        }
        h.record(None);
        h.record(None);
        let mut prev = 0.0;
        for b in 0..NUM_BUCKETS {
            let c = h.cdf(b);
            assert!(c >= prev && c <= 1.0);
            prev = c;
        }
        // Cold accesses keep the CDF below 1.
        assert!((h.cdf(NUM_BUCKETS - 1) - 7.0 / 9.0).abs() < 1e-12);
        assert!((h.cold_fraction() - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_bucket_finds_median() {
        let mut h = ReuseHistogram::new();
        for _ in 0..10 {
            h.record(Some(1)); // bucket 0
        }
        for _ in 0..10 {
            h.record(Some(1000)); // bucket 10
        }
        assert_eq!(h.quantile_bucket(0.5), 0);
        assert_eq!(h.quantile_bucket(0.9), 10);
        assert_eq!(h.quantile_bucket(1.1), NUM_BUCKETS);
    }

    #[test]
    fn analyzer_combines_stack_and_histogram() {
        let mut a = ReuseAnalyzer::new();
        for _ in 0..3 {
            for k in 0..4 {
                a.access(k);
            }
        }
        assert_eq!(a.distinct(), 4);
        assert_eq!(a.histogram().total(), 12);
        assert_eq!(a.histogram().cold(), 4);
        // Warm accesses all have distance 3 -> bucket 2.
        assert!((a.histogram().pdf(2) - 8.0 / 12.0).abs() < 1e-12);
    }
}

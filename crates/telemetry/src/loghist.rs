//! Log-bucketed histograms with bounded-relative-error quantiles.
//!
//! Fixed buckets make poor *quantiles*: `quantile(0.99)` from a dozen
//! hand-picked buckets is only as good as the hand-picking, and the
//! alternative — keeping every observation and sorting at the end —
//! costs memory proportional to traffic.
//!
//! [`LogHistogram`] is the HdrHistogram-style middle ground: buckets are
//! laid out geometrically (every power of two split into
//! [`SUB_BUCKETS`] linear sub-buckets), so a fixed ~20 KiB of counters
//! covers [`MIN_TRACKED`]..[`MAX_TRACKED`] — about 24 orders of
//! magnitude — with a *proven* relative-error bound of
//! [`RELATIVE_ERROR_BOUND`] (= 2⁻⁶ ≈ 1.6%) on every quantile estimate.
//!
//! # How the bound holds
//!
//! Bucketing uses the IEEE-754 bit pattern directly: for positive finite
//! doubles, `f64::to_bits` is monotonically increasing, and its top bits
//! are `exponent << 52 | mantissa`. Taking the exponent plus the top
//! [`SUB_BITS`] mantissa bits as the bucket index therefore yields
//! geometric buckets whose upper/lower edge ratio is at most
//! `1 + 2^-SUB_BITS` (the ratio is exactly `(m + 2^-SUB_BITS) / m` for
//! mantissa `m ∈ [1, 2)`, maximized at `m = 1`). The quantile estimate
//! is the bucket midpoint; the true rank-`k` observation lies in the
//! same bucket (the value→bucket map is monotone, so bucket-cumulative
//! rank order equals sorted order), giving
//!
//! ```text
//! |estimate − exact| ≤ (hi − lo) / 2 ≤ lo · 2^-SUB_BITS / 2
//!                   ⇒ relative error ≤ 2^-(SUB_BITS+1) = 1/64
//! ```
//!
//! for every observation inside the tracked range. Values at or below
//! zero (and positive values below [`MIN_TRACKED`]) land in a dedicated
//! *below* bucket whose estimate is `0.0`; values above [`MAX_TRACKED`]
//! clamp into the top bucket; NaN goes to a dedicated counter excluded
//! from quantiles. The bound is enforced for arbitrary in-range
//! observation sets by a property test in the workspace `telemetry`
//! suite.

/// Mantissa bits kept per bucket: 2^5 = 32 sub-buckets per power of two.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per power of two (octave).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Smallest tracked value, 2⁻⁴⁰ (≈ 9.1e-13): below this, observations
/// count as *below* and quantiles estimate them as `0.0`. Nanosecond
/// latencies in seconds sit comfortably above it.
pub const MIN_TRACKED: f64 = 9.094947017729282e-13; // 2^-40

/// Largest tracked value, 2⁴¹ (≈ 2.2e12): above this, observations clamp
/// into the top bucket (the quantile estimate saturates).
pub const MAX_TRACKED: f64 = 2.199023255552e12; // 2^41

/// Octaves between [`MIN_TRACKED`] and [`MAX_TRACKED`].
const OCTAVES: usize = 81;

/// Total bucket count.
const NUM_BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// The biased-exponent/sub-bucket key of [`MIN_TRACKED`].
const BASE_KEY: u64 = ((1023 - 40) as u64) << SUB_BITS;

/// The guaranteed quantile relative-error bound: 2^-(SUB_BITS+1) = 1/64.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / 64.0;

/// A log-bucketed histogram over non-negative measurements (latencies,
/// sizes, counts) with `O(1)` insert, ~20 KiB fixed footprint, and
/// [`quantile`](LogHistogram::quantile) estimates within
/// [`RELATIVE_ERROR_BOUND`] of the exact nearest-rank quantile for
/// observations in `[MIN_TRACKED, MAX_TRACKED]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    /// Observations at or below zero, or positive but under
    /// [`MIN_TRACKED`]; quantiles estimate them as `0.0`.
    below: u64,
    /// NaN observations — counted, surfaced, excluded from quantiles.
    nan: u64,
    /// Sum of all finite observations (for mean / Prometheus `_sum`).
    sum: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram. All `LogHistogram`s share one bucket layout,
    /// so any two can [`merge`](LogHistogram::merge).
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            below: 0,
            nan: 0,
            sum: 0.0,
        }
    }

    /// The bucket index for a positive finite value, or `None` for the
    /// *below* bucket.
    fn index_of(value: f64) -> Option<usize> {
        debug_assert!(value.is_finite());
        if value <= 0.0 {
            return None;
        }
        let key = value.to_bits() >> (52 - SUB_BITS);
        if key < BASE_KEY {
            return None; // under MIN_TRACKED (incl. denormals)
        }
        Some(((key - BASE_KEY) as usize).min(NUM_BUCKETS - 1))
    }

    /// The lower edge of bucket `index` (its upper edge is the lower
    /// edge of `index + 1`).
    fn lower_edge(index: usize) -> f64 {
        f64::from_bits((BASE_KEY + index as u64) << (52 - SUB_BITS))
    }

    /// Records one observation. `O(1)`, no allocation.
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            self.nan += 1;
            return;
        }
        self.sum += value.clamp(0.0, MAX_TRACKED);
        match Self::index_of(value.min(MAX_TRACKED)) {
            Some(i) => self.counts[i] += 1,
            None => self.below += 1,
        }
    }

    /// Finite observations recorded (NaN excluded).
    pub fn count(&self) -> u64 {
        self.below + self.counts.iter().sum::<u64>()
    }

    /// NaN observations recorded.
    pub fn nan_count(&self) -> u64 {
        self.nan
    }

    /// Observations below the tracked range (including zero/negative).
    pub fn below_count(&self) -> u64 {
        self.below
    }

    /// Sum of finite observations (clamped into the tracked range).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    /// Whether nothing (not even a NaN) was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0 && self.nan == 0
    }

    /// The nearest-rank quantile estimate for `q ∈ [0, 1]`: the midpoint
    /// of the bucket holding the `⌈q·n⌉`-th smallest observation.
    /// Guaranteed within [`RELATIVE_ERROR_BOUND`] of the exact sorted
    /// quantile when every observation lies in
    /// `[MIN_TRACKED, MAX_TRACKED]`. Returns `0.0` on an empty
    /// histogram; NaN observations are excluded.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).max(1);
        if rank <= self.below {
            return 0.0;
        }
        let mut cumulative = self.below;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return (Self::lower_edge(i) + Self::lower_edge(i + 1)) / 2.0;
            }
        }
        // Unreachable: rank ≤ count() by construction.
        Self::lower_edge(NUM_BUCKETS)
    }

    /// Adds every observation of `other` into `self` (all
    /// `LogHistogram`s share one layout, so merging is element-wise).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.below += other.below;
        self.nan += other.nan;
        self.sum += other.sum;
    }

    /// Rebuilds a histogram from the sparse `(bucket_index, count)` form
    /// (the JSONL reader). Inverse of
    /// [`sparse_counts`](LogHistogram::sparse_counts).
    ///
    /// # Errors
    ///
    /// A message when a bucket index is out of range or repeated.
    pub fn from_sparse(
        buckets: &[(u64, u64)],
        below: u64,
        nan: u64,
        sum: f64,
    ) -> Result<LogHistogram, String> {
        let mut h = LogHistogram::new();
        for &(index, count) in buckets {
            let slot = h
                .counts
                .get_mut(index as usize)
                .ok_or_else(|| format!("loghist bucket index {index} out of range"))?;
            if *slot != 0 {
                return Err(format!("loghist bucket index {index} repeated"));
            }
            *slot = count;
        }
        h.below = below;
        h.nan = nan;
        h.sum = sum;
        Ok(h)
    }

    /// The non-empty buckets as `(bucket_index, count)` pairs — the
    /// stable serialized form ([`from_sparse`](LogHistogram::from_sparse)
    /// inverts it).
    pub fn sparse_counts(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value_quantile_is_within_the_bound() {
        for v in [1e-9, 0.00037, 0.5, 1.0, 3.25, 1234.5, 9.9e8] {
            let mut h = LogHistogram::new();
            h.observe(v);
            let est = h.quantile(0.5);
            let rel = (est - v).abs() / v;
            assert!(
                rel <= RELATIVE_ERROR_BOUND,
                "value {v}: estimate {est}, relative error {rel}"
            );
        }
    }

    #[test]
    fn quantiles_track_the_sorted_order() {
        let mut h = LogHistogram::new();
        let values: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 0.001).collect();
        for &v in &values {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        for (q, exact) in [(0.5, 0.5), (0.9, 0.9), (0.99, 0.99), (1.0, 1.0)] {
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= RELATIVE_ERROR_BOUND,
                "q{q}: {est} vs {exact} ({rel})"
            );
        }
        // q=0 means rank 1: the smallest observation.
        let est = h.quantile(0.0);
        assert!((est - 0.001).abs() / 0.001 <= RELATIVE_ERROR_BOUND);
    }

    #[test]
    fn zero_negative_and_tiny_values_count_as_below() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(1e-15);
        assert_eq!(h.below_count(), 3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.5), 0.0);
        // A real value after them still quantiles correctly at the top.
        h.observe(2.0);
        let est = h.quantile(1.0);
        assert!((est - 2.0).abs() / 2.0 <= RELATIVE_ERROR_BOUND);
    }

    #[test]
    fn nan_is_counted_but_excluded_from_quantiles() {
        let mut h = LogHistogram::new();
        h.observe(f64::NAN);
        h.observe(1.0);
        assert_eq!(h.nan_count(), 1);
        assert_eq!(h.count(), 1);
        let est = h.quantile(0.5);
        assert!((est - 1.0).abs() <= RELATIVE_ERROR_BOUND);
        assert!(h.sum().is_finite());
    }

    #[test]
    fn oversized_values_clamp_into_the_top_bucket() {
        let mut h = LogHistogram::new();
        h.observe(1e300);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 2);
        let est = h.quantile(1.0);
        assert!(est >= MAX_TRACKED / 2.0, "saturated estimate, got {est}");
    }

    #[test]
    fn merge_is_observation_union() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 1..=50 {
            let v = f64::from(i) * 0.01;
            a.observe(v);
            all.observe(v);
        }
        for i in 51..=100 {
            let v = f64::from(i) * 0.01;
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn sparse_round_trip() {
        let mut h = LogHistogram::new();
        for v in [0.0, 1e-20, 0.003, 0.003, 7.5, 1e200, f64::NAN] {
            h.observe(v);
        }
        let back =
            LogHistogram::from_sparse(&h.sparse_counts(), h.below_count(), h.nan_count(), h.sum())
                .unwrap();
        assert_eq!(back, h);
        assert!(LogHistogram::from_sparse(&[(u64::MAX, 1)], 0, 0, 0.0).is_err());
        assert!(LogHistogram::from_sparse(&[(3, 1), (3, 2)], 0, 0, 0.0).is_err());
    }

    #[test]
    fn bucket_edges_are_monotone_and_tight() {
        for i in 0..NUM_BUCKETS {
            let lo = LogHistogram::lower_edge(i);
            let hi = LogHistogram::lower_edge(i + 1);
            assert!(hi > lo, "bucket {i}");
            let ratio = hi / lo;
            assert!(
                ratio <= 1.0 + 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "bucket {i} too wide: ratio {ratio}"
            );
        }
        assert!((LogHistogram::lower_edge(0) - MIN_TRACKED).abs() < 1e-25);
        assert_eq!(LogHistogram::lower_edge(NUM_BUCKETS), MAX_TRACKED);
    }

    #[test]
    fn mean_matches_the_arithmetic_mean() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.observe(v);
        }
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert!(LogHistogram::new().mean() == 0.0);
    }
}

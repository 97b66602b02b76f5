//! Order statistics over latency samples, a seeded RNG for workload
//! inputs, and the FNV-1a digest that output checks compare.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples strictly beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The tail percentile a latency report may quote: the highest of p99
/// and p90 that has at least ten samples beyond it, with its value.
/// `None` when even p90 has fewer than ten (fewer than 100 samples).
pub fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    [(99, 0.99), (90, 0.90)]
        .into_iter()
        .find(|&(_, q)| beyond(sorted.len(), q) >= 10)
        .map(|(p, q)| (p, quantile(sorted, q)))
}

/// SplitMix64: a small, seedable generator for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole output stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over everything fed to it; floats go in by bit pattern, so two
/// digests agree only when the outputs are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(99)), None, "p90 of 99 has 9 beyond");
        assert_eq!(tail(&v(100)), Some((90, 90.0)));
        assert_eq!(tail(&v(999)), Some((90, 900.0)), "p99 of 999 has 9 beyond");
        assert_eq!(tail(&v(1000)), Some((99, 990.0)));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn digest_is_fnv1a_and_bit_sensitive() {
        // Reference FNV-1a 64 vectors: a change here moves every printed
        // digest.
        let of = |bytes: &[u8]| {
            let mut d = Digest::default();
            d.bytes(bytes);
            d.value()
        };
        assert_eq!(of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar"), 0x8594_4171_f739_67e8);
        let (mut f, mut u) = (Digest::default(), Digest::default());
        f.f64(1.5);
        u.u64(1.5f64.to_bits());
        assert_eq!(f, u);
        let mut z = Digest::default();
        z.f64(0.0);
        let mut nz = Digest::default();
        nz.f64(-0.0);
        assert_ne!(z, nz, "digests compare bit patterns");
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
    }
}

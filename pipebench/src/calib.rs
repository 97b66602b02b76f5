//! The host-speed reference: fixed computations of the benchmark's own,
//! timed every [`EVERY_S`] through a timed phase, by which every op's
//! times are scaled.
//!
//! The shared host runs the same code at different speeds for stretches
//! of seconds to minutes: the same op takes up to 1.5 times as long in a
//! slow stretch as in a fast one, CPU time moving with wall time, and a
//! whole 24-second run can fall in one kind of stretch. A figure read from
//! wall or CPU time alone then depends on when it was taken. The reference
//! is made of what the workloads are made of — hash-map updates over a
//! table the size of the private cache and over one that fits the
//! first-level cache, and allocation churn — and slows with them; it never
//! calls into the repository's crates, so a change to the program cannot
//! move it. Each op's time is multiplied by [`NOMINAL_S`] over the
//! reference time around it (the geometric mean of its kernels' median
//! times): the time the op would take on a host where the reference takes
//! [`NOMINAL_S`].

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::median;

/// Reference seconds the scaled times are expressed against: about what
/// the reference takes on the 2-vCPU Sapphire Rapids KVM guest the
/// benchmark was tuned on.
const NOMINAL_S: f64 = 0.0015;

/// Seconds between reference passes in a timed phase.
const EVERY_S: f64 = 0.1;

/// Reference passes within this many seconds of an op scale it.
const AROUND_S: f64 = 0.5;

/// Updates per hash-map kernel.
const UPDATES: u64 = 50_000;

/// Keys of the large table (about 1 MiB) and of the small one.
const BIG_KEYS: u64 = 50_000;
const SMALL_KEYS: u64 = 2_000;

/// Vectors the allocation kernel builds and drops.
const ALLOCS: u64 = 5_000;

/// Reference passes timed before and after a bracketed step.
const BRACKET: usize = 3;

/// Kernels of one reference pass, timed separately.
const KERNELS: usize = 3;

/// Runs `f` between [`BRACKET`] reference passes on each side; returns its
/// result, its seconds scaled by those passes, and its host-clock seconds.
pub fn bracketed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let mut reference = Reference::new(Instant::now());
    (0..BRACKET).for_each(|_| reference.sample());
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    (0..BRACKET).for_each(|_| reference.sample());
    let typical = reference.overall().expect("timed reference passes");
    (out, seconds * NOMINAL_S / typical, seconds)
}

/// `UPDATES` xorshift-keyed updates of `map` over `keys` keys.
fn updates(map: &mut HashMap<u64, u64>, keys: u64) -> u64 {
    map.clear();
    let mut x = 0x1234_5678_9ABC_DEF1u64;
    for i in 0..UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % keys).or_insert(0) += i;
    }
    map.values().fold(0, |a, &v| a ^ v)
}

/// `ALLOCS` vectors of 16 to 2063 words, each built, read and dropped.
fn churn() -> u64 {
    let mut acc = 0;
    for i in 0..ALLOCS {
        let n = 16 + i * 37 % 2048;
        let v: Vec<u64> = (0..n).collect();
        acc ^= std::hint::black_box(&v)[v.len() / 2];
    }
    acc
}

/// The geometric mean of each kernel's median over `samples`.
fn typical(samples: &[(f64, [f64; KERNELS])]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let log_sum: f64 = (0..KERNELS)
        .map(|k| median(&samples.iter().map(|s| s.1[k]).collect::<Vec<_>>()).ln())
        .sum();
    Some((log_sum / KERNELS as f64).exp())
}

/// The reference computation and its timings through one phase.
#[derive(Debug)]
pub struct Reference {
    big: HashMap<u64, u64>,
    small: HashMap<u64, u64>,
    origin: Instant,
    last: Option<Instant>,
    /// (seconds from the origin, each kernel's seconds), in time order.
    samples: Vec<(f64, [f64; KERNELS])>,
}

impl Reference {
    /// A reference whose sample times count from `origin`.
    pub fn new(origin: Instant) -> Reference {
        Reference {
            big: HashMap::with_capacity(BIG_KEYS as usize),
            small: HashMap::with_capacity(SMALL_KEYS as usize),
            origin,
            last: None,
            samples: Vec::new(),
        }
    }

    /// Times one reference pass, kernel by kernel.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut times = [0.0; KERNELS];
        let mut at = start;
        for (k, time) in times.iter_mut().enumerate() {
            std::hint::black_box(match k {
                0 => updates(&mut self.big, BIG_KEYS),
                1 => updates(&mut self.small, SMALL_KEYS),
                _ => churn(),
            });
            let now = Instant::now();
            *time = (now - at).as_secs_f64();
            at = now;
        }
        self.samples
            .push(((start - self.origin).as_secs_f64(), times));
        self.last = Some(at);
    }

    /// Times one reference pass if [`EVERY_S`] has passed since the last.
    pub fn tick(&mut self) {
        if self
            .last
            .map_or(true, |t| t.elapsed().as_secs_f64() >= EVERY_S)
        {
            self.sample();
        }
    }

    /// Reference passes timed so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The reference time over every pass.
    pub fn overall(&self) -> Option<f64> {
        typical(&self.samples)
    }

    /// The factor that scales a time taken `at` seconds from the origin:
    /// [`NOMINAL_S`] over the reference time of the passes within
    /// [`AROUND_S`] of it, or of the nearest pass when none is that close.
    /// `None` before any reference pass.
    pub fn scale_at(&self, at: f64) -> Option<f64> {
        let lo = self.samples.partition_point(|s| s.0 < at - AROUND_S);
        let hi = self.samples.partition_point(|s| s.0 <= at + AROUND_S);
        let near = if lo < hi {
            &self.samples[lo..hi]
        } else {
            let distance = |i: usize| (self.samples[i].0 - at).abs();
            let nearest =
                (0..self.samples.len()).min_by(|&a, &b| distance(a).total_cmp(&distance(b)))?;
            &self.samples[nearest..=nearest]
        };
        Some(NOMINAL_S / typical(near)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(samples: &[(f64, [f64; KERNELS])]) -> Reference {
        Reference {
            samples: samples.to_vec(),
            ..Reference::new(Instant::now())
        }
    }

    #[test]
    fn scale_uses_the_typical_reference_around_the_op() {
        let r = with(&[
            (0.0, [0.002; 3]),
            (0.3, [0.006; 3]),
            (0.6, [0.003; 3]),
            (2.0, [0.012; 3]),
        ]);
        let close = |a: Option<f64>, b: f64| (a.unwrap() - b).abs() < 1e-9 * b;
        // 0.0, 0.3 and 0.6 are within half a second of 0.3.
        assert!(close(r.scale_at(0.3), NOMINAL_S / 0.003));
        // Nothing within half a second of 1.25 or 1.45: the nearest, at
        // 0.6 and at 2.0.
        assert!(close(r.scale_at(1.25), NOMINAL_S / 0.003));
        assert!(close(r.scale_at(1.45), NOMINAL_S / 0.012));
        assert_eq!(with(&[]).scale_at(0.0), None);
        assert_eq!(with(&[]).overall(), None);
    }

    #[test]
    fn typical_is_the_geometric_mean_of_kernel_medians() {
        let t = typical(&[(0.0, [0.001, 0.004, 0.002]), (0.1, [0.001, 0.004, 0.002])]).unwrap();
        assert!((t - 0.002).abs() < 1e-12);
    }

    #[test]
    fn passes_are_deterministic_and_ticks_are_spaced() {
        let mut big = HashMap::new();
        assert_eq!(updates(&mut big, BIG_KEYS), updates(&mut big, BIG_KEYS));
        assert_eq!(churn(), churn());
        let mut r = Reference::new(Instant::now());
        r.tick();
        r.tick();
        assert_eq!(r.len(), 1, "a second tick within EVERY_S is skipped");
        r.sample();
        assert_eq!(r.len(), 2);
        assert!(r.samples.iter().all(|s| s.1.iter().all(|&t| t > 0.0)));
        assert!(r.samples[0].0 <= r.samples[1].0);
    }

    #[test]
    fn bracketed_returns_the_result_and_both_clocks() {
        let (out, scaled, raw) = bracketed(|| 7);
        assert_eq!(out, 7);
        assert!(raw >= 0.0 && scaled >= 0.0);
    }
}

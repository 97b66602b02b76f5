//! Property tests for the profiler against reference implementations.

use proptest::prelude::*;

use napel_ir::{Emitter, MultiTrace};
use napel_pisa::reuse::StackDistance;
use napel_pisa::ApplicationProfile;

#[allow(dead_code)]
mod oracle;

/// O(n²) reference stack distance.
fn naive_distance(keys: &[u32], i: usize) -> Option<u64> {
    let k = keys[i];
    let prev = keys[..i].iter().rposition(|&p| p == k)?;
    let mut set = std::collections::HashSet::new();
    for &mid in &keys[prev + 1..i] {
        set.insert(mid);
    }
    Some(set.len() as u64)
}

proptest! {
    #[test]
    fn stack_distance_matches_naive_and_oracle(keys in prop::collection::vec(0u32..30, 1..300)) {
        let mut s = StackDistance::new();
        let mut o = oracle::StackDistance::new();
        for i in 0..keys.len() {
            let d = s.access(keys[i]);
            prop_assert_eq!(d, naive_distance(&keys, i), "at access {}", i);
            prop_assert_eq!(d, o.access(u64::from(keys[i])), "at access {}", i);
        }
        let distinct: std::collections::HashSet<u32> = keys.iter().copied().collect();
        prop_assert_eq!(s.distinct(), distinct.len());
    }

    #[test]
    fn profile_features_are_finite_and_consistent(
        ops in prop::collection::vec((0u8..4, 0u64..512), 1..400),
        threads in 1usize..4,
    ) {
        // Build an arbitrary (but well-formed) trace from an op script.
        let mut trace = MultiTrace::new(threads);
        for t in 0..threads {
            let mut e = Emitter::new(trace.thread_sink(t));
            let mut last = e.imm(0);
            for &(kind, addr) in &ops {
                match kind {
                    0 => last = e.load(1, addr * 8, 8),
                    1 => e.store(2, addr * 8, 8, last),
                    2 => last = e.fadd(3, last, last),
                    _ => e.branch(4),
                }
            }
        }
        let p = ApplicationProfile::of(&trace);
        prop_assert_eq!(p.values().len(), napel_pisa::feature_names().len());
        for (name, v) in napel_pisa::feature_names().iter().zip(p.values()) {
            prop_assert!(v.is_finite(), "{} is {}", name, v);
        }
        // CDFs are monotone in the bucket index.
        for prefix in ["reuse.elem.all.cdf", "reuse.line64.all.cdf", "reuse.inst.cdf"] {
            let mut prev = -1.0;
            for b in 0..napel_pisa::NUM_REUSE_BUCKETS {
                let v = p.value(&format!("{prefix}.b{b}"));
                prop_assert!(v + 1e-12 >= prev, "{prefix} not monotone at b{b}");
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
                prev = v;
            }
        }
        // Traffic curves are monotone non-increasing.
        let mut prev = f64::INFINITY;
        for b in 0..napel_pisa::NUM_REUSE_BUCKETS {
            let v = p.value(&format!("traffic.line64.read.b{b}"));
            prop_assert!(v <= prev + 1e-12);
            prev = v;
        }
        prop_assert_eq!(p.value("threads"), threads as f64);
    }

    #[test]
    fn ilp_windows_are_monotone(
        ops in prop::collection::vec((0u8..3, 0u64..64), 1..300)
    ) {
        let mut trace = MultiTrace::new(1);
        let mut e = Emitter::new(trace.thread_sink(0));
        let mut last = e.imm(0);
        for &(kind, addr) in &ops {
            match kind {
                0 => last = e.load(1, addr * 8, 8),
                1 => last = e.fmul(2, last, last),
                _ => e.store(3, addr * 8, 8, last),
            }
        }
        drop(e);
        let p = ApplicationProfile::of(&trace);
        let ilps: Vec<f64> =
            ["w32", "w64", "w128", "w256", "inf"].iter().map(|w| p.value(&format!("ilp.{w}"))).collect();
        for pair in ilps.windows(2) {
            prop_assert!(pair[0] <= pair[1] + 1e-9, "larger window exposes no less ILP: {ilps:?}");
        }
        // ILP cannot exceed the instruction count and is at least... positive.
        prop_assert!(ilps[4] >= 1.0 - 1e-9, "unbounded ILP is at least 1");
    }
}

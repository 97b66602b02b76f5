//! Active-learning augmentation of a seed design.
//!
//! CCD fixes the whole design before a single simulation runs; active
//! learning instead spends the simulation budget where the surrogate model
//! is least sure. Starting from a seed design (typically the CCD of
//! [`crate::ccd`]), [`active_augment`] repeatedly drafts a Latin-hypercube
//! candidate pool and adds the candidate with the highest caller-supplied
//! uncertainty score — for NAPEL, the per-tree spread of the trained
//! random forest (`predict_with_spread`), though this crate stays agnostic
//! to where scores come from so it does not depend on `napel-ml`.

use rand::Rng;

use crate::samplers::latin_hypercube;
use crate::space::{DesignError, DesignPoint, ParamSpace};

/// Largest candidate pool per round (same bound as the full factorial:
/// scoring a pool is cheap, but not free — it profiles every candidate).
const MAX_POOL: usize = 1_000_000;

/// Extends `seed` with `additional` actively chosen points.
///
/// Each round draws a fresh `pool`-point Latin hypercube over `space`,
/// drops candidates that (approximately) duplicate the design so far, asks
/// `score` to rate the survivors — given the current design and the
/// candidate list, returning one score per candidate, higher = more worth
/// simulating — and commits the argmax (first wins ties, so the loop is
/// deterministic given the RNG). The caller simulates each committed point
/// and refreshes its surrogate between calls via the closure's captured
/// state.
///
/// If every candidate in a round duplicates the design (a tiny integer
/// space can exhaust its distinct points), the round falls back to the
/// full pool: replicating an informative point is how CCD treats its
/// center, and it keeps the returned design at the promised size.
///
/// # Errors
///
/// Returns [`DesignError::InfeasibleSize`] if `pool` is zero or above the
/// tractability bound, and [`DesignError::DimensionMismatch`] if `score`
/// returns the wrong number of scores.
pub fn active_augment<R, F>(
    space: &ParamSpace,
    seed: &[DesignPoint],
    additional: usize,
    pool: usize,
    rng: &mut R,
    mut score: F,
) -> Result<Vec<DesignPoint>, DesignError>
where
    R: Rng + ?Sized,
    F: FnMut(&[DesignPoint], &[DesignPoint]) -> Vec<f64>,
{
    if pool == 0 || pool > MAX_POOL {
        return Err(DesignError::InfeasibleSize {
            requested: pool,
            min: 1,
            max: MAX_POOL,
        });
    }
    let mut design = seed.to_vec();
    design.reserve(additional);
    for _ in 0..additional {
        let drafted = latin_hypercube(space, pool, rng);
        let mut candidates: Vec<DesignPoint> = drafted
            .iter()
            .filter(|c| !design.iter().any(|d| d.approx_eq(c)))
            .cloned()
            .collect();
        if candidates.is_empty() {
            candidates = drafted;
        }
        let scores = score(&design, &candidates);
        if scores.len() != candidates.len() {
            return Err(DesignError::DimensionMismatch {
                expected: candidates.len(),
                got: scores.len(),
            });
        }
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty candidate pool");
        design.push(candidates.swap_remove(best));
    }
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ParamDef;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space2() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::new("a", [0.0, 1.0, 2.0, 3.0, 4.0]).unwrap(),
            ParamDef::new("b", [10.0, 20.0, 30.0, 40.0, 50.0]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn augment_reaches_requested_size_and_keeps_seed() {
        let s = space2();
        let seed = vec![
            DesignPoint::new(vec![2.0, 30.0]),
            DesignPoint::new(vec![0.0, 10.0]),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let out = active_augment(&s, &seed, 5, 20, &mut rng, |_, cands| {
            cands.iter().map(|c| c.coord(0)).collect()
        })
        .unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(out[0], seed[0]);
        assert_eq!(out[1], seed[1]);
        for p in &out {
            assert!((0.0..=4.0).contains(&p.coord(0)));
            assert!((10.0..=50.0).contains(&p.coord(1)));
        }
    }

    #[test]
    fn picks_the_highest_scored_candidate() {
        // Score = distance from the center column; the chosen points must
        // hug the edges of dimension `a`.
        let s = space2();
        let mut rng = StdRng::seed_from_u64(2);
        let out = active_augment(&s, &[], 8, 50, &mut rng, |_, cands| {
            cands.iter().map(|c| (c.coord(0) - 2.0).abs()).collect()
        })
        .unwrap();
        for p in &out {
            assert!(
                (p.coord(0) - 2.0).abs() > 1.0,
                "greedy argmax should avoid the center, got {p}"
            );
        }
    }

    #[test]
    fn duplicates_are_filtered_from_the_pool() {
        let s = space2();
        let seed = vec![DesignPoint::new(vec![2.0, 30.0])];
        let mut rng = StdRng::seed_from_u64(3);
        let mut saw_seed_as_candidate = false;
        let out = active_augment(&s, &seed, 4, 30, &mut rng, |design, cands| {
            for c in cands {
                if design.iter().any(|d| d.approx_eq(c)) {
                    saw_seed_as_candidate = true;
                }
            }
            cands.iter().map(|_| 1.0).collect()
        })
        .unwrap();
        assert!(
            !saw_seed_as_candidate,
            "design points must not be re-offered"
        );
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn zero_and_oversized_pools_are_typed_errors() {
        let s = space2();
        let mut rng = StdRng::seed_from_u64(4);
        let err = active_augment(&s, &[], 1, 0, &mut rng, |_, c| vec![0.0; c.len()]).unwrap_err();
        assert_eq!(
            err,
            DesignError::InfeasibleSize {
                requested: 0,
                min: 1,
                max: 1_000_000,
            }
        );
        let err =
            active_augment(&s, &[], 1, 2_000_000, &mut rng, |_, c| vec![0.0; c.len()]).unwrap_err();
        assert!(matches!(err, DesignError::InfeasibleSize { .. }));
    }

    #[test]
    fn score_length_mismatch_is_a_typed_error() {
        let s = space2();
        let mut rng = StdRng::seed_from_u64(5);
        let err = active_augment(&s, &[], 1, 10, &mut rng, |_, _| vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            DesignError::DimensionMismatch {
                expected: 10,
                got: 1,
            }
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let s = space2();
        let score = |_: &[DesignPoint], cands: &[DesignPoint]| -> Vec<f64> {
            cands.iter().map(|c| c.coord(0) * c.coord(1)).collect()
        };
        let a = active_augment(&s, &[], 6, 25, &mut StdRng::seed_from_u64(9), score).unwrap();
        let b = active_augment(&s, &[], 6, 25, &mut StdRng::seed_from_u64(9), score).unwrap();
        assert_eq!(a, b);
    }
}

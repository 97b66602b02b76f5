//! Cross-validation and hyper-parameter tuning.
//!
//! NAPEL's third training phase (Section 2.5) performs "as many iterations
//! of the cross-validation process as hyper-parameter combinations",
//! compares the generated models, and keeps the best — i.e. grid search with
//! cross-validated scoring, implemented here by [`GridSearch`]. The
//! accuracy analysis (Section 3.3) holds out one application at a time;
//! `napel_core::analysis` splits its training set by workload for that.

use rand::Rng;
use rand::RngCore;

use crate::dataset::Dataset;
use crate::metrics::mean_relative_error;
use crate::{Estimator, MlError, Regressor};

/// Train/test index splits of a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Row indices to train on.
    pub train: Vec<usize>,
    /// Row indices to evaluate on.
    pub test: Vec<usize>,
}

/// `k`-fold split with shuffled assignment.
///
/// # Errors
///
/// Returns [`MlError::NotEnoughSamples`] if `n < k` or `k < 2`.
pub fn k_fold<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Result<Vec<Fold>, MlError> {
    if k < 2 || n < k {
        return Err(MlError::NotEnoughSamples {
            needed: k.max(2),
            available: n,
        });
    }
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let test: Vec<usize> = order.iter().copied().skip(f).step_by(k).collect();
        let train: Vec<usize> = order
            .iter()
            .copied()
            .filter(|i| !test.contains(i))
            .collect();
        folds.push(Fold { train, test });
    }
    Ok(folds)
}

/// Cross-validated mean relative error of `estimator` over `folds`.
///
/// # Errors
///
/// Propagates fitting errors; returns [`MlError::NotEnoughSamples`] if any
/// fold has an empty side.
pub fn cross_val_mre<E: Estimator>(
    estimator: &E,
    data: &Dataset,
    folds: &[Fold],
    rng: &mut dyn RngCore,
) -> Result<f64, MlError> {
    let telemetry = napel_telemetry::global();
    let _span = telemetry
        .span("ml.cross_validate")
        .attr("folds", folds.len())
        .attr("rows", data.len());
    let mut total = 0.0;
    for (i, fold) in folds.iter().enumerate() {
        if fold.train.is_empty() || fold.test.is_empty() {
            return Err(MlError::NotEnoughSamples {
                needed: 1,
                available: 0,
            });
        }
        let train = data.subset(&fold.train);
        let test = data.subset(&fold.test);
        let model = {
            let _fit = telemetry
                .span("ml.cv.fit")
                .attr("fold", i)
                .attr("train_rows", fold.train.len());
            estimator.fit(&train, rng)?
        };
        let preds = {
            let _predict = telemetry
                .span("ml.cv.predict")
                .attr("fold", i)
                .attr("test_rows", fold.test.len());
            model.predict(&test)
        };
        total += mean_relative_error(&preds, test.targets());
    }
    Ok(total / folds.len() as f64)
}

/// Result of a grid search: the winning estimator, its cross-validated MRE,
/// and the per-candidate scores in grid order.
#[derive(Debug, Clone)]
pub struct TuneOutcome<E> {
    /// The best hyper-parameter configuration.
    pub best: E,
    /// Its cross-validated mean relative error.
    pub best_score: f64,
    /// `(description, score)` for every candidate.
    pub scores: Vec<(String, f64)>,
}

/// Exhaustive hyper-parameter search scored by cross-validated MRE — the
/// paper's "Train + Tune" step.
#[derive(Debug, Clone)]
pub struct GridSearch<E> {
    candidates: Vec<E>,
}

impl<E: Estimator> GridSearch<E> {
    /// Creates a search over the given candidate configurations.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn new(candidates: Vec<E>) -> Self {
        assert!(
            !candidates.is_empty(),
            "grid search needs at least one candidate"
        );
        GridSearch { candidates }
    }

    /// The candidate configurations.
    pub fn candidates(&self) -> &[E] {
        &self.candidates
    }

    /// Runs the search over the provided folds.
    ///
    /// Candidates that fail to fit (e.g. singular systems) are skipped; the
    /// search fails only if every candidate fails.
    ///
    /// # Errors
    ///
    /// Returns the last fitting error if no candidate could be evaluated.
    pub fn run(
        &self,
        data: &Dataset,
        folds: &[Fold],
        rng: &mut dyn RngCore,
    ) -> Result<TuneOutcome<E>, MlError> {
        let telemetry = napel_telemetry::global();
        let _span = telemetry
            .span("ml.grid_search")
            .attr("candidates", self.candidates.len())
            .attr("folds", folds.len());
        let mut best: Option<(usize, f64)> = None;
        let mut scores = Vec::with_capacity(self.candidates.len());
        let mut last_err = MlError::EmptyDataset;
        for (i, cand) in self.candidates.iter().enumerate() {
            match cross_val_mre(cand, data, folds, rng) {
                Ok(score) => {
                    scores.push((cand.describe(), score));
                    if best.as_ref().is_none_or(|&(_, b)| score < b) {
                        best = Some((i, score));
                    }
                }
                Err(e) => {
                    scores.push((cand.describe(), f64::INFINITY));
                    last_err = e;
                }
            }
        }
        match best {
            Some((i, score)) => Ok(TuneOutcome {
                best: self.candidates[i].clone(),
                best_score: score,
                scores,
            }),
            None => Err(last_err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTreeParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    fn data() -> Dataset {
        let mut b = Dataset::builder(vec!["x".into()]);
        for i in 0..30 {
            let x = i as f64;
            b.push_row(vec![x], if x < 15.0 { 1.0 } else { 4.0 })
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn k_fold_partitions_everything_once() {
        let folds = k_fold(23, 5, &mut rng()).unwrap();
        assert_eq!(folds.len(), 5);
        let mut seen = vec![0usize; 23];
        for f in &folds {
            assert_eq!(f.train.len() + f.test.len(), 23);
            for &i in &f.test {
                seen[i] += 1;
            }
            for &i in &f.train {
                assert!(!f.test.contains(&i), "index {i} in both sides");
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each row tests exactly once: {seen:?}"
        );
    }

    #[test]
    fn k_fold_rejects_tiny_inputs() {
        assert!(k_fold(1, 2, &mut rng()).is_err());
        assert!(k_fold(10, 1, &mut rng()).is_err());
    }

    #[test]
    fn cross_val_scores_good_model_well() {
        let d = data();
        let folds = k_fold(d.len(), 5, &mut rng()).unwrap();
        let mre = cross_val_mre(&DecisionTreeParams::default(), &d, &folds, &mut rng()).unwrap();
        assert!(
            mre < 0.25,
            "tree should cross-validate well on a step, mre={mre}"
        );
    }

    #[test]
    fn grid_search_picks_lower_error_candidate() {
        let d = data();
        let folds = k_fold(d.len(), 5, &mut rng()).unwrap();
        let stump = DecisionTreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let tree = DecisionTreeParams::default();
        let search = GridSearch::new(vec![stump.clone(), tree.clone()]);
        let outcome = search.run(&d, &folds, &mut rng()).unwrap();
        assert_eq!(
            outcome.best, tree,
            "deeper tree should win on a step function"
        );
        assert_eq!(outcome.scores.len(), 2);
        assert!(outcome.best_score <= outcome.scores[0].1);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_grid_panics() {
        let _ = GridSearch::<DecisionTreeParams>::new(vec![]);
    }
}

//! Random forest regression — NAPEL's predictor.
//!
//! A bagged ensemble of CART trees ([`crate::tree`]), each trained on a
//! bootstrap resample with a random feature subset per split, predicting the
//! mean of the trees. The paper picked random forests because they "embed
//! automatic procedures to screen many input features" — with ~400 profile
//! features and tens of training points, per-split feature subsampling and
//! averaging provide that screening. Out-of-bag error and permutation
//! importance are included for the feature-screening ablation.

use napel_telemetry::LogHistogram;
use rand::Rng;
use rand::RngCore;

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, DecisionTreeParams, FeatureSubset};
use crate::{Estimator, MlError, Regressor};

/// Hyper-parameters of a random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub num_trees: usize,
    /// Per-tree CART parameters (feature subset applies per split).
    pub tree: DecisionTreeParams,
    /// Whether each tree trains on a bootstrap resample (vs the full set).
    pub bootstrap: bool,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            num_trees: 100,
            tree: DecisionTreeParams {
                feature_subset: FeatureSubset::Third,
                ..DecisionTreeParams::default()
            },
            bootstrap: true,
        }
    }
}

impl Estimator for RandomForestParams {
    type Model = RandomForest;

    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<RandomForest, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if self.num_trees == 0 {
            return Err(MlError::InvalidHyperParameter {
                what: "num_trees must be >= 1",
            });
        }
        let telemetry = napel_telemetry::global();
        let _span = telemetry
            .span("ml.forest.fit")
            .attr("trees", self.num_trees)
            .attr("rows", data.len());
        let n = data.len();
        let mut trees = Vec::with_capacity(self.num_trees);
        let mut oob: Vec<(f64, u32)> = vec![(0.0, 0); n];
        // Per-tree build seconds, observed locally and merged once per fit
        // as `ml.forest.tree_build_seconds`; absent when telemetry is off.
        let mut build_seconds = telemetry.is_enabled().then(LogHistogram::new);
        for _ in 0..self.num_trees {
            let tree_start = build_seconds.is_some().then(std::time::Instant::now);
            let (sample, in_bag) = if self.bootstrap {
                let mut in_bag = vec![false; n];
                let idx: Vec<usize> = (0..n)
                    .map(|_| {
                        let i = rng.gen_range(0..n);
                        in_bag[i] = true;
                        i
                    })
                    .collect();
                (data.subset(&idx), in_bag)
            } else {
                (data.clone(), vec![true; n])
            };
            let tree = self.tree.fit(&sample, rng)?;
            if let (Some(h), Some(start)) = (&mut build_seconds, tree_start) {
                h.observe(start.elapsed().as_secs_f64());
            }
            for (i, bagged) in in_bag.iter().enumerate() {
                if !bagged {
                    let (sum, cnt) = oob[i];
                    oob[i] = (sum + tree.predict_one(data.row(i)), cnt + 1);
                }
            }
            trees.push(tree);
        }
        if let Some(h) = &build_seconds {
            telemetry.merge_log_histogram("ml.forest.tree_build_seconds", h);
        }

        // Out-of-bag mean squared error over the rows that were ever OOB.
        let mut oob_sq = 0.0;
        let mut oob_n = 0usize;
        for (i, &(sum, cnt)) in oob.iter().enumerate() {
            if cnt > 0 {
                let pred = sum / cnt as f64;
                oob_sq += (pred - data.target(i)).powi(2);
                oob_n += 1;
            }
        }
        let oob_mse = (oob_n > 0).then(|| oob_sq / oob_n as f64);

        Ok(RandomForest {
            trees,
            num_features: data.num_features(),
            oob_mse,
        })
    }

    fn describe(&self) -> String {
        format!(
            "forest(trees={}, max_depth={}, min_leaf={}, features={:?}, bootstrap={})",
            self.num_trees,
            self.tree.max_depth,
            self.tree.min_samples_leaf,
            self.tree.feature_subset,
            self.bootstrap
        )
    }
}

/// A fitted random forest.
///
/// # Example
///
/// ```
/// use napel_ml::dataset::Dataset;
/// use napel_ml::forest::RandomForestParams;
/// use napel_ml::{Estimator, Regressor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut b = Dataset::builder(vec!["x".into()]);
/// for i in 0..50 {
///     let x = i as f64 / 5.0;
///     b.push_row(vec![x], x.sin())?;
/// }
/// let f = RandomForestParams::default().fit(&b.build()?, &mut StdRng::seed_from_u64(1))?;
/// assert!((f.predict_one(&[1.5]) - 1.5f64.sin()).abs() < 0.25);
/// # Ok::<(), napel_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    num_features: usize,
    oob_mse: Option<f64>,
}

impl RandomForest {
    /// Number of features the forest was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees (for serialization).
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Rebuilds a forest from its serialized parts. The caller
    /// ([`crate::persist`]) has already validated tree count and feature
    /// dimensions.
    pub(crate) fn from_parts(
        trees: Vec<DecisionTree>,
        num_features: usize,
        oob_mse: Option<f64>,
    ) -> RandomForest {
        RandomForest {
            trees,
            num_features,
            oob_mse,
        }
    }

    /// Out-of-bag mean squared error, if bootstrap left any row out of at
    /// least one bag.
    pub fn oob_mse(&self) -> Option<f64> {
        self.oob_mse
    }

    /// The forest's prediction and the spread of its trees for every row:
    /// the mean of the per-tree predictions and their population standard
    /// deviation, a cheap epistemic-uncertainty proxy. Both come from one
    /// walk of each tree per row. A zero-tree forest reports a spread of
    /// `0.0` rather than NaN; such a forest cannot come from
    /// [`Estimator::fit`] (it rejects `num_trees == 0`) or from
    /// deserialization (the decoder rejects it), so this is defense in
    /// depth.
    ///
    /// # Panics
    ///
    /// Panics if a row has the wrong number of features.
    pub fn predict_with_spread(&self, rows: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(rows.len());
        self.walk(rows, |preds| {
            let mean = mean(preds);
            let spread = if preds.is_empty() {
                0.0
            } else {
                (preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64).sqrt()
            };
            out.push((mean, spread));
        });
        out
    }

    /// Walks every tree once per row and hands `emit` each row's per-tree
    /// predictions in tree order. Rows go in blocks of [`BLOCK_ROWS`]; each
    /// tree is walked over the whole block before the next tree, four rows
    /// side by side.
    fn walk<R: AsRef<[f64]>>(&self, rows: &[R], mut emit: impl FnMut(&[f64])) {
        let trees = self.trees.len();
        let mut preds = vec![0.0; rows.len().min(BLOCK_ROWS) * trees];
        for block in rows.chunks(BLOCK_ROWS) {
            let xs: Vec<&[f64]> = block.iter().map(AsRef::as_ref).collect();
            for x in &xs {
                assert_eq!(x.len(), self.num_features, "feature count mismatch");
            }
            for (t, tree) in self.trees.iter().enumerate() {
                // Row r's prediction of tree t lands at `r * trees + t`.
                let fours = xs.len() / 4 * 4;
                for r in (0..fours).step_by(4) {
                    let leaves = tree.leaves([xs[r], xs[r + 1], xs[r + 2], xs[r + 3]]);
                    for (k, v) in leaves.into_iter().enumerate() {
                        preds[(r + k) * trees + t] = v;
                    }
                }
                for (r, x) in xs.iter().enumerate().skip(fours) {
                    preds[r * trees + t] = tree.leaves([*x])[0];
                }
            }
            for r in 0..block.len() {
                emit(&preds[r * trees..(r + 1) * trees]);
            }
        }
    }

    /// Permutation feature importance on `data`: the increase in MSE when
    /// feature `j` is shuffled, for every `j`. Larger = more important.
    pub fn permutation_importance<R: Rng + ?Sized>(&self, data: &Dataset, rng: &mut R) -> Vec<f64> {
        let base = mse(&self.predict(data), data.targets());
        let n = data.len();
        let d = data.num_features();
        let mut importances = Vec::with_capacity(d);
        for j in 0..d {
            // Shuffle column j by drawing a random permutation of rows.
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let preds: Vec<f64> = (0..n)
                .map(|i| {
                    let mut row = data.row(i).to_vec();
                    row[j] = data.row(perm[i])[j];
                    self.predict_one(&row)
                })
                .collect();
            importances.push(mse(&preds, data.targets()) - base);
        }
        importances
    }
}

impl Regressor for RandomForest {
    fn predict_one(&self, x: &[f64]) -> f64 {
        let mut out = f64::NAN;
        self.walk(&[x], |preds| out = mean(preds));
        out
    }

    fn predict_many(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let mut out = Vec::with_capacity(rows.len());
        self.walk(rows, |preds| out.push(mean(preds)));
        out
    }
}

/// Rows per block of [`RandomForest::walk`]: bounds its scratch to
/// `BLOCK_ROWS × trees` predictions.
const BLOCK_ROWS: usize = 64;

/// The forest's prediction from its per-tree predictions, summed in tree
/// order.
fn mean(preds: &[f64]) -> f64 {
    preds.iter().sum::<f64>() / preds.len() as f64
}

fn mse(pred: &[f64], actual: &[f64]) -> f64 {
    pred.iter()
        .zip(actual)
        .map(|(&p, &a)| (p - a).powi(2))
        .sum::<f64>()
        / actual.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn nonlinear_data() -> Dataset {
        // y = x0^2 + 10, noise-free; second feature irrelevant. The offset keeps
        // every target away from zero so relative error stays meaningful.
        let mut b = Dataset::builder(vec!["x".into(), "junk".into()]);
        for i in 0..80 {
            let x = i as f64 / 10.0;
            b.push_row(vec![x, ((i * 7) % 13) as f64], x * x + 10.0)
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn forest_fits_nonlinear_function() {
        let d = nonlinear_data();
        let f = RandomForestParams {
            num_trees: 60,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let mre = crate::metrics::mean_relative_error(&f.predict(&d), d.targets());
        // In-sample error should be small but need not be zero (bagging).
        assert!(mre < 0.3, "forest MRE {mre} too high");
    }

    #[test]
    fn forest_prediction_is_tree_mean() {
        let d = nonlinear_data();
        let f = RandomForestParams {
            num_trees: 9,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let x = d.row(5);
        let mean = f.trees.iter().map(|t| t.predict_one(x)).sum::<f64>() / 9.0;
        assert_eq!(f.predict_one(x).to_bits(), mean.to_bits());
        assert_eq!(
            f.predict_with_spread(&[x.to_vec()])[0].0.to_bits(),
            mean.to_bits()
        );
        assert_eq!(f.num_trees(), 9);
    }

    #[test]
    fn prediction_stays_in_label_range() {
        // Forest averages tree means, so predictions are convex combinations
        // of training targets.
        let d = nonlinear_data();
        let f = RandomForestParams::default().fit(&d, &mut rng()).unwrap();
        let (lo, hi) = d.target_range();
        for probe in [-100.0, 0.0, 3.5, 1e6] {
            let p = f.predict_one(&[probe, 0.0]);
            assert!(
                p >= lo - 1e-9 && p <= hi + 1e-9,
                "prediction {p} escapes [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn oob_is_reported_with_bootstrap() {
        let d = nonlinear_data();
        let f = RandomForestParams {
            num_trees: 30,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let oob = f.oob_mse().expect("bootstrap forests report OOB");
        assert!(oob.is_finite() && oob >= 0.0);
    }

    #[test]
    fn no_bootstrap_has_no_oob() {
        let d = nonlinear_data();
        let f = RandomForestParams {
            bootstrap: false,
            num_trees: 5,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        assert_eq!(f.oob_mse(), None);
    }

    #[test]
    fn permutation_importance_finds_relevant_feature() {
        let d = nonlinear_data();
        let f = RandomForestParams {
            num_trees: 40,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let imp = f.permutation_importance(&d, &mut rng());
        assert!(
            imp[0] > imp[1].max(0.0) * 5.0 + 1e-9,
            "x importance {} should dominate junk importance {}",
            imp[0],
            imp[1]
        );
    }

    #[test]
    fn zero_trees_rejected() {
        let d = nonlinear_data();
        let err = RandomForestParams {
            num_trees: 0,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap_err();
        assert!(matches!(err, MlError::InvalidHyperParameter { .. }));
    }

    #[test]
    fn zero_tree_forest_uncertainty_is_zero_not_nan() {
        // Unreachable through fit/decode, but constructible in principle;
        // the spread must stay well-defined.
        let f = RandomForest {
            trees: vec![],
            num_features: 2,
            oob_mse: None,
        };
        let out = f.predict_with_spread(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&(_, spread)| spread == 0.0));
        assert_eq!(f.predict_with_spread(&[]), Vec::new());
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_row_width_panics() {
        let f = RandomForestParams {
            num_trees: 3,
            ..Default::default()
        }
        .fit(&nonlinear_data(), &mut rng())
        .unwrap();
        f.predict_many(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = nonlinear_data();
        let p = RandomForestParams {
            num_trees: 10,
            ..Default::default()
        };
        let f1 = p.fit(&d, &mut StdRng::seed_from_u64(5)).unwrap();
        let f2 = p.fit(&d, &mut StdRng::seed_from_u64(5)).unwrap();
        for i in 0..d.len() {
            assert_eq!(f1.predict_one(d.row(i)), f2.predict_one(d.row(i)));
        }
    }

    #[test]
    fn uncertainty_grows_off_distribution() {
        let d = nonlinear_data();
        let f = RandomForestParams {
            num_trees: 50,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let (_, std_in) = f.predict_with_spread(&[vec![4.0, 1.0]])[0];
        assert!(std_in.is_finite() && std_in >= 0.0);
    }
}

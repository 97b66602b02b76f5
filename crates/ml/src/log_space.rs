//! Log-space target transformation for any estimator.
//!
//! NAPEL's targets (IPC, energy-per-instruction) are strictly positive and
//! span orders of magnitude across applications, while the evaluation
//! metric (MRE, Equation 1 of the paper) is *relative*. Fitting in
//! log-space makes the squared-error objective the estimators minimize
//! align with the relative-error metric they are judged on: a tree that
//! averages log-targets predicts geometric means, and an error of ±0.1 in
//! log-space is ±10 % regardless of the target's magnitude.
//!
//! [`LogOf`] wraps any [`Estimator`]; the wrapped model exponentiates its
//! predictions back. Applied uniformly to NAPEL and the baselines so the
//! Figure 5 comparison stays fair.

use rand::RngCore;

use crate::dataset::Dataset;
use crate::{Estimator, MlError, Regressor};

/// Floor applied before taking logarithms (targets are physical quantities
/// that should never be zero, but simulation of a degenerate configuration
/// could produce one).
const FLOOR: f64 = 1e-12;

/// Wraps an estimator to fit on `ln(max(y, FLOOR))` and predict `exp(·)`.
///
/// # Example
///
/// ```
/// use napel_ml::dataset::Dataset;
/// use napel_ml::forest::RandomForestParams;
/// use napel_ml::log_space::LogOf;
/// use napel_ml::{Estimator, Regressor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Targets spanning four orders of magnitude.
/// let mut b = Dataset::builder(vec!["x".into()]);
/// for i in 0..30 {
///     let x = i as f64;
///     b.push_row(vec![x], 10f64.powf(x / 7.0))?;
/// }
/// let m = LogOf(RandomForestParams::default()).fit(&b.build()?, &mut StdRng::seed_from_u64(1))?;
/// let p = m.predict_one(&[14.0]);
/// assert!(p > 30.0 && p < 300.0, "{p}");
/// # Ok::<(), napel_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogOf<E>(pub E);

impl<E: Estimator> Estimator for LogOf<E> {
    type Model = LogModel<E::Model>;

    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<Self::Model, MlError> {
        let mut b = Dataset::builder(data.feature_names().to_vec());
        for i in 0..data.len() {
            b.push_row(data.row(i).to_vec(), data.target(i).max(FLOOR).ln())?;
        }
        let inner = self.0.fit(&b.build()?, rng)?;
        Ok(LogModel { inner })
    }

    fn describe(&self) -> String {
        format!("log({})", self.0.describe())
    }
}

/// A model fitted in log-space; predictions are exponentiated back.
#[derive(Debug, Clone)]
pub struct LogModel<M> {
    inner: M,
}

impl<M> LogModel<M> {
    /// Wraps an already-fitted log-space model (the deserialization path;
    /// training goes through [`LogOf`]).
    pub fn new(inner: M) -> LogModel<M> {
        LogModel { inner }
    }

    /// The wrapped log-space model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Regressor> Regressor for LogModel<M> {
    fn predict_one(&self, x: &[f64]) -> f64 {
        self.inner.predict_one(x).exp()
    }

    fn predict_many(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let mut out = self.inner.predict_many(rows);
        for p in &mut out {
            *p = p.exp();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestParams;
    use crate::metrics::mean_relative_error;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn wide_range_data() -> Dataset {
        // y = e^(x/3): spans e^0 .. e^10.
        let mut b = Dataset::builder(vec!["x".into()]);
        for i in 0..60 {
            let x = i as f64 / 2.0;
            b.push_row(vec![x], (x / 3.0).exp()).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn log_space_beats_raw_space_on_relative_error() {
        // Sparse training grid, held-out evaluation between the grid points:
        // raw-space leaves average targets arithmetically (skewed toward the
        // large end of each leaf), log-space leaves average geometrically.
        let mut train = Dataset::builder(vec!["x".into()]);
        let mut test = Dataset::builder(vec!["x".into()]);
        for i in 0..60 {
            let x = i as f64 / 2.0;
            let y = (x / 3.0).exp();
            if i % 4 == 0 {
                train.push_row(vec![x], y).unwrap();
            } else {
                test.push_row(vec![x], y).unwrap();
            }
        }
        let (train, test) = (train.build().unwrap(), test.build().unwrap());
        let params = RandomForestParams {
            num_trees: 40,
            ..Default::default()
        };
        let raw = params.fit(&train, &mut StdRng::seed_from_u64(3)).unwrap();
        let log = LogOf(params)
            .fit(&train, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let raw_mre = mean_relative_error(&raw.predict(&test), test.targets());
        let log_mre = mean_relative_error(&log.predict(&test), test.targets());
        assert!(
            log_mre < raw_mre,
            "log-space MRE {log_mre} should beat raw-space {raw_mre}"
        );
    }

    #[test]
    fn predictions_are_always_positive() {
        let d = wide_range_data();
        let m = LogOf(RandomForestParams::default())
            .fit(&d, &mut StdRng::seed_from_u64(1))
            .unwrap();
        for probe in [-100.0, 0.0, 50.0] {
            assert!(m.predict_one(&[probe]) > 0.0);
        }
    }

    #[test]
    fn zero_targets_survive_via_floor() {
        let mut b = Dataset::builder(vec!["x".into()]);
        b.push_row(vec![0.0], 0.0).unwrap();
        b.push_row(vec![1.0], 1.0).unwrap();
        b.push_row(vec![2.0], 2.0).unwrap();
        b.push_row(vec![3.0], 3.0).unwrap();
        let d = b.build().unwrap();
        let m = LogOf(RandomForestParams {
            num_trees: 5,
            ..Default::default()
        })
        .fit(&d, &mut StdRng::seed_from_u64(1))
        .unwrap();
        assert!(m.predict_one(&[0.0]).is_finite());
    }

    #[test]
    fn describe_mentions_log() {
        let e = LogOf(RandomForestParams::default());
        assert!(e.describe().starts_with("log("));
    }
}

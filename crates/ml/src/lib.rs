//! From-scratch ensemble machine learning for NAPEL.
//!
//! NAPEL's predictor is a **random forest** regressor (Section 2.5 of the
//! paper); the accuracy analysis (Figure 5) compares it against an
//! **artificial neural network** (Ipek et al.) and a **linear decision
//! tree** / model tree (Guo et al.). The Rust ML ecosystem is thin, so this
//! crate implements all of them from first principles:
//!
//! - [`dataset::Dataset`] — named-feature regression dataset,
//! - [`tree::DecisionTree`] — CART regression tree (variance reduction),
//! - [`forest::RandomForest`] — bagged trees with random feature subsets,
//!   out-of-bag error and permutation importance,
//! - [`mlp::Mlp`] — multilayer perceptron with SGD + momentum,
//! - [`model_tree::ModelTree`] — decision tree with ridge-regression leaves,
//! - [`linear::Ridge`] — ridge regression via normal equations,
//! - [`cv`] — k-fold cross-validation plus grid hyper-parameter search
//!   (the paper's "train + tune" phase),
//! - [`log_space::LogOf`] — log-target wrapper aligning the estimators'
//!   squared-error objective with the paper's relative-error metric,
//! - [`metrics`] — mean relative error (Equation 1 of the paper), MAE,
//!   RMSE, R²,
//! - [`persist`] — deterministic, versioned, bit-exact serialization for
//!   every fitted model plus the object-safe [`Predictor`] trait (the
//!   train-once/predict-many artifact layer).
//!
//! Every estimator is deterministic given a seeded RNG, which the
//! experiment harness relies on for reproducibility.
//!
//! # Example
//!
//! ```
//! use napel_ml::dataset::Dataset;
//! use napel_ml::forest::RandomForestParams;
//! use napel_ml::{Estimator, Regressor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // y = x0 + 2*x1, learnable from a handful of samples.
//! let mut data = Dataset::builder(vec!["x0".into(), "x1".into()]);
//! for i in 0..40 {
//!     let (a, b) = ((i % 7) as f64, (i % 5) as f64);
//!     data.push_row(vec![a, b], a + 2.0 * b)?;
//! }
//! let data = data.build()?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let model = RandomForestParams::default().fit(&data, &mut rng)?;
//! let pred = model.predict_one(&[3.0, 4.0]);
//! assert!((pred - 11.0).abs() < 2.5);
//! # Ok::<(), napel_ml::MlError>(())
//! ```

pub mod cv;
pub mod dataset;
mod error;
pub mod forest;
pub mod linalg;
pub mod linear;
pub mod log_space;
pub mod metrics;
pub mod mlp;
pub mod model_tree;
pub mod persist;
pub mod scaler;
pub mod tree;

pub use error::MlError;
pub use persist::{Persist, PersistError, Predictor};

use rand::RngCore;

use dataset::Dataset;

/// A fitted regression model.
pub trait Regressor {
    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x` has the wrong dimensionality.
    fn predict_one(&self, x: &[f64]) -> f64;

    /// Predicts the targets for every row of `data`.
    fn predict(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len())
            .map(|i| self.predict_one(data.row(i)))
            .collect()
    }

    /// Predicts the targets for a batch of raw feature rows — the
    /// inference-service entry point ([`Dataset`] carries labels; a
    /// server scoring live requests has none). The default loops over
    /// [`Regressor::predict_one`]; implementations with a cheaper batch
    /// path may override.
    ///
    /// # Panics
    ///
    /// Implementations may panic if a row has the wrong dimensionality —
    /// callers serving untrusted rows must validate lengths first.
    fn predict_many(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|x| self.predict_one(x)).collect()
    }
}

impl<R: Regressor + ?Sized> Regressor for Box<R> {
    fn predict_one(&self, x: &[f64]) -> f64 {
        (**self).predict_one(x)
    }
}

/// A hyper-parameter configuration that can fit a model to data.
///
/// Estimator values are cheap, cloneable descriptions (e.g.
/// [`forest::RandomForestParams`]); [`Estimator::fit`] does the work.
pub trait Estimator: Clone {
    /// The fitted model type.
    type Model: Regressor;

    /// Fits a model to `data` using `rng` for any randomized choices.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] if the dataset is empty or degenerate for this
    /// estimator.
    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<Self::Model, MlError>;

    /// Human-readable description of the hyper-parameters (for tuning logs).
    fn describe(&self) -> String {
        std::any::type_name::<Self>().to_string()
    }
}

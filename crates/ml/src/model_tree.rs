//! Model tree: a decision tree with linear-regression leaves.
//!
//! This is the "linear decision tree used by Guo et al." baseline of
//! Figure 5 in the paper (an M5-style model tree). The structure is grown by
//! the same variance-reduction CART procedure as [`crate::tree`], but each
//! leaf fits a ridge regression over the samples it receives — piecewise
//! *linear* rather than piecewise constant, which is precisely why the paper
//! finds it unable to capture NMC nonlinearities.

use rand::RngCore;

use crate::dataset::Dataset;
use crate::linear::Ridge;
use crate::tree::{DecisionTreeParams, FeatureSubset};
use crate::{Estimator, MlError, Regressor};

/// Hyper-parameters of a model tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTreeParams {
    /// Maximum depth of the splitting structure.
    pub max_depth: usize,
    /// Minimum samples per leaf; also the minimum fitting set of each leaf
    /// ridge model.
    pub min_samples_leaf: usize,
    /// Ridge strength of the leaf models.
    pub leaf_lambda: f64,
}

impl Default for ModelTreeParams {
    fn default() -> Self {
        ModelTreeParams {
            max_depth: 4,
            min_samples_leaf: 6,
            leaf_lambda: 1e-2,
        }
    }
}

impl Estimator for ModelTreeParams {
    type Model = ModelTree;

    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<ModelTree, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if self.min_samples_leaf == 0 {
            return Err(MlError::InvalidHyperParameter {
                what: "min_samples_leaf must be >= 1",
            });
        }
        let mut nodes = Vec::new();
        let indices: Vec<usize> = (0..data.len()).collect();
        grow(self, data, rng, &mut nodes, indices, 0)?;
        Ok(ModelTree {
            nodes,
            num_features: data.num_features(),
        })
    }

    fn describe(&self) -> String {
        format!(
            "model_tree(max_depth={}, min_leaf={}, leaf_lambda={})",
            self.max_depth, self.min_samples_leaf, self.leaf_lambda
        )
    }
}

/// A node of the fitted model tree. As in [`crate::tree`], children always
/// come after their parent in the arena; [`crate::persist`] relies on this
/// invariant to validate decoded trees.
#[derive(Debug, Clone)]
pub(crate) enum ModelTreeNode {
    Leaf {
        model: LeafModel,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone)]
pub(crate) enum LeafModel {
    /// Ridge model over the leaf's samples.
    Linear(Ridge),
    /// Mean fallback when the leaf design is degenerate.
    Constant(f64),
}

/// A fitted model tree.
///
/// # Example
///
/// ```
/// use napel_ml::dataset::Dataset;
/// use napel_ml::model_tree::ModelTreeParams;
/// use napel_ml::{Estimator, Regressor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Piecewise-linear target: model tree fits it almost exactly.
/// let mut b = Dataset::builder(vec!["x".into()]);
/// for i in 0..60 {
///     let x = i as f64;
///     let y = if x < 30.0 { 2.0 * x } else { 120.0 - 2.0 * x };
///     b.push_row(vec![x], y)?;
/// }
/// let m = ModelTreeParams::default().fit(&b.build()?, &mut StdRng::seed_from_u64(0))?;
/// assert!((m.predict_one(&[10.0]) - 20.0).abs() < 4.0);
/// # Ok::<(), napel_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModelTree {
    nodes: Vec<ModelTreeNode>,
    num_features: usize,
}

impl ModelTree {
    /// Number of features the tree was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of leaves (each carrying a linear model).
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, ModelTreeNode::Leaf { .. }))
            .count()
    }

    /// The node arena (for serialization).
    pub(crate) fn nodes(&self) -> &[ModelTreeNode] {
        &self.nodes
    }

    /// Rebuilds a model tree from its serialized parts. The caller
    /// ([`crate::persist`]) has already validated the arena invariants.
    pub(crate) fn from_parts(nodes: Vec<ModelTreeNode>, num_features: usize) -> ModelTree {
        ModelTree {
            nodes,
            num_features,
        }
    }
}

impl Regressor for ModelTree {
    fn predict_one(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_features, "feature count mismatch");
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                ModelTreeNode::Leaf { model } => {
                    return match model {
                        LeafModel::Linear(r) => r.predict_one(x),
                        LeafModel::Constant(c) => *c,
                    }
                }
                ModelTreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

fn grow(
    params: &ModelTreeParams,
    data: &Dataset,
    rng: &mut dyn RngCore,
    nodes: &mut Vec<ModelTreeNode>,
    indices: Vec<usize>,
    depth: usize,
) -> Result<usize, MlError> {
    if depth >= params.max_depth || indices.len() < 2 * params.min_samples_leaf {
        let idx = nodes.len();
        nodes.push(ModelTreeNode::Leaf {
            model: fit_leaf(params, data, &indices),
        });
        return Ok(idx);
    }
    // Reuse CART's split search by fitting a depth-1 stump over the subset.
    let subset = data.subset(&indices);
    let stump_params = DecisionTreeParams {
        max_depth: 1,
        min_samples_split: 2 * params.min_samples_leaf,
        min_samples_leaf: params.min_samples_leaf,
        feature_subset: FeatureSubset::All,
    };
    let stump = stump_params.fit(&subset, rng)?;
    let Some(&feature) = stump.used_features().first() else {
        let idx = nodes.len();
        nodes.push(ModelTreeNode::Leaf {
            model: fit_leaf(params, data, &indices),
        });
        return Ok(idx);
    };
    // Recover the threshold: probe values on either side of the split by
    // scanning the subset's feature values for the boundary the stump chose.
    let mut vals: Vec<f64> = indices.iter().map(|&i| data.row(i)[feature]).collect();
    vals.sort_by(f64::total_cmp);
    vals.dedup();
    let mut threshold = None;
    for w in vals.windows(2) {
        let mid = 0.5 * (w[0] + w[1]);
        let mut probe_lo = vec![0.0; data.num_features()];
        let mut probe_hi = vec![0.0; data.num_features()];
        probe_lo[feature] = w[0];
        probe_hi[feature] = w[1];
        if stump.predict_one(&probe_lo) != stump.predict_one(&probe_hi) {
            threshold = Some(mid);
            break;
        }
    }
    let Some(threshold) = threshold else {
        let idx = nodes.len();
        nodes.push(ModelTreeNode::Leaf {
            model: fit_leaf(params, data, &indices),
        });
        return Ok(idx);
    };

    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| data.row(i)[feature] <= threshold);
    if left_idx.len() < params.min_samples_leaf || right_idx.len() < params.min_samples_leaf {
        let idx = nodes.len();
        nodes.push(ModelTreeNode::Leaf {
            model: fit_leaf(params, data, &indices),
        });
        return Ok(idx);
    }

    let node = nodes.len();
    nodes.push(ModelTreeNode::Leaf {
        model: LeafModel::Constant(f64::NAN),
    }); // placeholder
    let left = grow(params, data, rng, nodes, left_idx, depth + 1)?;
    let right = grow(params, data, rng, nodes, right_idx, depth + 1)?;
    nodes[node] = ModelTreeNode::Split {
        feature,
        threshold,
        left,
        right,
    };
    Ok(node)
}

fn fit_leaf(params: &ModelTreeParams, data: &Dataset, indices: &[usize]) -> LeafModel {
    let subset = data.subset(indices);
    let mean = subset.target_mean();
    if subset.len() <= subset.num_features() {
        // Under-determined even with ridge: fall back to the mean.
        return LeafModel::Constant(mean);
    }
    match Ridge::fit_with(&subset, params.leaf_lambda) {
        Ok(r) => LeafModel::Linear(r),
        Err(_) => LeafModel::Constant(mean),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn fits_piecewise_linear_exactly() {
        let mut b = Dataset::builder(vec!["x".into()]);
        for i in 0..100 {
            let x = i as f64;
            let y = if x < 50.0 {
                3.0 * x + 1.0
            } else {
                400.0 - 5.0 * x
            };
            b.push_row(vec![x], y).unwrap();
        }
        let d = b.build().unwrap();
        let m = ModelTreeParams {
            max_depth: 5,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let rmse = crate::metrics::root_mean_squared_error(&m.predict(&d), d.targets());
        // Only the leaf straddling the kink carries residual error.
        assert!(
            rmse < 8.0,
            "model tree should fit piecewise-linear data, rmse={rmse}"
        );
        assert!(m.num_leaves() >= 2);
    }

    #[test]
    fn outperforms_plain_linear_on_kinked_data() {
        let mut b = Dataset::builder(vec!["x".into()]);
        for i in 0..60 {
            let x = i as f64;
            let y = if x < 30.0 { x } else { 60.0 - x };
            b.push_row(vec![x], y).unwrap();
        }
        let d = b.build().unwrap();
        let mt = ModelTreeParams::default().fit(&d, &mut rng()).unwrap();
        let lin = crate::linear::RidgeParams::default()
            .fit(&d, &mut rng())
            .unwrap();
        let mt_err = crate::metrics::root_mean_squared_error(&mt.predict(&d), d.targets());
        let lin_err = crate::metrics::root_mean_squared_error(&lin.predict(&d), d.targets());
        assert!(mt_err < lin_err, "model tree {mt_err} vs linear {lin_err}");
    }

    #[test]
    fn tiny_dataset_degrades_to_constant() {
        let mut b = Dataset::builder(vec!["x".into(), "y".into(), "z".into()]);
        b.push_row(vec![1.0, 2.0, 3.0], 5.0).unwrap();
        b.push_row(vec![2.0, 3.0, 4.0], 7.0).unwrap();
        let d = b.build().unwrap();
        let m = ModelTreeParams::default().fit(&d, &mut rng()).unwrap();
        let p = m.predict_one(&[1.5, 2.5, 3.5]);
        assert!((p - 6.0).abs() < 1e-9, "mean fallback expected, got {p}");
    }

    #[test]
    fn depth_limit_bounds_leaves() {
        let mut b = Dataset::builder(vec!["x".into()]);
        for i in 0..200 {
            let x = i as f64;
            b.push_row(vec![x], (x / 10.0).sin()).unwrap();
        }
        let d = b.build().unwrap();
        let m = ModelTreeParams {
            max_depth: 2,
            min_samples_leaf: 5,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        assert!(m.num_leaves() <= 4);
    }

    #[test]
    fn invalid_hyperparameter_rejected() {
        let mut b = Dataset::builder(vec!["x".into()]);
        b.push_row(vec![1.0], 1.0).unwrap();
        let d = b.build().unwrap();
        let err = ModelTreeParams {
            min_samples_leaf: 0,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap_err();
        assert!(matches!(err, MlError::InvalidHyperParameter { .. }));
    }
}

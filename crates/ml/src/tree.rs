//! CART regression trees with variance-reduction splitting.
//!
//! This is the base learner of NAPEL's random forest (Section 2.5 of the
//! paper: "starting from a root node, constructs a tree and iteratively
//! grows the tree by associating it with a splitting value for an input
//! variable to generate two child nodes; each node is associated with a
//! prediction of the target metric equal to the mean observed value ... for
//! the input subspace the node represents").

use rand::seq::SliceRandom;
use rand::RngCore;

use crate::dataset::Dataset;
use crate::{Estimator, MlError, Regressor};

/// How many candidate features a node considers when splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSubset {
    /// Consider all features (classic CART).
    All,
    /// Consider `ceil(sqrt(d))` random features (random-forest default).
    Sqrt,
    /// Consider `ceil(d/3)` random features (common regression-forest rule).
    Third,
    /// Consider exactly `n` random features (clamped to `d`).
    Fixed(usize),
}

impl FeatureSubset {
    /// Resolves the subset size for `d` features (at least 1).
    pub fn size(self, d: usize) -> usize {
        let n = match self {
            FeatureSubset::All => d,
            FeatureSubset::Sqrt => (d as f64).sqrt().ceil() as usize,
            FeatureSubset::Third => d.div_ceil(3),
            FeatureSubset::Fixed(n) => n,
        };
        n.clamp(1, d.max(1))
    }
}

/// Hyper-parameters of a CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeParams {
    /// Maximum tree depth (root has depth 0).
    pub max_depth: usize,
    /// Minimum samples a node must hold to be split.
    pub min_samples_split: usize,
    /// Minimum samples each child of a split must receive.
    pub min_samples_leaf: usize,
    /// Features considered per split.
    pub feature_subset: FeatureSubset,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            feature_subset: FeatureSubset::All,
        }
    }
}

impl Estimator for DecisionTreeParams {
    type Model = DecisionTree;

    fn fit(&self, data: &Dataset, rng: &mut dyn RngCore) -> Result<DecisionTree, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if self.min_samples_leaf == 0 {
            return Err(MlError::InvalidHyperParameter {
                what: "min_samples_leaf must be >= 1",
            });
        }
        // Node fields are `u32`: a split feature must stay below `LEAF`, and
        // a tree over n rows has at most 2n − 1 nodes.
        if data.num_features() >= LEAF as usize || data.len() > (LEAF / 2) as usize {
            return Err(MlError::InvalidHyperParameter {
                what: "tree nodes index features and children with u32",
            });
        }
        let mut nodes = Vec::new();
        let mut indices: Vec<usize> = (0..data.len()).collect();
        let mut builder = TreeBuilder {
            data,
            params: self,
            rng,
            nodes: &mut nodes,
        };
        builder.grow(&mut indices, 0);
        Ok(DecisionTree {
            nodes,
            num_features: data.num_features(),
        })
    }

    fn describe(&self) -> String {
        format!(
            "tree(max_depth={}, min_split={}, min_leaf={}, features={:?})",
            self.max_depth, self.min_samples_split, self.min_samples_leaf, self.feature_subset
        )
    }
}

/// [`Node::feature`] of a leaf.
pub(crate) const LEAF: u32 = u32::MAX;

/// A node of a fitted tree. Nodes are stored in pre-order: a split's
/// `<= threshold` child is the next node, so only the `> threshold` child
/// needs an index. [`crate::persist`] relies on this invariant to validate
/// decoded trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Node {
    /// The split threshold; in a leaf, the prediction.
    pub(crate) threshold: f64,
    /// The split feature, or [`LEAF`].
    pub(crate) feature: u32,
    /// Index of the `> threshold` child (0 in a leaf).
    pub(crate) right: u32,
}

impl Node {
    /// A leaf predicting `value`.
    pub(crate) fn leaf(value: f64) -> Node {
        Node {
            threshold: value,
            feature: LEAF,
            right: 0,
        }
    }

    /// Whether the node is a leaf.
    pub(crate) fn is_leaf(&self) -> bool {
        self.feature == LEAF
    }
}

/// A fitted CART regression tree.
///
/// # Example
///
/// ```
/// use napel_ml::dataset::Dataset;
/// use napel_ml::tree::DecisionTreeParams;
/// use napel_ml::{Estimator, Regressor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut b = Dataset::builder(vec!["x".into()]);
/// for i in 0..20 {
///     let x = i as f64;
///     b.push_row(vec![x], if x < 10.0 { 1.0 } else { 5.0 })?;
/// }
/// let tree = DecisionTreeParams::default().fit(&b.build()?, &mut StdRng::seed_from_u64(0))?;
/// assert_eq!(tree.predict_one(&[3.0]), 1.0);
/// assert_eq!(tree.predict_one(&[15.0]), 5.0);
/// # Ok::<(), napel_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl DecisionTree {
    /// Number of features the tree was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node arena (for serialization).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Rebuilds a tree from its serialized parts. The caller
    /// ([`crate::persist`]) has already validated the arena invariants.
    pub(crate) fn from_parts(nodes: Vec<Node>, num_features: usize) -> DecisionTree {
        DecisionTree {
            nodes,
            num_features,
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum depth of any leaf (root = 0).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            let node = nodes[i];
            if node.is_leaf() {
                return 0;
            }
            1 + depth_of(nodes, i + 1).max(depth_of(nodes, node.right as usize))
        }
        depth_of(&self.nodes, 0)
    }

    /// Which features the tree actually splits on (sorted, deduplicated).
    pub fn used_features(&self) -> Vec<usize> {
        let mut f: Vec<usize> = self
            .nodes
            .iter()
            .filter(|n| !n.is_leaf())
            .map(|n| n.feature as usize)
            .collect();
        f.sort_unstable();
        f.dedup();
        f
    }

    /// The leaf values `N` rows reach, walked side by side so that their
    /// node loads overlap. A split sends `x <= threshold` to the next node
    /// and everything else, NaN included, to `right`; the choice is made
    /// without a branch, since the data decides it.
    pub(crate) fn leaves<const N: usize>(&self, rows: [&[f64]; N]) -> [f64; N] {
        let mut at = [0usize; N];
        loop {
            let mut moved = false;
            for (i, x) in at.iter_mut().zip(rows) {
                let node = self.nodes[*i];
                if !node.is_leaf() {
                    *i = std::hint::select_unpredictable(
                        x[node.feature as usize] <= node.threshold,
                        *i + 1,
                        node.right as usize,
                    );
                    moved = true;
                }
            }
            if !moved {
                return at.map(|i| self.nodes[i].threshold);
            }
        }
    }
}

impl Regressor for DecisionTree {
    fn predict_one(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_features, "feature count mismatch");
        self.leaves([x])[0]
    }
}

struct TreeBuilder<'a> {
    data: &'a Dataset,
    params: &'a DecisionTreeParams,
    rng: &'a mut dyn RngCore,
    nodes: &'a mut Vec<Node>,
}

impl TreeBuilder<'_> {
    /// Grows a subtree over `indices` in pre-order, returning the index of
    /// its root.
    fn grow(&mut self, indices: &mut [usize], depth: usize) -> usize {
        let mean = indices.iter().map(|&i| self.data.target(i)).sum::<f64>() / indices.len() as f64;

        if depth >= self.params.max_depth
            || indices.len() < self.params.min_samples_split
            || indices.len() < 2 * self.params.min_samples_leaf
        {
            return self.push(Node::leaf(mean));
        }

        match self.best_split(indices) {
            None => self.push(Node::leaf(mean)),
            Some((feature, threshold)) => {
                // Partition in place.
                let mut split_at = 0;
                for i in 0..indices.len() {
                    if self.data.row(indices[i])[feature] <= threshold {
                        indices.swap(i, split_at);
                        split_at += 1;
                    }
                }
                debug_assert!(split_at > 0 && split_at < indices.len());
                // Reserve the split's slot; the left subtree follows it.
                let node = self.push(Node::leaf(f64::NAN));
                let (left_idx, right_idx) = indices.split_at_mut(split_at);
                let left = self.grow(left_idx, depth + 1);
                debug_assert_eq!(left, node + 1, "left child follows its parent");
                let right = self.grow(right_idx, depth + 1);
                // `fit` bounds the feature count and the node count by `LEAF`.
                self.nodes[node] = Node {
                    threshold,
                    feature: u32::try_from(feature).expect("feature count checked by fit"),
                    right: u32::try_from(right).expect("node count checked by fit"),
                };
                node
            }
        }
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Finds the (feature, threshold) split maximizing variance reduction,
    /// honoring `min_samples_leaf`. Returns `None` if no valid split helps.
    fn best_split(&mut self, indices: &[usize]) -> Option<(usize, f64)> {
        let d = self.data.num_features();
        let n = indices.len();
        let k = self.params.feature_subset.size(d);
        let features: Vec<usize> = if k >= d {
            (0..d).collect()
        } else {
            let mut all: Vec<usize> = (0..d).collect();
            all.shuffle(&mut self.rng);
            all.truncate(k);
            all
        };

        let total_sum: f64 = indices.iter().map(|&i| self.data.target(i)).sum();
        let total_sq: f64 = indices.iter().map(|&i| self.data.target(i).powi(2)).sum();
        let base_sse = total_sq - total_sum * total_sum / n as f64;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        let mut order: Vec<usize> = indices.to_vec();
        for &f in &features {
            order.sort_unstable_by(|&a, &b| self.data.row(a)[f].total_cmp(&self.data.row(b)[f]));
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split in 1..n {
                let prev = order[split - 1];
                let y = self.data.target(prev);
                left_sum += y;
                left_sq += y * y;
                let (xl, xr) = (self.data.row(prev)[f], self.data.row(order[split])[f]);
                if xl == xr {
                    continue; // cannot split between equal values
                }
                if split < self.params.min_samples_leaf || n - split < self.params.min_samples_leaf
                {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / split as f64)
                    + (right_sq - right_sum * right_sum / (n - split) as f64);
                if best.as_ref().is_none_or(|&(_, _, b)| sse < b - 1e-12) {
                    best = Some((f, 0.5 * (xl + xr), sse));
                }
            }
        }
        best.and_then(|(f, t, sse)| (sse < base_sse - 1e-12).then_some((f, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn step_data() -> Dataset {
        let mut b = Dataset::builder(vec!["x".into(), "noise".into()]);
        for i in 0..40 {
            let x = i as f64;
            let y = if x < 20.0 { -1.0 } else { 3.0 };
            b.push_row(vec![x, (i % 3) as f64], y).unwrap();
        }
        b.build().unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn learns_step_function() {
        let t = DecisionTreeParams::default()
            .fit(&step_data(), &mut rng())
            .unwrap();
        assert_eq!(t.predict_one(&[5.0, 0.0]), -1.0);
        assert_eq!(t.predict_one(&[35.0, 0.0]), 3.0);
        assert_eq!(
            t.used_features(),
            vec![0],
            "noise feature should be ignored"
        );
    }

    #[test]
    fn depth_zero_gives_mean_stump() {
        let params = DecisionTreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let d = step_data();
        let t = params.fit(&d, &mut rng()).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert!((t.predict_one(&[0.0, 0.0]) - d.target_mean()).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let params = DecisionTreeParams {
            min_samples_leaf: 10,
            ..Default::default()
        };
        let d = step_data();
        let t = params.fit(&d, &mut rng()).unwrap();
        // Count samples reaching each leaf.
        let mut counts = std::collections::HashMap::new();
        for i in 0..d.len() {
            // identify leaf by predicted value + path; value suffices here
            let key = format!("{:.6}", t.predict_one(d.row(i)));
            *counts.entry(key).or_insert(0usize) += 1;
        }
        for (_, c) in counts {
            assert!(c >= 10, "leaf with {c} samples violates min_samples_leaf");
        }
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let mut b = Dataset::builder(vec!["x".into()]);
        for i in 0..10 {
            b.push_row(vec![i as f64], 7.0).unwrap();
        }
        let t = DecisionTreeParams::default()
            .fit(&b.build().unwrap(), &mut rng())
            .unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.predict_one(&[100.0]), 7.0);
    }

    #[test]
    fn constant_feature_cannot_split() {
        let mut b = Dataset::builder(vec!["c".into()]);
        for i in 0..10 {
            b.push_row(vec![1.0], i as f64).unwrap();
        }
        let t = DecisionTreeParams::default()
            .fit(&b.build().unwrap(), &mut rng())
            .unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert!((t.predict_one(&[1.0]) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_rejected() {
        let b = Dataset::builder(vec!["x".into()]);
        assert!(b.build().is_err());
    }

    #[test]
    fn invalid_min_leaf_rejected() {
        let params = DecisionTreeParams {
            min_samples_leaf: 0,
            ..Default::default()
        };
        let err = params.fit(&step_data(), &mut rng()).unwrap_err();
        assert!(matches!(err, MlError::InvalidHyperParameter { .. }));
    }

    #[test]
    fn subset_sizes() {
        assert_eq!(FeatureSubset::All.size(10), 10);
        assert_eq!(FeatureSubset::Sqrt.size(100), 10);
        assert_eq!(FeatureSubset::Sqrt.size(10), 4);
        assert_eq!(FeatureSubset::Third.size(9), 3);
        assert_eq!(FeatureSubset::Fixed(5).size(3), 3);
        assert_eq!(FeatureSubset::Fixed(0).size(3), 1);
    }

    #[test]
    fn deeper_trees_fit_tighter() {
        // Quadratic target: deeper trees should reduce training error.
        let mut b = Dataset::builder(vec!["x".into()]);
        for i in 0..100 {
            let x = i as f64 / 10.0;
            b.push_row(vec![x], x * x).unwrap();
        }
        let d = b.build().unwrap();
        let shallow = DecisionTreeParams {
            max_depth: 2,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let deep = DecisionTreeParams {
            max_depth: 8,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let err =
            |m: &DecisionTree| crate::metrics::root_mean_squared_error(&m.predict(&d), d.targets());
        assert!(err(&deep) < err(&shallow));
        assert!(deep.depth() > shallow.depth());
        assert!(deep.num_leaves() > shallow.num_leaves());
    }

    #[test]
    fn prediction_within_target_range() {
        let d = step_data();
        let t = DecisionTreeParams::default().fit(&d, &mut rng()).unwrap();
        let (lo, hi) = d.target_range();
        for i in 0..d.len() {
            let p = t.predict_one(d.row(i));
            assert!(p >= lo - 1e-12 && p <= hi + 1e-12);
        }
    }
}

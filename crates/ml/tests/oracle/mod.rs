//! The random forest as it was before the pre-order node layout, frozen as
//! a test oracle.
//!
//! Trees are `enum Node` arenas holding both child indices, walked one row
//! at a time; the forest's mean, its per-tree spread (`prediction_std` and
//! the batched `prediction_std_many`) and the former arithmetic of
//! `TrainedNapel::predict_batch` (two `predict_many` walks plus
//! `prediction_std_many`) are kept as they were. The persisted text format
//! did not change, so [`Forest::decode`] rebuilds the old arena from any
//! fitted or saved forest. Nothing here is tuned for speed. Shared by the
//! crate's tests (as a path module) and the workspace's
//! `tests/forest_oracle.rs`.

/// A node of the former tree arena.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Arena index of the `<= threshold` child.
        left: usize,
        /// Arena index of the `> threshold` child.
        right: usize,
    },
}

/// A fitted CART tree in the former arena.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    pub nodes: Vec<Node>,
}

impl Tree {
    /// The former row walk.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
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

    /// The former `DecisionTree::depth`.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }
}

/// A random forest in the former representation.
#[derive(Debug, Clone, PartialEq)]
pub struct Forest {
    pub trees: Vec<Tree>,
    pub num_features: usize,
}

impl Forest {
    /// Rebuilds the forest of a `forest` or `log forest` model document.
    ///
    /// # Panics
    ///
    /// Panics on anything the encoder would not write.
    pub fn decode(text: &str) -> Forest {
        let mut toks = text.split_ascii_whitespace();
        let mut tok = || toks.next().expect("document ends early");
        assert_eq!(tok(), "napel-ml-model");
        assert_eq!(tok(), "v1");
        let mut kind = tok();
        if kind == "log" {
            kind = tok();
        }
        assert_eq!(kind, "forest", "not a forest document");
        let int = |t: &str| -> usize { t.parse().expect("integer token") };
        let float = |t: &str| f64::from_bits(u64::from_str_radix(t, 16).expect("hex float"));
        let num_features = int(tok());
        let num_trees = int(tok());
        match tok() {
            "oob" => {
                tok();
            }
            "no-oob" => {}
            t => panic!("unknown oob tag `{t}`"),
        }
        let mut trees = Vec::with_capacity(num_trees);
        for _ in 0..num_trees {
            assert_eq!(int(tok()), num_features);
            let num_nodes = int(tok());
            let mut nodes = Vec::with_capacity(num_nodes);
            for _ in 0..num_nodes {
                nodes.push(match tok() {
                    "l" => Node::Leaf {
                        value: float(tok()),
                    },
                    "s" => Node::Split {
                        feature: int(tok()),
                        threshold: float(tok()),
                        left: int(tok()),
                        right: int(tok()),
                    },
                    t => panic!("unknown node tag `{t}`"),
                });
            }
            trees.push(Tree { nodes });
        }
        assert!(toks.next().is_none(), "trailing data");
        Forest {
            trees,
            num_features,
        }
    }

    /// The former `RandomForest::predict_one`.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_features, "feature count mismatch");
        self.trees.iter().map(|t| t.predict_one(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// The former `predict_many`: the `Regressor` default, one
    /// `predict_one` per row.
    pub fn predict_many(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|x| self.predict_one(x)).collect()
    }

    /// The former `tree_predictions`.
    pub fn tree_predictions(&self, x: &[f64]) -> Vec<f64> {
        self.trees.iter().map(|t| t.predict_one(x)).collect()
    }

    /// The former `prediction_std`.
    pub fn prediction_std(&self, x: &[f64]) -> f64 {
        let preds = self.tree_predictions(x);
        if preds.is_empty() {
            return 0.0;
        }
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        (preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64).sqrt()
    }

    /// The former `prediction_std_many`: tree-major, per-row `Vec`s.
    pub fn prediction_std_many(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        if self.trees.is_empty() {
            return vec![0.0; rows.len()];
        }
        let mut per_row: Vec<Vec<f64>> = vec![Vec::with_capacity(self.trees.len()); rows.len()];
        for tree in &self.trees {
            for (preds, x) in per_row.iter_mut().zip(rows) {
                preds.push(tree.predict_one(x));
            }
        }
        per_row
            .iter()
            .map(|preds| {
                let mean = preds.iter().sum::<f64>() / preds.len() as f64;
                (preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64).sqrt()
            })
            .collect()
    }

    /// Every split of every tree as `(feature, threshold)`, for probes
    /// that land exactly on a threshold.
    pub fn splits(&self) -> Vec<(usize, f64)> {
        self.trees
            .iter()
            .flat_map(|t| &t.nodes)
            .filter_map(|n| match n {
                Node::Split {
                    feature, threshold, ..
                } => Some((*feature, *threshold)),
                Node::Leaf { .. } => None,
            })
            .collect()
    }
}

/// The former arithmetic of `TrainedNapel::predict_batch` over its two
/// log-space forests: `(ipc, energy_per_inst_pj, spread)` per row, from the
/// IPC and energy `predict_many` walks (each prediction exponentiated) and
/// one `prediction_std_many` walk of the IPC forest.
pub fn predict_batch(perf: &Forest, energy: &Forest, rows: &[Vec<f64>]) -> Vec<(f64, f64, f64)> {
    let ipc = perf.predict_many(rows).into_iter().map(f64::exp);
    let energy = energy.predict_many(rows).into_iter().map(f64::exp);
    let spreads = perf.prediction_std_many(rows);
    ipc.zip(energy)
        .zip(spreads)
        .map(|((ipc, energy), spread)| (ipc, energy, spread.exp()))
        .collect()
}

/// The former `TrainedNapel::predict_with_uncertainty` for a feature row:
/// `(ipc, energy_per_inst_pj, spread)` from a `predict_one` walk of each
/// forest and a `prediction_std` walk of the IPC forest.
pub fn predict_with_uncertainty(perf: &Forest, energy: &Forest, x: &[f64]) -> (f64, f64, f64) {
    (
        perf.predict_one(x).exp(),
        energy.predict_one(x).exp(),
        perf.prediction_std(x).exp(),
    )
}

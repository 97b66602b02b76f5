//! The pre-order forest against the frozen former forest of
//! `tests/oracle`: every prediction, mean and spread equal by `to_bits`,
//! and every document re-encoded byte for byte.

use napel_ml::dataset::Dataset;
use napel_ml::forest::{RandomForest, RandomForestParams};
use napel_ml::log_space::LogModel;
use napel_ml::persist::{decode, encode};
use napel_ml::tree::{DecisionTreeParams, FeatureSubset};
use napel_ml::{Estimator, Regressor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[allow(dead_code)]
mod oracle;

/// A dataset with the shapes that stress split search and traversal:
/// constant columns, few-level columns (ties everywhere), continuous
/// columns and duplicated rows.
fn dataset(seed: u64, features: usize, rows: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds: Vec<u8> = (0..features).map(|_| rng.gen_range(0..3)).collect();
    let mut b = Dataset::builder((0..features).map(|j| format!("f{j}")).collect());
    let mut previous: Vec<(Vec<f64>, f64)> = Vec::new();
    for _ in 0..rows {
        let (x, y) = if !previous.is_empty() && rng.gen_range(0..4) == 0 {
            previous[rng.gen_range(0..previous.len())].clone()
        } else {
            let x: Vec<f64> = kinds
                .iter()
                .map(|&k| match k {
                    0 => 1.5,
                    1 => f64::from(rng.gen_range(0..3u32)),
                    _ => rng.gen_range(-100.0..100.0),
                })
                .collect();
            let y = x.iter().sum::<f64>().abs() + rng.gen_range(0.1..10.0);
            (x, y)
        };
        b.push_row(x.clone(), y).expect("finite row");
        previous.push((x, y));
    }
    b.build().expect("non-empty")
}

/// Training rows, each row with a split feature set exactly to its
/// threshold, and NaN / ±inf in every feature and in all of them.
fn probes(data: &Dataset, forest: &oracle::Forest) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i).to_vec()).collect();
    for (k, (feature, threshold)) in forest.splits().into_iter().enumerate() {
        let mut x = data.row(k % data.len()).to_vec();
        x[feature] = threshold;
        out.push(x);
    }
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for j in 0..data.num_features() {
            let mut x = data.row(0).to_vec();
            x[j] = v;
            out.push(x);
        }
        out.push(vec![v; data.num_features()]);
    }
    out
}

/// Asserts `forest` predicts, averages and spreads exactly as the oracle
/// rebuilt from its document, on every probe and in every batch shape.
fn assert_matches_oracle(forest: &RandomForest, data: &Dataset) {
    let text = encode(forest);
    let old = oracle::Forest::decode(&text);
    let decoded: RandomForest = decode(&text).expect("decodes");
    assert_eq!(encode(&decoded), text, "re-encoding must be byte-identical");

    let rows = probes(data, &old);
    let old_means = old.predict_many(&rows);
    let old_spreads = old.prediction_std_many(&rows);
    for m in [forest, &decoded] {
        let means = m.predict_many(&rows);
        let both = m.predict_with_spread(&rows);
        assert_eq!(means.len(), rows.len());
        assert_eq!(both.len(), rows.len());
        for (i, x) in rows.iter().enumerate() {
            let want_mean = old_means[i].to_bits();
            let want_spread = old_spreads[i].to_bits();
            assert_eq!(want_mean, old.predict_one(x).to_bits());
            assert_eq!(want_spread, old.prediction_std(x).to_bits());
            assert_eq!(
                m.predict_one(x).to_bits(),
                want_mean,
                "predict_one at {x:?}"
            );
            assert_eq!(means[i].to_bits(), want_mean, "predict_many at {x:?}");
            assert_eq!(both[i].0.to_bits(), want_mean, "mean at {x:?}");
            assert_eq!(both[i].1.to_bits(), want_spread, "spread at {x:?}");
        }
        // Batches that split the rows at odd places: blocks and lanes
        // must not change a row's values.
        for size in [1, 3, 18] {
            for (c, chunk) in rows.chunks(size).enumerate() {
                for (k, (mean, spread)) in m.predict_with_spread(chunk).into_iter().enumerate() {
                    assert_eq!(mean.to_bits(), old_means[c * size + k].to_bits());
                    assert_eq!(spread.to_bits(), old_spreads[c * size + k].to_bits());
                }
            }
        }
        // The log-space wrapper forwards the batch walk.
        let logged = LogModel::new(m.clone()).predict_many(&rows);
        for (got, want) in logged.iter().zip(&old_means) {
            assert_eq!(got.to_bits(), want.exp().to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn pre_order_forest_is_bit_identical_to_the_frozen_forest(
        seed in 0u64..1_000_000,
        features in 1usize..=8,
        trees in 1usize..=50,
        depth in 0usize..=16,
        rows in 2usize..=60,
        subset in 0u8..3,
        bootstrap in any::<bool>(),
    ) {
        let data = dataset(seed, features, rows);
        let params = RandomForestParams {
            num_trees: trees,
            tree: DecisionTreeParams {
                max_depth: depth,
                feature_subset: [FeatureSubset::All, FeatureSubset::Third, FeatureSubset::Sqrt]
                    [usize::from(subset)],
                ..DecisionTreeParams::default()
            },
            bootstrap,
        };
        let forest = params.fit(&data, &mut StdRng::seed_from_u64(seed)).expect("fit");
        assert_matches_oracle(&forest, &data);
    }
}

#[test]
fn deep_trees_on_distinct_rows_match_the_frozen_forest() {
    // 400 distinct rows: trees that reach the depth limit of 16 along long
    // left and right chains.
    let mut b = Dataset::builder(vec!["x".into(), "noise".into()]);
    for i in 0..400 {
        let x = f64::from(i);
        b.push_row(vec![x, f64::from(i % 7)], (x * 0.37).sin() + 2.0)
            .unwrap();
    }
    let data = b.build().unwrap();
    let forest = RandomForestParams {
        num_trees: 7,
        ..RandomForestParams::default()
    }
    .fit(&data, &mut StdRng::seed_from_u64(3))
    .unwrap();
    let old = oracle::Forest::decode(&encode(&forest));
    assert_eq!(old.trees.iter().map(oracle::Tree::depth).max(), Some(16));
    assert_matches_oracle(&forest, &data);
}

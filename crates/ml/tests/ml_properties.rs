//! Property tests for the ML estimators.

use proptest::prelude::*;

use napel_ml::cv::k_fold;
use napel_ml::dataset::Dataset;
use napel_ml::forest::RandomForestParams;
use napel_ml::metrics::{mean_absolute_error, mean_relative_error, root_mean_squared_error};
use napel_ml::tree::DecisionTreeParams;
use napel_ml::{Estimator, Regressor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random small regression dataset.
fn datasets() -> impl Strategy<Value = Dataset> {
    prop::collection::vec((any::<i16>(), any::<i16>(), any::<i16>()), 4..60).prop_map(|rows| {
        let mut b = Dataset::builder(vec!["a".into(), "b".into()]);
        for (x, y, z) in rows {
            b.push_row(vec![f64::from(x), f64::from(y)], f64::from(z))
                .expect("finite");
        }
        b.build().expect("non-empty")
    })
}

proptest! {
    #[test]
    fn tree_predictions_stay_in_target_range(d in datasets(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = DecisionTreeParams::default().fit(&d, &mut rng).expect("fit");
        let (lo, hi) = d.target_range();
        for i in 0..d.len() {
            let p = tree.predict_one(d.row(i));
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
        // Probes outside the training distribution too.
        for probe in [[-1e6, 1e6], [0.0, 0.0], [42.0, -42.0]] {
            let p = tree.predict_one(&probe);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn forest_is_deterministic_and_bounded(d in datasets(), seed in 0u64..100) {
        let params = RandomForestParams { num_trees: 7, ..Default::default() };
        let a = params.fit(&d, &mut StdRng::seed_from_u64(seed)).expect("fit");
        let b = params.fit(&d, &mut StdRng::seed_from_u64(seed)).expect("fit");
        let (lo, hi) = d.target_range();
        for i in 0..d.len() {
            let pa = a.predict_one(d.row(i));
            prop_assert_eq!(pa.to_bits(), b.predict_one(d.row(i)).to_bits());
            prop_assert!(pa >= lo - 1e-9 && pa <= hi + 1e-9);
        }
    }

    #[test]
    fn depth_zero_tree_predicts_the_mean(d in datasets(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stump = DecisionTreeParams { max_depth: 0, ..Default::default() }
            .fit(&d, &mut rng)
            .expect("fit");
        let p = stump.predict_one(d.row(0));
        prop_assert!((p - d.target_mean()).abs() < 1e-9);
    }

    #[test]
    fn kfold_is_a_partition(n in 4usize..200, k in 2usize..6, seed in 0u64..100) {
        prop_assume!(n >= k);
        let mut rng = StdRng::seed_from_u64(seed);
        let folds = k_fold(n, k, &mut rng).expect("valid");
        prop_assert_eq!(folds.len(), k);
        let mut covered = vec![0u32; n];
        for f in &folds {
            prop_assert_eq!(f.train.len() + f.test.len(), n);
            for &i in &f.test {
                covered[i] += 1;
            }
            let train: std::collections::HashSet<usize> = f.train.iter().copied().collect();
            prop_assert!(f.test.iter().all(|i| !train.contains(i)));
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn error_metrics_are_nonnegative_and_zero_iff_exact(
        pairs in prop::collection::vec((any::<i16>(), any::<i16>()), 1..50)
    ) {
        let pred: Vec<f64> = pairs.iter().map(|&(p, _)| f64::from(p)).collect();
        let actual: Vec<f64> = pairs.iter().map(|&(_, a)| f64::from(a)).collect();
        let mre = mean_relative_error(&pred, &actual);
        let mae = mean_absolute_error(&pred, &actual);
        let rmse = root_mean_squared_error(&pred, &actual);
        prop_assert!(mre >= 0.0 && mae >= 0.0 && rmse >= 0.0);
        prop_assert!(rmse + 1e-12 >= mae, "RMSE dominates MAE");
        let exact = pred.iter().zip(&actual).all(|(p, a)| p == a);
        if exact {
            prop_assert_eq!(mae, 0.0);
        }
    }

    #[test]
    fn min_samples_leaf_controls_granularity(d in datasets(), seed in 0u64..50) {
        // A tree with a huge min leaf cannot have more distinct predictions
        // than n / min_leaf.
        let min_leaf = (d.len() / 2).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = DecisionTreeParams { min_samples_leaf: min_leaf, ..Default::default() }
            .fit(&d, &mut rng)
            .expect("fit");
        let distinct: std::collections::HashSet<u64> =
            (0..d.len()).map(|i| tree.predict_one(d.row(i)).to_bits()).collect();
        prop_assert!(distinct.len() <= d.len() / min_leaf + 1);
    }
}

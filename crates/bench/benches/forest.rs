//! Random-forest training and inference cost (the "Train+Tune" and "Pred."
//! columns of Table 4 at the ML level).

use criterion::{criterion_group, criterion_main, Criterion};
use napel_core::campaign::AnyExecutor;
use napel_core::collect::{collect, CollectionPlan};
use napel_core::fault::CampaignOptions;
use napel_ml::forest::RandomForestParams;
use napel_ml::{Estimator, Regressor};
use napel_workloads::{Scale, Workload};
use rand::{rngs::StdRng, SeedableRng};

fn bench_forest(c: &mut Criterion) {
    let plan = CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv, Workload::Mvt],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let (set, _) = collect(&plan, &AnyExecutor::from_env(), &CampaignOptions::default())
        .expect("clean campaign");
    let data = set.ipc_dataset().expect("dataset");
    let params = RandomForestParams::default();
    let model = params
        .fit(&data, &mut StdRng::seed_from_u64(1))
        .expect("fit");
    let x = data.row(0).to_vec();

    let mut g = c.benchmark_group("forest");
    g.sample_size(10);
    g.bench_function("train_100_trees", |b| {
        b.iter(|| {
            params
                .fit(&data, &mut StdRng::seed_from_u64(1))
                .expect("fit")
        })
    });
    g.bench_function("predict_one", |b| b.iter(|| model.predict_one(&x)));
    g.finish();
}

criterion_group!(benches, bench_forest);
criterion_main!(benches);

//! End-to-end pipeline cost: DoE collection for one application, and the
//! per-configuration simulate-vs-predict gap behind Figure 4.

use criterion::{criterion_group, criterion_main, Criterion};
use napel_core::campaign::AnyExecutor;
use napel_core::collect::{collect, CollectionPlan};
use napel_core::fault::CampaignOptions;
use napel_core::model::{Napel, NapelConfig};
use napel_pisa::ApplicationProfile;
use napel_workloads::{Scale, Workload};
use nmc_sim::{ArchConfig, NmcSystem};

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    let exec = AnyExecutor::from_env();
    let opts = CampaignOptions::default();

    let plan = CollectionPlan {
        workloads: vec![Workload::Atax],
        scale: Scale::tiny(),
        ..Default::default()
    };
    g.bench_function("collect_atax_tiny", |b| {
        b.iter(|| collect(&plan, &exec, &opts).expect("clean campaign"))
    });

    // Simulate-vs-predict, the Figure 4 per-configuration gap.
    let plan = CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv, Workload::Mvt],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let (set, _) = collect(&plan, &exec, &opts).expect("clean campaign");
    let trained = Napel::new(NapelConfig::untuned())
        .train(&set)
        .expect("train");
    let trace = Workload::Atax.generate(&[1500.0, 16.0], Scale::tiny());
    let profile = ApplicationProfile::of(&trace);
    let arch = ArchConfig::paper_default();

    g.bench_function("simulate_one_config", |b| {
        b.iter(|| NmcSystem::new(arch.clone()).run(&trace))
    });
    g.bench_function("predict_one_config", |b| {
        b.iter(|| trained.predict(&profile, &arch))
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);

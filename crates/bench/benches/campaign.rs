//! Serial vs threaded campaign execution on a tiny two-workload,
//! three-architecture batch (the shape of the determinism test, so the
//! numbers measure exactly the path the guarantee covers).
//!
//! The interesting comparison is wall-clock per campaign; throughput is
//! reported in jobs/s. On a single-core host the threaded executors can
//! only tie (modulo scheduling overhead) — see EXPERIMENTS.md for
//! recorded numbers and the expected multi-core behavior.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use napel_core::campaign::{plan_jobs, Serial, Threaded};
use napel_core::collect::{arch_neighborhood, collect, CollectionPlan};
use napel_core::fault::CampaignOptions;
use napel_workloads::{Scale, Workload};

fn tiny_plan() -> CollectionPlan {
    CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv],
        arch_configs: arch_neighborhood().into_iter().take(3).collect(),
        scale: Scale::tiny(),
    }
}

fn bench_campaign(c: &mut Criterion) {
    let plan = tiny_plan();
    let jobs = plan_jobs(&plan).len() as u64;
    let opts = CampaignOptions::default();

    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs));
    group.bench_function("serial", |b| {
        b.iter(|| black_box(collect(&plan, &Serial, &opts).unwrap()))
    });
    for workers in [2usize, 4] {
        let exec = Threaded::new(workers);
        group.bench_function(&format!("threaded-{workers}"), |b| {
            b.iter(|| black_box(collect(&plan, &exec, &opts).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);

//! Cost of the telemetry subsystem on the campaign hot path.
//!
//! Three variants of the same tiny campaign: the default noop global
//! (`enabled()` is one relaxed atomic load — this must match the
//! pre-telemetry baseline), an installed-but-drained collector (spans,
//! counters, and lane bookkeeping all live), and noop again after
//! uninstalling (confirms `install` is reversible and the gate really
//! turns the cost off, not just down).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use napel_core::campaign::{plan_jobs, Serial};
use napel_core::collect::{arch_neighborhood, collect, CollectionPlan};
use napel_core::fault::CampaignOptions;
use napel_telemetry::Telemetry;
use napel_workloads::{Scale, Workload};

fn tiny_plan() -> CollectionPlan {
    CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv],
        arch_configs: arch_neighborhood().into_iter().take(3).collect(),
        scale: Scale::tiny(),
    }
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let plan = tiny_plan();
    let jobs = plan_jobs(&plan).len() as u64;
    let opts = CampaignOptions::default();

    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs));

    napel_telemetry::install(Telemetry::noop());
    group.bench_function("noop", |b| {
        b.iter(|| black_box(collect(&plan, &Serial, &opts).unwrap()))
    });

    napel_telemetry::install(Telemetry::enabled());
    group.bench_function("enabled", |b| {
        b.iter(|| {
            let out = black_box(collect(&plan, &Serial, &opts).unwrap());
            // Drain per iteration so the event buffers don't grow without
            // bound across samples — the steady-state cost is what matters.
            black_box(napel_telemetry::global().drain());
            out
        })
    });

    napel_telemetry::install(Telemetry::noop());
    group.bench_function("noop-after-uninstall", |b| {
        b.iter(|| black_box(collect(&plan, &Serial, &opts).unwrap()))
    });

    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);

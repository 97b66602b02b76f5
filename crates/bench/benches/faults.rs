//! Overhead of the supervised, fault-tolerant campaign runtime.
//!
//! Two conditions on the same tiny batch as the `campaign` bench: the
//! supervised runtime on a clean run (per-job `catch_unwind`, label
//! validation, outcome bookkeeping — the path every campaign takes), and
//! the same runtime under quarantine with injected faults (every fourth
//! job panics). The interesting number is the faulty vs clean gap — what
//! catching, itemizing and skipping a failed job costs — next to
//! simulation time.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use napel_core::campaign::{plan_jobs, run_supervised, Serial};
use napel_core::collect::{arch_neighborhood, CollectionPlan};
use napel_core::fault::{CampaignOptions, FaultInjector};
use napel_workloads::{Scale, Workload};

fn tiny_plan() -> CollectionPlan {
    CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv],
        arch_configs: arch_neighborhood().into_iter().take(3).collect(),
        scale: Scale::tiny(),
    }
}

fn bench_faults(c: &mut Criterion) {
    let plan = tiny_plan();
    let jobs = plan_jobs(&plan);

    let mut group = c.benchmark_group("faults");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));

    let clean = CampaignOptions::default();
    group.bench_function("supervised-clean", |b| {
        b.iter(|| black_box(run_supervised(&Serial, &jobs, &clean).unwrap()))
    });

    let mut injector = FaultInjector::new();
    for index in (0..jobs.len()).step_by(4) {
        injector = injector.panic_at(index);
    }
    let faulty = CampaignOptions::quarantine().with_injector(injector);
    group.bench_function("supervised-faulty", |b| {
        b.iter(|| black_box(run_supervised(&Serial, &jobs, &faulty).unwrap()))
    });

    group.finish();
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);

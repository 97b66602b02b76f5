//! Acceptance tests for the telemetry subsystem.
//!
//! The contract under test (DESIGN.md §Telemetry):
//!
//! 1. **Invisibility** — enabling telemetry changes *nothing* about a
//!    campaign's results: the labeled rows are byte-identical (proved
//!    through the bit-exact checkpoint encoding) and the checkpoint
//!    journals match byte for byte.
//! 2. **Determinism** — the drained event stream is identical modulo
//!    wall-clock timings whether the campaign ran on the serial or the
//!    threaded executor, thanks to lane-based ordering — also when jobs
//!    of one timing class share a simulation and run back to front, so a
//!    different job of the class simulates.
//! 3. **Coverage** — one collection campaign plus one training pass emits
//!    spans from every layer (campaign, nmc-sim, pisa, ml) and the
//!    headline counters.
//! 4. **Round-trip** — the JSONL sink re-parses to an equal report.
//!
//! Everything lives in one `#[test]` because the telemetry global is
//! process-wide state: parallel test threads must not install over each
//! other.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use napel::core::campaign::{plan_jobs, Executor, Serial, Threaded};
use napel::core::collect::{arch_neighborhood, collect, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::core::features::TrainingSet;
use napel::ml::cv::{cross_val_mre, k_fold};
use napel::ml::dataset::Dataset;
use napel::ml::forest::RandomForestParams;
use napel::sim::NmcSystem;
use napel::telemetry::{Telemetry, TelemetryReport};
use napel::workloads::{Scale, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_plan() -> CollectionPlan {
    CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv],
        scale: Scale::tiny(),
        ..Default::default()
    }
}

fn journal_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "napel-telemetry-{tag}-{}-{n}.ckpt",
        std::process::id()
    ))
}

/// Runs `plan` on `exec` with a fresh checkpoint journal, and returns the
/// training set, the drained telemetry, and the journal's bytes.
fn run_campaign<E: Executor>(
    plan: &CollectionPlan,
    exec: &E,
    tag: &str,
) -> (TrainingSet, TelemetryReport, Vec<u8>) {
    let journal = journal_path(tag);
    let opts = CampaignOptions::default().with_checkpoint(&journal);
    let (set, report) = collect(plan, exec, &opts).unwrap();
    assert!(report.is_clean());
    let stream = napel::telemetry::global().drain();
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::remove_file(&journal).ok();
    (set, stream, bytes)
}

/// Runs a batch one job at a time from the last to the first: whichever
/// job of a timing class arrives first simulates for the class, and here
/// that is the class's last job, not its first as under [`Serial`].
struct BackToFront;

impl Executor for BackToFront {
    fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut out: Vec<R> = items
            .iter()
            .enumerate()
            .rev()
            .map(|(i, t)| f(i, t))
            .collect();
        out.reverse();
        out
    }

    fn workers(&self) -> usize {
        1
    }
}

/// A journal's entries, sorted: entries append in completion order.
fn sorted_entries(journal: &[u8]) -> Vec<&[u8]> {
    let mut entries: Vec<&[u8]> = journal.split(|&b| b == b'\n').collect();
    entries.sort_unstable();
    entries
}

/// Drops the one legitimately executor-dependent detail — the `workers`
/// attribute on the `campaign.run` span — so serial and threaded streams
/// can be compared whole.
fn strip_workers(mut report: TelemetryReport) -> TelemetryReport {
    for span in &mut report.spans {
        span.attrs.retain(|(key, _)| key != "workers");
    }
    report
}

#[test]
fn telemetry_is_invisible_deterministic_and_complete() {
    let plan = tiny_plan();
    let jobs = plan_jobs(&plan).len();

    // --- 1. Baseline: noop telemetry (the default), serial executor. ---
    napel::telemetry::install(Telemetry::noop());
    let (noop_set, noop_stream, noop_bytes) = run_campaign(&plan, &Serial, "noop");
    assert_eq!(noop_set.runs.len(), jobs);
    assert!(noop_stream.is_empty(), "noop telemetry must record nothing");

    // --- 2. Same campaign with telemetry enabled. ---
    napel::telemetry::install(Telemetry::enabled());
    let (enabled_set, serial_stream, enabled_bytes) = run_campaign(&plan, &Serial, "enabled");

    // Invisibility: labeled rows equal, and byte-identical through the
    // bit-exact journal encoding (floats as raw bit patterns).
    assert_eq!(noop_set.runs, enabled_set.runs);
    assert_eq!(
        noop_bytes, enabled_bytes,
        "telemetry must not perturb the checkpoint journal"
    );

    // --- 3. Same campaign, threaded executor, telemetry still on. ---
    let (threaded_set, threaded_stream, _) = run_campaign(&plan, &Threaded::new(4), "threaded");
    assert_eq!(noop_set.runs, threaded_set.runs);

    // Determinism: identical streams modulo wall-clock timings. Lanes
    // order events by job identity, not completion order, so four racing
    // workers produce the same skeleton as the serial loop.
    assert_eq!(
        strip_workers(serial_stream.without_timings()),
        strip_workers(threaded_stream.without_timings()),
        "serial and threaded campaigns must emit the same event skeleton"
    );

    // --- 4. Layer coverage of the collection stream. ---
    for span in [
        "campaign.run",
        "campaign.job",
        "campaign.analyze",
        "campaign.generate_trace",
        "nmc_sim.run",
        "pisa.profile",
    ] {
        assert!(serial_stream.has_span(span), "missing span {span}");
    }
    assert_eq!(
        serial_stream.counter("campaign.profile_cache.lookups"),
        Some(jobs as u64)
    );
    assert_eq!(
        serial_stream.counter("campaign.jobs.completed"),
        Some(jobs as u64)
    );
    assert_eq!(
        serial_stream.counter("checkpoint.entries_recorded"),
        Some(jobs as u64)
    );
    assert!(serial_stream.counter("nmc_sim.runs").is_some());
    assert!(serial_stream.counter("nmc_sim.dram.reads").is_some());
    assert!(serial_stream
        .counter("nmc_sim.rounds")
        .is_some_and(|r| r > 0));
    assert!(serial_stream.counter("pisa.instructions").is_some());

    // --- 5. The ml layer, via a small training pass. ---
    let mut builder = Dataset::builder(vec!["x".into()]);
    for i in 0..30 {
        let x = f64::from(i);
        builder.push_row(vec![x], x * x + 1.0).unwrap();
    }
    let data = builder.build().unwrap();
    let mut rng = StdRng::seed_from_u64(25019);
    let folds = k_fold(data.len(), 3, &mut rng).unwrap();
    let params = RandomForestParams {
        num_trees: 10,
        ..Default::default()
    };
    cross_val_mre(&params, &data, &folds, &mut rng).unwrap();
    let ml_stream = napel::telemetry::global().drain();
    for span in [
        "ml.cross_validate",
        "ml.cv.fit",
        "ml.cv.predict",
        "ml.forest.fit",
    ] {
        assert!(ml_stream.has_span(span), "missing span {span}");
    }
    assert!(
        ml_stream
            .log_histograms
            .iter()
            .any(|(name, h)| name == "ml.forest.tree_build_seconds" && h.count() == 30),
        "tree-build histogram should hold one sample per tree per fold"
    );

    // --- 6. JSONL round-trip. ---
    let parsed = TelemetryReport::from_jsonl(&serial_stream.to_jsonl()).unwrap();
    assert_eq!(parsed, serial_stream);

    // --- 7. Shared simulations. On the six-architecture neighborhood a
    // point's jobs of one timing class share one simulation, which runs in
    // whichever job arrives first; the stream, rows and journal entries
    // must not depend on which job that is. ---
    let plan = CollectionPlan {
        arch_configs: arch_neighborhood(),
        ..tiny_plan()
    };
    let jobs = plan_jobs(&plan);
    let (serial_set, serial_stream, serial_bytes) = run_campaign(&plan, &Serial, "shared");
    let (reversed_set, reversed_stream, reversed_bytes) =
        run_campaign(&plan, &BackToFront, "shared-reversed");
    assert_eq!(serial_set.runs, reversed_set.runs);
    assert_eq!(
        sorted_entries(&serial_bytes),
        sorted_entries(&reversed_bytes)
    );
    assert_eq!(
        strip_workers(serial_stream.without_timings()),
        strip_workers(reversed_stream.without_timings()),
        "the simulating job of a timing class must not show in the stream"
    );
    // One lookup per job, one simulation per (point, timing class).
    let mut classes = Vec::new();
    for job in &jobs {
        let threads = job.workload.generate(&job.coords, job.scale).num_threads();
        let class = NmcSystem::new(job.arch.clone()).timing_class(threads);
        let shared = (job.workload, job.coords.clone(), class);
        if !classes.contains(&shared) {
            classes.push(shared);
        }
    }
    assert!(classes.len() < jobs.len(), "some jobs must share a run");
    for (counter, expected) in [
        ("campaign.sim_cache.lookups", jobs.len()),
        ("campaign.sim_cache.misses", classes.len()),
        ("nmc_sim.runs", classes.len()),
    ] {
        assert_eq!(
            serial_stream.counter(counter),
            Some(expected as u64),
            "{counter}"
        );
    }

    // Restore the default so later tests in this process start clean.
    napel::telemetry::install(Telemetry::noop());
}

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
//!    threaded executor, thanks to lane-based ordering.
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

use napel::core::campaign::{plan_jobs, Serial, Threaded};
use napel::core::collect::{collect_supervised, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::ml::cv::{cross_val_mre, k_fold};
use napel::ml::dataset::Dataset;
use napel::ml::forest::RandomForestParams;
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
    let noop_journal = journal_path("noop");
    let opts = CampaignOptions::default().with_checkpoint(&noop_journal);
    let (noop_set, report) = collect_supervised(&plan, &Serial, &opts).unwrap();
    assert!(report.is_clean());
    assert_eq!(noop_set.runs.len(), jobs);
    assert!(
        napel::telemetry::global().drain().is_empty(),
        "noop telemetry must record nothing"
    );

    // --- 2. Same campaign with telemetry enabled. ---
    napel::telemetry::install(Telemetry::enabled());
    let enabled_journal = journal_path("enabled");
    let opts = CampaignOptions::default().with_checkpoint(&enabled_journal);
    let (enabled_set, _) = collect_supervised(&plan, &Serial, &opts).unwrap();
    let serial_stream = napel::telemetry::global().drain();

    // Invisibility: labeled rows equal, and byte-identical through the
    // bit-exact journal encoding (floats as raw bit patterns).
    assert_eq!(noop_set.runs, enabled_set.runs);
    let noop_bytes = std::fs::read(&noop_journal).unwrap();
    let enabled_bytes = std::fs::read(&enabled_journal).unwrap();
    assert_eq!(
        noop_bytes, enabled_bytes,
        "telemetry must not perturb the checkpoint journal"
    );

    // --- 3. Same campaign, threaded executor, telemetry still on. ---
    let threaded_journal = journal_path("threaded");
    let opts = CampaignOptions::default().with_checkpoint(&threaded_journal);
    let (threaded_set, _) = collect_supervised(&plan, &Threaded::new(4), &opts).unwrap();
    let threaded_stream = napel::telemetry::global().drain();
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

    // Restore the default so later tests in this process start clean.
    napel::telemetry::install(Telemetry::noop());
    for path in [&noop_journal, &enabled_journal, &threaded_journal] {
        std::fs::remove_file(path).ok();
    }
}

//! Differential suite for the phase-split simulation engine.
//!
//! The contract under test (DESIGN.md §11): the phase-split engine —
//! per-PE frontends, batched per-vault event queues, arena-allocated
//! in-flight loads — is **bit-exact** against the reference globally
//! interleaved engine. `SimReport: PartialEq` compares every field
//! (instructions, cycles, cache/DRAM/link counters, all four energy terms,
//! active PEs, per-vault traffic), so one `assert_eq!` per run covers the
//! whole report.
//!
//! Axes swept:
//! - all 12 Table 2 kernels,
//! - three architecture configurations: the Table 3 default, a contended
//!   open-row multi-issue shape, and a non-power-of-two geometry that
//!   exercises the DRAM address mapping's division fallback — plus, for
//!   the reused engine, the five non-default shapes of the campaign's
//!   `arch_neighborhood()` sweep (16 PEs, 2.5 GHz, 8 cache lines,
//!   16 vaults × 4 layers, 2-issue),
//! - both trace entries: materialized [`MultiTrace`] and compact-encoded
//!   per-thread streams (the two `TracePolicy` residencies),
//! - Serial and Threaded campaign executors, both residency policies,
//!   with rows checked against reference-engine labels.

use napel::core::campaign::{
    plan_jobs, ProfileCache, ResidentTrace, Serial, Threaded, TracePolicy,
};
use napel::core::collect::{arch_neighborhood, collect_with, CollectionPlan};
use napel::core::features::LabeledRun;
use napel::ir::EncodedTrace;
use napel::sim::{ArchConfig, NmcSystem, RowPolicy, SimEngine, SimReport};
use napel::workloads::{Scale, Workload};

/// The three architecture shapes every kernel is differenced under.
fn arch_configs() -> Vec<(&'static str, ArchConfig)> {
    vec![
        ("paper_default", ArchConfig::paper_default()),
        (
            "open_row_wide_issue",
            ArchConfig {
                num_pes: 4,
                issue_width: 2,
                row_policy: RowPolicy::Open,
                cache_lines: 4,
                ..ArchConfig::paper_default()
            },
        ),
        (
            // 12 vaults × 3 layers: neither count is a power of two, so the
            // address mapping must take the division path; 2 PEs force
            // heavy thread sharing and bank contention.
            "non_pow2_geometry",
            ArchConfig {
                num_pes: 2,
                vaults: 12,
                dram_layers: 3,
                ..ArchConfig::paper_default()
            },
        ),
    ]
}

#[test]
fn phase_engine_is_field_identical_to_reference_on_all_kernels() {
    for (name, arch) in arch_configs() {
        let sys = NmcSystem::new(arch);
        for w in Workload::ALL {
            let trace = w.generate_test(Scale::tiny());
            let reference = sys.run_reference(&trace);
            let phase = sys.run(&trace);
            assert_eq!(phase, reference, "{w} on {name} (materialized)");

            // Same invariant feeding the engine from compact-encoded
            // streams (the TracePolicy::Encoded residency).
            let enc = EncodedTrace::from_multi(&trace);
            let streamed = sys.run_streams(enc.thread_iters());
            assert_eq!(streamed, reference, "{w} on {name} (encoded streams)");
            let streamed_ref = sys.run_streams_reference(enc.thread_iters());
            assert_eq!(streamed_ref, reference, "{w} on {name} (reference streams)");
        }
    }
}

#[test]
fn reused_engine_is_field_identical_to_reference_on_all_kernels() {
    // One engine across every kernel × config, the way a campaign worker
    // drives it: buffer reuse must leave no state behind between runs.
    // The neighborhood's first shape is the paper default, already in
    // `arch_configs()`.
    let neighborhood = arch_neighborhood();
    assert_eq!(neighborhood[0], ArchConfig::paper_default());
    let shapes = arch_configs().into_iter().chain(
        neighborhood
            .into_iter()
            .skip(1)
            .map(|arch| ("arch_neighborhood", arch)),
    );
    let mut engine = SimEngine::new();
    for (name, arch) in shapes {
        let sys = NmcSystem::new(arch);
        for w in Workload::ALL {
            let trace = w.generate_test(Scale::tiny());
            let reference = sys.run_reference(&trace);
            assert_eq!(
                engine.run(&sys, &trace),
                reference,
                "{w} on {name}: {:?}",
                sys.config()
            );
        }
    }
}

/// Simulates a job's trace (under `policy` residency) with the reference
/// engine, producing the labeled row the campaign is expected to emit.
fn reference_row(
    job: &napel::core::campaign::SimJob,
    cache: &ProfileCache,
) -> (LabeledRun, SimReport) {
    let point = cache.profiled(job);
    let sys = NmcSystem::new(job.arch.clone());
    let report = match &point.trace {
        ResidentTrace::Encoded(enc) => sys.run_streams_reference(enc.thread_iters()),
        ResidentTrace::Regenerate => {
            sys.run_reference(&job.workload.generate(&job.coords, job.scale))
        }
    };
    let run = LabeledRun::from_report_checked(
        job.workload,
        job.coords.clone(),
        &point.profile,
        &job.arch,
        &report,
    )
    .expect("reference rows satisfy the schema");
    (run, report)
}

#[test]
fn campaign_rows_match_reference_labels_across_executors_and_policies() {
    // End-to-end: the real campaign path (which runs the phase-split
    // engine through per-worker engine reuse) must produce rows identical
    // to reference-engine labels, under both executors and both trace
    // residency policies.
    let plan = CollectionPlan {
        workloads: vec![Workload::Gemv, Workload::Bp],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let serial = collect_with(&plan, &Serial);
    let threaded = collect_with(&plan, &Threaded::new(4));
    assert_eq!(
        serial.runs, threaded.runs,
        "Serial and Threaded must agree row for row"
    );

    let jobs = plan_jobs(&plan);
    for policy in [TracePolicy::Encoded, TracePolicy::Regenerate] {
        let cache = ProfileCache::with_policy(&jobs, policy);
        for (job, produced) in jobs.iter().zip(&serial.runs) {
            let (expected, _) = reference_row(job, &cache);
            assert_eq!(
                produced,
                &expected,
                "{policy:?}: campaign row diverges from the reference engine for {}",
                job.describe()
            );
        }
    }
}

//! Differential suite for the phase-split simulation engine.
//!
//! The contract under test (DESIGN.md §11): the phase-split engine —
//! per-PE frontends, per-PE request queues merged by key, arena-allocated
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
//! - both trace forms, through the engine's one entry
//!   ([`SimEngine::run_streams`]): a materialized [`MultiTrace`]'s
//!   per-thread slices ([`NmcSystem::run`]) and compact-encoded
//!   per-thread streams, the form the campaign keeps; the reused engine
//!   is fed encoded streams, as a campaign worker feeds it,
//! - Serial and Threaded campaign executors, with rows checked against
//!   reference-engine labels of a freshly generated and profiled trace,
//!   on one architecture and on `arch_neighborhood()`, where jobs of one
//!   timing class share a simulation and a point's trace is dropped after
//!   its last one,
//! - timing classes: a report retargeted from another system of the same
//!   class equals that system's own run bit for bit, and every field the
//!   engine reads separates classes.

use napel::core::campaign::{plan_jobs, run_supervised, Serial, SimJob, Threaded};
use napel::core::collect::{arch_neighborhood, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::core::features::LabeledRun;
use napel::ir::{Emitter, EncodedTrace, MultiTrace};
use napel::pisa::ProfileObserver;
use napel::sim::energy::EnergyModel;
use napel::sim::{ArchConfig, DramTiming, NmcSystem, RowPolicy, SimEngine, SimReport};
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
            // streams (the form the campaign keeps).
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
    // drives it — from encoded streams: buffer reuse must leave no state
    // behind between runs. The neighborhood's first shape is the paper
    // default, already in `arch_configs()`.
    let neighborhood = arch_neighborhood();
    assert_eq!(neighborhood[0], ArchConfig::paper_default());
    let shapes = arch_configs().into_iter().chain(
        neighborhood
            .into_iter()
            .skip(1)
            .map(|arch| ("arch_neighborhood", arch)),
    );
    let traces: Vec<(Workload, MultiTrace, EncodedTrace)> = Workload::ALL
        .into_iter()
        .map(|w| {
            let trace = w.generate_test(Scale::tiny());
            let enc = EncodedTrace::from_multi(&trace);
            (w, trace, enc)
        })
        .collect();
    let mut engine = SimEngine::new();
    for (name, arch) in shapes {
        let sys = NmcSystem::new(arch);
        for (w, trace, enc) in &traces {
            let reference = sys.run_reference(trace);
            assert_eq!(
                engine.run_streams(&sys, enc.thread_iters()),
                reference,
                "{w} on {name}: {:?}",
                sys.config()
            );
        }
    }
}

/// `assert_eq!` on two reports, plus every `f64` field by bit pattern
/// (`==` would let `0.0` equal `-0.0`).
fn assert_bit_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a, b, "{what}");
    let bits = |r: &SimReport| {
        let e = r.energy;
        [
            r.freq_ghz,
            e.pe_dynamic_pj,
            e.cache_pj,
            e.dram_dynamic_pj,
            e.static_pj,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(bits(a), bits(b), "{what}: f64 bit patterns");
}

/// A hand-built `threads`-thread trace: per thread, a strided stream of
/// load → multiply → store with some line reuse, then loads nothing
/// consumes, so runs end with loads in flight.
fn hand_built(threads: usize) -> MultiTrace {
    let mut t = MultiTrace::new(threads);
    for th in 0..threads {
        let mut e = Emitter::new(t.thread_sink(th));
        let base = (th as u64) << 22;
        for i in 0..48u64 {
            let x = e.load(0, base + 24 * i, 8);
            let y = e.fmul(1, x, x);
            e.store(2, base + 0x10_0000 + 16 * i, 8, y);
        }
        for i in 0..3u64 {
            e.load(3, base + 0x20_0000 + (i << 10), 8);
        }
    }
    t
}

#[test]
fn timing_classes_split_on_every_field_the_engine_reads() {
    let base = ArchConfig::paper_default();
    let class = |arch: &ArchConfig, threads| NmcSystem::new(arch.clone()).timing_class(threads);

    // Report-only fields, and PEs the threads cannot occupy, share a class.
    for same in [
        ArchConfig {
            freq_ghz: 2.5,
            ..base.clone()
        },
        ArchConfig {
            dram_size_bytes: 1 << 30,
            ..base.clone()
        },
        ArchConfig {
            num_pes: 16,
            ..base.clone()
        },
    ] {
        assert_eq!(class(&same, 16), class(&base, 16), "{same:?}");
    }
    // PE counts on either side of the thread count do not.
    let pes16 = ArchConfig {
        num_pes: 16,
        ..base.clone()
    };
    assert_ne!(class(&pes16, 17), class(&base, 17));
    assert_eq!(class(&pes16, 1), class(&base, 1));

    let timing = DramTiming::default();
    for different in [
        ArchConfig {
            issue_width: 2,
            ..base.clone()
        },
        ArchConfig {
            cache_lines: 8,
            ..base.clone()
        },
        ArchConfig {
            cache_line_bytes: 128,
            ..base.clone()
        },
        ArchConfig {
            cache_assoc: 1,
            ..base.clone()
        },
        ArchConfig {
            cache_hit_latency: 2,
            ..base.clone()
        },
        ArchConfig {
            vaults: 16,
            ..base.clone()
        },
        ArchConfig {
            dram_layers: 4,
            ..base.clone()
        },
        ArchConfig {
            row_buffer_bytes: 512,
            ..base.clone()
        },
        ArchConfig {
            row_policy: RowPolicy::Open,
            ..base.clone()
        },
        ArchConfig {
            timing: DramTiming {
                t_rcd: 20,
                ..timing
            },
            ..base.clone()
        },
        ArchConfig {
            timing: DramTiming { t_wr: 25, ..timing },
            ..base.clone()
        },
        ArchConfig {
            xbar_latency: 5,
            ..base.clone()
        },
    ] {
        assert_ne!(class(&different, 8), class(&base, 8), "{different:?}");
    }
    // Per-event energies accumulate inside the run, so the energy model
    // is part of the class too.
    let dearer_reads = NmcSystem::new(base.clone()).with_energy_model(EnergyModel {
        dram_read_pj: 2000.0,
        ..EnergyModel::default()
    });
    assert_ne!(dearer_reads.timing_class(8), class(&base, 8));
}

#[test]
fn retargeted_runs_equal_fresh_runs_within_a_timing_class() {
    // Every configuration of the campaign's neighborhood, plus variants
    // of the default and of the 16-PE machine that differ only in the
    // clock, the DRAM capacity, or a PE count at or above the threads.
    let base = ArchConfig::paper_default();
    let mut configs = arch_neighborhood();
    configs.extend([
        ArchConfig {
            freq_ghz: 0.9,
            ..base.clone()
        },
        ArchConfig {
            dram_size_bytes: 1 << 30,
            ..base.clone()
        },
        ArchConfig {
            num_pes: 33,
            ..base.clone()
        },
        ArchConfig {
            num_pes: 64,
            ..base.clone()
        },
        ArchConfig {
            num_pes: 16,
            freq_ghz: 3.0,
            dram_size_bytes: 8 << 30,
            ..base
        },
    ]);
    let systems: Vec<NmcSystem> = configs.into_iter().map(NmcSystem::new).collect();
    let traces = Workload::ALL
        .iter()
        .map(|w| (w.to_string(), w.generate_test(Scale::tiny())))
        .chain([1, 9, 16, 17, 32, 33].map(|n| (format!("{n} threads"), hand_built(n))));
    for (name, trace) in traces {
        let threads = trace.num_threads();
        let classes: Vec<_> = systems.iter().map(|s| s.timing_class(threads)).collect();
        // The neighborhood shares base, 16 PEs and 2.5 GHz up to 16
        // threads, and base and 2.5 GHz above.
        let neighborhood_classes = (0..6)
            .filter(|&i| !classes[..i].contains(&classes[i]))
            .count();
        assert_eq!(
            neighborhood_classes,
            if threads <= 16 { 4 } else { 5 },
            "{name}"
        );
        // Simulate only systems that share their class with another.
        let runs: Vec<Option<SimReport>> = (0..systems.len())
            .map(|i| {
                let shared = classes.iter().filter(|&c| *c == classes[i]).count() > 1;
                shared.then(|| systems[i].run(&trace))
            })
            .collect();
        for (i, a) in runs.iter().enumerate() {
            for (j, b) in runs.iter().enumerate() {
                if let (Some(a), Some(b)) = (a, b) {
                    if i != j && classes[i] == classes[j] {
                        assert_bit_identical(
                            &systems[j].retarget(a),
                            b,
                            &format!("{name}: config {i} retargeted to config {j}"),
                        );
                    }
                }
            }
        }
    }
}

/// The labeled row the campaign is expected to emit for `job`, from
/// scratch: the kernel profiled afresh, and a freshly generated trace
/// simulated on the reference engine.
fn reference_row(job: &SimJob) -> LabeledRun {
    let mut observer = ProfileObserver::new();
    job.workload
        .generate_into(&job.coords, job.scale, &mut observer);
    let trace = job.workload.generate(&job.coords, job.scale);
    let report = NmcSystem::new(job.arch.clone()).run_reference(&trace);
    LabeledRun::from_report_checked(
        job.workload,
        job.coords.clone(),
        &observer.finish(),
        &job.arch,
        &report,
    )
    .expect("reference rows satisfy the schema")
}

/// Runs `jobs` through the campaign on Serial and Threaded executors and
/// checks every row against a reference-engine run of its own job.
fn assert_campaign_matches_reference(jobs: &[SimJob]) {
    let opts = CampaignOptions::default();
    let (serial, _) = run_supervised(&Serial, jobs, &opts).unwrap();
    let (threaded, _) = run_supervised(&Threaded::new(4), jobs, &opts).unwrap();
    assert_eq!(
        serial, threaded,
        "Serial and Threaded must agree row for row"
    );
    for (job, produced) in jobs.iter().zip(&serial) {
        assert_eq!(
            produced,
            &reference_row(job),
            "campaign row diverges from the reference engine for {}",
            job.describe()
        );
    }
}

#[test]
fn campaign_rows_match_reference_labels_across_executors() {
    // End-to-end: the real campaign path (which runs the phase-split
    // engine through per-worker engine reuse, from encoded traces it
    // drops after each point's last simulation) must produce rows
    // identical to reference-engine labels, under both executors.
    let plan = CollectionPlan {
        workloads: vec![Workload::Gemv, Workload::Bp],
        scale: Scale::tiny(),
        ..Default::default()
    };
    assert_campaign_matches_reference(&plan_jobs(&plan));

    // The same on the six-architecture neighborhood, where each point's
    // jobs share one simulation per timing class: gemv's points above 16
    // threads (base and 2.5 GHz share a class) and atax's at or below 16
    // (base, 16 PEs and 2.5 GHz share one).
    let plan = CollectionPlan {
        workloads: vec![Workload::Gemv, Workload::Atax],
        arch_configs: arch_neighborhood(),
        scale: Scale::tiny(),
    };
    let threads = |job: &SimJob| {
        let spec = job.workload.spec();
        job.coords[spec.threads_index()]
    };
    let mut jobs: Vec<SimJob> = plan_jobs(&plan)
        .into_iter()
        .filter(|job| (job.workload == Workload::Gemv) == (threads(job) > 16.0))
        .collect();
    for (i, job) in jobs.iter_mut().enumerate() {
        job.index = i;
    }
    assert!(jobs.iter().any(|j| threads(j) > 16.0));
    assert!(jobs.iter().any(|j| threads(j) <= 16.0));
    assert_campaign_matches_reference(&jobs);
}

//! Integration tests driving every table/figure experiment at tiny scale.
//!
//! These assert the *plumbing* (every driver runs, renders, and satisfies
//! its structural invariants). Quantitative shapes are checked at laptop
//! scale by the `napel-bench` binaries and recorded in `EXPERIMENTS.md`.

use napel::core::artifact::ModelIo;
use napel::core::campaign::AnyExecutor;
use napel::core::collect::CollectionPlan;
use napel::core::experiments::{ablation, fig4, fig5, fig6, fig7, table2, table3, table4, Context};
use napel::core::fault::CampaignOptions;
use napel::core::model::NapelConfig;
use napel::workloads::{Scale, Workload};

fn exec() -> AnyExecutor {
    AnyExecutor::from_env()
}

fn ctx(workloads: Vec<Workload>) -> Context {
    let plan = CollectionPlan {
        workloads,
        scale: Scale::tiny(),
        ..Default::default()
    };
    Context::build(&plan, 0xDAC, &exec(), &CampaignOptions::default())
        .expect("clean campaign")
        .0
}

#[test]
fn table2_lists_every_application_and_level() {
    let s = table2::render();
    for w in Workload::ALL {
        assert!(s.contains(w.name()), "missing {w}");
    }
    // Spot-check levels straight from the paper (large round values are
    // rendered with k/m suffixes).
    for needle in ["1250", "2300", "400k", "1.4m", "819k", "8k"] {
        assert!(s.contains(needle), "missing level {needle}");
    }
}

#[test]
fn table3_prints_both_systems() {
    let s = table3::render(Scale::tiny());
    assert!(s.contains("Host CPU System"));
    assert!(s.contains("NMC System"));
    assert!(s.contains("1.25 GHz"));
}

#[test]
fn table4_counts_match_paper_for_all_apps() {
    // The DoE count column must be exact for all 12 applications even
    // without running the timings.
    use napel::core::collect::doe_config_count;
    let expected: [(Workload, usize); 12] = [
        (Workload::Atax, 11),
        (Workload::Bfs, 31),
        (Workload::Bp, 31),
        (Workload::Chol, 19),
        (Workload::Gemv, 19),
        (Workload::Gesu, 19),
        (Workload::Gram, 19),
        (Workload::Kme, 31),
        (Workload::Lu, 19),
        (Workload::Mvt, 19),
        (Workload::Syrk, 19),
        (Workload::Trmm, 19),
    ];
    for (w, n) in expected {
        assert_eq!(doe_config_count(&w.spec()), n, "{w}");
    }
}

#[test]
fn table4_timings_run_at_tiny_scale() {
    let c = ctx(vec![Workload::Atax, Workload::Mvt]);
    let rows = table4::run(&c, &NapelConfig::untuned(), &ModelIo::none(), &exec()).expect("table4");
    assert_eq!(rows.len(), 2);
    for r in &rows {
        assert!(r.doe_run_seconds > 0.0 && r.pred_seconds > 0.0);
        assert!(r.train_tune_seconds > 0.0);
        // At tiny scale the *test* input (which prediction analyzes) can be
        // larger than the whole shrunken DoE campaign, so the paper's
        // "prediction amortizes the DoE" relation is only asserted loosely
        // here; the laptop-scale binary reproduces it properly.
        assert!(
            r.pred_seconds < r.doe_run_seconds * 20.0,
            "{}: pred {} wildly exceeds doe {}",
            r.workload,
            r.pred_seconds,
            r.doe_run_seconds
        );
    }
}

#[test]
fn fig4_speedup_structure() {
    let c = ctx(vec![Workload::Atax, Workload::Gemv]);
    let rows = fig4::run(&c, &NapelConfig::untuned(), 24, &ModelIo::none(), &exec()).expect("fig4");
    assert_eq!(rows.len(), 2);
    for r in &rows {
        assert_eq!(r.num_configs, 24);
        // The speedup grows with the configuration count (one kernel
        // analysis amortized over the sweep); with 24 configurations it
        // must already clear 1x even at tiny scale.
        assert!(r.speedup() > 1.0, "{}: speedup {}", r.workload, r.speedup());
    }
    assert!(fig4::render(&rows).contains("average speedup"));
}

#[test]
fn fig5_napel_competitive_with_baselines() {
    let c = ctx(vec![
        Workload::Atax,
        Workload::Gemv,
        Workload::Mvt,
        Workload::Syrk,
    ]);
    let result = fig5::run(&c, &ModelIo::none(), &exec()).expect("fig5");
    assert_eq!(result.rows.len(), 4);
    let [napel_avg, ann_avg, dt_avg] = result.averages;
    // The full shape (NAPEL clearly best) is a laptop-scale claim; at tiny
    // scale we require NAPEL to at least not be the *worst* of the three.
    let worst = napel_avg.0.max(ann_avg.0).max(dt_avg.0);
    assert!(
        napel_avg.0 < worst || (napel_avg.0 - worst).abs() < 1e-12,
        "NAPEL perf MRE {} vs ANN {} DT {}",
        napel_avg.0,
        ann_avg.0,
        dt_avg.0
    );
}

#[test]
fn fig6_host_numbers_positive_for_all_apps() {
    let rows = fig6::run(&Workload::ALL, Scale::tiny());
    assert_eq!(rows.len(), 12);
    for r in &rows {
        assert!(r.host.exec_time_seconds > 0.0, "{}", r.workload);
        assert!(r.host.energy_joules > 0.0, "{}", r.workload);
    }
}

#[test]
fn fig7_rows_and_aggregates() {
    let c = ctx(vec![Workload::Gemv, Workload::Mvt, Workload::Syrk]);
    let result = fig7::run(&c, &NapelConfig::untuned(), &ModelIo::none(), &exec()).expect("fig7");
    assert_eq!(result.rows.len(), 3);
    assert!(result.average_edp_mre().is_finite());
    assert!(result.agreements() <= 3);
    let rendered = fig7::render(&result);
    assert!(rendered.contains("suitability agreement"));
}

#[test]
fn fig7_pinned_laptop_scale_suitability_agreement() {
    // Regression pin for the recorded laptop-scale run (`harness_output.txt`
    // "== Figure 7 =="): the EDP reductions below are the recorded NAPEL
    // (predicted) and simulator (actual) values, fed back through the real
    // aggregation logic. Guards two documented facts: suitability agreement
    // is 9/12 (paper: 12/12 — see EXPERIMENTS.md), and atax is the worst
    // outlier at ~98.3% EDP MRE while still being correctly simulated as
    // NMC-suitable.
    use napel::core::analysis::SuitabilityRow;
    let recorded = [
        (Workload::Atax, 0.07, 3.80),
        (Workload::Bfs, 0.93, 1.55),
        (Workload::Bp, 1.37, 1.90),
        (Workload::Chol, 2.55, 2.44),
        (Workload::Gemv, 0.06, 0.49),
        (Workload::Gesu, 0.04, 0.02),
        (Workload::Gram, 1.82, 3.66),
        (Workload::Kme, 0.01, 1.65),
        (Workload::Lu, 0.02, 0.07),
        (Workload::Mvt, 0.05, 0.02),
        (Workload::Syrk, 0.02, 0.15),
        (Workload::Trmm, 0.02, 0.06),
    ];
    let rows = recorded
        .iter()
        .map(|&(workload, predicted, actual)| SuitabilityRow {
            workload,
            host_time_s: 1.0,
            host_energy_j: 1.0,
            nmc_pred_time_s: 1.0 / predicted,
            nmc_pred_energy_j: 1.0,
            nmc_actual_time_s: 1.0 / actual,
            nmc_actual_energy_j: 1.0,
        })
        .collect::<Vec<_>>();
    let result = fig7::Fig7Result { rows };

    assert!(
        result.agreements() >= 9,
        "suitability agreement regressed below the recorded 9/12: {}/12",
        result.agreements()
    );
    assert_eq!(
        result.agreements(),
        9,
        "recorded run agrees on exactly 9/12"
    );

    let atax = &result.rows[0];
    assert!(!atax.suitability_agrees(), "atax is a recorded miss");
    assert!(
        atax.edp_reduction_actual() > 1.0,
        "the simulator deems atax NMC-suitable"
    );
    assert!(
        (atax.edp_mre() - 0.983).abs() < 0.01,
        "atax EDP MRE {:.3} drifted from the recorded 98.3%",
        atax.edp_mre()
    );
    assert!(
        (result.average_edp_mre() - 0.732).abs() < 0.02,
        "average EDP MRE {:.3} drifted from the recorded 73.2%",
        result.average_edp_mre()
    );
    assert!(fig7::render(&result).contains("suitability agreement 9/12"));
}

#[test]
fn ablation_samplers_and_sweep_run() {
    let apps = [Workload::Atax, Workload::Mvt];
    let none = ModelIo::none();
    let samplers =
        ablation::sampler_ablation(&apps, Scale::tiny(), 3, &none, &exec()).expect("samplers");
    assert_eq!(samplers.rows.len(), ablation::Sampler::ALL.len());
    let ccd = ablation::Sampler::Ccd;
    let set = ablation::collect_with_sampler(&apps, ccd, Scale::tiny(), 3, &exec())
        .expect("CCD collection");
    let sweep = ablation::forest_size_sweep(&set, &[10, 40], 3, &none, &exec()).expect("sweep");
    assert_eq!(sweep.points.len(), 2);
}

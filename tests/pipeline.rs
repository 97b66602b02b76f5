//! End-to-end integration tests for the NAPEL pipeline: collection →
//! training → prediction of unseen applications, across crates.

use napel::core::campaign::AnyExecutor;
use napel::core::collect::{arch_neighborhood, collect, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::core::features::{combined_feature_names, TrainingSet};
use napel::core::model::{Napel, NapelConfig};
use napel::pisa::ApplicationProfile;
use napel::sim::{ArchConfig, NmcSystem};
use napel::workloads::{Scale, Workload};

/// The plan's training set, collected on the `NAPEL_JOBS` executor.
fn collect_clean(plan: &CollectionPlan) -> TrainingSet {
    collect(plan, &AnyExecutor::from_env(), &CampaignOptions::default())
        .expect("clean campaign")
        .0
}

fn tiny_plan(workloads: Vec<Workload>) -> CollectionPlan {
    CollectionPlan {
        workloads,
        scale: Scale::tiny(),
        ..Default::default()
    }
}

#[test]
fn held_out_configuration_prediction_is_accurate() {
    // Train on the DoE points of three applications, then predict an
    // *off-DoE* configuration of one of them (interpolation within known
    // applications — the easy case that must work well).
    let plan = tiny_plan(vec![Workload::Atax, Workload::Gemv, Workload::Mvt]);
    let set = collect_clean(&plan);
    let trained = Napel::new(NapelConfig::untuned())
        .train(&set)
        .expect("train");

    // atax between the low and central levels, off every CCD point.
    let params = vec![1300.0, 12.0];
    let trace = Workload::Atax.generate(&params, Scale::tiny());
    let profile = ApplicationProfile::of(&trace);
    let arch = ArchConfig::paper_default();
    let pred = trained.predict(&profile, &arch);
    let actual = NmcSystem::new(arch).run(&trace);

    let rel = (pred.ipc - actual.ipc()).abs() / actual.ipc();
    assert!(
        rel < 0.5,
        "interpolated IPC prediction off by {:.0}% ({} vs {})",
        rel * 100.0,
        pred.ipc,
        actual.ipc()
    );
}

#[test]
fn unseen_application_prediction_lands_in_the_right_decade() {
    // Unseen-application prediction is the paper's hard case; shrunken
    // inputs sit near cache-thrash IPC cliffs that make it harder still.
    // This smoke test only pins the prediction to the right order of
    // magnitude; the quantitative claim (Figure 5 MREs) is reproduced by
    // the laptop-scale `fig5` binary and recorded in EXPERIMENTS.md.
    let plan = tiny_plan(vec![
        Workload::Gemv,
        Workload::Gesu,
        Workload::Syrk,
        Workload::Bfs,
        Workload::Kme,
    ]);
    let set = collect_clean(&plan);
    let trained = Napel::new(NapelConfig::untuned())
        .train(&set)
        .expect("train");

    let trace = Workload::Trmm.generate(&Workload::Trmm.spec().central_values(), Scale::tiny());
    let profile = ApplicationProfile::of(&trace);
    let arch = ArchConfig::paper_default();
    let pred = trained.predict(&profile, &arch);
    let actual = NmcSystem::new(arch).run(&trace);

    assert!(pred.ipc > 0.0 && pred.ipc <= 32.0);
    assert!(
        pred.ipc / actual.ipc() < 30.0 && actual.ipc() / pred.ipc < 30.0,
        "unseen prediction out of range: {} vs {}",
        pred.ipc,
        actual.ipc()
    );
    assert!(pred.energy_per_inst_pj > 0.0);
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let plan = tiny_plan(vec![Workload::Atax, Workload::Mvt]);
    let (a, b) = (collect_clean(&plan), collect_clean(&plan));
    assert_eq!(a.runs.len(), b.runs.len());
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra.features, rb.features, "collection must be deterministic");
        assert_eq!(ra.ipc, rb.ipc);
    }
    let ta = Napel::new(NapelConfig::untuned())
        .train(&a)
        .expect("train a");
    let tb = Napel::new(NapelConfig::untuned())
        .train(&b)
        .expect("train b");
    let arch = ArchConfig::paper_default();
    let x = &a.runs[0].features;
    assert_eq!(
        ta.predict_features(x, &arch).ipc,
        tb.predict_features(x, &arch).ipc,
        "training must be deterministic"
    );
}

#[test]
fn feature_vector_layout_is_consistent_across_crates() {
    let names = combined_feature_names();
    assert_eq!(
        names.len(),
        napel::pisa::feature_names().len() + ArchConfig::feature_names().len()
    );
    // No duplicates across the profile/arch boundary.
    let set: std::collections::HashSet<&String> = names.iter().collect();
    assert_eq!(set.len(), names.len());

    // A collected row carries exactly that many features.
    let plan = tiny_plan(vec![Workload::Atax]);
    let collected = collect_clean(&plan);
    assert_eq!(collected.runs[0].features.len(), names.len());
}

#[test]
fn architecture_variation_shows_up_in_labels() {
    let plan = CollectionPlan {
        workloads: vec![Workload::Gemv],
        arch_configs: arch_neighborhood(),
        scale: Scale::tiny(),
    };
    let set = collect_clean(&plan);
    // For a fixed input configuration, different architectures must
    // produce different IPC labels (otherwise DSE would be vacuous).
    let first_point: Vec<&napel::core::features::LabeledRun> =
        set.runs.iter().take(arch_neighborhood().len()).collect();
    let distinct: std::collections::HashSet<u64> =
        first_point.iter().map(|r| r.ipc.to_bits()).collect();
    assert!(distinct.len() > 1, "arch sweep produced identical IPCs");
}

#[test]
fn predicted_time_formula_matches_simulator_units() {
    // For a *training* configuration the predicted execution time should be
    // within a small factor of the simulated one (in-sample sanity).
    let plan = tiny_plan(vec![Workload::Syrk, Workload::Trmm]);
    let set = collect_clean(&plan);
    let trained = Napel::new(NapelConfig::untuned())
        .train(&set)
        .expect("train");

    let params = Workload::Syrk.spec().central_values();
    let trace = Workload::Syrk.generate(&params, Scale::tiny());
    let profile = ApplicationProfile::of(&trace);
    let arch = ArchConfig::paper_default();
    let pred = trained.predict(&profile, &arch);
    let report = NmcSystem::new(arch).run(&trace);

    let t_pred = pred.exec_time_seconds(trace.total_insts() as u64);
    let t_sim = report.exec_time_seconds();
    let ratio = t_pred / t_sim;
    assert!(
        (0.3..3.0).contains(&ratio),
        "in-sample time prediction ratio {ratio} ({t_pred} vs {t_sim})"
    );
}

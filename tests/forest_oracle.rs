//! `TrainedNapel` against the frozen former forest of
//! `crates/ml/tests/oracle`: `predict_batch`, `predict_row`,
//! `predict_features` and `predict_with_uncertainty` equal by `to_bits` to
//! the former walks (two `predict_many` passes plus `prediction_std_many`
//! per batch), and every bundle re-encoded byte for byte.
//!
//! Two model sets: NAPEL trained untuned on a 144-row set (12 applications
//! × 2 cheap CCD points × the 6 campaign architectures, the training set of
//! the pipeline benchmark), and every bundle `fig4 --quick --scale tiny
//! --configs 4 --model-out` writes. Both collect and train in release
//! only; debug builds check the 144-row recipe on two applications.

use std::path::{Path, PathBuf};

use napel::core::artifact::{read_artifacts, ModelIo};
use napel::core::campaign::{run_supervised, Serial, SimJob};
use napel::core::collect::{arch_neighborhood, doe_points, evaluation_plan};
use napel::core::experiments::{fig4, Context};
use napel::core::fault::CampaignOptions;
use napel::core::features::{combined_feature_names, combined_features, TrainingSet};
use napel::core::model::{Napel, NapelConfig, TrainedNapel};
use napel::ir::CountingSink;
use napel::pisa::ApplicationProfile;
use napel::workloads::{Scale, Workload};

#[allow(dead_code)]
#[path = "../crates/ml/tests/oracle/mod.rs"]
mod oracle;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("napel-forest-oracle-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// For every application of `apps`, the CCD points at the terciles of its
/// cheapest third by instruction count, on the six campaign architectures.
fn training_set(apps: &[Workload]) -> TrainingSet {
    let archs = arch_neighborhood();
    let mut jobs = Vec::new();
    for &w in apps {
        let mut points: Vec<(u64, Vec<f64>)> = doe_points(&w.spec(), true)
            .into_iter()
            .map(|p| {
                let mut sink = CountingSink::new();
                w.generate_into(p.coords(), Scale::tiny(), &mut sink);
                (sink.total(), p.coords().to_vec())
            })
            .collect();
        points.sort_by_key(|p| p.0);
        let third = points.len() / 3;
        for coords in [&points[third / 3].1, &points[2 * third / 3].1] {
            for arch in &archs {
                jobs.push(SimJob {
                    index: jobs.len(),
                    workload: w,
                    coords: coords.clone(),
                    arch: arch.clone(),
                    scale: Scale::tiny(),
                });
            }
        }
    }
    let (runs, report) =
        run_supervised(&Serial, &jobs, &CampaignOptions::quarantine()).expect("campaign");
    assert!(report.is_clean());
    assert_eq!(runs.len(), apps.len() * 12);
    TrainingSet {
        feature_names: combined_feature_names(),
        runs,
        stats: Default::default(),
    }
}

/// The bundle at `path` rebuilt as the former forests (IPC, energy).
fn oracle_forests(path: &Path) -> (oracle::Forest, oracle::Forest) {
    let artifacts = read_artifacts(path).expect("bundle reads");
    assert_eq!(artifacts.len(), 2);
    (
        oracle::Forest::decode(artifacts[0].payload()),
        oracle::Forest::decode(artifacts[1].payload()),
    )
}

/// Asserts that `model`, saved at `path`, predicts every row exactly as
/// the former forests do, in whole batches and in the serve workload's
/// batch sizes, and that loading and saving it again reproduces the
/// bundle's bytes.
fn assert_matches_oracle(model: &TrainedNapel, path: &Path, rows: &[Vec<f64>]) {
    let (perf, energy) = oracle_forests(path);
    let want = oracle::predict_batch(&perf, &energy, rows);
    let loaded = TrainedNapel::load(path).expect("bundle loads");
    for m in [model, &loaded] {
        for size in [rows.len(), 18, 7, 1] {
            for (c, chunk) in rows.chunks(size).enumerate() {
                let got = m.predict_batch(chunk).expect("valid rows");
                for (k, (pred, spread)) in got.iter().enumerate() {
                    let (ipc, energy_pj, want_spread) = want[c * size + k];
                    assert_eq!(pred.ipc.to_bits(), ipc.to_bits());
                    assert_eq!(pred.energy_per_inst_pj.to_bits(), energy_pj.to_bits());
                    assert_eq!(spread.to_bits(), want_spread.to_bits());
                }
            }
        }
        for (x, &(ipc, energy_pj, _)) in rows.iter().zip(&want) {
            let row = m.predict_row(x).expect("valid row");
            assert_eq!(row.ipc.to_bits(), ipc.to_bits());
            assert_eq!(row.energy_per_inst_pj.to_bits(), energy_pj.to_bits());
        }
    }
    let again = path.with_extension("again.napel");
    loaded.save(&again).expect("re-save");
    assert_eq!(
        std::fs::read(path).unwrap(),
        std::fs::read(&again).unwrap(),
        "{} re-encodes byte-identically",
        path.display()
    );
}

/// Trains NAPEL untuned on [`training_set`]`(apps)` and checks every
/// entry point against the oracle: the training rows, and each
/// application's test input on every campaign architecture.
fn assert_untuned_model_matches_oracle(apps: &[Workload], name: &str) {
    let set = training_set(apps);
    let model = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
    let dir = scratch_dir(name);
    let path = dir.join("untuned.napel");
    model.save(&path).unwrap();
    let rows: Vec<Vec<f64>> = set.runs.iter().map(|r| r.features.clone()).collect();
    assert_matches_oracle(&model, &path, &rows);

    let (perf, energy) = oracle_forests(&path);
    for &w in apps {
        let profile = ApplicationProfile::of(&w.generate_test(Scale::tiny()));
        for arch in arch_neighborhood() {
            let x = combined_features(&profile, &arch);
            let (ipc, energy_pj, spread) = oracle::predict_with_uncertainty(&perf, &energy, &x);
            let (pred, got_spread) = model.predict_with_uncertainty(&profile, &arch);
            assert_eq!(pred.ipc.to_bits(), ipc.to_bits(), "{}", w.name());
            assert_eq!(pred.energy_per_inst_pj.to_bits(), energy_pj.to_bits());
            assert_eq!(got_spread.to_bits(), spread.to_bits());
            let features = model.predict_features(&x, &arch);
            assert_eq!(features.ipc.to_bits(), ipc.to_bits());
            assert_eq!(features.energy_per_inst_pj.to_bits(), energy_pj.to_bits());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release: CI forest equivalence")]
fn trained_napel_matches_the_frozen_forest_on_the_144_row_set() {
    assert_untuned_model_matches_oracle(&Workload::ALL, "144");
}

#[test]
fn trained_napel_matches_the_frozen_forest_on_two_applications() {
    assert_untuned_model_matches_oracle(&[Workload::Atax, Workload::Gemv], "24");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release: CI forest equivalence")]
fn every_fig4_tiny_bundle_matches_the_frozen_forest() {
    // `fig4 --quick --scale tiny --configs 4 --model-out DIR` at the
    // default seed.
    let seed = 25019;
    let plan = evaluation_plan(Workload::ALL.to_vec(), Scale::tiny());
    let (ctx, _) = Context::build(&plan, seed, &Serial, &CampaignOptions::default()).unwrap();
    let dir = scratch_dir("fig4");
    let config = NapelConfig {
        seed,
        ..NapelConfig::untuned()
    };
    let io = ModelIo::new(Some(dir.clone()), None);
    fig4::run(&ctx, &config, 4, &io, &Serial).unwrap();
    let rows: Vec<Vec<f64>> = ctx
        .training
        .runs
        .iter()
        .map(|r| r.features.clone())
        .collect();
    let workloads = ctx.training.workloads();
    assert_eq!(workloads.len(), 12);
    for w in workloads {
        let path = ModelIo::bundle_path(&dir, &format!("fig4-{}", w.name()));
        let model = TrainedNapel::load(&path).expect("fig4 saved the bundle");
        assert_matches_oracle(&model, &path, &rows);
    }
    std::fs::remove_dir_all(&dir).ok();
}

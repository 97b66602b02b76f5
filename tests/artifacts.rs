//! Integration tests for the model-artifact layer: train → save → load →
//! predict must be bit-identical to never leaving memory, for every
//! estimator family and through the experiment drivers.

use std::path::{Path, PathBuf};

use napel::core::artifact::{read_artifacts, ModelArtifact, ModelIo, Provenance, TargetKind};
use napel::core::campaign::{AnyExecutor, Serial};
use napel::core::collect::CollectionPlan;
use napel::core::experiments::{fig4, fig5, Context};
use napel::core::fault::CampaignOptions;
use napel::core::features::TrainingSet;
use napel::core::model::{Napel, NapelConfig, TrainedNapel};
use napel::core::NapelError;
use napel::ml::forest::RandomForestParams;
use napel::ml::linear::RidgeParams;
use napel::ml::log_space::LogOf;
use napel::ml::mlp::MlpParams;
use napel::ml::model_tree::ModelTreeParams;
use napel::ml::persist::Predictor;
use napel::ml::tree::DecisionTreeParams;
use napel::ml::{Estimator, Regressor};
use napel::workloads::{Scale, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("napel-artifacts-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_plan() -> CollectionPlan {
    CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv],
        scale: Scale::tiny(),
        ..Default::default()
    }
}

fn tiny_set() -> TrainingSet {
    tiny_context(0).training
}

/// The atax + gemv context on one architecture, collected on the
/// `NAPEL_JOBS` executor.
fn tiny_context(seed: u64) -> Context {
    let opts = CampaignOptions::default();
    Context::build(&tiny_plan(), seed, &AnyExecutor::from_env(), &opts)
        .expect("clean campaign")
        .0
}

/// Fits one estimator, round-trips it through a saved artifact, and
/// asserts the reloaded model predicts bit-identically on every training
/// row.
fn assert_family_round_trips<E>(estimator: &E, set: &TrainingSet, dir: &Path)
where
    E: Estimator,
    E::Model: Predictor,
{
    let mut rng = StdRng::seed_from_u64(11);
    let model = estimator
        .fit(&set.ipc_dataset().expect("dataset"), &mut rng)
        .unwrap_or_else(|e| panic!("{}: fit failed: {e}", estimator.describe()));
    let kind = model.model_kind();

    let artifact = ModelArtifact::from_predictor(
        TargetKind::Ipc,
        set.feature_names.clone(),
        Provenance {
            seed: 11,
            grid: vec![estimator.describe()],
            workloads: set
                .workloads()
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
            training_rows: set.runs.len(),
            training_hash: set.content_hash(),
        },
        None,
        &model,
    )
    .expect("schema-consistent artifact");

    let path = dir.join(format!("{}.model", kind.replace(['(', ')'], "_")));
    artifact.save(&path).expect("save");
    let loaded = ModelArtifact::load(&path).expect("load");
    loaded
        .expect_schema(TargetKind::Ipc, &set.feature_names)
        .expect("schema survives the round trip");
    let decoded = loaded.predictor().expect("decode");
    assert_eq!(decoded.model_kind(), kind);

    for run in &set.runs {
        assert_eq!(
            model.predict_one(&run.features).to_bits(),
            decoded.predict_one(&run.features).to_bits(),
            "{kind}: prediction must survive the round trip bit for bit"
        );
    }
}

#[test]
fn every_estimator_family_round_trips_bit_identically() {
    let set = tiny_set();
    let dir = scratch_dir("families");

    let forest = RandomForestParams {
        num_trees: 10,
        ..Default::default()
    };
    let mlp = MlpParams {
        hidden: vec![8],
        epochs: 40,
        ..Default::default()
    };
    assert_family_round_trips(&forest, &set, &dir);
    assert_family_round_trips(&DecisionTreeParams::default(), &set, &dir);
    assert_family_round_trips(&ModelTreeParams::default(), &set, &dir);
    assert_family_round_trips(&mlp, &set, &dir);
    assert_family_round_trips(&RidgeParams::default(), &set, &dir);
    // The log-space wrappers the pipeline actually trains.
    assert_family_round_trips(&LogOf(forest), &set, &dir);
    assert_family_round_trips(&LogOf(ModelTreeParams::default()), &set, &dir);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trained_napel_bundle_round_trips_and_predicts_in_batch() {
    let set = tiny_set();
    let trained = Napel::new(NapelConfig::untuned())
        .train(&set)
        .expect("train");
    let dir = scratch_dir("bundle");
    let path = dir.join("napel.napel");
    trained.save(&path).expect("save");
    let loaded = TrainedNapel::load(&path).expect("load");

    let rows: Vec<Vec<f64>> = set.runs.iter().map(|r| r.features.clone()).collect();
    let direct = trained.predict_batch(&rows).expect("direct batch");
    let via_artifact = loaded.predict_batch(&rows).expect("loaded batch");
    assert_eq!(direct.len(), via_artifact.len());
    for ((a, sa), (b, sb)) in direct.iter().zip(&via_artifact) {
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
        assert_eq!(
            a.energy_per_inst_pj.to_bits(),
            b.energy_per_inst_pj.to_bits()
        );
        assert_eq!(sa.to_bits(), sb.to_bits(), "per-tree spread survives too");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig5_through_artifacts_reproduces_direct_mres_exactly() {
    // The acceptance bar: a fig5-style evaluation run from loaded
    // artifacts reproduces the direct path's MREs exactly (same seed) —
    // across all three estimator families of the comparison.
    let ctx = tiny_context(3);
    let direct = fig5::run(&ctx, &ModelIo::none(), &Serial).expect("direct");

    let dir = scratch_dir("fig5");
    let saved =
        fig5::run(&ctx, &ModelIo::new(Some(dir.clone()), None), &Serial).expect("save pass");
    assert_eq!(direct, saved, "saving must not perturb the evaluation");

    let loaded =
        fig5::run(&ctx, &ModelIo::new(None, Some(dir.clone())), &Serial).expect("load pass");
    assert_eq!(
        direct, loaded,
        "artifact-loaded evaluation must reproduce every MRE exactly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig4_saves_per_workload_bundles_the_load_path_consumes() {
    let ctx = tiny_context(2);
    let config = NapelConfig::untuned();
    let dir = scratch_dir("fig4");

    let saved_rows = fig4::run(
        &ctx,
        &config,
        4,
        &ModelIo::new(Some(dir.clone()), None),
        &Serial,
    )
    .expect("save pass");
    for w in ["atax", "gemv"] {
        assert!(
            dir.join(format!("fig4-{w}.napel")).is_file(),
            "fig4 must emit one bundle per workload"
        );
    }

    // The load pass consumes the bundles (no training); timings are
    // wall-clock so only the structure is compared.
    let loaded_rows = fig4::run(
        &ctx,
        &config,
        4,
        &ModelIo::new(None, Some(dir.clone())),
        &Serial,
    )
    .expect("load pass");
    assert_eq!(saved_rows.len(), loaded_rows.len());
    for (a, b) in saved_rows.iter().zip(&loaded_rows) {
        assert_eq!(a.workload, b.workload);
        assert!(b.speedup() > 0.0);
    }

    // And the stored bundle is exactly the model the direct path trains.
    let direct = Napel::new(config)
        .train(&ctx.training.filtered(|w| w != Workload::Atax))
        .expect("train");
    let stored = TrainedNapel::load(dir.join("fig4-atax.napel")).expect("load");
    for run in &ctx.training.runs {
        assert_eq!(
            direct.predict_row(&run.features).unwrap().ipc.to_bits(),
            stored.predict_row(&run.features).unwrap().ipc.to_bits()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mismatched_artifacts_fail_with_typed_errors() {
    let set = tiny_set();
    let trained = Napel::new(NapelConfig::untuned())
        .train(&set)
        .expect("train");
    let dir = scratch_dir("errors");
    let path = dir.join("model.napel");
    trained.save(&path).expect("save");

    // Version mismatch: a future format version must be refused.
    let text = std::fs::read_to_string(&path).unwrap();
    let future = text.replace("napel-model-artifact v1", "napel-model-artifact v9");
    let bad = dir.join("future.napel");
    std::fs::write(&bad, future).unwrap();
    let err = TrainedNapel::load(&bad).unwrap_err();
    assert!(matches!(err, NapelError::Artifact { .. }), "{err}");
    assert!(err.to_string().contains("unsupported"), "{err}");

    // Schema mismatch: an artifact trained on different features must be
    // refused with the offending feature named.
    let renamed = text.replacen("mix.op.", "mix.xp.", 1);
    let bad = dir.join("renamed.napel");
    std::fs::write(&bad, renamed).unwrap();
    let err = TrainedNapel::load(&bad).unwrap_err();
    assert!(matches!(err, NapelError::Artifact { .. }), "{err}");
    assert!(err.to_string().contains("mix.xp."), "{err}");

    // Target mismatch: energy artifact first is refused, not mispredicted.
    let artifacts = read_artifacts(&path).unwrap();
    let swapped = format!(
        "{}{}",
        artifacts[1].to_document(),
        artifacts[0].to_document()
    );
    let bad = dir.join("swapped.napel");
    std::fs::write(&bad, swapped).unwrap();
    let err = TrainedNapel::load(&bad).unwrap_err();
    assert!(
        err.to_string().contains("predicts energy_per_inst"),
        "{err}"
    );

    // Corrupt payload: truncation inside the forest is a decode error.
    let truncated: String = text.lines().take(40).collect::<Vec<_>>().join("\n");
    let bad = dir.join("truncated.napel");
    std::fs::write(&bad, truncated).unwrap();
    assert!(TrainedNapel::load(&bad).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_io_none_is_inert_and_load_requires_the_bundle() {
    let io = ModelIo::none();
    assert!(io.is_none());
    let set = tiny_set();
    let trained = io
        .train_or_load("unused-key", || {
            Napel::new(NapelConfig::untuned()).train(&set)
        })
        .expect("plain training path");
    assert_eq!(trained.feature_names().len(), set.feature_names.len());

    let missing = ModelIo::new(None, Some(std::env::temp_dir().join("napel-no-such-dir")));
    let err = missing
        .train_or_load("nope", || Napel::new(NapelConfig::untuned()).train(&set))
        .unwrap_err();
    assert!(
        matches!(err, NapelError::Artifact { .. }),
        "a load policy must not silently fall back to training: {err}"
    );
}

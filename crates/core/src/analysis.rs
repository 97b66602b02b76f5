//! Accuracy analysis (Section 3.3) and the NMC-suitability use case
//! (Section 3.4).

use rand::rngs::StdRng;
use rand::SeedableRng;

use napel_ml::metrics::mean_relative_error;
use napel_ml::persist::Predictor;
use napel_ml::{Estimator, Regressor};
use napel_pisa::ApplicationProfile;
use napel_workloads::{Scale, Workload};
use nmc_sim::{ArchConfig, NmcSystem};

use napel_hostmodel::HostModel;

use crate::artifact::{self, ModelArtifact, ModelIo, Provenance, TargetKind};
use crate::campaign::{catch_job_panic, Executor};
use crate::fault::{JobFailure, JobFailureKind};
use crate::features::TrainingSet;
use crate::model::{Napel, NapelConfig};
use crate::NapelError;

/// Converts a caught fold panic into a provenance-carrying error: which
/// held-out application's fold died, and with what payload. A panicking
/// estimator must not take down the whole evaluation protocol.
fn fold_panic(index: usize, held_out: Workload, stage: &str, message: String) -> NapelError {
    NapelError::Job(JobFailure {
        index,
        workload: held_out.name().to_string(),
        params: Vec::new(),
        arch: stage.to_string(),
        kind: JobFailureKind::Panic(message),
    })
}

/// Leave-one-application-out accuracy of one estimator for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LoaoResult {
    /// The held-out application.
    pub workload: Workload,
    /// MRE of IPC predictions on the held-out application.
    pub perf_mre: f64,
    /// MRE of energy predictions on the held-out application.
    pub energy_mre: f64,
}

/// A fold's pair of decoded predictors: IPC first, energy second.
type FoldModels = (
    Box<dyn Predictor + Send + Sync>,
    Box<dyn Predictor + Send + Sync>,
);

/// Loads a two-artifact fold bundle and validates it against `set`'s
/// schema, returning the IPC and energy predictors.
fn load_fold_models(path: &std::path::Path, set: &TrainingSet) -> Result<FoldModels, NapelError> {
    let artifacts = artifact::read_artifacts(path)?;
    if artifacts.len() != 2 {
        return Err(NapelError::Artifact {
            path: path.display().to_string(),
            what: format!(
                "bundle holds {} artifacts, expected ipc + energy_per_inst",
                artifacts.len()
            ),
        });
    }
    artifacts[0].expect_schema(TargetKind::Ipc, &set.feature_names)?;
    artifacts[1].expect_schema(TargetKind::EnergyPerInst, &set.feature_names)?;
    Ok((artifacts[0].predictor()?, artifacts[1].predictor()?))
}

/// Saves a fold's fitted models as a two-artifact bundle under `dir`.
fn save_fold_models(
    dir: &std::path::Path,
    key: &str,
    seed: u64,
    describe: String,
    train: &TrainingSet,
    schema: &[String],
    models: (&dyn Predictor, &dyn Predictor),
) -> Result<(), NapelError> {
    let (perf_model, energy_model) = models;
    std::fs::create_dir_all(dir).map_err(|e| NapelError::Artifact {
        path: dir.display().to_string(),
        what: format!("create failed: {e}"),
    })?;
    let provenance = Provenance {
        seed,
        grid: vec![describe],
        workloads: train
            .workloads()
            .iter()
            .map(|w| w.name().to_string())
            .collect(),
        training_rows: train.runs.len(),
        training_hash: train.content_hash(),
    };
    let perf = ModelArtifact::from_predictor(
        TargetKind::Ipc,
        schema.to_vec(),
        provenance.clone(),
        None,
        perf_model,
    )?;
    let energy = ModelArtifact::from_predictor(
        TargetKind::EnergyPerInst,
        schema.to_vec(),
        provenance,
        None,
        energy_model,
    )?;
    artifact::write_artifacts(&ModelIo::bundle_path(dir, key), &[&perf, &energy])?;
    Ok(())
}

/// Leave-one-application-out evaluation of an arbitrary estimator — the
/// protocol of Section 3.3: "every time we test for a particular
/// application, we do not include it in the training set".
///
/// The folds — one per application — form one job batch on `exec`, each
/// fold re-seeding its own RNG from `seed`, so results are identical for
/// any executor and worker count. With a save directory in `io`, each
/// fold's fitted models are persisted as
/// `<dir>/<key_prefix>-<workload>.napel`; with a load directory, folds
/// skip training entirely and evaluate the stored models (which reproduce
/// the direct path's MREs bit for bit, same seed). [`ModelIo::none`]
/// neither saves nor loads.
///
/// # Errors
///
/// Returns [`NapelError`] if the set holds fewer than two applications or
/// an estimator fails to fit, and [`NapelError::Artifact`] for save/load
/// failures or schema mismatches.
pub fn loao_accuracy<E, X>(
    estimator: &E,
    set: &TrainingSet,
    seed: u64,
    io: &ModelIo,
    key_prefix: &str,
    exec: &X,
) -> Result<Vec<LoaoResult>, NapelError>
where
    E: Estimator + Sync,
    E::Model: Predictor + Send + Sync + 'static,
    X: Executor,
{
    let workloads = set.workloads();
    if workloads.len() < 2 {
        return Err(NapelError::BadTrainingSet {
            what: "leave-one-application-out needs at least two applications".into(),
        });
    }
    let folds = exec.map(&workloads, |i, &held_out| {
        // A panicking fit in one fold is isolated and surfaced as an
        // error naming the fold, not a process abort.
        catch_job_panic(|| {
            let key = format!("{key_prefix}-{}", held_out.name());
            let test = set.filtered(|w| w == held_out);
            let (perf_model, energy_model): (
                Box<dyn Predictor + Send + Sync>,
                Box<dyn Predictor + Send + Sync>,
            ) = if let Some(dir) = io.load_dir() {
                load_fold_models(&ModelIo::bundle_path(dir, &key), set)?
            } else {
                let train = set.filtered(|w| w != held_out);
                let mut rng = StdRng::seed_from_u64(seed);
                let perf_model = estimator.fit(&train.ipc_dataset()?, &mut rng)?;
                let energy_model = estimator.fit(&train.energy_dataset()?, &mut rng)?;
                if let Some(dir) = io.save_dir() {
                    save_fold_models(
                        dir,
                        &key,
                        seed,
                        estimator.describe(),
                        &train,
                        &set.feature_names,
                        (&perf_model, &energy_model),
                    )?;
                }
                (Box::new(perf_model), Box::new(energy_model))
            };

            let perf_pred: Vec<f64> = test
                .runs
                .iter()
                .map(|r| perf_model.predict_one(&r.features))
                .collect();
            let perf_actual: Vec<f64> = test.runs.iter().map(|r| r.ipc).collect();
            let energy_pred: Vec<f64> = test
                .runs
                .iter()
                .map(|r| energy_model.predict_one(&r.features))
                .collect();
            let energy_actual: Vec<f64> = test.runs.iter().map(|r| r.energy_per_inst_pj).collect();

            Ok(LoaoResult {
                workload: held_out,
                perf_mre: mean_relative_error(&perf_pred, &perf_actual),
                energy_mre: mean_relative_error(&energy_pred, &energy_actual),
            })
        })
        .unwrap_or_else(|message| Err(fold_panic(i, held_out, "loao fold", message)))
    });
    folds.into_iter().collect()
}

/// Mean over per-application MREs.
pub fn average_mre(results: &[LoaoResult]) -> (f64, f64) {
    let n = results.len().max(1) as f64;
    (
        results.iter().map(|r| r.perf_mre).sum::<f64>() / n,
        results.iter().map(|r| r.energy_mre).sum::<f64>() / n,
    )
}

/// One workload's row of the Figure 6/7 analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SuitabilityRow {
    /// The workload, evaluated at its Table 2 *test* input.
    pub workload: Workload,
    /// Host execution time, seconds (Figure 6).
    pub host_time_s: f64,
    /// Host energy, joules (Figure 6).
    pub host_energy_j: f64,
    /// NAPEL-predicted NMC execution time, seconds.
    pub nmc_pred_time_s: f64,
    /// NAPEL-predicted NMC energy, joules.
    pub nmc_pred_energy_j: f64,
    /// Simulated ("Actual") NMC execution time, seconds.
    pub nmc_actual_time_s: f64,
    /// Simulated NMC energy, joules.
    pub nmc_actual_energy_j: f64,
}

impl SuitabilityRow {
    /// Estimated EDP reduction `EDP_host / EDP_NMC` from NAPEL's
    /// prediction (the "NAPEL" bar of Figure 7). Values above 1 mean the
    /// workload is NMC-suitable.
    pub fn edp_reduction_predicted(&self) -> f64 {
        (self.host_time_s * self.host_energy_j) / (self.nmc_pred_time_s * self.nmc_pred_energy_j)
    }

    /// EDP reduction from the simulator (the "Actual" bar of Figure 7).
    pub fn edp_reduction_actual(&self) -> f64 {
        (self.host_time_s * self.host_energy_j)
            / (self.nmc_actual_time_s * self.nmc_actual_energy_j)
    }

    /// Relative error of NAPEL's EDP estimate vs the simulator's.
    pub fn edp_mre(&self) -> f64 {
        let pred = self.edp_reduction_predicted();
        let actual = self.edp_reduction_actual();
        (pred - actual).abs() / actual.abs().max(1e-12)
    }

    /// Whether NAPEL and the simulator agree on NMC suitability
    /// (the paper's first observation on Figure 7).
    pub fn suitability_agrees(&self) -> bool {
        (self.edp_reduction_predicted() > 1.0) == (self.edp_reduction_actual() > 1.0)
    }
}

/// Runs the Section 3.4 use case for every workload in `set`: train NAPEL
/// without the workload, predict its *test*-input EDP on `arch`, compare
/// against simulation and the host model.
///
/// One job per held-out application (train-without, predict, simulate,
/// host-model) runs on `exec`, results in workload order for any
/// executor. Each held-out application's trained NAPEL instance is saved
/// as (or loaded from) `<dir>/<key_prefix>-<workload>.napel` per `io`.
/// With a load directory the training step is skipped and the predicted
/// columns reproduce the direct path bit for bit (host/simulator columns
/// are recomputed either way).
///
/// # Errors
///
/// Propagates training failures; [`NapelError::Artifact`] for save/load
/// failures or schema mismatches.
pub fn nmc_suitability<X: Executor>(
    set: &TrainingSet,
    config: &NapelConfig,
    arch: &ArchConfig,
    scale: Scale,
    io: &ModelIo,
    key_prefix: &str,
    exec: &X,
) -> Result<Vec<SuitabilityRow>, NapelError> {
    let host = HostModel::power9(scale);
    let rows = exec.map(&set.workloads(), |i, &held_out| {
        catch_job_panic(|| {
            let key = format!("{key_prefix}-{}", held_out.name());
            let trained = io.train_or_load(&key, || {
                let train = set.filtered(|w| w != held_out);
                Napel::new(config.clone()).train(&train)
            })?;

            let trace = held_out.generate_test(scale);
            let profile = ApplicationProfile::of(&trace);
            let instructions = trace.total_insts() as u64;

            let pred = trained.predict(&profile, arch);
            let report = NmcSystem::new(arch.clone()).run(&trace);
            let host_report = host.evaluate(&profile);

            Ok(SuitabilityRow {
                workload: held_out,
                host_time_s: host_report.exec_time_seconds,
                host_energy_j: host_report.energy_joules,
                nmc_pred_time_s: pred.exec_time_seconds(instructions),
                nmc_pred_energy_j: pred.energy_joules(instructions),
                nmc_actual_time_s: report.exec_time_seconds(),
                nmc_actual_energy_j: report.energy_joules(),
            })
        })
        .unwrap_or_else(|message| Err(fold_panic(i, held_out, "suitability row", message)))
    });
    rows.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{AnyExecutor, Serial, Threaded};
    use crate::collect::{collect, CollectionPlan};
    use crate::fault::CampaignOptions;
    use napel_ml::forest::RandomForestParams;

    fn small_set() -> TrainingSet {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax, Workload::Gemv, Workload::Mvt],
            scale: Scale::tiny(),
            ..Default::default()
        };
        collect(&plan, &AnyExecutor::from_env(), &CampaignOptions::default())
            .expect("clean campaign")
            .0
    }

    fn loao(set: &TrainingSet, exec: &impl Executor) -> Result<Vec<LoaoResult>, NapelError> {
        let est = RandomForestParams::default();
        loao_accuracy(&est, set, 7, &ModelIo::none(), "loao", exec)
    }

    #[test]
    fn loao_covers_every_workload_once() {
        let set = small_set();
        let results = loao(&set, &AnyExecutor::from_env()).unwrap();
        assert_eq!(results.len(), 3);
        let names: Vec<&str> = results.iter().map(|r| r.workload.name()).collect();
        assert_eq!(names, vec!["atax", "gemv", "mvt"]);
        for r in &results {
            assert!(r.perf_mre.is_finite() && r.perf_mre >= 0.0);
            assert!(r.energy_mre.is_finite() && r.energy_mre >= 0.0);
        }
    }

    #[test]
    fn loao_folds_are_executor_independent() {
        let set = small_set();
        let serial = loao(&set, &Serial).unwrap();
        let threaded = loao(&set, &Threaded::new(3)).unwrap();
        assert_eq!(
            serial, threaded,
            "folds re-seed per fold; executor must not matter"
        );
    }

    #[test]
    fn loao_needs_two_apps() {
        let set = small_set().filtered(|w| w == Workload::Atax);
        let err = loao(&set, &AnyExecutor::from_env()).unwrap_err();
        assert!(matches!(err, NapelError::BadTrainingSet { .. }));
    }

    #[test]
    fn average_mre_averages() {
        let results = vec![
            LoaoResult {
                workload: Workload::Atax,
                perf_mre: 0.1,
                energy_mre: 0.2,
            },
            LoaoResult {
                workload: Workload::Gemv,
                perf_mre: 0.3,
                energy_mre: 0.4,
            },
        ];
        let (p, e) = average_mre(&results);
        assert!((p - 0.2).abs() < 1e-12);
        assert!((e - 0.3).abs() < 1e-12);
    }

    #[test]
    fn loao_artifact_path_reproduces_direct_path_exactly() {
        let set = small_set();
        let est = RandomForestParams::default();
        let direct = loao(&set, &Serial).unwrap();

        let dir = std::env::temp_dir().join("napel-loao-io-test");
        std::fs::remove_dir_all(&dir).ok();
        let save = ModelIo::new(Some(dir.clone()), None);
        let saved = loao_accuracy(&est, &set, 7, &save, "loao", &Serial).unwrap();
        assert_eq!(direct, saved, "saving must not perturb the evaluation");

        let load = ModelIo::new(None, Some(dir.clone()));
        let loaded = loao_accuracy(&est, &set, 7, &load, "loao", &Serial).unwrap();
        assert_eq!(
            direct, loaded,
            "loaded artifacts must reproduce MREs bit for bit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suitability_from_artifacts_matches_direct() {
        let set = small_set();
        let config = NapelConfig::untuned();
        let arch = ArchConfig::paper_default();
        let none = ModelIo::none();
        let direct =
            nmc_suitability(&set, &config, &arch, Scale::tiny(), &none, "fig7", &Serial).unwrap();

        let dir = std::env::temp_dir().join("napel-suit-io-test");
        std::fs::remove_dir_all(&dir).ok();
        let save = ModelIo::new(Some(dir.clone()), None);
        let saved =
            nmc_suitability(&set, &config, &arch, Scale::tiny(), &save, "fig7", &Serial).unwrap();
        assert_eq!(direct, saved);

        let load = ModelIo::new(None, Some(dir.clone()));
        let loaded =
            nmc_suitability(&set, &config, &arch, Scale::tiny(), &load, "fig7", &Serial).unwrap();
        assert_eq!(
            direct, loaded,
            "every column, including predictions, matches"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suitability_rows_are_consistent() {
        let set = small_set();
        let rows = nmc_suitability(
            &set,
            &NapelConfig::untuned(),
            &ArchConfig::paper_default(),
            Scale::tiny(),
            &ModelIo::none(),
            "suitability",
            &AnyExecutor::from_env(),
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.host_time_s > 0.0 && r.host_energy_j > 0.0,
                "{:?}",
                r.workload
            );
            assert!(r.nmc_actual_time_s > 0.0 && r.nmc_actual_energy_j > 0.0);
            assert!(r.nmc_pred_time_s > 0.0 && r.nmc_pred_energy_j > 0.0);
            assert!(r.edp_reduction_actual().is_finite());
            assert!(r.edp_mre().is_finite());
        }
    }
}

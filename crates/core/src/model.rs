//! Phase ③/⑤ — model training, tuning, and prediction.
//!
//! Training produces a [`TrainedNapel`] that can be persisted as a
//! two-artifact `.napel` bundle ([`TrainedNapel::save`]) and later
//! reloaded ([`TrainedNapel::load`]) without retraining — the
//! train-once/predict-many split the paper's speedup claims rest on. The
//! loaded model reproduces the in-memory model's predictions bit for bit.

use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use napel_ml::cv::{k_fold, GridSearch};
use napel_ml::forest::{RandomForest, RandomForestParams};
use napel_ml::log_space::{LogModel, LogOf};
use napel_ml::tree::{DecisionTreeParams, FeatureSubset};
use napel_ml::{Estimator, Regressor};
use napel_pisa::ApplicationProfile;
use nmc_sim::ArchConfig;

use crate::artifact::{self, ModelArtifact, Provenance, TargetKind};
use crate::features::{combined_feature_names, combined_features, TrainingSet};
use crate::NapelError;

/// Training configuration: the hyper-parameter grid and CV policy of the
/// paper's "Train + Tune" phase.
#[derive(Debug, Clone, PartialEq)]
pub struct NapelConfig {
    /// Candidate forests for grid search.
    pub grid: Vec<RandomForestParams>,
    /// Cross-validation folds used for tuning (clamped to the sample
    /// count).
    pub cv_folds: usize,
    /// RNG seed (training is fully deterministic given the seed).
    pub seed: u64,
}

impl NapelConfig {
    /// The default tuning grid: forest size × tree depth × feature-subset
    /// rule (12 candidates, mirroring the paper's "as many iterations of
    /// cross-validation as hyper-parameter combinations").
    pub fn default_grid() -> Vec<RandomForestParams> {
        let mut grid = Vec::new();
        for &num_trees in &[60, 120] {
            for &max_depth in &[8, 16] {
                for &subset in &[
                    FeatureSubset::Sqrt,
                    FeatureSubset::Third,
                    FeatureSubset::All,
                ] {
                    grid.push(RandomForestParams {
                        num_trees,
                        tree: DecisionTreeParams {
                            max_depth,
                            min_samples_leaf: 1,
                            min_samples_split: 2,
                            feature_subset: subset,
                        },
                        bootstrap: true,
                    });
                }
            }
        }
        grid
    }

    /// A single mid-sized forest, skipping the tuning loop (for tests and
    /// the cheap path of the ablation bench).
    pub fn untuned() -> Self {
        NapelConfig {
            grid: vec![RandomForestParams {
                num_trees: 80,
                tree: DecisionTreeParams {
                    max_depth: 14,
                    feature_subset: FeatureSubset::Third,
                    ..DecisionTreeParams::default()
                },
                bootstrap: true,
            }],
            cv_folds: 4,
            seed: 0xDAC19,
        }
    }
}

impl Default for NapelConfig {
    fn default() -> Self {
        NapelConfig {
            grid: Self::default_grid(),
            cv_folds: 4,
            seed: 0xDAC19,
        }
    }
}

/// The trainer.
#[derive(Debug, Clone, Default)]
pub struct Napel {
    config: NapelConfig,
}

impl Napel {
    /// Creates a trainer with the given configuration.
    pub fn new(config: NapelConfig) -> Self {
        Napel { config }
    }

    /// Trains the IPC and energy models on a labeled set, tuning
    /// hyper-parameters by cross-validated MRE.
    ///
    /// # Errors
    ///
    /// Returns [`NapelError`] if the set is empty, degenerate, or too small
    /// to cross-validate.
    pub fn train(&self, set: &TrainingSet) -> Result<TrainedNapel, NapelError> {
        if set.runs.len() < 4 {
            return Err(NapelError::BadTrainingSet {
                what: format!("{} rows is too few to train and validate", set.runs.len()),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let ipc_data = set.ipc_dataset()?;
        let energy_data = set.energy_dataset()?;
        let folds = k_fold(
            ipc_data.len(),
            self.config.cv_folds.clamp(2, ipc_data.len()),
            &mut rng,
        )?;

        // IPC and energy-per-instruction are positive and span orders of
        // magnitude across applications: fit in log-space so squared-error
        // splits align with the relative-error metric (see
        // `napel_ml::log_space`).
        let log_grid: Vec<LogOf<RandomForestParams>> =
            self.config.grid.iter().cloned().map(LogOf).collect();
        let search = GridSearch::new(log_grid.clone());
        let (perf, perf_tune) = if log_grid.len() == 1 {
            (log_grid[0].fit(&ipc_data, &mut rng)?, None)
        } else {
            let outcome = search.run(&ipc_data, &folds, &mut rng)?;
            let model = outcome.best.fit(&ipc_data, &mut rng)?;
            (model, Some((outcome.best.describe(), outcome.best_score)))
        };
        let (energy, energy_tune) = if log_grid.len() == 1 {
            (log_grid[0].fit(&energy_data, &mut rng)?, None)
        } else {
            let outcome = search.run(&energy_data, &folds, &mut rng)?;
            let model = outcome.best.fit(&energy_data, &mut rng)?;
            (model, Some((outcome.best.describe(), outcome.best_score)))
        };

        let provenance = Provenance {
            seed: self.config.seed,
            grid: log_grid.iter().map(|g| g.describe()).collect(),
            workloads: set
                .workloads()
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
            training_rows: set.runs.len(),
            training_hash: set.content_hash(),
        };

        Ok(TrainedNapel {
            perf,
            energy,
            freq_column: freq_column(&set.feature_names),
            feature_names: set.feature_names.clone(),
            perf_tune,
            energy_tune,
            provenance,
        })
    }
}

/// A trained NAPEL instance: one (log-space) forest for IPC, one for
/// energy.
#[derive(Debug, Clone)]
pub struct TrainedNapel {
    perf: LogModel<RandomForest>,
    energy: LogModel<RandomForest>,
    feature_names: Vec<String>,
    /// Index of `arch.freq_ghz` in `feature_names`, found once.
    freq_column: Option<usize>,
    perf_tune: Option<(String, f64)>,
    energy_tune: Option<(String, f64)>,
    provenance: Provenance,
}

impl TrainedNapel {
    /// Predicts IPC and energy-per-instruction for an application profile
    /// on an architecture configuration.
    pub fn predict(&self, profile: &ApplicationProfile, arch: &ArchConfig) -> Prediction {
        let x = combined_features(profile, arch);
        self.predict_features(&x, arch)
    }

    /// Predicts from a pre-assembled combined feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn predict_features(&self, x: &[f64], arch: &ArchConfig) -> Prediction {
        assert_eq!(x.len(), self.feature_names.len(), "feature vector mismatch");
        Prediction {
            ipc: self.perf.predict_one(x),
            energy_per_inst_pj: self.energy.predict_one(x),
            freq_ghz: arch.freq_ghz,
        }
    }

    /// Like [`TrainedNapel::predict`], but also reports a multiplicative
    /// uncertainty band derived from the spread of per-tree predictions
    /// (one geometric standard deviation; the forest is fitted in
    /// log-space, so the band is `[ipc / factor, ipc * factor]`).
    pub fn predict_with_uncertainty(
        &self,
        profile: &ApplicationProfile,
        arch: &ArchConfig,
    ) -> (Prediction, f64) {
        let x = combined_features(profile, arch);
        let (ipc, spread) = self
            .perf
            .inner()
            .predict_with_spread(std::slice::from_ref(&x))[0];
        let pred = Prediction {
            ipc: ipc.exp(),
            energy_per_inst_pj: self.energy.predict_one(&x),
            freq_ghz: arch.freq_ghz,
        };
        (pred, spread.exp())
    }

    /// The combined feature names the models expect.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Winning hyper-parameters and CV score for the performance model, if
    /// tuning ran.
    pub fn perf_tuning(&self) -> Option<&(String, f64)> {
        self.perf_tune.as_ref()
    }

    /// Winning hyper-parameters and CV score for the energy model, if
    /// tuning ran.
    pub fn energy_tuning(&self) -> Option<&(String, f64)> {
        self.energy_tune.as_ref()
    }

    /// The underlying IPC forest (exposed for importance analyses; note it
    /// is fitted on log-IPC).
    pub fn perf_forest(&self) -> &RandomForest {
        self.perf.inner()
    }

    /// Training provenance: seed, grid, workload set, and the content hash
    /// of the training data.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Packages both models as artifacts (IPC first, then energy) — the
    /// in-memory form of the `.napel` bundle.
    ///
    /// # Errors
    ///
    /// Returns [`NapelError`] if a model's input dimensionality disagrees
    /// with the stored feature schema (cannot happen for a model produced
    /// by [`Napel::train`]).
    pub fn to_artifacts(&self) -> Result<(ModelArtifact, ModelArtifact), NapelError> {
        let perf = ModelArtifact::from_predictor(
            TargetKind::Ipc,
            self.feature_names.clone(),
            self.provenance.clone(),
            self.perf_tune.clone(),
            &self.perf,
        )?;
        let energy = ModelArtifact::from_predictor(
            TargetKind::EnergyPerInst,
            self.feature_names.clone(),
            self.provenance.clone(),
            self.energy_tune.clone(),
            &self.energy,
        )?;
        Ok((perf, energy))
    }

    /// Saves both models to `path` as a two-artifact `.napel` bundle,
    /// returning the bytes written. The loaded bundle reproduces this
    /// model's predictions bit for bit ([`TrainedNapel::load`]).
    ///
    /// # Errors
    ///
    /// [`NapelError::Artifact`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, NapelError> {
        let (perf, energy) = self.to_artifacts()?;
        artifact::write_artifacts(path.as_ref(), &[&perf, &energy])
    }

    /// Loads a `.napel` bundle saved by [`TrainedNapel::save`], validating
    /// it against this build: the bundle must hold exactly an IPC and an
    /// energy artifact whose feature schema matches
    /// [`combined_feature_names`]. No training (and no RNG) is involved.
    ///
    /// # Errors
    ///
    /// [`NapelError::Artifact`] on I/O failure, a malformed bundle, or a
    /// version/schema mismatch — a model trained by an incompatible build
    /// fails loudly here instead of silently mispredicting.
    pub fn load(path: impl AsRef<Path>) -> Result<TrainedNapel, NapelError> {
        let path = path.as_ref();
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
        let expected = combined_feature_names();
        artifacts[0].expect_schema(TargetKind::Ipc, &expected)?;
        artifacts[1].expect_schema(TargetKind::EnergyPerInst, &expected)?;
        let perf: LogModel<RandomForest> = artifacts[0].decode_payload()?;
        let energy: LogModel<RandomForest> = artifacts[1].decode_payload()?;
        Ok(TrainedNapel {
            perf,
            energy,
            freq_column: freq_column(&expected),
            feature_names: expected,
            perf_tune: artifacts[0].tuned.clone(),
            energy_tune: artifacts[1].tuned.clone(),
            provenance: artifacts[0].provenance.clone(),
        })
    }

    /// Predicts from one raw combined feature row (the inference-only
    /// entry point: no profile or [`ArchConfig`] object needed, e.g. rows
    /// read from a file by the `predict` bench). The architecture
    /// frequency for the time/EDP formulas is taken from the row's
    /// `arch.freq_ghz` column.
    ///
    /// # Errors
    ///
    /// [`NapelError::FeatureSchema`] if the row has the wrong length or a
    /// non-finite value.
    pub fn predict_row(&self, x: &[f64]) -> Result<Prediction, NapelError> {
        let freq_ghz = self.validate_row(x)?;
        Ok(Prediction {
            ipc: self.perf.predict_one(x),
            energy_per_inst_pj: self.energy.predict_one(x),
            freq_ghz,
        })
    }

    /// Validates one raw combined feature row against this model's schema
    /// (length and finiteness), returning the row's `arch.freq_ghz` value.
    ///
    /// # Errors
    ///
    /// [`NapelError::FeatureSchema`] naming the discrepancy.
    fn validate_row(&self, x: &[f64]) -> Result<f64, NapelError> {
        if x.len() != self.feature_names.len() {
            return Err(NapelError::FeatureSchema {
                what: format!(
                    "row has {} features, model expects {}",
                    x.len(),
                    self.feature_names.len()
                ),
            });
        }
        if let Some(i) = x.iter().position(|v| !v.is_finite()) {
            return Err(NapelError::FeatureSchema {
                what: format!(
                    "feature `{}` is not finite ({})",
                    self.feature_names[i], x[i]
                ),
            });
        }
        self.freq_column
            .map(|i| x[i])
            .ok_or_else(|| NapelError::FeatureSchema {
                what: "schema lacks `arch.freq_ghz`, cannot derive time/EDP".to_string(),
            })
    }

    /// Batch inference over raw feature rows: each row yields a
    /// [`Prediction`] plus the geometric per-tree uncertainty factor of
    /// the IPC forest (as in [`TrainedNapel::predict_with_uncertainty`]).
    /// Every row is validated before any is scored, then each forest is
    /// walked once per row: the IPC forest through
    /// [`RandomForest::predict_with_spread`], which yields the prediction
    /// and the spread from the same per-tree values, the energy forest
    /// through [`Regressor::predict_many`] — this is the hot path of
    /// `napel-serve`, which turns queued requests into exactly these
    /// calls. Emits the `model.predict_batch` telemetry span and the
    /// `model.predictions` counter.
    ///
    /// # Errors
    ///
    /// [`NapelError::FeatureSchema`] on the first malformed row (before
    /// anything is scored).
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<(Prediction, f64)>, NapelError> {
        let telemetry = napel_telemetry::global();
        let _span = telemetry
            .span("model.predict_batch")
            .attr("rows", rows.len());
        let freqs = rows
            .iter()
            .map(|x| self.validate_row(x))
            .collect::<Result<Vec<_>, NapelError>>()?;
        let perf = self.perf.inner().predict_with_spread(rows);
        let energy = self.energy.predict_many(rows);
        let out = freqs
            .into_iter()
            .zip(perf.into_iter().zip(energy))
            .map(|(freq_ghz, ((ipc, spread), energy_per_inst_pj))| {
                (
                    Prediction {
                        ipc: ipc.exp(),
                        energy_per_inst_pj,
                        freq_ghz,
                    },
                    spread.exp(),
                )
            })
            .collect();
        telemetry.counter("model.predictions", rows.len() as u64);
        Ok(out)
    }
}

/// Index of the `arch.freq_ghz` column in a feature schema.
fn freq_column(names: &[String]) -> Option<usize> {
    names.iter().position(|n| n == "arch.freq_ghz")
}

/// A NAPEL prediction for one (application, architecture) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted instructions per cycle.
    pub ipc: f64,
    /// Predicted energy per instruction, picojoules.
    pub energy_per_inst_pj: f64,
    /// Core frequency of the target architecture (for the time formula).
    pub freq_ghz: f64,
}

impl Prediction {
    /// Execution time via the paper's formula
    /// `Π_NMC = I_offload / (IPC · f_core)`.
    pub fn exec_time_seconds(&self, instructions: u64) -> f64 {
        instructions as f64 / (self.ipc.max(1e-6) * self.freq_ghz * 1e9)
    }

    /// Total energy in joules for `instructions` offloaded instructions.
    pub fn energy_joules(&self, instructions: u64) -> f64 {
        self.energy_per_inst_pj * instructions as f64 * 1e-12
    }

    /// Energy-delay product for `instructions` offloaded instructions.
    pub fn edp(&self, instructions: u64) -> f64 {
        self.exec_time_seconds(instructions) * self.energy_joules(instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::AnyExecutor;
    use crate::collect::{collect, CollectionPlan};
    use crate::fault::CampaignOptions;
    use napel_workloads::{Scale, Workload};

    fn tiny_set() -> TrainingSet {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax, Workload::Gemv],
            scale: Scale::tiny(),
            ..Default::default()
        };
        collect(&plan, &AnyExecutor::from_env(), &CampaignOptions::default())
            .expect("clean campaign")
            .0
    }

    #[test]
    fn untuned_training_and_prediction() {
        let set = tiny_set();
        let trained = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
        assert!(trained.perf_tuning().is_none());
        // Predict one of the training configurations; should be in a sane
        // band around the label.
        let r = &set.runs[0];
        let pred = trained.predict_features(&r.features, &ArchConfig::paper_default());
        assert!(pred.ipc > 0.0);
        assert!(
            (pred.ipc - r.ipc).abs() / r.ipc < 0.6,
            "{} vs {}",
            pred.ipc,
            r.ipc
        );
        assert!(pred.energy_per_inst_pj > 0.0);
    }

    #[test]
    fn prediction_formulas() {
        let p = Prediction {
            ipc: 0.5,
            energy_per_inst_pj: 100.0,
            freq_ghz: 1.25,
        };
        let t = p.exec_time_seconds(1_000_000);
        assert!((t - 1.6e-3).abs() < 1e-9);
        let e = p.energy_joules(1_000_000);
        assert!((e - 1e-4).abs() < 1e-12);
        assert!((p.edp(1_000_000) - t * e).abs() < 1e-18);
    }

    #[test]
    fn too_small_set_rejected() {
        let set = tiny_set();
        let tiny = TrainingSet {
            feature_names: set.feature_names.clone(),
            runs: set.runs[..2].to_vec(),
            stats: set.stats,
        };
        let err = Napel::new(NapelConfig::untuned()).train(&tiny).unwrap_err();
        assert!(matches!(err, NapelError::BadTrainingSet { .. }));
    }

    #[test]
    fn uncertainty_band_is_sane() {
        let set = tiny_set();
        let trained = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
        let trace = Workload::Atax.generate(&Workload::Atax.spec().central_values(), Scale::tiny());
        let profile = napel_pisa::ApplicationProfile::of(&trace);
        let (pred, spread) =
            trained.predict_with_uncertainty(&profile, &ArchConfig::paper_default());
        assert!(pred.ipc > 0.0);
        assert!(
            spread >= 1.0,
            "geometric std factor is at least 1, got {spread}"
        );
        assert!(spread < 50.0, "implausible uncertainty {spread}");
    }

    #[test]
    fn default_grid_has_multiple_candidates() {
        let g = NapelConfig::default_grid();
        assert_eq!(g.len(), 12);
        let mut seen = std::collections::HashSet::new();
        for c in &g {
            assert!(
                seen.insert(c.describe()),
                "duplicate candidate {}",
                c.describe()
            );
        }
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let set = tiny_set();
        let trained = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
        let dir = std::env::temp_dir().join("napel-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.napel");
        let bytes = trained.save(&path).unwrap();
        assert!(bytes > 0);
        let loaded = TrainedNapel::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.feature_names(), trained.feature_names());
        assert_eq!(loaded.provenance(), trained.provenance());
        assert_eq!(loaded.perf_tuning(), trained.perf_tuning());
        let arch = ArchConfig::paper_default();
        for r in &set.runs {
            let a = trained.predict_features(&r.features, &arch);
            let b = loaded.predict_features(&r.features, &arch);
            assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
            assert_eq!(
                a.energy_per_inst_pj.to_bits(),
                b.energy_per_inst_pj.to_bits()
            );
        }
    }

    #[test]
    fn provenance_records_the_training_run() {
        let set = tiny_set();
        let trained = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
        let p = trained.provenance();
        assert_eq!(p.seed, 0xDAC19);
        assert_eq!(p.grid.len(), 1);
        assert!(p.grid[0].starts_with("log(forest("), "{}", p.grid[0]);
        assert_eq!(p.workloads, vec!["atax", "gemv"]);
        assert_eq!(p.training_rows, set.runs.len());
        assert_eq!(p.training_hash, set.content_hash());
    }

    #[test]
    fn predict_row_matches_predict_features() {
        let set = tiny_set();
        let trained = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
        let r = &set.runs[1];
        let via_row = trained.predict_row(&r.features).unwrap();
        let via_arch = trained.predict_features(&r.features, &ArchConfig::paper_default());
        assert_eq!(via_row.ipc.to_bits(), via_arch.ipc.to_bits());
        assert_eq!(
            via_row.energy_per_inst_pj.to_bits(),
            via_arch.energy_per_inst_pj.to_bits()
        );
        // Frequency comes out of the row itself.
        let freq_idx = trained
            .feature_names()
            .iter()
            .position(|n| n == "arch.freq_ghz")
            .unwrap();
        assert_eq!(via_row.freq_ghz, r.features[freq_idx]);
    }

    #[test]
    fn predict_row_rejects_malformed_rows() {
        let set = tiny_set();
        let trained = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
        let err = trained.predict_row(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, NapelError::FeatureSchema { .. }), "{err}");
        let mut bad = set.runs[0].features.clone();
        bad[5] = f64::NAN;
        let err = trained.predict_row(&bad).unwrap_err();
        assert!(err.to_string().contains("not finite"), "{err}");
    }

    #[test]
    fn predict_batch_reports_uncertainty_per_row() {
        let set = tiny_set();
        let trained = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
        let rows: Vec<Vec<f64>> = set
            .runs
            .iter()
            .take(3)
            .map(|r| r.features.clone())
            .collect();
        let out = trained.predict_batch(&rows).unwrap();
        assert_eq!(out.len(), 3);
        for (i, (pred, spread)) in out.iter().enumerate() {
            assert_eq!(
                pred.ipc.to_bits(),
                trained.predict_row(&rows[i]).unwrap().ipc.to_bits()
            );
            assert!(*spread >= 1.0);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let set = tiny_set();
        let a = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
        let b = Napel::new(NapelConfig::untuned()).train(&set).unwrap();
        let r = &set.runs[3];
        let arch = ArchConfig::paper_default();
        assert_eq!(
            a.predict_features(&r.features, &arch).ipc,
            b.predict_features(&r.features, &arch).ipc
        );
    }
}

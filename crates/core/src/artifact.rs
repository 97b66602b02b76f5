//! Model artifacts — the train-once/predict-many boundary.
//!
//! NAPEL's value proposition (Section 4 of the paper) is that the
//! expensive one-time training phase buys a prediction phase "at least
//! 220x faster than NMC simulation". That only holds if a tuned model can
//! outlive the process that trained it: this module bundles a serialized
//! predictor ([`napel_ml::persist`]) with everything needed to use it
//! safely later —
//!
//! - the **feature schema** ([`crate::features::combined_feature_names`])
//!   the model was fitted on, so a build whose feature list drifted fails
//!   with a typed [`NapelError::Artifact`] instead of silently feeding the
//!   model permuted inputs;
//! - the **target kind** (IPC or energy-per-instruction), so an energy
//!   model cannot be consulted as a performance model;
//! - **training provenance**: RNG seed, hyper-parameter grid, workload
//!   set, row count, and an FNV-1a content hash of the training set
//!   ([`crate::features::TrainingSet::content_hash`]) — enough to answer
//!   "which data produced this model?" months later.
//!
//! The artifact document is line-oriented plain text (hand-rolled,
//! zero-dep, like the telemetry JSONL and the checkpoint journal); the
//! model payload embedded in it is the bit-exact token format of
//! [`napel_ml::persist`], so `save → load → predict` reproduces the
//! in-memory model's predictions to the last bit. A `.napel` bundle file
//! holds two artifact documents back to back (IPC, then energy) — the
//! serialized form of a [`TrainedNapel`].

use std::iter::Peekable;
use std::path::{Path, PathBuf};

use napel_ml::persist::{decode, decode_any, Persist, Predictor};

use crate::model::TrainedNapel;
use crate::NapelError;

/// Leading line of every artifact document.
pub const ARTIFACT_HEADER: &str = "napel-model-artifact v1";

/// File extension of a [`TrainedNapel`] bundle (two artifacts).
pub const BUNDLE_EXTENSION: &str = "napel";

/// Which response a stored model predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// Instructions per cycle.
    Ipc,
    /// Energy per instruction (picojoules).
    EnergyPerInst,
}

impl TargetKind {
    /// Stable on-disk token.
    pub fn token(self) -> &'static str {
        match self {
            TargetKind::Ipc => "ipc",
            TargetKind::EnergyPerInst => "energy_per_inst",
        }
    }

    fn parse(tok: &str) -> Option<TargetKind> {
        match tok {
            "ipc" => Some(TargetKind::Ipc),
            "energy_per_inst" => Some(TargetKind::EnergyPerInst),
            _ => None,
        }
    }
}

impl std::fmt::Display for TargetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// Where a model came from: enough to reproduce (or audit) the training
/// run that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Training RNG seed (training is deterministic given the seed).
    pub seed: u64,
    /// Hyper-parameter grid descriptions the tuner searched.
    pub grid: Vec<String>,
    /// Workloads present in the training set.
    pub workloads: Vec<String>,
    /// Number of labeled training rows.
    pub training_rows: usize,
    /// FNV-1a content hash of the training set (bit-exact over features
    /// and labels).
    pub training_hash: u64,
}

/// A serialized predictor plus the metadata required to consult it safely:
/// feature schema, target kind, and training provenance.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// Which response the model predicts.
    pub target: TargetKind,
    /// Combined feature names, in model input order.
    pub feature_names: Vec<String>,
    /// Training provenance.
    pub provenance: Provenance,
    /// Winning hyper-parameters and CV score, if tuning ran.
    pub tuned: Option<(String, f64)>,
    /// The serialized model document ([`napel_ml::persist`] format).
    payload: String,
    /// Where the artifact came from (a path, or `(unsaved)`), for error
    /// messages.
    source: String,
}

fn artifact_err(path: &Path, what: impl Into<String>) -> NapelError {
    NapelError::Artifact {
        path: path.display().to_string(),
        what: what.into(),
    }
}

impl ModelArtifact {
    /// Wraps a fitted predictor and its metadata into an artifact.
    ///
    /// # Errors
    ///
    /// Returns [`NapelError::FeatureSchema`] if the predictor's input
    /// dimensionality disagrees with `feature_names`.
    pub fn from_predictor(
        target: TargetKind,
        feature_names: Vec<String>,
        provenance: Provenance,
        tuned: Option<(String, f64)>,
        predictor: &dyn Predictor,
    ) -> Result<ModelArtifact, NapelError> {
        if predictor.num_features() != feature_names.len() {
            return Err(NapelError::FeatureSchema {
                what: format!(
                    "predictor takes {} features but the schema names {}",
                    predictor.num_features(),
                    feature_names.len()
                ),
            });
        }
        Ok(ModelArtifact {
            target,
            feature_names,
            provenance,
            tuned,
            payload: predictor.encode_model(),
            source: "(unsaved)".to_string(),
        })
    }

    /// The serialized model document embedded in this artifact.
    pub fn payload(&self) -> &str {
        &self.payload
    }

    /// Where the artifact came from (a path, or `(unsaved)`).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Decodes the embedded model behind the object-safe [`Predictor`]
    /// interface (family chosen by the payload itself).
    ///
    /// # Errors
    ///
    /// [`NapelError::Artifact`] if the payload is corrupt or of an unknown
    /// family/version.
    pub fn predictor(&self) -> Result<Box<dyn Predictor + Send + Sync>, NapelError> {
        decode_any(&self.payload).map_err(|e| NapelError::Artifact {
            path: self.source.clone(),
            what: e.to_string(),
        })
    }

    /// Decodes the embedded model as a statically known family.
    ///
    /// # Errors
    ///
    /// [`NapelError::Artifact`] if the payload is corrupt, of another
    /// family, or of an unsupported version.
    pub fn decode_payload<M: Persist>(&self) -> Result<M, NapelError> {
        decode(&self.payload).map_err(|e| NapelError::Artifact {
            path: self.source.clone(),
            what: e.to_string(),
        })
    }

    /// Validates this artifact against the consumer's expectations: the
    /// target it should predict and the feature schema the consumer will
    /// feed it. A mismatch is a typed error naming the first discrepancy —
    /// loading must fail loudly, not mispredict silently.
    ///
    /// # Errors
    ///
    /// [`NapelError::Artifact`] describing the mismatch.
    pub fn expect_schema(&self, target: TargetKind, names: &[String]) -> Result<(), NapelError> {
        let err = |what: String| NapelError::Artifact {
            path: self.source.clone(),
            what,
        };
        if self.target != target {
            return Err(err(format!(
                "artifact predicts {}, {target} expected",
                self.target
            )));
        }
        if self.feature_names.len() != names.len() {
            return Err(err(format!(
                "artifact was trained on {} features, this build expects {}",
                self.feature_names.len(),
                names.len()
            )));
        }
        if let Some(i) = (0..names.len()).find(|&i| self.feature_names[i] != names[i]) {
            return Err(err(format!(
                "feature {i} is `{}` in the artifact but `{}` in this build",
                self.feature_names[i], names[i]
            )));
        }
        Ok(())
    }

    /// Renders the artifact as its on-disk document.
    pub fn to_document(&self) -> String {
        let mut out = String::new();
        out.push_str(ARTIFACT_HEADER);
        out.push('\n');
        out.push_str(&format!("target {}\n", self.target.token()));
        out.push_str(&format!("features {}\n", self.feature_names.len()));
        out.push_str(&self.feature_names.join(" "));
        out.push('\n');
        out.push_str(&format!("seed {}\n", self.provenance.seed));
        out.push_str(&format!("rows {}\n", self.provenance.training_rows));
        out.push_str(&format!(
            "training-hash {:016x}\n",
            self.provenance.training_hash
        ));
        out.push_str(&format!("workloads {}", self.provenance.workloads.len()));
        for w in &self.provenance.workloads {
            out.push(' ');
            out.push_str(w);
        }
        out.push('\n');
        out.push_str(&format!("grid {}\n", self.provenance.grid.len()));
        for g in &self.provenance.grid {
            out.push_str(g);
            out.push('\n');
        }
        match &self.tuned {
            Some((desc, score)) => {
                out.push_str(&format!("tuned {:016x} {desc}\n", score.to_bits()));
            }
            None => out.push_str("untuned\n"),
        }
        out.push_str(&format!("payload {}\n", self.payload.lines().count()));
        out.push_str(&self.payload);
        if !self.payload.ends_with('\n') {
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Writes the artifact to `path` as a single-artifact file, returning
    /// the bytes written. Emits the `model.save` telemetry span and the
    /// `model.bytes_written` counter.
    ///
    /// # Errors
    ///
    /// [`NapelError::Artifact`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64, NapelError> {
        write_artifacts(path.as_ref(), &[self])
    }

    /// Loads a single-artifact file.
    ///
    /// # Errors
    ///
    /// [`NapelError::Artifact`] on I/O failure, a malformed document, or a
    /// file holding more than one artifact (use [`read_artifacts`]).
    pub fn load(path: impl AsRef<Path>) -> Result<ModelArtifact, NapelError> {
        let path = path.as_ref();
        let mut all = read_artifacts(path)?;
        if all.len() != 1 {
            return Err(artifact_err(
                path,
                format!("file holds {} artifacts, exactly 1 expected", all.len()),
            ));
        }
        Ok(all.remove(0))
    }
}

/// Writes `artifacts` to `path` back to back (the bundle format),
/// returning the bytes written. Emits the `model.save` telemetry span and
/// the `model.bytes_written` counter.
///
/// # Errors
///
/// [`NapelError::Artifact`] on I/O failure.
pub fn write_artifacts(path: &Path, artifacts: &[&ModelArtifact]) -> Result<u64, NapelError> {
    let mut text = String::new();
    for a in artifacts {
        text.push_str(&a.to_document());
    }
    let bytes = text.len() as u64;
    let telemetry = napel_telemetry::global();
    let _span = telemetry
        .span("model.save")
        .attr("path", path.display())
        .attr("artifacts", artifacts.len())
        .attr("bytes", bytes);
    std::fs::write(path, &text).map_err(|e| artifact_err(path, format!("write failed: {e}")))?;
    telemetry.counter("model.bytes_written", bytes);
    Ok(bytes)
}

/// Reads every artifact in `path`, in file order. Emits the `model.load`
/// telemetry span.
///
/// # Errors
///
/// [`NapelError::Artifact`] on I/O failure or a malformed document.
pub fn read_artifacts(path: impl AsRef<Path>) -> Result<Vec<ModelArtifact>, NapelError> {
    let path = path.as_ref();
    let telemetry = napel_telemetry::global();
    let _span = telemetry.span("model.load").attr("path", path.display());
    let text = std::fs::read_to_string(path)
        .map_err(|e| artifact_err(path, format!("read failed: {e}")))?;
    parse_artifacts(&text, path)
}

/// Parses a string holding one or more artifact documents.
///
/// # Errors
///
/// [`NapelError::Artifact`] (with `path` as the reported source) on any
/// malformed document.
pub fn parse_artifacts(text: &str, path: &Path) -> Result<Vec<ModelArtifact>, NapelError> {
    let mut lines = text.lines().peekable();
    let mut out = Vec::new();
    loop {
        while matches!(lines.peek(), Some(l) if l.trim().is_empty()) {
            lines.next();
        }
        if lines.peek().is_none() {
            break;
        }
        out.push(parse_one(&mut lines, path)?);
    }
    if out.is_empty() {
        return Err(artifact_err(path, "file holds no artifacts"));
    }
    Ok(out)
}

fn parse_one<'a, I: Iterator<Item = &'a str>>(
    lines: &mut Peekable<I>,
    path: &Path,
) -> Result<ModelArtifact, NapelError> {
    let mut next = |what: &str| -> Result<&'a str, NapelError> {
        lines
            .next()
            .ok_or_else(|| artifact_err(path, format!("document ends where {what} was expected")))
    };
    let header = next("the artifact header")?;
    if header != ARTIFACT_HEADER {
        return Err(artifact_err(
            path,
            format!("unsupported artifact header `{header}` (this build reads {ARTIFACT_HEADER})"),
        ));
    }

    let target_tok = field(next("the target line")?, "target", path)?;
    let target = TargetKind::parse(target_tok)
        .ok_or_else(|| artifact_err(path, format!("unknown target kind `{target_tok}`")))?;

    let n_features: usize = parse_num(field(next("the features line")?, "features", path)?, path)?;
    let names_line = next("the feature names")?;
    let feature_names: Vec<String> = names_line.split_whitespace().map(String::from).collect();
    if feature_names.len() != n_features {
        return Err(artifact_err(
            path,
            format!(
                "feature name line has {} names, {} declared",
                feature_names.len(),
                n_features
            ),
        ));
    }

    let seed: u64 = parse_num(field(next("the seed line")?, "seed", path)?, path)?;
    let training_rows: usize = parse_num(field(next("the rows line")?, "rows", path)?, path)?;
    let hash_tok = field(next("the training-hash line")?, "training-hash", path)?;
    let training_hash = u64::from_str_radix(hash_tok, 16)
        .map_err(|_| artifact_err(path, format!("training-hash `{hash_tok}` is not hex")))?;

    let workloads_line = field(next("the workloads line")?, "workloads", path)?;
    let mut toks = workloads_line.split_whitespace();
    let n_workloads: usize = parse_num(
        toks.next()
            .ok_or_else(|| artifact_err(path, "workloads line is empty"))?,
        path,
    )?;
    let workloads: Vec<String> = toks.map(String::from).collect();
    if workloads.len() != n_workloads {
        return Err(artifact_err(
            path,
            format!(
                "workloads line has {} names, {} declared",
                workloads.len(),
                n_workloads
            ),
        ));
    }

    // Counts read off disk size nothing up front: a forged count must end
    // in "document ends" once the lines run out, not in an allocation
    // abort.
    let n_grid: usize = parse_num(field(next("the grid line")?, "grid", path)?, path)?;
    let mut grid = Vec::new();
    for _ in 0..n_grid {
        grid.push(next("a grid candidate line")?.to_string());
    }

    let tuned_line = next("the tuned line")?;
    let tuned = if tuned_line == "untuned" {
        None
    } else if let Some(rest) = tuned_line.strip_prefix("tuned ") {
        let (score_hex, desc) = rest
            .split_once(' ')
            .ok_or_else(|| artifact_err(path, "tuned line lacks a description"))?;
        let score = u64::from_str_radix(score_hex, 16)
            .map(f64::from_bits)
            .map_err(|_| artifact_err(path, format!("tuned score `{score_hex}` is not hex")))?;
        Some((desc.to_string(), score))
    } else {
        return Err(artifact_err(
            path,
            format!("expected `tuned ...` or `untuned`, found `{tuned_line}`"),
        ));
    };

    let n_payload: usize = parse_num(field(next("the payload line")?, "payload", path)?, path)?;
    let mut payload = String::new();
    for _ in 0..n_payload {
        payload.push_str(next("a payload line")?);
        payload.push('\n');
    }

    let end = next("the end sentinel")?;
    if end != "end" {
        return Err(artifact_err(
            path,
            format!("expected the `end` sentinel, found `{end}`"),
        ));
    }

    Ok(ModelArtifact {
        target,
        feature_names,
        provenance: Provenance {
            seed,
            grid,
            workloads,
            training_rows,
            training_hash,
        },
        tuned,
        payload,
        source: path.display().to_string(),
    })
}

fn field<'a>(line: &'a str, key: &str, path: &Path) -> Result<&'a str, NapelError> {
    line.strip_prefix(key)
        .and_then(|rest| {
            rest.strip_prefix(' ')
                .or(Some(rest).filter(|r| r.is_empty()))
        })
        .ok_or_else(|| artifact_err(path, format!("expected a `{key} ...` line, found `{line}`")))
}

fn parse_num<T: std::str::FromStr>(tok: &str, path: &Path) -> Result<T, NapelError> {
    tok.parse()
        .map_err(|_| artifact_err(path, format!("`{tok}` is not a number")))
}

/// Artifact-directory policy for experiment drivers: where trained models
/// are saved after training (`--model-out` / `NAPEL_MODEL_DIR`) and where
/// evaluation loads them from instead of retraining (`--model-in`).
#[derive(Debug, Clone, Default)]
pub struct ModelIo {
    save_dir: Option<PathBuf>,
    load_dir: Option<PathBuf>,
}

impl ModelIo {
    /// No saving, no loading — every experiment trains in memory (the
    /// pre-artifact behavior).
    pub fn none() -> ModelIo {
        ModelIo::default()
    }

    /// A policy saving trained models under `save_dir` and/or loading them
    /// from `load_dir`.
    pub fn new(save_dir: Option<PathBuf>, load_dir: Option<PathBuf>) -> ModelIo {
        ModelIo { save_dir, load_dir }
    }

    /// Whether this policy does anything at all.
    pub fn is_none(&self) -> bool {
        self.save_dir.is_none() && self.load_dir.is_none()
    }

    /// Where trained models are saved, if anywhere.
    pub fn save_dir(&self) -> Option<&Path> {
        self.save_dir.as_deref()
    }

    /// Where models are loaded from, if anywhere.
    pub fn load_dir(&self) -> Option<&Path> {
        self.load_dir.as_deref()
    }

    /// The bundle path for a model key in `dir` (`<dir>/<key>.napel`).
    pub fn bundle_path(dir: &Path, key: &str) -> PathBuf {
        dir.join(format!("{key}.{BUNDLE_EXTENSION}"))
    }

    /// The train-once/predict-many pivot: loads `<load_dir>/<key>.napel`
    /// when a load directory is set (schema-validated against this build,
    /// bypassing training entirely); otherwise trains via `train` and, if
    /// a save directory is set, persists the result as
    /// `<save_dir>/<key>.napel`.
    ///
    /// # Errors
    ///
    /// Training errors pass through; save/load failures and artifact
    /// mismatches surface as [`NapelError::Artifact`].
    pub fn train_or_load(
        &self,
        key: &str,
        train: impl FnOnce() -> Result<TrainedNapel, NapelError>,
    ) -> Result<TrainedNapel, NapelError> {
        if let Some(dir) = &self.load_dir {
            return TrainedNapel::load(Self::bundle_path(dir, key));
        }
        let model = train()?;
        if let Some(dir) = &self.save_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| artifact_err(dir, format!("create failed: {e}")))?;
            model.save(Self::bundle_path(dir, key))?;
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napel_ml::dataset::Dataset;
    use napel_ml::forest::RandomForestParams;
    use napel_ml::log_space::{LogModel, LogOf};
    use napel_ml::{Estimator, Regressor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fitted_forest() -> LogModel<napel_ml::forest::RandomForest> {
        let mut b = Dataset::builder(vec!["a".into(), "b".into()]);
        for i in 0..30 {
            let x = i as f64;
            b.push_row(vec![x, (i % 4) as f64], (x + 1.0).sqrt())
                .unwrap();
        }
        LogOf(RandomForestParams {
            num_trees: 7,
            ..Default::default()
        })
        .fit(&b.build().unwrap(), &mut StdRng::seed_from_u64(3))
        .unwrap()
    }

    fn sample_artifact() -> ModelArtifact {
        let m = fitted_forest();
        ModelArtifact::from_predictor(
            TargetKind::Ipc,
            vec!["a".into(), "b".into()],
            Provenance {
                seed: 0xDAC19,
                grid: vec![
                    "log(forest(trees=60, max_depth=8))".into(),
                    "log(forest(trees=120, max_depth=16))".into(),
                ],
                workloads: vec!["atax".into(), "gemv".into()],
                training_rows: 30,
                training_hash: 0xdead_beef_cafe_f00d,
            },
            Some(("log(forest(trees=120, max_depth=16))".into(), 0.083)),
            &m,
        )
        .unwrap()
    }

    #[test]
    fn document_round_trip_preserves_everything() {
        let a = sample_artifact();
        let doc = a.to_document();
        let parsed = parse_artifacts(&doc, Path::new("test.model")).unwrap();
        assert_eq!(parsed.len(), 1);
        let b = &parsed[0];
        assert_eq!(b.target, TargetKind::Ipc);
        assert_eq!(b.feature_names, a.feature_names);
        assert_eq!(b.provenance, a.provenance);
        assert_eq!(b.tuned.as_ref().unwrap().0, a.tuned.as_ref().unwrap().0);
        assert_eq!(
            b.tuned.as_ref().unwrap().1.to_bits(),
            a.tuned.as_ref().unwrap().1.to_bits(),
            "tuning score must round-trip bit-exactly"
        );
        assert_eq!(b.payload(), a.payload());
        assert_eq!(b.source(), "test.model");
        // Deterministic rendering.
        assert_eq!(doc, b.to_document());
    }

    #[test]
    fn decoded_predictor_matches_original_bits() {
        let m = fitted_forest();
        let a = sample_artifact();
        let p = a.predictor().unwrap();
        assert_eq!(p.model_kind(), "log(forest)");
        for probe in [[0.0, 1.0], [12.5, 3.0], [29.0, 0.0]] {
            assert_eq!(
                m.predict_one(&probe).to_bits(),
                p.predict_one(&probe).to_bits()
            );
        }
    }

    #[test]
    fn bundle_files_hold_multiple_artifacts() {
        let a = sample_artifact();
        let mut b = sample_artifact();
        b.target = TargetKind::EnergyPerInst;
        let text = format!("{}{}", a.to_document(), b.to_document());
        let parsed = parse_artifacts(&text, Path::new("bundle.napel")).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].target, TargetKind::Ipc);
        assert_eq!(parsed[1].target, TargetKind::EnergyPerInst);
    }

    #[test]
    fn schema_validation_names_the_discrepancy() {
        let a = sample_artifact();
        let names = vec!["a".to_string(), "b".to_string()];
        a.expect_schema(TargetKind::Ipc, &names).unwrap();

        let err = a
            .expect_schema(TargetKind::EnergyPerInst, &names)
            .unwrap_err();
        assert!(err.to_string().contains("predicts ipc"), "{err}");

        let err = a
            .expect_schema(TargetKind::Ipc, &["a".to_string()])
            .unwrap_err();
        assert!(err.to_string().contains("trained on 2 features"), "{err}");

        let renamed = vec!["a".to_string(), "b2".to_string()];
        let err = a.expect_schema(TargetKind::Ipc, &renamed).unwrap_err();
        assert!(err.to_string().contains("`b`"), "{err}");
        assert!(err.to_string().contains("`b2`"), "{err}");
        assert!(matches!(err, NapelError::Artifact { .. }));
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        let p = Path::new("x.model");
        for (text, needle) in [
            ("some random file\n", "unsupported artifact header"),
            (
                &format!("{ARTIFACT_HEADER}\ntarget watts\n") as &str,
                "unknown target kind",
            ),
            (&format!("{ARTIFACT_HEADER}\ntarget ipc\n"), "document ends"),
        ] {
            let err = parse_artifacts(text, p).unwrap_err();
            match &err {
                NapelError::Artifact { path, what } => {
                    assert_eq!(path, "x.model");
                    assert!(what.contains(needle), "`{what}` lacks `{needle}`");
                }
                other => panic!("expected Artifact error, got {other}"),
            }
        }
        assert!(parse_artifacts("", p).is_err());
        assert!(parse_artifacts("\n\n", p).is_err());
    }

    #[test]
    fn corrupt_payload_is_a_typed_error() {
        let a = sample_artifact();
        let doc = a.to_document();
        // Flip the payload's model kind to something unknown.
        let bad = doc.replacen("napel-ml-model v1 log forest", "napel-ml-model v1 blob", 1);
        let parsed = parse_artifacts(&bad, Path::new("x.model"));
        // The artifact layer parses (payload is opaque to it)...
        let artifact = &parsed.unwrap()[0];
        // ...but decoding the predictor fails loudly.
        let err = artifact.predictor().unwrap_err();
        assert!(matches!(err, NapelError::Artifact { .. }), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("napel-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.model");
        let a = sample_artifact();
        let bytes = a.save(&path).unwrap();
        assert_eq!(bytes, a.to_document().len() as u64);
        let back = ModelArtifact::load(&path).unwrap();
        assert_eq!(back.payload(), a.payload());
        assert_eq!(back.provenance, a.provenance);
        assert_eq!(back.source(), path.display().to_string());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let err = ModelArtifact::load("/nonexistent/nope.model").unwrap_err();
        match err {
            NapelError::Artifact { path, what } => {
                assert!(path.contains("nope.model"));
                assert!(what.contains("read failed"), "{what}");
            }
            other => panic!("expected Artifact error, got {other}"),
        }
    }
}

//! Training-row assembly: profile features ⊕ architecture features.
//!
//! The RF input of Section 2.5 has three parts: the hardware-independent
//! application profile `p(k, d)`, the architectural configuration `a`, and
//! the simulator response used as the label. This module concatenates the
//! first two into one named feature vector and holds the labeled rows.

use napel_ml::dataset::Dataset;
use napel_pisa::ApplicationProfile;
use napel_workloads::Workload;
use nmc_sim::{ArchConfig, SimReport};

use crate::NapelError;

/// Names of the combined feature vector: every PISA profile feature
/// followed by every architectural feature.
pub fn combined_feature_names() -> Vec<String> {
    let mut names: Vec<String> = napel_pisa::feature_names().to_vec();
    names.extend(ArchConfig::feature_names());
    names
}

/// Builds the combined feature vector for one (profile, architecture)
/// pair, checking the profile against the PISA feature schema. A profile
/// holds its values in [`napel_pisa::feature_names`] order and those names
/// are unique, so once the length matches the schema the profile part is
/// the profile's values as they stand. A profile of another length (built
/// against a different feature list) is a [`NapelError::FeatureSchema`],
/// not a panic deep inside a campaign.
///
/// # Errors
///
/// Returns [`NapelError::FeatureSchema`] if the profile's length differs
/// from the schema.
pub fn combined_features_checked(
    profile: &ApplicationProfile,
    arch: &ArchConfig,
) -> Result<Vec<f64>, NapelError> {
    let values = profile.values();
    let schema = napel_pisa::feature_names().len();
    if values.len() != schema {
        return Err(NapelError::FeatureSchema {
            what: format!(
                "profile has {} values but the schema names {schema}",
                values.len()
            ),
        });
    }
    Ok([values, arch.to_features().as_slice()].concat())
}

/// Builds the combined feature vector for one (profile, architecture) pair.
///
/// # Panics
///
/// Panics on a profile/schema mismatch; campaign code goes through
/// [`combined_features_checked`] instead, which quarantines the job.
pub fn combined_features(profile: &ApplicationProfile, arch: &ArchConfig) -> Vec<f64> {
    combined_features_checked(profile, arch).expect("profile matches the PISA feature schema")
}

/// One simulated, labeled run: the `(p, a) → response` triple.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledRun {
    /// Which application produced the row.
    pub workload: Workload,
    /// The application-input configuration (spec order).
    pub params: Vec<f64>,
    /// Combined profile ⊕ architecture features.
    pub features: Vec<f64>,
    /// Offloaded dynamic instructions (`I_offload`).
    pub instructions: u64,
    /// Simulator IPC label.
    pub ipc: f64,
    /// Simulator energy label, picojoules per instruction (intensive, so
    /// the model generalizes across input sizes; total energy is recovered
    /// as `epi · I_offload`).
    pub energy_per_inst_pj: f64,
}

impl LabeledRun {
    /// Builds a labeled run from a simulation report, propagating a
    /// feature-schema mismatch instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NapelError::FeatureSchema`] on a profile/schema mismatch.
    pub fn from_report_checked(
        workload: Workload,
        params: Vec<f64>,
        profile: &ApplicationProfile,
        arch: &ArchConfig,
        report: &SimReport,
    ) -> Result<Self, NapelError> {
        let epi = if report.instructions == 0 {
            0.0
        } else {
            report.energy.total_pj() / report.instructions as f64
        };
        Ok(LabeledRun {
            workload,
            params,
            features: combined_features_checked(profile, arch)?,
            instructions: report.instructions,
            ipc: report.ipc(),
            energy_per_inst_pj: epi,
        })
    }

    /// The label-validation gate: checks this row before it may enter a
    /// [`TrainingSet`]. A row is valid when every feature is finite, the
    /// IPC label lies in `(0, issue_width · num_pes]` (the architecture's
    /// aggregate issue bandwidth — no simulator can legally exceed it),
    /// and the energy label is finite and positive.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint; the campaign runtime wraps it into a
    /// [`crate::fault::JobFailureKind::InvalidLabel`] naming the
    /// offending job.
    pub fn validate(&self, arch: &ArchConfig) -> Result<(), String> {
        if let Some(i) = self.features.iter().position(|v| !v.is_finite()) {
            return Err(format!("feature {i} is non-finite ({})", self.features[i]));
        }
        let max_ipc = (arch.issue_width * arch.num_pes) as f64;
        if !self.ipc.is_finite() {
            return Err(format!("IPC label is non-finite ({})", self.ipc));
        }
        if self.ipc <= 0.0 || self.ipc > max_ipc {
            return Err(format!(
                "IPC label {} outside (0, {max_ipc}] (issue_width {} × {} PEs)",
                self.ipc, arch.issue_width, arch.num_pes
            ));
        }
        if !self.energy_per_inst_pj.is_finite() || self.energy_per_inst_pj <= 0.0 {
            return Err(format!(
                "energy label {} pJ/inst is not positive and finite",
                self.energy_per_inst_pj
            ));
        }
        Ok(())
    }
}

/// Wall-clock accounting of a collection campaign (feeds Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollectStats {
    /// Seconds spent generating kernel traces.
    pub generate_seconds: f64,
    /// Seconds spent in profile extraction (the "kernel analysis" phase).
    pub profile_seconds: f64,
    /// Seconds spent simulating (the "DoE run" column of Table 4).
    pub simulate_seconds: f64,
}

impl CollectStats {
    /// Folds another accounting into this one, phase by phase.
    ///
    /// Merging is associative and commutative (floating-point addition
    /// aside), so per-job or per-application stats can be combined in any
    /// grouping — which is what lets the campaign engine account a
    /// parallel run the same way as a serial one.
    pub fn merge(&mut self, other: &CollectStats) {
        self.generate_seconds += other.generate_seconds;
        self.profile_seconds += other.profile_seconds;
        self.simulate_seconds += other.simulate_seconds;
    }
}

/// A labeled training set plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSet {
    /// Combined feature names.
    pub feature_names: Vec<String>,
    /// The labeled rows.
    pub runs: Vec<LabeledRun>,
    /// Campaign timing.
    pub stats: CollectStats,
}

impl TrainingSet {
    /// The distinct workloads present, in [`Workload::ALL`] order.
    pub fn workloads(&self) -> Vec<Workload> {
        Workload::ALL
            .into_iter()
            .filter(|w| self.runs.iter().any(|r| r.workload == *w))
            .collect()
    }

    /// Group label (index into [`Workload::ALL`]) per row, for
    /// leave-one-application-out folds.
    pub fn groups(&self) -> Vec<usize> {
        self.runs
            .iter()
            .map(|r| {
                Workload::ALL
                    .iter()
                    .position(|w| *w == r.workload)
                    .expect("known")
            })
            .collect()
    }

    /// Rows restricted to the given workloads.
    pub fn filtered(&self, keep: impl Fn(Workload) -> bool) -> TrainingSet {
        TrainingSet {
            feature_names: self.feature_names.clone(),
            runs: self
                .runs
                .iter()
                .filter(|r| keep(r.workload))
                .cloned()
                .collect(),
            stats: self.stats,
        }
    }

    /// The IPC-labeled ML dataset.
    ///
    /// # Errors
    ///
    /// Returns [`NapelError`] if the set is empty or contains non-finite
    /// values.
    pub fn ipc_dataset(&self) -> Result<Dataset, NapelError> {
        self.dataset_with(|r| r.ipc)
    }

    /// The energy-per-instruction-labeled ML dataset.
    ///
    /// # Errors
    ///
    /// Same as [`TrainingSet::ipc_dataset`].
    pub fn energy_dataset(&self) -> Result<Dataset, NapelError> {
        self.dataset_with(|r| r.energy_per_inst_pj)
    }

    fn dataset_with(&self, label: impl Fn(&LabeledRun) -> f64) -> Result<Dataset, NapelError> {
        let mut b = Dataset::builder(self.feature_names.clone());
        for r in &self.runs {
            b.push_row(r.features.clone(), label(r))?;
        }
        // Carry the per-row application label so group-aware estimators
        // (the weighted ensemble) can adapt on leave-one-application-out
        // folds, matching the evaluation protocol.
        Ok(b.build()?.with_groups(self.groups())?)
    }

    /// FNV-1a content hash over the feature schema and every row
    /// (workload, params, features, instructions, both labels), with
    /// floats hashed by exact bit pattern. Two sets hash equal iff their
    /// training-relevant content is bit-identical, so a model artifact can
    /// record which training data produced it.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for name in &self.feature_names {
            eat(name.as_bytes());
            eat(b"\n");
        }
        for r in &self.runs {
            eat(r.workload.name().as_bytes());
            for &p in &r.params {
                eat(&p.to_bits().to_be_bytes());
            }
            for &x in &r.features {
                eat(&x.to_bits().to_be_bytes());
            }
            eat(&r.instructions.to_be_bytes());
            eat(&r.ipc.to_bits().to_be_bytes());
            eat(&r.energy_per_inst_pj.to_bits().to_be_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napel_ir::{Emitter, MultiTrace};
    use nmc_sim::NmcSystem;

    fn tiny_run(w: Workload) -> LabeledRun {
        let mut t = MultiTrace::new(1);
        let mut e = Emitter::new(t.thread_sink(0));
        for i in 0..50u64 {
            let x = e.load(0, 8 * i, 8);
            e.store(1, 0x1000 + 8 * i, 8, x);
        }
        drop(e);
        let profile = ApplicationProfile::of(&t);
        let arch = ArchConfig::paper_default();
        let report = NmcSystem::new(arch.clone()).run(&t);
        LabeledRun::from_report_checked(w, vec![1.0], &profile, &arch, &report)
            .expect("profile matches the PISA feature schema")
    }

    #[test]
    fn combined_names_align_with_values() {
        let r = tiny_run(Workload::Atax);
        assert_eq!(r.features.len(), combined_feature_names().len());
    }

    #[test]
    fn validation_gate_accepts_real_rows_and_rejects_corrupt_ones() {
        let arch = ArchConfig::paper_default();
        let good = tiny_run(Workload::Atax);
        assert_eq!(good.validate(&arch), Ok(()));

        let mut nan_ipc = good.clone();
        nan_ipc.ipc = f64::NAN;
        assert!(nan_ipc.validate(&arch).unwrap_err().contains("IPC"));

        let mut zero_ipc = good.clone();
        zero_ipc.ipc = 0.0;
        assert!(zero_ipc.validate(&arch).unwrap_err().contains("outside"));

        let mut wild_ipc = good.clone();
        wild_ipc.ipc = (arch.issue_width * arch.num_pes) as f64 + 1.0;
        assert!(wild_ipc.validate(&arch).unwrap_err().contains("outside"));

        let mut bad_energy = good.clone();
        bad_energy.energy_per_inst_pj = -1.0;
        assert!(bad_energy.validate(&arch).unwrap_err().contains("energy"));

        let mut bad_feature = good.clone();
        bad_feature.features[3] = f64::INFINITY;
        assert!(bad_feature
            .validate(&arch)
            .unwrap_err()
            .contains("feature 3"));
    }

    #[test]
    fn checked_features_match_unchecked() {
        let run = tiny_run(Workload::Atax);
        let mut t = napel_ir::MultiTrace::new(1);
        let mut e = napel_ir::Emitter::new(t.thread_sink(0));
        let x = e.load(0, 0, 8);
        e.store(1, 8, 8, x);
        drop(e);
        let profile = ApplicationProfile::of(&t);
        let arch = ArchConfig::paper_default();
        let checked = combined_features_checked(&profile, &arch).unwrap();
        assert_eq!(checked, combined_features(&profile, &arch));
        assert_eq!(checked.len(), run.features.len());
    }

    #[test]
    fn wrong_length_profile_is_a_schema_error_not_a_panic() {
        let arch = ArchConfig::paper_default();
        let short = ApplicationProfile::from_values(vec![1.0, 2.0, 3.0]);
        let err = combined_features_checked(&short, &arch).unwrap_err();
        match err {
            NapelError::FeatureSchema { what } => {
                assert!(what.contains("3 values"), "{what}");
                assert!(
                    what.contains(&napel_pisa::feature_names().len().to_string()),
                    "{what}"
                );
            }
            other => panic!("expected FeatureSchema, got {other}"),
        }
    }

    #[test]
    fn content_hash_tracks_training_content() {
        let set = TrainingSet {
            feature_names: combined_feature_names(),
            runs: vec![tiny_run(Workload::Atax), tiny_run(Workload::Bfs)],
            stats: CollectStats::default(),
        };
        let h = set.content_hash();
        assert_eq!(h, set.clone().content_hash(), "hash is deterministic");
        // Stats are wall-clock noise, not content.
        let mut timed = set.clone();
        timed.stats.simulate_seconds = 123.0;
        assert_eq!(h, timed.content_hash());
        // Any label bit flip changes the hash.
        let mut flipped = set.clone();
        flipped.runs[0].ipc = f64::from_bits(flipped.runs[0].ipc.to_bits() ^ 1);
        assert_ne!(h, flipped.content_hash());
        let fewer = set.filtered(|w| w == Workload::Atax);
        assert_ne!(h, fewer.content_hash());
    }

    #[test]
    fn labels_are_sane() {
        let r = tiny_run(Workload::Atax);
        assert!(r.ipc > 0.0 && r.ipc <= 1.0);
        assert!(r.energy_per_inst_pj > 0.0);
        assert_eq!(r.instructions, 100);
    }

    #[test]
    fn datasets_carry_labels() {
        let set = TrainingSet {
            feature_names: combined_feature_names(),
            runs: vec![tiny_run(Workload::Atax), tiny_run(Workload::Bfs)],
            stats: CollectStats::default(),
        };
        let d = set.ipc_dataset().unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.target(0), set.runs[0].ipc);
        let e = set.energy_dataset().unwrap();
        assert_eq!(e.target(1), set.runs[1].energy_per_inst_pj);
        assert_eq!(set.groups(), vec![0, 1]);
        assert_eq!(set.workloads(), vec![Workload::Atax, Workload::Bfs]);
    }

    #[test]
    fn filtering_by_workload() {
        let set = TrainingSet {
            feature_names: combined_feature_names(),
            runs: vec![tiny_run(Workload::Atax), tiny_run(Workload::Bfs)],
            stats: CollectStats::default(),
        };
        let only_bfs = set.filtered(|w| w == Workload::Bfs);
        assert_eq!(only_bfs.runs.len(), 1);
        assert_eq!(only_bfs.runs[0].workload, Workload::Bfs);
    }
}

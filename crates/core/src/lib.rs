//! NAPEL — the DAC 2019 framework, end to end.
//!
//! This crate wires the substrates together into the paper's pipeline
//! (Figure 1):
//!
//! 1. **Kernel analysis** (①/④): run the instrumented kernel
//!    ([`napel_workloads`]) and extract the hardware-independent profile
//!    ([`napel_pisa`]).
//! 2. **Microarchitectural simulation** (②): execute the CCD-selected
//!    input configurations ([`napel_doe`]) on the NMC simulator
//!    ([`nmc_sim`]) to label the training set — [`collect`].
//! 3. **Ensemble-model training** (③): random-forest models for IPC and
//!    energy-per-instruction with cross-validated hyper-parameter tuning —
//!    [`model::Napel`].
//! 4. **Prediction** (⑤): estimate IPC/energy of *previously-unseen*
//!    applications on an architecture configuration —
//!    [`model::TrainedNapel::predict`].
//!
//! On top of the pipeline, [`analysis`] implements the paper's
//! leave-one-application-out accuracy protocol (Figure 5) and the EDP-based
//! NMC-suitability use case (Figures 6–7), and [`experiments`] packages
//! every table and figure of the evaluation as a reproducible driver.
//!
//! Simulation batches — phase-② collection and the leave-one-out folds
//! built on it — run through the [`campaign`] engine, which can spread
//! jobs across scoped worker threads while keeping the output
//! bit-identical to a serial run. The engine is a supervised,
//! fault-tolerant runtime: job panics and invalid labels are caught with
//! full provenance, optionally quarantined instead of aborting the
//! campaign ([`fault`]), and an append-only checkpoint journal
//! ([`checkpoint`]) lets a killed campaign resume, recomputing only
//! unfinished jobs.
//!
//! Each operation has one entry point, and it takes its executor (and,
//! for a campaign, its [`fault::CampaignOptions`]) as arguments; an
//! operation that trains also takes its [`ModelIo`]. No entry point reads
//! the environment: the `napel-bench` drivers turn their flags and the
//! `NAPEL_*` variables into these arguments (through
//! [`campaign::AnyExecutor::from_env`] and
//! [`fault::CampaignOptions::from_env`]).
//!
//! Trained models persist across processes: [`TrainedNapel`] saves to a
//! versioned, schema-checked `.napel` artifact bundle ([`artifact`]) and
//! loads back bit-identically, so the expensive train+tune phase runs
//! once and every later evaluation or prediction reuses the artifact
//! (`--model-out` / `--model-in` on the bench drivers).
//!
//! # Example
//!
//! ```no_run
//! use napel_core::campaign::Serial;
//! use napel_core::collect::{collect, CollectionPlan};
//! use napel_core::fault::CampaignOptions;
//! use napel_core::model::{Napel, NapelConfig};
//! use napel_pisa::ApplicationProfile;
//! use napel_workloads::{Scale, Workload};
//! use nmc_sim::ArchConfig;
//!
//! // Train on eleven applications...
//! let plan = CollectionPlan {
//!     workloads: Workload::ALL.iter().copied().filter(|w| *w != Workload::Atax).collect(),
//!     ..CollectionPlan::default()
//! };
//! let (set, _report) = collect(&plan, &Serial, &CampaignOptions::default())?;
//! let trained = Napel::new(NapelConfig::default()).train(&set)?;
//!
//! // ...and predict the twelfth, never seen during training.
//! let trace = Workload::Atax.generate_test(plan.scale);
//! let profile = ApplicationProfile::of(&trace);
//! let pred = trained.predict(&profile, &ArchConfig::paper_default());
//! println!("predicted IPC = {:.3}", pred.ipc);
//! # Ok::<(), napel_core::NapelError>(())
//! ```

pub mod analysis;
pub mod artifact;
pub mod campaign;
pub mod checkpoint;
pub mod collect;
mod error;
pub mod experiments;
pub mod fault;
pub mod features;
pub mod model;

pub use artifact::{ModelArtifact, ModelIo, Provenance, TargetKind};
pub use error::NapelError;
pub use model::TrainedNapel;

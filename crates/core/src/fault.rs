//! Fault policies, job outcomes, quarantine reports, and the
//! deterministic fault injector.
//!
//! The campaign engine ([`crate::campaign`]) runs hundreds of independent
//! simulation jobs; one crashed or corrupted job must not forfeit hours of
//! campaign work. This module holds the vocabulary the supervised runtime
//! ([`crate::campaign::run_supervised`]) speaks:
//!
//! - [`FaultPolicy`] — what a job failure does to the rest of the batch:
//!   [`FaultPolicy::FailFast`] stops claiming new jobs and surfaces the
//!   lowest-index failure with its full provenance; with
//!   [`FaultPolicy::Quarantine`] the campaign completes and failed jobs
//!   are excluded from the training rows and itemized in the
//!   [`CampaignReport`].
//! - [`JobOutcome`] / [`JobStatus`] — what happened to each job:
//!   computed, restored from a checkpoint, failed, or skipped after a
//!   fail-fast cancellation.
//! - [`JobFailure`] / [`JobFailureKind`] — a structured error chain
//!   carrying the failed job's provenance (workload × DoE point ×
//!   architecture) and root cause (panic payload, invalid label, or
//!   feature-schema mismatch).
//! - [`FaultInjector`] — a seeded, deterministic test/bench hook that
//!   injects panics and NaN labels at chosen job indices, used to prove
//!   the quarantine/checkpoint machinery without ever making the
//!   production path probabilistic.
//!
//! Determinism under faults: whether a given job fails is a pure function
//! of the job (real faults are deterministic replays of the same pure
//! job; injected faults are keyed by index), so the surviving row set and
//! the quarantine report are identical across executors and worker
//! counts — the same guarantee the fault-free engine makes. For the same
//! reason a failed job is never retried: it would fail again.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::features::{CollectStats, LabeledRun};

/// How a campaign responds to a failing job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// The first failure (lowest job index) cancels the batch: workers
    /// stop claiming new jobs, and the failure surfaces as
    /// [`crate::NapelError::Job`] with the job's provenance. This is the
    /// classic abort-on-error behavior, minus the wasted CPU: a failure
    /// at job 3 of 500 does not burn through the other 497 first.
    #[default]
    FailFast,
    /// The campaign completes; failed jobs are excluded from the returned
    /// rows and itemized in the [`CampaignReport`]. Use this when partial
    /// training data is worth more than an abort — NAPEL's models train
    /// fine on 495 of 500 rows, and the report says exactly which five
    /// are missing and why.
    Quarantine,
}

impl FaultPolicy {
    /// Parses a policy specification: `fast`/`fail-fast` or
    /// `quarantine`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything else.
    pub fn parse_spec(spec: &str) -> Result<FaultPolicy, String> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("fast") || spec.eq_ignore_ascii_case("fail-fast") {
            Ok(FaultPolicy::FailFast)
        } else if spec.eq_ignore_ascii_case("quarantine") {
            Ok(FaultPolicy::Quarantine)
        } else {
            Err(format!(
                "unparsable fault policy `{spec}` (expected `fast` or `quarantine`)"
            ))
        }
    }
}

/// A deterministic exponential backoff schedule with a cap: attempt `n`
/// waits `base · 2ⁿ`, saturating at `cap`. No jitter — the same attempt
/// number always yields the same delay, which keeps `napel-serve`'s
/// supervised worker restarts replayable (the same determinism contract
/// as the rest of this module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry (attempt 0).
    pub base: Duration,
    /// Upper bound no attempt ever exceeds.
    pub cap: Duration,
}

impl Backoff {
    /// A schedule starting at `base` and doubling up to `cap`.
    pub const fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff { base, cap }
    }

    /// The delay before retry `attempt` (0-based): `base · 2^attempt`,
    /// saturating at `cap`. Overflow-safe for any attempt number.
    pub fn delay(&self, attempt: u32) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        // 2^attempt saturates well before Duration does: past 2^63 the
        // product exceeds any representable cap.
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.base
            .saturating_mul(factor.min(u32::MAX as u64) as u32)
            .min(self.cap)
    }
}

/// Options governing a supervised campaign run: fault policy,
/// checkpointing, and (for tests) fault injection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignOptions {
    /// What a job failure does to the batch.
    pub policy: FaultPolicy,
    /// Append-only checkpoint journal path. When set, every completed
    /// job's row is journaled, and jobs whose descriptor hash is already
    /// present are restored without recomputation — which is what lets a
    /// killed campaign resume. See [`crate::checkpoint`].
    pub checkpoint: Option<PathBuf>,
    /// Deterministic fault injection (tests only; `None` in production).
    pub injector: Option<FaultInjector>,
}

impl CampaignOptions {
    /// Options from the environment:
    ///
    /// - `NAPEL_CHECKPOINT` — journal path (unset/empty → no checkpoint),
    /// - `NAPEL_FAIL_POLICY` — `fast` (default) or `quarantine`.
    ///
    /// Unparsable values warn once *per distinct message* (via the
    /// `napel-telemetry` log facade, so `NAPEL_LOG` and `--quiet` apply)
    /// and fall back to the default, mirroring `NAPEL_JOBS` handling — a
    /// typo must not abort (or silently reconfigure) a long campaign. The
    /// library itself never calls this: its entry points take options.
    pub fn from_env() -> Self {
        let mut opts = CampaignOptions::default();
        if let Ok(path) = std::env::var("NAPEL_CHECKPOINT") {
            if !path.trim().is_empty() {
                opts.checkpoint = Some(PathBuf::from(path));
            }
        }
        if let Ok(spec) = std::env::var("NAPEL_FAIL_POLICY") {
            match FaultPolicy::parse_spec(&spec) {
                Ok(policy) => opts.policy = policy,
                // Deduplicated by message (not call site), so a later,
                // *different* bad spec in the same process still warns.
                Err(msg) => {
                    napel_telemetry::warn_once!(
                        "napel: NAPEL_FAIL_POLICY: {msg}; keeping fail-fast"
                    );
                }
            }
        }
        opts
    }

    /// Options with the [`FaultPolicy::Quarantine`] policy.
    pub fn quarantine() -> Self {
        CampaignOptions {
            policy: FaultPolicy::Quarantine,
            ..CampaignOptions::default()
        }
    }

    /// Replaces the checkpoint journal path.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Installs a fault injector.
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }
}

/// What happened to one job of a supervised batch.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// The job ran and its row passed the label-validation gate.
    Completed,
    /// The job's row was restored from the checkpoint journal without
    /// recomputation.
    Restored,
    /// The job failed; the kind carries the root cause. Provenance lives
    /// in the matching [`JobFailure`] of the report's quarantine list.
    Failed(JobFailureKind),
    /// The job was never attempted because a fail-fast cancellation was
    /// already in flight.
    Skipped,
}

/// The structured per-job record a supervised campaign returns: index,
/// status, and wall-clock duration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's batch index.
    pub index: usize,
    /// How the job ended.
    pub status: JobStatus,
    /// Wall-clock seconds spent on this job in this run (0 for
    /// restored/skipped jobs). A measurement, not part of the
    /// determinism guarantee.
    pub seconds: f64,
}

/// Root cause of a job failure.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFailureKind {
    /// The job panicked; carries the panic payload rendered as text.
    Panic(String),
    /// The simulated labels failed the validation gate (non-finite or
    /// out-of-range IPC/energy).
    InvalidLabel(String),
    /// The profile/architecture feature schema was inconsistent.
    Schema(String),
}

impl fmt::Display for JobFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailureKind::Panic(what) => write!(f, "panicked: {what}"),
            JobFailureKind::InvalidLabel(what) => write!(f, "invalid label: {what}"),
            JobFailureKind::Schema(what) => write!(f, "feature schema mismatch: {what}"),
        }
    }
}

impl Error for JobFailureKind {}

/// A failed job with its full provenance: which workload at which DoE
/// point on which architecture, and why it failed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// The job's batch index.
    pub index: usize,
    /// Workload name.
    pub workload: String,
    /// The DoE point (application-input configuration, spec order).
    pub params: Vec<f64>,
    /// The architecture configuration, rendered for diagnostics.
    pub arch: String,
    /// Root cause.
    pub kind: JobFailureKind,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} ({} @ {:?} on {}): {}",
            self.index, self.workload, self.params, self.arch, self.kind
        )
    }
}

impl Error for JobFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.kind)
    }
}

/// The itemized result of a supervised campaign: one [`JobOutcome`] per
/// job (in index order), the quarantined failures with provenance, and
/// campaign timing.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-job outcomes, in job-index order, one per job of the batch.
    pub outcomes: Vec<JobOutcome>,
    /// Failures excluded from the returned rows, in job-index order.
    /// Empty on a clean (or fully restored) campaign.
    pub quarantined: Vec<JobFailure>,
    /// Jobs restored from the checkpoint journal instead of recomputed.
    pub restored: usize,
    /// Campaign timing (only work actually done in this run; restored
    /// jobs contribute nothing).
    pub stats: CollectStats,
}

impl CampaignReport {
    /// Jobs that ran to completion in this run (excludes restored ones).
    pub fn executed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Completed)
            .count()
    }

    /// Whether every job produced (or restored) a valid row.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Indices of the quarantined jobs, ascending.
    pub fn quarantined_indices(&self) -> Vec<usize> {
        self.quarantined.iter().map(|q| q.index).collect()
    }

    /// One-line human summary, e.g. for driver binaries.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs: {} executed, {} restored, {} quarantined",
            self.outcomes.len(),
            self.executed(),
            self.restored,
            self.quarantined.len()
        )
    }
}

/// Deterministic fault injection for tests: panics and NaN labels at
/// chosen job indices.
///
/// Faults are keyed by job index, so an injected campaign is as
/// deterministic as a clean one — the quarantine
/// report and surviving rows are identical across executors. The
/// production path never constructs one of these; see
/// [`CampaignOptions::injector`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjector {
    /// Jobs that panic.
    panics: BTreeSet<usize>,
    /// Jobs whose IPC label is corrupted to NaN after simulation.
    nan_labels: BTreeSet<usize>,
}

impl FaultInjector {
    /// An injector with no faults.
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// A seeded injector over a batch of `jobs` jobs: each index
    /// independently panics with probability `panic_frac`, or (else)
    /// gets a NaN IPC label with probability `nan_frac`. Deterministic
    /// in `seed`.
    pub fn seeded(seed: u64, jobs: usize, panic_frac: f64, nan_frac: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inj = FaultInjector::new();
        for index in 0..jobs {
            let roll: f64 = rng.gen_range(0.0..1.0);
            if roll < panic_frac {
                inj.panics.insert(index);
            } else if roll < panic_frac + nan_frac {
                inj.nan_labels.insert(index);
            }
        }
        inj
    }

    /// Panics job `index`.
    pub fn panic_at(mut self, index: usize) -> Self {
        self.panics.insert(index);
        self
    }

    /// Corrupts job `index`'s IPC label to NaN after simulation.
    pub fn nan_label_at(mut self, index: usize) -> Self {
        self.nan_labels.insert(index);
        self
    }

    /// Indices that panic, ascending.
    pub fn panic_indices(&self) -> Vec<usize> {
        self.panics.iter().copied().collect()
    }

    /// Indices with corrupted labels, ascending.
    pub fn nan_indices(&self) -> Vec<usize> {
        self.nan_labels.iter().copied().collect()
    }

    /// All faulty indices (panic or label), ascending.
    pub fn faulty_indices(&self) -> Vec<usize> {
        self.panics.union(&self.nan_labels).copied().collect()
    }

    /// Trips an injected panic, if one is registered for this index.
    pub(crate) fn maybe_panic(&self, index: usize) {
        if self.panics.contains(&index) {
            panic!("injected panic at job {index}");
        }
    }

    /// Applies an injected label corruption, if registered.
    pub(crate) fn corrupt(&self, index: usize, run: &mut LabeledRun) {
        if self.nan_labels.contains(&index) {
            run.ipc = f64::NAN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let b = Backoff::new(Duration::from_millis(25), Duration::from_secs(2));
        assert_eq!(b.delay(0), Duration::from_millis(25));
        assert_eq!(b.delay(1), Duration::from_millis(50));
        assert_eq!(b.delay(2), Duration::from_millis(100));
        assert_eq!(b.delay(3), Duration::from_millis(200));
        // 25ms * 2^7 = 3.2s, past the cap.
        assert_eq!(b.delay(7), Duration::from_secs(2));
        // Deep attempt numbers saturate instead of overflowing.
        assert_eq!(b.delay(63), Duration::from_secs(2));
        assert_eq!(b.delay(u32::MAX), Duration::from_secs(2));
        // The schedule is deterministic: same attempt, same delay.
        assert_eq!(b.delay(4), b.delay(4));
    }

    #[test]
    fn policy_specs_parse() {
        assert_eq!(FaultPolicy::parse_spec("fast"), Ok(FaultPolicy::FailFast));
        assert_eq!(
            FaultPolicy::parse_spec("FAIL-FAST"),
            Ok(FaultPolicy::FailFast)
        );
        assert_eq!(
            FaultPolicy::parse_spec(" quarantine "),
            Ok(FaultPolicy::Quarantine)
        );
        let err = FaultPolicy::parse_spec("later").unwrap_err();
        assert!(err.contains("`later`"), "{err}");
    }

    #[test]
    fn injector_is_deterministic_in_its_seed() {
        let a = FaultInjector::seeded(42, 500, 0.05, 0.05);
        let b = FaultInjector::seeded(42, 500, 0.05, 0.05);
        assert_eq!(a, b);
        let c = FaultInjector::seeded(43, 500, 0.05, 0.05);
        assert_ne!(a, c, "different seeds should move the fault set");
        // Panic and label faults never overlap for a seeded injector.
        let panics: BTreeSet<_> = a.panic_indices().into_iter().collect();
        assert!(a.nan_indices().iter().all(|i| !panics.contains(i)));
        // ~10% of 500 ± noise.
        let total = a.faulty_indices().len();
        assert!((10..=100).contains(&total), "{total} faults");
    }

    #[test]
    fn injected_faults_trip_only_their_jobs() {
        let inj = FaultInjector::new().panic_at(5).nan_label_at(3);
        assert!(std::panic::catch_unwind(|| inj.maybe_panic(5)).is_err());
        // Unregistered jobs (and label-only faults) never trip.
        inj.maybe_panic(0);
        inj.maybe_panic(3);
        assert_eq!(inj.panic_indices(), vec![5]);
        assert_eq!(inj.faulty_indices(), vec![3, 5]);
    }

    #[test]
    fn report_summary_counts() {
        let report = CampaignReport {
            outcomes: vec![
                JobOutcome {
                    index: 0,
                    status: JobStatus::Completed,
                    seconds: 0.1,
                },
                JobOutcome {
                    index: 1,
                    status: JobStatus::Restored,
                    seconds: 0.0,
                },
                JobOutcome {
                    index: 2,
                    status: JobStatus::Failed(JobFailureKind::Panic("x".into())),
                    seconds: 0.2,
                },
            ],
            quarantined: vec![JobFailure {
                index: 2,
                workload: "atax".into(),
                params: vec![],
                arch: String::new(),
                kind: JobFailureKind::Panic("x".into()),
            }],
            restored: 1,
            stats: CollectStats::default(),
        };
        assert_eq!(report.executed(), 1);
        assert!(!report.is_clean());
        assert_eq!(report.quarantined_indices(), vec![2]);
        assert!(report.summary().contains("1 quarantined"));
    }
}

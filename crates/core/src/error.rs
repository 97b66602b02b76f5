//! Framework-level error type.

use std::error::Error;
use std::fmt;

use napel_doe::DesignError;
use napel_ml::MlError;

use crate::fault::JobFailure;

/// Error from the NAPEL pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum NapelError {
    /// A design-of-experiments construction failed.
    Design(DesignError),
    /// An ML estimator failed to fit or validate.
    Ml(MlError),
    /// The training set is unusable for the requested operation.
    BadTrainingSet {
        /// What was wrong.
        what: String,
    },
    /// A campaign job failed (panicked, or produced labels that failed
    /// the validation gate). Carries the job's full provenance — which
    /// workload at which DoE point on which architecture — so a failure
    /// in job 317 of 500 is diagnosable without rerunning the campaign.
    Job(JobFailure),
    /// The checkpoint journal could not be opened or replayed.
    Checkpoint {
        /// Journal path.
        path: String,
        /// What went wrong.
        what: String,
    },
    /// A profile/architecture feature schema mismatch: a feature vector
    /// and the declared feature names disagree.
    FeatureSchema {
        /// What was inconsistent.
        what: String,
    },
    /// A model artifact could not be saved, loaded, or validated —
    /// including version and feature-schema mismatches between the
    /// artifact and this build, which must fail loudly rather than
    /// silently mispredict.
    Artifact {
        /// Artifact path (or a description of the source).
        path: String,
        /// What went wrong.
        what: String,
    },
}

impl fmt::Display for NapelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NapelError::Design(e) => write!(f, "design of experiments failed: {e}"),
            NapelError::Ml(e) => write!(f, "model training failed: {e}"),
            NapelError::BadTrainingSet { what } => write!(f, "bad training set: {what}"),
            NapelError::Job(failure) => write!(f, "campaign job failed: {failure}"),
            NapelError::Checkpoint { path, what } => {
                write!(f, "checkpoint journal `{path}`: {what}")
            }
            NapelError::FeatureSchema { what } => write!(f, "feature schema mismatch: {what}"),
            NapelError::Artifact { path, what } => {
                write!(f, "model artifact `{path}`: {what}")
            }
        }
    }
}

impl Error for NapelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NapelError::Design(e) => Some(e),
            NapelError::Ml(e) => Some(e),
            NapelError::Job(failure) => Some(failure),
            NapelError::BadTrainingSet { .. }
            | NapelError::Checkpoint { .. }
            | NapelError::FeatureSchema { .. }
            | NapelError::Artifact { .. } => None,
        }
    }
}

impl From<DesignError> for NapelError {
    fn from(e: DesignError) -> Self {
        NapelError::Design(e)
    }
}

impl From<MlError> for NapelError {
    fn from(e: MlError) -> Self {
        NapelError::Ml(e)
    }
}

impl From<JobFailure> for NapelError {
    fn from(e: JobFailure) -> Self {
        NapelError::Job(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::JobFailureKind;

    #[test]
    fn job_failures_carry_provenance_through_the_chain() {
        let failure = JobFailure {
            index: 317,
            workload: "atax".into(),
            params: vec![1800.0, 14.0],
            arch: "ArchConfig { num_pes: 32, .. }".into(),
            kind: JobFailureKind::Panic("boom".into()),
        };
        let e: NapelError = failure.into();
        let msg = e.to_string();
        assert!(msg.contains("job 317"), "{msg}");
        assert!(msg.contains("atax"), "{msg}");
        assert!(msg.contains("1800"), "{msg}");
        assert!(msg.contains("num_pes"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
        // The chain bottoms out at the failure kind.
        let source = e.source().expect("JobFailure is the source");
        assert!(source.source().is_some(), "kind is the root cause");
    }

    #[test]
    fn checkpoint_and_schema_errors_render() {
        let e = NapelError::Checkpoint {
            path: "/tmp/j".into(),
            what: "permission denied".into(),
        };
        assert!(e.to_string().contains("/tmp/j"));
        assert!(e.source().is_none());
        let e = NapelError::FeatureSchema {
            what: "unknown profile feature `x`".into(),
        };
        assert!(e.to_string().contains("`x`"));
        let e = NapelError::Artifact {
            path: "models/fig4-atax.napel".into(),
            what: "artifact was trained on 400 features, this build expects 410".into(),
        };
        assert!(e.to_string().contains("models/fig4-atax.napel"));
        assert!(e.to_string().contains("400 features"));
        assert!(e.source().is_none());
    }

    #[test]
    fn conversions_and_sources() {
        let e: NapelError = MlError::EmptyDataset.into();
        assert!(matches!(e, NapelError::Ml(_)));
        assert!(e.source().is_some());
        let e: NapelError = DesignError::EmptySpace.into();
        assert!(e.to_string().contains("design of experiments"));
        let e = NapelError::BadTrainingSet {
            what: "only one application".into(),
        };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("only one application"));
    }
}

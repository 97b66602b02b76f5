//! Property tests hardening the `.napel` bundle decode path: whatever
//! bytes land on disk — truncations, bit flips, raw garbage — loading
//! must return a typed [`NapelError`], never panic, and never hand back
//! a model with the wrong schema. An inference server decodes bundles
//! straight off a directory other processes write to, so the decoder is
//! an untrusted-input boundary, not a friendly deserializer.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use napel::core::campaign::AnyExecutor;
use napel::core::collect::{collect, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::core::model::{Napel, NapelConfig, TrainedNapel};
use napel::core::NapelError;
use napel::workloads::{Scale, Workload};

/// The serialized text of one tiny trained bundle, produced once —
/// training dominates this suite's runtime.
fn bundle_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax, Workload::Gemv],
            scale: Scale::tiny(),
            ..Default::default()
        };
        let (set, _) = collect(&plan, &AnyExecutor::from_env(), &CampaignOptions::default())
            .expect("clean campaign");
        let trained = Napel::new(NapelConfig::untuned())
            .train(&set)
            .expect("train");
        let path = scratch_file("pristine");
        trained.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        text
    })
}

/// A unique scratch path per call (cases run back to back; never reuse).
fn scratch_file(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "napel-bundle-fuzz-{tag}-{}-{n}.napel",
        std::process::id()
    ))
}

/// Loads `bytes` as a bundle and asserts the decode contract: a typed,
/// non-empty, printable error — or a clean success when the damage
/// happened to be cosmetic. Panics (the thing this suite exists to
/// forbid) propagate and fail the test with the offending input.
fn assert_decode_is_total(bytes: &[u8], what: &str) -> bool {
    let path = scratch_file("case");
    std::fs::write(&path, bytes).expect("write case");
    let outcome = TrainedNapel::load(&path);
    std::fs::remove_file(&path).ok();
    match outcome {
        Ok(model) => {
            // Whatever survived decode must still be internally
            // consistent enough to score a well-formed row.
            let row = vec![1.0; model.feature_names().len()];
            let pred = model.predict_row(&row).expect("decoded model must score");
            assert!(pred.ipc.is_finite(), "{what}: non-finite ipc");
            true
        }
        Err(e) => {
            let message = e.to_string();
            assert!(!message.is_empty(), "{what}: empty diagnostic");
            false
        }
    }
}

/// A forged count sizes nothing: a grid line declaring far more
/// candidate lines than the document holds is a typed error, not an
/// allocation abort that would take an inference server down with it.
#[test]
fn a_forged_grid_count_is_a_typed_error() {
    let text = bundle_text();
    let forged: String = text
        .lines()
        .map(|line| {
            if line.starts_with("grid ") {
                "grid 99999999999999"
            } else {
                line
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(forged, text.trim_end(), "the bundle has a grid line");
    let path = scratch_file("forged-grid");
    std::fs::write(&path, forged).expect("write case");
    let outcome = TrainedNapel::load(&path);
    std::fs::remove_file(&path).ok();
    match outcome {
        Err(NapelError::Artifact { what, .. }) => {
            assert!(what.contains("document ends"), "{what}");
        }
        Err(other) => panic!("expected an artifact error, got {other}"),
        Ok(_) => panic!("a bundle with a forged grid count decoded"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Truncating the bundle at any byte offset is a typed error (or, for
    /// offsets past the payload, a clean load) — never a panic.
    #[test]
    fn truncated_bundles_never_panic(frac in 0.0f64..1.0) {
        let text = bundle_text();
        let cut = ((text.len() as f64) * frac) as usize;
        // Cut on a char boundary; the payload is ASCII but don't assume.
        let mut cut = cut.min(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let loaded = assert_decode_is_total(&text.as_bytes()[..cut], "truncation");
        if cut < text.len() / 2 {
            prop_assert!(!loaded, "a bundle missing its second half decoded anyway");
        }
    }

    /// Overwriting any single byte with any value never panics: either a
    /// typed error, or a cosmetic change that still decodes to a model
    /// that can score.
    #[test]
    fn byte_mutations_never_panic(frac in 0.0f64..1.0, value in 0u8..=255) {
        let text = bundle_text();
        let mut bytes = text.as_bytes().to_vec();
        let offset = (((bytes.len() - 1) as f64) * frac) as usize;
        bytes[offset] = value;
        assert_decode_is_total(&bytes, "mutation");
    }

    /// Random garbage is always refused with a typed error.
    #[test]
    fn garbage_bytes_are_always_refused(bytes in prop::collection::vec(0u8..=255, 0..2048)) {
        prop_assert!(
            !assert_decode_is_total(&bytes, "garbage"),
            "random bytes decoded as a model"
        );
    }

    /// Splicing two copies / shuffled line orders: still total.
    #[test]
    fn line_shuffles_never_panic(skip in 0usize..64, take in 1usize..512) {
        let text = bundle_text();
        let spliced: String = text
            .lines()
            .skip(skip)
            .take(take)
            .chain(text.lines().take(skip))
            .collect::<Vec<_>>()
            .join("\n");
        assert_decode_is_total(spliced.as_bytes(), "line shuffle");
    }
}

//! Golden digests: one pinned number per pipeline artifact, so a change
//! that moves any output bit fails here and names the artifact, whether
//! or not a frozen oracle covers the layer it touched.
//!
//! - `campaign_rows`: `TrainingSet::content_hash` of the atax + gemv
//!   campaign at tiny scale;
//! - `napel_bundle`: FNV-1a 64 of the `.napel` bytes `TrainedNapel::save`
//!   writes for the quick-config model trained on those rows (the
//!   server's bundle-cache identity);
//! - `fig5_mres` (release only): the bits of every Figure 5 MRE, rows and
//!   averages, for `fig5 --quick --scale tiny --apps atax,gemv,mvt,syrk`;
//! - `laptop_profile` (release only): the bits of gemv's laptop-scale
//!   test-input PISA profile, streamed through the observer.
//!
//! The digests hold for this toolchain on x86-64 Linux, where CI checks
//! them: libm's `exp` and `ln` may round differently elsewhere, and the
//! models and profiles call both. A change that means to move outputs
//! updates the constant it moves and says why in CHANGES.md.

use napel::core::artifact::ModelIo;
use napel::core::campaign::Serial;
use napel::core::collect::{evaluation_plan, CollectionPlan};
use napel::core::experiments::{fig5, Context};
use napel::core::fault::CampaignOptions;
use napel::core::model::{Napel, NapelConfig};
use napel::pisa::ProfileObserver;
use napel::serve::cache::fnv1a;
use napel::workloads::{Scale, Workload};

/// The regenerator binaries' default seed.
const SEED: u64 = 25019;

const CAMPAIGN_ROWS: u64 = 0xc4d9_776d_b360_1a4f;
const NAPEL_BUNDLE: u64 = 0x579c_be05_3062_6bef;
const FIG5_MRES: u64 = 0xd0c4_c0db_5b9f_997d;
const LAPTOP_PROFILE: u64 = 0xf4f6_e371_f5a1_b190;

/// FNV-1a over the bit patterns of `xs`, little-endian.
fn float_digest(xs: &[f64]) -> u64 {
    let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn assert_digest(artifact: &str, got: u64, pinned: u64) {
    assert!(
        got == pinned,
        "{artifact} moved: digest is now {got:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn campaign_rows_and_the_bundle_trained_on_them_are_pinned() {
    // `tests/artifacts.rs`'s atax + gemv plan.
    let plan = CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let ctx = Context::build(&plan, SEED, &Serial, &CampaignOptions::default())
        .expect("clean campaign")
        .0;
    assert_digest("campaign_rows", ctx.training.content_hash(), CAMPAIGN_ROWS);

    let trained = Napel::new(NapelConfig {
        seed: SEED,
        ..NapelConfig::untuned()
    })
    .train(&ctx.training)
    .expect("train");
    let dir = std::env::temp_dir().join(format!("napel-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("atax-gemv.napel");
    trained.save(&path).expect("save");
    let bundle = std::fs::read(&path).expect("read the saved bundle");
    std::fs::remove_dir_all(&dir).ok();
    assert_digest("napel_bundle", fnv1a(&bundle), NAPEL_BUNDLE);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release: CI golden digests")]
fn fig5_mres_are_pinned() {
    let apps = vec![
        Workload::Atax,
        Workload::Gemv,
        Workload::Mvt,
        Workload::Syrk,
    ];
    let ctx = Context::build(
        &evaluation_plan(apps, Scale::tiny()),
        SEED,
        &Serial,
        &CampaignOptions::default(),
    )
    .expect("clean campaign")
    .0;
    let result = fig5::run(&ctx, &ModelIo::none(), &Serial).expect("fig5");
    let mut mres = Vec::new();
    for r in &result.rows {
        mres.extend([r.napel.0, r.napel.1, r.ann.0, r.ann.1, r.dtree.0, r.dtree.1]);
    }
    for (perf, energy) in result.averages {
        mres.extend([perf, energy]);
    }
    assert_digest("fig5_mres", float_digest(&mres), FIG5_MRES);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release: CI golden digests")]
fn laptop_profile_is_pinned() {
    let w = Workload::Gemv;
    let mut observer = ProfileObserver::new();
    w.generate_into(&w.spec().test_values(), Scale::laptop(), &mut observer);
    assert_digest(
        "laptop_profile",
        float_digest(observer.finish().values()),
        LAPTOP_PROFILE,
    );
}

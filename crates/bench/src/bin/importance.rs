//! Which profile features drive NAPEL's IPC predictions?
//!
//! Trains the forest on the full corpus, then ranks the combined feature
//! vector by permutation importance. The paper motivates its 395-feature
//! profile by saying "such a large number of features enables complex
//! relationships to be identified" — this binary shows which of them the
//! forest actually leans on.

use napel_bench::{announce_report, exit_with_error, Options};
use napel_core::collect::{collect, CollectionPlan};
use napel_ml::log_space::LogOf;
use napel_ml::Estimator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(opts: &Options) -> Result<(), String> {
    napel_telemetry::info!("collecting training data ({:?})...", opts.scale);
    let plan = CollectionPlan {
        workloads: opts.workloads(),
        scale: opts.scale,
        ..Default::default()
    };
    let (set, report) = collect(&plan, &opts.executor(), &opts.campaign_options())
        .map_err(|e| format!("collection campaign failed: {e}"))?;
    announce_report(&report);
    let data = set
        .ipc_dataset()
        .map_err(|e| format!("training set is not a dataset: {e}"))?;

    napel_telemetry::info!("training and computing permutation importance...");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let est = LogOf(napel_core::experiments::fig5::napel_estimator());
    let model = est
        .fit(&data, &mut rng)
        .map_err(|e| format!("forest fit failed: {e}"))?;
    let importances = model.inner().permutation_importance(&data, &mut rng);

    let mut ranked: Vec<(usize, f64)> = importances.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!("top 25 features by permutation importance (IPC model):\n");
    let max = ranked.first().map(|r| r.1).unwrap_or(1.0).max(1e-12);
    for (rank, (idx, imp)) in ranked.iter().take(25).enumerate() {
        let bar = "#".repeat(((imp / max) * 40.0).round() as usize);
        println!(
            "{:>2}. {:<32} {:>9.2e}  {}",
            rank + 1,
            set.feature_names[*idx],
            imp,
            bar
        );
    }
    let dead = importances.iter().filter(|&&v| v <= 0.0).count();
    println!(
        "\n{} of {} features have non-positive importance (screening candidates)",
        dead,
        importances.len()
    );
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    if let Err(message) = run(&opts) {
        exit_with_error("importance", &message);
    }
    opts.finish_telemetry();
}

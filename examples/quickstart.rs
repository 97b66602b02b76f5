//! Quickstart: train NAPEL on a handful of applications and predict the
//! performance and energy of an application it has never seen.
//!
//! Run with `cargo run --release --example quickstart`.

use napel::core::campaign::AnyExecutor;
use napel::core::collect::{collect, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::core::model::{Napel, NapelConfig, TrainedNapel};
use napel::pisa::ApplicationProfile;
use napel::sim::{ArchConfig, NmcSystem};
use napel::workloads::{Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Keep the demo snappy: five applications at tiny scale.
    let scale = Scale::tiny();
    let train_apps = vec![
        Workload::Gemv,
        Workload::Mvt,
        Workload::Syrk,
        Workload::Bfs,
        Workload::Kme,
    ];
    let unseen = Workload::Atax;

    println!(
        "1. collecting DoE-selected training runs for {} apps...",
        train_apps.len()
    );
    let plan = CollectionPlan {
        workloads: train_apps,
        scale,
        ..Default::default()
    };
    let (set, _) = collect(&plan, &AnyExecutor::from_env(), &CampaignOptions::default())?;
    println!(
        "   {} labeled runs ({:.2}s simulation, {:.2}s analysis)",
        set.runs.len(),
        set.stats.simulate_seconds,
        set.stats.profile_seconds
    );

    println!("2. training the random-forest models...");
    let trained = Napel::new(NapelConfig::untuned()).train(&set)?;

    println!("3. predicting {unseen} (never seen in training)...");
    let params = unseen.spec().central_values();
    let trace = unseen.generate(&params, scale);
    let profile = ApplicationProfile::of(&trace);
    let arch = ArchConfig::paper_default();
    let pred = trained.predict(&profile, &arch);

    // Check the prediction against a real simulation.
    let actual = NmcSystem::new(arch).run(&trace);
    println!(
        "   predicted IPC {:.3}   simulated IPC {:.3}",
        pred.ipc,
        actual.ipc()
    );
    println!(
        "   predicted energy {:.3e} J   simulated {:.3e} J",
        pred.energy_joules(trace.total_insts() as u64),
        actual.energy_joules()
    );
    println!(
        "   relative IPC error: {:.1}%",
        (pred.ipc - actual.ipc()).abs() / actual.ipc() * 100.0
    );

    // Train once, predict many: persist the trained models as a .napel
    // artifact bundle and reload them — no retraining, bit-identical
    // predictions.
    println!("4. saving the trained models and predicting from the artifact...");
    let bundle = std::env::temp_dir().join("quickstart.napel");
    let bytes = trained.save(&bundle)?;
    let reloaded = TrainedNapel::load(&bundle)?;
    let again = reloaded.predict(&profile, &ArchConfig::paper_default());
    println!(
        "   {} bytes -> {} ; reloaded IPC {:.3} (bit-identical: {})",
        bytes,
        bundle.display(),
        again.ipc,
        again.ipc.to_bits() == pred.ipc.to_bits()
    );
    std::fs::remove_file(&bundle).ok();
    Ok(())
}

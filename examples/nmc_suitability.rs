//! The Section 3.4 use case: should this workload be offloaded to NMC?
//!
//! Compares the energy-delay product of executing each workload near
//! memory (predicted by NAPEL, validated by the simulator) against
//! executing it on the POWER9-class host model.
//!
//! Run with `cargo run --release --example nmc_suitability`.

use napel::core::analysis::nmc_suitability;
use napel::core::artifact::ModelIo;
use napel::core::campaign::AnyExecutor;
use napel::core::collect::{collect, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::core::model::NapelConfig;
use napel::sim::ArchConfig;
use napel::workloads::{Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::tiny();
    // A contrasting subset: two memory-irregular and two locality-rich.
    let apps = vec![
        Workload::Bfs,
        Workload::Kme,
        Workload::Gemv,
        Workload::Syrk,
        Workload::Mvt,
    ];

    println!(
        "collecting training data for {} applications...",
        apps.len()
    );
    let exec = AnyExecutor::from_env();
    let plan = CollectionPlan {
        workloads: apps,
        scale,
        ..Default::default()
    };
    let (set, _) = collect(&plan, &exec, &CampaignOptions::default())?;

    println!("running the leave-one-out suitability analysis...\n");
    let rows = nmc_suitability(
        &set,
        &NapelConfig::untuned(),
        &ArchConfig::paper_default(),
        scale,
        &ModelIo::none(),
        "suitability",
        &exec,
    )?;

    println!(
        "{:<6} {:>14} {:>14} {:>8} {:>7}",
        "app", "NAPEL EDP red.", "actual EDP red.", "winner", "agree"
    );
    for r in &rows {
        println!(
            "{:<6} {:>13.2}x {:>14.2}x {:>8} {:>7}",
            r.workload.name(),
            r.edp_reduction_predicted(),
            r.edp_reduction_actual(),
            if r.edp_reduction_actual() > 1.0 {
                "NMC"
            } else {
                "host"
            },
            if r.suitability_agrees() { "yes" } else { "NO" },
        );
    }
    Ok(())
}

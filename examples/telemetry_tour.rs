//! Telemetry tour: run a tiny campaign with the collector installed, then
//! walk the drained report — phase-time breakdown, simulator counters,
//! and the JSONL event stream other tools would consume.
//!
//! Run with `cargo run --release --example telemetry_tour`.

use napel::core::campaign::Serial;
use napel::core::collect::{collect, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::telemetry::Telemetry;
use napel::workloads::{Scale, Workload};

fn main() {
    // Telemetry is off by default (a noop global whose hot-path check is
    // one relaxed atomic load). Installing an enabled collector turns
    // every span!/counter! site in the workspace live.
    napel::telemetry::install(Telemetry::enabled());

    println!("1. running a three-application campaign with telemetry on...");
    let plan = CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv, Workload::Bfs],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let (set, _) = collect(&plan, &Serial, &CampaignOptions::default()).expect("clean campaign");
    println!("   {} labeled runs collected\n", set.runs.len());

    // Drain atomically takes everything recorded so far and resets the
    // collector; events are ordered by (lane, seq), which is identical
    // for serial and threaded executors.
    let report = napel::telemetry::global().drain();

    println!("2. phase-time breakdown and counters:\n");
    println!("{}\n", report.summary());

    println!("3. per-vault DRAM load balance (nmc_sim.vault.* counters):");
    let mut vaults: Vec<(&str, u64)> = report
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("nmc_sim.vault."))
        .map(|(name, value)| (name.as_str(), *value))
        .collect();
    vaults.sort_by_key(|&(name, _)| {
        name.trim_start_matches("nmc_sim.vault.")
            .trim_end_matches(".accesses")
            .parse::<u64>()
            .unwrap_or(u64::MAX)
    });
    let peak = vaults.iter().map(|&(_, v)| v).max().unwrap_or(1).max(1);
    for (name, value) in &vaults {
        let bar = "#".repeat(((*value as f64 / peak as f64) * 40.0).round() as usize);
        println!("   {name:<28} {value:>9}  {bar}");
    }

    println!("\n4. first five JSONL events (what --telemetry-out writes):");
    for line in report.to_jsonl().lines().take(5) {
        println!("   {line}");
    }

    // Restore the default; a long-lived host would keep the collector and
    // drain periodically instead.
    napel::telemetry::install(Telemetry::noop());
}

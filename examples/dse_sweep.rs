//! Fast early-stage design-space exploration — the paper's motivating use
//! case. A trained NAPEL model sweeps dozens of NMC architecture
//! configurations in milliseconds each, where the simulator would take
//! orders of magnitude longer; the best design by predicted EDP is then
//! validated with one simulation.
//!
//! Run with `cargo run --release --example dse_sweep`.

use napel::core::campaign::AnyExecutor;
use napel::core::collect::{arch_neighborhood, collect, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::core::model::{Napel, NapelConfig};
use napel::pisa::ApplicationProfile;
use napel::sim::{ArchConfig, NmcSystem, RowPolicy};
use napel::workloads::{Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::tiny();
    let target = Workload::Kme;

    println!("training NAPEL with architectural variation...");
    let plan = CollectionPlan {
        workloads: vec![Workload::Bfs, Workload::Bp, Workload::Gemv, Workload::Mvt],
        arch_configs: arch_neighborhood(),
        scale,
    };
    let (set, _) = collect(&plan, &AnyExecutor::from_env(), &CampaignOptions::default())?;
    let trained = Napel::new(NapelConfig::untuned()).train(&set)?;

    println!("profiling {target} once...");
    let trace = target.generate(&target.spec().central_values(), scale);
    let profile = ApplicationProfile::of(&trace);
    let insts = trace.total_insts() as u64;

    // Sweep the design space: PE count x cache size x row policy.
    println!("sweeping the design space with the model...");
    let mut best: Option<(ArchConfig, f64)> = None;
    let mut evaluated = 0;
    for num_pes in [8, 16, 32, 64] {
        for cache_lines in [2, 8, 32] {
            for row_policy in [RowPolicy::Closed, RowPolicy::Open] {
                let arch = ArchConfig {
                    num_pes,
                    cache_lines,
                    row_policy,
                    ..ArchConfig::paper_default()
                };
                let pred = trained.predict(&profile, &arch);
                let edp = pred.edp(insts);
                evaluated += 1;
                if best.as_ref().is_none_or(|(_, b)| edp < *b) {
                    best = Some((arch, edp));
                }
            }
        }
    }
    let (best_arch, best_edp) = best.expect("non-empty sweep");
    println!(
        "evaluated {evaluated} designs; best predicted EDP {best_edp:.3e} J*s at \
         {} PEs, {} cache lines, {:?} rows",
        best_arch.num_pes, best_arch.cache_lines, best_arch.row_policy
    );

    println!("validating the winner with one simulation...");
    let report = NmcSystem::new(best_arch).run(&trace);
    println!(
        "simulated EDP {:.3e} J*s (predicted {:.3e})",
        report.edp(),
        best_edp
    );
    Ok(())
}

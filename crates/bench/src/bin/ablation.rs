//! Design-choice ablations: CCD vs LHS vs random sampling, forest size,
//! feature screening, the atax cache/scratchpad what-if, the offload-cost
//! sensitivity, row policy, and the active-DoE accuracy-vs-budget curve.

use napel_bench::{exit_with_error, Options};
use napel_core::experiments::ablation;
use napel_workloads::Workload;

fn run(opts: &Options) -> Result<(), String> {
    let exec = opts.executor();
    let apps = opts.workloads();

    napel_telemetry::info!("running sampler ablation ({:?})...", opts.scale);
    let io = opts.model_io();
    let samplers = ablation::sampler_ablation(&apps, opts.scale, opts.seed, &io, &exec)
        .map_err(|e| format!("sampler ablation failed: {e}"))?;

    napel_telemetry::info!("running forest-size sweep...");
    let ccd = ablation::Sampler::Ccd;
    let set = ablation::collect_with_sampler(&apps, ccd, opts.scale, opts.seed, &exec)
        .map_err(|e| format!("CCD collection failed: {e}"))?;
    let sweep = ablation::forest_size_sweep(&set, &[10, 30, 60, 120, 240], opts.seed, &io, &exec)
        .map_err(|e| format!("forest sweep failed: {e}"))?;

    println!("Ablations: training-point sampler and forest size\n");
    print!("{}", ablation::render(&samplers, &sweep));

    napel_telemetry::info!("running feature-screening ablation...");
    let screening = ablation::screening_ablation(&set, &[10, 30, 100], opts.seed, &io, &exec)
        .map_err(|e| format!("screening ablation failed: {e}"))?;
    println!("\nFeature screening (top-k by permutation importance):");
    for p in &screening {
        let kept = if p.kept == usize::MAX {
            "all".to_string()
        } else {
            p.kept.to_string()
        };
        println!("  keep {:>4}  perf MRE {:.1}%", kept, p.perf_mre * 100.0);
    }

    napel_telemetry::info!("running the atax cache/scratchpad what-if...");
    println!("\natax NMC L1 size what-if (Section 3.4's closing observation):");
    for p in ablation::cache_size_sweep(Workload::Atax, &[2, 8, 32, 128], opts.scale) {
        println!(
            "  {:>4} lines ({:>5} B)  IPC {:.3}  EDP {:.3e} J*s",
            p.cache_lines,
            p.cache_lines * 64,
            p.ipc,
            p.edp
        );
    }

    napel_telemetry::info!("running the offload-cost sensitivity study...");
    println!("\noffload-cost sensitivity (one-time SerDes transfer of the footprint):");
    for r in ablation::offload_sensitivity(&apps, opts.scale) {
        println!(
            "  {:<5} resident EDP {:.3e}  with transfer {:.3e}  (x{:.2})",
            r.workload.name(),
            r.edp_resident,
            r.edp_with_offload,
            r.inflation()
        );
    }

    napel_telemetry::info!("running the row-policy study...");
    println!("\nclosed- vs open-row EDP (J*s) at central configurations:");
    for (w, closed, open) in ablation::row_policy_study(&apps, opts.scale) {
        let better = if open < closed { "open" } else { "closed" };
        println!(
            "  {:<5} closed {:.3e}  open {:.3e}  -> {}",
            w.name(),
            closed,
            open,
            better
        );
    }

    napel_telemetry::info!("running the accuracy-vs-budget curve...");
    let budgets = opts.budget_list(&[5, 7, 9]);
    let curve = ablation::budget_curve(&apps, opts.scale, &budgets, opts.seed, &io, &exec)
        .map_err(|e| format!("budget curve failed: {e}"))?;
    println!("\naccuracy vs simulation budget (plain CCD prefix vs active sampling):");
    print!("{}", ablation::render_budget_curve(&curve));
    let verdict = if curve.active_no_worse(0.05) {
        "PASS (active sampling no worse than the CCD prefix at equal budget)"
    } else {
        "FAIL (active sampling worse than the CCD prefix)"
    };
    println!("active-doe verdict: {verdict}");
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    if let Err(message) = run(&opts) {
        exit_with_error("ablation", &message);
    }
    opts.finish_telemetry();
}

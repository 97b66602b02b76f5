//! Runs every table and figure in sequence, printing the full evaluation.

use napel_bench::{exit_with_error, Options};
use napel_core::experiments::{fig4, fig5, fig6, fig7, table2, table3, table4};

fn run(opts: &Options) -> Result<(), String> {
    let exec = opts.executor();
    let io = opts.model_io();
    println!("== Table 2 ==\n{}", table2::render());
    println!("== Table 3 ==\n{}", table3::render(opts.scale));

    let ctx = opts.context(&exec)?;
    let cfg = opts.napel_config();

    napel_telemetry::info!("table 4...");
    let t4 = table4::run(&ctx, &cfg, &io, &exec).map_err(|e| format!("table 4 failed: {e}"))?;
    println!("== Table 4 ==\n{}", table4::render(&t4));

    napel_telemetry::info!("figure 4...");
    let f4 = fig4::run(&ctx, &cfg, opts.configs, &io, &exec)
        .map_err(|e| format!("fig 4 failed: {e}"))?;
    println!("== Figure 4 ==\n{}", fig4::render(&f4));

    napel_telemetry::info!("figure 5...");
    let f5 = fig5::run(&ctx, &io, &exec).map_err(|e| format!("fig 5 failed: {e}"))?;
    println!("== Figure 5 ==\n{}", fig5::render(&f5));

    napel_telemetry::info!("figure 6...");
    let f6 = fig6::run(&opts.workloads(), opts.scale);
    println!("== Figure 6 ==\n{}", fig6::render(&f6));

    napel_telemetry::info!("figure 7...");
    let f7 = fig7::run(&ctx, &cfg, &io, &exec).map_err(|e| format!("fig 7 failed: {e}"))?;
    println!("== Figure 7 ==\n{}", fig7::render(&f7));
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    if let Err(message) = run(&opts) {
        exit_with_error("all", &message);
    }
    opts.finish_telemetry();
}

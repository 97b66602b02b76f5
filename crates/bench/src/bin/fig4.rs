//! Regenerates Figure 4 (NAPEL prediction speedup over simulation for a
//! design-space sweep of architecture configurations).

use napel_bench::{exit_with_error, Options};
use napel_core::experiments::fig4;

fn run(opts: &Options) -> Result<(), String> {
    let exec = opts.executor();
    let ctx = opts.context(&exec)?;
    napel_telemetry::info!("timing {} configurations per application...", opts.configs);
    let rows = fig4::run(
        &ctx,
        &opts.napel_config(),
        opts.configs,
        &opts.model_io(),
        &exec,
    )
    .map_err(|e| format!("fig 4 run failed: {e}"))?;
    println!("Figure 4: prediction speedup over the simulator (increasing order)\n");
    print!("{}", fig4::render(&rows));
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    if let Err(message) = run(&opts) {
        exit_with_error("fig4", &message);
    }
    opts.finish_telemetry();
}

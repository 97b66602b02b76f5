//! Regenerates Table 4 (DoE configuration counts, training and prediction
//! times). Times are seconds on this substrate; the paper reports minutes
//! on a server — see EXPERIMENTS.md for the side-by-side.

use napel_bench::{exit_with_error, Options};
use napel_core::experiments::table4;

fn run(opts: &Options) -> Result<(), String> {
    let exec = opts.executor();
    let ctx = opts.context(&exec)?;
    napel_telemetry::info!("running per-application timings...");
    let rows = table4::run(&ctx, &opts.napel_config(), &opts.model_io(), &exec)
        .map_err(|e| format!("table 4 run failed: {e}"))?;
    println!("Table 4: DoE configurations and training/prediction time\n");
    print!("{}", table4::render(&rows));
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    if let Err(message) = run(&opts) {
        exit_with_error("table4", &message);
    }
    opts.finish_telemetry();
}

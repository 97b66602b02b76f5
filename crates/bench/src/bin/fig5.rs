//! Regenerates Figure 5 (leave-one-application-out MRE of NAPEL vs an ANN
//! vs a linear decision tree, for performance and energy).

use napel_bench::{exit_with_error, Options};
use napel_core::experiments::fig5;

fn run(opts: &Options) -> Result<(), String> {
    let exec = opts.executor();
    let ctx = opts.context(&exec)?;
    napel_telemetry::info!("running leave-one-application-out comparisons...");
    let result =
        fig5::run(&ctx, &opts.model_io(), &exec).map_err(|e| format!("fig 5 run failed: {e}"))?;
    println!("Figure 5: mean relative error, performance (a) and energy (b)\n");
    print!("{}", fig5::render(&result));
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    if let Err(message) = run(&opts) {
        exit_with_error("fig5", &message);
    }
    opts.finish_telemetry();
}

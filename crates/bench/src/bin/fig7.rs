//! Regenerates Figure 7 (estimated EDP reduction of NMC offloading vs the
//! host; NAPEL prediction next to the simulator's "Actual").

use napel_bench::{exit_with_error, Options};
use napel_core::experiments::fig7;

fn run(opts: &Options) -> Result<(), String> {
    let exec = opts.executor();
    let ctx = opts.context(&exec)?;
    napel_telemetry::info!("running the NMC-suitability analysis...");
    let result = fig7::run(&ctx, &opts.napel_config(), &opts.model_io(), &exec)
        .map_err(|e| format!("fig 7 run failed: {e}"))?;
    println!("Figure 7: EDP reduction of NMC offloading vs host execution\n");
    print!("{}", fig7::render(&result));
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    if let Err(message) = run(&opts) {
        exit_with_error("fig7", &message);
    }
    opts.finish_telemetry();
}

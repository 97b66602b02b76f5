//! Regenerates Figure 6 (execution time and energy on the host model).

use napel_bench::Options;
use napel_core::experiments::fig6;

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    napel_telemetry::info!("evaluating test inputs on the host model...");
    let rows = fig6::run(&opts.workloads(), opts.scale);
    println!("Figure 6: execution time and energy on the POWER9-class host\n");
    print!("{}", fig6::render(&rows));
    opts.finish_telemetry();
}

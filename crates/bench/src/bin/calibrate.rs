//! Calibration probe: host vs NMC time/energy per workload (no ML).

use napel_bench::Options;
use napel_hostmodel::HostModel;
use napel_pisa::ApplicationProfile;
use nmc_sim::{ArchConfig, NmcSystem};

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    let host = HostModel::power9(opts.scale);
    println!(
        "{:<6} {:>9} {:>11} {:>11} {:>11} {:>11} {:>9} {:>8} {:>8}",
        "app", "insts", "host_t", "nmc_t", "host_E", "nmc_E", "EDPred", "hostCPI", "nmcIPC"
    );
    for w in opts.workloads() {
        let trace = w.generate_test(opts.scale);
        let profile = ApplicationProfile::of(&trace);
        let h = host.evaluate(&profile);
        let r = NmcSystem::new(ArchConfig::paper_default()).run(&trace);
        let edp_red =
            (h.exec_time_seconds * h.energy_joules) / (r.exec_time_seconds() * r.energy_joules());
        println!(
            "{:<6} {:>9} {:>11.3e} {:>11.3e} {:>11.3e} {:>11.3e} {:>9.3} {:>8.2} {:>8.3}",
            w.name(),
            trace.total_insts(),
            h.exec_time_seconds,
            r.exec_time_seconds(),
            h.energy_joules,
            r.energy_joules(),
            edp_red,
            h.cpi,
            r.ipc()
        );
        napel_telemetry::info!(
            "       spatial {:.2} vec {:.2} dram {:.3} stall {:.2} base {:.3} branch {:.2} bw_bound {}",
            h.spatial, h.vectorizability, h.dram_fraction, h.stall_per_mem, h.base_cpi, h.branch_cpi, h.bandwidth_bound
        );
    }
    opts.finish_telemetry();
}

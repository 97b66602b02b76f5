//! The reference engine: the original monolithic heap-driven loop.
//!
//! All PEs interleave through the shared DRAM via one global min-heap on
//! `(PE local time, PE index)`, stepping a single instruction per pop. The
//! phase-split engine in [`super`] is defined as bit-exact against this
//! loop; it stays here as the differential-test oracle, executing one
//! instruction per heap transaction exactly as the original did.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use napel_ir::Inst;

use crate::components::dram::DramModel;
use crate::components::pe::ProcessingElement;
use crate::report::SimReport;

use super::{assemble_report, record_report_counters, NmcSystem, PeSummary};

/// Runs the reference interleaved simulation over per-thread streams.
pub(crate) fn run_streams<I>(system: &NmcSystem, mut streams: Vec<I>) -> SimReport
where
    I: ExactSizeIterator<Item = Inst>,
{
    let num_threads = streams.len();
    let total_insts: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let telemetry = napel_telemetry::global();
    let _span = telemetry
        .span("nmc_sim.run")
        .attr("threads", num_threads)
        .attr("insts", total_insts);
    let cfg = system.config();
    let num_pes = cfg.effective_pes(num_threads);

    // Assign threads to PEs round-robin; each PE executes its threads'
    // streams concatenated.
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); num_pes];
    for t in 0..num_threads {
        assignments[t % num_pes].push(t);
    }

    let mut dram = DramModel::new(cfg);
    let mut pes: Vec<ProcessingElement> =
        (0..num_pes).map(|_| ProcessingElement::new(cfg)).collect();
    // Per-PE cursor: index into its thread-assignment list.
    let mut cursors: Vec<usize> = vec![0; num_pes];

    // Min-heap over PE local time so shared-resource contention is
    // resolved in (approximately) global time order.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..num_pes)
        .filter(|&p| !assignments[p].is_empty())
        .map(|p| Reverse((0u64, p)))
        .collect();

    while let Some(Reverse((_, p))) = heap.pop() {
        // Find the next instruction for this PE.
        let inst = loop {
            match assignments[p].get(cursors[p]) {
                None => break None,
                Some(&thread) => {
                    if let Some(inst) = streams[thread].next() {
                        break Some(inst);
                    }
                    cursors[p] += 1;
                }
            }
        };
        if let Some(inst) = inst {
            pes[p].step(&inst, &mut dram, system.energy_model());
            heap.push(Reverse((pes[p].now(), p)));
        }
    }

    let report = assemble_report(
        system,
        pes.iter().map(|p| PeSummary {
            instructions: p.instructions(),
            finish_cycle: p.finish_cycle(),
            dcache: p.dcache_stats(),
            icache: p.icache_stats(),
            compute_energy_pj: p.compute_energy_pj(),
        }),
        &dram,
    );
    if telemetry.is_enabled() {
        record_report_counters(&telemetry, &report);
    }
    report
}

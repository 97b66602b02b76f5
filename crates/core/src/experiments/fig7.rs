//! Figure 7 — estimated EDP reduction of NMC offloading vs the host.
//!
//! For each application's test input we show NAPEL's predicted EDP
//! reduction next to the simulator's ("Actual"). Paper shapes to
//! reproduce: NAPEL and the simulator agree on which workloads are
//! NMC-suitable; memory-intensive irregular kernels win on NMC while
//! locality-rich dense kernels stay on the host; the EDP-estimate MRE sits
//! in the ~1–26 % band.

use napel_workloads::Workload;
use nmc_sim::ArchConfig;

use crate::analysis::{nmc_suitability, SuitabilityRow};
use crate::artifact::ModelIo;
use crate::campaign::Executor;
use crate::model::NapelConfig;
use crate::NapelError;

/// Figure 7 result: suitability rows plus aggregate agreement stats.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Per-application rows.
    pub rows: Vec<SuitabilityRow>,
}

impl Fig7Result {
    /// Applications where prediction and simulation agree on suitability.
    pub fn agreements(&self) -> usize {
        self.rows.iter().filter(|r| r.suitability_agrees()).count()
    }

    /// Mean relative error of the EDP estimate.
    pub fn average_edp_mre(&self) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows.iter().map(SuitabilityRow::edp_mre).sum::<f64>() / n
    }

    /// Workloads the simulator deems NMC-suitable (EDP reduction > 1).
    pub fn suitable(&self) -> Vec<Workload> {
        self.rows
            .iter()
            .filter(|r| r.edp_reduction_actual() > 1.0)
            .map(|r| r.workload)
            .collect()
    }
}

/// Runs the use case over the context's applications, one
/// per-application suitability job each on `exec`. Each held-out
/// application's model is saved as (or loaded from)
/// `<dir>/fig7-<workload>.napel` per `io`; with a load directory the
/// figure's predicted columns come from stored models, bit-identical to
/// the direct path.
///
/// # Errors
///
/// Propagates training failures; [`crate::NapelError::Artifact`] on
/// save/load failures or schema mismatches.
pub fn run<E: Executor>(
    ctx: &super::Context,
    config: &NapelConfig,
    io: &ModelIo,
    exec: &E,
) -> Result<Fig7Result, NapelError> {
    let rows = nmc_suitability(
        &ctx.training,
        config,
        &ArchConfig::paper_default(),
        ctx.scale,
        io,
        "fig7",
        exec,
    )?;
    Ok(Fig7Result { rows })
}

/// Renders the figure as a table.
pub fn render(result: &Fig7Result) -> String {
    let body: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.workload.name().to_string(),
                format!("{:.2}x", r.edp_reduction_predicted()),
                format!("{:.2}x", r.edp_reduction_actual()),
                format!("{:.1}%", r.edp_mre() * 100.0),
                if r.edp_reduction_actual() > 1.0 {
                    "NMC"
                } else {
                    "host"
                }
                .to_string(),
                if r.suitability_agrees() { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let mut s = super::render_table(
        &[
            "Name",
            "NAPEL EDP red.",
            "Actual EDP red.",
            "EDP MRE",
            "winner",
            "agree",
        ],
        &body,
    );
    s.push_str(&format!(
        "suitability agreement {}/{}; average EDP MRE {:.1}%\n",
        result.agreements(),
        result.rows.len(),
        result.average_edp_mre() * 100.0
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_aggregates_work() {
        let ctx =
            super::super::tiny_context(vec![Workload::Atax, Workload::Gemv, Workload::Bfs], 4);
        let exec = crate::campaign::AnyExecutor::from_env();
        let result = run(&ctx, &NapelConfig::untuned(), &ModelIo::none(), &exec).unwrap();
        assert_eq!(result.rows.len(), 3);
        assert!(result.agreements() <= 3);
        assert!(result.average_edp_mre().is_finite());
        let s = render(&result);
        assert!(s.contains("suitability agreement"));
    }
}

//! Figure 4 — NAPEL's prediction speedup over the simulator.
//!
//! The paper reports the speedup of NAPEL prediction over Ramulator
//! simulation "for 256 DoE configurations": the design-space-exploration
//! scenario where one kernel analysis is amortized over many architecture
//! configurations, each of which the simulator would have to run in full.
//! Speedup for an application is therefore
//!
//! ```text
//!            N · t_simulate
//! ----------------------------------
//!  t_analysis + N · t_predict
//! ```
//!
//! with `N` architecture configurations drawn Latin-hypercube style from
//! the architectural parameter space of Table 1.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use napel_pisa::ApplicationProfile;
use napel_workloads::Workload;
use nmc_sim::{ArchConfig, NmcSystem, RowPolicy};

use crate::artifact::ModelIo;
use crate::campaign::Executor;
use crate::model::{Napel, NapelConfig};
use crate::NapelError;

/// One bar of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Application.
    pub workload: Workload,
    /// Configurations explored.
    pub num_configs: usize,
    /// Seconds to simulate all configurations.
    pub simulate_seconds: f64,
    /// Seconds for one kernel analysis plus all predictions.
    pub predict_seconds: f64,
}

impl Fig4Row {
    /// The speedup (the bar height of Figure 4).
    pub fn speedup(&self) -> f64 {
        self.simulate_seconds / self.predict_seconds.max(1e-12)
    }
}

/// Samples `n` architecture configurations across the Table 1 NMC feature
/// ranges.
pub fn sample_arch_configs(n: usize, seed: u64) -> Vec<ArchConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let base = ArchConfig::paper_default();
            ArchConfig {
                num_pes: *[8usize, 16, 32, 64]
                    .get(rng.gen_range(0..4))
                    .expect("in range"),
                issue_width: [1usize, 1, 2][rng.gen_range(0..3)],
                freq_ghz: [0.8, 1.0, 1.25, 1.6, 2.0][rng.gen_range(0..5)],
                cache_lines: [2usize, 4, 8, 16, 32][rng.gen_range(0..5)],
                cache_assoc: [1usize, 2, 4][rng.gen_range(0..3)],
                vaults: [8usize, 16, 32][rng.gen_range(0..3)],
                dram_layers: [4usize, 8][rng.gen_range(0..2)],
                row_policy: if rng.gen_bool(0.5) {
                    RowPolicy::Closed
                } else {
                    RowPolicy::Open
                },
                ..base
            }
        })
        .collect()
}

/// Runs the Figure 4 measurement for every workload in the context.
///
/// The leave-one-out trainings form one job batch on `exec`; the timed
/// simulate/predict sections stay serial so each row's wall-clock numbers
/// are not distorted by concurrent load. Each leave-one-out model is
/// saved as (or loaded from) `<dir>/fig4-<workload>.napel` per `io`. With
/// a load directory, the training batch disappears entirely — the figure
/// is regenerated from stored models, whose predictions are bit-identical
/// to the direct path's.
///
/// # Errors
///
/// Propagates training failures; [`crate::NapelError::Artifact`] on
/// save/load failures or schema mismatches.
pub fn run<E: Executor>(
    ctx: &super::Context,
    config: &NapelConfig,
    num_configs: usize,
    io: &ModelIo,
    exec: &E,
) -> Result<Vec<Fig4Row>, NapelError> {
    let archs = sample_arch_configs(num_configs, ctx.seed);
    let workloads = ctx.training.workloads();
    let trained_models = exec.map(&workloads, |_, &w| {
        // NAPEL trained without the application under prediction.
        io.train_or_load(&format!("fig4-{}", w.name()), || {
            Napel::new(config.clone()).train(&ctx.training.filtered(|x| x != w))
        })
    });
    let mut rows = Vec::new();
    for (&w, trained) in workloads.iter().zip(trained_models) {
        let trained = trained?;

        // The configuration whose design space we explore: the central one.
        let params = w.spec().central_values();
        let trace = w.generate(&params, ctx.scale);

        // Simulator side: one full simulation per architecture.
        let t0 = Instant::now();
        for arch in &archs {
            let _ = NmcSystem::new(arch.clone()).run(&trace);
        }
        let simulate_seconds = t0.elapsed().as_secs_f64();

        // NAPEL side: one kernel analysis, then one inference per arch.
        let t1 = Instant::now();
        let profile = ApplicationProfile::of(&trace);
        for arch in &archs {
            let _ = trained.predict(&profile, arch);
        }
        let predict_seconds = t1.elapsed().as_secs_f64();

        rows.push(Fig4Row {
            workload: w,
            num_configs,
            simulate_seconds,
            predict_seconds,
        });
    }
    Ok(rows)
}

/// Renders the rows sorted by increasing speedup, as in the figure.
pub fn render(rows: &[Fig4Row]) -> String {
    let mut sorted: Vec<&Fig4Row> = rows.iter().collect();
    sorted.sort_by(|a, b| a.speedup().total_cmp(&b.speedup()));
    let body: Vec<Vec<String>> = sorted
        .iter()
        .map(|r| {
            vec![
                r.workload.name().to_string(),
                format!("{:.1}x", r.speedup()),
                format!("{:.2}", r.simulate_seconds),
                format!("{:.3}", r.predict_seconds),
            ]
        })
        .collect();
    let mut s = super::render_table(
        &["Name", "Speedup", "Simulate (s)", "Analyze+Predict (s)"],
        &body,
    );
    let n = rows.len().max(1) as f64;
    let avg: f64 = rows.iter().map(Fig4Row::speedup).sum::<f64>() / n;
    let min = rows
        .iter()
        .map(Fig4Row::speedup)
        .fold(f64::INFINITY, f64::min);
    let max = rows.iter().map(Fig4Row::speedup).fold(0.0, f64::max);
    s.push_str(&format!(
        "average speedup {avg:.0}x (min {min:.0}x, max {max:.0}x) over {} configurations\n",
        rows.first().map(|r| r.num_configs).unwrap_or(0)
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_archs_are_valid_and_diverse() {
        let archs = sample_arch_configs(32, 9);
        assert_eq!(archs.len(), 32);
        for a in &archs {
            a.validate();
        }
        let distinct_pes: std::collections::HashSet<usize> =
            archs.iter().map(|a| a.num_pes).collect();
        assert!(distinct_pes.len() > 1, "sweep must vary the architecture");
    }

    #[test]
    fn speedup_exceeds_one_even_at_tiny_scale() {
        let ctx = super::super::tiny_context(vec![Workload::Atax, Workload::Gemv], 2);
        let exec = crate::campaign::AnyExecutor::from_env();
        let rows = run(&ctx, &NapelConfig::untuned(), 8, &ModelIo::none(), &exec).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // Amortized analysis + cheap inference must beat 8 simulations.
            assert!(r.speedup() > 1.0, "{}: speedup {}", r.workload, r.speedup());
        }
        let s = render(&rows);
        assert!(s.contains("average speedup"));
    }
}

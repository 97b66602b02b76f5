//! Table 4 — DoE configuration counts and training/prediction times.
//!
//! Absolute times are measured on this reproduction's substrate (seconds,
//! not the paper's server-scale minutes); the *structure* — 11/19/31 DoE
//! configurations, prediction orders of magnitude below DoE collection —
//! is the reproduced result. `EXPERIMENTS.md` tabulates ours against the
//! paper's.

use std::time::Instant;

use napel_pisa::ApplicationProfile;
use napel_workloads::Workload;
use nmc_sim::ArchConfig;

use crate::artifact::ModelIo;
use crate::campaign::Executor;
use crate::collect::{collect, doe_config_count, CollectionPlan};
use crate::fault::CampaignOptions;
use crate::model::{Napel, NapelConfig};
use crate::NapelError;

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Application.
    pub workload: Workload,
    /// Number of DoE configurations (center replicates included) —
    /// matches the paper exactly: 11, 19 or 31.
    pub doe_configs: usize,
    /// Wall-clock seconds gathering this application's training data
    /// (trace generation + profiling + simulation).
    pub doe_run_seconds: f64,
    /// Wall-clock seconds training + tuning the two models with this
    /// application *excluded* (the Section 3.3 protocol).
    pub train_tune_seconds: f64,
    /// Wall-clock seconds to predict this application's test input
    /// (kernel analysis + model inference).
    pub pred_seconds: f64,
}

/// Computes Table 4.
///
/// `ctx.training` must contain all applications that should participate in
/// the leave-one-out trainings. The per-application loop stays serial so
/// each row's timings are attributable to that application; within a
/// row, the DoE collection itself runs as a job batch on `exec` (so its
/// "DoE run" wall-clock reflects the configured parallelism). That
/// collection is measured fresh: it runs under default campaign options,
/// never restoring from a checkpoint journal. Each leave-one-out model is
/// saved as (or loaded from) `<dir>/table4-<workload>.napel` per `io`.
/// With a load directory, the "Train+Tune" column measures the artifact
/// load instead of training — the table then quantifies exactly what the
/// train-once/predict-many split buys.
///
/// # Errors
///
/// Propagates collection and training failures;
/// [`crate::NapelError::Artifact`] on save/load failures or schema
/// mismatches.
pub fn run<E: Executor>(
    ctx: &super::Context,
    config: &NapelConfig,
    io: &ModelIo,
    exec: &E,
) -> Result<Vec<Table4Row>, NapelError> {
    let arch = ArchConfig::paper_default();
    let mut rows = Vec::new();
    for w in ctx.training.workloads() {
        // DoE collection time, measured fresh for this app alone.
        let plan = CollectionPlan {
            workloads: vec![w],
            scale: ctx.scale,
            ..Default::default()
        };
        let stats = collect(&plan, exec, &CampaignOptions::default())?.1.stats;
        let doe_run_seconds =
            stats.generate_seconds + stats.profile_seconds + stats.simulate_seconds;

        // Train + tune on the other applications (or, under a load
        // policy, fetch the stored model — the measured time is then the
        // artifact-load cost).
        let t0 = Instant::now();
        let trained = io.train_or_load(&format!("table4-{}", w.name()), || {
            Napel::new(config.clone()).train(&ctx.training.filtered(|x| x != w))
        })?;
        let train_tune_seconds = t0.elapsed().as_secs_f64();

        // Prediction: kernel analysis of the test input + inference.
        let t1 = Instant::now();
        let trace = w.generate_test(ctx.scale);
        let profile = ApplicationProfile::of(&trace);
        let _pred = trained.predict(&profile, &arch);
        let pred_seconds = t1.elapsed().as_secs_f64();

        rows.push(Table4Row {
            workload: w,
            doe_configs: doe_config_count(&w.spec()),
            doe_run_seconds,
            train_tune_seconds,
            pred_seconds,
        });
    }
    Ok(rows)
}

/// Renders the rows in the paper's layout.
pub fn render(rows: &[Table4Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.name().to_string(),
                r.doe_configs.to_string(),
                format!("{:.2}", r.doe_run_seconds),
                format!("{:.2}", r.train_tune_seconds),
                format!("{:.4}", r.pred_seconds),
            ]
        })
        .collect();
    super::render_table(
        &[
            "Name",
            "#DoE conf.",
            "DoE run (s)",
            "Train+Tune (s)",
            "Pred. (s)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_have_paper_doe_counts_and_sane_times() {
        let ctx = super::super::tiny_context(vec![Workload::Atax, Workload::Gemv], 1);
        let exec = crate::campaign::AnyExecutor::from_env();
        let rows = run(&ctx, &NapelConfig::untuned(), &ModelIo::none(), &exec).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].doe_configs, 11); // atax
        assert_eq!(rows[1].doe_configs, 19); // gemv
        for r in &rows {
            assert!(r.doe_run_seconds > 0.0);
            assert!(r.train_tune_seconds > 0.0);
            assert!(r.pred_seconds > 0.0);
        }
        let s = render(&rows);
        assert!(s.contains("atax"));
        assert!(s.contains("#DoE conf."));
    }
}

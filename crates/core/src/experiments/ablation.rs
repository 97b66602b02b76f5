//! Ablations of NAPEL's design choices (this reproduction's additions).
//!
//! Questions the paper's design raises but does not quantify:
//!
//! 1. **Does CCD beat the other samplers?** Train on CCD points vs Latin
//!    hypercube, uniform random, and D-optimal points of the *same budget*
//!    and compare leave-one-application-out MRE ([`sampler_ablation`]).
//! 2. **How many trees are enough?** Forest-size sweep
//!    ([`forest_size_sweep`]).
//! 3. **Does feature screening matter?** Full ~370-feature input vs the
//!    top-k features by permutation importance ([`screening_ablation`]).
//! 4. **Would a scratchpad help atax?** The paper's Section 3.4 closes by
//!    suggesting that "the introduction of a small cache or scratchpad
//!    memory in the NMC compute units (larger than the 128B L1) can be
//!    beneficial" for atax-like workloads — [`cache_size_sweep`] runs that
//!    what-if on the simulator.
//! 5. **Closed- vs open-row DRAM policy** across the workloads
//!    ([`row_policy_study`]).
//! 6. **Does weighting the paper's baselines into the forest help?** The
//!    adaptive weighted ensemble vs the plain forest at the same LOAO
//!    protocol ([`ensemble_vs_forest`]).
//! 7. **Is a fixed CCD the best way to spend the simulation budget?**
//!    Accuracy vs points-per-application for a plain CCD prefix against
//!    CCD-seeded active learning that simulates where the forest's
//!    per-tree spread is highest ([`budget_curve`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use napel_doe::active::active_augment;
use napel_doe::samplers::{d_optimal, latin_hypercube, random_design};
use napel_doe::DesignPoint;
use napel_ml::dataset::Dataset;
use napel_ml::ensemble::{EnsembleParams, NUM_MEMBERS};
use napel_ml::forest::RandomForestParams;
use napel_ml::log_space::LogOf;
use napel_ml::tree::{DecisionTreeParams, FeatureSubset};
use napel_ml::Estimator;
use napel_pisa::ApplicationProfile;
use napel_workloads::{Scale, Workload};
use nmc_sim::{ArchConfig, NmcSystem};

use crate::analysis::{average_mre, loao_accuracy};
use crate::artifact::ModelIo;
use crate::campaign::{run_supervised, Executor, SimJob};
use crate::collect::{doe_points, param_space};
use crate::fault::CampaignOptions;
use crate::features::{
    combined_feature_names, combined_features, CollectStats, LabeledRun, TrainingSet,
};
use crate::NapelError;

/// Training-point sampling strategies under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampler {
    /// Central composite design (the paper's choice).
    Ccd,
    /// Latin hypercube with the same point budget (Li et al. in Table 5).
    LatinHypercube,
    /// Uniform random with the same point budget.
    Random,
    /// D-optimal design via Fedorov exchange (Joseph et al. / Mariani et
    /// al. in Table 5).
    DOptimal,
}

impl Sampler {
    /// All strategies.
    pub const ALL: [Sampler; 4] = [
        Sampler::Ccd,
        Sampler::LatinHypercube,
        Sampler::Random,
        Sampler::DOptimal,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Sampler::Ccd => "ccd",
            Sampler::LatinHypercube => "lhs",
            Sampler::Random => "random",
            Sampler::DOptimal => "d-optimal",
        }
    }
}

/// Collects a training set using the given sampler at the CCD's budget,
/// simulating the drawn points on `exec`.
///
/// # Errors
///
/// Propagates [`napel_doe::DesignError`] from the sampler (as
/// [`NapelError::Design`]) — e.g. a D-optimal request over a space whose
/// factorial candidate set is intractable — and a failed simulation job
/// (as [`NapelError::Job`]).
pub fn collect_with_sampler<E: Executor>(
    workloads: &[Workload],
    sampler: Sampler,
    scale: Scale,
    seed: u64,
    exec: &E,
) -> Result<TrainingSet, NapelError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut designs = Vec::new();
    for &w in workloads {
        let spec = w.spec();
        let space = param_space(&spec);
        let ccd = doe_points(&spec, true);
        let points = match sampler {
            Sampler::Ccd => ccd,
            Sampler::LatinHypercube => latin_hypercube(&space, ccd.len(), &mut rng),
            Sampler::Random => random_design(&space, ccd.len(), &mut rng),
            Sampler::DOptimal => d_optimal(&space, ccd.len(), &mut rng)?,
        };
        designs.push((w, points));
    }
    let (runs, stats) = simulate(&designs, scale, exec)?;
    Ok(TrainingSet {
        feature_names: combined_feature_names(),
        runs,
        stats,
    })
}

/// Simulates each workload's design points on the Table 3 architecture
/// as one campaign on `exec` — default, fail-fast options, so every row
/// has passed the label gate — returning the rows in design order and the
/// campaign's timing.
///
/// # Errors
///
/// [`NapelError::Job`] for the first failed job.
fn simulate<E: Executor>(
    designs: &[(Workload, Vec<DesignPoint>)],
    scale: Scale,
    exec: &E,
) -> Result<(Vec<LabeledRun>, CollectStats), NapelError> {
    let arch = ArchConfig::paper_default();
    let mut jobs = Vec::new();
    for (workload, points) in designs {
        for p in points {
            jobs.push(SimJob {
                index: jobs.len(),
                workload: *workload,
                coords: p.coords().to_vec(),
                arch: arch.clone(),
                scale,
            });
        }
    }
    let (runs, report) = run_supervised(exec, &jobs, &CampaignOptions::default())?;
    Ok((runs, report.stats))
}

/// Result of the sampler ablation: average (perf, energy) LOAO MRE per
/// strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerAblation {
    /// `(sampler, perf MRE, energy MRE)` rows.
    pub rows: Vec<(Sampler, f64, f64)>,
}

/// Runs the sampler ablation. The sampler loop stays serial (each
/// strategy draws a fresh seeded RNG stream); each strategy's simulations
/// and leave-one-out folds run as job batches on `exec`. Each strategy's
/// fold models are saved as (or loaded from)
/// `<dir>/ablation-sampler-<strategy>-<workload>.napel` per `io`.
///
/// # Errors
///
/// Propagates collection and estimator failures;
/// [`crate::NapelError::Artifact`] on save/load failures or schema
/// mismatches.
pub fn sampler_ablation<E: Executor>(
    workloads: &[Workload],
    scale: Scale,
    seed: u64,
    io: &ModelIo,
    exec: &E,
) -> Result<SamplerAblation, NapelError> {
    let est = super::fig5::napel_estimator();
    let mut rows = Vec::new();
    for sampler in Sampler::ALL {
        let set = collect_with_sampler(workloads, sampler, scale, seed, exec)?;
        let prefix = format!("ablation-sampler-{}", sampler.name());
        let results = loao_accuracy(&est, &set, seed, io, &prefix, exec)?;
        let (p, e) = average_mre(&results);
        rows.push((sampler, p, e));
    }
    Ok(SamplerAblation { rows })
}

/// The weighted-ensemble configuration under comparison: the fig5 forest
/// plus the fig5 baselines (ANN, model tree) and a ridge floor as
/// co-members, in log space like every pipeline estimator.
pub fn ensemble_estimator() -> LogOf<EnsembleParams> {
    LogOf(EnsembleParams {
        forest: super::fig5::napel_estimator(),
        mlp: super::fig5::ann_estimator(),
        model_tree: super::fig5::dtree_estimator(),
        ..EnsembleParams::default()
    })
}

/// Result of the ensemble-vs-forest comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleComparison {
    /// Plain-forest (perf, energy) average LOAO MRE.
    pub forest: (f64, f64),
    /// Weighted-ensemble (perf, energy) average LOAO MRE.
    pub ensemble: (f64, f64),
    /// Weights the ensemble adapted to on the full training set, in
    /// member order (forest, model tree, MLP, ridge).
    pub weights: [f64; NUM_MEMBERS],
}

/// Compares the adaptive weighted ensemble against the plain fig5 forest
/// at the same LOAO protocol and seed, the folds as job batches on
/// `exec`. Fold models are saved as (or loaded from)
/// `<dir>/ablation-ens-{forest,weighted}-<workload>.napel` per `io`.
///
/// # Errors
///
/// Propagates estimator failures; [`crate::NapelError::Artifact`] on
/// save/load failures or schema mismatches.
pub fn ensemble_vs_forest<E: Executor>(
    set: &TrainingSet,
    seed: u64,
    io: &ModelIo,
    exec: &E,
) -> Result<EnsembleComparison, NapelError> {
    let forest = loao_accuracy(
        &LogOf(super::fig5::napel_estimator()),
        set,
        seed,
        io,
        "ablation-ens-forest",
        exec,
    )?;
    let est = ensemble_estimator();
    let ens = loao_accuracy(&est, set, seed, io, "ablation-ens-weighted", exec)?;
    // One fit on the full set to report where the weights landed.
    let mut rng = StdRng::seed_from_u64(seed);
    let fitted = est.fit(&set.ipc_dataset()?, &mut rng)?;
    Ok(EnsembleComparison {
        forest: average_mre(&forest),
        ensemble: average_mre(&ens),
        weights: fitted.inner().weights(),
    })
}

/// Renders the ensemble-vs-forest comparison.
pub fn render_ensemble(c: &EnsembleComparison) -> String {
    let [wf, wt, wm, wr] = c.weights;
    format!(
        "forest    {:.1}% perf / {:.1}% energy MRE\n\
         ensemble  {:.1}% perf / {:.1}% energy MRE\n\
         adapted weights (forest, model tree, mlp, ridge): [{wf:.3}, {wt:.3}, {wm:.3}, {wr:.3}]\n",
        c.forest.0 * 100.0,
        c.forest.1 * 100.0,
        c.ensemble.0 * 100.0,
        c.ensemble.1 * 100.0,
    )
}

/// Candidate-pool size per active-learning round: large enough that the
/// spread landscape is sampled, small enough that profiling the pool stays
/// cheap next to a simulation.
pub const ACTIVE_POOL: usize = 16;

/// Collects a per-application *prefix* of the CCD — the plain arm of the
/// accuracy-vs-budget comparison — simulating it on `exec`. `budget` is
/// points per application, capped at each application's full
/// (deduplicated) CCD.
///
/// # Errors
///
/// [`NapelError::Job`] for a failed simulation job.
pub fn collect_ccd_prefix<E: Executor>(
    workloads: &[Workload],
    budget: usize,
    scale: Scale,
    exec: &E,
) -> Result<TrainingSet, NapelError> {
    let designs: Vec<(Workload, Vec<DesignPoint>)> = workloads
        .iter()
        .map(|&w| {
            let mut ccd = doe_points(&w.spec(), true);
            ccd.truncate(budget);
            (w, ccd)
        })
        .collect();
    let (runs, stats) = simulate(&designs, scale, exec)?;
    Ok(TrainingSet {
        feature_names: combined_feature_names(),
        runs,
        stats,
    })
}

/// Collects the active arm: per application, half the budget is the CCD
/// prefix seed, then [`napel_doe::active::active_augment`] spends the rest
/// one simulation at a time where a forest surrogate's per-tree spread
/// over the candidate pool is highest. Candidates are scored without
/// simulating them (trace generation + profiling only); each committed
/// point is then simulated on `exec` and the surrogate refit before the
/// next round.
///
/// # Errors
///
/// Propagates [`napel_doe::DesignError`] from the augmentation loop (as
/// [`NapelError::Design`]) and a failed simulation job (as
/// [`NapelError::Job`]).
pub fn collect_active<E: Executor>(
    workloads: &[Workload],
    budget: usize,
    pool: usize,
    scale: Scale,
    seed: u64,
    exec: &E,
) -> Result<TrainingSet, NapelError> {
    let arch = ArchConfig::paper_default();
    let surrogate = LogOf(RandomForestParams {
        num_trees: 40,
        tree: DecisionTreeParams {
            feature_subset: FeatureSubset::Third,
            ..DecisionTreeParams::default()
        },
        bootstrap: true,
    });
    let mut pick_rng = StdRng::seed_from_u64(seed ^ 0xAC71_4E01);
    let mut fit_rng = StdRng::seed_from_u64(seed ^ 0x5EED_F0E5);
    let mut runs = Vec::new();
    let mut stats = CollectStats::default();
    for &w in workloads {
        let spec = w.spec();
        let space = param_space(&spec);
        let ccd = doe_points(&spec, true);
        let budget = budget.min(ccd.len());
        let seed_len = (budget / 2).max(3).min(budget);
        let seed_pts = &ccd[..seed_len];
        // One row per simulated point: the campaign fails fast, so
        // `wruns.len()` is also the count of design points simulated.
        let (mut wruns, seed_stats) = simulate(&[(w, seed_pts.to_vec())], scale, exec)?;
        stats.merge(&seed_stats);
        let mut failure = None;
        let design = active_augment(
            &space,
            seed_pts,
            budget - seed_len,
            pool,
            &mut pick_rng,
            |design, cands| {
                // Simulate the points committed since the last round, then
                // refit the surrogate on everything labeled so far.
                if failure.is_none() && design.len() > wruns.len() {
                    match simulate(&[(w, design[wruns.len()..].to_vec())], scale, exec) {
                        Ok((rows, batch)) => {
                            wruns.extend(rows);
                            stats.merge(&batch);
                        }
                        Err(e) => failure = Some(e),
                    }
                }
                if failure.is_some() {
                    // The collection has failed; let the loop run out.
                    return vec![0.0; cands.len()];
                }
                let mut spread = || -> Option<Vec<f64>> {
                    let mut b = Dataset::builder(combined_feature_names());
                    for r in &wruns {
                        b.push_row(r.features.clone(), r.ipc).ok()?;
                    }
                    let model = surrogate.fit(&b.build().ok()?, &mut fit_rng).ok()?;
                    let rows: Vec<Vec<f64>> = cands
                        .iter()
                        .map(|p| {
                            let trace = w.generate(p.coords(), scale);
                            combined_features(&ApplicationProfile::of(&trace), &arch)
                        })
                        .collect();
                    let spreads = model.inner().predict_with_spread(&rows);
                    Some(spreads.into_iter().map(|(_, spread)| spread).collect())
                };
                // A surrogate that cannot fit (degenerate rows) scores
                // everything equally: the round degrades to the pool's
                // first candidate rather than failing the campaign.
                spread().unwrap_or_else(|| vec![0.0; cands.len()])
            },
        )?;
        if let Some(e) = failure {
            return Err(e);
        }
        if design.len() > wruns.len() {
            let (rows, batch) = simulate(&[(w, design[wruns.len()..].to_vec())], scale, exec)?;
            wruns.extend(rows);
            stats.merge(&batch);
        }
        runs.append(&mut wruns);
    }
    Ok(TrainingSet {
        feature_names: combined_feature_names(),
        runs,
        stats,
    })
}

/// One budget level of the accuracy-vs-simulation-budget comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetPoint {
    /// Simulated points per application.
    pub budget: usize,
    /// Plain CCD prefix (perf, energy) average LOAO MRE.
    pub ccd: (f64, f64),
    /// Active sampling (perf, energy) average LOAO MRE.
    pub active: (f64, f64),
}

/// The accuracy-vs-budget curve: plain CCD prefix vs active sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetCurve {
    /// One point per requested budget.
    pub points: Vec<BudgetPoint>,
}

impl BudgetCurve {
    /// Whether active sampling is no worse than the plain CCD prefix on
    /// average across the curve (perf MRE), within a relative `slack` —
    /// the CI gate for the active-DoE loop.
    pub fn active_no_worse(&self, slack: f64) -> bool {
        let n = self.points.len().max(1) as f64;
        let ccd = self.points.iter().map(|p| p.ccd.0).sum::<f64>() / n;
        let active = self.points.iter().map(|p| p.active.0).sum::<f64>() / n;
        active <= ccd * (1.0 + slack)
    }
}

/// Runs the accuracy-vs-budget comparison at each of `budgets` points per
/// application, the simulations and leave-one-out folds as job batches
/// on `exec`. Fold models are saved as (or loaded from)
/// `<dir>/ablation-budget-{ccd,active}-<budget>-<workload>.napel` per
/// `io`.
///
/// # Errors
///
/// Propagates collection and estimator failures and design errors;
/// [`crate::NapelError::Artifact`] on save/load failures or schema
/// mismatches.
pub fn budget_curve<E: Executor>(
    workloads: &[Workload],
    scale: Scale,
    budgets: &[usize],
    seed: u64,
    io: &ModelIo,
    exec: &E,
) -> Result<BudgetCurve, NapelError> {
    let est = LogOf(super::fig5::napel_estimator());
    let mut points = Vec::new();
    for &b in budgets {
        let ccd_set = collect_ccd_prefix(workloads, b, scale, exec)?;
        let prefix = format!("ablation-budget-ccd-{b}");
        let ccd = loao_accuracy(&est, &ccd_set, seed, io, &prefix, exec)?;
        let active_set = collect_active(workloads, b, ACTIVE_POOL, scale, seed, exec)?;
        let prefix = format!("ablation-budget-active-{b}");
        let active = loao_accuracy(&est, &active_set, seed, io, &prefix, exec)?;
        points.push(BudgetPoint {
            budget: b,
            ccd: average_mre(&ccd),
            active: average_mre(&active),
        });
    }
    Ok(BudgetCurve { points })
}

/// Renders the accuracy-vs-budget curve.
pub fn render_budget_curve(curve: &BudgetCurve) -> String {
    let body: Vec<Vec<String>> = curve
        .points
        .iter()
        .map(|p| {
            vec![
                p.budget.to_string(),
                format!("{:.1}%", p.ccd.0 * 100.0),
                format!("{:.1}%", p.active.0 * 100.0),
                format!("{:.1}%", p.ccd.1 * 100.0),
                format!("{:.1}%", p.active.1 * 100.0),
            ]
        })
        .collect();
    super::render_table(
        &[
            "Budget/app",
            "ccd perf",
            "active perf",
            "ccd energy",
            "active energy",
        ],
        &body,
    )
}

/// Result of the forest-size sweep: `(num_trees, perf MRE)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestSweep {
    /// Sweep points.
    pub points: Vec<(usize, f64)>,
}

/// Sweeps the number of trees on an existing training set, the
/// leave-one-out folds as job batches on `exec`. Each sweep point's fold
/// models are saved as (or loaded from)
/// `<dir>/ablation-forest-<n>-<workload>.napel` per `io`.
///
/// # Errors
///
/// Propagates estimator failures; [`crate::NapelError::Artifact`] on
/// save/load failures or schema mismatches.
pub fn forest_size_sweep<E: Executor>(
    set: &TrainingSet,
    sizes: &[usize],
    seed: u64,
    io: &ModelIo,
    exec: &E,
) -> Result<ForestSweep, NapelError> {
    let mut points = Vec::new();
    for &n in sizes {
        let est = RandomForestParams {
            num_trees: n,
            tree: DecisionTreeParams {
                feature_subset: FeatureSubset::Third,
                ..DecisionTreeParams::default()
            },
            bootstrap: true,
        };
        let prefix = format!("ablation-forest-{n}");
        let results = loao_accuracy(&est, set, seed, io, &prefix, exec)?;
        let (p, _) = average_mre(&results);
        points.push((n, p));
    }
    Ok(ForestSweep { points })
}

/// One point of the feature-screening ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningPoint {
    /// Number of features kept (`usize::MAX` = all).
    pub kept: usize,
    /// Average LOAO performance MRE with that feature subset.
    pub perf_mre: f64,
}

/// Feature-screening ablation: rank features by permutation importance of a
/// forest trained on everything, then retrain on the top-k only, the
/// leave-one-out folds as job batches on `exec`. Fold models are saved as
/// (or loaded from) `<dir>/ablation-screen-{all,<k>}-<workload>.napel`
/// per `io`. Note that the projected-feature artifacts carry the
/// *projected* schema and validate against it, not against the full
/// combined schema.
///
/// # Errors
///
/// Propagates estimator failures; [`crate::NapelError::Artifact`] on
/// save/load failures or schema mismatches.
pub fn screening_ablation<E: Executor>(
    set: &TrainingSet,
    keep_counts: &[usize],
    seed: u64,
    io: &ModelIo,
    exec: &E,
) -> Result<Vec<ScreeningPoint>, NapelError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let full = set.ipc_dataset()?;
    let est = super::fig5::napel_estimator();
    let probe = est.fit(&full, &mut rng)?;
    let importances = probe.permutation_importance(&full, &mut rng);
    let mut order: Vec<usize> = (0..importances.len()).collect();
    order.sort_by(|&a, &b| importances[b].total_cmp(&importances[a]));

    let mut out = Vec::new();
    // Baseline: all features.
    let all = loao_accuracy(&est, set, seed, io, "ablation-screen-all", exec)?;
    out.push(ScreeningPoint {
        kept: usize::MAX,
        perf_mre: average_mre(&all).0,
    });

    for &k in keep_counts {
        let keep: Vec<usize> = order.iter().copied().take(k).collect();
        // Project the training set onto the kept features.
        let names: Vec<String> = keep.iter().map(|&i| set.feature_names[i].clone()).collect();
        let mut projected = set.clone();
        projected.feature_names = names;
        for run in &mut projected.runs {
            run.features = keep.iter().map(|&i| run.features[i]).collect();
        }
        let prefix = format!("ablation-screen-{k}");
        let results = loao_accuracy(&est, &projected, seed, io, &prefix, exec)?;
        out.push(ScreeningPoint {
            kept: k,
            perf_mre: average_mre(&results).0,
        });
    }
    Ok(out)
}

/// One point of the cache/scratchpad what-if.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSweepPoint {
    /// L1 lines per PE.
    pub cache_lines: usize,
    /// Simulated EDP (J·s).
    pub edp: f64,
    /// Simulated IPC.
    pub ipc: f64,
}

/// Sweeps the NMC L1 size for one workload at its test input — the paper's
/// closing what-if for atax.
pub fn cache_size_sweep(workload: Workload, lines: &[usize], scale: Scale) -> Vec<CacheSweepPoint> {
    let trace = workload.generate_test(scale);
    lines
        .iter()
        .map(|&cache_lines| {
            let arch = ArchConfig {
                cache_lines,
                ..ArchConfig::paper_default()
            };
            let report = NmcSystem::new(arch).run(&trace);
            CacheSweepPoint {
                cache_lines,
                edp: report.edp(),
                ipc: report.ipc(),
            }
        })
        .collect()
}

/// One row of the offload-cost sensitivity study.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadRow {
    /// Application at its test input.
    pub workload: Workload,
    /// Simulated NMC EDP assuming memory-resident data (the paper's
    /// assumption).
    pub edp_resident: f64,
    /// NMC EDP when the kernel footprint must first cross the Table 3
    /// SerDes link from the host (and results return).
    pub edp_with_offload: f64,
}

impl OffloadRow {
    /// EDP inflation factor caused by the transfer.
    pub fn inflation(&self) -> f64 {
        self.edp_with_offload / self.edp_resident
    }
}

/// Quantifies how much the "data already lives in the stack" assumption is
/// worth: re-computes each workload's NMC EDP with a one-time transfer of
/// its read footprint to the memory and its written footprint back over
/// the Table 3 link.
pub fn offload_sensitivity(workloads: &[Workload], scale: Scale) -> Vec<OffloadRow> {
    use nmc_sim::LinkConfig;
    let link = LinkConfig::hmc_default();
    workloads
        .iter()
        .map(|&w| {
            let trace = w.generate_test(scale);
            let profile = ApplicationProfile::of(&trace);
            let report = NmcSystem::new(ArchConfig::paper_default()).run(&trace);

            let read_bytes = 2f64.powf(profile.value("footprint.log2_read_bytes")) - 1.0;
            let written_bytes = 2f64.powf(profile.value("footprint.log2_written_bytes")) - 1.0;
            let cost = link.transfer(read_bytes as u64, written_bytes as u64);

            let t = report.exec_time_seconds();
            let e = report.energy_joules();
            OffloadRow {
                workload: w,
                edp_resident: t * e,
                edp_with_offload: (t + cost.seconds) * (e + cost.joules),
            }
        })
        .collect()
}

/// Closed- vs open-row EDP per workload (central configurations).
pub fn row_policy_study(workloads: &[Workload], scale: Scale) -> Vec<(Workload, f64, f64)> {
    workloads
        .iter()
        .map(|&w| {
            let trace = w.generate(&w.spec().central_values(), scale);
            let closed = NmcSystem::new(ArchConfig::paper_default()).run(&trace);
            let open = NmcSystem::new(ArchConfig {
                row_policy: nmc_sim::RowPolicy::Open,
                ..ArchConfig::paper_default()
            })
            .run(&trace);
            (w, closed.edp(), open.edp())
        })
        .collect()
}

/// Renders both core ablations.
pub fn render(samplers: &SamplerAblation, sweep: &ForestSweep) -> String {
    let body: Vec<Vec<String>> = samplers
        .rows
        .iter()
        .map(|(s, p, e)| {
            vec![
                s.name().to_string(),
                format!("{:.1}%", p * 100.0),
                format!("{:.1}%", e * 100.0),
            ]
        })
        .collect();
    let mut out = super::render_table(&["Sampler", "perf MRE", "energy MRE"], &body);
    out.push('\n');
    let body: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|(n, p)| vec![n.to_string(), format!("{:.1}%", p * 100.0)])
        .collect();
    out.push_str(&super::render_table(&["#Trees", "perf MRE"], &body));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::AnyExecutor;

    fn exec() -> AnyExecutor {
        AnyExecutor::from_env()
    }

    #[test]
    fn sampler_ablation_covers_all_strategies() {
        let apps = [Workload::Atax, Workload::Gemv];
        let result = sampler_ablation(&apps, Scale::tiny(), 5, &ModelIo::none(), &exec()).unwrap();
        assert_eq!(result.rows.len(), 4);
        for (_, p, e) in &result.rows {
            assert!(p.is_finite() && e.is_finite());
        }
    }

    #[test]
    fn forest_sweep_produces_points() {
        let set = collect_with_sampler(
            &[Workload::Atax, Workload::Gemv],
            Sampler::Ccd,
            Scale::tiny(),
            5,
            &exec(),
        )
        .unwrap();
        let none = ModelIo::none();
        let sweep = forest_size_sweep(&set, &[5, 20], 5, &none, &exec()).unwrap();
        assert_eq!(sweep.points.len(), 2);
        let apps = [Workload::Atax, Workload::Gemv];
        let s = render(
            &sampler_ablation(&apps, Scale::tiny(), 5, &none, &exec()).unwrap(),
            &sweep,
        );
        assert!(s.contains("Sampler") && s.contains("#Trees"));
    }

    #[test]
    fn ccd_prefix_respects_the_budget() {
        let set = collect_ccd_prefix(&[Workload::Atax, Workload::Gemv], 5, Scale::tiny(), &exec())
            .unwrap();
        for w in [Workload::Atax, Workload::Gemv] {
            let n = set.runs.iter().filter(|r| r.workload == w).count();
            assert_eq!(n, 5, "{w}");
        }
        // A budget past the CCD caps at the full design.
        let full = collect_ccd_prefix(&[Workload::Atax], 10_000, Scale::tiny(), &exec()).unwrap();
        let ccd_len = doe_points(&Workload::Atax.spec(), true).len();
        assert_eq!(full.runs.len(), ccd_len);
    }

    #[test]
    fn active_collection_reaches_the_budget_and_differs_from_ccd() {
        let apps = [Workload::Atax, Workload::Gemv];
        let active = collect_active(&apps, 7, ACTIVE_POOL, Scale::tiny(), 9, &exec()).unwrap();
        for w in apps {
            let n = active.runs.iter().filter(|r| r.workload == w).count();
            assert_eq!(n, 7, "{w}");
        }
        // The non-seed points come from the hypercube, not the CCD grid:
        // the two arms must not collapse into the same design.
        let plain = collect_ccd_prefix(&apps, 7, Scale::tiny(), &exec()).unwrap();
        assert_ne!(
            active.content_hash(),
            plain.content_hash(),
            "active sampling should leave the CCD prefix"
        );
        // Same seed, same campaign.
        let again = collect_active(&apps, 7, ACTIVE_POOL, Scale::tiny(), 9, &exec()).unwrap();
        assert_eq!(active.content_hash(), again.content_hash());
    }

    #[test]
    fn collected_sets_carry_their_campaign_timing() {
        // Every collector simulates through `run_supervised`, which times
        // the campaign; the set must carry that timing, not zeros.
        let apps = [Workload::Atax];
        let sets = [
            collect_with_sampler(&apps, Sampler::Random, Scale::tiny(), 3, &exec()).unwrap(),
            collect_ccd_prefix(&apps, 3, Scale::tiny(), &exec()).unwrap(),
            collect_active(&apps, 5, 4, Scale::tiny(), 3, &exec()).unwrap(),
        ];
        for set in &sets {
            assert!(set.stats.simulate_seconds > 0.0, "{:?}", set.stats);
        }
    }

    #[test]
    fn budget_curve_runs_and_renders() {
        let apps = [Workload::Atax, Workload::Gemv];
        let curve =
            budget_curve(&apps, Scale::tiny(), &[5, 7], 11, &ModelIo::none(), &exec()).unwrap();
        assert_eq!(curve.points.len(), 2);
        for p in &curve.points {
            assert!(p.ccd.0.is_finite() && p.active.0.is_finite());
            assert!(p.ccd.1.is_finite() && p.active.1.is_finite());
        }
        let s = render_budget_curve(&curve);
        assert!(s.contains("Budget/app") && s.contains("active perf"));
        // The CI gate is callable with any slack; with infinite slack it
        // must accept.
        assert!(curve.active_no_worse(f64::INFINITY));
    }

    #[test]
    fn ensemble_comparison_reports_floored_weights() {
        let set = collect_with_sampler(
            &[Workload::Atax, Workload::Gemv],
            Sampler::Ccd,
            Scale::tiny(),
            13,
            &exec(),
        )
        .unwrap();
        let c = ensemble_vs_forest(&set, 13, &ModelIo::none(), &exec()).unwrap();
        assert!(c.forest.0.is_finite() && c.ensemble.0.is_finite());
        assert!(c
            .weights
            .iter()
            .all(|&w| w >= napel_ml::ensemble::DEFAULT_WEIGHT_FLOOR));
        let s = render_ensemble(&c);
        assert!(s.contains("adapted weights"));
    }

    #[test]
    fn screening_keeps_requested_feature_counts() {
        let set = collect_with_sampler(
            &[Workload::Atax, Workload::Gemv],
            Sampler::Ccd,
            Scale::tiny(),
            7,
            &exec(),
        )
        .unwrap();
        let points = screening_ablation(&set, &[10, 50], 7, &ModelIo::none(), &exec()).unwrap();
        assert_eq!(points.len(), 3); // all + two subsets
        assert_eq!(points[0].kept, usize::MAX);
        assert_eq!(points[1].kept, 10);
        assert!(points.iter().all(|p| p.perf_mre.is_finite()));
    }

    #[test]
    fn bigger_nmc_cache_helps_atax() {
        // The paper's closing observation: atax's vector-multiply phase has
        // locality a larger-than-128B L1 could exploit.
        let points = cache_size_sweep(Workload::Atax, &[2, 64], Scale::tiny());
        assert_eq!(points.len(), 2);
        assert!(
            points[1].ipc > points[0].ipc,
            "64-line L1 should beat 2-line on atax: {} vs {}",
            points[1].ipc,
            points[0].ipc
        );
        assert!(points[1].edp < points[0].edp);
    }

    #[test]
    fn row_policy_study_covers_workloads() {
        let rows = row_policy_study(&[Workload::Gemv, Workload::Bfs], Scale::tiny());
        assert_eq!(rows.len(), 2);
        for (_, closed, open) in rows {
            assert!(closed > 0.0 && open > 0.0);
        }
    }

    #[test]
    fn offload_transfer_always_inflates_edp() {
        let rows = offload_sensitivity(&[Workload::Atax, Workload::Kme], Scale::tiny());
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(
                r.inflation() > 1.0,
                "{}: transfer cannot make EDP better ({})",
                r.workload,
                r.inflation()
            );
            assert!(
                r.inflation() < 100.0,
                "{}: inflation implausible",
                r.workload
            );
        }
    }
}

//! Phase ② — the DoE-driven simulation campaign.
//!
//! For every workload, the Table 2 parameter space is sampled by the
//! central composite design (11/19/31 configurations, Table 4); each
//! selected configuration is executed (trace generation), characterized
//! (PISA profile), and simulated on every architecture configuration in
//! the plan to produce labeled training rows.

use napel_doe::ccd::{central_composite, CcdOptions};
use napel_doe::{DesignPoint, ParamDef, ParamSpace};
use napel_workloads::{Scale, Workload, WorkloadSpec};
use nmc_sim::ArchConfig;

use crate::campaign::{plan_jobs, run_supervised, Executor};
use crate::fault::{CampaignOptions, CampaignReport};
use crate::features::{combined_feature_names, TrainingSet};
use crate::NapelError;

/// What to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionPlan {
    /// Applications to collect training data for.
    pub workloads: Vec<Workload>,
    /// Architecture configurations each DoE point runs on.
    pub arch_configs: Vec<ArchConfig>,
    /// Input-shrinking policy.
    pub scale: Scale,
}

impl Default for CollectionPlan {
    fn default() -> Self {
        CollectionPlan {
            workloads: Workload::ALL.to_vec(),
            arch_configs: vec![ArchConfig::paper_default()],
            scale: Scale::laptop(),
        }
    }
}

/// Converts a Table 2 spec into a DoE parameter space.
///
/// # Panics
///
/// Panics if a spec's levels are not strictly increasing (a `napel-workloads`
/// invariant, tested there).
pub fn param_space(spec: &WorkloadSpec) -> ParamSpace {
    let params: Vec<ParamDef> = spec
        .params
        .iter()
        .map(|p| ParamDef::integer(p.name, p.levels).expect("Table 2 levels are sorted"))
        .collect();
    ParamSpace::new(params).expect("Table 2 workloads have parameters")
}

/// The CCD design points for a workload, with the paper's replication rule.
pub fn doe_points(spec: &WorkloadSpec, dedup: bool) -> Vec<DesignPoint> {
    let space = param_space(spec);
    let design = central_composite(&space, &CcdOptions::paper_defaults(&space))
        .expect("Table 2 workloads have at most 4 parameters");
    if dedup {
        design.unique_points()
    } else {
        design.points().cloned().collect()
    }
}

/// The paper's "#DoE conf." count for a workload (replicates included).
pub fn doe_config_count(spec: &WorkloadSpec) -> usize {
    let space = param_space(spec);
    central_composite(&space, &CcdOptions::paper_defaults(&space))
        .expect("Table 2 workloads have at most 4 parameters")
        .len()
}

/// Runs the campaign of `plan` on `exec` under the supervised,
/// fault-tolerant runtime: per-job panic isolation, the label-validation
/// gate, quarantine or fail-fast semantics, and checkpoint/resume — all
/// per `opts`. Rows come back in workload-major, DoE-point-major,
/// architecture-minor order regardless of the executor. Returns the
/// training set (failed jobs excluded under quarantine) plus the
/// [`CampaignReport`] itemizing every job outcome.
///
/// # Errors
///
/// [`NapelError::Job`] for a fail-fast job failure (with the job's
/// provenance) and [`NapelError::Checkpoint`] if the journal cannot be
/// opened.
pub fn collect<E: Executor>(
    plan: &CollectionPlan,
    exec: &E,
    opts: &CampaignOptions,
) -> Result<(TrainingSet, CampaignReport), NapelError> {
    let jobs = plan_jobs(plan);
    let (runs, report) = run_supervised(exec, &jobs, opts)?;
    Ok((
        TrainingSet {
            feature_names: combined_feature_names(),
            runs,
            stats: report.stats,
        },
        report,
    ))
}

/// A small architecture sweep around the Table 3 design, for training the
/// model's architectural sensitivity (used by [`evaluation_plan`] and the
/// DSE example).
pub fn arch_neighborhood() -> Vec<ArchConfig> {
    let base = ArchConfig::paper_default();
    vec![
        base.clone(),
        ArchConfig {
            num_pes: 16,
            ..base.clone()
        },
        ArchConfig {
            freq_ghz: 2.5,
            ..base.clone()
        },
        ArchConfig {
            cache_lines: 8,
            ..base.clone()
        },
        ArchConfig {
            vaults: 16,
            dram_layers: 4,
            ..base.clone()
        },
        ArchConfig {
            issue_width: 2,
            ..base
        },
    ]
}

/// The evaluation's collection plan for `workloads` at `scale`: every DoE
/// point simulated on the first three architectures of
/// [`arch_neighborhood`]. Following Section 2.5 ("we run these
/// DoE-selected application-input configurations on different
/// architectural configurations"), the sweep teaches the model its
/// architectural sensitivity and enlarges the training set; three
/// configurations keep single-core collection time reasonable.
pub fn evaluation_plan(workloads: Vec<Workload>, scale: Scale) -> CollectionPlan {
    CollectionPlan {
        workloads,
        arch_configs: arch_neighborhood().into_iter().take(3).collect(),
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{AnyExecutor, Serial};
    use crate::features::LabeledRun;

    fn collect_clean(plan: &CollectionPlan) -> TrainingSet {
        collect(plan, &AnyExecutor::from_env(), &CampaignOptions::default())
            .expect("clean campaign")
            .0
    }

    #[test]
    fn doe_counts_match_table4() {
        let expected = [
            (Workload::Atax, 11),
            (Workload::Bfs, 31),
            (Workload::Bp, 31),
            (Workload::Chol, 19),
            (Workload::Gemv, 19),
            (Workload::Gesu, 19),
            (Workload::Gram, 19),
            (Workload::Kme, 31),
            (Workload::Lu, 19),
            (Workload::Mvt, 19),
            (Workload::Syrk, 19),
            (Workload::Trmm, 19),
        ];
        for (w, n) in expected {
            assert_eq!(doe_config_count(&w.spec()), n, "{w}");
        }
    }

    #[test]
    fn dedup_removes_center_replicates_only() {
        let spec = Workload::Atax.spec();
        assert_eq!(doe_points(&spec, false).len(), 11);
        assert_eq!(doe_points(&spec, true).len(), 9);
    }

    #[test]
    fn collect_produces_labeled_rows() {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax],
            scale: Scale::tiny(),
            ..Default::default()
        };
        let set = collect_clean(&plan);
        assert_eq!(set.runs.len(), 9); // deduped CCD x 1 arch
        for r in &set.runs {
            assert_eq!(r.workload, Workload::Atax);
            assert!(r.ipc > 0.0, "IPC label must be positive");
            assert!(r.energy_per_inst_pj > 0.0);
            assert_eq!(r.features.len(), set.feature_names.len());
        }
        assert!(set.stats.simulate_seconds > 0.0);
        assert!(set.stats.profile_seconds > 0.0);
    }

    #[test]
    fn multiple_arch_configs_multiply_rows() {
        let archs = arch_neighborhood();
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax],
            arch_configs: archs.clone(),
            scale: Scale::tiny(),
        };
        let set = collect_clean(&plan);
        let a = archs.len();
        assert_eq!(set.runs.len(), 9 * a);
        // Rows are DoE-point-major, architecture-minor: runs[k*a + j] is
        // point k simulated on arch j. Every block of `a` rows must share
        // one input configuration...
        let mut varied = 0;
        for k in 0..9 {
            let block = &set.runs[k * a..(k + 1) * a];
            for r in block {
                assert_eq!(
                    r.params, block[0].params,
                    "point {k} rows must share inputs"
                );
            }
            // ...and the architecture must actually move the IPC label
            // within the block: the same DoE point on different hardware
            // is a different training row, not a duplicate. Degenerate
            // tiny-scale points can be arch-insensitive (everything hits
            // in cache and the pipeline bound is unchanged), so require
            // sensitivity at a majority of points, not every point.
            let ipcs: Vec<f64> = block.iter().map(|r| r.ipc).collect();
            if ipcs.iter().any(|&x| (x - ipcs[0]).abs() > 1e-9) {
                varied += 1;
            }
        }
        assert!(
            varied * 2 >= 9,
            "arch sweep moved IPC at only {varied}/9 DoE points"
        );
        // Across points (same arch), inputs must differ — the DoE side of
        // the cross product.
        let base: Vec<&LabeledRun> = set.runs.iter().step_by(a).collect();
        for pair in base.windows(2) {
            assert_ne!(pair[0].params, pair[1].params);
        }
    }

    #[test]
    fn quarantine_excludes_bad_labels_but_completes() {
        use crate::fault::FaultInjector;
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax],
            scale: Scale::tiny(),
            ..Default::default()
        };
        let (clean, _) = collect(&plan, &Serial, &CampaignOptions::default()).unwrap();
        let opts =
            CampaignOptions::quarantine().with_injector(FaultInjector::new().nan_label_at(4));
        let (set, report) = collect(&plan, &Serial, &opts).unwrap();
        assert_eq!(report.quarantined_indices(), vec![4]);
        assert_eq!(set.runs.len(), clean.runs.len() - 1);
        let mut expected = clean.runs.clone();
        expected.remove(4);
        assert_eq!(set.runs, expected, "survivors must be untouched");
        // The quarantined set still trains.
        assert!(set.ipc_dataset().is_ok());
    }

    #[test]
    fn param_space_roundtrips_spec() {
        let spec = Workload::Bfs.spec();
        let space = param_space(&spec);
        assert_eq!(space.dims(), 4);
        assert_eq!(space.param(0).name(), "Nodes");
        assert_eq!(space.param(0).levels()[2], 900e3);
    }
}

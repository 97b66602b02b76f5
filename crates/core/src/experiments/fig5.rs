//! Figure 5 — prediction accuracy: NAPEL vs ANN vs linear decision tree.
//!
//! Leave-one-application-out MRE for performance (a) and energy (b), for
//! three estimators:
//!
//! - **NAPEL**: the random forest (with the default tuning grid's winning
//!   configuration),
//! - **ANN**: an MLP after Ipek et al.,
//! - **DT**: a linear-leaf decision tree after Guo et al.
//!
//! Paper shapes to reproduce: NAPEL average MRE ≈ 8.5 % (perf) / 11.6 %
//! (energy); NAPEL beats the ANN by ~1.7×/1.4× and the decision tree by
//! ~3.2×/3.5×; bfs/bp/kme are the hardest applications.

use napel_ml::forest::RandomForestParams;
use napel_ml::log_space::LogOf;
use napel_ml::mlp::MlpParams;
use napel_ml::model_tree::ModelTreeParams;
use napel_ml::tree::{DecisionTreeParams, FeatureSubset};
use napel_workloads::Workload;

use crate::analysis::{average_mre, loao_accuracy, LoaoResult};
use crate::artifact::ModelIo;
use crate::campaign::Executor;
use crate::NapelError;

/// Per-workload MREs for the three estimators.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Application.
    pub workload: Workload,
    /// NAPEL (random forest) performance/energy MRE.
    pub napel: (f64, f64),
    /// ANN performance/energy MRE.
    pub ann: (f64, f64),
    /// Linear decision tree performance/energy MRE.
    pub dtree: (f64, f64),
}

/// Full Figure 5 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// Per-application rows.
    pub rows: Vec<Fig5Row>,
    /// Average (perf, energy) MRE per estimator: NAPEL, ANN, DT.
    pub averages: [(f64, f64); 3],
}

impl Fig5Result {
    /// NAPEL's accuracy advantage over the ANN (perf, energy), as the
    /// paper's "1.7× (1.4×) more accurate".
    pub fn advantage_over_ann(&self) -> (f64, f64) {
        (
            self.averages[1].0 / self.averages[0].0,
            self.averages[1].1 / self.averages[0].1,
        )
    }

    /// NAPEL's accuracy advantage over the decision tree.
    pub fn advantage_over_dtree(&self) -> (f64, f64) {
        (
            self.averages[2].0 / self.averages[0].0,
            self.averages[2].1 / self.averages[0].1,
        )
    }
}

/// The forest configuration used as "NAPEL" in this comparison.
pub fn napel_estimator() -> RandomForestParams {
    RandomForestParams {
        num_trees: 120,
        tree: DecisionTreeParams {
            max_depth: 16,
            feature_subset: FeatureSubset::Third,
            ..DecisionTreeParams::default()
        },
        bootstrap: true,
    }
}

/// The Ipek-style ANN baseline.
pub fn ann_estimator() -> MlpParams {
    MlpParams {
        hidden: vec![16, 16],
        epochs: 250,
        ..MlpParams::default()
    }
}

/// The Guo-style linear decision tree baseline.
pub fn dtree_estimator() -> ModelTreeParams {
    ModelTreeParams::default()
}

/// Runs the Figure 5 comparison, the leave-one-out folds as job batches
/// on `exec`. Each estimator's fold models are saved as (or loaded from)
/// `<dir>/fig5-{napel,ann,dtree}-<workload>.napel` per `io` — every
/// family of the comparison round-trips through the same persistence
/// layer.
///
/// # Errors
///
/// Propagates estimator failures; [`crate::NapelError::Artifact`] on
/// save/load failures or schema mismatches.
pub fn run<E: Executor>(
    ctx: &super::Context,
    io: &ModelIo,
    exec: &E,
) -> Result<Fig5Result, NapelError> {
    // All three estimators fit in log-space (see `napel_ml::log_space`) so
    // the comparison stays apples-to-apples.
    let set = &ctx.training;
    let rf = loao_accuracy(
        &LogOf(napel_estimator()),
        set,
        ctx.seed,
        io,
        "fig5-napel",
        exec,
    )?;
    let ann = loao_accuracy(&LogOf(ann_estimator()), set, ctx.seed, io, "fig5-ann", exec)?;
    let dt = loao_accuracy(
        &LogOf(dtree_estimator()),
        set,
        ctx.seed,
        io,
        "fig5-dtree",
        exec,
    )?;

    let find = |rs: &[LoaoResult], w: Workload| -> (f64, f64) {
        rs.iter()
            .find(|r| r.workload == w)
            .map(|r| (r.perf_mre, r.energy_mre))
            .expect("all estimators cover the same workloads")
    };
    let rows = rf
        .iter()
        .map(|r| Fig5Row {
            workload: r.workload,
            napel: (r.perf_mre, r.energy_mre),
            ann: find(&ann, r.workload),
            dtree: find(&dt, r.workload),
        })
        .collect();
    Ok(Fig5Result {
        rows,
        averages: [average_mre(&rf), average_mre(&ann), average_mre(&dt)],
    })
}

/// Renders the two panels of Figure 5 as one table.
pub fn render(result: &Fig5Result) -> String {
    let body: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.workload.name().to_string(),
                pct(r.napel.0),
                pct(r.ann.0),
                pct(r.dtree.0),
                pct(r.napel.1),
                pct(r.ann.1),
                pct(r.dtree.1),
            ]
        })
        .collect();
    let mut s = super::render_table(
        &[
            "Name",
            "perf NAPEL",
            "perf ANN",
            "perf DT",
            "energy NAPEL",
            "energy ANN",
            "energy DT",
        ],
        &body,
    );
    let [n, a, d] = result.averages;
    s.push_str(&format!(
        "averages: NAPEL {}/{}  ANN {}/{}  DT {}/{}  (perf/energy MRE)\n",
        pct(n.0),
        pct(n.1),
        pct(a.0),
        pct(a.1),
        pct(d.0),
        pct(d.1)
    ));
    let (pa, ea) = result.advantage_over_ann();
    let (pd, ed) = result.advantage_over_dtree();
    s.push_str(&format!(
        "NAPEL is {pa:.1}x ({ea:.1}x) more accurate than the ANN and {pd:.1}x ({ed:.1}x) than the decision tree in perf (energy)\n",
    ));
    s
}

fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_estimators_compared_per_workload() {
        let ctx =
            super::super::tiny_context(vec![Workload::Atax, Workload::Gemv, Workload::Syrk], 3);
        let exec = crate::campaign::AnyExecutor::from_env();
        let result = run(&ctx, &ModelIo::none(), &exec).unwrap();
        assert_eq!(result.rows.len(), 3);
        for r in &result.rows {
            for (p, e) in [r.napel, r.ann, r.dtree] {
                assert!(p.is_finite() && p >= 0.0);
                assert!(e.is_finite() && e >= 0.0);
            }
        }
        let s = render(&result);
        assert!(s.contains("averages: NAPEL"));
        assert!(s.contains("more accurate"));
    }
}

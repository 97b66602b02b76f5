//! Reproduction drivers for every table and figure of the paper's
//! evaluation (Section 3).
//!
//! Each submodule computes one artifact and renders it as an aligned text
//! table mirroring the paper's layout:
//!
//! | Paper artifact | Module | Regenerator binary |
//! |---|---|---|
//! | Table 2 (applications & DoE levels) | [`table2`] | `table2` |
//! | Table 3 (system parameters) | [`table3`] | `table3` |
//! | Table 4 (DoE counts & training/prediction time) | [`table4`] | `table4` |
//! | Figure 4 (prediction speedup over simulation) | [`fig4`] | `fig4` |
//! | Figure 5 (MRE: NAPEL vs ANN vs decision tree) | [`fig5`] | `fig5` |
//! | Figure 6 (host execution time and energy) | [`fig6`] | `fig6` |
//! | Figure 7 (EDP reduction, NAPEL vs Actual) | [`fig7`] | `fig7` |
//! | Design-choice ablations (ours) | [`ablation`] | `ablation` |
//!
//! The binaries live in the `napel-bench` crate; integration tests drive
//! the same functions at [`napel_workloads::Scale::tiny`].

pub mod ablation;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table2;
pub mod table3;
pub mod table4;

use napel_workloads::Scale;

use crate::campaign::Executor;
use crate::collect::{collect, CollectionPlan};
use crate::fault::{CampaignOptions, CampaignReport};
use crate::features::TrainingSet;
use crate::NapelError;

/// Shared experiment context: one training-data collection reused by every
/// figure.
#[derive(Debug, Clone)]
pub struct Context {
    /// Input scale for all kernels.
    pub scale: Scale,
    /// Seed for every randomized step.
    pub seed: u64,
    /// The training set the plan's campaign collected — for the drivers,
    /// [`crate::collect::evaluation_plan`]'s applications on three
    /// architectures around the Table 3 design.
    pub training: TrainingSet,
}

impl Context {
    /// Collects `plan`'s training set on `exec` under the supervised
    /// campaign runtime: the collection honors `opts` (fail policy,
    /// checkpoint journal) and the returned [`CampaignReport`] itemizes
    /// every job — restored-from-checkpoint counts, quarantined failures,
    /// timing.
    ///
    /// # Errors
    ///
    /// [`NapelError::Job`] on a fail-fast job failure and
    /// [`NapelError::Checkpoint`] if the journal cannot be opened.
    pub fn build<E: Executor>(
        plan: &CollectionPlan,
        seed: u64,
        exec: &E,
        opts: &CampaignOptions,
    ) -> Result<(Self, CampaignReport), NapelError> {
        let (training, report) = collect(plan, exec, opts)?;
        Ok((
            Context {
                scale: plan.scale,
                seed,
                training,
            },
            report,
        ))
    }
}

/// Renders a simple aligned text table.
pub(crate) fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", c, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// A single-architecture context over `workloads` at tiny scale, for the
/// experiment modules' unit tests.
#[cfg(test)]
pub(crate) fn tiny_context(workloads: Vec<napel_workloads::Workload>, seed: u64) -> Context {
    let plan = CollectionPlan {
        workloads,
        scale: Scale::tiny(),
        ..CollectionPlan::default()
    };
    let exec = crate::campaign::AnyExecutor::from_env();
    Context::build(&plan, seed, &exec, &CampaignOptions::default())
        .expect("clean campaign")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let s = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        let val_col = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][val_col..val_col + 1], "1");
        assert_eq!(&lines[3][val_col..val_col + 3], "2.5");
    }

    #[test]
    fn subset_context_collects_only_requested() {
        use napel_workloads::Workload;
        let ctx = tiny_context(vec![Workload::Atax], 1);
        assert_eq!(ctx.training.workloads(), vec![Workload::Atax]);
        assert_eq!(ctx.scale, Scale::tiny());
        assert_eq!(ctx.seed, 1);
    }
}

//! Inference-only entry point: feature rows in, predictions out — no
//! simulator, no training. This is phase ⑤ decoupled from the rest of the
//! pipeline: point `--model-in` at a `.napel` bundle saved by any of the
//! training drivers (`fig4 --model-out models` produces
//! `models/fig4-<workload>.napel`) and score rows against it.
//!
//! Input modes:
//!
//! - `--workload NAME`: profile the workload's test input once, then
//!   cross it with `--configs` architecture configurations sampled from
//!   the Table 1 ranges (`--seed`) — the design-space-exploration loop of
//!   Figure 4, running purely on the stored model.
//! - `--input PATH`: raw combined feature rows, one per line,
//!   whitespace- or comma-separated, `#` comments ignored. Row layout
//!   must match the model's schema (see `--print-schema`).
//!
//! Output: one line per row with predicted IPC, energy/instruction, and
//! the derived time/energy/EDP for `--instructions` offloaded
//! instructions, plus the forest's geometric per-tree spread (one
//! geometric standard deviation; the band is `[IPC/σ, IPC·σ]`).
//!
//! Every operational failure — missing flags, an unreadable or corrupt
//! bundle, malformed input rows, a schema mismatch — exits with status 1
//! and a single `predict: <what went wrong>` diagnostic on stderr, so
//! scripts wrapping this binary get machine-checkable failures instead
//! of panic backtraces.

use napel_bench::{exit_with_error, Options};
use napel_core::experiments::fig4::sample_arch_configs;
use napel_core::features::combined_features;
use napel_core::model::TrainedNapel;
use napel_pisa::ApplicationProfile;
use napel_workloads::Workload;

/// Parses raw feature rows: whitespace- or comma-separated floats, one
/// row per line, `#` starts a comment.
fn parse_rows(text: &str, source: &str) -> Result<Vec<Vec<f64>>, String> {
    let mut rows = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("");
        if line.trim().is_empty() {
            continue;
        }
        let mut row = Vec::new();
        for tok in line
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|tok| !tok.is_empty())
        {
            let v: f64 = tok
                .parse()
                .map_err(|_| format!("{source}:{}: `{tok}` is not a number", lineno + 1))?;
            row.push(v);
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(format!("{source}: no feature rows (only blanks/comments)"));
    }
    Ok(rows)
}

fn run(opts: &Options) -> Result<(), String> {
    let path = opts
        .model_in
        .clone()
        .ok_or("predict needs --model-in <bundle.napel>")?;
    let model = TrainedNapel::load(&path).map_err(|e| e.to_string())?;
    let prov = model.provenance();
    napel_telemetry::info!(
        "loaded {path}: {} features, trained on {} rows of [{}] (seed {}, hash {:016x})",
        model.feature_names().len(),
        prov.training_rows,
        prov.workloads.join(" "),
        prov.seed,
        prov.training_hash
    );

    let rows: Vec<Vec<f64>> = if let Some(input) = &opts.input {
        let text = std::fs::read_to_string(input)
            .map_err(|e| format!("cannot read --input `{input}`: {e}"))?;
        parse_rows(&text, input)?
    } else if let Some(name) = &opts.workload {
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown workload `{name}` (expected one of: {})",
                    Workload::ALL.map(|w| w.name()).join(" ")
                )
            })?;
        napel_telemetry::info!(
            "profiling {name} at its test input, {} sampled architectures...",
            opts.configs
        );
        let trace = workload.generate_test(opts.scale);
        let profile = ApplicationProfile::of(&trace);
        sample_arch_configs(opts.configs, opts.seed)
            .iter()
            .map(|arch| combined_features(&profile, arch))
            .collect()
    } else {
        return Err("predict needs --input FILE or --workload NAME".to_string());
    };

    let predictions = model.predict_batch(&rows).map_err(|e| e.to_string())?;

    println!(
        "Predictions for {} rows ({} offloaded instructions):\n",
        predictions.len(),
        opts.instructions
    );
    println!(
        "{:>4}  {:>8}  {:>10}  {:>11}  {:>11}  {:>11}  {:>6}",
        "row", "IPC", "pJ/inst", "time (s)", "energy (J)", "EDP (J*s)", "geo-sd"
    );
    for (i, (pred, spread)) in predictions.iter().enumerate() {
        println!(
            "{:>4}  {:>8.4}  {:>10.2}  {:>11.4e}  {:>11.4e}  {:>11.4e}  {:>6.3}",
            i,
            pred.ipc,
            pred.energy_per_inst_pj,
            pred.exec_time_seconds(opts.instructions),
            pred.energy_joules(opts.instructions),
            pred.edp(opts.instructions),
            spread
        );
    }
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    opts.init_telemetry();
    if let Err(message) = run(&opts) {
        exit_with_error("predict", &message);
    }
    opts.finish_telemetry();
}

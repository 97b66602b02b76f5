//! Harness support for the table/figure regenerator binaries.
//!
//! [`Options`] is where the campaign and artifact settings come from: a
//! driver turns its flags (falling back to the `NAPEL_*` environment
//! variables) into the workload subset, executor, campaign options and
//! artifact policy, and passes those same values to every experiment it
//! runs — the `napel-core` entry points take them as arguments and never
//! read the environment.
//!
//! Every binary accepts the same flags:
//!
//! - `--scale laptop|tiny|unit` — workload input scale (default `laptop`),
//! - `--quick` — skip hyper-parameter tuning (single forest configuration),
//! - `--seed N` — RNG seed (default 25019, "DAC 2019"),
//! - `--configs N` — architecture configurations for Figure 4 (default 256),
//! - `--jobs N|auto` — campaign worker threads (default: the `NAPEL_JOBS`
//!   environment variable, falling back to serial). Parallelism never
//!   changes results, only wall-clock time.
//! - `--checkpoint PATH` — journal completed campaign jobs to `PATH` and
//!   resume from it on restart (default: the `NAPEL_CHECKPOINT`
//!   environment variable, falling back to no journal),
//! - `--fail-policy fast|quarantine` — stop at the first failed campaign
//!   job (default) or complete the campaign and itemize failures,
//! - `--telemetry-out PATH` — enable telemetry, write the JSONL event
//!   stream to `PATH` at exit, and print a phase-time summary on stderr
//!   (default: the `NAPEL_TELEMETRY` environment variable, falling back
//!   to telemetry off),
//! - `--quiet` — suppress informational stderr output (progress lines,
//!   campaign notices, the telemetry summary); errors still print.
//! - `--model-out DIR` — save every trained model as a `.napel` artifact
//!   bundle under `DIR` (default: the `NAPEL_MODEL_DIR` environment
//!   variable, falling back to no saving),
//! - `--model-in DIR|FILE` — load models from stored artifacts instead of
//!   training (the train-once/predict-many path; takes precedence over
//!   `--model-out`),
//! - `--apps LIST` — comma-separated workload subset (default: all 12
//!   applications) — e.g. `--apps atax,gemv,mvt,syrk` for a smoke run;
//!   every driver collects, trains and reports on exactly this subset,
//! - `--budgets LIST` — comma-separated points-per-application budgets for
//!   the `ablation` accuracy-vs-budget curve (default `5,7,9`),
//! - `--input PATH` — for `predict`: file of raw feature rows to score,
//! - `--workload NAME` — for `predict`: profile this workload's test
//!   input instead of reading `--input`,
//! - `--instructions N` — for `predict`: offloaded instruction count for
//!   the time/energy/EDP columns (default 1,000,000).
//!
//! Run them as `cargo run --release -p napel-bench --bin fig5 -- --quick`.
//! A bad flag or value exits with status 1 and one `<bin>: <message>`
//! line on stderr.

use std::path::{Path, PathBuf};
use std::str::FromStr;

pub mod obs;

use napel_core::artifact::ModelIo;
use napel_core::campaign::AnyExecutor;
use napel_core::collect::evaluation_plan;
use napel_core::experiments::Context;
use napel_core::fault::{CampaignOptions, CampaignReport, FaultPolicy};
use napel_core::model::NapelConfig;
use napel_workloads::{Scale, Workload};

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload scale.
    pub scale: Scale,
    /// Skip tuning.
    pub quick: bool,
    /// RNG seed.
    pub seed: u64,
    /// Figure 4 architecture-configuration count.
    pub configs: usize,
    /// Campaign executor (`--jobs`); `None` defers to `NAPEL_JOBS`.
    pub jobs: Option<AnyExecutor>,
    /// Checkpoint-journal path (`--checkpoint`); `None` defers to
    /// `NAPEL_CHECKPOINT`.
    pub checkpoint: Option<String>,
    /// Campaign fault policy (`--fail-policy`); `None` defers to
    /// `NAPEL_FAIL_POLICY`.
    pub fail_policy: Option<FaultPolicy>,
    /// Telemetry JSONL output path (`--telemetry-out`); `None` defers to
    /// `NAPEL_TELEMETRY`.
    pub telemetry_out: Option<String>,
    /// Suppress informational stderr output (`--quiet`).
    pub quiet: bool,
    /// Artifact save directory (`--model-out`); `None` defers to
    /// `NAPEL_MODEL_DIR`.
    pub model_out: Option<String>,
    /// Artifact load directory or bundle file (`--model-in`).
    pub model_in: Option<String>,
    /// Workload subset (`--apps`); `None` means all.
    pub apps: Option<Vec<Workload>>,
    /// Accuracy-vs-budget budgets (`--budgets`); `None` means the
    /// caller's default.
    pub budgets: Option<Vec<usize>>,
    /// Raw feature-row input file for the `predict` binary (`--input`).
    pub input: Option<String>,
    /// Workload name for the `predict` binary (`--workload`).
    pub workload: Option<String>,
    /// Offloaded instruction count for derived time/energy/EDP
    /// (`--instructions`).
    pub instructions: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::laptop(),
            quick: false,
            seed: 25019,
            configs: 256,
            jobs: None,
            checkpoint: None,
            fail_policy: None,
            telemetry_out: None,
            quiet: false,
            model_out: None,
            model_in: None,
            apps: None,
            budgets: None,
            input: None,
            workload: None,
            instructions: 1_000_000,
        }
    }
}

impl Options {
    /// Parses options from an argument iterator (binary name excluded).
    ///
    /// # Errors
    ///
    /// A one-line usage message naming the unknown flag, the flag missing
    /// its value, or the malformed value.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options::default();
        while let Some(arg) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
            match arg.as_str() {
                "--scale" => {
                    opts.scale = match value("a value (laptop|tiny|unit)")?.as_str() {
                        "laptop" => Scale::laptop(),
                        "tiny" => Scale::tiny(),
                        "unit" => Scale::unit(),
                        other => return Err(format!("unknown scale `{other}` (laptop|tiny|unit)")),
                    };
                }
                "--quick" => opts.quick = true,
                "--seed" => opts.seed = integer(&arg, &value("a value")?)?,
                "--configs" => opts.configs = integer(&arg, &value("a value")?)?,
                "--jobs" => {
                    let spec = value("a value (N or `auto`)")?;
                    opts.jobs = Some(AnyExecutor::parse_spec(&spec)?);
                }
                "--checkpoint" => opts.checkpoint = Some(value("a path")?),
                "--fail-policy" => {
                    let spec = value("a value (fast|quarantine)")?;
                    opts.fail_policy = Some(FaultPolicy::parse_spec(&spec)?);
                }
                "--telemetry-out" => opts.telemetry_out = Some(value("a path")?),
                "--quiet" => opts.quiet = true,
                "--model-out" => opts.model_out = Some(value("a directory")?),
                "--model-in" => opts.model_in = Some(value("a path")?),
                "--apps" => {
                    let list = value("a comma-separated list")?;
                    opts.apps = Some(list.split(',').map(workload).collect::<Result<_, _>>()?);
                }
                "--budgets" => {
                    let list = value("a comma-separated list")?;
                    opts.budgets = Some(
                        list.split(',')
                            .map(|n| integer(&arg, n.trim()))
                            .collect::<Result<_, _>>()?,
                    );
                }
                "--input" => opts.input = Some(value("a path")?),
                "--workload" => opts.workload = Some(value("a name")?),
                "--instructions" => opts.instructions = integer(&arg, &value("a value")?)?,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        // Fail before any collection, not after it.
        if let Some(path) = &opts.model_in {
            if !Path::new(path).exists() {
                return Err(format!("--model-in `{path}` does not exist"));
            }
        }
        Ok(opts)
    }

    /// Parses from the process arguments. On a bad flag or value, prints
    /// one `<bin>: <message>` line on stderr and exits with status 1.
    pub fn from_env() -> Options {
        let mut args = std::env::args();
        let bin = args
            .next()
            .as_deref()
            .and_then(|arg0| Path::new(arg0).file_stem())
            .map(|stem| stem.to_string_lossy().into_owned())
            .unwrap_or_else(|| "napel".to_string());
        Self::parse(args).unwrap_or_else(|message| exit_with_error(&bin, &message))
    }

    /// The campaign executor implied by the options: `--jobs` wins,
    /// otherwise the `NAPEL_JOBS` environment variable (serial by
    /// default).
    pub fn executor(&self) -> AnyExecutor {
        self.jobs.unwrap_or_else(AnyExecutor::from_env)
    }

    /// The supervised-campaign options implied by the flags: starts from
    /// the environment (`NAPEL_CHECKPOINT`, `NAPEL_FAIL_POLICY`), then
    /// lets explicit flags win.
    pub fn campaign_options(&self) -> CampaignOptions {
        let mut opts = CampaignOptions::from_env();
        if let Some(path) = &self.checkpoint {
            opts.checkpoint = Some(path.into());
        }
        if let Some(policy) = self.fail_policy {
            opts.policy = policy;
        }
        opts
    }

    /// The telemetry JSONL destination: `--telemetry-out` wins, otherwise
    /// the `NAPEL_TELEMETRY` environment variable. `None` means telemetry
    /// stays off (the noop global — near-zero cost on hot paths).
    pub fn telemetry_path(&self) -> Option<std::path::PathBuf> {
        match &self.telemetry_out {
            Some(path) => Some(path.into()),
            None => std::env::var_os("NAPEL_TELEMETRY").map(Into::into),
        }
    }

    /// Applies the observability options: caps the log facade at `error`
    /// under `--quiet`, and installs an enabled telemetry collector when a
    /// JSONL destination is configured. Call once, at the top of `main`.
    pub fn init_telemetry(&self) {
        if self.quiet {
            napel_telemetry::log::set_max_level(Some(napel_telemetry::log::Level::Error));
        }
        if self.telemetry_path().is_some() {
            napel_telemetry::install(napel_telemetry::Telemetry::enabled());
        }
    }

    /// Drains the telemetry collected since [`Self::init_telemetry`],
    /// writes the JSONL event stream to the configured path, and prints
    /// the phase-time / counter summary on stderr (suppressed by
    /// `--quiet`). A no-op when telemetry is off. Call once, at the end
    /// of `main`.
    pub fn finish_telemetry(&self) {
        let Some(path) = self.telemetry_path() else {
            return;
        };
        let report = napel_telemetry::global().drain();
        match std::fs::write(&path, report.to_jsonl()) {
            Ok(()) => napel_telemetry::info!(
                "telemetry: wrote {} events to {}",
                report.spans.len() + report.counters.len() + report.log_histograms.len(),
                path.display()
            ),
            Err(e) => napel_telemetry::warn!(
                "napel: telemetry output `{}` write failed ({e}); summary only",
                path.display()
            ),
        }
        if napel_telemetry::log::enabled(napel_telemetry::log::Level::Info) {
            eprintln!("{}", report.summary());
        }
    }

    /// The artifact policy implied by the options: `--model-in` sets the
    /// load directory (evaluation skips training); `--model-out` — or,
    /// failing that, the `NAPEL_MODEL_DIR` environment variable — sets
    /// the save directory for freshly trained models.
    pub fn model_io(&self) -> ModelIo {
        let save = self
            .model_out
            .clone()
            .map(PathBuf::from)
            .or_else(|| std::env::var_os("NAPEL_MODEL_DIR").map(PathBuf::from));
        let load = self.model_in.clone().map(PathBuf::from);
        ModelIo::new(save, load)
    }

    /// The workload subset implied by `--apps` (all 12 when absent).
    pub fn workloads(&self) -> Vec<Workload> {
        self.apps.clone().unwrap_or_else(|| Workload::ALL.to_vec())
    }

    /// Collects the evaluation context the options describe — the
    /// `--apps` subset on [`evaluation_plan`] at `--scale`, seeded by
    /// `--seed` — on `exec` under [`Self::campaign_options`], and
    /// announces the campaign report on stderr.
    ///
    /// # Errors
    ///
    /// A one-line message for a failed campaign.
    pub fn context(&self, exec: &AnyExecutor) -> Result<Context, String> {
        napel_telemetry::info!("collecting training data ({:?})...", self.scale);
        let plan = evaluation_plan(self.workloads(), self.scale);
        let (ctx, report) = Context::build(&plan, self.seed, exec, &self.campaign_options())
            .map_err(|e| format!("collection campaign failed: {e}"))?;
        announce_report(&report);
        Ok(ctx)
    }

    /// The accuracy-vs-budget budgets implied by `--budgets`, falling back
    /// to `default` when the flag is absent.
    pub fn budget_list(&self, default: &[usize]) -> Vec<usize> {
        self.budgets.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The NAPEL training configuration implied by the options.
    pub fn napel_config(&self) -> NapelConfig {
        if self.quick {
            NapelConfig {
                seed: self.seed,
                ..NapelConfig::untuned()
            }
        } else {
            NapelConfig {
                seed: self.seed,
                ..NapelConfig::default()
            }
        }
    }
}

/// Prints `<bin>: <message>` as the one diagnostic line on stderr and
/// exits with status 1 — the failure contract of every binary here.
pub fn exit_with_error(bin: &str, message: &str) -> ! {
    eprintln!("{bin}: {message}");
    std::process::exit(1)
}

/// Parses `raw` as the integer value of `flag`.
fn integer<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} must be an integer, got `{raw}`"))
}

/// Looks up one `--apps` entry by its Table 2 name.
fn workload(name: &str) -> Result<Workload, String> {
    let name = name.trim();
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown application `{name}` in --apps"))
}

/// Surfaces a campaign's fault-tolerance activity on stderr — restored
/// and quarantined counts, and one line of provenance per quarantined
/// job — keeping stdout reserved for the table/figure itself. Silent on
/// a plain clean run, and under `--quiet` (quarantines are warnings;
/// restore notices are informational).
pub fn announce_report(report: &CampaignReport) {
    if report.is_clean() && report.restored == 0 {
        return;
    }
    if report.is_clean() {
        napel_telemetry::info!("campaign: {}", report.summary());
    } else {
        napel_telemetry::warn!("campaign: {}", report.summary());
    }
    for failure in &report.quarantined {
        napel_telemetry::warn!("  quarantined: {failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        try_parse(args).expect("valid flags")
    }

    fn try_parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o, Options::default());
        assert_eq!(o.scale, Scale::laptop());
        assert!(!o.quick);
    }

    #[test]
    fn all_flags() {
        let o = parse(&[
            "--scale",
            "tiny",
            "--quick",
            "--seed",
            "7",
            "--configs",
            "16",
            "--jobs",
            "2",
        ]);
        assert_eq!(o.scale, Scale::tiny());
        assert!(o.quick);
        assert_eq!(o.seed, 7);
        assert_eq!(o.configs, 16);
        assert_eq!(o.jobs, Some(AnyExecutor::with_jobs(2)));
        use napel_core::campaign::Executor;
        assert_eq!(o.executor().workers(), 2);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = try_parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
        let err = try_parse(&["--seed", "abc"]).unwrap_err();
        assert!(err.contains("--seed must be an integer"), "{err}");
        let err = try_parse(&["--configs"]).unwrap_err();
        assert!(err.contains("--configs needs a value"), "{err}");
        let err = try_parse(&["--jobs", "banana"]).unwrap_err();
        assert!(err.contains("jobs spec `banana`"), "{err}");
    }

    #[test]
    fn fault_flags_override_campaign_options() {
        let o = parse(&[
            "--checkpoint",
            "/tmp/journal.ckpt",
            "--fail-policy",
            "quarantine",
        ]);
        let opts = o.campaign_options();
        assert_eq!(
            opts.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/journal.ckpt"))
        );
        assert_eq!(opts.policy, FaultPolicy::Quarantine);
    }

    #[test]
    fn bad_fail_policy_is_an_error() {
        let err = try_parse(&["--fail-policy", "maybe"]).unwrap_err();
        assert!(err.contains("fault policy"), "{err}");
    }

    #[test]
    fn model_flags_build_the_io_policy() {
        let stored = std::env::temp_dir();
        let o = parse(&[
            "--model-out",
            "/tmp/models",
            "--model-in",
            stored.to_str().unwrap(),
        ]);
        let io = o.model_io();
        assert_eq!(io.save_dir(), Some(std::path::Path::new("/tmp/models")));
        assert_eq!(io.load_dir(), Some(stored.as_path()));

        let err = try_parse(&["--model-in", "/nonexistent/napel/models"]).unwrap_err();
        assert_eq!(err, "--model-in `/nonexistent/napel/models` does not exist");

        let o = parse(&[]);
        if std::env::var_os("NAPEL_MODEL_DIR").is_none() {
            assert!(o.model_io().is_none());
        }
    }

    #[test]
    fn predict_flags_parse() {
        let o = parse(&[
            "--input",
            "rows.txt",
            "--workload",
            "atax",
            "--instructions",
            "5000000",
        ]);
        assert_eq!(o.input.as_deref(), Some("rows.txt"));
        assert_eq!(o.workload.as_deref(), Some("atax"));
        assert_eq!(o.instructions, 5_000_000);
        assert_eq!(Options::default().instructions, 1_000_000);
    }

    #[test]
    fn apps_and_budgets_flags_parse() {
        let o = parse(&["--apps", "atax, gemv", "--budgets", "5,7"]);
        assert_eq!(o.workloads(), vec![Workload::Atax, Workload::Gemv]);
        assert_eq!(o.budget_list(&[9]), vec![5, 7]);

        let o = parse(&[]);
        assert_eq!(o.workloads().len(), Workload::ALL.len());
        assert_eq!(o.budget_list(&[5, 8]), vec![5, 8]);
    }

    #[test]
    fn bad_apps_and_budgets_are_errors() {
        let err = try_parse(&["--apps", "atax,frob"]).unwrap_err();
        assert!(err.contains("unknown application `frob`"), "{err}");
        let err = try_parse(&["--budgets", "5,x"]).unwrap_err();
        assert!(
            err.contains("--budgets must be an integer, got `x`"),
            "{err}"
        );
    }

    #[test]
    fn quick_config_has_single_candidate() {
        let o = parse(&["--quick"]);
        assert_eq!(o.napel_config().grid.len(), 1);
        let o = parse(&[]);
        assert!(o.napel_config().grid.len() > 1);
    }
}

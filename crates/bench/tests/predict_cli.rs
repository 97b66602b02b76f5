//! End-to-end tests for the binaries' error contract: every operational
//! failure exits with status 1 and one `<bin>: ...` line on stderr — no
//! panics, no backtraces — and `predict`'s happy path still prints a
//! prediction table. One more pins the drivers' flag wiring: `all
//! --apps --model-out` trains and saves exactly the requested
//! applications.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

use napel_core::campaign::AnyExecutor;
use napel_core::collect::{collect, CollectionPlan};
use napel_core::fault::CampaignOptions;
use napel_core::model::{Napel, NapelConfig};
use napel_workloads::{Scale, Workload};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("napel-predict-cli-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One tiny trained bundle shared by every test (training dominates this
/// suite's runtime; do it once).
fn bundle() -> &'static (PathBuf, usize) {
    static BUNDLE: OnceLock<(PathBuf, usize)> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax, Workload::Gemv],
            scale: Scale::tiny(),
            ..Default::default()
        };
        let (set, _) = collect(&plan, &AnyExecutor::from_env(), &CampaignOptions::default())
            .expect("clean campaign");
        let trained = Napel::new(NapelConfig::untuned())
            .train(&set)
            .expect("train");
        let dir = scratch_dir("bundle");
        let path = dir.join("tiny.napel");
        trained.save(&path).expect("save");
        (path, set.feature_names.len())
    })
}

fn predict(args: &[&str]) -> Output {
    // `--quiet` keeps informational log lines off stderr so the
    // one-diagnostic-line contract is what these tests measure.
    Command::new(env!("CARGO_BIN_EXE_predict"))
        .arg("--quiet")
        .args(args)
        .output()
        .expect("spawn predict")
}

/// Asserts the failure contract: exit 1, and stderr is exactly one
/// `predict: ...` diagnostic line containing `needle`.
fn assert_one_line_failure(output: &Output, needle: &str) {
    assert_bin_failure(output, "predict", needle);
}

/// [`assert_one_line_failure`] for any binary: the line starts `bin: `.
fn assert_bin_failure(output: &Output, bin: &str, needle: &str) {
    assert_eq!(output.status.code(), Some(1), "expected exit 1: {output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let diagnostics: Vec<&str> = stderr.lines().collect();
    assert_eq!(diagnostics.len(), 1, "one diagnostic line, got:\n{stderr}");
    assert!(
        diagnostics[0].starts_with(&format!("{bin}: ")),
        "diagnostic must be prefixed: {stderr}"
    );
    assert!(
        diagnostics[0].contains(needle),
        "`{needle}` not in: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "errors must not panic:\n{stderr}"
    );
}

#[test]
fn missing_model_flag_is_a_one_line_failure() {
    let output = predict(&[]);
    assert_one_line_failure(&output, "--model-in");
}

#[test]
fn bad_flags_and_input_are_one_line_failures_in_every_driver() {
    let dir = scratch_dir("drivers");
    let not_jsonl = dir.join("not.jsonl");
    std::fs::write(&not_jsonl, "this is not telemetry\n").unwrap();
    let cases: [(&str, &str, &[&str], &str); 4] = [
        (
            "predict",
            env!("CARGO_BIN_EXE_predict"),
            &["--seed", "abc"],
            "--seed must be an integer, got `abc`",
        ),
        (
            "fig4",
            env!("CARGO_BIN_EXE_fig4"),
            &["--frobnicate"],
            "unknown flag `--frobnicate`",
        ),
        (
            "ablation",
            env!("CARGO_BIN_EXE_ablation"),
            &["--apps", "frob"],
            "unknown application `frob`",
        ),
        (
            "obs",
            env!("CARGO_BIN_EXE_obs"),
            &["--in", not_jsonl.to_str().unwrap()],
            "is not a telemetry JSONL stream",
        ),
    ];
    for (bin, exe, args, needle) in cases {
        let output = Command::new(exe).args(args).output().expect("spawn");
        assert_bin_failure(&output, bin, needle);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_model_in_fails_before_collection_in_every_driver() {
    let missing = "/nonexistent/napel/models";
    let drivers = [
        ("fig4", env!("CARGO_BIN_EXE_fig4")),
        ("fig5", env!("CARGO_BIN_EXE_fig5")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
        ("table4", env!("CARGO_BIN_EXE_table4")),
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ];
    for (bin, exe) in drivers {
        let output = Command::new(exe)
            .args(["--quick", "--scale", "tiny", "--model-in", missing])
            .output()
            .expect("spawn");
        assert_bin_failure(
            &output,
            bin,
            "--model-in `/nonexistent/napel/models` does not exist",
        );
        assert!(output.stdout.is_empty(), "{bin} printed before failing");
    }
}

#[test]
fn all_trains_and_saves_exactly_the_requested_applications() {
    // `all` passes the workload subset and the artifact policy on to every
    // experiment it runs: each training experiment saves one bundle per
    // requested application, and no other application is collected.
    let dir = scratch_dir("all");
    let output = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--quick", "--quiet", "--scale", "tiny", "--configs", "4"])
        .args(["--apps", "gemv,mvt", "--model-out"])
        .arg(&dir)
        .output()
        .expect("spawn all");
    assert!(output.status.success(), "{output:?}");
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("bundle dir")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    written.sort();
    let experiments = [
        "fig4",
        "table4",
        "fig7",
        "fig5-napel",
        "fig5-ann",
        "fig5-dtree",
    ];
    let mut expected: Vec<String> = experiments
        .iter()
        .flat_map(|e| ["gemv", "mvt"].map(|w| format!("{e}-{w}.napel")))
        .collect();
    expected.sort();
    assert_eq!(written, expected);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("suitability agreement") && stdout.contains("/2;"),
        "Figure 7 covers the two applications:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_bundle_file_is_a_one_line_failure() {
    let output = predict(&["--model-in", "/nonexistent/models/nope.napel"]);
    assert_one_line_failure(&output, "nope.napel");
}

#[test]
fn corrupt_bundle_is_a_one_line_failure() {
    let dir = scratch_dir("corrupt");
    let path = dir.join("garbage.napel");
    std::fs::write(&path, "not a model artifact at all\n").unwrap();
    let output = predict(&["--model-in", path.to_str().unwrap()]);
    assert_one_line_failure(&output, "garbage.napel");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_input_token_is_a_one_line_failure_naming_the_line() {
    let (bundle, _) = bundle();
    let dir = scratch_dir("badtoken");
    let input = dir.join("rows.txt");
    std::fs::write(&input, "# comment\n1.0 2.0 wat 4.0\n").unwrap();
    let output = predict(&[
        "--model-in",
        bundle.to_str().unwrap(),
        "--input",
        input.to_str().unwrap(),
    ]);
    assert_one_line_failure(&output, "`wat` is not a number");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(":2:"), "line number named: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_input_is_a_one_line_failure() {
    let (bundle, _) = bundle();
    let dir = scratch_dir("empty");
    let input = dir.join("rows.txt");
    std::fs::write(&input, "# nothing here\n\n").unwrap();
    let output = predict(&[
        "--model-in",
        bundle.to_str().unwrap(),
        "--input",
        input.to_str().unwrap(),
    ]);
    assert_one_line_failure(&output, "no feature rows");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_row_width_is_a_one_line_schema_failure() {
    let (bundle, nfeat) = bundle();
    let dir = scratch_dir("width");
    let input = dir.join("rows.txt");
    std::fs::write(&input, "1.0 2.0 3.0\n").unwrap();
    let output = predict(&[
        "--model-in",
        bundle.to_str().unwrap(),
        "--input",
        input.to_str().unwrap(),
    ]);
    assert_one_line_failure(&output, &format!("model expects {nfeat}"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_workload_is_a_one_line_failure_listing_the_options() {
    let (bundle, _) = bundle();
    let output = predict(&[
        "--model-in",
        bundle.to_str().unwrap(),
        "--workload",
        "frobnicate",
    ]);
    assert_one_line_failure(&output, "unknown workload `frobnicate`");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("atax"), "options listed: {stderr}");
}

#[test]
fn valid_rows_score_and_exit_zero() {
    let (bundle, nfeat) = bundle();
    let dir = scratch_dir("happy");
    let input = dir.join("rows.txt");
    let row: Vec<String> = (0..*nfeat).map(|i| format!("{}.5", i % 3)).collect();
    std::fs::write(&input, format!("# one row\n{}\n", row.join(" "))).unwrap();
    let output = predict(&[
        "--model-in",
        bundle.to_str().unwrap(),
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Predictions for 1 rows"), "{stdout}");
    assert!(stdout.contains("geo-sd"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

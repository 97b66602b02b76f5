//! The `serve` and `loadgen` binaries' error contract: a bad flag, an
//! unreadable input or an unwritable output exits with status 1 and one
//! `<bin>: ...` line on stderr — no panic, no backtrace.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("napel-serve-cli-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `bin` with `args` and stdin closed (a `serve` that got past its
/// flags would drain and exit instead of waiting).
fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("NAPEL_MODEL_DIR")
        .env_remove("NAPEL_TELEMETRY")
        .stdin(Stdio::null())
        .output()
        .expect("spawn")
}

/// Asserts exit 1 with exactly one `name: ...` stderr line containing
/// `needle`.
fn assert_one_line_failure(output: &Output, name: &str, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "expected exit 1: {output:?}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one diagnostic line, got:\n{stderr}");
    assert!(
        lines[0].starts_with(&format!("{name}: ")),
        "diagnostic must be prefixed: {stderr}"
    );
    assert!(lines[0].contains(needle), "`{needle}` not in: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "errors must not panic:\n{stderr}"
    );
}

#[test]
fn serve_bad_flags_are_one_line_failures() {
    let serve = env!("CARGO_BIN_EXE_serve");
    let cases: [(&[&str], &str); 3] = [
        (&["--frobnicate"], "unknown flag `--frobnicate`"),
        (
            &["--workers", "abc"],
            "--workers must be a non-negative integer, got `abc`",
        ),
        (&["--workers"], "--workers needs a count"),
    ];
    for (args, needle) in cases {
        assert_one_line_failure(&run(serve, args), "serve", needle);
    }
}

#[test]
fn loadgen_bad_flags_and_io_are_one_line_failures() {
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    let dir = scratch_dir("loadgen");
    let missing = dir.join("missing");
    let missing = missing.to_str().expect("utf-8 path");
    let report = dir.join("no-such-dir").join("report.json");
    let report = report.to_str().expect("utf-8 path");
    // Port 1 on loopback: nothing listens, so a connect is refused.
    let addr = "127.0.0.1:1";
    let cases: [(&[&str], &str); 6] = [
        (&["--frobnicate"], "unknown flag `--frobnicate`"),
        (&[], "missing --addr"),
        (
            &["--addr", addr, "--requests", "x"],
            "--requests must be a non-negative integer, got `x`",
        ),
        (
            &["--addr", addr, "--models", missing],
            "cannot read --models",
        ),
        (&["--addr", addr, "--out", report], "cannot write --out"),
        (&["--addr", addr, "--shutdown"], "cannot reach the server"),
    ];
    for (args, needle) in cases {
        assert_one_line_failure(&run(loadgen, args), "loadgen", needle);
    }
}

//! `obs` — convert a telemetry JSONL stream into a Perfetto-loadable
//! Chrome trace plus a self-time phase table.
//!
//! ```text
//! obs --in telemetry.jsonl [--trace-out trace.json] [--top N]
//! ```
//!
//! `--in` takes the JSONL a driver wrote with `--telemetry-out` (any of
//! the figure/table binaries, or `serve`). `--trace-out` writes Chrome
//! trace-event JSON — open it in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing`. The top-`N` (default 15) phases by self time
//! print to stdout either way; counts of the stream's other record
//! types go to stderr so the table stays machine-friendly. A bad flag,
//! an unreadable `--in` or a malformed stream exits with status 1 and
//! one `obs: <message>` line on stderr.

use napel_bench::{exit_with_error, obs};
use napel_telemetry::TelemetryReport;

struct Args {
    input: String,
    trace_out: Option<String>,
    top: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut input = None;
    let mut trace_out = None;
    let mut top = 15;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--in" => input = Some(value("a JSONL path")?),
            "--trace-out" => trace_out = Some(value("a path")?),
            "--top" => {
                top = value("a count")?
                    .parse()
                    .map_err(|_| "--top needs a positive count".to_string())?;
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (expected --in, --trace-out, --top)"
                ))
            }
        }
    }
    Ok(Args {
        input: input.ok_or("--in <telemetry.jsonl> is required")?,
        trace_out,
        top: top.max(1),
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read --in `{}`: {e}", args.input))?;
    let report = TelemetryReport::from_jsonl(&text)
        .map_err(|e| format!("`{}` is not a telemetry JSONL stream: {e}", args.input))?;
    eprintln!(
        "obs: {} span(s), {} counter(s), {} loghist(s) from {}",
        report.spans.len(),
        report.counters.len(),
        report.log_histograms.len(),
        args.input
    );

    let placed = obs::place_spans(&report);
    if let Some(path) = &args.trace_out {
        let trace = obs::chrome_trace(&placed);
        std::fs::write(path, &trace)
            .map_err(|e| format!("cannot write --trace-out `{path}`: {e}"))?;
        eprintln!(
            "obs: wrote {} trace event(s) to {path} (load in Perfetto or chrome://tracing)",
            placed.len()
        );
    }
    if placed.is_empty() {
        println!("no spans in the stream — nothing to place on a timeline");
    } else {
        print!("{}", obs::self_time_table(&placed, args.top));
    }
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        exit_with_error("obs", &message);
    }
}

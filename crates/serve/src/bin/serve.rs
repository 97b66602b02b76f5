//! `serve` — host trained `.napel` bundles over the line protocol.
//!
//! ```text
//! serve --models models [--addr 127.0.0.1:0] [--workers N]
//!       [--queue-cap N] [--max-conns N] [--read-deadline-ms N]
//!       [--compute-deadline-ms N] [--batch-max N] [--chaos]
//!       [--trace-sample N] [--trace-ring N]
//!       [--metrics-out PATH] [--metrics-interval-ms N]
//!       [--telemetry-out PATH] [--quiet]
//! ```
//!
//! Prints `napel-serve listening on <addr>` (with the resolved port) on
//! stdout once reachable — drivers wait for that line. Runs until either
//! a client sends `shutdown` or stdin closes (the driver-friendly
//! shutdown path: run the server with its stdin on a pipe and close the
//! pipe to drain), then drains cleanly and exits 0. A final counter
//! summary goes to stderr.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use napel_serve::{Server, ServerConfig};

struct Args {
    cfg: ServerConfig,
    telemetry_out: Option<String>,
    metrics_out: Option<String>,
    metrics_interval: Duration,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut cfg = ServerConfig::default();
    if let Some(dir) = std::env::var_os("NAPEL_MODEL_DIR") {
        cfg.model_dir = dir.into();
    }
    let mut telemetry_out = std::env::var("NAPEL_TELEMETRY").ok();
    let mut metrics_out = None;
    let mut metrics_interval = Duration::from_millis(1_000);
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--models" => cfg.model_dir = value("a directory")?.into(),
            "--addr" => cfg.addr = value("host:port")?,
            "--workers" => cfg.workers = parse_num(&arg, &value("a count")?)?,
            "--queue-cap" => cfg.queue_capacity = parse_num(&arg, &value("a count")?)?,
            "--max-conns" => cfg.max_connections = parse_num(&arg, &value("a count")?)?,
            "--read-deadline-ms" => {
                cfg.read_deadline = Duration::from_millis(parse_num(&arg, &value("millis")?)?);
            }
            "--compute-deadline-ms" => {
                cfg.worker.compute_deadline =
                    Duration::from_millis(parse_num(&arg, &value("millis")?)?);
            }
            "--batch-max" => cfg.worker.batch_max = parse_num(&arg, &value("a count")?)?,
            "--chaos" => cfg.chaos = true,
            "--trace-sample" => cfg.trace_sample = parse_num(&arg, &value("a count")?)?,
            "--trace-ring" => cfg.trace_ring = parse_num(&arg, &value("a count")?)?,
            "--metrics-out" => metrics_out = Some(value("a path")?),
            "--metrics-interval-ms" => {
                metrics_interval = Duration::from_millis(parse_num(&arg, &value("millis")?)?);
            }
            "--telemetry-out" => telemetry_out = Some(value("a path")?),
            "--quiet" => quiet = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        cfg,
        telemetry_out,
        metrics_out,
        metrics_interval: metrics_interval.max(Duration::from_millis(10)),
        quiet,
    })
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} must be a non-negative integer, got `{raw}`"))
}

/// Prints `serve: <message>` as the one diagnostic line and exits 1.
fn fail(message: &str) -> ! {
    eprintln!("serve: {message}");
    std::process::exit(1)
}

/// Writes the exposition atomically (write + rename), so a scraper
/// reading the file never sees a half-written snapshot.
fn write_metrics_snapshot(path: &str, text: &str) {
    let tmp = format!("{path}.tmp");
    let ok = std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, path).is_ok();
    if !ok {
        eprintln!("serve: metrics snapshot `{path}` write failed");
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    if args.quiet {
        napel_telemetry::log::set_max_level(Some(napel_telemetry::log::Level::Error));
    }
    if args.telemetry_out.is_some() {
        napel_telemetry::install(napel_telemetry::Telemetry::enabled());
    }
    if !args.cfg.model_dir.is_dir() {
        fail(&format!(
            "model directory `{}` does not exist (train bundles first, e.g. \
             `fig4 --model-out {0}`)",
            args.cfg.model_dir.display()
        ));
    }

    let server = Server::start(args.cfg.clone())
        .unwrap_or_else(|e| fail(&format!("cannot bind {}: {e}", args.cfg.addr)));
    println!("napel-serve listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    napel_telemetry::info!(
        "serving `{}` with {} max queued/shard, chaos {}",
        args.cfg.model_dir.display(),
        args.cfg.queue_capacity,
        if args.cfg.chaos { "on" } else { "off" }
    );

    // Stdin closing is the local shutdown signal: a driver holds our
    // stdin on a pipe and closes it (or writes `shutdown`) to drain.
    let stdin_closed = Arc::new(AtomicBool::new(false));
    {
        let stdin_closed = Arc::clone(&stdin_closed);
        std::thread::Builder::new()
            .name("napel-serve-stdin".to_string())
            .spawn(move || {
                for line in std::io::stdin().lock().lines() {
                    match line {
                        Ok(l) if l.trim() == "shutdown" => break,
                        Ok(_) => continue,
                        Err(_) => break,
                    }
                }
                stdin_closed.store(true, Ordering::SeqCst);
            })
            .expect("stdin watcher spawn");
    }

    let mut next_snapshot = std::time::Instant::now();
    while !server.shutdown_requested() && !stdin_closed.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        if args.metrics_out.is_some() && std::time::Instant::now() >= next_snapshot {
            write_metrics_snapshot(args.metrics_out.as_deref().unwrap(), &server.prometheus());
            next_snapshot += args.metrics_interval;
        }
    }
    // One final snapshot so the file reflects the complete run.
    if let Some(path) = &args.metrics_out {
        write_metrics_snapshot(path, &server.prometheus());
    }
    napel_telemetry::info!("serve: draining...");
    let stats = server.drain();
    eprintln!("serve: drained; {}", stats.render());

    if let Some(path) = &args.telemetry_out {
        let report = napel_telemetry::global().drain();
        if let Err(e) = std::fs::write(path, report.to_jsonl()) {
            eprintln!("serve: telemetry output `{path}` write failed: {e}");
        }
    }
}

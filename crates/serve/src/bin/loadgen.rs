//! `loadgen` — drive a running `serve` instance with mixed workloads and
//! verify the server's robustness contract from the outside.
//!
//! ```text
//! loadgen --addr HOST:PORT --models DIR [--mode steady|overload|chaos]
//!         [--clients 1,4,16] [--requests N] [--window N] [--seed N]
//!         [--stall-ms N] [--slow-ms N] [--out report.json] [--strict]
//! loadgen --addr HOST:PORT --shutdown
//! ```
//!
//! Modes:
//!
//! - `steady` — every client streams pipelined `predict` requests across
//!   all discovered models.
//! - `overload` — clients first wedge the worker shards with `stall`
//!   requests, then flood predicts at roughly twice the queue capacity;
//!   the server is expected to *shed* (typed `err ... shed`), not slow
//!   down or lose requests. Needs a server started with `--chaos`.
//! - `chaos` — clients take hostile roles by index: panic injectors,
//!   garbage-byte senders, slow-loris partial-line writers, plus normal
//!   traffic. Needs a server started with `--chaos`.
//!
//! The invariant checked in every mode (`--strict` turns violations into
//! a nonzero exit): **no lost acknowledged requests** — every request a
//! well-behaved client manages to send receives exactly one typed
//! response (`ok`, `shed`, `deadline`, `internal`...), even while
//! workers panic and restart around it. Hostile connections the server
//! kills are tallied as `aborted`, which is their job.
//!
//! Per `--clients` level, the report records counts, latency
//! percentiles, and throughput; `--out` writes the whole thing as JSON.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use napel_serve::protocol::{payload_field, predict_payload};
use napel_serve::{Response, ServeClient};
use napel_telemetry::json::write_string;
use napel_telemetry::LogHistogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone)]
struct Args {
    addr: SocketAddr,
    models: std::path::PathBuf,
    mode: String,
    clients: Vec<usize>,
    requests: usize,
    window: usize,
    seed: u64,
    stall_ms: u64,
    slow_ms: u64,
    out: Option<String>,
    strict: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut models = std::path::PathBuf::from("models");
    let mut mode = "steady".to_string();
    let mut clients = vec![1, 4, 16];
    let mut requests = 100;
    let mut window = 32;
    let mut seed = 25019;
    let mut stall_ms = 400;
    let mut slow_ms = 3000;
    let mut out = None;
    let mut strict = false;
    let mut shutdown = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--addr" => {
                let raw = value("host:port")?;
                addr = Some(
                    raw.to_socket_addrs()
                        .map_err(|e| format!("--addr `{raw}`: {e}"))?
                        .next()
                        .ok_or_else(|| format!("--addr `{raw}` resolves to nothing"))?,
                );
            }
            "--models" => models = value("a directory")?.into(),
            "--mode" => mode = value("steady|overload|chaos")?,
            "--clients" => {
                clients = value("a comma-separated list")?
                    .split(',')
                    .map(|t| parse_num(&arg, t.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--requests" => requests = parse_num(&arg, &value("a count")?)?,
            "--window" => window = parse_num(&arg, &value("a count")?)?,
            "--seed" => seed = parse_num(&arg, &value("a number")?)?,
            "--stall-ms" => stall_ms = parse_num(&arg, &value("millis")?)?,
            "--slow-ms" => slow_ms = parse_num(&arg, &value("millis")?)?,
            "--out" => out = Some(value("a path")?),
            "--strict" => strict = true,
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !matches!(mode.as_str(), "steady" | "overload" | "chaos") {
        return Err(format!("unknown --mode `{mode}`"));
    }
    Ok(Args {
        addr: addr.ok_or("missing --addr HOST:PORT")?,
        models,
        mode,
        clients,
        requests: requests.max(1),
        window: window.max(1),
        seed,
        stall_ms,
        slow_ms,
        out,
        strict,
        shutdown,
    })
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} must be a non-negative integer, got `{raw}`"))
}

/// What one client observed.
#[derive(Default)]
struct ClientOutcome {
    sent: u64,
    ok: u64,
    errors: BTreeMap<String, u64>,
    /// Requests a well-behaved client sent but never got answered.
    lost: u64,
    /// Requests unanswered because the server closed a (deliberately
    /// hostile) connection — expected, not lost.
    aborted: u64,
    /// `ok` response latencies in microseconds. A log-bucketed histogram
    /// instead of a raw Vec: constant memory however many requests a
    /// level sends, mergeable across clients, and quantiles within a
    /// documented relative-error bound.
    latency_us: LogHistogram,
    /// The hostile role saw the defense it was probing for.
    probe_verified: bool,
    role: &'static str,
}

impl ClientOutcome {
    fn account(&mut self, outstanding: &mut HashMap<String, Instant>, response: &Response) {
        if let Some(t0) = outstanding.remove(response.id()) {
            match response {
                Response::Ok { .. } => {
                    self.ok += 1;
                    self.latency_us.observe(t0.elapsed().as_secs_f64() * 1e6);
                }
                Response::Err { kind, .. } => {
                    *self.errors.entry(kind.token().to_string()).or_insert(0) += 1;
                }
            }
        }
    }
}

fn sample_row(rng: &mut StdRng, nfeat: usize) -> String {
    let mut row = String::with_capacity(nfeat * 8);
    for _ in 0..nfeat {
        let v: f64 = rng.gen_range(0.1..4.0);
        row.push_str(&format!(" {v:.4}"));
    }
    row
}

/// A well-behaved client: pipelined predicts (or the occasional chaos
/// request when `panic_every` / `stall_head` say so), full response
/// accounting, clean quit.
#[allow(clippy::too_many_arguments)]
fn run_normal_client(
    args: &Args,
    ci: usize,
    keys: &[String],
    nfeat: usize,
    panic_every: usize,
    stall_head: usize,
    role: &'static str,
) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        role,
        probe_verified: true,
        ..ClientOutcome::default()
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ (ci as u64).wrapping_mul(0x9e37_79b9));
    let Ok(mut client) = ServeClient::connect(args.addr, CONNECT_TIMEOUT) else {
        outcome.lost = args.requests as u64;
        return outcome;
    };
    let mut outstanding: HashMap<String, Instant> = HashMap::new();

    // Overload fuel: wedge workers before the flood.
    for s in 0..stall_head {
        let id = format!("c{ci}s{s}");
        if client
            .send_line(&format!("stall {id} {}", args.stall_ms))
            .is_err()
        {
            break;
        }
        outstanding.insert(id, Instant::now());
        outcome.sent += 1;
    }

    for i in 0..args.requests {
        let id = format!("c{ci}r{i}");
        let line = if panic_every > 0 && i % panic_every == panic_every - 1 {
            format!("panic {id}")
        } else {
            let key = &keys[(ci + i) % keys.len()];
            format!("predict {id} {key}{}", sample_row(&mut rng, nfeat))
        };
        if client.send_line(&line).is_err() {
            outcome.lost += 1 + drain_outstanding(&mut client, &mut outstanding, &mut outcome);
            return outcome;
        }
        outstanding.insert(id, Instant::now());
        outcome.sent += 1;
        while outstanding.len() >= args.window {
            match client.read_response() {
                Ok(Some(response)) => outcome.account(&mut outstanding, &response),
                _ => {
                    outcome.lost += outstanding.len() as u64;
                    return outcome;
                }
            }
        }
    }
    outcome.lost += drain_outstanding(&mut client, &mut outstanding, &mut outcome);
    let _ = client.send_line("quit");
    outcome
}

/// Reads until every outstanding id is answered; returns how many never
/// were.
fn drain_outstanding(
    client: &mut ServeClient,
    outstanding: &mut HashMap<String, Instant>,
    outcome: &mut ClientOutcome,
) -> u64 {
    while !outstanding.is_empty() {
        match client.read_response() {
            Ok(Some(response)) => outcome.account(outstanding, &response),
            _ => return outstanding.len() as u64,
        }
    }
    0
}

/// Garbage-byte client: after one honest request, streams non-UTF-8
/// bytes and a bogus command. The server must answer with a typed
/// protocol error and close; the worker shards must not notice.
fn run_garbage_client(args: &Args, ci: usize, keys: &[String], nfeat: usize) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        role: "garbage",
        ..ClientOutcome::default()
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ (ci as u64) ^ 0xdead);
    let Ok(mut client) = ServeClient::connect(args.addr, CONNECT_TIMEOUT) else {
        return outcome;
    };
    let mut outstanding = HashMap::new();
    let id = format!("c{ci}honest");
    let key = &keys[ci % keys.len()];
    if client
        .send_line(&format!(
            "predict {id} {key}{}",
            sample_row(&mut rng, nfeat)
        ))
        .is_ok()
    {
        outstanding.insert(id, Instant::now());
        outcome.sent += 1;
    }
    outcome.lost += drain_outstanding(&mut client, &mut outstanding, &mut outcome);
    // Now turn hostile.
    let _ = client.stream().try_clone().map(|mut raw| {
        let _ = raw.write_all(b"\xff\xfe\x00 utter garbage\n");
    });
    loop {
        match client.read_response() {
            Ok(Some(Response::Err { .. })) => {
                outcome.probe_verified = true; // typed error before the close
            }
            Ok(Some(Response::Ok { .. })) => continue,
            Ok(None) => break, // closed on us, as designed
            Err(_) => break,
        }
    }
    outcome
}

/// Slow-loris client: sends a partial line and stalls past the server's
/// read deadline. The server must cut the connection loose (after a
/// typed deadline notice), freeing its reader thread.
fn run_slow_client(args: &Args) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        role: "slow",
        ..ClientOutcome::default()
    };
    let Ok(mut client) = ServeClient::connect(args.addr, CONNECT_TIMEOUT) else {
        return outcome;
    };
    // A dribble with no newline: never completes into a request.
    let _ = client.stream().try_clone().map(|mut raw| {
        let _ = raw.write_all(b"predict slow1 some-model 1.0 2.0");
    });
    std::thread::sleep(Duration::from_millis(args.slow_ms));
    loop {
        match client.read_response() {
            Ok(Some(Response::Err { .. })) => outcome.probe_verified = true,
            Ok(Some(Response::Ok { .. })) => continue,
            Ok(None) | Err(_) => break,
        }
    }
    outcome
}

/// One load level: `clients` concurrent connections, aggregated.
fn run_level(args: &Args, clients: usize, keys: &[String], nfeat: usize) -> LevelReport {
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                scope.spawn(move || match args.mode.as_str() {
                    "steady" => run_normal_client(args, ci, keys, nfeat, 0, 0, "steady"),
                    "overload" => run_normal_client(args, ci, keys, nfeat, 0, 2, "overload"),
                    "chaos" => match ci % 4 {
                        1 => run_normal_client(args, ci, keys, nfeat, 10, 0, "panic"),
                        2 => run_garbage_client(args, ci, keys, nfeat),
                        3 => run_slow_client(args),
                        _ => run_normal_client(args, ci, keys, nfeat, 0, 0, "steady"),
                    },
                    _ => unreachable!("mode validated at parse"),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();

    let mut report = LevelReport {
        clients,
        wall_ms: wall.as_millis() as u64,
        ..LevelReport::default()
    };
    let mut latency = LogHistogram::new();
    for outcome in &outcomes {
        if outcome.lost > 0 {
            eprintln!(
                "loadgen: {} client lost {} response(s)",
                outcome.role, outcome.lost
            );
        }
        report.sent += outcome.sent;
        report.ok += outcome.ok;
        report.lost += outcome.lost;
        report.aborted += outcome.aborted;
        if !outcome.probe_verified {
            report.unverified_probes += 1;
        }
        for (kind, n) in &outcome.errors {
            *report.errors.entry(kind.clone()).or_insert(0) += n;
        }
        latency.merge(&outcome.latency_us);
    }
    report.p50_us = latency.quantile(0.5).round() as u64;
    report.p99_us = latency.quantile(0.99).round() as u64;
    report.throughput_rps = if wall.as_secs_f64() > 0.0 {
        report.ok as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    report
}

#[derive(Default)]
struct LevelReport {
    clients: usize,
    sent: u64,
    ok: u64,
    errors: BTreeMap<String, u64>,
    lost: u64,
    aborted: u64,
    unverified_probes: u64,
    p50_us: u64,
    p99_us: u64,
    throughput_rps: f64,
    wall_ms: u64,
}

impl LevelReport {
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"clients\":{},\"sent\":{},\"ok\":{},\"errors\":{{",
            self.clients, self.sent, self.ok
        );
        for (i, (kind, n)) in self.errors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_string(&mut s, kind);
            let _ = write!(s, ":{n}");
        }
        let _ = write!(
            s,
            "}},\"lost\":{},\"aborted\":{},\"unverified_probes\":{},\"p50_us\":{},\
             \"p99_us\":{},\"throughput_rps\":{:.1},\"wall_ms\":{}}}",
            self.lost,
            self.aborted,
            self.unverified_probes,
            self.p50_us,
            self.p99_us,
            self.throughput_rps,
            self.wall_ms,
        );
        s
    }

    fn summary(&self) -> String {
        let errs: u64 = self.errors.values().sum();
        format!(
            "clients={:<3} sent={:<6} ok={:<6} err={:<5} lost={} aborted={} \
             p50={}us p99={}us {:.0} req/s",
            self.clients,
            self.sent,
            self.ok,
            errs,
            self.lost,
            self.aborted,
            self.p50_us,
            self.p99_us,
            self.throughput_rps,
        )
    }
}

/// Discovers model keys (bundle stems) and the feature-row width.
fn discover_models(dir: &std::path::Path) -> Result<(Vec<String>, usize), String> {
    let mut keys: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read --models `{}`: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let path = entry.path();
            (path.extension().and_then(|e| e.to_str()) == Some("napel"))
                .then(|| path.file_stem()?.to_str().map(str::to_string))
                .flatten()
        })
        .collect();
    keys.sort();
    if keys.is_empty() {
        return Err(format!(
            "no .napel bundles under `{}` — train some first (fig4 --model-out)",
            dir.display()
        ));
    }
    let first = dir.join(format!("{}.napel", keys[0]));
    let model = napel_core::model::TrainedNapel::load(&first)
        .map_err(|e| format!("cannot decode `{}`: {e}", first.display()))?;
    Ok((keys, model.feature_names().len()))
}

fn send_shutdown(addr: SocketAddr) -> Result<(), String> {
    let mut client = ServeClient::connect(addr, CONNECT_TIMEOUT)
        .map_err(|e| format!("cannot reach the server at {addr}: {e}"))?;
    let response = client
        .request("shutdown sd1")
        .map_err(|e| format!("shutdown request failed: {e}"))?;
    if !response.is_ok() {
        return Err(format!("shutdown refused: {}", response.render()));
    }
    // The drain closes our connection; EOF confirms it completed.
    while let Ok(Some(_)) = client.read_response() {}
    println!("loadgen: server acknowledged shutdown and drained");
    Ok(())
}

fn fetch_server_stats(addr: SocketAddr) -> Option<String> {
    let mut client = ServeClient::connect(addr, CONNECT_TIMEOUT).ok()?;
    let response = client.request("stats st1").ok()?;
    let _ = client.send_line("quit");
    match response {
        Response::Ok { payload, .. } => Some(payload),
        Response::Err { .. } => None,
    }
}

/// Checks one predict end to end before unleashing threads.
fn probe_schema(args: &Args, key: &str, nfeat: usize) -> Result<(), String> {
    let mut client = ServeClient::connect(args.addr, CONNECT_TIMEOUT)
        .map_err(|e| format!("cannot reach the server at {}: {e}", args.addr))?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let probe = client
        .request(&format!("predict p0 {key}{}", sample_row(&mut rng, nfeat)))
        .map_err(|e| format!("probe request failed: {e}"))?;
    let _ = client.send_line("quit");
    match &probe {
        Response::Ok { payload, .. } if payload_field(payload, "ipc").is_none() => Err(format!(
            "probe payload lacks ipc: {payload} (expected shape: {})",
            predict_payload(0.0, 0.0, 1.0)
        )),
        Response::Ok { .. } => Ok(()),
        Response::Err { .. } => Err(format!("probe predict failed: {}", probe.render())),
    }
}

fn main() {
    if let Err(e) = parse_args().and_then(run) {
        eprintln!("loadgen: {e}");
        std::process::exit(1);
    }
}

fn run(args: Args) -> Result<(), String> {
    if args.shutdown {
        return send_shutdown(args.addr);
    }
    // Fail before any traffic if the report cannot be written.
    let out = match &args.out {
        Some(path) => Some(
            std::fs::File::create(path).map_err(|e| format!("cannot write --out `{path}`: {e}"))?,
        ),
        None => None,
    };
    let (keys, nfeat) = discover_models(&args.models)?;
    eprintln!(
        "loadgen: {} model(s) [{}], {} features/row, mode {}",
        keys.len(),
        keys.join(" "),
        nfeat,
        args.mode
    );
    probe_schema(&args, &keys[0], nfeat)?;

    let mut levels = Vec::new();
    let mut violations = 0u64;
    for &clients in &args.clients {
        let level = run_level(&args, clients, &keys, nfeat);
        println!("loadgen: {}", level.summary());
        violations += level.lost + level.unverified_probes;
        levels.push(level);
    }
    let server_stats = fetch_server_stats(args.addr);
    if let Some(stats) = &server_stats {
        eprintln!("loadgen: server stats: {stats}");
    }

    if let (Some(mut file), Some(path)) = (out, &args.out) {
        let runs = levels
            .iter()
            .map(LevelReport::to_json)
            .collect::<Vec<_>>()
            .join(",");
        let mut json = String::from("{\"mode\":");
        write_string(&mut json, &args.mode);
        let _ = write!(
            json,
            ",\"seed\":{},\"requests_per_client\":{},\"server_stats\":",
            args.seed, args.requests
        );
        match &server_stats {
            Some(stats) => write_string(&mut json, stats),
            None => json.push_str("null"),
        }
        let _ = writeln!(json, ",\"runs\":[{runs}]}}");
        file.write_all(json.as_bytes())
            .map_err(|e| format!("cannot write --out `{path}`: {e}"))?;
        eprintln!("loadgen: report written to {path}");
    }

    if args.strict && violations > 0 {
        return Err(format!(
            "STRICT FAILURE — {violations} lost request(s)/unverified probe(s)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use napel_telemetry::RELATIVE_ERROR_BOUND;

    /// Exact nearest-rank percentile over a sorted sample — the
    /// implementation the report used before migrating to
    /// [`LogHistogram`], kept as the differential oracle.
    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn histogram_percentiles_track_the_exact_sorted_oracle() {
        // A latency-shaped sample: a dense body plus a heavy tail,
        // deterministic so the assertion is stable.
        let mut sample: Vec<u64> = Vec::new();
        let mut x: u64 = 25019;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let body = 50 + (x >> 33) % 2_000; // 50µs..2ms
            sample.push(body);
            if x.is_multiple_of(50) {
                sample.push(body * 100); // occasional 100× tail
            }
        }
        let mut h = LogHistogram::new();
        for &us in &sample {
            h.observe(us as f64);
        }
        sample.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_nearest_rank(&sample, q) as f64;
            let estimated = h.quantile(q);
            let rel = (estimated - exact).abs() / exact;
            assert!(
                rel <= RELATIVE_ERROR_BOUND,
                "q={q}: estimated {estimated} vs exact {exact} (rel err {rel:.5} > {RELATIVE_ERROR_BOUND})"
            );
        }
    }

    #[test]
    fn level_report_json_bytes_are_pinned() {
        let mut report = LevelReport {
            clients: 4,
            sent: 10,
            ok: 7,
            aborted: 1,
            p50_us: 120,
            p99_us: 900,
            throughput_rps: 1234.56,
            wall_ms: 8,
            ..LevelReport::default()
        };
        report.errors.insert("shed".to_string(), 2);
        report.errors.insert("deadline".to_string(), 1);
        assert_eq!(
            report.to_json(),
            r#"{"clients":4,"sent":10,"ok":7,"errors":{"deadline":1,"shed":2},"lost":0,"aborted":1,"unverified_probes":0,"p50_us":120,"p99_us":900,"throughput_rps":1234.6,"wall_ms":8}"#
        );
    }

    #[test]
    fn merged_client_histograms_match_one_big_histogram() {
        // run_level merges per-client histograms; the merge must be
        // indistinguishable from observing everything in one histogram.
        let mut parts: Vec<LogHistogram> = (0..4).map(|_| LogHistogram::new()).collect();
        let mut whole = LogHistogram::new();
        for i in 0..1_000u64 {
            let v = (i * 37 % 9_000 + 10) as f64;
            parts[(i % 4) as usize].observe(v);
            whole.observe(v);
        }
        let mut merged = LogHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole);
    }
}

//! The `serve` workload's rig: an in-process `napel-serve` server with one
//! worker shard and one `.napel` bundle, driven over one connection by a
//! closed-loop client with a fixed pipelining window.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use napel_core::features::TrainingSet;
use napel_core::model::TrainedNapel;
use napel_serve::protocol::{parse_request, payload_field};
use napel_serve::{Response, ServeClient, Server, ServerConfig, Stage};

use crate::pipeline;
use crate::spans::Tracer;
use crate::stats::{Digest, Rng};

/// Requests kept in flight on the connection: the client sends a new one
/// each time a response arrives (a closed loop). 32 is the window of the
/// repository's wire client, `loadgen` (its `--window` default, which its
/// steady and chaos modes run with).
pub const WINDOW: usize = 32;

/// Requests sent while setting up, before anything is timed.
const WARMUP: usize = 256;

/// Where set-up writes the bundle the server loads: a per-process
/// directory under the benchmark's own output directory.
fn bundle_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    PathBuf::from(crate::OUT_DIR).join(format!(
        "serve-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// What a stream of requests produced.
#[derive(Debug, Default)]
pub struct Stream {
    /// Client-observed latency of every `ok`, bit-matching response.
    pub latencies: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Non-`ok`, mismatching, unknown or never-answered responses.
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// Request id → (send instant, latency) of answered requests; kept
    /// only by a rig that traces every request.
    pub answered: HashMap<u64, (Instant, Duration)>,
}

/// A running server plus its connected client.
pub struct Rig {
    server: Option<Server>,
    client: ServeClient,
    dir: PathBuf,
    /// Request lines minus the id, in seeded row order.
    lines: Vec<String>,
    /// Expected (ipc, energy, spread) bits per line.
    expected: Vec<[u64; 3]>,
    next_id: u64,
    cursor: usize,
    /// Whether the server keeps every request's stage trace, and the
    /// stream every answered request's id.
    trace_all: bool,
}

impl Rig {
    /// Saves `model` as a bundle, loads it back as the reference model
    /// (traced as `core.artifact.load`), scores every training row with it
    /// in process, starts the server on an ephemeral local port, connects,
    /// and sends [`WARMUP`] requests. `trace_all` keeps every request's
    /// stage trace in the server's ring for the traced run.
    ///
    /// # Errors
    ///
    /// Bundle, server, connection, and warm-up failures.
    pub fn start(
        seed: u64,
        set: &TrainingSet,
        model: &TrainedNapel,
        tracer: Option<&mut Tracer>,
        trace_all: bool,
    ) -> Result<Rig, String> {
        let dir = bundle_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join("napel.napel");
        model.save(&path).map_err(|e| e.to_string())?;
        let load = || TrainedNapel::load(&path).map_err(|e| e.to_string());
        let reference = match tracer {
            None => load()?,
            Some(tracer) => tracer.span(0, "core.artifact.load", || (load(), 0))?,
        };
        let mut order: Vec<usize> = (0..set.runs.len()).collect();
        Rng::new(seed ^ 0x5E7E).shuffle(&mut order);
        let rows: Vec<Vec<f64>> = order
            .iter()
            .map(|&i| set.runs[i].features.clone())
            .collect();
        let expected = pipeline::predict(&reference, &rows, None)?
            .iter()
            .map(|(p, s)| [p.ipc.to_bits(), p.energy_per_inst_pj.to_bits(), s.to_bits()])
            .collect();
        let lines = rows
            .iter()
            .map(|row| {
                let values: Vec<String> = row.iter().map(f64::to_string).collect();
                format!("napel {}", values.join(" "))
            })
            .collect();
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            model_dir: dir.clone(),
            workers: 1,
            trace_sample: if trace_all { 1 } else { 64 },
            trace_ring: 1 << 14,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let client = ServeClient::connect(server.addr(), Duration::from_secs(30))
            .map_err(|e| format!("connect: {e}"));
        let mut rig = Rig {
            server: Some(server),
            client: client?,
            dir,
            lines,
            expected,
            next_id: 0,
            cursor: 0,
            trace_all,
        };
        let warm = rig.stream(|sent, _| sent < WARMUP as u64);
        if warm.failed > 0 {
            return Err(format!("warm-up: {}", warm.problems.join("; ")));
        }
        Ok(rig)
    }

    /// Runs the closed loop until `more(sent, elapsed)` says stop, then
    /// collects every outstanding response.
    pub fn stream(&mut self, mut more: impl FnMut(u64, Duration) -> bool) -> Stream {
        let mut out = Stream::default();
        let mut pending: HashMap<u64, (Instant, usize)> = HashMap::new();
        let start = Instant::now();
        let fail = |out: &mut Stream, what: String| {
            out.failed += 1;
            if out.problems.len() < 4 {
                out.problems.push(what);
            }
        };
        loop {
            while pending.len() < WINDOW && more(out.sent, start.elapsed()) {
                let (id, row) = (self.next_id, self.cursor);
                self.next_id += 1;
                self.cursor = (self.cursor + 1) % self.lines.len();
                let line = format!("predict {id} {}", self.lines[row]);
                if let Err(e) = self.client.send_line(&line) {
                    fail(&mut out, format!("send: {e}"));
                    break;
                }
                out.sent += 1;
                pending.insert(id, (Instant::now(), row));
            }
            if pending.is_empty() {
                return out;
            }
            let response = match self.client.read_response() {
                Ok(Some(r)) => r,
                Ok(None) => {
                    fail(
                        &mut out,
                        format!("connection closed, {} lost", pending.len()),
                    );
                    out.failed += pending.len() as u64 - 1;
                    return out;
                }
                Err(e) => {
                    fail(&mut out, format!("read: {e}, {} lost", pending.len()));
                    out.failed += pending.len() as u64 - 1;
                    return out;
                }
            };
            let now = Instant::now();
            let Some((sent_at, row)) = response
                .id()
                .parse()
                .ok()
                .and_then(|id| pending.remove(&id))
            else {
                fail(
                    &mut out,
                    format!("unknown response `{}`", response.render()),
                );
                continue;
            };
            match &response {
                Response::Ok { payload, .. } => {
                    let got = ["ipc", "energy_pj", "spread"]
                        .map(|k| payload_field(payload, k).map_or(u64::MAX, f64::to_bits));
                    if got == self.expected[row] {
                        let latency = now - sent_at;
                        out.latencies.push(latency.as_secs_f64());
                        if self.trace_all {
                            let id = response.id().parse().expect("matched a numeric id");
                            out.answered.insert(id, (sent_at, latency));
                        }
                    } else {
                        fail(
                            &mut out,
                            format!("response `{payload}` differs from predict_batch"),
                        );
                    }
                }
                Response::Err { .. } => fail(&mut out, response.render()),
            }
        }
    }

    /// Digest of the reference predictions every response must match.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        self.expected.iter().flatten().for_each(|&b| d.u64(b));
        d.value()
    }

    /// Times `parse_request` on every request line, as `serve.parse`
    /// spans of op 0 (the server's own `read_parse` stage includes it).
    pub fn time_parse(&self, tracer: &mut Tracer) -> Result<(), String> {
        for (i, line) in self.lines.iter().enumerate() {
            let line = format!("predict {i} {line}");
            tracer
                .span(0, "serve.parse", || (parse_request(&line, false), 1))
                .map_err(|e| format!("parse_request: {e}"))?;
        }
        Ok(())
    }

    /// Books the stage traces in the server's ring as `serve.<stage>`
    /// spans of the answered requests (op id = request id + 1), with their
    /// coverage. Traces of requests not in `stream` are dropped.
    pub fn book_traces(&self, tracer: &mut Tracer, stream: &Stream) {
        let hub = self.server.as_ref().expect("server running").hub();
        loop {
            let (_, traces) = hub.drain_traces(1024);
            if traces.is_empty() {
                return;
            }
            for t in traces {
                let Some(id) = t.request_id.parse::<u64>().ok() else {
                    continue;
                };
                let Some(&(sent_at, latency)) = stream.answered.get(&id) else {
                    continue;
                };
                let op = id + 1;
                let mut busy = Duration::ZERO;
                for (stage, &nanos) in Stage::ALL.iter().zip(&t.stage_nanos) {
                    let dur = Duration::from_nanos(nanos);
                    busy += dur;
                    tracer.record(op, stage_span(*stage), sent_at, dur, 1);
                }
                tracer.record(op, crate::spans::OP, sent_at, latency, 1);
                tracer.cover(busy, latency);
            }
        }
    }

    /// Reads the server's stage histograms and counters into `tracer`.
    pub fn read_hub(&self, tracer: &mut Tracer) {
        let server = self.server.as_ref().expect("server running");
        let stats = server.stats();
        let report = server.hub().report(&stats, 0);
        for stage in Stage::ALL {
            let name = format!("serve.stage_seconds.{}", stage.name());
            if let Some((_, h)) = report.log_histograms.iter().find(|(n, _)| *n == name) {
                tracer.set(stage_metric(stage), h.quantile(0.5) * 1e6);
            }
        }
        let batches = stats.batches.load(Ordering::Relaxed);
        let rows = stats.batch_rows.load(Ordering::Relaxed);
        tracer.set("serve.batch_rows_mean", rows as f64 / batches.max(1) as f64);
        tracer.set("serve.shed", stats.shed.load(Ordering::Relaxed) as f64);
        tracer.set(
            "serve.requests",
            stats.completed.load(Ordering::Relaxed) as f64,
        );
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = self.client.send_line("quit");
            server.drain();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Span name of a server stage.
fn stage_span(stage: Stage) -> &'static str {
    match stage {
        Stage::ReadParse => "serve.read_parse",
        Stage::Admission => "serve.admission",
        Stage::QueueWait => "serve.queue_wait",
        Stage::BatchAssembly => "serve.batch_assembly",
        Stage::Predict => "serve.predict",
        Stage::RespondFlush => "serve.respond_flush",
    }
}

/// Per-layer metric name of a server stage's median.
pub fn stage_metric(stage: Stage) -> &'static str {
    match stage {
        Stage::ReadParse => "serve.read_parse_us",
        Stage::Admission => "serve.admission_us",
        Stage::QueueWait => "serve.queue_wait_us",
        Stage::BatchAssembly => "serve.batch_assembly_us",
        Stage::Predict => "serve.predict_us",
        Stage::RespondFlush => "serve.respond_flush_us",
    }
}

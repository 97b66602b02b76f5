//! `pipebench` — the NAPEL pipeline benchmark.
//!
//! ```text
//! pipebench --workload campaign|analyze|train|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of one workload untraced;
//! `--trace 1` runs the same workload with spans around every call into
//! a layer and reports the per-layer metrics. Either way the last line
//! of standard output is one JSON object
//! (`{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`), the lines
//! before it name every metric with its unit and sample count, and the
//! exit code is 1 when an output check failed. `all` runs each workload
//! in its own child process. See `pipebench/README.md`.

mod calib;
mod host;
mod pipeline;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use napel_core::features::TrainingSet;
use napel_core::model::TrainedNapel;

use crate::calib::Reference;
use crate::spans::{Tracer, OP};
use crate::stats::{median, Rng};
use crate::workloads::{Analyze, Campaign, PassOut, PassWorkload, Train};

const USAGE: &str = "usage: pipebench --workload campaign|analyze|train|serve|all \
                     --seed N --seconds S --trace 0|1";

/// Where runs write their files (span logs, the served bundle): the
/// package's own `out/` directory.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Workloads a run may name.
const WORKLOADS: [&str; 4] = ["campaign", "analyze", "train", "serve"];

/// Workloads `all` runs, in order: the ones `BENCHMARK.json` gates.
/// `train` runs only when named (see the README's "Noise").
const GATED: [&str; 3] = ["campaign", "analyze", "serve"];

/// Passes an untraced timed phase runs at least, so that the check that
/// passes repeat exactly always compares two.
const MIN_PASSES: usize = 2;

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Requests in each of the traced run's two serve phases: as many as the
/// server's trace ring holds beside the warm-up requests.
const TRACED_REQUESTS: u64 = 16_000;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(bad()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric; a non-finite value is a failed check (and is
    /// printed as -1, since JSON has no NaN).
    fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The human-readable lines, then the JSON result line.
    fn print(&self, args: &Args) {
        println!(
            "pipebench workload={} seed={} seconds={} trace={} nproc={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host::nproc()
        );
        for note in &self.notes {
            println!("note {note}");
        }
        for m in &self.metrics {
            println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
        }
        for p in &self.problems {
            println!("problem {p}");
        }
        println!(
            "checks correct={} attempted={} failed={}",
            self.correct(),
            self.attempted,
            self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

/// Length of one timing sample of the serve stream, in seconds: the
/// client streams this long, collects every response, and times a
/// reference pass (see [`calib`]) before the next sample.
const SERVE_SAMPLE_S: f64 = 0.25;

/// One timing sample: the ops of one stretch of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    ops: usize,
    wall: f64,
    cpu: f64,
    /// Median latency of the sample's ops, in seconds.
    p50: f64,
    /// The stretch's midpoint, in seconds from the start of the phase.
    at: f64,
}

impl Sample {
    /// The sample with its times scaled by `k`.
    fn scaled(self, k: f64) -> Sample {
        Sample {
            wall: self.wall * k,
            cpu: self.cpu * k,
            p50: self.p50 * k,
            ..self
        }
    }
}

/// The ops of a timed phase and what the host did meanwhile.
#[derive(Debug, Default)]
struct Measured {
    /// Host-clock latency of every op, for the tail and the notes.
    latencies: Vec<f64>,
    /// Timing samples, scaled by the host-speed reference, in groups that
    /// repeat the same work: one group per item of a pass workload (one
    /// sample per pass), one group for the serve stream (one sample per
    /// [`SERVE_SAMPLE_S`]).
    groups: Vec<Vec<Sample>>,
    /// Reference passes timed and their median time.
    references: usize,
    reference_s: f64,
    /// Host-clock wall and CPU seconds of the whole timed phase.
    wall: f64,
    cpu: f64,
    steal: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    passes: Vec<PassOut>,
}

impl Measured {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 4 {
            self.problems.push(what);
        }
    }
}

/// Runs `phase` with a host-speed reference timed through it, reading the
/// phase's wall and CPU time and the machine's steal share around it;
/// then scales every sample by the reference around it.
fn host_timed(m: &mut Measured, phase: impl FnOnce(&mut Measured, &mut Reference)) {
    let ticks = host::machine_ticks();
    let (start, cpu) = (Instant::now(), host::cpu_seconds());
    let mut reference = Reference::new(start);
    reference.sample();
    phase(m, &mut reference);
    reference.sample();
    m.wall = start.elapsed().as_secs_f64();
    m.cpu = host::cpu_seconds() - cpu;
    m.steal = host::steal_share(ticks, host::machine_ticks());
    for s in m.groups.iter_mut().flatten() {
        *s = s.scaled(reference.scale_at(s.at).expect("sampled at the start"));
    }
    m.references = reference.len();
    m.reference_s = reference.overall().expect("sampled at the start");
}

/// A group's typical figures: the median wall seconds per op, median
/// latency and CPU seconds per op over its samples, each read on its own.
fn typical(group: &[Sample]) -> (f64, f64, f64) {
    let mid = |f: fn(&Sample) -> f64| median(&group.iter().map(f).collect::<Vec<_>>());
    (
        mid(|s| s.wall / s.ops as f64),
        mid(|s| s.p50),
        mid(|s| s.cpu / s.ops as f64),
    )
}

/// Whole passes over `order` until `seconds` have elapsed and at least
/// `min_passes` have run; every op is a timing sample of its item's group.
fn run_passes(
    w: &mut dyn PassWorkload,
    order: &[usize],
    seconds: f64,
    min_passes: usize,
) -> Measured {
    let mut m = Measured {
        groups: vec![Vec::new(); w.items()],
        ..Measured::default()
    };
    host_timed(&mut m, |m, reference| {
        let start = Instant::now();
        loop {
            for &i in order {
                reference.tick();
                m.attempted += 1;
                let (at, cpu) = (start.elapsed().as_secs_f64(), host::cpu_seconds());
                match w.op(i, None) {
                    Ok(t) => {
                        let wall = t.wall.as_secs_f64();
                        m.latencies.push(wall);
                        m.groups[i].push(Sample {
                            ops: 1,
                            wall,
                            cpu: host::cpu_seconds() - cpu,
                            p50: wall,
                            at: at + wall / 2.0,
                        });
                    }
                    Err(e) => m.fail(e),
                }
            }
            m.passes.push(w.end_pass());
            if m.passes.len() >= min_passes && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    });
    m
}

/// Samples of the serve stream until `seconds` have elapsed (at least
/// one): each streams for [`SERVE_SAMPLE_S`], collects every response,
/// and is followed by a reference pass, so the reference runs while the
/// server is idle.
fn run_stream(rig: &mut serve::Rig, seconds: f64) -> Measured {
    let mut m = Measured {
        groups: vec![Vec::new()],
        ..Measured::default()
    };
    host_timed(&mut m, |m, reference| {
        let start = Instant::now();
        loop {
            let (at, cpu) = (start.elapsed().as_secs_f64(), host::cpu_seconds());
            let s = rig.stream(|_, elapsed| elapsed.as_secs_f64() < SERVE_SAMPLE_S);
            let wall = start.elapsed().as_secs_f64() - at;
            let cpu = host::cpu_seconds() - cpu;
            m.attempted += s.sent;
            m.failed += s.failed;
            m.problems.extend(s.problems);
            if !s.latencies.is_empty() {
                let mut sorted = s.latencies.clone();
                sorted.sort_by(f64::total_cmp);
                m.groups[0].push(Sample {
                    ops: sorted.len(),
                    wall,
                    cpu,
                    p50: stats::quantile(&sorted, 0.5),
                    at: at + wall / 2.0,
                });
            }
            m.latencies.extend(s.latencies);
            reference.sample();
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    });
    m
}

/// Checks that at least two passes ran and that every pass produced
/// bit-identical outputs.
fn check_passes(report: &mut Report, passes: &[PassOut]) {
    let Some(first) = passes.first() else {
        return report.problem("no pass completed");
    };
    if passes.len() < 2 {
        report.problem("one pass completed: no second pass to compare its outputs with");
    }
    report.notes.push(format!(
        "outputs digest {:016x}, identical across {} passes: {}",
        first.digest,
        passes.len(),
        passes.iter().all(|p| p.digest == first.digest)
    ));
    for (name, v) in &first.exact {
        report.notes.push(format!("exact {name} {v}"));
    }
    for (k, p) in passes.iter().enumerate().skip(1) {
        let same_exact = p.exact.len() == first.exact.len()
            && p.exact
                .iter()
                .zip(&first.exact)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if p.digest != first.digest || !same_exact {
            report.problem(format!("pass {k} outputs differ from pass 0"));
        }
    }
}

/// The shared training set and the model trained on it.
fn train_shared(quick: bool) -> Result<(TrainingSet, TrainedNapel), String> {
    let set = pipeline::training_set(&pipeline::training_points(quick), None)?;
    let model = pipeline::train(&set)?;
    Ok((set, model))
}

/// Set-up of an untraced pass workload: returns it and a digest of what
/// set-up built.
fn setup_pass(workload: &str, quick: bool) -> Result<(Box<dyn PassWorkload>, u64), String> {
    Ok(match workload {
        "campaign" => {
            let c = Campaign::new(quick)?;
            let d = c.items() as u64;
            (Box::new(c), d)
        }
        "analyze" => {
            let (set, model) = train_shared(quick)?;
            (Box::new(Analyze::new(quick, model)?), set.content_hash())
        }
        _ => {
            let set = pipeline::training_set(&pipeline::training_points(quick), None)?;
            let hash = set.content_hash();
            (Box::new(Train::new(set)?), hash)
        }
    })
}

/// The seeded order items run in (the same for every pass).
fn item_order(seed: u64, items: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items).collect();
    Rng::new(seed ^ 0x0DE5).shuffle(&mut order);
    order
}

/// Untraced run: repeated set-up, then the timed phase; end-to-end
/// metrics.
fn untraced(args: &Args, quick: bool) -> Result<Report, String> {
    let mut report = Report::default();
    // (reference-clock, host-clock) seconds of every set-up.
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let m = if args.workload == "serve" {
        let mut rig = None;
        for _ in 0..SETUP_REPS {
            drop(rig.take());
            let (r, scaled, raw) = calib::bracketed(|| {
                let (set, model) = train_shared(quick)?;
                serve::Rig::start(args.seed, &set, &model, None, false)
            });
            let r = r?;
            setups.push((scaled, raw));
            digests.push(r.digest());
            rig = Some(r);
        }
        let mut rig = rig.expect("set up at least once");
        let m = run_stream(&mut rig, args.seconds);
        report.notes.push(format!(
            "closed loop, window {} over one connection, 1 worker shard; every \
             response bit-matches predict_batch (digest {:016x})",
            serve::WINDOW,
            rig.digest()
        ));
        m
    } else {
        let mut w = None;
        for _ in 0..SETUP_REPS {
            drop(w.take());
            let (built, scaled, raw) = calib::bracketed(|| setup_pass(&args.workload, quick));
            let (built, digest) = built?;
            setups.push((scaled, raw));
            digests.push(digest);
            w = Some(built);
        }
        let mut w = w.expect("set up at least once");
        report.notes.push(w.describe());
        let order = item_order(args.seed, w.items());
        let m = run_passes(w.as_mut(), &order, args.seconds, MIN_PASSES);
        check_passes(&mut report, &m.passes);
        m
    };
    if digests.iter().any(|&d| d != digests[0]) {
        report.problem("repeated set-ups built different inputs");
    }
    end_to_end(&mut report, &setups, m);
    Ok(report)
}

/// Fills the end-to-end metrics from a timed phase: each group's typical
/// figures, then throughput as groups over their summed seconds per op,
/// latency as the median over groups, CPU as their mean per op. All are
/// on the reference host's clock (see [`calib`]); the host-clock figures
/// are printed as notes.
fn end_to_end(report: &mut Report, setups: &[(f64, f64)], m: Measured) {
    report.attempted = m.attempted;
    report.failed = m.failed;
    report.problems.extend(m.problems);
    let ops = m.latencies.len();
    let figures: Vec<(f64, f64, f64)> = m
        .groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| typical(g))
        .collect();
    if ops == 0 || figures.is_empty() {
        return report.problem("no op completed");
    }
    let samples: usize = m.groups.iter().map(Vec::len).sum();
    let n = figures.len() as f64;
    let wall_per_op: f64 = figures.iter().map(|f| f.0).sum();
    let p50s: Vec<f64> = figures.iter().map(|f| f.1).collect();
    let cpu_per_op = figures.iter().map(|f| f.2).sum::<f64>() / n;
    let (scaled, raw): (Vec<f64>, Vec<f64>) = setups.iter().copied().unzip();
    report.metric("setup_s", median(&scaled), "s", setups.len());
    report.metric("throughput_per_s", n / wall_per_op, "1/s", samples);
    report.metric("latency_p50_ms", median(&p50s) * 1e3, "ms", samples);
    report.metric("cpu_ms_per_op", cpu_per_op * 1e3, "ms", samples);
    report.metric("peak_rss_mib", host::peak_rss_mib(), "MiB", 1);
    let mut sorted = m.latencies;
    sorted.sort_by(f64::total_cmp);
    match stats::tail(&sorted) {
        Some((p, v)) => report.notes.push(format!(
            "latency_tail_ms p{p} = {} ms on the host clock (n={ops}, {} beyond)",
            v * 1e3,
            stats::beyond(ops, f64::from(p) / 100.0)
        )),
        None => report.notes.push(format!(
            "latency_tail_ms omitted: {ops} samples leave fewer than 10 beyond p90"
        )),
    }
    report.notes.push(format!(
        "host clock: set-up {} s; timed {:.3} s, {:.3} s CPU, {ops} ops, {} /s, median op {} ms; \
         reference median {:.6} s over {} passes; host steal share {:.4} (diagnostic)",
        median(&raw),
        m.wall,
        m.cpu,
        ops as f64 / m.wall,
        stats::quantile(&sorted, 0.5) * 1e3,
        m.reference_s,
        m.references,
        m.steal
    ));
}

/// Traced run: the whole pipeline set up once with spans (so every layer
/// metric exists for every workload), then one untraced and one traced
/// pass of the workload's own ops; per-layer metrics.
fn traced(args: &Args, quick: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let points = pipeline::training_points(quick);
    let set = pipeline::training_set(&points, Some(&mut tracer))?;
    let (model, _) = pipeline::train_traced(&mut tracer, 0, &set)?;
    let rows: Vec<Vec<f64>> = set.runs.iter().map(|r| r.features.clone()).collect();
    pipeline::predict(&model, &rows, Some((&mut tracer, 0)))?;
    let mut rig = serve::Rig::start(args.seed, &set, &model, Some(&mut tracer), true)?;
    rig.time_parse(&mut tracer)?;

    let (untraced_lat, traced_lat) = if args.workload == "serve" {
        // The untraced phase runs on a server of its own at the default
        // 1-in-64 trace sample; the traced phase on `rig`, which keeps
        // every request's stage trace.
        let untraced = serve::Rig::start(args.seed, &set, &model, None, false)?
            .stream(|sent, _| sent < TRACED_REQUESTS);
        let traced = rig.stream(|sent, _| sent < TRACED_REQUESTS);
        rig.book_traces(&mut tracer, &traced);
        report.attempted = untraced.sent + traced.sent;
        report.failed = untraced.failed + traced.failed;
        report
            .problems
            .extend(untraced.problems.into_iter().chain(traced.problems));
        (untraced.latencies, traced.latencies)
    } else {
        let mut w: Box<dyn PassWorkload> = match args.workload.as_str() {
            "campaign" => Box::new(Campaign::new(quick)?),
            "analyze" => Box::new(Analyze::new(quick, model.clone())?),
            _ => Box::new(Train::new(set.clone())?),
        };
        report.notes.push(w.describe());
        let order = item_order(args.seed, w.items());
        let untraced = run_passes(w.as_mut(), &order, 0.0, 1);
        let mut traced = Measured::default();
        for (k, &i) in order.iter().enumerate() {
            let op = k as u64 + 1;
            traced.attempted += 1;
            let start = Instant::now();
            match w.op(i, Some((&mut tracer, op))) {
                Ok(t) => {
                    tracer.record(op, OP, start, t.wall, 1);
                    tracer.cover(t.busy, t.wall);
                    traced.latencies.push(t.wall.as_secs_f64());
                }
                Err(e) => traced.fail(e),
            }
        }
        let passes = [untraced.passes.as_slice(), &[w.end_pass()]].concat();
        check_passes(&mut report, &passes);
        report.attempted = untraced.attempted + traced.attempted;
        report.failed = untraced.failed + traced.failed;
        report
            .problems
            .extend(untraced.problems.into_iter().chain(traced.problems));
        (untraced.latencies, traced.latencies)
    };
    rig.read_hub(&mut tracer);
    drop(rig);
    if untraced_lat.is_empty() || traced_lat.is_empty() {
        report.problem("no op completed");
        return Ok(report);
    }
    layer_metrics(&mut report, &tracer, &untraced_lat, &traced_lat);
    let path = spans_path(args);
    match tracer.write_jsonl(&path) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report.problem(format!("writing {}: {e}", path.display())),
    }
    Ok(report)
}

/// The traced run's span log.
fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

/// Derives every per-layer metric from the traced run.
fn layer_metrics(report: &mut Report, tracer: &Tracer, untraced: &[f64], traced: &[f64]) {
    let timed = |report: &mut Report, metric: &str, span: &str| {
        let l = tracer.layer(span);
        if l.calls == 0 {
            report.problem(format!("layer span `{span}` was never recorded"));
        }
        report.metric(metric, l.per_call(), "s", l.calls as usize);
        l
    };
    let emit = timed(report, "workloads.emit_s", "workloads.emit");
    let n = emit.calls as usize;
    report.metric(
        "workloads.insts",
        emit.units as f64 / n.max(1) as f64,
        "count",
        n,
    );
    let observe = timed(report, "pisa.observe_s", "pisa.observe");
    report.metric(
        "pisa.observe_ns_per_inst",
        observe.seconds * 1e9 / observe.units.max(1) as f64,
        "ns",
        observe.calls as usize,
    );
    timed(report, "pisa.finish_s", "pisa.finish");
    let encode = timed(report, "ir.encode_s", "ir.encode");
    report.metric(
        "ir.encoded_bytes_per_inst",
        tracer.counter("ir.encoded_bytes") / encode.units.max(1) as f64,
        "B",
        encode.calls as usize,
    );
    timed(report, "ir.decode_s", "ir.decode");
    let sim = timed(report, "nmc_sim.run_s", "nmc_sim.run");
    report.metric("nmc_sim.insts_per_s", sim.rate(), "1/s", sim.calls as usize);
    report.metric(
        "nmc_sim.cycles",
        tracer.counter("nmc_sim.cycles"),
        "count",
        sim.calls as usize,
    );
    let other = timed(report, "core.campaign.other_s", "core.campaign.other");
    let lookups = tracer.counter("core.campaign.lookups");
    report.metric(
        "core.campaign.cache_hit_share",
        1.0 - tracer.counter("core.campaign.misses") / lookups.max(1.0),
        "ratio",
        other.calls as usize,
    );
    timed(report, "core.dataset_s", "core.dataset");
    let fit = timed(report, "ml.fit_s", "ml.fit");
    report.metric("ml.fit_trees_per_s", fit.rate(), "1/s", fit.calls as usize);
    let predict = timed(report, "ml.predict_s", "ml.predict");
    report.metric(
        "ml.predict_rows_per_s",
        predict.rate(),
        "1/s",
        predict.calls as usize,
    );
    let requests = tracer.counter("serve.requests") as usize;
    for stage in napel_serve::Stage::ALL {
        let name = serve::stage_metric(stage);
        report.metric(name, tracer.counter(name), "us", requests);
    }
    report.metric(
        "serve.batch_rows_mean",
        tracer.counter("serve.batch_rows_mean"),
        "count",
        requests,
    );
    report.metric(
        "serve.shed",
        tracer.counter("serve.shed"),
        "count",
        requests,
    );
    timed(report, "core.artifact.load_s", "core.artifact.load");
    report.metric("trace.coverage", tracer.coverage(), "ratio", traced.len());
    report.metric(
        "trace.overhead",
        spans::overhead(untraced, traced),
        "ratio",
        traced.len(),
    );
    let parse = tracer.layer("serve.parse");
    report.notes.push(format!(
        "parse_request {:.2} us per line over {} lines (inside serve.read_parse)",
        parse.per_call() * 1e6,
        parse.calls
    ));
}

/// Runs every gated workload in its own child process and prints a
/// combined result; returns the exit code.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pipebench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut combined = Report::default();
    for w in GATED {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                combined.problem(format!("{w}: {e}"));
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        for line in text.lines().filter(|l| !l.starts_with('{')) {
            println!("[{w}] {line}");
            let mut f = line.split_ascii_whitespace();
            match (f.next(), f.next(), f.next(), f.next(), f.next()) {
                (Some("metric"), Some(name), Some(value), Some(unit), Some(n)) => {
                    combined.metric(
                        &format!("{w}.{name}"),
                        value.parse().unwrap_or(f64::NAN),
                        unit,
                        n.trim_start_matches("n=").parse().unwrap_or(0),
                    );
                }
                (Some("checks"), ..) => {
                    let field = |k: &str| {
                        line.split_ascii_whitespace()
                            .find_map(|kv| kv.strip_prefix(k))
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0)
                    };
                    combined.attempted += field("attempted=");
                    combined.failed += field("failed=");
                }
                _ => {}
            }
        }
        if !out.status.success() {
            combined.problem(format!("{w} exited with {}", out.status));
        }
    }
    combined.print(args);
    if combined.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let started = Instant::now();
    // Every thread of the run shares one core: serve's client and server
    // threads take turns on it, leaving the other cores idle and less
    // exposed to the host stealing them, and the host-speed reference
    // (see `calib`) runs on the core the ops run on.
    let cores = host::nproc();
    let pinned = host::pin_to_one_cpu();
    let result = if args.trace {
        traced(&args, false)
    } else {
        untraced(&args, false)
    };
    match result {
        Ok(mut report) => {
            match pinned {
                Ok(cpu) => report
                    .notes
                    .push(format!("every thread pinned to CPU {cpu} of {cores}")),
                Err(e) => report.notes.push(format!("not pinned to one CPU: {e}")),
            }
            eprintln!(
                "pipebench: {} done in {:.1} s",
                args.workload,
                started.elapsed().as_secs_f64()
            );
            report.print(&args);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pipebench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 11,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn flags_parse_strictly() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(a.workload, "serve");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload train --seed x --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload train --seed 1 --seconds -1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload train --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload train --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload train --seed 1 --seconds 1 --trace")).is_err());
    }

    #[test]
    fn figures_are_scaled_medians_per_group() {
        let s = |ops, wall, cpu, p50| Sample {
            ops,
            wall,
            cpu,
            p50,
            at: 0.0,
        };
        // Each figure is the median of its own column, per op.
        let group = [s(2, 4.0, 2.0, 9.0), s(1, 1.0, 3.0, 1.0), s(4, 40.0, 4.0, 5.0)];
        assert_eq!(typical(&group), (2.0, 5.0, 1.0));
        let half = s(2, 4.0, 2.0, 9.0).scaled(0.5);
        assert_eq!(half, s(2, 2.0, 1.0, 4.5));
    }

    /// A minimal-length run of every workload, untraced and traced: every
    /// output check passes and every metric is present and finite.
    #[test]
    fn every_workload_smoke_runs() {
        for w in WORKLOADS {
            let report = untraced(&args(w, false), true).unwrap();
            assert!(report.correct(), "{w}: {:?}", report.problems);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "setup_s",
                    "throughput_per_s",
                    "latency_p50_ms",
                    "cpu_ms_per_op",
                    "peak_rss_mib"
                ],
                "{w}"
            );
            assert!(
                report
                    .metrics
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{w}"
            );

            let a = args(w, true);
            let report = traced(&a, true).unwrap();
            assert!(report.correct(), "{w} traced: {:?}", report.problems);
            assert_eq!(report.metrics.len(), 29, "{w}");
            assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{w}");
            let _ = std::fs::remove_file(spans_path(&a));
        }
    }
}

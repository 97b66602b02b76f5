//! Set-up shared by the workloads — CCD points, the small training set,
//! the trained model — and the traced variants of each step, which time
//! every layer a fused library call hides by replaying that layer alone on
//! the same input.

use std::hint::black_box;
use std::time::{Duration, Instant};

use napel_core::campaign::{run_supervised, Serial, SimJob};
use napel_core::collect::{arch_neighborhood, doe_points};
use napel_core::fault::CampaignOptions;
use napel_core::features::{combined_feature_names, combined_features_checked};
use napel_core::features::{CollectStats, LabeledRun, TrainingSet};
use napel_core::model::{Napel, NapelConfig, TrainedNapel};
use napel_ir::{CountingSink, EncodedTraceSink, MultiTrace, ThreadedTraceSink};
use napel_ml::log_space::LogOf;
use napel_ml::Estimator;
use napel_pisa::ProfileObserver;
use napel_telemetry::Telemetry;
use napel_workloads::{Scale, Workload};
use nmc_sim::{ArchConfig, NmcSystem, SimEngine};
use rand::SeedableRng;

use crate::spans::Tracer;

/// Every workload runs at the tiny scale.
pub fn scale() -> Scale {
    Scale::tiny()
}

/// One application input with its dynamic instruction count.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// The application.
    pub workload: Workload,
    /// Its input, in Table 2 parameter order.
    pub coords: Vec<f64>,
    /// Instructions the kernel emits for that input.
    pub insts: u64,
}

impl Point {
    /// A point, with its instruction count measured by emitting the
    /// kernel into a counting sink.
    pub fn new(workload: Workload, coords: Vec<f64>) -> Point {
        let mut sink = CountingSink::new();
        workload.generate_into(&coords, scale(), &mut sink);
        Point {
            workload,
            coords,
            insts: sink.total(),
        }
    }
}

/// The deduplicated CCD points of `w`, cheapest first (ties keep design
/// order).
pub fn ccd_points(w: Workload) -> Vec<Point> {
    let mut points: Vec<Point> = doe_points(&w.spec(), true)
        .into_iter()
        .map(|p| Point::new(w, p.coords().to_vec()))
        .collect();
    points.sort_by_key(|p| p.insts);
    points
}

/// The small training set's points: for every application, the two CCD
/// points at the terciles of its cheapest third by instruction count (the
/// single cheapest point when `quick`) — cheap to simulate, so set-up
/// stays a small share of a run. The set is the same for every seed, so
/// every seed trains on the same work.
pub fn training_points(quick: bool) -> Vec<Point> {
    let mut out = Vec::new();
    for w in Workload::ALL {
        let mut points = ccd_points(w);
        if quick {
            out.push(points.swap_remove(0));
            continue;
        }
        let third = points.len() / 3;
        out.push(points[third / 3].clone());
        out.push(points[2 * third / 3].clone());
    }
    out
}

/// The campaign jobs of `points` on `archs`, point-major.
fn jobs(points: &[&Point], archs: &[ArchConfig]) -> Vec<SimJob> {
    let mut jobs = Vec::with_capacity(points.len() * archs.len());
    for p in points {
        for arch in archs {
            jobs.push(SimJob {
                index: jobs.len(),
                workload: p.workload,
                coords: p.coords.clone(),
                arch: arch.clone(),
                scale: scale(),
            });
        }
    }
    jobs
}

/// Runs `points` × `archs` through the supervised campaign, requiring
/// every job to complete.
///
/// # Errors
///
/// A description of the campaign error or of the quarantined jobs.
pub fn campaign(points: &[&Point], archs: &[ArchConfig]) -> Result<Vec<LabeledRun>, String> {
    let jobs = jobs(points, archs);
    let (rows, report) = run_supervised(&Serial, &jobs, &CampaignOptions::quarantine())
        .map_err(|e| format!("campaign failed: {e}"))?;
    if !report.is_clean() || rows.len() != jobs.len() {
        return Err(format!(
            "{} of {} campaign jobs quarantined",
            report.quarantined.len(),
            jobs.len()
        ));
    }
    Ok(rows)
}

/// Feeds a materialized trace to a sink in kernel emission order
/// (thread-major).
fn feed(sink: &mut impl ThreadedTraceSink, trace: &MultiTrace) {
    sink.begin(trace.num_threads());
    for (t, lane) in trace.iter().enumerate() {
        for inst in lane.iter() {
            sink.record(t, *inst);
        }
    }
}

/// One campaign op, traced: the real `run_supervised` call for `point` on
/// `archs` (its wall clock and the profile cache's counters), then every
/// layer inside it replayed alone on the same input — emit, observe,
/// finish, encode, decode, and one simulation per architecture — with the
/// replayed profile and simulations checked bit-for-bit against the rows.
/// Returns the rows, the op's wall clock, and the layer time it accounts
/// for (the decode replay counts once per simulation, as the campaign
/// decodes once per simulation).
///
/// # Errors
///
/// Campaign failures and replay mismatches.
pub fn campaign_traced(
    tracer: &mut Tracer,
    engine: &mut SimEngine,
    op: u64,
    point: &Point,
    archs: &[ArchConfig],
) -> Result<(Vec<LabeledRun>, Duration, Duration), String> {
    let telemetry = Telemetry::enabled();
    napel_telemetry::install(telemetry.clone());
    let start = Instant::now();
    let rows = campaign(&[point], archs);
    let wall = start.elapsed();
    napel_telemetry::install(Telemetry::noop());
    let counters = telemetry.drain();
    tracer.record(op, "core.campaign.run", start, wall, archs.len() as u64);
    for (name, key) in [
        ("core.campaign.lookups", "campaign.profile_cache.lookups"),
        ("core.campaign.misses", "campaign.profile_cache.misses"),
    ] {
        tracer.count(name, counters.counter(key).unwrap_or(0) as f64);
    }
    let rows = rows?;

    let (w, coords) = (point.workload, point.coords.as_slice());
    let insts = tracer.span(op, "workloads.emit", || {
        let mut sink = CountingSink::new();
        w.generate_into(coords, scale(), &mut sink);
        (sink.total(), sink.total())
    });
    let mut trace = MultiTrace::default();
    w.generate_into(coords, scale(), &mut trace);
    let observer = tracer.span(op, "pisa.observe", || {
        let mut observer = ProfileObserver::new();
        feed(&mut observer, &trace);
        (observer, insts)
    });
    let profile = tracer.span(op, "pisa.finish", || (observer.finish(), 0));
    let encoded = tracer.span(op, "ir.encode", || {
        let mut sink = EncodedTraceSink::new();
        feed(&mut sink, &trace);
        (sink.finish(), insts)
    });
    tracer.count("ir.encoded_bytes", encoded.encoded_bytes() as f64);
    let decoded = tracer.span(op, "ir.decode", || {
        let (mut n, mut pcs) = (0u64, 0u32);
        for lane in encoded.thread_iters() {
            for inst in lane {
                n += 1;
                pcs ^= inst.pc;
            }
        }
        black_box(pcs);
        (n, n)
    });
    if decoded != insts {
        return Err(format!("{w}: decoded {decoded} of {insts} instructions"));
    }
    for (arch, row) in archs.iter().zip(&rows) {
        let features = combined_features_checked(&profile, arch).map_err(|e| e.to_string())?;
        if !bits_equal(&features, &row.features) {
            return Err(format!(
                "{w}: replayed profile differs from the campaign row"
            ));
        }
        let system = NmcSystem::new(arch.clone());
        let report = tracer.span(op, "nmc_sim.run", || {
            let streams = trace.iter().map(|t| t.insts().iter().copied()).collect();
            (engine.run_streams(&system, streams), insts)
        });
        tracer.count("nmc_sim.cycles", report.cycles as f64);
        if report.ipc().to_bits() != row.ipc.to_bits() {
            return Err(format!(
                "{w}: replayed simulation differs from the campaign row"
            ));
        }
    }
    let layer = |name| Duration::from_secs_f64(tracer.op_seconds(op, name));
    let busy = layer("workloads.emit")
        + layer("pisa.observe")
        + layer("pisa.finish")
        + layer("ir.encode")
        + layer("ir.decode") * archs.len() as u32
        + layer("nmc_sim.run");
    tracer.record(
        op,
        "core.campaign.other",
        start,
        wall.saturating_sub(busy),
        0,
    );
    Ok((rows, wall, busy))
}

/// Whether two float vectors are bit-identical.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Collects the training set of `points` on the six architectures: one
/// supervised campaign batch, or — traced — one traced op per point.
///
/// # Errors
///
/// Campaign failures and replay mismatches.
pub fn training_set(points: &[Point], tracer: Option<&mut Tracer>) -> Result<TrainingSet, String> {
    let archs = arch_neighborhood();
    let runs = match tracer {
        None => campaign(&points.iter().collect::<Vec<_>>(), &archs)?,
        Some(tracer) => {
            let mut engine = SimEngine::new();
            let mut runs = Vec::new();
            for p in points {
                runs.extend(campaign_traced(tracer, &mut engine, 0, p, &archs)?.0);
            }
            runs
        }
    };
    Ok(TrainingSet {
        feature_names: combined_feature_names(),
        runs,
        stats: CollectStats::default(),
    })
}

/// Trains NAPEL's two forests (the untuned single-forest configuration).
///
/// # Errors
///
/// Training failures.
pub fn train(set: &TrainingSet) -> Result<TrainedNapel, String> {
    Napel::new(NapelConfig::untuned())
        .train(set)
        .map_err(|e| format!("training failed: {e}"))
}

/// [`train`], traced: the real `Napel::train` call, then its dataset
/// build and its two forest fits replayed alone. Returns the model and
/// the replayed layer time.
///
/// # Errors
///
/// Training and dataset failures.
pub fn train_traced(
    tracer: &mut Tracer,
    op: u64,
    set: &TrainingSet,
) -> Result<(TrainedNapel, Duration), String> {
    let start = Instant::now();
    let trained = train(set);
    let wall = start.elapsed();
    tracer.record(op, "core.train", start, wall, set.runs.len() as u64);
    let trained = trained?;
    let rows = set.runs.len() as u64;
    let data = tracer.span(op, "core.dataset", || {
        (
            set.ipc_dataset()
                .and_then(|i| Ok((i, set.energy_dataset()?))),
            rows,
        )
    });
    let (ipc, energy) = data.map_err(|e| e.to_string())?;
    let config = NapelConfig::untuned();
    let forest = LogOf(config.grid[0].clone());
    for data in [&ipc, &energy] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let fitted = tracer.span(op, "ml.fit", || {
            (forest.fit(data, &mut rng), config.grid[0].num_trees as u64)
        });
        fitted.map_err(|e| e.to_string())?;
    }
    let busy = tracer.op_seconds(op, "core.dataset") + tracer.op_seconds(op, "ml.fit");
    Ok((trained, Duration::from_secs_f64(busy)))
}

/// `predict_batch`, optionally traced as `ml.predict`.
///
/// # Errors
///
/// The model's feature-schema error.
pub fn predict(
    model: &TrainedNapel,
    rows: &[Vec<f64>],
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<Vec<(napel_core::model::Prediction, f64)>, String> {
    let call = || model.predict_batch(rows).map_err(|e| e.to_string());
    match tracer {
        None => call(),
        Some((tracer, op)) => tracer.span(op, "ml.predict", || (call(), rows.len() as u64)),
    }
}

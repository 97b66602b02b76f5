//! The three pass-structured workloads. Each holds a fixed, seeded list
//! of items; a pass runs every item once, and a run repeats whole passes,
//! so every pass does the same work and its outputs must repeat exactly.

use std::time::{Duration, Instant};

use napel_core::experiments::fig4::sample_arch_configs;
use napel_core::features::{combined_features_checked, LabeledRun, TrainingSet};
use napel_core::model::TrainedNapel;
use napel_ir::{CountingSink, MultiTrace, ThreadedTraceSink};
use napel_pisa::ProfileObserver;
use napel_workloads::Workload;
use nmc_sim::{ArchConfig, SimEngine};

use napel_core::collect::arch_neighborhood;

use crate::pipeline::{self, ccd_points, scale, Point};
use crate::spans::Tracer;
use crate::stats::{Digest, Rng};

/// An application is *heavy* when its largest CCD input emits at least
/// this many instructions at the tiny scale (bfs, bp and kme emit
/// 10⁵–10⁶; the other nine stay under 1.2·10⁴).
const HEAVY_INSTS: u64 = 100_000;

/// A campaign pass simulates one CCD point of each heavy application: the
/// one at this rank by instruction count — of 25 points, the 7th
/// cheapest, the median of the cheap half. (The median of the expensive
/// half, the 19th, cost two to four times as much, so passes were too few
/// to time steadily.)
const CAMPAIGN_HEAVY_RANK: usize = 6;

/// Inputs per heavy application in the analyze deck: the medians of this
/// many strata of the instruction-count distribution's cheaper half.
const ANALYZE_STRATA: usize = 4;

/// Grid inputs drawn per heavy application; the cheaper half by
/// instruction count is stratified.
const ANALYZE_POOL: usize = 96;

/// Architectures each analyze op predicts for.
const ANALYZE_SWEEP: usize = 64;

/// Wall clock of one op and, when traced, the layer time booked to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTime {
    /// The op's own wall clock (layer replays excluded).
    pub wall: Duration,
    /// Layer time attributed to the op (0 untraced).
    pub busy: Duration,
}

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOut {
    /// Digest of every item's outputs, in item order.
    pub digest: u64,
    /// Exact values that must repeat across passes.
    pub exact: Vec<(&'static str, f64)>,
}

/// A workload made of passes over a fixed item list.
pub trait PassWorkload {
    /// Items in one pass.
    fn items(&self) -> usize;

    /// Runs item `i` (traced when a tracer and op id are given).
    ///
    /// # Errors
    ///
    /// The op's failure, which counts against the ops attempted.
    fn op(&mut self, i: usize, trace: Option<(&mut Tracer, u64)>) -> Result<OpTime, String>;

    /// Closes a pass.
    fn end_pass(&mut self) -> PassOut;

    /// One line describing the item list.
    fn describe(&self) -> String;
}

/// Folds per-item digests in item order (0 for items that failed).
fn fold_digests(outputs: &mut [u64]) -> u64 {
    let mut d = Digest::default();
    for o in outputs.iter_mut() {
        d.u64(std::mem::take(o));
    }
    d.value()
}

/// Whether an application is heavy (see [`HEAVY_INSTS`]).
fn heavy(points: &[Point]) -> bool {
    points.last().is_some_and(|p| p.insts >= HEAVY_INSTS)
}

/// `campaign`: one op profiles one CCD point through the campaign's
/// profile cache and simulates it on all six architectures.
pub struct Campaign {
    points: Vec<Point>,
    archs: Vec<ArchConfig>,
    outputs: Vec<u64>,
    engine: SimEngine,
}

impl Campaign {
    /// Every CCD point of the nine light applications plus the
    /// [`CAMPAIGN_HEAVY_RANK`] point of each heavy application. `quick` keeps each
    /// application's cheapest point only. Warms up with one op on every
    /// application's cheapest point.
    ///
    /// # Errors
    ///
    /// Warm-up failures.
    pub fn new(quick: bool) -> Result<Campaign, String> {
        let archs = arch_neighborhood();
        let mut points = Vec::new();
        for w in Workload::ALL {
            let mut all = ccd_points(w);
            pipeline::campaign(&[&all[0]], &archs)?;
            if quick {
                points.push(all.swap_remove(0));
            } else if heavy(&all) {
                points.push(all.swap_remove(CAMPAIGN_HEAVY_RANK));
            } else {
                points.extend(all);
            }
        }
        Ok(Campaign {
            outputs: vec![0; points.len()],
            points,
            archs,
            engine: SimEngine::new(),
        })
    }
}

/// Digest of labeled rows: everything a row holds, floats by bits.
fn digest_rows(rows: &[LabeledRun]) -> u64 {
    let mut d = Digest::default();
    for r in rows {
        d.bytes(r.workload.name().as_bytes());
        r.params.iter().for_each(|&p| d.f64(p));
        r.features.iter().for_each(|&x| d.f64(x));
        d.u64(r.instructions);
        d.f64(r.ipc);
        d.f64(r.energy_per_inst_pj);
    }
    d.value()
}

impl PassWorkload for Campaign {
    fn items(&self) -> usize {
        self.points.len()
    }

    fn op(&mut self, i: usize, trace: Option<(&mut Tracer, u64)>) -> Result<OpTime, String> {
        let point = &self.points[i];
        let (rows, time) = match trace {
            None => {
                let start = Instant::now();
                let rows = pipeline::campaign(&[point], &self.archs)?;
                let wall = start.elapsed();
                (
                    rows,
                    OpTime {
                        wall,
                        busy: Duration::ZERO,
                    },
                )
            }
            Some((tracer, op)) => {
                let (rows, wall, busy) =
                    pipeline::campaign_traced(tracer, &mut self.engine, op, point, &self.archs)?;
                (rows, OpTime { wall, busy })
            }
        };
        self.outputs[i] = digest_rows(&rows);
        Ok(time)
    }

    fn end_pass(&mut self) -> PassOut {
        PassOut {
            digest: fold_digests(&mut self.outputs),
            exact: Vec::new(),
        }
    }

    fn describe(&self) -> String {
        let heavy = self
            .points
            .iter()
            .filter(|p| p.insts >= HEAVY_INSTS)
            .count();
        let insts: u64 = self.points.iter().map(|p| p.insts).sum();
        format!(
            "{} CCD points ({heavy} heavy), {insts} instructions, x{} architectures",
            self.points.len(),
            self.archs.len()
        )
    }
}

/// `analyze`: one op is Figure 4's analyze + predict for a new input —
/// the kernel streamed into a PISA observer, the profile finished,
/// combined with a fixed 64-architecture sweep, and scored in one
/// `predict_batch`.
pub struct Analyze {
    inputs: Vec<Point>,
    archs: Vec<ArchConfig>,
    model: TrainedNapel,
    outputs: Vec<u64>,
}

impl Analyze {
    /// Draws the input deck from the Table 2 level grids of the heavy
    /// applications: a fixed pool of random grid inputs per application,
    /// sorted by instruction count and cut into equal strata, whose
    /// medians form the deck — so the deck spans each application's cost
    /// range and is the same for every seed. `quick` takes each heavy
    /// application's all-minimum input. Runs one warm-up op.
    ///
    /// # Errors
    ///
    /// Warm-up failures.
    pub fn new(quick: bool, model: TrainedNapel) -> Result<Analyze, String> {
        let mut rng = Rng::new(0xA7A1);
        let mut inputs = Vec::new();
        for w in Workload::ALL {
            if !heavy(&ccd_points(w)) {
                continue;
            }
            let spec = w.spec();
            if quick {
                inputs.push(Point::new(
                    w,
                    spec.params.iter().map(|p| p.levels[0]).collect(),
                ));
                continue;
            }
            let mut pool: Vec<Point> = (0..ANALYZE_POOL)
                .map(|_| {
                    let coords = spec.params.iter().map(|p| p.levels[rng.below(5)]).collect();
                    Point::new(w, coords)
                })
                .collect();
            pool.sort_by_key(|p| p.insts);
            pool.truncate(ANALYZE_POOL / 2);
            let per = pool.len() / ANALYZE_STRATA;
            inputs.extend(pool.into_iter().skip(per / 2).step_by(per));
        }
        let analyze = Analyze {
            outputs: vec![0; inputs.len()],
            inputs,
            archs: sample_arch_configs(ANALYZE_SWEEP, 0xF164),
            model,
        };
        let warm = Point::new(
            Workload::Kme,
            Workload::Kme
                .spec()
                .params
                .iter()
                .map(|p| p.levels[0])
                .collect(),
        );
        analyze.predict_for(&warm, None)?;
        Ok(analyze)
    }

    /// Analyze + predict for `input`; returns the predictions' digest and
    /// the op's wall clock.
    fn predict_for(
        &self,
        input: &Point,
        mut trace: Option<(&mut Tracer, u64)>,
    ) -> Result<(u64, Duration), String> {
        let start = Instant::now();
        let mut observer = ProfileObserver::new();
        input
            .workload
            .generate_into(&input.coords, scale(), &mut observer);
        let fused = start.elapsed();
        let profile = match trace.as_mut() {
            None => observer.finish(),
            Some((tracer, op)) => tracer.span(*op, "pisa.finish", || (observer.finish(), 0)),
        };
        let rows = self
            .archs
            .iter()
            .map(|a| combined_features_checked(&profile, a).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let preds = pipeline::predict(
            &self.model,
            &rows,
            trace.as_mut().map(|(t, op)| (&mut **t, *op)),
        )?;
        let wall = start.elapsed();
        let mut d = Digest::default();
        for (p, spread) in &preds {
            for v in [p.ipc, p.energy_per_inst_pj, *spread] {
                if !v.is_finite() {
                    return Err(format!("{}: non-finite prediction", input.workload));
                }
                d.f64(v);
            }
        }
        if let Some((tracer, op)) = trace {
            tracer.record(op, "analyze.emit_observe", start, fused, input.insts);
        }
        Ok((d.value(), wall))
    }
}

impl PassWorkload for Analyze {
    fn items(&self) -> usize {
        self.inputs.len()
    }

    fn op(&mut self, i: usize, trace: Option<(&mut Tracer, u64)>) -> Result<OpTime, String> {
        let input = &self.inputs[i];
        let Some((tracer, op)) = trace else {
            let (digest, wall) = self.predict_for(input, None)?;
            self.outputs[i] = digest;
            return Ok(OpTime {
                wall,
                busy: Duration::ZERO,
            });
        };
        let (digest, wall) = self.predict_for(input, Some((&mut *tracer, op)))?;
        self.outputs[i] = digest;
        // Replays of the fused pass: the kernel alone, then the observer
        // fed the same (materialized) stream.
        let (w, coords) = (input.workload, input.coords.as_slice());
        let insts = tracer.span(op, "workloads.emit", || {
            let mut sink = CountingSink::new();
            w.generate_into(coords, scale(), &mut sink);
            (sink.total(), sink.total())
        });
        let mut trace = MultiTrace::default();
        w.generate_into(coords, scale(), &mut trace);
        tracer.span(op, "pisa.observe", || {
            let mut observer = ProfileObserver::new();
            observer.begin(trace.num_threads());
            for (t, lane) in trace.iter().enumerate() {
                for inst in lane.iter() {
                    observer.record(t, *inst);
                }
            }
            (std::hint::black_box(observer), insts)
        });
        let busy: f64 = [
            "workloads.emit",
            "pisa.observe",
            "pisa.finish",
            "ml.predict",
        ]
        .iter()
        .map(|n| tracer.op_seconds(op, n))
        .sum();
        Ok(OpTime {
            wall,
            busy: Duration::from_secs_f64(busy),
        })
    }

    fn end_pass(&mut self) -> PassOut {
        PassOut {
            digest: fold_digests(&mut self.outputs),
            exact: Vec::new(),
        }
    }

    fn describe(&self) -> String {
        let insts: u64 = self.inputs.iter().map(|p| p.insts).sum();
        format!(
            "{} level-grid inputs, {insts} instructions, x{} architectures",
            self.inputs.len(),
            self.archs.len()
        )
    }
}

/// `train`: one op is one leave-one-application-out fold — NAPEL trained
/// on the set without one application, then scored on that
/// application's rows.
pub struct Train {
    set: TrainingSet,
    apps: Vec<Workload>,
    outputs: Vec<u64>,
    errors: Vec<(f64, f64)>,
}

impl Train {
    /// Folds over every application of `set`; runs one warm-up fold.
    ///
    /// # Errors
    ///
    /// Warm-up failures.
    pub fn new(set: TrainingSet) -> Result<Train, String> {
        let apps = set.workloads();
        let mut train = Train {
            outputs: vec![0; apps.len()],
            errors: vec![(0.0, 0.0); apps.len()],
            apps,
            set,
        };
        train.op(0, None)?;
        train.end_pass();
        Ok(train)
    }
}

impl PassWorkload for Train {
    fn items(&self) -> usize {
        self.apps.len()
    }

    fn op(&mut self, i: usize, trace: Option<(&mut Tracer, u64)>) -> Result<OpTime, String> {
        let app = self.apps[i];
        let held_out: Vec<&LabeledRun> =
            self.set.runs.iter().filter(|r| r.workload == app).collect();
        let rows: Vec<Vec<f64>> = held_out.iter().map(|r| r.features.clone()).collect();
        let start = Instant::now();
        let fold = self.set.filtered(|w| w != app);
        let (preds, busy) = match trace {
            None => {
                let model = pipeline::train(&fold)?;
                (pipeline::predict(&model, &rows, None)?, Duration::ZERO)
            }
            Some((tracer, op)) => {
                let (model, fit_busy) = pipeline::train_traced(tracer, op, &fold)?;
                let preds = pipeline::predict(&model, &rows, Some((&mut *tracer, op)))?;
                let predict = Duration::from_secs_f64(tracer.op_seconds(op, "ml.predict"));
                (preds, fit_busy + predict)
            }
        };
        let wall = start.elapsed();
        let relative = |pred: f64, truth: f64| (pred - truth).abs() / truth;
        let n = held_out.len() as f64;
        let (mut perf, mut energy) = (0.0, 0.0);
        let mut d = Digest::default();
        for ((p, _), r) in preds.iter().zip(&held_out) {
            perf += relative(p.ipc, r.ipc) / n;
            energy += relative(p.energy_per_inst_pj, r.energy_per_inst_pj) / n;
            d.f64(p.ipc);
            d.f64(p.energy_per_inst_pj);
        }
        if !(perf.is_finite() && energy.is_finite()) {
            return Err(format!("{app}: non-finite fold MRE"));
        }
        self.outputs[i] = d.value();
        self.errors[i] = (perf, energy);
        Ok(OpTime { wall, busy })
    }

    fn end_pass(&mut self) -> PassOut {
        let n = self.errors.len().max(1) as f64;
        let perf = self.errors.iter().map(|e| e.0).sum::<f64>() / n * 100.0;
        let energy = self.errors.iter().map(|e| e.1).sum::<f64>() / n * 100.0;
        PassOut {
            digest: fold_digests(&mut self.outputs),
            exact: vec![("perf_mre_pct", perf), ("energy_mre_pct", energy)],
        }
    }

    fn describe(&self) -> String {
        format!(
            "{} LOAO folds over {} training rows",
            self.apps.len(),
            self.set.runs.len()
        )
    }
}

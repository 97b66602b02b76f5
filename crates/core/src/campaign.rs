//! The campaign engine — job-based, parallel, deterministic execution of
//! simulation campaigns.
//!
//! Phase ② of the pipeline (and several analysis protocols built on it)
//! reduces to the same shape: a batch of independent units of work whose
//! results must come back *in a fixed order* so that downstream training
//! and rendering are reproducible. This module factors that shape out:
//!
//! - [`SimJob`] describes one unit of phase-② work — a workload × DoE
//!   point × architecture configuration at a given [`Scale`]. Jobs carry
//!   their batch index, so results can be assembled deterministically no
//!   matter which worker computed them.
//! - [`Executor`] abstracts *how* a batch runs: [`Serial`] in the calling
//!   thread, or [`Threaded`] across scoped worker threads that pull jobs
//!   from a shared atomic cursor. Both produce results in item order —
//!   the parallel output is **identical** to the serial output (enforced
//!   by test), because every job is a pure function of its descriptor and
//!   timing side-channels are kept out of the labeled data.
//! - [`ProfileCache`] shares the expensive trace generation + PISA
//!   profiling between all jobs of the same `(workload, point, scale)`,
//!   so simulating N architecture configurations costs one kernel
//!   analysis, exactly once, even under concurrency. It also shares one
//!   simulation among the point's jobs of each
//!   [`TimingClass`]: the other jobs of the class
//!   [`retarget`](NmcSystem::retarget) its report, bit for bit what their
//!   own simulation would have produced. A point's compact encoded trace
//!   is dropped as soon as each of its timing classes has a report.
//! - [`AnyExecutor`] is an executor chosen at run time. Every library
//!   entry point takes its executor as an argument; only the driver
//!   binaries read the `NAPEL_JOBS` environment variable
//!   ([`AnyExecutor::from_env`]).
//! - [`run_supervised`] is the fault-tolerant runtime on top: each job
//!   runs inside `catch_unwind`, its labels pass a validation gate before
//!   entering the training set, and failures — per the configured
//!   [`FaultPolicy`] — either cancel the batch
//!   with full provenance (fail-fast) or are quarantined while the rest
//!   of the campaign completes. With a checkpoint journal attached
//!   ([`crate::checkpoint`]), completed rows are persisted as they
//!   finish, and a killed campaign resumes recomputing only unfinished
//!   jobs.
//!
//! What is (and is not) deterministic: the labeled rows — workload,
//! parameters, features, instruction counts, IPC and energy labels — and
//! their order are bit-identical across executors and worker counts,
//! *including under faults*: whether a job fails is a pure function of
//! the job, so the surviving row set and the quarantine report match
//! between serial and threaded runs, and a checkpoint-resumed campaign
//! reproduces an uninterrupted one bit for bit. The wall-clock fields of
//! [`CollectStats`] are measurements and naturally vary run to run; under
//! a threaded executor they sum per-phase CPU time across workers, not
//! elapsed time.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Once, OnceLock, RwLock};
use std::time::Instant;

use napel_pisa::ApplicationProfile;
use napel_workloads::{Scale, Workload};
use nmc_sim::energy::EnergyModel;
use nmc_sim::{ArchConfig, NmcSystem, SimEngine, SimReport, TimingClass};

use crate::checkpoint::CheckpointJournal;
use crate::collect::{doe_points, CollectionPlan};
use crate::fault::{
    CampaignOptions, CampaignReport, FaultInjector, FaultPolicy, JobFailure, JobFailureKind,
    JobOutcome, JobStatus,
};
use crate::features::{CollectStats, LabeledRun};
use crate::NapelError;

// The engine moves these across thread boundaries; keep the contract
// explicit so an accidental `Rc`/`RefCell` in a substrate crate fails
// here, at the point of use, with a readable error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimJob>();
    assert_send_sync::<ProfiledPoint>();
    assert_send_sync::<LabeledRun>();
    assert_send_sync::<CollectStats>();
    assert_send_sync::<crate::features::TrainingSet>();
    assert_send_sync::<crate::NapelError>();
    assert_send_sync::<CheckpointJournal>();
    assert_send_sync::<CampaignOptions>();
    assert_send_sync::<CampaignReport>();
    assert_send_sync::<JobOutcome>();
};

/// One unit of phase-② work: simulate one workload at one DoE point on
/// one architecture configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    /// Position of this job in its batch; results are assembled in index
    /// order regardless of which worker ran the job.
    pub index: usize,
    /// The application.
    pub workload: Workload,
    /// The application-input configuration (spec order).
    pub coords: Vec<f64>,
    /// The architecture to simulate on.
    pub arch: ArchConfig,
    /// Input-shrinking policy.
    pub scale: Scale,
}

impl SimJob {
    /// The job's full descriptor: everything its result is a function of
    /// (workload, DoE coordinates by bit pattern, every architecture
    /// field, scale) — deliberately *excluding* the batch index, so the
    /// same work is recognized across differently-shaped batches.
    fn descriptor(&self) -> String {
        let coord_bits: Vec<u64> = self.coords.iter().map(|c| c.to_bits()).collect();
        format!(
            "{} coords={:?} arch={:?} scale=({},{},{})",
            self.workload.name(),
            coord_bits,
            self.arch,
            self.scale.dim_div,
            self.scale.data_div,
            self.scale.max_iters
        )
    }

    /// Stable FNV-1a hash of the job descriptor — the checkpoint-journal
    /// key. Two jobs share a hash exactly when they describe the same
    /// work (e.g. CCD center replicates), in which case restoring either
    /// from the other's journal entry is correct: jobs are pure functions
    /// of their descriptor.
    pub fn descriptor_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.descriptor().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Human-readable provenance, for failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{} @ {:?} on {:?} at scale ({},{},{})",
            self.workload.name(),
            self.coords,
            self.arch,
            self.scale.dim_div,
            self.scale.data_div,
            self.scale.max_iters
        )
    }

    /// The provenance-carrying failure record for this job.
    fn failure(&self, kind: JobFailureKind) -> JobFailure {
        JobFailure {
            index: self.index,
            workload: self.workload.name().to_string(),
            params: self.coords.clone(),
            arch: format!("{:?}", self.arch),
            kind,
        }
    }
}

/// Strategy for running a batch of independent work items.
///
/// `map` must call `f` exactly once per item and return the results in
/// item order — that ordering contract is what makes campaigns
/// executor-independent. The trait is implemented by [`Serial`],
/// [`Threaded`] and [`AnyExecutor`]; functions that run campaigns accept
/// `&impl Executor`.
pub trait Executor {
    /// Applies `f` to every item, returning results in item order.
    fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync;

    /// Number of worker threads this executor uses (1 for serial).
    fn workers(&self) -> usize;
}

/// Runs every job in the calling thread, in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Serial;

impl Executor for Serial {
    fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
    }

    fn workers(&self) -> usize {
        1
    }
}

/// Runs jobs on scoped worker threads pulling from a shared atomic
/// cursor.
///
/// Each worker claims the next unclaimed index with a `fetch_add`, runs
/// it, and records `(index, result)` locally; after all workers join, the
/// results are placed into their slots, so the output order equals
/// [`Serial`]'s. No job queue is allocated and no channels are involved —
/// the batch slice itself is the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threaded {
    workers: NonZeroUsize,
}

impl Threaded {
    /// An executor with `workers` threads (floored at 1).
    pub fn new(workers: usize) -> Self {
        Threaded {
            workers: NonZeroUsize::new(workers.max(1)).expect("max(1) is non-zero"),
        }
    }

    /// An executor sized to the machine (`available_parallelism`, or 1 if
    /// that cannot be determined).
    pub fn auto() -> Self {
        Threaded {
            workers: std::thread::available_parallelism()
                .unwrap_or(NonZeroUsize::new(1).expect("1 is non-zero")),
        }
    }
}

impl Executor for Threaded {
    fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.workers.get().min(items.len());
        if workers <= 1 {
            return Serial.map(items, f);
        }
        let cursor = AtomicUsize::new(0);
        // A panicking worker poisons the cursor on its way down (the
        // guard's Drop runs during unwinding), so the surviving workers
        // stop claiming new work instead of finishing the rest of the
        // batch before the panic can re-raise: a failure at job 3 of 500
        // must not burn CPU on the other 497 first.
        let poisoned = AtomicBool::new(false);
        struct PoisonOnUnwind<'a>(&'a AtomicBool);
        impl Drop for PoisonOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Release);
                }
            }
        }
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        while !poisoned.load(Ordering::Acquire) {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            let guard = PoisonOnUnwind(&poisoned);
                            let r = f(i, &items[i]);
                            std::mem::forget(guard);
                            local.push((i, r));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => {
                        for (i, r) in local {
                            slots[i] = Some(r);
                        }
                    }
                    // Re-raise a worker panic in the caller, as serial
                    // execution would.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("cursor claims every index exactly once"))
            .collect()
    }

    fn workers(&self) -> usize {
        self.workers.get()
    }
}

/// A runtime-selected executor; see [`AnyExecutor::from_env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyExecutor {
    /// In-thread execution.
    Serial(Serial),
    /// Scoped worker threads.
    Threaded(Threaded),
}

impl AnyExecutor {
    /// The serial executor.
    pub fn serial() -> Self {
        AnyExecutor::Serial(Serial)
    }

    /// An executor with `jobs` workers: `0` means size to the machine,
    /// `1` is serial, anything larger is threaded.
    pub fn with_jobs(jobs: usize) -> Self {
        match jobs {
            0 => AnyExecutor::Threaded(Threaded::auto()),
            1 => AnyExecutor::Serial(Serial),
            n => AnyExecutor::Threaded(Threaded::new(n)),
        }
    }

    /// Selects the executor from the `NAPEL_JOBS` environment variable:
    ///
    /// - unset or empty → [`Serial`] (the default stays single-threaded
    ///   and dependency-free),
    /// - `auto` or `0` → [`Threaded`] sized to the machine,
    /// - `1` → [`Serial`],
    /// - `N` → [`Threaded`] with `N` workers.
    ///
    /// Unparsable values warn once on stderr and fall back to serial
    /// rather than aborting a long campaign over a typo. The library
    /// itself never calls this: its entry points take an executor.
    pub fn from_env() -> Self {
        match std::env::var("NAPEL_JOBS") {
            Ok(spec) => Self::from_spec(&spec),
            Err(_) => Self::serial(),
        }
    }

    /// Strictly parses a `NAPEL_JOBS`-style specification (see
    /// [`Self::from_env`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the bad specification.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(Self::serial());
        }
        if spec.eq_ignore_ascii_case("auto") {
            return Ok(Self::with_jobs(0));
        }
        match spec.parse::<usize>() {
            Ok(n) => Ok(Self::with_jobs(n)),
            Err(_) => Err(format!(
                "unparsable jobs spec `{spec}` (expected `auto` or a worker count)"
            )),
        }
    }

    /// Parses a `NAPEL_JOBS`-style specification, warning — once per
    /// distinct message, through the `napel-telemetry` log facade —
    /// instead of silently running a typo'd `NAPEL_JOBS=8x` campaign
    /// single-threaded. Message-keyed dedup means a *different* bad spec
    /// later in the same process warns again (a per-call-site `Once`
    /// would swallow it).
    fn from_spec(spec: &str) -> Self {
        Self::parse_spec(spec).unwrap_or_else(|msg| {
            napel_telemetry::warn_once!("napel: {msg}; falling back to serial execution");
            Self::serial()
        })
    }
}

impl Executor for AnyExecutor {
    fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self {
            AnyExecutor::Serial(e) => e.map(items, f),
            AnyExecutor::Threaded(e) => e.map(items, f),
        }
    }

    fn workers(&self) -> usize {
        match self {
            AnyExecutor::Serial(e) => e.workers(),
            AnyExecutor::Threaded(e) => e.workers(),
        }
    }
}

/// Telemetry lane of job `i`: `JOB_LANE_BASE + i`. Lane 0 is the driver
/// thread; giving every job its own lane makes the event stream's order
/// independent of which worker ran the job — see [`napel_telemetry`].
pub const JOB_LANE_BASE: u64 = 1;

/// Telemetry lane of the kernel analysis first needed by job `i`:
/// `ANALYSIS_LANE_BASE + i`. Analyses are shared across jobs through the
/// [`ProfileCache`], and *which* job's thread materializes a shared entry
/// is a race under a threaded executor — so analysis events go to a
/// canonical lane chosen when the cache is built (the lowest job index
/// sharing the entry), far above the job lanes, keeping the stream
/// deterministic.
pub const ANALYSIS_LANE_BASE: u64 = 1 << 32;

/// Telemetry lane of the simulation a timing class shares at one point:
/// `SIM_LANE_BASE + i`, where `i` is the lowest index among the point's
/// jobs of that class. Whichever job of the class arrives first
/// simulates, so — as with [`ANALYSIS_LANE_BASE`] — the run's events go
/// to a lane fixed when the point is profiled.
pub const SIM_LANE_BASE: u64 = 2 << 32;

/// Cache key: one kernel analysis per distinct (workload, scale, point).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProfileKey {
    workload: Workload,
    scale: (u32, u32, u64),
    // Coordinates by bit pattern: DoE points are produced, not computed
    // with, so bitwise identity is the right notion of "same point".
    coord_bits: Vec<u64>,
}

impl ProfileKey {
    fn of(job: &SimJob) -> Self {
        ProfileKey {
            workload: job.workload,
            scale: (job.scale.dim_div, job.scale.data_div, job.scale.max_iters),
            coord_bits: job.coords.iter().map(|c| c.to_bits()).collect(),
        }
    }
}

/// The shared part of a point's jobs: the hardware-independent PISA
/// profile, the compact encoded trace until its last simulation, how long
/// the (single-pass) analysis took, and one simulation per timing class.
#[derive(Debug)]
pub struct ProfiledPoint {
    /// The workload's instruction trace at this point in its compact
    /// delta-encoded form ([`napel_ir::EncodedTrace`], a few bytes per
    /// instruction), read-locked by each class's simulation and dropped
    /// once every class has a report.
    trace: RwLock<Option<napel_ir::EncodedTrace>>,
    /// Timing classes whose simulation has not completed yet; the
    /// simulation that takes it to zero drops the trace.
    unsimulated: AtomicUsize,
    /// The PISA application profile of that trace.
    pub profile: ApplicationProfile,
    /// Software threads the kernel announced at this point; with each
    /// job's architecture it decides the job's timing class.
    pub num_threads: usize,
    /// Seconds spent in the fused generate-and-observe pass (the kernel
    /// streams straight into the profiler, so generation and feature
    /// observation share one clock).
    pub generate_seconds: f64,
    /// Seconds spent assembling the feature vector from the observed
    /// statistics.
    pub profile_seconds: f64,
    /// One shared simulation per timing class among the point's jobs, in
    /// order of each class's lowest job index.
    runs: Vec<SharedRun>,
}

impl ProfiledPoint {
    /// The shared simulation of `class` at this point.
    ///
    /// # Panics
    ///
    /// Panics if no job of the batch at this point has that class.
    fn shared_run(&self, class: &TimingClass) -> &SharedRun {
        self.runs
            .iter()
            .find(|r| r.class == *class)
            .expect("the point's runs cover every job's timing class")
    }
}

/// The simulation all jobs of one timing class at one point share. The
/// cell stays empty until a job of the class simulates, and again after
/// a panicking simulation, so the next job of the class simulates afresh.
#[derive(Debug)]
struct SharedRun {
    class: TimingClass,
    /// `SIM_LANE_BASE` + the class's lowest job index.
    lane: u64,
    report: OnceLock<SimReport>,
}

/// Groups the jobs of a point whose kernel runs `num_threads` threads by
/// timing class, in job-index order. Campaign systems carry the default
/// energy model ([`NmcSystem::new`]).
fn shared_runs(jobs: &[(usize, ArchConfig)], num_threads: usize) -> Vec<SharedRun> {
    let energy = EnergyModel::default();
    let mut runs: Vec<SharedRun> = Vec::new();
    for (index, arch) in jobs {
        let class = TimingClass::new(arch, &energy, num_threads);
        if runs.iter().all(|r| r.class != class) {
            runs.push(SharedRun {
                class,
                lane: SIM_LANE_BASE + *index as u64,
                report: OnceLock::new(),
            });
        }
    }
    runs
}

/// Keyed once-cell cache of kernel analyses.
///
/// Built up front from a job batch (so lookups never mutate the map), the
/// cache guarantees each distinct `(workload, point, scale)` is generated
/// and profiled **exactly once** even when many workers ask for it
/// concurrently: the first asker initializes the [`OnceLock`], the rest
/// block until it is ready and then share the result. N architecture
/// configurations per point therefore cost one kernel analysis.
///
/// Since the cache knows every job at a point, materializing the point
/// also groups those jobs by timing class (for the thread count the
/// kernel announced), each class with its own once-cell for the one
/// simulation its jobs share. The point's encoded trace is dropped after
/// the last of those simulations, so a batch holds only the traces of
/// points still being simulated.
#[derive(Debug)]
pub struct ProfileCache {
    entries: HashMap<ProfileKey, CacheSlot>,
}

/// One cache entry: the once-cell plus the telemetry lane its analysis
/// events go to (canonical = chosen at build time from the lowest job
/// index sharing the entry, so the event stream does not depend on which
/// worker happened to materialize it).
#[derive(Debug)]
struct CacheSlot {
    cell: OnceLock<ProfiledPoint>,
    lane: u64,
    /// Index and architecture of every job at this point, in batch order.
    jobs: Vec<(usize, ArchConfig)>,
}

impl ProfileCache {
    /// Prepares (empty) cache slots for every distinct point in `jobs`.
    pub fn for_jobs(jobs: &[SimJob]) -> Self {
        let mut entries = HashMap::new();
        for job in jobs {
            entries
                .entry(ProfileKey::of(job))
                .or_insert_with(|| CacheSlot {
                    cell: OnceLock::new(),
                    lane: ANALYSIS_LANE_BASE + job.index as u64,
                    jobs: Vec::new(),
                })
                .jobs
                .push((job.index, job.arch.clone()));
        }
        ProfileCache { entries }
    }

    /// The kernel analysis for `job`'s point, computing it on first use.
    ///
    /// Telemetry: every call bumps `campaign.profile_cache.lookups`; the
    /// call that actually materializes the entry bumps
    /// `campaign.profile_cache.misses` (hits = lookups − misses, derived
    /// rather than counted so the numbers stay exact under concurrency:
    /// a caller that blocks on another worker's in-flight materialization
    /// is neither a miss nor a double-counted hit).
    ///
    /// # Panics
    ///
    /// Panics if `job` was not part of the batch the cache was built for.
    pub fn profiled(&self, job: &SimJob) -> &ProfiledPoint {
        let slot = self
            .entries
            .get(&ProfileKey::of(job))
            .expect("cache was built for this job batch");
        napel_telemetry::counter!("campaign.profile_cache.lookups", 1);
        slot.cell.get_or_init(|| {
            let telemetry = napel_telemetry::global();
            let _lane = telemetry.lane(slot.lane);
            let _analyze = telemetry
                .span("campaign.analyze")
                .attr("workload", job.workload.name());
            telemetry.counter("campaign.profile_cache.misses", 1);
            // One fused pass: the kernel streams each instruction into the
            // PISA observer and into the compact encoder as it is emitted —
            // the full 32-byte-per-instruction `MultiTrace` is never
            // materialized.
            let mut observer = napel_pisa::ProfileObserver::new();
            let mut enc = napel_ir::EncodedTraceSink::new();
            let t0 = Instant::now();
            {
                let _gen = telemetry.span("campaign.generate_trace");
                let mut tee = napel_ir::TeeSink::new(&mut observer, &mut enc);
                job.workload.generate_into(&job.coords, job.scale, &mut tee);
            }
            let trace = enc.finish();
            // `trace.encoded_bytes` totals the encoded traces a campaign
            // builds (each is dropped after its point's last simulation);
            // `trace.encoded_ratio` accumulates per-point compression
            // factors (divide by `campaign.profile_cache.misses` for the
            // mean).
            telemetry.counter("trace.encoded_bytes", trace.encoded_bytes() as u64);
            telemetry.counter(
                "trace.encoded_ratio",
                (trace.materialized_bytes() / trace.encoded_bytes().max(1)) as u64,
            );
            let generate_seconds = t0.elapsed().as_secs_f64();
            let num_threads = observer.num_threads();
            let t1 = Instant::now();
            let profile = observer.finish();
            let profile_seconds = t1.elapsed().as_secs_f64();
            let runs = shared_runs(&slot.jobs, num_threads);
            ProfiledPoint {
                trace: RwLock::new(Some(trace)),
                unsimulated: AtomicUsize::new(runs.len()),
                profile,
                num_threads,
                generate_seconds,
                profile_seconds,
                runs,
            }
        })
    }

    /// Number of distinct points the cache covers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache covers no points.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of points actually generated and profiled so far — a
    /// job-execution counter: checkpoint-restored jobs never touch the
    /// cache, so a resumed campaign's count covers only recomputed work.
    pub fn materialized(&self) -> usize {
        self.entries
            .values()
            .filter(|s| s.cell.get().is_some())
            .count()
    }

    /// Generate/profile time summed over the points that were actually
    /// materialized (each counted once, however many jobs shared it).
    fn analysis_stats(&self) -> CollectStats {
        let mut stats = CollectStats::default();
        for slot in self.entries.values() {
            if let Some(point) = slot.cell.get() {
                stats.merge(&CollectStats {
                    generate_seconds: point.generate_seconds,
                    profile_seconds: point.profile_seconds,
                    simulate_seconds: 0.0,
                });
            }
        }
        stats
    }
}

/// Expands a [`CollectionPlan`] into its job batch: workload-major,
/// DoE-point-major, architecture-minor — exactly the order the original
/// serial loops produced rows in, which downstream code and tests rely
/// on. Coincident CCD points (center replicates) are simulated once: the
/// simulator is deterministic, so a replicate adds time but no
/// information.
pub fn plan_jobs(plan: &CollectionPlan) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for &workload in &plan.workloads {
        for point in doe_points(&workload.spec(), true) {
            for arch in &plan.arch_configs {
                jobs.push(SimJob {
                    index: jobs.len(),
                    workload,
                    coords: point.coords().to_vec(),
                    arch: arch.clone(),
                    scale: plan.scale,
                });
            }
        }
    }
    jobs
}

/// Runs a job batch under supervision: every job executes inside
/// `catch_unwind`, completed rows must pass the label-validation gate
/// ([`LabeledRun::validate`]) before they are returned, and a checkpoint
/// journal — when configured — persists rows as they complete and
/// restores them on the next run. A journaled row is restored only if it
/// records the job's own workload and parameters and passes the same
/// gate; otherwise the job is recomputed.
///
/// Returns the surviving rows in job-index order plus a
/// [`CampaignReport`] itemizing every job's [`JobOutcome`].
///
/// Under [`FaultPolicy::FailFast`] the first failure (lowest job index)
/// cancels the batch — in-flight workers finish their current job, queued
/// jobs are skipped — and surfaces as [`NapelError::Job`]. Under
/// [`FaultPolicy::Quarantine`] the campaign completes; failures are
/// excluded from the rows and itemized in the report.
///
/// # Errors
///
/// [`NapelError::Checkpoint`] if the journal cannot be opened, and
/// [`NapelError::Job`] for a fail-fast failure.
pub fn run_supervised<E: Executor>(
    exec: &E,
    jobs: &[SimJob],
    opts: &CampaignOptions,
) -> Result<(Vec<LabeledRun>, CampaignReport), NapelError> {
    let telemetry = napel_telemetry::global();
    let _run_span = telemetry
        .span("campaign.run")
        .attr("jobs", jobs.len())
        .attr("workers", exec.workers());
    let journal = match &opts.checkpoint {
        Some(path) => Some(CheckpointJournal::open(path)?),
        None => None,
    };
    let cache = ProfileCache::for_jobs(jobs);
    let cancel = AtomicBool::new(false);
    let results: Vec<(JobOutcome, Option<LabeledRun>, f64)> = exec.map(jobs, |_, job| {
        run_one(job, &cache, journal.as_ref(), opts, &cancel)
    });

    let mut rows = Vec::with_capacity(jobs.len());
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut quarantined = Vec::new();
    let mut restored = 0;
    let mut stats = cache.analysis_stats();
    for (outcome, row, simulate_seconds) in results {
        stats.simulate_seconds += simulate_seconds;
        match &outcome.status {
            JobStatus::Completed => rows.push(row.expect("completed job has a row")),
            JobStatus::Restored => {
                restored += 1;
                rows.push(row.expect("restored job has a row"));
            }
            JobStatus::Failed(kind) => {
                quarantined.push(jobs[outcome.index].failure(kind.clone()));
            }
            JobStatus::Skipped => {}
        }
        outcomes.push(outcome);
    }
    if opts.policy == FaultPolicy::FailFast {
        // Quarantined entries arrive in index order (exec.map returns
        // item order), so the first is the lowest-index failure — the
        // deterministic choice even when a threaded run fails several
        // jobs before the cancellation lands.
        if !quarantined.is_empty() {
            return Err(NapelError::Job(quarantined.remove(0)));
        }
    }
    Ok((
        rows,
        CampaignReport {
            outcomes,
            quarantined,
            restored,
            stats,
        },
    ))
}

/// Supervises one job: checkpoint restore, the panic-catching execution,
/// label validation, journaling, and fail-fast cancellation.
///
/// Telemetry: the whole job runs in its own lane (`JOB_LANE_BASE +
/// index`) under a `campaign.job` span carrying the job's provenance
/// (workload, index, architecture) and final status, and bumps the
/// `campaign.jobs.*` counters. Both are deterministic: each job's lane
/// is private to it, and whether a job completes, restores, or fails is
/// a pure function of the job (see the module docs).
fn run_one(
    job: &SimJob,
    cache: &ProfileCache,
    journal: Option<&CheckpointJournal>,
    opts: &CampaignOptions,
    cancel: &AtomicBool,
) -> (JobOutcome, Option<LabeledRun>, f64) {
    let telemetry = napel_telemetry::global();
    let _lane = telemetry.lane(JOB_LANE_BASE + job.index as u64);
    let span = telemetry
        .span("campaign.job")
        .attr("workload", job.workload.name())
        .attr("index", job.index)
        .attr("arch", format_args!("{:?}", job.arch));
    let outcome = |status, seconds| JobOutcome {
        index: job.index,
        status,
        seconds,
    };
    if cancel.load(Ordering::Acquire) {
        napel_telemetry::counter!("campaign.jobs.skipped", 1);
        let _span = span.attr("status", "skipped");
        return (outcome(JobStatus::Skipped, 0.0), None, 0.0);
    }
    let hash = job.descriptor_hash();
    if let Some(journal) = journal {
        if let Some(run) = journal.restored(hash).filter(|run| restorable(job, run)) {
            napel_telemetry::counter!("campaign.jobs.restored", 1);
            let _span = span.attr("status", "restored");
            return (outcome(JobStatus::Restored, 0.0), Some(run.clone()), 0.0);
        }
    }
    let start = Instant::now();
    let kind = match catch_job_panic(|| execute_job(job, cache, opts.injector.as_ref())) {
        Ok(Ok((run, simulate_seconds))) => {
            if let Some(journal) = journal {
                journal.record(hash, &run);
            }
            napel_telemetry::counter!("campaign.jobs.completed", 1);
            let _span = span.attr("status", "completed");
            let seconds = start.elapsed().as_secs_f64();
            return (
                outcome(JobStatus::Completed, seconds),
                Some(run),
                simulate_seconds,
            );
        }
        Ok(Err(kind)) => kind,
        Err(panic_message) => JobFailureKind::Panic(panic_message),
    };
    if opts.policy == FaultPolicy::FailFast {
        cancel.store(true, Ordering::Release);
    }
    napel_telemetry::counter!("campaign.jobs.failed", 1);
    let _span = span.attr("status", "failed");
    let seconds = start.elapsed().as_secs_f64();
    (outcome(JobStatus::Failed(kind), seconds), None, 0.0)
}

/// Whether a journaled row may stand in for `job`'s computed one: it
/// must be the job's own work (same workload, same parameter bits) and
/// pass the label gate every computed row passes. Any other entry is
/// recomputed, as a stale-schema one is.
fn restorable(job: &SimJob, run: &LabeledRun) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    run.workload == job.workload
        && bits(&run.params) == bits(&job.coords)
        && run.validate(&job.arch).is_ok()
}

/// A job's actual work: kernel analysis (through the cache), the
/// simulation its timing class shares at the point (run by whichever job
/// of the class arrives first), the report retargeted to this job's
/// system, checked feature assembly, fault injection (when configured),
/// and the label-validation gate. The returned seconds are the
/// simulation's if this job ran it, else zero. The job that completes the
/// point's last class simulation drops the point's trace; a panicking
/// simulation completes nothing, so the trace stays for the class's next
/// job.
///
/// Telemetry: every call bumps `campaign.sim_cache.lookups`; the call
/// that simulates bumps `campaign.sim_cache.misses` and runs in the
/// class's canonical lane ([`SIM_LANE_BASE`]).
fn execute_job(
    job: &SimJob,
    cache: &ProfileCache,
    injector: Option<&FaultInjector>,
) -> Result<(LabeledRun, f64), JobFailureKind> {
    if let Some(injector) = injector {
        injector.maybe_panic(job.index);
    }
    let point = cache.profiled(job);
    let system = NmcSystem::new(job.arch.clone());
    let shared = point.shared_run(&system.timing_class(point.num_threads));
    // Each worker thread owns one phase-split engine and simulates every
    // job through it, so frontends, request queues, the in-flight arena, and
    // the DRAM model are reused across a campaign instead of reallocated
    // per job. A panic mid-run is harmless: the engine re-prepares all
    // state at the start of the next run.
    thread_local! {
        static SIM_ENGINE: std::cell::RefCell<SimEngine> =
            std::cell::RefCell::new(SimEngine::new());
    }
    napel_telemetry::counter!("campaign.sim_cache.lookups", 1);
    let mut simulate_seconds = None;
    let simulated = shared.report.get_or_init(|| {
        let telemetry = napel_telemetry::global();
        let _lane = telemetry.lane(shared.lane);
        telemetry.counter("campaign.sim_cache.misses", 1);
        let t = Instant::now();
        // Classes of one point simulate concurrently under shared read
        // locks; the write lock that drops the trace is taken only after
        // the last of them has finished.
        let trace = point.trace.read().expect("trace lock is never poisoned");
        let trace = trace
            .as_ref()
            .expect("the trace outlives every class simulation");
        let report = SIM_ENGINE.with(|engine| {
            engine
                .borrow_mut()
                .run_streams(&system, trace.thread_iters())
        });
        simulate_seconds = Some(t.elapsed().as_secs_f64());
        report
    });
    // Decrements are totally ordered, so exactly one class sees the count
    // reach zero, and by then every class has finished reading the trace.
    if simulate_seconds.is_some() && point.unsimulated.fetch_sub(1, Ordering::AcqRel) == 1 {
        *point.trace.write().expect("trace lock is never poisoned") = None;
    }
    let report = system.retarget(simulated);
    let mut run = LabeledRun::from_report_checked(
        job.workload,
        job.coords.clone(),
        &point.profile,
        &job.arch,
        &report,
    )
    .map_err(|e| JobFailureKind::Schema(e.to_string()))?;
    if let Some(injector) = injector {
        injector.corrupt(job.index, &mut run);
    }
    run.validate(&job.arch)
        .map_err(JobFailureKind::InvalidLabel)?;
    Ok((run, simulate_seconds.unwrap_or(0.0)))
}

/// Runs `f` inside `catch_unwind`, rendering a panic payload to text.
/// While `f` runs, the process panic hook is hushed *for this thread*, so
/// an expected (caught, quarantined) panic does not spray a backtrace
/// onto stderr; panics on other threads print as usual.
pub(crate) fn catch_job_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    use std::cell::Cell;
    thread_local! {
        static HUSHED: Cell<bool> = const { Cell::new(false) };
    }
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !HUSHED.with(Cell::get) {
                previous(info);
            }
        }));
    });
    struct Unhush;
    impl Drop for Unhush {
        fn drop(&mut self) {
            HUSHED.with(|h| h.set(false));
        }
    }
    HUSHED.with(|h| h.set(true));
    let _unhush = Unhush;
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{arch_neighborhood, collect};

    #[test]
    fn serial_and_threaded_map_agree_and_preserve_order() {
        let items: Vec<usize> = (0..100).collect();
        let square = |i: usize, &x: &usize| {
            assert_eq!(i, x, "index must match item position");
            x * x
        };
        let serial = Serial.map(&items, square);
        for workers in [2, 3, 8, 64] {
            let threaded = Threaded::new(workers).map(&items, square);
            assert_eq!(serial, threaded, "{workers} workers");
        }
        assert_eq!(serial.len(), 100);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn threaded_map_runs_every_item_exactly_once() {
        let items: Vec<usize> = (0..257).collect();
        let counter = AtomicUsize::new(0);
        let out = Threaded::new(4).map(&items, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out, items);
    }

    #[test]
    fn empty_batches_are_fine() {
        let items: Vec<u8> = Vec::new();
        assert!(Threaded::new(4).map(&items, |_, &x| x).is_empty());
        assert!(Serial.map(&items, |_, &x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        let _ = Threaded::new(4).map(&items, |_, &x| {
            assert!(x != 9, "boom");
            x
        });
    }

    #[test]
    fn jobs_spec_parses_like_documented() {
        assert_eq!(AnyExecutor::from_spec(""), AnyExecutor::serial());
        assert_eq!(AnyExecutor::from_spec("  "), AnyExecutor::serial());
        assert_eq!(AnyExecutor::from_spec("1"), AnyExecutor::serial());
        assert_eq!(
            AnyExecutor::from_spec("3"),
            AnyExecutor::Threaded(Threaded::new(3))
        );
        assert!(matches!(
            AnyExecutor::from_spec("auto"),
            AnyExecutor::Threaded(_)
        ));
        assert!(matches!(
            AnyExecutor::from_spec("0"),
            AnyExecutor::Threaded(_)
        ));
        assert_eq!(AnyExecutor::from_spec("lots"), AnyExecutor::serial());
        assert!(AnyExecutor::from_spec("4").workers() == 4);
    }

    #[test]
    fn bad_jobs_specs_are_errors_not_silent_serial() {
        // The strict parser names the bad spec; `from_spec` still falls
        // back to serial (with a one-time stderr warning) so a typo
        // cannot abort a long campaign.
        for bad in ["8x", "lots", "-2", "3.5", "auto8"] {
            let err = AnyExecutor::parse_spec(bad).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            assert_eq!(AnyExecutor::from_spec(bad), AnyExecutor::serial());
        }
        assert_eq!(
            AnyExecutor::parse_spec("auto"),
            Ok(AnyExecutor::with_jobs(0))
        );
        assert_eq!(
            AnyExecutor::parse_spec(" 2 "),
            Ok(AnyExecutor::with_jobs(2))
        );
    }

    #[test]
    fn poisoned_cursor_stops_claiming_after_a_panic() {
        let items: Vec<usize> = (0..500).collect();
        let executed = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Threaded::new(4).map(&items, |_, &x| {
                assert!(x != 3, "boom at 3");
                executed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(200));
                x
            })
        }));
        assert!(caught.is_err(), "panic must still re-raise");
        let ran = executed.load(Ordering::Relaxed);
        assert!(
            ran < items.len() - 1,
            "workers kept claiming jobs after the panic: {ran} of 500 ran"
        );
    }

    #[test]
    fn descriptor_hash_ignores_index_but_not_work() {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax],
            arch_configs: arch_neighborhood().into_iter().take(2).collect(),
            scale: Scale::tiny(),
        };
        let jobs = plan_jobs(&plan);
        let mut relabeled = jobs[0].clone();
        relabeled.index = 999;
        assert_eq!(relabeled.descriptor_hash(), jobs[0].descriptor_hash());
        // Same point, different arch → different work.
        assert_ne!(jobs[0].descriptor_hash(), jobs[1].descriptor_hash());
        // Same arch, different point → different work.
        assert_ne!(jobs[0].descriptor_hash(), jobs[2].descriptor_hash());
        assert!(jobs[0].describe().contains("atax"));
    }

    #[test]
    fn clean_run_is_the_same_under_either_fault_policy() {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax],
            arch_configs: arch_neighborhood().into_iter().take(2).collect(),
            scale: Scale::tiny(),
        };
        let jobs = plan_jobs(&plan);
        let (fail_fast_rows, _) =
            run_supervised(&Serial, &jobs, &CampaignOptions::default()).unwrap();
        let (rows, report) =
            run_supervised(&Serial, &jobs, &CampaignOptions::quarantine()).unwrap();
        assert_eq!(rows, fail_fast_rows);
        assert!(report.is_clean());
        assert_eq!(report.executed(), jobs.len());
        assert_eq!(report.restored, 0);
    }

    #[test]
    fn fail_fast_cancels_and_names_the_job() {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax],
            arch_configs: arch_neighborhood().into_iter().take(2).collect(),
            scale: Scale::tiny(),
        };
        let jobs = plan_jobs(&plan);
        let opts = CampaignOptions::default().with_injector(FaultInjector::new().panic_at(5));
        let err = run_supervised(&Serial, &jobs, &opts).unwrap_err();
        let NapelError::Job(failure) = err else {
            panic!("expected a job failure, got {err}");
        };
        assert_eq!(failure.index, 5);
        assert_eq!(failure.workload, "atax");
        assert_eq!(failure.params, jobs[5].coords);
        assert!(failure.arch.contains("num_pes"), "{}", failure.arch);
        assert!(matches!(failure.kind, JobFailureKind::Panic(_)));
    }

    #[test]
    fn plan_jobs_matches_plan_shape_and_order() {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax, Workload::Gemv],
            arch_configs: arch_neighborhood().into_iter().take(2).collect(),
            scale: Scale::tiny(),
        };
        let jobs = plan_jobs(&plan);
        // atax: 9 deduped points, gemv: 15; two archs each.
        assert_eq!(jobs.len(), (9 + 15) * 2);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
        }
        // Workload-major, arch-minor: the first two jobs share atax's
        // first point and differ only in architecture.
        assert_eq!(jobs[0].workload, Workload::Atax);
        assert_eq!(jobs[0].coords, jobs[1].coords);
        assert_ne!(jobs[0].arch, jobs[1].arch);
        assert_eq!(jobs[18].workload, Workload::Gemv);
    }

    #[test]
    fn profile_cache_shares_analyses_across_arch_configs() {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax],
            arch_configs: arch_neighborhood().into_iter().take(3).collect(),
            scale: Scale::tiny(),
        };
        let jobs = plan_jobs(&plan);
        assert_eq!(jobs.len(), 27);
        let cache = ProfileCache::for_jobs(&jobs);
        // 9 distinct points, not 27: three arch configs share each
        // analysis.
        assert_eq!(cache.len(), 9);
        let first = cache.profiled(&jobs[0]) as *const ProfiledPoint;
        let second = cache.profiled(&jobs[1]) as *const ProfiledPoint;
        assert_eq!(first, second, "same point must share one analysis");
    }

    #[test]
    fn encoded_traces_are_at_least_4x_smaller() {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax],
            arch_configs: arch_neighborhood().into_iter().take(1).collect(),
            scale: Scale::tiny(),
        };
        let jobs = plan_jobs(&plan);
        let cache = ProfileCache::for_jobs(&jobs);
        for job in &jobs {
            let point = cache.profiled(job);
            let trace = point.trace.read().unwrap();
            let enc = trace.as_ref().expect("no job has simulated yet");
            assert!(
                enc.encoded_bytes() * 4 <= enc.materialized_bytes(),
                "{}: {} encoded vs {} materialized bytes",
                job.describe(),
                enc.encoded_bytes(),
                enc.materialized_bytes()
            );
        }
    }

    #[test]
    fn a_point_drops_its_trace_after_its_last_timing_class() {
        // Atax's first point runs at most 16 threads, so the base, 16-PE
        // and 2.5 GHz machines of the neighborhood share one class: six
        // jobs, four classes.
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax],
            arch_configs: arch_neighborhood(),
            scale: Scale::tiny(),
        };
        let jobs: Vec<SimJob> = plan_jobs(&plan)
            .into_iter()
            .take(arch_neighborhood().len())
            .collect();
        let cache = ProfileCache::for_jobs(&jobs);
        let point = cache.profiled(&jobs[0]);
        assert_eq!(point.runs.len(), 4);
        let held = || point.trace.read().unwrap().is_some();
        for (i, job) in jobs.iter().enumerate() {
            assert!(held(), "job {i}: a class still lacks its report");
            execute_job(job, &cache, None).expect("clean job");
            let pending = point.runs.iter().any(|r| r.report.get().is_none());
            assert_eq!(held(), pending, "after job {i}");
        }
        assert!(!held(), "every class has its report");
        // A job of a finished class retargets its report without the trace.
        let (_, simulate_seconds) = execute_job(&jobs[2], &cache, None).expect("clean job");
        assert_eq!(simulate_seconds, 0.0, "no second simulation");
    }

    /// The headline guarantee: a threaded campaign's output is exactly the
    /// serial campaign's output — rows, ordering, features and labels —
    /// for a 2-workload × 3-architecture batch.
    #[test]
    fn threaded_campaign_output_is_identical_to_serial() {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax, Workload::Gemv],
            arch_configs: arch_neighborhood().into_iter().take(3).collect(),
            scale: Scale::tiny(),
        };
        let opts = CampaignOptions::default();
        let (serial, _) = collect(&plan, &Serial, &opts).unwrap();
        let (threaded, _) = collect(&plan, &Threaded::new(3), &opts).unwrap();
        assert_eq!(serial.feature_names, threaded.feature_names);
        assert_eq!(
            serial.runs, threaded.runs,
            "parallel campaign must be bit-identical to serial"
        );
        // Timing stats are wall-clock measurements, not part of the
        // determinism guarantee — but both must have done real work.
        assert!(serial.stats.simulate_seconds > 0.0);
        assert!(threaded.stats.simulate_seconds > 0.0);
    }
}

//! Simulation engines: the phase-split engine and the reference loop.
//!
//! The NMC machine's own structure — private PE frontends, independent
//! per-vault DRAM controllers, one crossbar between them — is mirrored by
//! the phase-split engine ([`SimEngine`]), which replaces the reference
//! engine's one-heap-transaction-per-instruction interleave with four
//! phases per iteration:
//!
//! 1. **Frontend run-ahead** — every runnable [`frontend`](PeFrontend)
//!    replays its instruction streams (same arithmetic as
//!    [`ProcessingElement::step`](crate::pe::ProcessingElement::step)),
//!    emitting pre-routed memory requests into its own FIFO until it must
//!    consume an unresolved load (stall-on-use) or exhausts its streams.
//!    No heap operation on a non-empty FIFO, no DRAM call, no allocation
//!    per instruction.
//! 2. **Horizon** — the minimum replay-order key any blocked frontend can
//!    still emit, read from a dense per-PE array. Requests below it are
//!    final.
//! 3. **Merged drain** — the FIFOs, merged by a min-heap of their head
//!    keys, serve every request below the horizon in key order. In-flight
//!    loads resolve through an arena slab; resolving an awaited slot makes
//!    its PE runnable again.
//! 4. **Wake** — woken frontends re-enter phase 1.
//!
//! Bit-exactness versus the reference engine is by construction: the
//! reference heap pops in ascending `(PE cycle, PE index)` order, so its
//! global DRAM access sequence is the ascending-key order of
//! `(step-start cycle, pe, per-PE seq)` — exactly the [`ReqKey`] the
//! frontends stamp on each request. Per-vault DRAM state depends only on
//! that vault's own subsequence (counters are commutative sums), which the
//! key-ordered drain reproduces; and the only feedback from shared state
//! into PE timing is a consumed load's completion, which the stall-on-use
//! rule waits for. The differential suite in `tests/sim_engine.rs` enforces
//! field-identical [`SimReport`]s across every kernel; the equivalence
//! argument is spelled out in DESIGN.md §11.

mod arena;
mod frontend;
mod queues;
mod reference;

use napel_ir::{Inst, MultiTrace};
use napel_telemetry::LogHistogram;

use crate::components::cache::CacheStats;
use crate::components::dram::DramModel;
use crate::components::energy::{EnergyBreakdown, EnergyModel};
use crate::config::{ArchConfig, TimingClass};
use crate::report::SimReport;

use arena::{LoadArena, ReqKey};
use frontend::{EngineShared, FrontendStatus, PeFrontend};
use queues::RequestQueues;

/// The simulated NMC system of Figure 2 / Table 3.
///
/// Software threads map round-robin onto PEs; a PE with several threads runs
/// them back-to-back. PEs contend for shared DRAM banks and vault buses in
/// global time order. [`run`](Self::run)/[`run_streams`](Self::run_streams)
/// use the phase-split engine; the
/// [`run_reference`](Self::run_reference) pair runs the original globally
/// interleaved loop, kept as the bit-exactness oracle and benchmark
/// baseline.
#[derive(Debug)]
pub struct NmcSystem {
    config: ArchConfig,
    energy_model: EnergyModel,
}

impl NmcSystem {
    /// Creates a system for the given configuration, with the default
    /// (HMC-class) energy model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`ArchConfig::validate`]).
    pub fn new(config: ArchConfig) -> Self {
        config.validate();
        NmcSystem {
            config,
            energy_model: EnergyModel::default(),
        }
    }

    /// Replaces the energy model.
    pub fn with_energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = model;
        self
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    pub(crate) fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// The [`TimingClass`] of a run of `num_threads` software threads on
    /// this system: systems of one class simulate a trace identically.
    pub fn timing_class(&self, num_threads: usize) -> TimingClass {
        TimingClass::new(&self.config, &self.energy_model, num_threads)
    }

    /// This system's report for a trace, derived exactly from `report`,
    /// the report of a system of the same [`TimingClass`] for that trace.
    /// Every simulated field is kept; `freq_ghz` and the static energy,
    /// which depend on this system's clock and configured PE count, are
    /// recomputed.
    pub fn retarget(&self, report: &SimReport) -> SimReport {
        SimReport {
            freq_ghz: self.config.freq_ghz,
            energy: EnergyBreakdown {
                static_pj: self.static_energy_pj(report.cycles),
                ..report.energy
            },
            ..report.clone()
        }
    }

    /// Static energy of a run of `cycles` core cycles, in picojoules. All
    /// configured PEs burn static power, active or not.
    fn static_energy_pj(&self, cycles: u64) -> f64 {
        let (cfg, e) = (&self.config, &self.energy_model);
        let seconds = cycles as f64 * cfg.cycle_seconds();
        (cfg.num_pes as f64 * e.pe_static_w + e.dram_static_w) * seconds * 1e12
    }

    /// Simulates one kernel execution: [`run_streams`](Self::run_streams)
    /// over the trace's per-thread instruction slices.
    ///
    /// When telemetry is enabled, the run is wrapped in an `nmc_sim.run`
    /// span and the report's cache/DRAM counters are mirrored into the
    /// metrics registry after the fact — instrumentation never touches
    /// the timing model, so cycle results are bit-identical either way.
    pub fn run(&self, trace: &MultiTrace) -> SimReport {
        self.run_streams(slice_streams(trace))
    }

    /// Simulates one kernel execution from per-thread instruction streams,
    /// without ever materializing a [`MultiTrace`].
    ///
    /// `streams[t]` is software thread `t`'s instruction stream, in program
    /// order — e.g. [`napel_ir::EncodedTrace::thread_iter`] decoding a
    /// compact trace on the fly. Each stream is pulled lazily, exactly once
    /// per instruction, as its PE advances; peak residency is one
    /// instruction per stream plus whatever the iterators themselves hold.
    ///
    /// [`run`](Self::run) feeds a materialized trace through here, so both
    /// entry points produce bit-identical [`SimReport`]s and identical
    /// telemetry for the same instruction sequences. `ExactSizeIterator` is
    /// required only to report the total instruction count on the
    /// `nmc_sim.run` span before simulation starts.
    ///
    /// Campaign code that simulates many jobs per worker should hold a
    /// [`SimEngine`] and call [`SimEngine::run_streams`] instead, which
    /// reuses all engine-owned buffers across runs.
    pub fn run_streams<I>(&self, streams: Vec<I>) -> SimReport
    where
        I: ExactSizeIterator<Item = Inst>,
    {
        SimEngine::new().run_streams(self, streams)
    }

    /// [`run`](Self::run) on the reference engine (the original global
    /// min-heap interleave). Exists as the differential-test oracle.
    pub fn run_reference(&self, trace: &MultiTrace) -> SimReport {
        self.run_streams_reference(slice_streams(trace))
    }

    /// [`run_streams`](Self::run_streams) on the reference engine.
    pub fn run_streams_reference<I>(&self, streams: Vec<I>) -> SimReport
    where
        I: ExactSizeIterator<Item = Inst>,
    {
        reference::run_streams(self, streams)
    }
}

/// A materialized trace as per-thread instruction streams.
fn slice_streams(trace: &MultiTrace) -> Vec<std::iter::Copied<std::slice::Iter<'_, Inst>>> {
    trace.iter().map(|t| t.insts().iter().copied()).collect()
}

/// The phase-split simulation engine, with all working state owned and
/// reused across runs: frontends (caches, scoreboards), the DRAM model,
/// per-PE request queues, the in-flight-load arena, and the scheduler's
/// work lists. A campaign worker holds one `SimEngine` and simulates every
/// job through it. Consecutive jobs simulate one trace on several
/// [`ArchConfig`]s, so frontends and their trace-sized scoreboards
/// survive configuration changes, and only a cache or DRAM model whose
/// geometry changed is rebuilt; a trace of another shape starts from
/// fresh frontends. A run allocates its report's per-vault vector, and
/// otherwise only for a new trace shape, a changed cache or DRAM
/// geometry, more PEs than the trace's earlier runs used (frontends), or
/// more PEs than the run just before it used (the request FIFOs, which
/// follow each run's PE count).
#[derive(Debug, Default)]
pub struct SimEngine {
    /// Grows to the most PEs a run of this trace used; a run uses a prefix.
    frontends: Vec<PeFrontend>,
    dram: Option<DramModel>,
    arena: LoadArena,
    queues: RequestQueues,
    runnable: Vec<u32>,
    /// Per PE: the key of its next request while it is blocked, and
    /// `ReqKey::MAX` while it is runnable or exhausted.
    blocked: Vec<ReqKey>,
    /// `(threads, instructions)` of the trace the frontends last ran.
    trace_shape: (usize, u64),
}

impl SimEngine {
    /// Creates an empty engine; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all run state for `cfg`, keeping every allocation whose
    /// shape still fits. Frontends start afresh when the trace's shape
    /// (threads, instructions) changes, so scoreboards grown for one trace
    /// do not stay resident through the next.
    fn prepare(&mut self, cfg: &ArchConfig, num_pes: usize, trace_shape: (usize, u64)) {
        if self.trace_shape != trace_shape {
            self.frontends.clear();
            self.trace_shape = trace_shape;
        }
        for f in self.frontends.iter_mut().take(num_pes) {
            f.reset_for(cfg);
        }
        while self.frontends.len() < num_pes {
            self.frontends
                .push(PeFrontend::new(self.frontends.len() as u32, cfg));
        }
        for t in 0..trace_shape.0 {
            self.frontends[t % num_pes].assign_thread(t);
        }
        match &mut self.dram {
            Some(d) => d.reset_for(cfg),
            None => self.dram = Some(DramModel::new(cfg)),
        }
        self.arena.reset();
        self.queues.reset_to(num_pes);
        self.runnable.clear();
        self.blocked.clear();
        self.blocked.resize(num_pes, ReqKey::MAX);
    }

    /// Simulates per-thread streams on `system`. Equivalent to
    /// [`NmcSystem::run_streams`] but reuses this engine's buffers.
    pub fn run_streams<I>(&mut self, system: &NmcSystem, mut streams: Vec<I>) -> SimReport
    where
        I: ExactSizeIterator<Item = Inst>,
    {
        let cfg = system.config();
        let num_threads = streams.len();
        let total_insts: u64 = streams.iter().map(|s| s.len() as u64).sum();
        let telemetry = napel_telemetry::global();
        let _span = telemetry
            .span("nmc_sim.run")
            .attr("threads", num_threads)
            .attr("insts", total_insts);
        let num_pes = cfg.effective_pes(num_threads);
        self.prepare(cfg, num_pes, (num_threads, total_insts));
        // A consumed load's completion leaves the vault, re-crosses the
        // crossbar, and fills the L1 (reference: `data + xbar + hit`).
        let load_extra = cfg.xbar_latency + cfg.cache_hit_latency;

        let SimEngine {
            frontends,
            dram,
            arena,
            queues,
            runnable,
            blocked,
            ..
        } = self;
        let frontends = &mut frontends[..num_pes];
        let dram = dram.as_mut().expect("prepared");
        let geometry = *dram.geometry();
        let energy = system.energy_model();

        let mut rounds = 0u64;
        runnable.extend(0..num_pes as u32);
        loop {
            // Phase 1: run-ahead. Afterwards every frontend is blocked on an
            // unresolved load or exhausted, so the queues hold everything
            // that can exist below the horizon.
            while let Some(p) = runnable.pop() {
                let mut sh = EngineShared {
                    arena: &mut *arena,
                    queues: &mut *queues,
                    geometry,
                    energy,
                };
                let f = &mut frontends[p as usize];
                if f.advance(&mut streams, &mut sh) == FrontendStatus::Blocked {
                    blocked[p as usize] = f.next_key();
                }
            }
            // Phase 2: the synchronization horizon. Blocked frontends only
            // ever emit at or above their next key, so queued requests
            // below the minimum are final. All entries at `MAX`: nothing
            // is blocked.
            let horizon = *blocked.iter().min().expect("a run has a PE");
            if horizon == ReqKey::MAX {
                break;
            }
            rounds += 1;
            // Phases 3 and 4: the merged drain up to the horizon; a resolved
            // awaited load wakes its PE. The minimum-key blocked PE's
            // awaited load has a strictly smaller key than the horizon (it
            // was emitted at an earlier seq), so every round wakes at least
            // one PE.
            queues.drain_below(horizon, dram, |req, done| {
                if let Some(slot) = req.slot {
                    if let Some(pe) = arena.resolve(slot, done + load_extra) {
                        blocked[pe as usize] = ReqKey::MAX;
                        runnable.push(pe);
                    }
                }
            });
            assert!(!runnable.is_empty(), "phase-split engine made no progress");
        }
        // Final drain: nothing is blocked, so every queued request is final.
        queues.drain_below(ReqKey::MAX, dram, |req, done| {
            if let Some(slot) = req.slot {
                arena.resolve(slot, done + load_extra);
            }
        });
        // Completions of never-consumed loads still bound the makespan.
        for f in frontends.iter_mut() {
            f.sweep(arena);
        }

        let report = assemble_report(
            system,
            frontends.iter().map(|f| PeSummary {
                instructions: f.instructions(),
                finish_cycle: f.finish_cycle(),
                dcache: f.dcache_stats(),
                icache: f.icache_stats(),
                compute_energy_pj: f.compute_energy_pj(),
            }),
            dram,
        );
        if telemetry.is_enabled() {
            record_report_counters(&telemetry, &report);
            telemetry.counter("nmc_sim.rounds", rounds);
            let mut peak = LogHistogram::new();
            peak.observe(arena.peak() as f64);
            telemetry.merge_log_histogram("nmc_sim.arena_inflight.peak", &peak);
        }
        report
    }
}

/// One PE's contribution to the report, in PE-index order. Both engines
/// reduce through this so the floating-point accumulation order (and thus
/// the energy fields) is identical bit for bit.
pub(crate) struct PeSummary {
    pub instructions: u64,
    pub finish_cycle: u64,
    pub dcache: CacheStats,
    pub icache: CacheStats,
    pub compute_energy_pj: f64,
}

pub(crate) fn assemble_report(
    system: &NmcSystem,
    pes: impl Iterator<Item = PeSummary>,
    dram: &DramModel,
) -> SimReport {
    let mut instructions = 0u64;
    let mut cycles = 0u64;
    let mut dcache = CacheStats::default();
    let mut icache = CacheStats::default();
    let mut pe_dynamic_pj = 0.0;
    let mut active_pes = 0usize;
    for p in pes {
        instructions += p.instructions;
        cycles = cycles.max(p.finish_cycle);
        dcache.accesses += p.dcache.accesses;
        dcache.hits += p.dcache.hits;
        dcache.writebacks += p.dcache.writebacks;
        icache.accesses += p.icache.accesses;
        icache.hits += p.icache.hits;
        icache.writebacks += p.icache.writebacks;
        pe_dynamic_pj += p.compute_energy_pj;
        if p.instructions > 0 {
            active_pes += 1;
        }
    }

    let e = system.energy_model();
    let ds = dram.stats();
    let cache_pj = (dcache.accesses + icache.accesses) as f64 * e.cache_access_pj
        + (dcache.misses() + icache.misses()) as f64 * e.cache_fill_pj;
    let dram_dynamic_pj = ds.activations as f64 * e.dram_activate_pj
        + ds.reads as f64 * e.dram_read_pj
        + ds.writes as f64 * e.dram_write_pj;

    SimReport {
        instructions,
        cycles,
        freq_ghz: system.config().freq_ghz,
        dcache,
        icache,
        dram: ds,
        energy: EnergyBreakdown {
            pe_dynamic_pj,
            cache_pj,
            dram_dynamic_pj,
            static_pj: system.static_energy_pj(cycles),
        },
        active_pes,
        vault_accesses: dram.vault_accesses(),
    }
}

/// Mirrors a finished report's counters into the telemetry registry.
/// Counters accumulate across runs within one drain window, giving the
/// aggregate memory-system picture of a whole campaign.
pub(crate) fn record_report_counters(telemetry: &napel_telemetry::Telemetry, report: &SimReport) {
    telemetry.counter("nmc_sim.runs", 1);
    telemetry.counter("nmc_sim.instructions", report.instructions);
    telemetry.counter("nmc_sim.dcache.accesses", report.dcache.accesses);
    telemetry.counter("nmc_sim.dcache.hits", report.dcache.hits);
    telemetry.counter("nmc_sim.icache.accesses", report.icache.accesses);
    telemetry.counter("nmc_sim.icache.hits", report.icache.hits);
    telemetry.counter("nmc_sim.dram.reads", report.dram.reads);
    telemetry.counter("nmc_sim.dram.writes", report.dram.writes);
    telemetry.counter("nmc_sim.dram.row_hits", report.dram.row_hits);
    telemetry.counter("nmc_sim.dram.conflicts", report.dram.conflicts);
    for (i, &accesses) in report.vault_accesses.iter().enumerate() {
        if accesses > 0 {
            telemetry.counter(&format!("nmc_sim.vault.{i}.accesses"), accesses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RowPolicy;
    use napel_ir::Emitter;

    fn streaming(threads: usize, n: u64) -> MultiTrace {
        let mut t = MultiTrace::new(threads);
        for th in 0..threads {
            let mut e = Emitter::new(t.thread_sink(th));
            for i in 0..n {
                let base = (th as u64) << 24;
                let x = e.load(0, base + 8 * i, 8);
                let y = e.fmul(1, x, x);
                e.store(2, base + 0x80_0000 + 8 * i, 8, y);
            }
        }
        t
    }

    fn compute_bound(threads: usize, n: u64) -> MultiTrace {
        let mut t = MultiTrace::new(threads);
        for th in 0..threads {
            let mut e = Emitter::new(t.thread_sink(th));
            let mut acc = e.imm(0);
            for _ in 0..n {
                let x = e.imm(1);
                acc = e.fadd(2, acc, x);
            }
        }
        t
    }

    #[test]
    fn report_is_internally_consistent() {
        let r = NmcSystem::new(ArchConfig::paper_default()).run(&streaming(4, 200));
        assert_eq!(r.instructions, 4 * 600);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0 && r.ipc() <= 4.0);
        assert!(r.energy_joules() > 0.0);
        assert_eq!(r.active_pes, 4);
        assert_eq!(r.dcache.accesses, 4 * 400);
    }

    #[test]
    fn simulation_is_deterministic() {
        let t = streaming(3, 100);
        let sys = NmcSystem::new(ArchConfig::paper_default());
        assert_eq!(sys.run(&t), sys.run(&t));
    }

    #[test]
    fn phase_engine_matches_reference_engine() {
        // The tentpole invariant, in miniature (the full 12-kernel sweep
        // lives in tests/sim_engine.rs): field-identical SimReports for
        // shared-PE, contended, and compute-bound shapes under both row
        // policies.
        for cfg in [
            ArchConfig::paper_default(),
            ArchConfig {
                num_pes: 3,
                row_policy: RowPolicy::Open,
                issue_width: 2,
                ..ArchConfig::paper_default()
            },
        ] {
            let sys = NmcSystem::new(cfg);
            for t in [streaming(8, 150), compute_bound(2, 300)] {
                assert_eq!(sys.run(&t), sys.run_reference(&t));
            }
        }
    }

    /// `streaming`, then a few loads per thread that nothing consumes, so
    /// every run ends with loads in flight (and, where threads share a PE,
    /// a later thread's defs shadow an earlier thread's in-flight loads).
    fn trailing_loads(threads: usize, n: u64) -> MultiTrace {
        let mut t = streaming(threads, n);
        for th in 0..threads {
            let mut e = Emitter::new(t.thread_sink(th));
            for i in 0..4u64 {
                e.load(3, ((th as u64) << 26) | (i << 12), 8);
            }
        }
        t
    }

    #[test]
    fn engine_reuse_across_runs_matches_fresh_engine() {
        // One engine simulating different traces and configs back to back
        // must leave no state behind between runs. The six configurations
        // are the campaign's `arch_neighborhood()` (napel-core), cycled
        // point by point the way a campaign worker meets them, twice, each
        // fed from encoded streams as the campaign feeds it; the thread
        // counts sit below, between and above their 16 and 32 PEs.
        let base = ArchConfig::paper_default();
        let neighborhood = [
            base.clone(),
            ArchConfig {
                num_pes: 16,
                ..base.clone()
            },
            ArchConfig {
                freq_ghz: 2.5,
                ..base.clone()
            },
            ArchConfig {
                cache_lines: 8,
                ..base.clone()
            },
            ArchConfig {
                vaults: 16,
                dram_layers: 4,
                ..base.clone()
            },
            ArchConfig {
                issue_width: 2,
                ..base
            },
        ];
        let traces = [
            trailing_loads(9, 60),
            compute_bound(2, 200),
            trailing_loads(24, 40),
            trailing_loads(40, 30),
        ];
        let mut engine = SimEngine::new();
        for round in 0..2 {
            for (ti, t) in traces.iter().enumerate() {
                let enc = napel_ir::EncodedTrace::from_multi(t);
                for cfg in &neighborhood {
                    let sys = NmcSystem::new(cfg.clone());
                    assert_eq!(
                        engine.run_streams(&sys, enc.thread_iters()),
                        sys.run(t),
                        "round {round}, trace {ti}: {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_pes_speed_up_parallel_work() {
        let t = streaming(8, 300);
        let one = NmcSystem::new(ArchConfig {
            num_pes: 1,
            ..ArchConfig::paper_default()
        });
        let eight = NmcSystem::new(ArchConfig {
            num_pes: 8,
            ..ArchConfig::paper_default()
        });
        let r1 = one.run(&t);
        let r8 = eight.run(&t);
        // Streaming is memory-bound, so scaling is sublinear (vault/bank
        // contention) but must still be substantial.
        assert!(
            r8.cycles * 2 < r1.cycles,
            "8 PEs should be much faster: {} vs {} cycles",
            r8.cycles,
            r1.cycles
        );
        // Same total work either way.
        assert_eq!(r1.instructions, r8.instructions);
    }

    #[test]
    fn memory_bound_ipc_below_compute_bound_ipc() {
        let sys = NmcSystem::new(ArchConfig {
            num_pes: 2,
            ..ArchConfig::paper_default()
        });
        let mem = sys.run(&streaming(2, 400));
        let cpu = sys.run(&compute_bound(2, 400));
        assert!(
            mem.ipc() < cpu.ipc(),
            "streaming ({}) must be slower than compute-bound ({})",
            mem.ipc(),
            cpu.ipc()
        );
    }

    #[test]
    fn threads_beyond_pes_serialize() {
        let t = streaming(8, 100);
        let sys = NmcSystem::new(ArchConfig {
            num_pes: 2,
            ..ArchConfig::paper_default()
        });
        let r = sys.run(&t);
        assert_eq!(r.active_pes, 2);
        assert_eq!(r.instructions, 8 * 300);
    }

    #[test]
    fn higher_frequency_shortens_time_not_cycles_for_compute() {
        let t = compute_bound(1, 500);
        let slow = NmcSystem::new(ArchConfig {
            freq_ghz: 1.0,
            ..ArchConfig::paper_default()
        });
        let fast = NmcSystem::new(ArchConfig {
            freq_ghz: 2.0,
            ..ArchConfig::paper_default()
        });
        let rs = slow.run(&t);
        let rf = fast.run(&t);
        assert_eq!(
            rs.cycles, rf.cycles,
            "cycle counts are frequency-independent here"
        );
        assert!(rf.exec_time_seconds() < rs.exec_time_seconds());
    }

    #[test]
    fn run_streams_matches_run_on_decoded_trace() {
        // Simulating straight from compact-encoded per-thread iterators
        // must be bit-identical to simulating the materialized trace,
        // including when threads outnumber PEs and share them.
        for (threads, num_pes) in [(1usize, 4usize), (4, 4), (8, 3)] {
            let t = streaming(threads, 200);
            let enc = napel_ir::EncodedTrace::from_multi(&t);
            let sys = NmcSystem::new(ArchConfig {
                num_pes,
                ..ArchConfig::paper_default()
            });
            let materialized = sys.run(&t);
            let streamed = sys.run_streams(enc.thread_iters());
            assert_eq!(streamed, materialized, "{threads} threads / {num_pes} PEs");
        }
    }

    #[test]
    fn run_streams_with_no_threads_matches_empty_trace() {
        let sys = NmcSystem::new(ArchConfig::paper_default());
        let empty: Vec<napel_ir::DecodeIter<'_>> = Vec::new();
        let r = sys.run_streams(empty);
        assert_eq!(r.instructions, 0);
        assert_eq!(r, sys.run(&MultiTrace::default()));
        assert_eq!(r, sys.run_reference(&MultiTrace::default()));
    }

    #[test]
    fn dram_traffic_matches_cache_misses() {
        let r = NmcSystem::new(ArchConfig::paper_default()).run(&streaming(1, 512));
        // Every D-miss fetches a line; dirty evictions add writes.
        assert_eq!(r.dram.reads, r.dcache.misses());
        assert_eq!(r.dram.writes, r.dcache.writebacks);
    }

    #[test]
    fn bigger_cache_cuts_dram_traffic() {
        // A reuse-heavy kernel: repeated sweep over 16 KiB.
        let mut t = MultiTrace::new(1);
        let mut e = Emitter::new(t.thread_sink(0));
        for _ in 0..4 {
            for i in 0..2048u64 {
                e.load(0, 8 * i, 8);
            }
        }
        drop(e);
        let tiny = NmcSystem::new(ArchConfig::paper_default()).run(&t);
        let big = NmcSystem::new(ArchConfig {
            cache_lines: 512, // 32 KiB
            ..ArchConfig::paper_default()
        })
        .run(&t);
        assert!(
            big.dram.reads < tiny.dram.reads / 2,
            "32KiB cache should absorb the sweep: {} vs {}",
            big.dram.reads,
            tiny.dram.reads
        );
        assert!(big.cycles < tiny.cycles);
    }
}

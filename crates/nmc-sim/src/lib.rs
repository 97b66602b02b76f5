//! Trace-driven cycle-level near-memory-computing simulator.
//!
//! This is the reproduction's stand-in for Ramulator extended with the
//! `ramulator-pim` 3D-stacked model (Section 3.1 of the NAPEL paper). It
//! simulates the Table 3 NMC system: single-issue in-order processing
//! elements embedded in the logic layer of an HMC-like stacked memory —
//! 32 vaults × 8 DRAM layers, 256 B row buffer, closed-row policy, tiny
//! 2-way private L1 caches of two 64 B lines — and reports cycles, IPC,
//! energy, and event breakdowns for a kernel's dynamic instruction trace.
//!
//! The paper uses the simulator as a black-box oracle: DoE-selected kernel
//! runs are simulated to label NAPEL's training set with `IPC(k, d, a)` and
//! energy. Everything NAPEL learns, it learns from this crate's
//! [`SimReport`]s.
//!
//! # Organization
//!
//! The crate splits along the engine/component seam: `components` holds the
//! hardware state-and-timing models, `engine` decides who accesses what in
//! which order (and contains both the phase-split engine and the reference
//! interleaved loop it is bit-exact against).
//!
//! - [`ArchConfig`] — the architectural design configuration `a`, including
//!   the Table 1 architectural feature encoding for the ML model,
//! - [`cache`] — set-associative write-back/write-allocate LRU caches,
//! - [`dram`] — per-vault bank timing (closed- or open-row) and counters,
//! - [`pe`] — the in-order single-issue core model,
//! - [`NmcSystem`] — the full system: runs a [`napel_ir::MultiTrace`],
//!   and [`retarget`](NmcSystem::retarget)s a report simulated on another
//!   system of the same [`TimingClass`] instead of simulating again,
//! - [`SimEngine`] — the reusable phase-split engine (per-PE frontends,
//!   per-PE request queues merged by key, arena-allocated in-flight loads)
//!   for callers that simulate many runs and want to reuse its buffers,
//! - [`energy`] — the per-event energy model,
//! - [`SimReport`] — results.
//!
//! # Example
//!
//! ```
//! use napel_ir::{Emitter, MultiTrace};
//! use nmc_sim::{ArchConfig, NmcSystem};
//!
//! let mut t = MultiTrace::new(2);
//! for th in 0..2 {
//!     let mut e = Emitter::new(t.thread_sink(th));
//!     for i in 0..100u64 {
//!         let x = e.load(0, (th as u64) * 0x10_0000 + 8 * i, 8);
//!         let y = e.fmul(1, x, x);
//!         e.store(2, (th as u64) * 0x20_0000 + 8 * i, 8, y);
//!     }
//! }
//! let report = NmcSystem::new(ArchConfig::paper_default()).run(&t);
//! assert_eq!(report.instructions, 600);
//! assert!(report.ipc() > 0.0 && report.energy_joules() > 0.0);
//! ```

mod components;
mod config;
mod engine;
mod report;

pub use components::{cache, dram, energy, link, pe};

pub use config::{ArchConfig, DramTiming, RowPolicy, TimingClass};
pub use engine::{NmcSystem, SimEngine};
pub use link::LinkConfig;
pub use report::SimReport;

// The campaign engine in `napel-core` simulates from multiple worker
// threads; the simulator's public surface must stay shareable (no interior
// mutability — `NmcSystem::run` takes `&self` and builds all per-run state
// locally; the reusable `SimEngine` is `Send` so each worker owns one).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<ArchConfig>();
    assert_send_sync::<DramTiming>();
    assert_send_sync::<RowPolicy>();
    assert_send_sync::<TimingClass>();
    assert_send_sync::<LinkConfig>();
    assert_send_sync::<SimReport>();
    assert_send_sync::<NmcSystem>();
    assert_send::<SimEngine>();
};

//! Microarchitecture-independent workload characterization — the PISA
//! analog.
//!
//! Phase ① of NAPEL (both training and prediction) characterizes the
//! instrumented kernel "in a microarchitecture-independent manner": nothing
//! in the profile depends on cache sizes, core counts, or DRAM organization.
//! The paper uses the LLVM-based PISA tool (Anghel et al., IJPP 2016) and
//! extracts ~395 features per (kernel, dataset) pair. This crate computes
//! the same statistics over the dynamic IR stream of
//! [`napel_ir::MultiTrace`]:
//!
//! - **instruction mix** ([`mix`]) — fraction of each opcode and class,
//! - **ILP** ([`ilp`]) — instructions per cycle on an ideal machine, for a
//!   range of scheduling windows,
//! - **data/instruction reuse distance** ([`reuse`]) — the probability of
//!   reusing an element before touching δ other unique elements, for δ at
//!   every power of two (exact LRU stack distance over a bitmap of live
//!   accesses),
//! - **memory traffic** ([`traffic`]) — the fraction of reads/writes that
//!   escape an ideal fully-associative cache of a given capacity,
//! - **register traffic** ([`mix`]) and **memory footprint** — the distinct
//!   elements read, written and touched, and the distinct static
//!   instructions, which are the first-touch (cold) accesses of the reuse
//!   trackers,
//!
//! all flattened into one [`ApplicationProfile`] feature vector with stable
//! names ([`feature_names`]).
//!
//! # Example
//!
//! ```
//! use napel_ir::{Emitter, MultiTrace};
//! use napel_pisa::ApplicationProfile;
//!
//! let mut t = MultiTrace::new(1);
//! let mut e = Emitter::new(t.thread_sink(0));
//! for i in 0..64u64 {
//!     let x = e.load(0, 8 * i, 8);
//!     let y = e.fmul(1, x, x);
//!     e.store(2, 8 * i, 8, y);
//! }
//! drop(e);
//! let p = ApplicationProfile::of(&t);
//! assert_eq!(p.values().len(), napel_pisa::feature_names().len());
//! assert!(p.value("mix.class.mem_read") > 0.3);
//! ```

pub mod ilp;
pub mod mix;
mod profile;
pub mod reuse;
pub mod traffic;

pub use profile::{feature_names, ApplicationProfile, ProfileObserver, NUM_REUSE_BUCKETS};

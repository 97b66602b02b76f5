//! Dynamic instruction-level intermediate representation for the NAPEL
//! reproduction.
//!
//! The NAPEL paper instruments application kernels with an LLVM plugin and
//! observes the resulting *dynamic* instruction stream: opcodes, register
//! operands, and memory addresses. Everything downstream — the
//! microarchitecture-independent PISA profile and the trace-driven NMC
//! simulator — consumes exactly that stream. This crate defines the stream
//! format ([`Inst`]), containers ([`Trace`], [`MultiTrace`]), streaming
//! consumers ([`TraceSink`]), and an ergonomic [`Emitter`] that workload
//! kernels use to produce well-formed streams.
//!
//! # Example
//!
//! ```
//! use napel_ir::{Emitter, MultiTrace, Opcode};
//!
//! // A tiny kernel: c[i] = a[i] * b[i] for i in 0..4, on one thread.
//! let mut trace = MultiTrace::new(1);
//! let mut e = Emitter::new(trace.thread_sink(0));
//! for i in 0..4u64 {
//!     let a = e.load(10, 0x1000 + 8 * i, 8);
//!     let b = e.load(11, 0x2000 + 8 * i, 8);
//!     let c = e.fmul(12, a, b);
//!     e.store(13, 0x3000 + 8 * i, 8, c);
//!     e.branch(14);
//! }
//! assert_eq!(trace.total_insts(), 20);
//! assert_eq!(trace.thread(0).count_op(Opcode::FpMul), 4);
//! ```

mod emitter;
pub mod encode;
pub mod fxhash;
mod inst;
mod trace;

pub use emitter::Emitter;
pub use encode::{DecodeIter, EncodedTrace, EncodedTraceSink};
pub use inst::{Inst, OpClass, Opcode, Reg, NO_ADDR, NO_REG};
pub use trace::{
    CountingSink, MultiTrace, PerThread, TeeSink, ThreadedTraceSink, Trace, TraceSink,
};

//! Ergonomic construction of well-formed dynamic instruction streams.

use crate::inst::{Inst, Opcode, Reg, NO_REG};
use crate::trace::TraceSink;

/// Builds a dynamic instruction stream with SSA register management.
///
/// Workload kernels call value-producing methods ([`load`](Emitter::load),
/// [`fmul`](Emitter::fmul), ...) which allocate fresh virtual registers, and
/// value-consuming methods ([`store`](Emitter::store),
/// [`branch_on`](Emitter::branch_on)). Each call site passes a small static
/// `pc` identifying the source-level operation; dynamic instances of the same
/// operation share that `pc`, which is what instruction-reuse analysis keys
/// on.
///
/// Address-generation overhead: real compiled loop nests spend instructions
/// on index arithmetic. [`Emitter::load`]/[`Emitter::store`] model a folded
/// addressing mode (no extra instruction); kernels emit explicit
/// [`Emitter::addr_calc`] / [`Emitter::iadd`] operations where a compiler
/// would.
///
/// # Example
///
/// ```
/// use napel_ir::{Emitter, Trace};
///
/// let mut t = Trace::new();
/// let mut e = Emitter::new(&mut t);
/// let x = e.load(0, 0x100, 8);
/// let y = e.fmul(1, x, x);
/// e.store(2, 0x108, 8, y);
/// assert_eq!(t.len(), 3);
/// ```
#[derive(Debug)]
pub struct Emitter<S> {
    sink: S,
    next_reg: u32,
    emitted: u64,
}

impl<S: TraceSink> Emitter<S> {
    /// Creates an emitter writing to `sink`.
    pub fn new(sink: S) -> Self {
        Emitter {
            sink,
            next_reg: 0,
            emitted: 0,
        }
    }

    /// Consumes the emitter, returning the sink.
    pub fn into_inner(self) -> S {
        self.sink
    }

    /// Number of instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    #[inline]
    fn fresh(&mut self) -> u32 {
        let r = self.next_reg;
        // Wrapping keeps very long traces well-formed; reuse of register ids
        // after 2^32 values is harmless for the dataflow analyses (they track
        // the *latest* definition).
        self.next_reg = self.next_reg.wrapping_add(1);
        r
    }

    #[inline]
    fn push(&mut self, inst: Inst) {
        self.emitted += 1;
        self.sink.record(inst);
    }

    #[inline]
    fn binop(&mut self, pc: u32, op: Opcode, a: Reg, b: Reg) -> Reg {
        let d = self.fresh();
        self.push(Inst::compute(pc, op, d, [a.0, b.0]));
        Reg(d)
    }

    #[inline]
    fn unop(&mut self, pc: u32, op: Opcode, a: Reg) -> Reg {
        let d = self.fresh();
        self.push(Inst::compute(pc, op, d, [a.0, NO_REG]));
        Reg(d)
    }

    /// Materializes a constant / loop-invariant value.
    #[inline]
    pub fn imm(&mut self, pc: u32) -> Reg {
        let d = self.fresh();
        self.push(Inst::compute(pc, Opcode::Mov, d, [NO_REG, NO_REG]));
        Reg(d)
    }

    /// Emits a load of `size` bytes at `addr`, returning the loaded value.
    #[inline]
    pub fn load(&mut self, pc: u32, addr: u64, size: u8) -> Reg {
        let d = self.fresh();
        self.push(Inst::load(pc, addr, size, d, NO_REG));
        Reg(d)
    }

    /// Emits a load whose address depends on `idx` (e.g. indirect access).
    #[inline]
    pub fn load_indexed(&mut self, pc: u32, addr: u64, size: u8, idx: Reg) -> Reg {
        let d = self.fresh();
        self.push(Inst::load(pc, addr, size, d, idx.0));
        Reg(d)
    }

    /// Emits a store of `val` (`size` bytes) to `addr`.
    #[inline]
    pub fn store(&mut self, pc: u32, addr: u64, size: u8, val: Reg) {
        self.push(Inst::store(pc, addr, size, val.0, NO_REG));
    }

    /// Integer add/subtract/logic.
    #[inline]
    pub fn iadd(&mut self, pc: u32, a: Reg, b: Reg) -> Reg {
        self.binop(pc, Opcode::IntAlu, a, b)
    }

    /// Integer multiply.
    #[inline]
    pub fn imul(&mut self, pc: u32, a: Reg, b: Reg) -> Reg {
        self.binop(pc, Opcode::IntMul, a, b)
    }

    /// Integer divide.
    #[inline]
    pub fn idiv(&mut self, pc: u32, a: Reg, b: Reg) -> Reg {
        self.binop(pc, Opcode::IntDiv, a, b)
    }

    /// Floating-point add/subtract.
    #[inline]
    pub fn fadd(&mut self, pc: u32, a: Reg, b: Reg) -> Reg {
        self.binop(pc, Opcode::FpAdd, a, b)
    }

    /// Floating-point multiply.
    #[inline]
    pub fn fmul(&mut self, pc: u32, a: Reg, b: Reg) -> Reg {
        self.binop(pc, Opcode::FpMul, a, b)
    }

    /// Floating-point divide (also used for sqrt-class operations).
    #[inline]
    pub fn fdiv(&mut self, pc: u32, a: Reg, b: Reg) -> Reg {
        self.binop(pc, Opcode::FpDiv, a, b)
    }

    /// Fused multiply-accumulate lowered to mul+add (two instructions).
    #[inline]
    pub fn fma(&mut self, pc: u32, acc: Reg, a: Reg, b: Reg) -> Reg {
        let p = self.fmul(pc, a, b);
        self.fadd(pc.wrapping_add(1), acc, p)
    }

    /// Address-generation arithmetic (base + index * scale).
    #[inline]
    pub fn addr_calc(&mut self, pc: u32, a: Reg) -> Reg {
        self.unop(pc, Opcode::AddrCalc, a)
    }

    /// Unconditional or loop back-edge branch with no data dependence.
    #[inline]
    pub fn branch(&mut self, pc: u32) {
        self.push(Inst::compute(pc, Opcode::Branch, NO_REG, [NO_REG, NO_REG]));
    }

    /// Conditional branch depending on `cond`.
    #[inline]
    pub fn branch_on(&mut self, pc: u32, cond: Reg) {
        self.push(Inst::compute(pc, Opcode::Branch, NO_REG, [cond.0, NO_REG]));
    }

    /// Integer compare producing a flag value.
    #[inline]
    pub fn cmp(&mut self, pc: u32, a: Reg, b: Reg) -> Reg {
        self.binop(pc, Opcode::IntAlu, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn registers_are_ssa() {
        let mut t = Trace::new();
        let mut e = Emitter::new(&mut t);
        let a = e.imm(0);
        let b = e.imm(1);
        let c = e.fadd(2, a, b);
        let d = e.fadd(2, a, c);
        assert_ne!(c, d, "each value-producing op defines a fresh register");
        drop(e);
        let dsts: Vec<u32> = t.iter().map(|i| i.dst).collect();
        let mut sorted = dsts.clone();
        sorted.dedup();
        assert_eq!(dsts, sorted, "destinations strictly increase");
    }

    #[test]
    fn fma_is_two_insts() {
        let mut t = Trace::new();
        let mut e = Emitter::new(&mut t);
        let a = e.imm(0);
        e.fma(10, a, a, a);
        drop(e);
        assert_eq!(t.len(), 3); // imm + mul + add
        assert_eq!(t.count_op(Opcode::FpMul), 1);
        assert_eq!(t.count_op(Opcode::FpAdd), 1);
    }

    #[test]
    fn emitted_counter_tracks_sink() {
        let mut t = Trace::new();
        let mut e = Emitter::new(&mut t);
        let x = e.load(0, 0, 8);
        e.store(1, 8, 8, x);
        e.branch(2);
        assert_eq!(e.emitted(), 3);
        drop(e);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn dependencies_are_recorded() {
        let mut t = Trace::new();
        let mut e = Emitter::new(&mut t);
        let x = e.load(0, 0, 8);
        let y = e.fmul(1, x, x);
        e.store(2, 8, 8, y);
        drop(e);
        let insts = t.insts();
        assert_eq!(insts[1].srcs, [insts[0].dst, insts[0].dst]);
        assert_eq!(insts[2].srcs[0], insts[1].dst);
    }
}

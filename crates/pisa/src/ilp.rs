//! Instruction-level parallelism on an ideal machine.
//!
//! Table 1 of the paper lists "ILP — instruction-level parallelism on an
//! ideal machine" as a profile feature. The ideal machine executes every
//! instruction in one cycle, limited only by true dependences (through
//! registers and through memory) and, optionally, a finite scheduling
//! window: instruction *i* may not start before instruction *i − w* has
//! finished. ILP is then `N / schedule_length`. PISA reports ILP for several
//! window sizes; [`IlpAnalyzer::WINDOWS`] mirrors that.
//!
//! All window sizes are tracked in one pass: every register and every
//! stored element keeps one depth per window. This code runs for every
//! dynamic instruction, so the depths live in flat tables indexed by
//! register id and by the dense element id of the traffic analyzer, not in
//! hash maps; one ring of the last 256 completion times serves every
//! finite window.

use napel_ir::fxhash::FxHashMap;
use napel_ir::{Inst, Opcode, NO_REG};

/// Number of analyzed windows.
const NUM_WINDOWS: usize = 5;
/// The finite windows' sizes, smallest to largest.
const FINITE: [usize; NUM_WINDOWS - 1] = [32, 64, 128, 256];
/// Length of the completion-time ring: the largest finite window.
const RING: usize = FINITE[NUM_WINDOWS - 2];

/// Completion depth of one value, per window.
type Depths = [u64; NUM_WINDOWS];

/// Streaming ILP analyzer over a dynamic instruction stream.
#[derive(Debug, Clone)]
pub struct IlpAnalyzer {
    /// Completion depth of the latest write to each register id below its
    /// length.
    regs: DepthTable,
    /// Register ids at or beyond `regs`' length: ids far past the
    /// instructions seen (a raw stream may name any `u32`) stay here, so
    /// they never size the table.
    spilled: FxHashMap<u32, Depths>,
    /// Completion depth of the latest store to each element id.
    mem: DepthTable,
    /// Completion times of the last [`RING`] instructions, per finite
    /// window, indexed by instruction number modulo [`RING`].
    ring: Vec<[u64; NUM_WINDOWS - 1]>,
    /// Latest completion on the unbounded machine.
    longest: u64,
    total: u64,
}

impl IlpAnalyzer {
    /// Scheduling-window sizes analyzed, smallest to largest; `None` is the
    /// unbounded ideal machine.
    pub const WINDOWS: [Option<usize>; NUM_WINDOWS] = [
        Some(FINITE[0]),
        Some(FINITE[1]),
        Some(FINITE[2]),
        Some(FINITE[3]),
        None,
    ];

    /// Creates a fresh analyzer.
    pub fn new() -> Self {
        IlpAnalyzer {
            regs: DepthTable::default(),
            spilled: FxHashMap::default(),
            mem: DepthTable::default(),
            ring: vec![[0; NUM_WINDOWS - 1]; RING],
            longest: 0,
            total: 0,
        }
    }

    /// Observes one instruction. `elem` is the dense element id of a load
    /// or store with an address (see
    /// [`TrafficAnalyzer::observe`](crate::traffic::TrafficAnalyzer::observe)),
    /// `None` for every other instruction.
    #[inline(always)]
    pub fn observe(&mut self, inst: &Inst, elem: Option<u32>) {
        let i = self.total as usize;
        self.total += 1;
        let mut ready = [0u64; NUM_WINDOWS];
        for &r in &inst.srcs {
            if r != NO_REG {
                max_into(&mut ready, &self.reg(r));
            }
        }
        if let (Opcode::Load, Some(e)) = (inst.op, elem) {
            max_into(&mut ready, &self.mem.get(e as usize)); // RAW through memory
        }
        // Finite windows: cannot start before the instruction `w` back has
        // completed (zero before the stream is `w` long: the ring entry is
        // not yet written).
        let mut done = [0u64; NUM_WINDOWS];
        for (w, size) in FINITE.into_iter().enumerate() {
            let floor = self.ring[i.wrapping_sub(size) % RING][w];
            done[w] = ready[w].max(floor) + 1;
        }
        done[NUM_WINDOWS - 1] = ready[NUM_WINDOWS - 1] + 1;
        self.ring[i % RING].copy_from_slice(&done[..NUM_WINDOWS - 1]);
        self.longest = self.longest.max(done[NUM_WINDOWS - 1]);
        if inst.dst != NO_REG {
            self.set_reg(inst.dst, done);
        }
        if let (Opcode::Store, Some(e)) = (inst.op, elem) {
            self.mem.set(e as usize, done);
        }
    }

    #[inline]
    fn reg(&self, r: u32) -> Depths {
        match self.regs.0.get(r as usize) {
            Some(d) => *d,
            None => self.spilled.get(&r).copied().unwrap_or_default(),
        }
    }

    #[inline]
    fn set_reg(&mut self, r: u32, d: Depths) {
        let id = r as usize;
        if id < self.regs.0.len() {
            self.regs.0[id] = d;
        } else if u64::from(r) <= 2 * self.total + 1024 {
            // The table covers ids up to about twice the instructions seen
            // (an `Emitter` allocates at most one register per instruction).
            self.regs.grow(id);
            let regs = &mut self.regs.0;
            self.spilled.retain(|&r, d| match regs.get_mut(r as usize) {
                Some(slot) => {
                    *slot = *d;
                    false
                }
                None => true,
            });
            self.regs.0[id] = d;
        } else {
            self.spilled.insert(r, d);
        }
    }

    /// ILP for each window in [`IlpAnalyzer::WINDOWS`] order. Returns zeros
    /// for an empty stream.
    pub fn ilp(&self) -> Vec<f64> {
        // Every instruction completes after the one a window back, so a
        // finite window's schedule length is the latest completion among
        // the last instructions, all still in the ring.
        let mut critical_path = [0; NUM_WINDOWS];
        for row in &self.ring {
            for (cp, &done) in critical_path.iter_mut().zip(row) {
                *cp = (*cp).max(done);
            }
        }
        critical_path[NUM_WINDOWS - 1] = self.longest;
        critical_path
            .iter()
            .map(|&cp| {
                if cp == 0 {
                    0.0
                } else {
                    self.total as f64 / cp as f64
                }
            })
            .collect()
    }

    /// Instructions observed.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl Default for IlpAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn max_into(acc: &mut Depths, d: &Depths) {
    for w in 0..NUM_WINDOWS {
        acc[w] = acc[w].max(d[w]);
    }
}

/// Depths indexed by a dense id; ids never written read as zero, which
/// constrains nothing.
#[derive(Debug, Clone, Default)]
struct DepthTable(Vec<Depths>);

impl DepthTable {
    #[inline]
    fn get(&self, id: usize) -> Depths {
        self.0.get(id).copied().unwrap_or_default()
    }

    #[inline]
    fn set(&mut self, id: usize, d: Depths) {
        if id >= self.0.len() {
            self.grow(id);
        }
        self.0[id] = d;
    }

    /// Grows to the next power of two above `id`. The zeroed allocation
    /// leaves the pages past the ids written so far untouched.
    #[cold]
    fn grow(&mut self, id: usize) {
        let mut grown = vec![[0; NUM_WINDOWS]; (id + 1).next_power_of_two()];
        grown[..self.0.len()].copy_from_slice(&self.0);
        self.0 = grown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{Granularity, TrafficAnalyzer};
    use napel_ir::{Emitter, Trace};

    fn analyze(build: impl FnOnce(&mut Emitter<&mut Trace>)) -> IlpAnalyzer {
        let mut t = Trace::new();
        let mut e = Emitter::new(&mut t);
        build(&mut e);
        drop(e);
        let mut elems = TrafficAnalyzer::new(Granularity::Element);
        let mut a = IlpAnalyzer::new();
        for i in t.iter() {
            a.observe(i, elems.observe(i));
        }
        a
    }

    #[test]
    fn independent_chain_has_high_ilp() {
        // 1000 independent loads: every window executes them fully parallel
        // (bounded by window size).
        let a = analyze(|e| {
            for i in 0..1000u64 {
                e.load(0, 8 * i, 8);
            }
        });
        let ilp = a.ilp();
        // Unbounded window: all in one cycle.
        assert!((ilp[4] - 1000.0).abs() < 1e-9, "{ilp:?}");
        // Window of 32: ~32 per cycle.
        assert!(ilp[0] > 25.0 && ilp[0] <= 32.0, "{ilp:?}");
        // Larger windows expose more parallelism.
        assert!(ilp[0] <= ilp[1] && ilp[1] <= ilp[2] && ilp[2] <= ilp[3] && ilp[3] <= ilp[4]);
    }

    #[test]
    fn dependent_chain_has_ilp_one() {
        let a = analyze(|e| {
            let mut acc = e.imm(0);
            for _ in 0..99 {
                acc = e.fadd(1, acc, acc);
            }
        });
        let ilp = a.ilp();
        for v in ilp {
            assert!(
                (v - 1.0).abs() < 1e-9,
                "serial chain must have ILP 1, got {v}"
            );
        }
    }

    #[test]
    fn memory_raw_dependence_serializes() {
        // store to X then load from X then store then load...: RAW chain.
        let a = analyze(|e| {
            let mut v = e.imm(0);
            for _ in 0..50 {
                e.store(1, 0x100, 8, v);
                v = e.load(2, 0x100, 8);
            }
        });
        let ilp = a.ilp();
        assert!(
            ilp[4] < 1.5,
            "memory RAW chain should serialize, got {}",
            ilp[4]
        );
    }

    #[test]
    fn disjoint_addresses_do_not_serialize() {
        let a = analyze(|e| {
            for i in 0..50u64 {
                let v = e.imm(0);
                e.store(1, 0x100 + 64 * i, 8, v);
            }
        });
        assert!(a.ilp()[4] > 40.0);
    }

    #[test]
    fn empty_stream_reports_zero() {
        let a = IlpAnalyzer::new();
        assert_eq!(a.ilp(), vec![0.0; 5]);
        assert_eq!(a.total(), 0);
    }
}

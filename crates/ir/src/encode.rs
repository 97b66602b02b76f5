//! Compact, lossless trace encoding for bounded-memory campaigns.
//!
//! A materialized [`Inst`] costs 32 bytes; campaigns that pin one trace per
//! DoE point in the [`ProfileCache`](../../napel/core/campaign) therefore
//! scale their resident set with *dynamic instruction count*. This module
//! shrinks that to a few bytes per instruction with a delta/varint scheme
//! tuned to what kernel streams actually look like:
//!
//! - **pc** is a zigzag varint delta against the previous instruction's pc
//!   (loop bodies revisit a handful of small static pcs → 1 byte);
//! - **dst** is usually the next SSA register the
//!   [`Emitter`](crate::Emitter) would allocate — a one-bit flag and zero
//!   bytes when the prediction hits, an explicit varint otherwise;
//! - **srcs** reference recently defined registers, encoded as small
//!   zigzag deltas below the SSA watermark; absent operand slots
//!   ([`NO_REG`]) cost one flag bit for the common no-operand case;
//! - **addr** is a zigzag varint delta against the previous memory
//!   address (strided walks → 1 byte), present only when the instruction
//!   has one;
//! - **size** is elided for the dominant cases (8-byte memory accesses,
//!   0 for compute).
//!
//! The encoder and decoder run the same per-thread state machine
//! (`prev_pc`, `prev_addr`, SSA watermark), so decoding is a pure function
//! of the bytes: round-trips are bit-exact for *arbitrary* [`Inst`]
//! streams, not just emitter-produced ones (property-tested below).
//!
//! [`EncodedTraceSink`] implements [`ThreadedTraceSink`], so a kernel can
//! stream straight into the compact form (typically via a
//! [`TeeSink`](crate::TeeSink) that also feeds the PISA observer), and
//! [`EncodedTrace::thread_iter`] decodes per-thread instruction iterators
//! for the simulator's pull model without ever materializing a
//! [`MultiTrace`].

use crate::inst::{Inst, Opcode, NO_ADDR, NO_REG};
use crate::trace::{MultiTrace, ThreadedTraceSink, TraceSink};

/// Low 4 bits of the header byte: `Opcode::index()`.
const OP_MASK: u8 = 0x0f;
/// The destination register equals the SSA watermark (encoded implicitly).
const F_DST_SEQ: u8 = 0x10;
/// The instruction carries a memory address (`addr != NO_ADDR`).
const F_HAS_ADDR: u8 = 0x20;
/// The access size is the default for the opcode (8 for memory, 0 else).
const F_DEFAULT_SIZE: u8 = 0x40;
/// At least one source-register slot is populated.
const F_SRCS: u8 = 0x80;

/// Per-thread encoder/decoder state. Both sides advance it identically
/// after every instruction, which is what keeps the stream self-describing.
#[derive(Debug, Clone, Copy, Default)]
struct LaneState {
    prev_pc: u32,
    prev_addr: u64,
    /// The next SSA register an [`Emitter`](crate::Emitter) would define —
    /// the predictor for `dst` and the base for `src` deltas.
    watermark: u32,
}

impl LaneState {
    #[inline]
    fn advance(&mut self, inst: &Inst) {
        self.prev_pc = inst.pc;
        if inst.addr != NO_ADDR {
            self.prev_addr = inst.addr;
        }
        if inst.dst != NO_REG {
            self.watermark = inst.dst.wrapping_add(1);
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads one LEB128 varint, advancing `pos`. Returns `None` on truncated
/// or over-long (> 10 byte) input.
#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Default access size implied by `F_DEFAULT_SIZE` for this opcode.
#[inline]
fn default_size(op: Opcode) -> u8 {
    if op.is_mem() {
        8
    } else {
        0
    }
}

/// Encodes `inst` onto `out`, advancing `state`.
fn encode_inst(out: &mut Vec<u8>, state: &mut LaneState, inst: &Inst) {
    let mut header = inst.op.index() as u8 & OP_MASK;
    let dst_seq = inst.dst != NO_REG && inst.dst == state.watermark;
    if dst_seq {
        header |= F_DST_SEQ;
    }
    if inst.addr != NO_ADDR {
        header |= F_HAS_ADDR;
    }
    if inst.size == default_size(inst.op) {
        header |= F_DEFAULT_SIZE;
    }
    let has_srcs = inst.srcs.iter().any(|&s| s != NO_REG);
    if has_srcs {
        header |= F_SRCS;
    }
    out.push(header);

    put_varint(out, zigzag(i64::from(inst.pc) - i64::from(state.prev_pc)));
    if has_srcs {
        for &s in &inst.srcs {
            if s == NO_REG {
                put_varint(out, 0);
            } else {
                // Sources are recent definitions just below the watermark,
                // so the delta is a small non-negative number; zigzag keeps
                // arbitrary (adversarial) registers encodable.
                let delta = i64::from(state.watermark) - i64::from(s);
                put_varint(out, 1 + zigzag(delta));
            }
        }
    }
    if !dst_seq {
        // `NO_REG` (u32::MAX) wraps to 0 → one byte for the common
        // "no destination" case.
        put_varint(out, u64::from(inst.dst.wrapping_add(1)));
    }
    if inst.size != default_size(inst.op) {
        out.push(inst.size);
    }
    if inst.addr != NO_ADDR {
        put_varint(out, zigzag(inst.addr.wrapping_sub(state.prev_addr) as i64));
    }
    state.advance(inst);
}

/// Decodes one instruction, advancing `pos` and `state`. Returns `None`
/// on truncated or malformed input (only reachable on corrupted bytes;
/// encoder output always decodes).
fn decode_inst(bytes: &[u8], pos: &mut usize, state: &mut LaneState) -> Option<Inst> {
    let header = *bytes.get(*pos)?;
    *pos += 1;
    let op = *Opcode::ALL.get(usize::from(header & OP_MASK))?;
    let pc_delta = unzigzag(get_varint(bytes, pos)?);
    let pc = (i64::from(state.prev_pc) + pc_delta) as u32;
    let mut srcs = [NO_REG, NO_REG];
    if header & F_SRCS != 0 {
        for slot in &mut srcs {
            let v = get_varint(bytes, pos)?;
            if v != 0 {
                let delta = unzigzag(v - 1);
                *slot = (i64::from(state.watermark) - delta) as u32;
            }
        }
    }
    let dst = if header & F_DST_SEQ != 0 {
        state.watermark
    } else {
        (get_varint(bytes, pos)? as u32).wrapping_sub(1)
    };
    let size = if header & F_DEFAULT_SIZE != 0 {
        default_size(op)
    } else {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        b
    };
    let addr = if header & F_HAS_ADDR != 0 {
        let delta = unzigzag(get_varint(bytes, pos)?);
        state.prev_addr.wrapping_add(delta as u64)
    } else {
        NO_ADDR
    };
    let inst = Inst {
        pc,
        op,
        size,
        dst,
        srcs,
        addr,
    };
    state.advance(&inst);
    Some(inst)
}

/// One thread's compact stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct EncodedLane {
    bytes: Vec<u8>,
    insts: usize,
}

/// A losslessly compressed [`MultiTrace`] (see the module docs for the
/// format). Per-thread streams decode independently via
/// [`thread_iter`](EncodedTrace::thread_iter).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodedTrace {
    lanes: Vec<EncodedLane>,
}

impl EncodedTrace {
    /// Encodes an existing in-memory trace.
    pub fn from_multi(trace: &MultiTrace) -> Self {
        let mut sink = EncodedTraceSink::new();
        sink.begin(trace.num_threads());
        for (t, lane) in trace.iter().enumerate() {
            for inst in lane.iter() {
                ThreadedTraceSink::record(&mut sink, t, *inst);
            }
        }
        sink.finish()
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.lanes.len()
    }

    /// Total dynamic instructions across all threads.
    pub fn total_insts(&self) -> usize {
        self.lanes.iter().map(|l| l.insts).sum()
    }

    /// Dynamic instructions of thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.num_threads()`.
    pub fn thread_insts(&self, t: usize) -> usize {
        self.lanes[t].insts
    }

    /// Encoded bytes resident in memory (the compressed payload; the
    /// `Vec` headers are negligible).
    pub fn encoded_bytes(&self) -> usize {
        self.lanes.iter().map(|l| l.bytes.len()).sum()
    }

    /// Bytes the same trace would occupy as materialized [`Inst`]s.
    pub fn materialized_bytes(&self) -> usize {
        self.total_insts() * std::mem::size_of::<Inst>()
    }

    /// A decoding iterator over thread `t`'s instructions.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.num_threads()`.
    pub fn thread_iter(&self, t: usize) -> DecodeIter<'_> {
        let lane = &self.lanes[t];
        DecodeIter {
            bytes: &lane.bytes,
            pos: 0,
            remaining: lane.insts,
            state: LaneState::default(),
        }
    }

    /// Decoding iterators for every thread, in thread order — the shape
    /// `NmcSystem::run_streams` consumes.
    pub fn thread_iters(&self) -> Vec<DecodeIter<'_>> {
        (0..self.num_threads())
            .map(|t| self.thread_iter(t))
            .collect()
    }

    /// Decodes the whole trace back into a [`MultiTrace`] (tests and
    /// explicitly materializing callers only — the point of the format is
    /// not to do this).
    pub fn decode(&self) -> MultiTrace {
        let mut m = MultiTrace::new(self.lanes.len().max(1));
        for t in 0..self.lanes.len() {
            let sink = m.thread_sink(t);
            for inst in self.thread_iter(t) {
                sink.record(inst);
            }
        }
        m
    }
}

/// Iterator created by [`EncodedTrace::thread_iter`]; decodes one
/// instruction per step with O(1) state.
#[derive(Debug, Clone)]
pub struct DecodeIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    state: LaneState,
}

impl Iterator for DecodeIter<'_> {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        if self.remaining == 0 {
            return None;
        }
        match decode_inst(self.bytes, &mut self.pos, &mut self.state) {
            Some(inst) => {
                self.remaining -= 1;
                Some(inst)
            }
            // Unreachable for encoder-produced bytes; stop rather than
            // panic if the payload was corrupted in memory.
            None => {
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for DecodeIter<'_> {}

/// A [`ThreadedTraceSink`] that builds an [`EncodedTrace`] incrementally.
#[derive(Debug, Clone, Default)]
pub struct EncodedTraceSink {
    lanes: Vec<EncodedLane>,
    states: Vec<LaneState>,
}

impl EncodedTraceSink {
    /// Creates an empty sink; [`begin`](ThreadedTraceSink::begin) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes encoding and returns the compact trace.
    pub fn finish(self) -> EncodedTrace {
        EncodedTrace { lanes: self.lanes }
    }

    /// Total encoded bytes so far.
    pub fn encoded_bytes(&self) -> usize {
        self.lanes.iter().map(|l| l.bytes.len()).sum()
    }
}

impl ThreadedTraceSink for EncodedTraceSink {
    fn begin(&mut self, num_threads: usize) {
        assert!(
            num_threads > 0,
            "a kernel execution has at least one thread"
        );
        self.lanes = vec![EncodedLane::default(); num_threads];
        self.states = vec![LaneState::default(); num_threads];
    }

    #[inline]
    fn record(&mut self, thread: usize, inst: Inst) {
        let lane = &mut self.lanes[thread];
        encode_inst(&mut lane.bytes, &mut self.states[thread], &inst);
        lane.insts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::Emitter;

    fn emitter_trace(threads: usize, n: u64) -> MultiTrace {
        let mut t = MultiTrace::new(threads);
        for th in 0..threads {
            let mut e = Emitter::new(t.thread_sink(th));
            let base = (th as u64) << 28;
            for i in 0..n {
                let x = e.load(0, base + 8 * i, 8);
                let y = e.fmul(1, x, x);
                let z = e.fadd(2, x, y);
                e.store(3, base + 0x100_0000 + 8 * i, 8, z);
                e.branch(4);
            }
        }
        t
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let t = emitter_trace(3, 200);
        let enc = EncodedTrace::from_multi(&t);
        assert_eq!(enc.decode(), t);
        assert_eq!(enc.total_insts(), t.total_insts());
        assert_eq!(enc.num_threads(), 3);
    }

    #[test]
    fn thread_iter_matches_lane() {
        let t = emitter_trace(2, 50);
        let enc = EncodedTrace::from_multi(&t);
        for th in 0..2 {
            let decoded: Vec<Inst> = enc.thread_iter(th).collect();
            assert_eq!(decoded, t.thread(th).insts());
            assert_eq!(enc.thread_iter(th).len(), t.thread(th).len());
        }
    }

    #[test]
    fn emitter_streams_compress_below_8_bytes_per_inst() {
        let t = emitter_trace(4, 500);
        let enc = EncodedTrace::from_multi(&t);
        let per_inst = enc.encoded_bytes() as f64 / enc.total_insts() as f64;
        assert!(
            per_inst <= 8.0,
            "encoded {per_inst:.2} bytes/inst, want ≤ 8 (vs {} materialized)",
            std::mem::size_of::<Inst>()
        );
        assert!(enc.encoded_bytes() * 4 <= enc.materialized_bytes());
    }

    #[test]
    fn adversarial_insts_round_trip() {
        // Hand-built instructions that violate every emitter convention:
        // wild registers, register wrap-around, huge pc jumps (forward and
        // back), odd sizes, compute ops with addresses, extreme addresses.
        let weird = [
            Inst {
                pc: u32::MAX,
                op: Opcode::Other,
                size: 255,
                dst: u32::MAX - 1,
                srcs: [0, u32::MAX - 1],
                addr: u64::MAX - 1,
            },
            Inst {
                pc: 0,
                op: Opcode::IntAlu,
                size: 3,
                dst: 0,
                srcs: [NO_REG, 7],
                addr: NO_ADDR,
            },
            Inst {
                pc: 1 << 30,
                op: Opcode::Store,
                size: 0,
                dst: NO_REG,
                srcs: [NO_REG, NO_REG],
                addr: 0,
            },
            Inst {
                pc: 5,
                op: Opcode::Load,
                size: 8,
                dst: 0,
                srcs: [1, 2],
                addr: 1 << 63,
            },
            // Register id wrap: watermark goes 1 after dst 0, then dst
            // u32::MAX, then a src referencing above the watermark.
            Inst {
                pc: 6,
                op: Opcode::Mov,
                size: 0,
                dst: u32::MAX - 2,
                srcs: [NO_REG, NO_REG],
                addr: NO_ADDR,
            },
            Inst {
                pc: 7,
                op: Opcode::FpAdd,
                size: 0,
                dst: 2,
                srcs: [u32::MAX - 2, u32::MAX - 1],
                addr: NO_ADDR,
            },
        ];
        let mut m = MultiTrace::new(1);
        for i in weird {
            m.thread_sink(0).record(i);
        }
        let enc = EncodedTrace::from_multi(&m);
        assert_eq!(enc.decode(), m);
    }

    #[test]
    fn empty_and_unbalanced_lanes_round_trip() {
        let mut m = MultiTrace::new(3);
        m.thread_sink(1)
            .record(Inst::compute(9, Opcode::Branch, NO_REG, [NO_REG, NO_REG]));
        let enc = EncodedTrace::from_multi(&m);
        assert_eq!(enc.decode(), m);
        assert_eq!(enc.thread_iter(0).count(), 0);
        assert_eq!(enc.thread_insts(1), 1);
    }

    #[test]
    fn streaming_sink_equals_from_multi() {
        let t = emitter_trace(2, 100);
        let via_multi = EncodedTrace::from_multi(&t);
        let mut sink = EncodedTraceSink::new();
        sink.begin(t.num_threads());
        for (th, lane) in t.iter().enumerate() {
            for inst in lane.iter() {
                ThreadedTraceSink::record(&mut sink, th, *inst);
            }
        }
        assert_eq!(sink.finish(), via_multi);
    }

    #[test]
    fn truncated_bytes_stop_instead_of_panicking() {
        let t = emitter_trace(1, 20);
        let mut enc = EncodedTrace::from_multi(&t);
        let keep = enc.lanes[0].bytes.len() / 2;
        enc.lanes[0].bytes.truncate(keep);
        let decoded: Vec<Inst> = enc.thread_iter(0).collect();
        assert!(decoded.len() < t.total_insts());
        // Whatever decoded before the truncation point is still exact.
        assert_eq!(decoded[..], t.thread(0).insts()[..decoded.len()]);
    }
}

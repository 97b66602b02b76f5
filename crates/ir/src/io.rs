//! Binary serialization of traces.
//!
//! Trace generation is deterministic but not free; a real trace-driven
//! toolchain (like the paper's Pin → Ramulator flow) dumps traces once and
//! replays them many times. The format is a little-endian stream of
//! fixed-size records with a small header:
//!
//! ```text
//! magic  "NAPLTRC1"                      8 bytes
//! num_threads                            u32
//! per thread: count (u64), then count records of
//!   pc (u32) op (u8) size (u8) dst (u32) src0 (u32) src1 (u32) addr (u64)
//! ```

use std::io::{self, Read, Write};

use crate::inst::{Inst, Opcode};
use crate::trace::{MultiTrace, Trace, TraceSink};

const MAGIC: &[u8; 8] = b"NAPLTRC1";

/// Writes a multi-trace to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer. Note that a `&mut W` is itself a
/// writer, so callers can pass `&mut file`.
pub fn write_trace<W: Write>(trace: &MultiTrace, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(trace.num_threads() as u32).to_le_bytes())?;
    for t in trace.iter() {
        w.write_all(&(t.len() as u64).to_le_bytes())?;
        for i in t.iter() {
            w.write_all(&i.pc.to_le_bytes())?;
            w.write_all(&[i.op as u8, i.size])?;
            w.write_all(&i.dst.to_le_bytes())?;
            w.write_all(&i.srcs[0].to_le_bytes())?;
            w.write_all(&i.srcs[1].to_le_bytes())?;
            w.write_all(&i.addr.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a multi-trace from `r`.
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic number, an unknown opcode, or a
/// truncated stream; propagates underlying I/O errors.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<MultiTrace> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a NAPEL trace file",
        ));
    }
    let threads = read_u32(&mut r)? as usize;
    if threads == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trace has zero threads",
        ));
    }
    // Threads are kept as they arrive, so a forged thread count fails as a
    // truncated stream instead of sizing an allocation.
    let mut lanes = Vec::new();
    for _ in 0..threads {
        let count = read_u64(&mut r)?;
        let mut lane = Trace::new();
        for _ in 0..count {
            let pc = read_u32(&mut r)?;
            let mut two = [0u8; 2];
            r.read_exact(&mut two)?;
            let op = opcode_from(two[0])?;
            let size = two[1];
            let dst = read_u32(&mut r)?;
            let src0 = read_u32(&mut r)?;
            let src1 = read_u32(&mut r)?;
            let addr = read_u64(&mut r)?;
            lane.record(Inst {
                pc,
                op,
                size,
                dst,
                srcs: [src0, src1],
                addr,
            });
        }
        lanes.push(lane);
    }
    let mut trace = MultiTrace::new(lanes.len());
    for (t, lane) in lanes.into_iter().enumerate() {
        *trace.thread_sink(t) = lane;
    }
    Ok(trace)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn opcode_from(byte: u8) -> io::Result<Opcode> {
    Opcode::ALL
        .into_iter()
        .find(|&op| op as u8 == byte)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad opcode {byte}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Emitter;

    fn sample_trace() -> MultiTrace {
        let mut t = MultiTrace::new(3);
        for th in 0..3 {
            let mut e = Emitter::new(t.thread_sink(th));
            for i in 0..50u64 {
                let a = e.load(0, 0x1000 + 8 * i, 8);
                let b = e.fmul(1, a, a);
                e.store(2, 0x2000 + 8 * i, 8, b);
                e.branch(3);
            }
        }
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample_trace();
        let mut buf = Vec::new();
        write_trace(&original, &mut buf).unwrap();
        let restored = read_trace(buf.as_slice()).unwrap();
        assert_eq!(original, restored);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOTATRACE........."[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn forged_thread_count_is_a_truncation_error() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn bad_opcode_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        // Corrupt the first record's opcode byte:
        // magic(8) + threads(4) + count(8) + pc(4) = offset 24.
        buf[24] = 0xFF;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_threads_are_preserved() {
        let mut t = MultiTrace::new(2);
        let mut e = Emitter::new(t.thread_sink(0));
        e.imm(0);
        drop(e);
        // Thread 1 stays empty.
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let restored = read_trace(buf.as_slice()).unwrap();
        assert_eq!(restored.num_threads(), 2);
        assert_eq!(restored.thread(0).len(), 1);
        assert_eq!(restored.thread(1).len(), 0);
    }

    #[test]
    fn record_size_is_stable() {
        // Header 8+4, per-thread 8 + n*26 (pc 4, op 1, size 1, dst 4,
        // srcs 2x4, addr 8).
        let mut t = MultiTrace::new(1);
        let mut e = Emitter::new(t.thread_sink(0));
        e.imm(0);
        e.imm(1);
        drop(e);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 8 + 4 + 8 + 2 * 26);
    }
}

//! Memory-traffic curves derived from reuse distances.
//!
//! Table 1 of the paper: "percentage of memory reads/writes that need to
//! access memory, given a certain data reuse distance up to the maximum
//! reuse distance". An access whose reuse distance exceeds δ misses in an
//! ideal fully-associative LRU cache of capacity δ; the *traffic fraction*
//! at δ is therefore `1 − CDF(δ)` plus the cold-miss mass — a
//! capacity-parameterized miss curve that is independent of any concrete
//! cache organization.

use napel_ir::{Inst, Opcode};

use crate::reuse::{Interner, ReuseAnalyzer, ReuseHistogram, NUM_BUCKETS};

/// Address granularity for reuse/traffic tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// 8-byte data elements.
    Element,
    /// 64-byte cache lines.
    Line64,
}

impl Granularity {
    /// Shift applied to byte addresses.
    #[inline]
    pub fn shift(self) -> u32 {
        match self {
            Granularity::Element => 3,
            Granularity::Line64 => 6,
        }
    }
}

/// Per-granularity read/write/combined reuse tracking for memory accesses.
///
/// One interner maps each granule to a dense id (in first-touch order) that
/// all three trackers share, so an access costs one hash probe.
#[derive(Debug, Clone)]
pub struct TrafficAnalyzer {
    granularity: Granularity,
    granules: Interner,
    reads: ReuseAnalyzer,
    writes: ReuseAnalyzer,
    all: ReuseAnalyzer,
}

impl TrafficAnalyzer {
    /// Creates an analyzer at the given granularity.
    pub fn new(granularity: Granularity) -> Self {
        TrafficAnalyzer {
            granularity,
            granules: Interner::default(),
            reads: ReuseAnalyzer::new(),
            writes: ReuseAnalyzer::new(),
            all: ReuseAnalyzer::new(),
        }
    }

    /// Observes one instruction, returning the granule id of a load or
    /// store with an address; other instructions are ignored.
    #[inline(always)]
    pub fn observe(&mut self, inst: &Inst) -> Option<u32> {
        let addr = inst.mem_addr()?;
        let is_store = match inst.op {
            Opcode::Load => false,
            Opcode::Store => true,
            _ => return None,
        };
        let id = self.granules.intern(addr >> self.granularity.shift());
        if is_store {
            self.writes.access(id);
        } else {
            self.reads.access(id);
        }
        self.all.access(id);
        Some(id)
    }

    /// Reuse histogram of reads.
    pub fn read_histogram(&self) -> &ReuseHistogram {
        self.reads.histogram()
    }

    /// Reuse histogram of writes.
    pub fn write_histogram(&self) -> &ReuseHistogram {
        self.writes.histogram()
    }

    /// Combined read+write reuse histogram.
    ///
    /// Note: the combined analyzer sees the merged access stream, so its
    /// distances are *not* the union of the read-only and write-only
    /// histograms — a read can hit on data brought in by a write.
    pub fn combined_histogram(&self) -> &ReuseHistogram {
        self.all.histogram()
    }

    /// Fraction of reads that would miss a fully-associative LRU cache of
    /// `2^bucket` entries at this granularity.
    pub fn read_traffic(&self, bucket: usize) -> f64 {
        traffic(self.reads.histogram(), bucket)
    }

    /// Fraction of writes that would miss such a cache.
    pub fn write_traffic(&self, bucket: usize) -> f64 {
        traffic(self.writes.histogram(), bucket)
    }

    /// Fraction of all accesses that would miss such a cache.
    pub fn combined_traffic(&self, bucket: usize) -> f64 {
        traffic(self.all.histogram(), bucket)
    }

    /// Distinct keys touched (footprint in granules) across reads+writes.
    pub fn footprint_granules(&self) -> usize {
        self.all.distinct()
    }

    /// The analyzer's granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }
}

/// Miss fraction at capacity `2^bucket`: warm accesses with distance beyond
/// the bucket plus all cold accesses.
fn traffic(h: &ReuseHistogram, bucket: usize) -> f64 {
    if h.total() == 0 {
        return 0.0;
    }
    1.0 - h.cdf(bucket)
}

/// Number of traffic buckets exposed (same as reuse buckets).
pub const NUM_TRAFFIC_BUCKETS: usize = NUM_BUCKETS;

#[cfg(test)]
mod tests {
    use super::*;
    use napel_ir::{Emitter, Trace};

    fn analyze(
        granularity: Granularity,
        build: impl FnOnce(&mut Emitter<&mut Trace>),
    ) -> TrafficAnalyzer {
        let mut t = Trace::new();
        let mut e = Emitter::new(&mut t);
        build(&mut e);
        drop(e);
        let mut a = TrafficAnalyzer::new(granularity);
        for i in t.iter() {
            a.observe(i);
        }
        a
    }

    #[test]
    fn streaming_scan_is_all_traffic() {
        let a = analyze(Granularity::Element, |e| {
            for i in 0..256u64 {
                e.load(0, 8 * i, 8);
            }
        });
        // No reuse at all: every capacity still misses 100%.
        for b in 0..NUM_TRAFFIC_BUCKETS {
            assert!((a.read_traffic(b) - 1.0).abs() < 1e-12);
        }
        assert_eq!(a.footprint_granules(), 256);
    }

    #[test]
    fn line_granularity_captures_spatial_locality() {
        // 8 consecutive 8-byte loads share one 64-byte line: at line
        // granularity 7 of 8 accesses are immediate reuses.
        let a = analyze(Granularity::Line64, |e| {
            for i in 0..64u64 {
                e.load(0, 8 * i, 8);
            }
        });
        // Distance-1 capacity already absorbs the spatial hits.
        assert!((a.read_traffic(0) - 1.0 / 8.0).abs() < 1e-12);
        assert_eq!(a.footprint_granules(), 8);
    }

    #[test]
    fn small_working_set_fits_small_capacity() {
        let a = analyze(Granularity::Element, |e| {
            for _ in 0..10 {
                for i in 0..4u64 {
                    e.load(0, 8 * i, 8);
                }
            }
        });
        // Working set of 4 elements: capacity 2^2=4 holds it -> only the 4
        // cold misses remain.
        assert!((a.read_traffic(2) - 4.0 / 40.0).abs() < 1e-12);
        // Capacity 1 (bucket 0 = distance <= 1): everything but nothing
        // reusable fits -> traffic stays 1.
        assert!((a.read_traffic(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reads_and_writes_tracked_separately() {
        let a = analyze(Granularity::Element, |e| {
            let v = e.imm(0);
            for _ in 0..5 {
                e.store(1, 0x10, 8, v);
            }
            for i in 0..5u64 {
                e.load(2, 0x1000 + 8 * i, 8);
            }
        });
        // Writes: 1 cold + 4 immediate reuses -> traffic at bucket 0 = 1/5.
        assert!((a.write_traffic(0) - 0.2).abs() < 1e-12);
        // Reads: all cold.
        assert!((a.read_traffic(0) - 1.0).abs() < 1e-12);
        assert_eq!(a.combined_histogram().total(), 10);
    }

    #[test]
    fn non_memory_instructions_ignored() {
        let a = analyze(Granularity::Element, |e| {
            let x = e.imm(0);
            e.fadd(1, x, x);
            e.branch(2);
        });
        assert_eq!(a.combined_histogram().total(), 0);
        assert_eq!(a.read_traffic(5), 0.0);
    }

    #[test]
    fn traffic_is_monotone_decreasing_in_capacity() {
        let a = analyze(Granularity::Element, |e| {
            // Mixed pattern with assorted reuse distances.
            for rep in 0..6u64 {
                for i in 0..(8 + rep * 5) {
                    e.load(0, 8 * (i % (4 + rep * 3)), 8);
                }
            }
        });
        let mut prev = f64::INFINITY;
        for b in 0..NUM_TRAFFIC_BUCKETS {
            let t = a.read_traffic(b);
            assert!(t <= prev + 1e-12, "traffic must not increase with capacity");
            prev = t;
        }
    }
}

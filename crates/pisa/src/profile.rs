//! The assembled microarchitecture-independent application profile.

use std::sync::OnceLock;

use napel_ir::{Inst, MultiTrace, OpClass, Opcode, ThreadedTraceSink};

use crate::ilp::IlpAnalyzer;
use crate::mix::MixCounter;
use crate::reuse::{Interner, ReuseAnalyzer, ReuseHistogram, NUM_BUCKETS};
use crate::traffic::{Granularity, TrafficAnalyzer};

/// Number of power-of-two reuse-distance buckets in the profile
/// (re-exported from [`crate::reuse`]).
pub const NUM_REUSE_BUCKETS: usize = NUM_BUCKETS;

/// The flat, named feature vector `p(k, d)` of Section 2.3 of the paper.
///
/// The paper's PISA profile has 395 features; ours has a comparable count
/// (see [`feature_names`]) covering the same Table 1 metrics. The layout is
/// stable: `values()[i]` always corresponds to `feature_names()[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationProfile {
    values: Vec<f64>,
}

impl ApplicationProfile {
    /// Profiles a kernel execution.
    ///
    /// The per-thread traces go back to back (thread 0's full stream, then
    /// thread 1's, ...) through one set of analyzers, which are never reset
    /// between threads: a thread's first touch of data an earlier thread
    /// touched counts as a reuse, and ILP windows and store-to-load
    /// dependences carry from one thread's stream into the next. Mix,
    /// footprint and volume aggregate over the union. A round-robin
    /// interleaving would instead measure cross-thread artifacts (e.g.
    /// false spatial locality on shared read-only data).
    pub fn of(trace: &MultiTrace) -> Self {
        let telemetry = napel_telemetry::global();
        let _span = telemetry
            .span("pisa.profile")
            .attr("threads", trace.num_threads())
            .attr("insts", trace.total_insts());
        telemetry.counter("pisa.instructions", trace.total_insts() as u64);

        let mut observer = ProfileObserver::new();
        ThreadedTraceSink::begin(&mut observer, trace.num_threads());
        {
            let _observe = telemetry.span("pisa.observe");
            for thread in trace.iter() {
                for inst in thread.iter() {
                    observer.observe(inst);
                }
            }
        }

        let _assemble = telemetry.span("pisa.assemble");
        observer.assemble()
    }

    /// Wraps a raw feature vector as a profile, in [`feature_names`] order.
    ///
    /// This is the ingestion path for externally produced profiles (and
    /// for tests exercising schema validation): no length check happens
    /// here — consumers validate against their expected schema and surface
    /// a typed error on mismatch.
    pub fn from_values(values: Vec<f64>) -> Self {
        ApplicationProfile { values }
    }

    /// The feature values, aligned with [`feature_names`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Looks up a feature by name, returning `None` if `name` is not a
    /// profile feature — the fallible twin of [`Self::value`], for
    /// callers (like the campaign runtime) that must turn a
    /// feature-schema mismatch into an error instead of a panic.
    pub fn try_value(&self, name: &str) -> Option<f64> {
        let idx = *feature_index().get(name)?;
        self.values.get(idx).copied()
    }

    /// Looks up a feature by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a profile feature (see [`feature_names`]);
    /// use [`Self::try_value`] where a mismatch must be recoverable.
    pub fn value(&self, name: &str) -> f64 {
        self.try_value(name)
            .unwrap_or_else(|| panic!("unknown profile feature `{name}`"))
    }
}

/// Streaming construction of an [`ApplicationProfile`]: every analyzer
/// behind the profile is incremental, so the profile of a kernel can be
/// computed *while the kernel generates its trace*, without the trace ever
/// being materialized.
///
/// The observer is a [`ThreadedTraceSink`], so it plugs directly into
/// [`generate_into`](https://docs.rs/napel-workloads) — typically tee'd
/// with a compact trace encoder. Instructions must arrive **thread-major**
/// (thread 0's full stream, then thread 1's, ...), which is both the order
/// every kernel emits in and the order [`ApplicationProfile::of`] replays
/// a trace in; the resulting profile is
/// bit-identical to profiling the collected trace (enforced by test and by
/// `of` itself being implemented on top of this observer).
///
/// ```
/// use napel_ir::{Emitter, MultiTrace, ThreadedTraceSink};
/// use napel_pisa::{ApplicationProfile, ProfileObserver};
///
/// let mut trace = MultiTrace::new(1);
/// let mut observer = ProfileObserver::new();
/// observer.begin(1);
/// {
///     let mut e = Emitter::new(napel_ir::TeeSink::new(
///         trace.thread_sink(0),
///         observer.thread(0),
///     ));
///     let x = e.load(0, 0x100, 8);
///     e.store(1, 0x108, 8, x);
/// }
/// assert_eq!(observer.finish(), ApplicationProfile::of(&trace));
/// ```
#[derive(Debug, Clone)]
pub struct ProfileObserver {
    mix: MixCounter,
    ilp: IlpAnalyzer,
    elem: TrafficAnalyzer,
    line: TrafficAnalyzer,
    pcs: PcIds,
    inst_reuse: ReuseAnalyzer,
    num_threads: usize,
    insts: u64,
    last_thread: usize,
}

impl ProfileObserver {
    /// Creates an empty observer. Call
    /// [`begin`](ThreadedTraceSink::begin) (directly or through a
    /// streaming kernel) before recording; the thread count is itself a
    /// profile feature.
    pub fn new() -> Self {
        ProfileObserver {
            mix: MixCounter::new(),
            ilp: IlpAnalyzer::new(),
            elem: TrafficAnalyzer::new(Granularity::Element),
            line: TrafficAnalyzer::new(Granularity::Line64),
            pcs: PcIds::default(),
            inst_reuse: ReuseAnalyzer::new(),
            num_threads: 0,
            insts: 0,
            last_thread: 0,
        }
    }

    /// Feeds one instruction to every analyzer.
    #[inline]
    pub fn observe(&mut self, inst: &Inst) {
        self.insts += 1;
        self.mix.observe(inst);
        let elem = self.elem.observe(inst);
        self.line.observe(inst);
        self.ilp.observe(inst, elem);
        let pc = self.pcs.id(inst.pc);
        self.inst_reuse.access(pc);
    }

    /// Instructions observed so far.
    pub fn instructions(&self) -> u64 {
        self.insts
    }

    /// Software threads announced by
    /// [`begin`](ThreadedTraceSink::begin) (0 before it).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Finishes the stream and assembles the profile, with the same
    /// telemetry (`pisa.profile` span, `pisa.instructions` counter) a
    /// call to [`ApplicationProfile::of`] would emit — the observation
    /// itself happened wherever the stream was produced.
    pub fn finish(self) -> ApplicationProfile {
        let telemetry = napel_telemetry::global();
        let _span = telemetry
            .span("pisa.profile")
            .attr("threads", self.num_threads)
            .attr("insts", self.insts);
        telemetry.counter("pisa.instructions", self.insts);
        let _assemble = telemetry.span("pisa.assemble");
        self.assemble()
    }

    /// Assembles the feature vector from the analyzer states (no
    /// telemetry — callers wrap this in their own spans).
    fn assemble(self) -> ApplicationProfile {
        let ProfileObserver {
            mix,
            ilp,
            elem,
            line,
            inst_reuse,
            num_threads,
            ..
        } = self;
        let mut values = Vec::new();

        // 1-2. Instruction mix.
        for op in Opcode::ALL {
            values.push(mix.op_fraction(op));
        }
        for class in OpClass::ALL {
            values.push(mix.class_fraction(class));
        }
        // 3-4. Volume and register traffic.
        values.push(log2p1(mix.total() as f64));
        values.push(mix.avg_src_regs());
        values.push(mix.avg_dst_regs());
        values.push(mix.avg_access_size());
        values.push(mix.load_store_ratio());
        values.push(mix.cond_branch_fraction());
        // 5. ILP per window.
        values.extend(ilp.ilp());
        // 6. Reuse CDFs and traffic curves per granularity.
        for t in [&elem, &line] {
            push_cdf(&mut values, t.read_histogram());
            push_cdf(&mut values, t.write_histogram());
            push_cdf(&mut values, t.combined_histogram());
            for b in 0..NUM_BUCKETS {
                values.push(t.read_traffic(b));
            }
            for b in 0..NUM_BUCKETS {
                values.push(t.write_traffic(b));
            }
        }
        // 7. Element-granularity combined PDF.
        for b in 0..NUM_BUCKETS {
            values.push(elem.combined_histogram().pdf(b));
        }
        // 8. Instruction reuse CDF and PDF.
        push_cdf(&mut values, inst_reuse.histogram());
        for b in 0..NUM_BUCKETS {
            values.push(inst_reuse.histogram().pdf(b));
        }
        // 9. Cold fractions.
        values.push(elem.read_histogram().cold_fraction());
        values.push(elem.write_histogram().cold_fraction());
        values.push(elem.combined_histogram().cold_fraction());
        values.push(line.combined_histogram().cold_fraction());
        values.push(inst_reuse.histogram().cold_fraction());
        // 10. Reuse summary statistics.
        for h in [elem.combined_histogram(), inst_reuse.histogram()] {
            values.push(h.mean_log2());
            values.push(h.quantile_bucket(0.5) as f64);
            values.push(h.quantile_bucket(0.9) as f64);
        }
        // 11. Footprint: an element's first read, first write and first
        // touch are the cold accesses of the element trackers, and a static
        // instruction's first execution that of the instruction tracker.
        values.push(log2p1((elem.combined_histogram().cold() * 8) as f64));
        values.push(log2p1((elem.read_histogram().cold() * 8) as f64));
        values.push(log2p1((elem.write_histogram().cold() * 8) as f64));
        values.push(log2p1(inst_reuse.histogram().cold() as f64));
        // 12. Threads.
        values.push(num_threads as f64);

        debug_assert_eq!(values.len(), feature_names().len());
        ApplicationProfile { values }
    }
}

/// pc → dense id: the interner behind a direct-mapped cache. A kernel has
/// a handful of static instructions, so nearly every lookup hits the cache
/// and skips the hash probe.
#[derive(Debug, Clone)]
struct PcIds {
    /// `(pc, id)` last looked up in each slot; the tag `u64::MAX` matches
    /// no pc.
    recent: [(u64, u32); 64],
    ids: Interner,
}

impl Default for PcIds {
    fn default() -> Self {
        PcIds {
            recent: [(u64::MAX, 0); 64],
            ids: Interner::default(),
        }
    }
}

impl PcIds {
    #[inline]
    fn id(&mut self, pc: u32) -> u32 {
        let slot = &mut self.recent[pc as usize % 64];
        if slot.0 != u64::from(pc) {
            *slot = (u64::from(pc), self.ids.intern(u64::from(pc)));
        }
        slot.1
    }
}

impl Default for ProfileObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadedTraceSink for ProfileObserver {
    fn begin(&mut self, num_threads: usize) {
        self.num_threads = num_threads;
    }

    #[inline]
    fn record(&mut self, thread: usize, inst: Inst) {
        // Profiles are defined over the thread-major stream order
        // documented on the type.
        debug_assert!(
            thread >= self.last_thread,
            "ProfileObserver requires thread-major streams (thread {thread} after {})",
            self.last_thread
        );
        self.last_thread = thread;
        self.observe(&inst);
    }
}

/// Name → index map over [`feature_names`], built once: `value`/`try_value`
/// lookups are O(1), not a linear scan of ~360 names.
fn feature_index() -> &'static std::collections::HashMap<&'static str, usize> {
    static INDEX: OnceLock<std::collections::HashMap<&'static str, usize>> = OnceLock::new();
    INDEX.get_or_init(|| {
        feature_names()
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect()
    })
}

fn push_cdf(values: &mut Vec<f64>, h: &ReuseHistogram) {
    for b in 0..NUM_BUCKETS {
        values.push(h.cdf(b));
    }
}

fn log2p1(x: f64) -> f64 {
    (x + 1.0).log2()
}

/// The stable names of every profile feature, in `values()` order.
///
/// The count is fixed at compile time (`~360` features, the analog of the
/// paper's 395) and asserted against every constructed profile.
pub fn feature_names() -> &'static [String] {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let mut names = Vec::new();
        for op in Opcode::ALL {
            names.push(format!("mix.op.{}", op.mnemonic()));
        }
        for class in OpClass::ALL {
            names.push(format!("mix.class.{}", class.label()));
        }
        names.push("mix.log2_total_insts".into());
        names.push("mix.avg_src_regs".into());
        names.push("mix.avg_dst_regs".into());
        names.push("mix.avg_access_size".into());
        names.push("mix.load_store_ratio".into());
        names.push("mix.cond_branch_frac".into());
        for w in ["w32", "w64", "w128", "w256", "inf"] {
            names.push(format!("ilp.{w}"));
        }
        for g in ["elem", "line64"] {
            for kind in ["read", "write", "all"] {
                for b in 0..NUM_BUCKETS {
                    names.push(format!("reuse.{g}.{kind}.cdf.b{b}"));
                }
            }
            for kind in ["read", "write"] {
                for b in 0..NUM_BUCKETS {
                    names.push(format!("traffic.{g}.{kind}.b{b}"));
                }
            }
        }
        for b in 0..NUM_BUCKETS {
            names.push(format!("reuse.elem.all.pdf.b{b}"));
        }
        for b in 0..NUM_BUCKETS {
            names.push(format!("reuse.inst.cdf.b{b}"));
        }
        for b in 0..NUM_BUCKETS {
            names.push(format!("reuse.inst.pdf.b{b}"));
        }
        names.push("reuse.elem.read.cold".into());
        names.push("reuse.elem.write.cold".into());
        names.push("reuse.elem.all.cold".into());
        names.push("reuse.line64.all.cold".into());
        names.push("reuse.inst.cold".into());
        for h in ["elem.all", "inst"] {
            names.push(format!("reuse.{h}.mean_log2"));
            names.push(format!("reuse.{h}.q50_bucket"));
            names.push(format!("reuse.{h}.q90_bucket"));
        }
        names.push("footprint.log2_total_bytes".into());
        names.push("footprint.log2_read_bytes".into());
        names.push("footprint.log2_written_bytes".into());
        names.push("footprint.log2_static_insts".into());
        names.push("threads".into());
        names
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use napel_ir::Emitter;

    fn streaming_trace(n: u64, threads: usize) -> MultiTrace {
        let mut t = MultiTrace::new(threads);
        for th in 0..threads {
            let mut e = Emitter::new(t.thread_sink(th));
            for i in 0..n {
                let a = e.load(0, (th as u64) << 32 | (8 * i), 8);
                let b = e.fmul(1, a, a);
                e.store(2, ((th as u64) << 32) | (0x1000_0000 + 8 * i), 8, b);
            }
        }
        t
    }

    #[test]
    fn names_and_values_align() {
        let p = ApplicationProfile::of(&streaming_trace(100, 2));
        assert_eq!(p.values().len(), feature_names().len());
        assert!(
            p.values().iter().all(|v| v.is_finite()),
            "all features finite"
        );
    }

    #[test]
    fn feature_names_are_unique() {
        let names = feature_names();
        let mut set = std::collections::HashSet::new();
        for n in names {
            assert!(set.insert(n), "duplicate feature name {n}");
        }
        // Comparable to the paper's 395 features.
        assert!(names.len() >= 300, "profile has {} features", names.len());
    }

    #[test]
    fn mix_features_reflect_kernel() {
        let p = ApplicationProfile::of(&streaming_trace(64, 1));
        // Kernel is load+fmul+store: one third each.
        assert!((p.value("mix.op.load") - 1.0 / 3.0).abs() < 1e-9);
        assert!((p.value("mix.op.fmul") - 1.0 / 3.0).abs() < 1e-9);
        assert!((p.value("mix.op.store") - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(p.value("threads"), 1.0);
    }

    #[test]
    fn streaming_kernel_has_cold_data_hot_code() {
        let p = ApplicationProfile::of(&streaming_trace(200, 1));
        // Data: never reused at element granularity.
        assert!(p.value("reuse.elem.all.cold") > 0.99);
        // Code: 3 static instructions replayed 200 times.
        assert!(p.value("reuse.inst.cold") < 0.05);
        assert!(p.value("footprint.log2_static_insts") < 3.0);
    }

    #[test]
    fn value_panics_on_unknown_feature() {
        let p = ApplicationProfile::of(&streaming_trace(4, 1));
        let r = std::panic::catch_unwind(|| p.value("no.such.feature"));
        assert!(r.is_err());
    }

    #[test]
    fn try_value_is_the_fallible_twin() {
        let p = ApplicationProfile::of(&streaming_trace(4, 1));
        assert_eq!(p.try_value("no.such.feature"), None);
        assert_eq!(p.try_value("threads"), Some(1.0));
        // Agrees with the panicking accessor on every known feature.
        for name in feature_names() {
            assert_eq!(p.try_value(name), Some(p.value(name)), "{name}");
        }
    }

    #[test]
    fn threads_feature_tracks_multitrace() {
        let p = ApplicationProfile::of(&streaming_trace(16, 4));
        assert_eq!(p.value("threads"), 4.0);
    }

    #[test]
    fn streaming_observer_is_bit_identical_to_of() {
        let trace = streaming_trace(300, 3);
        let mut obs = ProfileObserver::new();
        ThreadedTraceSink::begin(&mut obs, trace.num_threads());
        for (t, lane) in trace.iter().enumerate() {
            for inst in lane.iter() {
                ThreadedTraceSink::record(&mut obs, t, *inst);
            }
        }
        assert_eq!(obs.instructions(), trace.total_insts() as u64);
        let streamed = obs.finish();
        let materialized = ApplicationProfile::of(&trace);
        assert_eq!(
            streamed.values(),
            materialized.values(),
            "streaming profile must be bit-identical"
        );
    }

    /// The profile of one thread built by `build`.
    fn profile_of(build: impl FnOnce(&mut Emitter<&mut napel_ir::Trace>)) -> ApplicationProfile {
        let mut t = MultiTrace::new(1);
        let mut e = Emitter::new(t.thread_sink(0));
        build(&mut e);
        drop(e);
        ApplicationProfile::of(&t)
    }

    /// Asserts the `footprint.log2_*` features: total, read and written
    /// bytes, then static instructions.
    fn assert_footprint(p: &ApplicationProfile, expected: [f64; 4]) {
        let names = ["total_bytes", "read_bytes", "written_bytes", "static_insts"];
        for (name, x) in names.into_iter().zip(expected) {
            assert_eq!(
                p.value(&format!("footprint.log2_{name}")),
                log2p1(x),
                "{name}"
            );
        }
    }

    #[test]
    fn footprint_counts_unique_elements() {
        let p = profile_of(|e| {
            for _ in 0..4 {
                let x = e.load(0, 0x100, 8);
                e.store(1, 0x200, 8, x);
            }
            let y = e.load(2, 0x108, 8);
            e.store(3, 0x200, 8, y); // overlaps previous store
        });
        // Read 0x100 and 0x108, wrote 0x200: 24 bytes over 4 pcs.
        assert_footprint(&p, [24.0, 16.0, 8.0, 4.0]);
    }

    #[test]
    fn read_write_overlap_not_double_counted() {
        let p = profile_of(|e| {
            let x = e.load(0, 0x40, 8);
            e.store(1, 0x40, 8, x);
        });
        assert_footprint(&p, [8.0, 8.0, 8.0, 2.0]);
    }

    #[test]
    fn empty_stream_has_zero_footprint() {
        let p = profile_of(|_| {});
        assert_footprint(&p, [0.0; 4]);
    }

    #[test]
    fn footprint_scales_with_problem_size() {
        let small = ApplicationProfile::of(&streaming_trace(32, 1));
        let large = ApplicationProfile::of(&streaming_trace(1024, 1));
        assert!(
            large.value("footprint.log2_total_bytes") > small.value("footprint.log2_total_bytes")
        );
        assert!(large.value("mix.log2_total_insts") > small.value("mix.log2_total_insts"));
    }
}

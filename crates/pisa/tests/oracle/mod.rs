//! The profiler as it was before the bitmap stack-distance tracker, frozen
//! as a test oracle.
//!
//! This is the Fenwick-over-every-timestamp tracker with a hash map per
//! analyzer: every reuse tracker, the ILP dependence maps and the footprint
//! sets key on raw addresses, pcs and registers. The crate's
//! `ProfileObserver` must reproduce [`profile`]'s feature vector bit for
//! bit; nothing here is tuned for speed. Shared by the crate's tests (as a
//! path module) and the workspace's `tests/streaming.rs`.

use napel_ir::fxhash::{FxHashMap, FxHashSet};
use napel_ir::{Inst, MultiTrace, OpClass, Opcode, ThreadedTraceSink};

/// Power-of-two distance buckets.
pub const NUM_BUCKETS: usize = 24;

/// The oracle's feature vector of `trace`, in `feature_names()` order:
/// threads back to back through one observer.
pub fn profile(trace: &MultiTrace) -> Vec<f64> {
    let mut o = Observer::new();
    o.begin(trace.num_threads());
    for thread in trace.iter() {
        for inst in thread.iter() {
            o.observe(inst);
        }
    }
    o.assemble()
}

/// Every analyzer of the profile, fed one instruction at a time (a
/// [`ThreadedTraceSink`], so a kernel can stream into it).
pub struct Observer {
    mix: MixCounter,
    ilp: IlpAnalyzer,
    elem: TrafficAnalyzer,
    line: TrafficAnalyzer,
    inst_reuse: ReuseAnalyzer,
    footprint: FootprintAnalyzer,
    num_threads: usize,
}

impl ThreadedTraceSink for Observer {
    fn begin(&mut self, num_threads: usize) {
        self.num_threads = num_threads;
    }

    fn record(&mut self, _thread: usize, inst: Inst) {
        self.observe(&inst);
    }
}

impl Observer {
    pub fn new() -> Self {
        Observer {
            mix: MixCounter::default(),
            ilp: IlpAnalyzer::new(),
            elem: TrafficAnalyzer::new(3),
            line: TrafficAnalyzer::new(6),
            inst_reuse: ReuseAnalyzer::default(),
            footprint: FootprintAnalyzer::default(),
            num_threads: 0,
        }
    }

    pub fn observe(&mut self, inst: &Inst) {
        self.mix.observe(inst);
        self.ilp.observe(inst);
        self.elem.observe(inst);
        self.line.observe(inst);
        self.inst_reuse.access(u64::from(inst.pc));
        self.footprint.observe(inst);
    }

    pub fn assemble(self) -> Vec<f64> {
        let Observer {
            mix,
            ilp,
            elem,
            line,
            inst_reuse,
            footprint,
            num_threads,
        } = self;
        let mut values = Vec::new();
        for op in Opcode::ALL {
            values.push(mix.op_fraction(op));
        }
        for class in OpClass::ALL {
            values.push(mix.class_fraction(class));
        }
        values.push(log2p1(mix.total as f64));
        values.push(mix.avg_src_regs());
        values.push(mix.avg_dst_regs());
        values.push(mix.avg_access_size());
        values.push(mix.load_store_ratio());
        values.push(mix.cond_branch_fraction());
        values.extend(ilp.ilp());
        for t in [&elem, &line] {
            push_cdf(&mut values, &t.reads.histogram);
            push_cdf(&mut values, &t.writes.histogram);
            push_cdf(&mut values, &t.all.histogram);
            for b in 0..NUM_BUCKETS {
                values.push(traffic(&t.reads.histogram, b));
            }
            for b in 0..NUM_BUCKETS {
                values.push(traffic(&t.writes.histogram, b));
            }
        }
        for b in 0..NUM_BUCKETS {
            values.push(elem.all.histogram.pdf(b));
        }
        push_cdf(&mut values, &inst_reuse.histogram);
        for b in 0..NUM_BUCKETS {
            values.push(inst_reuse.histogram.pdf(b));
        }
        values.push(elem.reads.histogram.cold_fraction());
        values.push(elem.writes.histogram.cold_fraction());
        values.push(elem.all.histogram.cold_fraction());
        values.push(line.all.histogram.cold_fraction());
        values.push(inst_reuse.histogram.cold_fraction());
        for h in [&elem.all.histogram, &inst_reuse.histogram] {
            values.push(h.mean_log2());
            values.push(h.quantile_bucket(0.5) as f64);
            values.push(h.quantile_bucket(0.9) as f64);
        }
        values.push(log2p1(footprint.total_bytes() as f64));
        values.push(log2p1(footprint.read_bytes() as f64));
        values.push(log2p1(footprint.written_bytes() as f64));
        values.push(log2p1(footprint.pcs.len() as f64));
        values.push(num_threads as f64);
        values
    }
}

fn push_cdf(values: &mut Vec<f64>, h: &ReuseHistogram) {
    for b in 0..NUM_BUCKETS {
        values.push(h.cdf(b));
    }
}

fn log2p1(x: f64) -> f64 {
    (x + 1.0).log2()
}

fn traffic(h: &ReuseHistogram, bucket: usize) -> f64 {
    if h.total == 0 {
        return 0.0;
    }
    1.0 - h.cdf(bucket)
}

#[derive(Default)]
struct MixCounter {
    total: u64,
    per_op: [u64; Opcode::ALL.len()],
    src_regs: u64,
    dst_regs: u64,
    mem_bytes_read: u64,
    mem_bytes_written: u64,
    cond_branches: u64,
}

impl MixCounter {
    fn observe(&mut self, inst: &Inst) {
        self.total += 1;
        self.per_op[inst.op.index()] += 1;
        self.src_regs += inst.num_src_regs() as u64;
        self.dst_regs += u64::from(inst.dst_reg().is_some());
        match inst.op {
            Opcode::Load => self.mem_bytes_read += u64::from(inst.size),
            Opcode::Store => self.mem_bytes_written += u64::from(inst.size),
            Opcode::Branch => self.cond_branches += u64::from(inst.num_src_regs() > 0),
            _ => {}
        }
    }

    fn per_total(&self, n: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            n as f64 / self.total as f64
        }
    }

    fn op_fraction(&self, op: Opcode) -> f64 {
        self.per_total(self.per_op[op.index()])
    }

    fn class_fraction(&self, class: OpClass) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let count: u64 = Opcode::ALL
            .iter()
            .filter(|op| op.class() == class)
            .map(|op| self.per_op[op.index()])
            .sum();
        count as f64 / self.total as f64
    }

    fn avg_src_regs(&self) -> f64 {
        self.per_total(self.src_regs)
    }

    fn avg_dst_regs(&self) -> f64 {
        self.per_total(self.dst_regs)
    }

    fn avg_access_size(&self) -> f64 {
        let mem = self.per_op[Opcode::Load.index()] + self.per_op[Opcode::Store.index()];
        if mem == 0 {
            0.0
        } else {
            (self.mem_bytes_read + self.mem_bytes_written) as f64 / mem as f64
        }
    }

    fn load_store_ratio(&self) -> f64 {
        let loads = self.per_op[Opcode::Load.index()];
        let stores = self.per_op[Opcode::Store.index()].max(1);
        loads as f64 / stores as f64
    }

    fn cond_branch_fraction(&self) -> f64 {
        self.per_total(self.cond_branches)
    }
}

const NUM_WINDOWS: usize = 5;
const WINDOWS: [Option<usize>; NUM_WINDOWS] = [Some(32), Some(64), Some(128), Some(256), None];

struct IlpAnalyzer {
    reg_depth: FxHashMap<u32, [u64; NUM_WINDOWS]>,
    mem_depth: FxHashMap<u64, [u64; NUM_WINDOWS]>,
    rings: Vec<Vec<u64>>,
    ring_pos: [usize; NUM_WINDOWS],
    critical_path: [u64; NUM_WINDOWS],
    total: u64,
}

impl IlpAnalyzer {
    fn new() -> Self {
        IlpAnalyzer {
            reg_depth: FxHashMap::default(),
            mem_depth: FxHashMap::default(),
            rings: WINDOWS.iter().map(|w| vec![0u64; w.unwrap_or(0)]).collect(),
            ring_pos: [0; NUM_WINDOWS],
            critical_path: [0; NUM_WINDOWS],
            total: 0,
        }
    }

    fn observe(&mut self, inst: &Inst) {
        self.total += 1;
        let mut ready = [0u64; NUM_WINDOWS];
        for r in inst.src_regs() {
            if let Some(d) = self.reg_depth.get(&r.0) {
                for w in 0..NUM_WINDOWS {
                    ready[w] = ready[w].max(d[w]);
                }
            }
        }
        if inst.op == Opcode::Load {
            if let Some(addr) = inst.mem_addr() {
                if let Some(d) = self.mem_depth.get(&(addr >> 3)) {
                    for w in 0..NUM_WINDOWS {
                        ready[w] = ready[w].max(d[w]);
                    }
                }
            }
        }
        let mut done = [0u64; NUM_WINDOWS];
        for w in 0..NUM_WINDOWS {
            let floor = if self.rings[w].is_empty() {
                0
            } else {
                self.rings[w][self.ring_pos[w]]
            };
            done[w] = ready[w].max(floor) + 1;
            if !self.rings[w].is_empty() {
                let pos = self.ring_pos[w];
                self.rings[w][pos] = done[w];
                self.ring_pos[w] = (pos + 1) % self.rings[w].len();
            }
            self.critical_path[w] = self.critical_path[w].max(done[w]);
        }
        if let Some(dst) = inst.dst_reg() {
            self.reg_depth.insert(dst.0, done);
        }
        if inst.op == Opcode::Store {
            if let Some(addr) = inst.mem_addr() {
                self.mem_depth.insert(addr >> 3, done);
            }
        }
    }

    fn ilp(&self) -> Vec<f64> {
        self.critical_path
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
}

/// Histogram of reuse distances in power-of-two buckets.
#[derive(Default)]
pub struct ReuseHistogram {
    buckets: [u64; NUM_BUCKETS],
    cold: u64,
    total: u64,
    sum_log2: u64,
}

impl ReuseHistogram {
    fn record(&mut self, distance: Option<u64>) {
        self.total += 1;
        match distance {
            None => self.cold += 1,
            Some(d) => {
                let b = bucket_of(d);
                self.buckets[b] += 1;
                self.sum_log2 += b as u64;
            }
        }
    }

    fn cdf(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.buckets[..=bucket.min(NUM_BUCKETS - 1)].iter().sum();
        hits as f64 / self.total as f64
    }

    fn pdf(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.buckets[bucket.min(NUM_BUCKETS - 1)] as f64 / self.total as f64
    }

    fn cold_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cold as f64 / self.total as f64
        }
    }

    fn mean_log2(&self) -> f64 {
        let warm = self.total - self.cold;
        if warm == 0 {
            0.0
        } else {
            self.sum_log2 as f64 / warm as f64
        }
    }

    fn quantile_bucket(&self, q: f64) -> usize {
        if self.total == 0 {
            return if 0.0 >= q { 0 } else { NUM_BUCKETS };
        }
        let mut hits = 0u64;
        for b in 0..NUM_BUCKETS {
            hits += self.buckets[b];
            if hits as f64 / self.total as f64 >= q {
                return b;
            }
        }
        NUM_BUCKETS
    }
}

fn bucket_of(d: u64) -> usize {
    if d <= 1 {
        0
    } else {
        (64 - (d - 1).leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Exact LRU stack distance: a Fenwick tree over every access timestamp
/// marks which timestamps are the latest access of their key.
#[derive(Default)]
pub struct StackDistance {
    tree: Vec<u32>,
    last: FxHashMap<u64, usize>,
    clock: usize,
}

impl StackDistance {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn distinct(&self) -> usize {
        self.last.len()
    }

    /// The stack distance of an access to `key` (`None` on first touch).
    pub fn access(&mut self, key: u64) -> Option<u64> {
        self.clock += 1;
        let t = self.clock;
        if t >= self.tree.len() {
            self.grow(t);
        }
        let dist = match self.last.insert(key, t) {
            None => None,
            Some(prev) => {
                let count = self.prefix(t - 1) - self.prefix(prev);
                self.update(prev, -1);
                Some(count as u64)
            }
        };
        self.update(t, 1);
        dist
    }

    fn grow(&mut self, need: usize) {
        let new_len = (need + 1)
            .next_power_of_two()
            .max(self.tree.len().saturating_mul(2))
            .max(1024);
        self.tree = vec![0; new_len];
        for &t in self.last.values() {
            self.tree[t] += 1;
        }
        for i in 1..new_len {
            let parent = i + (i & i.wrapping_neg());
            if parent < new_len {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    fn update(&mut self, mut i: usize, delta: i32) {
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    fn prefix(&self, mut i: usize) -> u32 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

#[derive(Default)]
struct ReuseAnalyzer {
    stack: StackDistance,
    histogram: ReuseHistogram,
}

impl ReuseAnalyzer {
    fn access(&mut self, key: u64) {
        let d = self.stack.access(key);
        self.histogram.record(d);
    }
}

struct TrafficAnalyzer {
    shift: u32,
    reads: ReuseAnalyzer,
    writes: ReuseAnalyzer,
    all: ReuseAnalyzer,
}

impl TrafficAnalyzer {
    fn new(shift: u32) -> Self {
        TrafficAnalyzer {
            shift,
            reads: ReuseAnalyzer::default(),
            writes: ReuseAnalyzer::default(),
            all: ReuseAnalyzer::default(),
        }
    }

    fn observe(&mut self, inst: &Inst) {
        let Some(addr) = inst.mem_addr() else { return };
        let key = addr >> self.shift;
        match inst.op {
            Opcode::Load => self.reads.access(key),
            Opcode::Store => self.writes.access(key),
            _ => return,
        }
        self.all.access(key);
    }
}

#[derive(Default)]
struct FootprintAnalyzer {
    read_elems: FxHashSet<u64>,
    written_elems: FxHashSet<u64>,
    pcs: FxHashSet<u32>,
}

impl FootprintAnalyzer {
    fn observe(&mut self, inst: &Inst) {
        self.pcs.insert(inst.pc);
        if let Some(addr) = inst.mem_addr() {
            let elem = addr >> 3;
            match inst.op {
                Opcode::Load => {
                    self.read_elems.insert(elem);
                }
                Opcode::Store => {
                    self.written_elems.insert(elem);
                }
                _ => {}
            }
        }
    }

    fn read_bytes(&self) -> u64 {
        self.read_elems.len() as u64 * 8
    }

    fn written_bytes(&self) -> u64 {
        self.written_elems.len() as u64 * 8
    }

    fn total_bytes(&self) -> u64 {
        let union: FxHashSet<&u64> = self.read_elems.union(&self.written_elems).collect();
        union.len() as u64 * 8
    }
}

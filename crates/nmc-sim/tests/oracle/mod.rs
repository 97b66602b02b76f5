//! The cache model as it was before the last-line fast path, frozen as a
//! test oracle.
//!
//! Every access bumps the cache clock and stamps the touched line's
//! `last_use`, including a repeat of the previous access's line. Both
//! simulation engines call the live `Cache`, so their differential suite
//! cannot see a fault in it; `tests/cache_oracle.rs` compares the two
//! models access by access instead. Nothing here is tuned for speed.

use nmc_sim::cache::CacheStats;

/// Outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub hit: bool,
    pub writeback: Option<u64>,
    pub fill: bool,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

/// The former set-associative write-back, write-allocate LRU cache.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Line>>,
    line_shift: u32,
    set_mask: u64,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    pub fn new(num_lines: usize, line_bytes: u64, assoc: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(num_lines > 0, "cache needs at least one line");
        let assoc = assoc.clamp(1, num_lines);
        assert!(
            num_lines.is_multiple_of(assoc),
            "associativity must divide line count"
        );
        let num_sets = num_lines / assoc;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Cache {
            sets: vec![
                vec![
                    Line {
                        tag: 0,
                        valid: false,
                        dirty: false,
                        last_use: 0
                    };
                    assoc
                ];
                num_sets
            ],
            line_shift: line_bytes.trailing_zeros(),
            set_mask: num_sets as u64 - 1,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.clock += 1;
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = self.clock;
            line.dirty |= write;
            self.stats.hits += 1;
            return Access {
                hit: true,
                writeback: None,
                fill: false,
            };
        }

        let victim_idx = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("non-empty set")
        });
        let victim = &mut set[victim_idx];
        let writeback = (victim.valid && victim.dirty).then(|| {
            self.stats.writebacks += 1;
            let victim_line = (victim.tag << self.set_mask.count_ones()) | set_idx as u64;
            victim_line << self.line_shift
        });
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            last_use: self.clock,
        };
        Access {
            hit: false,
            writeback,
            fill: true,
        }
    }

    pub fn reset(&mut self) {
        for set in &mut self.sets {
            for line in set.iter_mut() {
                *line = Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    last_use: 0,
                };
            }
        }
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

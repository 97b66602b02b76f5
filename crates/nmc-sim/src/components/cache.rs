//! Set-associative write-back, write-allocate LRU cache.
//!
//! The Table 3 NMC L1 is deliberately tiny — two 64 B lines, 2-way — so the
//! model keeps per-set metadata in small vectors and performs exact LRU.
//!
//! An access to the previous access's line takes a fast path. On
//! pipebench's campaign deck (572 simulations) that is 99.7% of
//! instruction-cache and 30% of data-cache accesses, and the fast path is
//! worth ~4% of `campaign` throughput (EXPERIMENTS.md "Simulator request
//! path"). The latest stamping access gave that line the largest
//! `last_use` of all lines and every access since went to it, so it is
//! valid and its set's MRU line, and stamping it again would leave the LRU
//! order of every set as it is: the fast path counts the hit, ORs the
//! dirty bit, and skips the clock and `last_use`. `tests/cache_oracle.rs`
//! compares every access with the former model, which stamped every
//! access.

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Whether the access hit.
    pub hit: bool,
    /// Line-aligned byte address of a dirty line evicted by this access
    /// (write-back traffic), if any.
    pub writeback: Option<u64>,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit ratio (1.0 for an untouched cache).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

/// A set-associative LRU cache model (state and counters only; latency is
/// decided by the caller).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Line>>,
    line_shift: u32,
    set_mask: u64,
    clock: u64,
    stats: CacheStats,
    /// Line address of the previous access and that line's way in its set;
    /// `None` before the first access.
    last: Option<(u64, usize)>,
}

impl Cache {
    /// Creates a cache of `num_lines` lines of `line_bytes` each, organized
    /// `assoc`-way (clamped to `num_lines`).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two, or `num_lines` is zero,
    /// or `assoc` does not divide `num_lines`.
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
            last: None,
        }
    }

    /// Accesses `addr`; `write` marks the line dirty. Misses allocate
    /// (write-allocate) and may evict a dirty victim.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        if let Some((last, way)) = self.last {
            if last == line_addr {
                // The set's most recently used line: see the module doc.
                self.sets[set_idx][way].dirty |= write;
                self.stats.hits += 1;
                return Access {
                    hit: true,
                    writeback: None,
                };
            }
        }
        self.clock += 1;
        let tag = line_addr >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];

        // Hit?
        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            let line = &mut set[way];
            line.last_use = self.clock;
            line.dirty |= write;
            self.stats.hits += 1;
            self.last = Some((line_addr, way));
            return Access {
                hit: true,
                writeback: None,
            };
        }

        // Miss: pick victim (invalid first, else LRU).
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
        self.last = Some((line_addr, victim_idx));
        Access {
            hit: false,
            writeback,
        }
    }

    /// Returns the cache to its power-on state (all lines invalid, counters
    /// zeroed) without reallocating the set arrays — the buffer-reuse path
    /// when a campaign worker recycles one engine across jobs.
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
        self.last = None;
    }

    /// Number of lines (for shape comparison when deciding whether a reset
    /// can reuse the allocation).
    pub fn num_lines(&self) -> usize {
        self.sets.len() * self.sets.first().map_or(0, |s| s.len())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_within_line_hits() {
        let mut c = Cache::new(2, 64, 2);
        assert!(!c.access(0, false).hit); // cold
        for off in (8..64).step_by(8) {
            assert!(c.access(off, false).hit, "offset {off} shares the line");
        }
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().hits, 7);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Fully associative 2-line cache.
        let mut c = Cache::new(2, 64, 2);
        c.access(0, false); // line A
        c.access(64, false); // line B
        c.access(0, false); // touch A -> B is LRU
        c.access(128, false); // line C evicts B
        assert!(c.access(0, false).hit, "A must survive");
        assert!(!c.access(64, false).hit, "B was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = Cache::new(2, 64, 2);
        c.access(0x40, true); // dirty line at 0x40
        c.access(0x80, false);
        let a = c.access(0x100, false); // evicts LRU = 0x40 (dirty)
        assert_eq!(a.writeback, Some(0x40));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Cache::new(1, 64, 1);
        c.access(0, false);
        let a = c.access(64, false);
        assert!(!a.hit);
        assert_eq!(a.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(1, 64, 1);
        c.access(0, false); // clean fill
        c.access(8, true); // write hit dirties the line
        let a = c.access(64, false); // evict
        assert_eq!(a.writeback, Some(0));
    }

    #[test]
    fn set_indexing_separates_conflicting_lines() {
        // 4 lines, 2-way -> 2 sets. Addresses 0 and 128 map to set 0;
        // address 64 maps to set 1.
        let mut c = Cache::new(4, 64, 2);
        c.access(0, false);
        c.access(128, false);
        c.access(64, false);
        assert!(c.access(0, false).hit);
        assert!(c.access(128, false).hit);
        assert!(c.access(64, false).hit);
    }

    #[test]
    fn hit_ratio_matches_counts() {
        let mut c = Cache::new(2, 64, 2);
        for _ in 0..10 {
            c.access(0, false);
        }
        assert!((c.stats().hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_cold_behavior() {
        let mut c = Cache::new(2, 64, 2);
        c.access(0, true);
        c.access(0, false);
        assert_eq!(c.stats().hits, 1);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        let a = c.access(0, false);
        assert!(!a.hit, "reset cache must miss cold");
        assert_eq!(a.writeback, None, "reset clears dirty bits");
        assert_eq!(c.num_lines(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(2, 48, 2);
    }

    #[test]
    fn writeback_address_roundtrip_multi_set() {
        // Verify the reconstructed victim address is line-aligned and maps
        // back to the same set.
        let mut c = Cache::new(4, 64, 1); // direct-mapped, 4 sets
        c.access(0x1040, true); // set = (0x1040>>6)&3 = 1
        let a = c.access(0x2040, false); // same set, evicts dirty
        let wb = a.writeback.expect("dirty eviction");
        assert_eq!(wb, 0x1040 & !63);
        assert_eq!((wb >> 6) & 3, 1);
    }
}

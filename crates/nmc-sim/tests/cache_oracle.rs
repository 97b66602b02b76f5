//! The cache model against the frozen former model of `tests/oracle`:
//! equal `hit` and `writeback` on every access and equal statistics, on
//! random access streams over a small pool of lines, so that repeats of
//! the previous line (the fast path), hits on older lines and evictions are
//! all common.

use proptest::prelude::*;

use nmc_sim::cache::Cache;

#[allow(dead_code)]
mod oracle;

/// Cache shapes as `(lines, associativity)`, 64-byte lines: one line,
/// Table 3's two lines 2-way, 8 lines 2-way, 4 lines direct-mapped, and
/// 16 lines fully associative.
const SHAPES: [(usize, usize); 5] = [(1, 1), (2, 2), (8, 2), (4, 1), (16, 16)];

/// One access: `(repeat the previous line unless nonzero, line, byte
/// offset, write)`.
type Op = (u8, u64, u64, bool);

fn ops(pool: u64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..4, 0..pool, 0u64..64, any::<bool>()), 1..600)
}

/// Byte address of pool line `i`: low line bits spread the pool over
/// every set, and a high copy of them gives tags far above the set bits.
fn address(line: u64, offset: u64) -> u64 {
    ((line | line << 30) << 6) | offset
}

/// Drives both models through `ops`, resetting both before op `reset_at`.
fn compare(lines: usize, assoc: usize, ops: &[Op], reset_at: usize) {
    let mut live = Cache::new(lines, 64, assoc);
    let mut frozen = oracle::Cache::new(lines, 64, assoc);
    let mut line = 0;
    for (i, &(repeat, pick, offset, write)) in ops.iter().enumerate() {
        if i == reset_at {
            assert_eq!(live.stats(), frozen.stats(), "before the reset");
            live.reset();
            frozen.reset();
        }
        if repeat != 0 {
            line = pick;
        }
        let addr = address(line, offset);
        let (got, want) = (live.access(addr, write), frozen.access(addr, write));
        assert_eq!(
            (got.hit, got.writeback),
            (want.hit, want.writeback),
            "{lines} lines {assoc}-way, access {i} ({addr:#x}, write {write})"
        );
    }
    assert_eq!(live.stats(), frozen.stats(), "{lines} lines {assoc}-way");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn every_access_matches_the_frozen_cache(
        small in ops(5),
        large in ops(40),
        reset_at in 0usize..700,
    ) {
        for (lines, assoc) in SHAPES {
            let stream = if lines <= 2 { &small } else { &large };
            compare(lines, assoc, stream, reset_at);
        }
    }
}

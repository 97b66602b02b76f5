//! Acceptance tests for the streaming trace pipeline.
//!
//! The contract under test (DESIGN.md §Streaming pipeline):
//!
//! 1. **Profiling equivalence** — for every Table 2 workload, streaming
//!    the kernel straight into a [`ProfileObserver`] yields an
//!    [`ApplicationProfile`] whose feature vector is *bit-identical*
//!    (`f64::to_bits`) to profiling the materialized trace.
//! 2. **Simulation equivalence** — simulating from compact-encoded
//!    per-thread instruction streams ([`NmcSystem::run_streams`]) yields
//!    a [`SimReport`] equal field for field to simulating the
//!    materialized trace.
//! 3. **Campaign equivalence** — a full campaign over the streaming
//!    single-pass path produces the same labeled rows under the Serial
//!    and the Threaded executor, equal to rows profiled and simulated
//!    from a freshly generated, materialized trace.
//! 4. **Residency** — the compact encoding stays at or under 8 bytes per
//!    instruction, at least 4× below the 32-byte materialized form.
//! 5. **Profiler equivalence** — the observer reproduces, bit for bit, the
//!    frozen profiler of `crates/pisa/tests/oracle` (a Fenwick tree over
//!    every timestamp, hash maps keyed by raw addresses and registers) on
//!    every Table 2 workload's test and level inputs, on random raw
//!    instruction streams, and on one long thread whose critical path
//!    crosses several growths of the ILP depth tables.

use napel::core::campaign::{plan_jobs, Serial, Threaded};
use napel::core::collect::{collect, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::ir::{
    Emitter, EncodedTrace, EncodedTraceSink, Inst, MultiTrace, Opcode, Reg, TeeSink,
    ThreadedTraceSink, Trace, TraceSink, NO_ADDR, NO_REG,
};
use napel::pisa::{feature_names, ApplicationProfile, ProfileObserver};
use napel::sim::{ArchConfig, NmcSystem};
use napel::workloads::{Scale, Workload};
use proptest::prelude::*;

#[allow(dead_code)]
#[path = "../crates/pisa/tests/oracle/mod.rs"]
mod oracle;

/// Each workload's test-input trace at test scale, materialized once.
fn test_trace(w: Workload) -> MultiTrace {
    w.generate_test(Scale::tiny())
}

#[test]
fn streaming_profile_is_bit_identical_for_every_workload() {
    for w in Workload::ALL {
        let trace = test_trace(w);
        let of = ApplicationProfile::of(&trace);

        let mut observer = ProfileObserver::new();
        let params: Vec<f64> = w.spec().params.iter().map(|p| p.test).collect();
        w.generate_into(&params, Scale::tiny(), &mut observer);
        let streamed = observer.finish();

        assert_bit_identical(streamed.values(), of.values(), w.name());
    }
}

#[test]
fn streamed_simulation_is_field_identical_for_every_workload() {
    let arch = ArchConfig::paper_default();
    for w in Workload::ALL {
        let trace = test_trace(w);
        let enc = EncodedTrace::from_multi(&trace);
        let sys = NmcSystem::new(arch.clone());
        let materialized = sys.run(&trace);
        let streamed = sys.run_streams(
            (0..enc.num_threads())
                .map(|t| enc.thread_iter(t))
                .collect::<Vec<_>>(),
        );
        // `SimReport: PartialEq` compares every field (cycles, caches,
        // DRAM, energy, active PEs, vault traffic).
        assert_eq!(streamed, materialized, "{w}");
    }
}

#[test]
fn single_pass_tee_matches_two_pass_for_every_workload() {
    // The campaign's fused pass: one kernel execution feeding the
    // profiler and the encoder at once must reproduce both the two-pass
    // profile and the materialized trace exactly.
    for w in Workload::ALL {
        let trace = test_trace(w);
        let params: Vec<f64> = w.spec().params.iter().map(|p| p.test).collect();

        let mut observer = ProfileObserver::new();
        let mut enc = EncodedTraceSink::new();
        {
            let mut tee = TeeSink::new(&mut observer, &mut enc);
            w.generate_into(&params, Scale::tiny(), &mut tee);
        }
        let enc = enc.finish();
        let profile = observer.finish();

        assert_eq!(enc.decode(), trace, "{w}: encoded trace must round-trip");
        let of = ApplicationProfile::of(&trace);
        assert_bit_identical(profile.values(), of.values(), w.name());
    }
}

#[test]
fn encoded_traces_stay_within_the_residency_budget() {
    for w in Workload::ALL {
        let trace = test_trace(w);
        let enc = EncodedTrace::from_multi(&trace);
        let per_inst = enc.encoded_bytes() as f64 / enc.total_insts().max(1) as f64;
        assert!(
            per_inst <= 8.0,
            "{w}: {per_inst:.2} encoded bytes/inst exceeds the 8-byte target"
        );
        assert!(
            enc.encoded_bytes() * 4 <= enc.materialized_bytes(),
            "{w}: {} encoded vs {} materialized bytes is under 4x",
            enc.encoded_bytes(),
            enc.materialized_bytes()
        );
    }
}

#[test]
fn campaign_rows_are_identical_across_executors() {
    // Two workloads × the default architecture neighborhood, through the
    // real campaign entry point. Rows (features AND labels) must be
    // bit-identical across executors, and equal to rows built from a
    // freshly generated trace; floats are compared via
    // `LabeledRun: PartialEq` (exact equality).
    let plan = CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gesu],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let opts = CampaignOptions::default();
    let (serial, _) = collect(&plan, &Serial, &opts).unwrap();
    let (threaded, _) = collect(&plan, &Threaded::new(4), &opts).unwrap();
    assert_eq!(serial.feature_names, threaded.feature_names);
    assert_eq!(
        serial.runs, threaded.runs,
        "threaded streaming campaign must match serial"
    );

    // The campaign profiles and simulates a point from its encoded trace
    // in one pass; the rows must equal profiling and simulating a freshly
    // generated, materialized trace.
    for (job, expected) in plan_jobs(&plan).iter().zip(&serial.runs) {
        let mut observer = ProfileObserver::new();
        job.workload
            .generate_into(&job.coords, job.scale, &mut observer);
        let trace = job.workload.generate(&job.coords, job.scale);
        let report = NmcSystem::new(job.arch.clone()).run(&trace);
        let run = napel::core::features::LabeledRun::from_report_checked(
            job.workload,
            job.coords.clone(),
            &observer.finish(),
            &job.arch,
            &report,
        )
        .expect("schema");
        assert_eq!(&run, expected, "{}", job.describe());
    }
}

/// Asserts two feature vectors equal by `to_bits`, naming the first
/// differing feature.
fn assert_bit_identical(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (name, (a, b)) in feature_names().iter().zip(got.iter().zip(want)) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: feature `{name}` differs ({a} vs {b})"
        );
    }
}

/// Streams `w` at `params` into the observer and the frozen oracle at
/// once and compares the two profiles bit for bit.
fn assert_matches_oracle(w: Workload, params: &[f64], what: &str) {
    let mut observer = ProfileObserver::new();
    let mut frozen = oracle::Observer::new();
    w.generate_into(
        params,
        Scale::tiny(),
        &mut TeeSink::new(&mut observer, &mut frozen),
    );
    assert_bit_identical(observer.finish().values(), &frozen.assemble(), what);
}

/// Every parameter of `w` at Table 2 level `level` (0 = minimum).
fn all_at_level(w: Workload, level: usize) -> Vec<f64> {
    w.spec().params.iter().map(|p| p.levels[level]).collect()
}

/// The applications whose upper levels emit millions of instructions.
const HEAVY: [Workload; 3] = [Workload::Bfs, Workload::Bp, Workload::Kme];

#[test]
fn observer_matches_the_frozen_profiler_on_test_and_level_inputs() {
    for w in Workload::ALL {
        assert_matches_oracle(w, &w.spec().test_values(), &format!("{w} test input"));
        let levels = if HEAVY.contains(&w) { 0..2 } else { 0..5 };
        for level in levels {
            assert_matches_oracle(w, &all_at_level(w, level), &format!("{w} level {level}"));
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release: CI profiler equivalence")]
fn observer_matches_the_frozen_profiler_on_heavy_upper_levels() {
    for w in HEAVY {
        for level in 2..5 {
            assert_matches_oracle(w, &all_at_level(w, level), &format!("{w} level {level}"));
        }
    }
}

/// One thread of 321 k instructions whose critical path crosses four
/// growths of the ILP analyzer's depth tables, alternating between them: a
/// register written at the start is read once the register table has
/// doubled, an element stored there is loaded once the element table has
/// doubled, and so on. The last instructions load an element and read a
/// register first written at the start. Each hop lies on the only longest
/// path, so a growth that drops or misplaces an old entry shortens it and
/// changes `ilp.inf`.
#[test]
fn observer_matches_the_frozen_profiler_across_table_growth() {
    const CHAIN: u32 = 1000;
    const HOP: u32 = 100;
    const A: u64 = 0x100;
    const B: u64 = 0x108;

    /// `n` more links of a dependence chain ending at `v`.
    fn chain(e: &mut Emitter<&mut Trace>, mut v: Reg, n: u32) -> Reg {
        for _ in 0..n {
            v = e.fadd(1, v, v);
        }
        v
    }
    /// `n` independent values, each stored to an element never touched
    /// before: one more register id and one more element id apiece.
    fn fill(e: &mut Emitter<&mut Trace>, next: &mut u64, n: usize) {
        for _ in 0..n {
            let f = e.imm(2);
            e.store(3, *next, 8, f);
            *next += 8;
        }
    }

    let mut trace = MultiTrace::new(1);
    let mut e = Emitter::new(trace.thread_sink(0));
    let mut next = 1 << 24;
    // Depth 1 + CHAIN in `early`, 2 + CHAIN in A; B is written shallow.
    let v = e.imm(4);
    let early = chain(&mut e, v, CHAIN);
    e.store(5, A, 8, early);
    let z = e.imm(6);
    e.store(7, B, 8, z);
    // Ids reach ~21 k, ~41 k, ~81 k and ~161 k in turn: both tables double
    // in every gap, up to 2^18 entries.
    fill(&mut e, &mut next, 20_000);
    let x = e.fadd(8, early, early); // register edge
    let x = chain(&mut e, x, HOP);
    e.store(9, B, 8, x);
    fill(&mut e, &mut next, 20_000);
    let y = e.load(10, B, 8); // element edge
    let y = chain(&mut e, y, HOP);
    fill(&mut e, &mut next, 40_000);
    let w = e.fadd(11, y, y); // register edge
    let w = chain(&mut e, w, HOP);
    e.store(12, A, 8, w);
    fill(&mut e, &mut next, 80_000);
    let u = e.load(13, A, 8); // element edge
    let t = e.fadd(14, u, early);
    chain(&mut e, t, HOP);
    drop(e);

    let profile = ApplicationProfile::of(&trace);
    assert_bit_identical(profile.values(), &oracle::profile(&trace), "table growth");
    let total = trace.total_insts() as f64;
    assert!(total >= 300_000.0, "{total} instructions");
    let longest = f64::from(8 + CHAIN + 4 * HOP);
    assert_eq!(
        profile.value("ilp.inf").to_bits(),
        (total / longest).to_bits()
    );
}

/// One raw instruction from a generated script entry: the shapes an
/// `Emitter` makes plus ones it never does (a load without an address, a
/// compute op carrying one, a register id near `u32::MAX`).
fn raw_inst((kind, pc, dst, src, addr): (u8, u32, u32, u32, u64)) -> Inst {
    // Registers: mostly small ids, some past the dense table's reach.
    let reg = |r: u32| match r % 16 {
        0 => u32::MAX - 1,
        1 => NO_REG,
        2 => 1 << 20 | r,
        _ => r % 2048,
    };
    // Addresses: low, near the top of the address space, and scattered.
    let addr = match addr % 3 {
        0 => (addr >> 2) % 512 * 8,
        1 => u64::MAX - 1 - (addr >> 2) % 512 * 8,
        _ => addr.rotate_left(29) | 1,
    };
    let srcs = [reg(src), reg(src.rotate_left(7))];
    match kind {
        0 => Inst::load(pc, addr, 8, reg(dst), srcs[1]),
        1 => Inst::store(pc, addr, 4, srcs[0], srcs[1]),
        2 => Inst::compute(pc, Opcode::FpMul, reg(dst), srcs),
        3 => Inst::compute(pc, Opcode::IntAlu, reg(dst), srcs),
        4 => Inst::compute(pc, Opcode::Branch, NO_REG, [srcs[0], NO_REG]),
        5 => Inst::load(pc, NO_ADDR, 8, reg(dst), NO_REG),
        6 => Inst {
            addr,
            ..Inst::compute(pc, Opcode::IntAlu, reg(dst), srcs)
        },
        _ => Inst::store(pc, NO_ADDR, 8, srcs[0], NO_REG),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn observer_matches_the_frozen_profiler_on_raw_streams(
        threads in 1usize..5,
        script in prop::collection::vec(
            (0u8..8, 0u32..24, any::<u32>(), any::<u32>(), any::<u64>()),
            0..600,
        ),
    ) {
        // Threads take turns through the script, so they share registers,
        // addresses and pcs the way real threads of one kernel do.
        let mut trace = MultiTrace::new(threads);
        for (i, &entry) in script.iter().enumerate() {
            trace.thread_sink(i % threads).record(raw_inst(entry));
        }
        let mut observer = ProfileObserver::new();
        observer.begin(threads);
        for (t, lane) in trace.iter().enumerate() {
            for inst in lane.iter() {
                observer.record(t, *inst);
            }
        }
        assert_bit_identical(
            observer.finish().values(),
            &oracle::profile(&trace),
            &format!("{threads} threads, {} insts", script.len()),
        );
    }
}

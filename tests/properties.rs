//! Cross-crate property-based tests: invariants that must hold for *any*
//! workload configuration, not just the Table 2 points.

use proptest::prelude::*;

use napel::core::checkpoint::{decode_entry, encode_entry, CheckpointJournal};
use napel::core::features::{combined_feature_names, CollectStats, LabeledRun};
use napel::pisa::ApplicationProfile;
use napel::sim::{ArchConfig, NmcSystem};
use napel::workloads::{Scale, Workload};

/// A strategy over campaign timing accountings with non-negative phases.
fn stats_strategy() -> impl Strategy<Value = CollectStats> {
    (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6).prop_map(|(g, p, s)| CollectStats {
        generate_seconds: g,
        profile_seconds: p,
        simulate_seconds: s,
    })
}

/// A strategy over finite labeled rows (what the checkpoint journal
/// holds). Feature vectors have the real schema arity — the journal
/// drops any other arity as stale on replay.
fn labeled_run_strategy() -> impl Strategy<Value = LabeledRun> {
    let arity = combined_feature_names().len();
    (
        0..Workload::ALL.len(),
        prop::collection::vec(-1e6f64..1e6, 1..5),
        prop::collection::vec(-1e6f64..1e6, arity..=arity),
        0u64..1u64 << 50,
        1e-9f64..32.0,
        1e-3f64..1e3,
    )
        .prop_map(
            |(w, params, features, instructions, ipc, energy_per_inst_pj)| LabeledRun {
                workload: Workload::ALL[w],
                params,
                features,
                instructions,
                ipc,
                energy_per_inst_pj,
            },
        )
}

/// A fresh journal path per call, unique across tests and processes.
fn unique_journal_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "napel-props-journal-{}-{n}.ckpt",
        std::process::id()
    ))
}

/// A strategy over (workload, in-range parameter values).
fn workload_and_params() -> impl Strategy<Value = (Workload, Vec<f64>)> {
    (0..Workload::ALL.len()).prop_flat_map(|i| {
        let w = Workload::ALL[i];
        let spec = w.spec();
        let ranges: Vec<_> = spec
            .params
            .iter()
            .map(|p| p.levels[0]..=p.levels[4])
            .collect();
        (Just(w), ranges).prop_map(|(w, params)| (w, params))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn any_configuration_produces_a_finite_profile((w, params) in workload_and_params()) {
        let trace = w.generate(&params, Scale::tiny());
        prop_assert!(trace.total_insts() > 0, "{w} emitted nothing for {params:?}");
        let profile = ApplicationProfile::of(&trace);
        prop_assert_eq!(profile.values().len(), napel::pisa::feature_names().len());
        for (name, v) in napel::pisa::feature_names().iter().zip(profile.values()) {
            prop_assert!(v.is_finite(), "{} non-finite for {} {:?}", name, w, params);
        }
        // Mix fractions are probabilities.
        for class in ["int", "fp", "mem_read", "mem_write", "control", "other"] {
            let f = profile.value(&format!("mix.class.{class}"));
            prop_assert!((0.0..=1.0).contains(&f), "{class} fraction {f}");
        }
    }

    #[test]
    fn any_configuration_simulates_sanely((w, params) in workload_and_params()) {
        let trace = w.generate(&params, Scale::tiny());
        let report = NmcSystem::new(ArchConfig::paper_default()).run(&trace);
        prop_assert_eq!(report.instructions, trace.total_insts() as u64);
        prop_assert!(report.cycles > 0);
        // IPC can never exceed the number of single-issue PEs.
        prop_assert!(report.ipc() <= 32.0 + 1e-9, "ipc {}", report.ipc());
        prop_assert!(report.energy_joules() > 0.0);
        // DRAM reads exactly cover cache fills; writes cover write-backs.
        prop_assert_eq!(report.dram.reads, report.dcache.misses());
        prop_assert_eq!(report.dram.writes, report.dcache.writebacks);
    }

    #[test]
    fn scaling_dimension_parameters_up_never_shrinks_work(
        which in 0..Workload::ALL.len(),
        lo in 0.0f64..=0.4,
        hi in 0.6f64..=1.0,
    ) {
        let w = Workload::ALL[which];
        let spec = w.spec();
        // Interpolate every parameter between its min and max levels.
        let at = |t: f64| -> Vec<f64> {
            spec.params
                .iter()
                .map(|p| p.levels[0] + t * (p.levels[4] - p.levels[0]))
                .collect()
        };
        let small = w.generate(&at(lo), Scale::tiny());
        let large = w.generate(&at(hi), Scale::tiny());
        prop_assert!(
            large.total_insts() >= small.total_insts(),
            "{w}: work decreased from {} to {} when all params grew",
            small.total_insts(),
            large.total_insts()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn simulated_time_scales_down_with_frequency(freq in 0.5f64..4.0) {
        let trace = Workload::Atax.generate(&[700.0, 4.0], Scale::tiny());
        let base = NmcSystem::new(ArchConfig::paper_default()).run(&trace);
        let scaled = NmcSystem::new(ArchConfig { freq_ghz: freq, ..ArchConfig::paper_default() })
            .run(&trace);
        // Same cycle count (timing params are in cycles), different seconds.
        prop_assert_eq!(base.cycles, scaled.cycles);
        let expect = base.exec_time_seconds() * ArchConfig::paper_default().freq_ghz / freq;
        prop_assert!((scaled.exec_time_seconds() - expect).abs() < 1e-12);
    }

    #[test]
    fn collect_stats_merge_is_associative_with_identity(
        (a, b, c) in (stats_strategy(), stats_strategy(), stats_strategy())
    ) {
        // Associativity, up to float-addition noise: (a ⊕ b) ⊕ c ≈ a ⊕ (b ⊕ c).
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
        prop_assert!(close(left.generate_seconds, right.generate_seconds));
        prop_assert!(close(left.profile_seconds, right.profile_seconds));
        prop_assert!(close(left.simulate_seconds, right.simulate_seconds));

        // The default accounting is an exact two-sided identity.
        let mut with_id = a;
        with_id.merge(&CollectStats::default());
        prop_assert_eq!(with_id, a);
        let mut id = CollectStats::default();
        id.merge(&a);
        prop_assert_eq!(id, a);
    }

    #[test]
    fn checkpoint_entries_round_trip_bit_exactly(
        run in labeled_run_strategy(),
        hash in any::<u64>(),
    ) {
        let line = encode_entry(hash, &run);
        prop_assert!(line.ends_with('\n'));
        let (h, decoded) = decode_entry(line.trim_end()).expect("well-formed entry");
        prop_assert_eq!(h, hash);
        prop_assert_eq!(&decoded, &run);
        for (d, o) in decoded.features.iter().zip(&run.features) {
            prop_assert_eq!(d.to_bits(), o.to_bits(), "feature restore must be bit-exact");
        }
        prop_assert_eq!(decoded.ipc.to_bits(), run.ipc.to_bits());
    }

    #[test]
    fn checkpoint_journal_recovers_from_a_corrupt_tail(
        runs in prop::collection::vec(labeled_run_strategy(), 1..5),
        cut in 1usize..200,
    ) {
        // n intact entries followed by an entry torn mid-write (no
        // terminator): open() must keep the prefix, drop the tail, and
        // truncate the file so appends stay well-formed.
        let path = unique_journal_path();
        let mut content = String::new();
        for (i, r) in runs.iter().enumerate() {
            content.push_str(&encode_entry(i as u64, r));
        }
        let torn = encode_entry(u64::MAX, &runs[0]);
        content.push_str(&torn[..cut.min(torn.len() - 1)]);
        std::fs::write(&path, &content).unwrap();

        let journal = CheckpointJournal::open(&path).expect("open survives corruption");
        prop_assert_eq!(journal.len(), runs.len());
        for (i, r) in runs.iter().enumerate() {
            prop_assert_eq!(journal.restored(i as u64), Some(r));
        }
        drop(journal);
        let healed = std::fs::read_to_string(&path).unwrap();
        prop_assert_eq!(healed.lines().count(), runs.len(), "torn tail must be truncated");
        prop_assert!(healed.is_empty() || healed.ends_with('\n'));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mutated_telemetry_jsonl_parses_or_errors_without_panicking(
        counter_values in prop::collection::vec(any::<u64>(), 1..4),
        attr_bytes in prop::collection::vec(any::<u8>(), 0..16),
        cut in any::<u16>(),
        splice_at in any::<u16>(),
        splice in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        use napel::telemetry::{LogHistogram, Telemetry, TelemetryReport};

        // A genuine round-trip document, with a span attribute carrying
        // arbitrary (lossily-decoded) bytes through string escaping.
        let t = Telemetry::enabled();
        {
            let payload = String::from_utf8_lossy(&attr_bytes).into_owned();
            let _span = t.span("prop.span").attr("payload", payload);
            let _inner = t.span("prop.inner");
        }
        for (i, v) in counter_values.iter().enumerate() {
            t.counter(&format!("prop.counter.{i}"), *v);
        }
        let mut hist = LogHistogram::new();
        hist.observe(1.0);
        hist.observe(0.0);
        t.merge_log_histogram("prop.hist", &hist);
        let report = t.drain();
        let text = report.to_jsonl();
        prop_assert_eq!(
            TelemetryReport::from_jsonl(&text).expect("round trip"),
            report
        );

        // Rows truncated mid-write must produce a parse error (or, if the
        // cut lands on a line boundary, a shorter report) — never a panic.
        let cut = (cut as usize) % (text.len() + 1);
        let truncated = String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned();
        let _ = TelemetryReport::from_jsonl(&truncated);

        // Arbitrary bytes spliced into the middle of a row likewise.
        let at = (splice_at as usize) % (text.len() + 1);
        let mut bytes = text.into_bytes();
        bytes.splice(at..at, splice.iter().copied());
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let _ = TelemetryReport::from_jsonl(&mutated);
    }

    #[test]
    fn forest_prediction_stays_within_label_range(seed in 0u64..1000) {
        use napel::ml::dataset::Dataset;
        use napel::ml::forest::RandomForestParams;
        use napel::ml::{Estimator, Regressor};
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Dataset::builder(vec!["x".into(), "y".into()]);
        use rand::Rng;
        for _ in 0..30 {
            let x: f64 = rng.gen_range(-5.0..5.0);
            let y: f64 = rng.gen_range(-5.0..5.0);
            b.push_row(vec![x, y], x * y + x).expect("row");
        }
        let data = b.build().expect("data");
        let model = RandomForestParams { num_trees: 15, ..Default::default() }
            .fit(&data, &mut rng)
            .expect("fit");
        let (lo, hi) = data.target_range();
        for probe in [[-10.0, -10.0], [0.0, 0.0], [100.0, 3.0]] {
            let p = model.predict_one(&probe);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
        }
    }
}

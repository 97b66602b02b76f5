//! Acceptance tests for the fault-tolerant campaign runtime: seeded fault
//! injection under quarantine (itemization + survivor determinism across
//! executors) and checkpoint/resume (interrupt, resume, recompute only
//! the unfinished tail).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use napel::core::campaign::{plan_jobs, Serial, Threaded};
use napel::core::collect::{collect, CollectionPlan};
use napel::core::fault::{CampaignOptions, FaultInjector, JobFailureKind};
use napel::core::NapelError;
use napel::workloads::{Scale, Workload};

fn tiny_plan() -> CollectionPlan {
    CollectionPlan {
        workloads: vec![Workload::Atax, Workload::Gemv],
        scale: Scale::tiny(),
        ..Default::default()
    }
}

/// A fresh journal path in the system temp directory, unique per test
/// and per process.
fn journal_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "napel-faults-{tag}-{}-{n}.ckpt",
        std::process::id()
    ))
}

#[test]
fn seeded_faults_are_itemized_and_survivors_are_untouched() {
    let plan = tiny_plan();
    let jobs = plan_jobs(&plan).len();
    let (clean, _) = collect(&plan, &Serial, &CampaignOptions::default()).unwrap();
    assert_eq!(clean.runs.len(), jobs);

    // Seeded injector over the whole batch; must actually hit something
    // for the test to mean anything.
    let injector = FaultInjector::seeded(25019, jobs, 0.15, 0.15);
    let faulty = injector.faulty_indices();
    assert!(
        !faulty.is_empty() && faulty.len() < jobs,
        "seed produced a degenerate injection: {faulty:?}"
    );

    for (name, threaded) in [("serial", None), ("threaded", Some(Threaded::new(4)))] {
        let opts = CampaignOptions::quarantine().with_injector(injector.clone());
        let (set, report) = match &threaded {
            None => collect(&plan, &Serial, &opts).unwrap(),
            Some(exec) => collect(&plan, exec, &opts).unwrap(),
        };

        // Exactly the injected indices are quarantined, in order.
        assert_eq!(report.quarantined_indices(), faulty, "{name}");

        // Every quarantined failure carries provenance: the workload, its
        // input parameters, and the architecture it ran on.
        for failure in &report.quarantined {
            assert!(
                failure.workload == "atax" || failure.workload == "gemv",
                "{name}: workload missing from {failure}"
            );
            assert!(!failure.params.is_empty(), "{name}: params missing");
            assert!(
                failure.arch.contains("num_pes"),
                "{name}: arch missing from {failure}"
            );
            match &failure.kind {
                JobFailureKind::Panic(msg) => {
                    assert!(msg.contains("injected panic"), "{name}: {msg}")
                }
                JobFailureKind::InvalidLabel(msg) => {
                    assert!(msg.contains("IPC"), "{name}: {msg}")
                }
                other => panic!("{name}: unexpected failure kind {other}"),
            }
        }

        // Surviving rows are byte-identical to the clean run minus the
        // quarantined indices — a fault never perturbs its neighbors.
        let expected: Vec<_> = clean
            .runs
            .iter()
            .enumerate()
            .filter(|(i, _)| !faulty.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(set.runs, expected, "{name}: survivors must be untouched");
    }
}

#[test]
fn interrupted_campaign_resumes_recomputing_only_the_tail() {
    let plan = CollectionPlan {
        workloads: vec![Workload::Atax],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let jobs = plan_jobs(&plan).len();
    assert_eq!(jobs, 9);
    let (clean, _) = collect(&plan, &Serial, &CampaignOptions::default()).unwrap();

    let path = journal_path("resume");
    let interrupt_at = 5;

    // Phase 1: the campaign dies at job 5 under fail-fast. Jobs 0..5
    // completed and were journaled; the rest never ran.
    let opts = CampaignOptions::default()
        .with_checkpoint(&path)
        .with_injector(FaultInjector::new().panic_at(interrupt_at));
    let err = collect(&plan, &Serial, &opts).unwrap_err();
    match &err {
        NapelError::Job(failure) => {
            assert_eq!(failure.index, interrupt_at);
            assert_eq!(failure.workload, "atax");
        }
        other => panic!("expected a job failure, got {other}"),
    }
    let journaled = std::fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(journaled, interrupt_at, "exactly the completed prefix");

    // Phase 2: resume without the fault. Only the N-K unfinished jobs are
    // recomputed; the K journaled ones are restored verbatim.
    let opts = CampaignOptions::default().with_checkpoint(&path);
    let (set, report) = collect(&plan, &Serial, &opts).unwrap();
    assert_eq!(report.restored, interrupt_at);
    assert_eq!(report.executed(), jobs - interrupt_at);
    assert!(report.is_clean());
    assert_eq!(set.runs, clean.runs, "resume must be invisible in the data");

    // Phase 3: a second resume restores everything and recomputes nothing.
    let (set, report) = collect(&plan, &Serial, &opts).unwrap();
    assert_eq!(report.restored, jobs);
    assert_eq!(report.executed(), 0);
    assert_eq!(set.runs, clean.runs);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn journaled_rows_that_fail_the_label_gate_are_recomputed() {
    // A journal line can be well formed, sentinel intact, and still carry
    // a label no simulation produces. Restoring it would train on it, so
    // such a row is recomputed like a stale-schema entry.
    let plan = CollectionPlan {
        workloads: vec![Workload::Atax],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let jobs = plan_jobs(&plan).len();
    assert_eq!(jobs, 9);
    let (clean, _) = collect(&plan, &Serial, &CampaignOptions::default()).unwrap();

    let path = journal_path("gate");
    let opts = CampaignOptions::default().with_checkpoint(&path);
    collect(&plan, &Serial, &opts).unwrap();

    // Rewrite the IPC of two entries (third token from the end, before
    // the energy label and the `ok` sentinel): NaN in one, 1e9, far above
    // issue_width × num_pes, in the other.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), jobs);
    for (line, ipc) in [(2, f64::NAN), (6, 1e9)] {
        let mut tokens: Vec<String> = lines[line]
            .split_ascii_whitespace()
            .map(str::to_string)
            .collect();
        let at = tokens.len() - 3;
        tokens[at] = format!("{:016x}", ipc.to_bits());
        assert_eq!(tokens.last().map(String::as_str), Some("ok"));
        lines[line] = tokens.join(" ");
    }
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let (set, report) = collect(&plan, &Serial, &opts).unwrap();
    assert_eq!(report.restored, jobs - 2);
    assert_eq!(report.executed(), 2);
    assert!(report.is_clean());
    assert_eq!(set.runs, clean.runs, "recomputed rows replace the bad ones");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpointed_threaded_run_restores_under_serial_and_vice_versa() {
    // The journal is keyed by job descriptor, not by position or
    // executor, so a campaign checkpointed under one executor resumes
    // under any other.
    let plan = CollectionPlan {
        workloads: vec![Workload::Atax],
        scale: Scale::tiny(),
        ..Default::default()
    };
    let (clean, _) = collect(&plan, &Serial, &CampaignOptions::default()).unwrap();
    let path = journal_path("xexec");

    let opts = CampaignOptions::default().with_checkpoint(&path);
    let (first, report) = collect(&plan, &Threaded::new(3), &opts).unwrap();
    assert_eq!(report.restored, 0);
    assert_eq!(first.runs, clean.runs);

    let (second, report) = collect(&plan, &Serial, &opts).unwrap();
    assert_eq!(report.restored, clean.runs.len());
    assert_eq!(report.executed(), 0);
    assert_eq!(second.runs, clean.runs);

    let _ = std::fs::remove_file(&path);
}

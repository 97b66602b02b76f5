//! The append-only on-disk checkpoint journal.
//!
//! A campaign with a journal attached appends one line per *completed*
//! job, keyed by the job's stable descriptor hash
//! ([`crate::campaign::SimJob::descriptor_hash`]). Restarting the same
//! campaign with the same journal restores every journaled row without
//! recomputation and recomputes only the rest — failed or skipped jobs
//! are never journaled, so a resumed campaign runs exactly the work that
//! is missing.
//!
//! # Format
//!
//! One entry per line, space-separated ASCII, floats as big-endian bit
//! patterns in hex (so restored rows are **bit-identical** to computed
//! ones — the executor-independence guarantee survives a resume):
//!
//! ```text
//! <hash:016x> <workload> <#params> <param-bits>… <#features> <feature-bits>… <instructions> <ipc-bits> <epi-bits> ok
//! ```
//!
//! The trailing `ok` sentinel marks a fully written line. Replay stops at
//! the first malformed or unterminated line and truncates the file back
//! to the last valid entry, so a crash mid-append (the only write this
//! format does) loses at most the job being written — the journal
//! degrades to a shorter valid journal, never to a corrupt one.
//!
//! Entries whose feature arity does not match the current schema are
//! dropped on load (the safe direction: the job is recomputed).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use napel_workloads::Workload;

use crate::features::{combined_feature_names, LabeledRun};
use crate::NapelError;

/// Sentinel closing every fully written journal line.
const SENTINEL: &str = "ok";

/// An open checkpoint journal: the replayed entries plus an append
/// handle. Safe to share across campaign worker threads.
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    entries: HashMap<u64, LabeledRun>,
    writer: Mutex<File>,
}

impl CheckpointJournal {
    /// Opens (or creates) the journal at `path`, replaying any existing
    /// entries. A corrupt tail — a partial line from a killed run — is
    /// truncated away; everything before it is kept.
    ///
    /// # Errors
    ///
    /// Returns [`NapelError::Checkpoint`] if the file cannot be read,
    /// truncated, or opened for append.
    pub fn open(path: &Path) -> Result<CheckpointJournal, NapelError> {
        let ckpt_err = |what: String| NapelError::Checkpoint {
            path: path.display().to_string(),
            what,
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(ckpt_err(format!("cannot read: {e}"))),
        };
        let mut entries = HashMap::new();
        let mut valid_bytes = 0usize;
        let expected_features = combined_feature_names().len();
        for line in text.split_inclusive('\n') {
            let terminated = line.ends_with('\n');
            match decode_entry(line.trim_end_matches('\n')) {
                Some((hash, run)) if terminated => {
                    // Stale-schema entries are dropped (recomputed), but
                    // the line itself is valid — keep scanning.
                    if run.features.len() == expected_features {
                        entries.insert(hash, run);
                    }
                    valid_bytes += line.len();
                }
                // Unterminated or malformed: the corrupt tail starts
                // here. Everything after it is unreachable anyway
                // (appends happen strictly in order).
                _ => break,
            }
        }
        if valid_bytes < text.len() {
            let keep = &text.as_bytes()[..valid_bytes];
            std::fs::write(path, keep)
                .map_err(|e| ckpt_err(format!("cannot truncate corrupt tail: {e}")))?;
        }
        let writer = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| ckpt_err(format!("cannot open for append: {e}")))?;
        napel_telemetry::counter!("checkpoint.entries_replayed", entries.len() as u64);
        Ok(CheckpointJournal {
            path: path.to_path_buf(),
            entries,
            writer: Mutex::new(writer),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of replayed (restorable) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries were replayed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The journaled row for a job descriptor hash, if present.
    pub fn restored(&self, hash: u64) -> Option<&LabeledRun> {
        self.entries.get(&hash)
    }

    /// Appends a completed job's row. Called concurrently by campaign
    /// workers; each entry is written and flushed under one lock hold.
    ///
    /// A write failure must not kill a running campaign (the journal is
    /// an optimization, not the product), so I/O errors warn through the
    /// `napel-telemetry` facade — once per distinct message, so a *new*
    /// failure mode on the same journal still reaches stderr — and the
    /// failed append is dropped.
    pub fn record(&self, hash: u64, run: &LabeledRun) {
        let line = encode_entry(hash, run);
        let mut writer = self.writer.lock().expect("journal writer not poisoned");
        match writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
        {
            Ok(()) => napel_telemetry::counter!("checkpoint.entries_recorded", 1),
            Err(e) => {
                napel_telemetry::warn_once!(
                    "napel: checkpoint journal `{}` write failed ({e}); \
                     campaign continues without checkpointing",
                    self.path.display()
                );
            }
        }
    }
}

/// Encodes one journal entry (newline-terminated).
pub fn encode_entry(hash: u64, run: &LabeledRun) -> String {
    let mut line = format!("{hash:016x} {} {}", run.workload.name(), run.params.len());
    for p in &run.params {
        line.push_str(&format!(" {:016x}", p.to_bits()));
    }
    line.push_str(&format!(" {}", run.features.len()));
    for f in &run.features {
        line.push_str(&format!(" {:016x}", f.to_bits()));
    }
    line.push_str(&format!(
        " {} {:016x} {:016x} {SENTINEL}\n",
        run.instructions,
        run.ipc.to_bits(),
        run.energy_per_inst_pj.to_bits()
    ));
    line
}

/// Decodes one journal line (no trailing newline). `None` on any
/// malformation — wrong field count, bad hex, unknown workload, missing
/// sentinel. The declared counts size nothing up front, so a corrupt
/// count runs out of tokens instead of aborting on an allocation.
pub fn decode_entry(line: &str) -> Option<(u64, LabeledRun)> {
    let mut tokens = line.split_ascii_whitespace();
    let hash = u64::from_str_radix(tokens.next()?, 16).ok()?;
    let workload = Workload::from_name(tokens.next()?)?;
    let n_params: usize = tokens.next()?.parse().ok()?;
    let mut params = Vec::new();
    for _ in 0..n_params {
        params.push(f64::from_bits(
            u64::from_str_radix(tokens.next()?, 16).ok()?,
        ));
    }
    let n_features: usize = tokens.next()?.parse().ok()?;
    let mut features = Vec::new();
    for _ in 0..n_features {
        features.push(f64::from_bits(
            u64::from_str_radix(tokens.next()?, 16).ok()?,
        ));
    }
    let instructions: u64 = tokens.next()?.parse().ok()?;
    let ipc = f64::from_bits(u64::from_str_radix(tokens.next()?, 16).ok()?);
    let energy_per_inst_pj = f64::from_bits(u64::from_str_radix(tokens.next()?, 16).ok()?);
    if tokens.next()? != SENTINEL || tokens.next().is_some() {
        return None;
    }
    Some((
        hash,
        LabeledRun {
            workload,
            params,
            features,
            instructions,
            ipc,
            energy_per_inst_pj,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_journal(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "napel-ckpt-{}-{tag}-{}.journal",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_run(seed: u64) -> LabeledRun {
        let n = combined_feature_names().len();
        LabeledRun {
            workload: Workload::ALL[(seed as usize) % Workload::ALL.len()],
            params: vec![seed as f64, 0.5 + seed as f64],
            features: (0..n).map(|i| (seed as f64) * 0.25 + i as f64).collect(),
            instructions: 100 + seed,
            ipc: 0.75,
            energy_per_inst_pj: 42.5 + seed as f64,
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let run = sample_run(3);
        let line = encode_entry(0xdead_beef_1234_5678, &run);
        let (hash, back) = decode_entry(line.trim_end()).expect("decodes");
        assert_eq!(hash, 0xdead_beef_1234_5678);
        assert_eq!(back, run);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let run = sample_run(1);
        let line = encode_entry(7, &run);
        let line = line.trim_end();
        assert!(decode_entry("").is_none());
        assert!(decode_entry("zz nope").is_none());
        // Truncated anywhere: missing sentinel.
        assert!(decode_entry(&line[..line.len() - 4]).is_none());
        // Trailing junk.
        assert!(decode_entry(&format!("{line} extra")).is_none());
        // Unknown workload.
        let bad = line.replacen(run.workload.name(), "nosuch", 1);
        assert!(decode_entry(&bad).is_none());
    }

    #[test]
    fn journal_roundtrips_and_restores() {
        let path = temp_journal("roundtrip");
        let journal = CheckpointJournal::open(&path).unwrap();
        assert!(journal.is_empty());
        let runs: Vec<LabeledRun> = (0..5).map(sample_run).collect();
        for (i, run) in runs.iter().enumerate() {
            journal.record(i as u64, run);
        }
        drop(journal);

        let reopened = CheckpointJournal::open(&path).unwrap();
        assert_eq!(reopened.len(), 5);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(reopened.restored(i as u64), Some(run));
        }
        assert_eq!(reopened.restored(99), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_tail_is_truncated_and_appendable() {
        let path = temp_journal("corrupt");
        let journal = CheckpointJournal::open(&path).unwrap();
        for i in 0..3 {
            journal.record(i, &sample_run(i));
        }
        drop(journal);
        // Simulate a crash mid-append: a partial line with no sentinel.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let clean_len = text.len();
        text.push_str("0000000000000007 atax 2 3ff0");
        std::fs::write(&path, &text).unwrap();

        let recovered = CheckpointJournal::open(&path).unwrap();
        assert_eq!(recovered.len(), 3, "valid prefix survives");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len as u64,
            "corrupt tail must be truncated on open"
        );
        // Appending after recovery produces a valid journal again.
        recovered.record(7, &sample_run(7));
        drop(recovered);
        let again = CheckpointJournal::open(&path).unwrap();
        assert_eq!(again.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_forged_count_is_a_corrupt_tail_not_an_abort() {
        let path = temp_journal("forged");
        let journal = CheckpointJournal::open(&path).unwrap();
        for i in 0..2 {
            journal.record(i, &sample_run(i));
        }
        drop(journal);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Counts that would size a multi-petabyte vector if trusted.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("0000000000000009 atax 99999999999999 3ff0 ok\n");
        text.push_str("000000000000000a atax 0 99999999999999 ok\n");
        std::fs::write(&path, &text).unwrap();

        let recovered = CheckpointJournal::open(&path).unwrap();
        assert_eq!(recovered.len(), 2, "entries before the forged line survive");
        assert_eq!(recovered.restored(1), Some(&sample_run(1)));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "the forged line and everything after it are truncated"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_schema_entries_are_dropped() {
        let path = temp_journal("stale");
        let mut run = sample_run(2);
        run.features.truncate(7); // wrong arity for the current schema
        std::fs::write(&path, encode_entry(11, &run)).unwrap();
        let journal = CheckpointJournal::open(&path).unwrap();
        assert_eq!(journal.len(), 0, "stale entry must not restore");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_parent_directory_is_a_checkpoint_error() {
        let path = std::env::temp_dir().join("napel-no-such-dir/x/y.journal");
        let err = CheckpointJournal::open(&path).unwrap_err();
        assert!(matches!(err, NapelError::Checkpoint { .. }), "{err}");
    }
}

//! Streaming journal→checkpoint compaction.
//!
//! The in-memory compaction the [`FleetRunner`](crate::FleetRunner) does
//! mid-run holds every completed summary anyway, so it folds the journal
//! into the checkpoint for free. A *daemon* restarting over a large warm
//! store cannot afford that: the checkpoint may hold orders of magnitude
//! more chips than the journal window, and loading it whole just to
//! absorb a handful of journal records is wasted memory.
//!
//! A journal is a checkpoint tail — same header, same framed records — so
//! [`compact_streaming`] is a sorted merge of two framed streams: the
//! journal's records, deduplicated by chip id (memory O(journal window)),
//! and the checkpoint's, streamed line by line in the chip-id order
//! `save` writes. Record lines are copied verbatim, never re-encoded. The
//! merge keeps the crash-safety contract of the runner's own compaction:
//! the merged checkpoint is streamed through
//! [`vs_guard::durable::atomic_write`] (temp file, fsync, rename, parent
//! directory fsync), and only then is the journal truncated. A crash
//! between the two steps leaves harmless duplicates, never a gap.

use crate::checkpoint::{store_header, CheckpointError, StoreReader};
use crate::journal::ChipJournal;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use vs_guard::durable::atomic_write;
use vs_guard::vfs::{self, VfsHandle};

/// What one streaming compaction pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// The config fingerprint both stores are bound to.
    pub fingerprint: u64,
    /// Chip records in the checkpoint after the pass.
    pub chips: u64,
    /// Journal records absorbed that the checkpoint did not already hold.
    pub merged: u64,
    /// Damaged records skipped (torn final journal append, bit rot); the
    /// rest of each file still compacts.
    pub skipped: u64,
}

/// Counts the chip records of a checkpoint without loading them: one
/// buffered pass through the store reader. A checkpoint never holds a
/// chip twice, so this is its chip count. Returns 0 for a missing file
/// (an empty store, not an error).
pub fn checkpoint_chips(path: &Path) -> Result<u64, CheckpointError> {
    checkpoint_chips_on(&vfs::std_fs(), path)
}

/// [`checkpoint_chips`] against an explicit filesystem backend.
pub fn checkpoint_chips_on(vfs: &VfsHandle, path: &Path) -> Result<u64, CheckpointError> {
    if !vfs.exists(path) {
        return Ok(0);
    }
    count_records(StoreReader::open(vfs, path)?)
}

fn count_records(reader: StoreReader) -> Result<u64, CheckpointError> {
    let mut chips = 0;
    for item in reader {
        if item?.1.is_ok() {
            chips += 1;
        }
    }
    Ok(chips)
}

/// Reads the fingerprint a checkpoint or journal is bound to without
/// loading its records, checking the header's magic on the way.
pub fn read_fingerprint(path: &Path) -> Result<u64, CheckpointError> {
    read_fingerprint_on(&vfs::std_fs(), path)
}

/// [`read_fingerprint`] against an explicit filesystem backend.
pub fn read_fingerprint_on(vfs: &VfsHandle, path: &Path) -> Result<u64, CheckpointError> {
    Ok(StoreReader::open(vfs, path)?.fingerprint)
}

/// Folds `journal` into `ckpt` without loading the checkpoint in memory.
///
/// * The journal's records are read into a map keyed by chip id (the
///   last record of a chip wins, damaged records are skipped with a
///   count) — memory O(journal window).
/// * The checkpoint is streamed line by line into a temp file; journal
///   records are spliced into chip-id position, and a chip present in
///   both stores keeps the journal copy (the journal is the
///   write-ahead source of truth for records the checkpoint never
///   absorbed).
/// * The temp file is fsynced, renamed over the checkpoint, the parent
///   directory fsynced — and only then is the journal truncated back to
///   its header.
///
/// A missing checkpoint is created from the journal alone; a missing or
/// record-empty journal is a cheap no-op. The two files refusing to agree
/// on a fingerprint is a hard [`CheckpointError::FingerprintMismatch`] —
/// folding foreign records into a store would corrupt it silently.
pub fn compact_streaming(ckpt: &Path, journal: &Path) -> Result<CompactionReport, CheckpointError> {
    compact_streaming_on(&vfs::std_fs(), ckpt, journal)
}

/// [`compact_streaming`] against an explicit filesystem backend — the
/// seam the crash-consistency checker explores compaction through.
pub fn compact_streaming_on(
    vfs: &VfsHandle,
    ckpt: &Path,
    journal: &Path,
) -> Result<CompactionReport, CheckpointError> {
    let base = if vfs.exists(ckpt) {
        Some(StoreReader::open(vfs, ckpt)?)
    } else {
        None
    };
    let (fingerprint, pending, mut skipped) = if vfs.exists(journal) {
        let tail = StoreReader::open(vfs, journal)?;
        let fingerprint = tail.fingerprint;
        if let Some(base) = &base {
            if base.fingerprint != fingerprint {
                return Err(CheckpointError::FingerprintMismatch {
                    expected: base.fingerprint,
                    found: fingerprint,
                });
            }
        }
        let (records, warnings) = tail.read_all()?;
        (fingerprint, records, warnings.len() as u64)
    } else {
        let fingerprint = base.as_ref().map_or(0, |b| b.fingerprint);
        (fingerprint, BTreeMap::new(), 0)
    };
    if pending.is_empty() {
        let chips = match base {
            Some(base) => count_records(base)?,
            None => 0,
        };
        return Ok(CompactionReport {
            fingerprint,
            chips,
            merged: 0,
            skipped,
        });
    }
    let merged_candidates = pending.len() as u64;
    let mut replaced = 0u64;
    let mut chips = 0u64;

    atomic_write(&**vfs, ckpt, |file| {
        let mut out = BufWriter::new(file);
        out.write_all(store_header(fingerprint).as_bytes())?;
        let mut pending = pending.into_values().peekable();
        for item in base.into_iter().flatten() {
            // Damaged checkpoint records are dropped here exactly as a
            // lenient load would drop them.
            let Ok(record) = item?.1 else {
                skipped += 1;
                continue;
            };
            let id = record.summary.chip;
            // Splice every journal record that sorts before this one.
            while let Some(earlier) = pending.next_if(|r| r.summary.chip < id) {
                writeln!(out, "{}", earlier.line)?;
                chips += 1;
            }
            // Present in both: the journal copy wins.
            let line = match pending.next_if(|r| r.summary.chip == id) {
                Some(newer) => {
                    replaced += 1;
                    newer.line
                }
                None => record.line,
            };
            writeln!(out, "{line}")?;
            chips += 1;
        }
        for record in pending {
            writeln!(out, "{}", record.line)?;
            chips += 1;
        }
        out.flush()
    })?;
    // The checkpoint now owns every record; truncating the journal is the
    // second, independent step of the crash-safe pair.
    ChipJournal::create_on(vfs, journal, fingerprint)?;
    Ok(CompactionReport {
        fingerprint,
        chips,
        merged: merged_candidates - replaced,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{load, save};
    use crate::journal::{replay_journal, replay_journal_on};
    use crate::summary::{ChipSummary, CoreMarginSummary};
    use std::fs;
    use std::path::PathBuf;
    use vs_types::ChipId;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vs-fleet-compact-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn summary(id: u64) -> ChipSummary {
        ChipSummary {
            chip: ChipId(id),
            die_seed: 0xC0FFEE ^ id,
            margins: vec![CoreMarginSummary {
                core: 0,
                first_error_mv: 730,
                min_safe_mv: 640 + id as i32,
            }],
            mean_vdd_mv: vec![741.0 + id as f64 * 0.5],
            vdd_reduction: vec![0.06 + id as f64 * 1e-6],
            energy_savings: 0.2,
            correctable: id * 7,
            emergencies: 0,
            crashes: 0,
            sw_overhead: 0.0,
            dues: 0,
            rollbacks: 0,
        }
    }

    const FP: u64 = 0x2014_CAFE;

    #[test]
    fn splices_journal_records_into_sorted_position() {
        let ckpt = scratch("splice.ckpt");
        let jpath = scratch("splice.journal");
        let _ = fs::remove_file(&ckpt);
        save(&ckpt, FP, &[summary(0), summary(2), summary(5)]).unwrap();
        let mut j = ChipJournal::create(&jpath, FP).unwrap();
        for id in [4, 1, 7] {
            j.append(&summary(id)).unwrap();
        }
        drop(j);

        let report = compact_streaming(&ckpt, &jpath).unwrap();
        assert_eq!(report.fingerprint, FP);
        assert_eq!(report.chips, 6);
        assert_eq!(report.merged, 3);
        assert_eq!(report.skipped, 0);

        // The merged checkpoint is exactly what a whole-fleet save would
        // have produced: same records, same order, same bytes.
        let loaded = load(&ckpt, FP).unwrap();
        let expected: Vec<ChipSummary> =
            [0u64, 1, 2, 4, 5, 7].iter().map(|&i| summary(i)).collect();
        assert_eq!(loaded, expected);
        let reference = scratch("splice-reference.ckpt");
        save(&reference, FP, &expected).unwrap();
        assert_eq!(
            fs::read(&ckpt).unwrap(),
            fs::read(&reference).unwrap(),
            "streamed merge must be byte-identical to an in-memory save"
        );

        // The journal was truncated back to its header.
        let replay = replay_journal(&jpath, FP).unwrap();
        assert!(replay.summaries.is_empty());
    }

    #[test]
    fn creates_the_checkpoint_when_only_a_journal_exists() {
        let ckpt = scratch("fresh.ckpt");
        let jpath = scratch("fresh.journal");
        let _ = fs::remove_file(&ckpt);
        let mut j = ChipJournal::create(&jpath, FP).unwrap();
        j.append(&summary(3)).unwrap();
        j.append(&summary(1)).unwrap();
        drop(j);
        let report = compact_streaming(&ckpt, &jpath).unwrap();
        assert_eq!(report.chips, 2);
        assert_eq!(report.merged, 2);
        assert_eq!(load(&ckpt, FP).unwrap(), vec![summary(1), summary(3)]);
    }

    #[test]
    fn duplicate_records_prefer_the_journal_copy() {
        let ckpt = scratch("dup.ckpt");
        let jpath = scratch("dup.journal");
        let _ = fs::remove_file(&ckpt);
        // The checkpoint holds a stale copy of chip 1.
        let mut stale = summary(1);
        stale.correctable += 99;
        save(&ckpt, FP, &[summary(0), stale]).unwrap();
        let mut j = ChipJournal::create(&jpath, FP).unwrap();
        j.append(&summary(1)).unwrap();
        drop(j);
        let report = compact_streaming(&ckpt, &jpath).unwrap();
        assert_eq!(report.chips, 2);
        assert_eq!(report.merged, 0, "the record replaced one, not added one");
        let loaded = load(&ckpt, FP).unwrap();
        assert_eq!(loaded[1], summary(1), "journal copy wins");
    }

    #[test]
    fn empty_or_missing_journal_is_a_no_op() {
        let ckpt = scratch("noop.ckpt");
        let jpath = scratch("noop.journal");
        let _ = fs::remove_file(&jpath);
        save(&ckpt, FP, &[summary(0)]).unwrap();
        let before = fs::read(&ckpt).unwrap();
        let report = compact_streaming(&ckpt, &jpath).unwrap();
        assert_eq!(report.chips, 1);
        assert_eq!(report.merged, 0);
        assert_eq!(fs::read(&ckpt).unwrap(), before);

        ChipJournal::create(&jpath, FP).unwrap();
        let report = compact_streaming(&ckpt, &jpath).unwrap();
        assert_eq!(report.merged, 0);
        assert_eq!(
            fs::read(&ckpt).unwrap(),
            before,
            "no rewrite for no records"
        );
    }

    #[test]
    fn fingerprint_disagreement_is_refused() {
        let ckpt = scratch("mismatch.ckpt");
        let jpath = scratch("mismatch.journal");
        save(&ckpt, FP, &[summary(0)]).unwrap();
        let mut j = ChipJournal::create(&jpath, FP ^ 1).unwrap();
        j.append(&summary(1)).unwrap();
        drop(j);
        assert!(matches!(
            compact_streaming(&ckpt, &jpath),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        // Neither store was touched.
        assert_eq!(load(&ckpt, FP).unwrap(), vec![summary(0)]);
        assert_eq!(replay_journal(&jpath, FP ^ 1).unwrap().summaries.len(), 1);
    }

    #[test]
    fn torn_journal_tail_is_skipped_and_counted() {
        let ckpt = scratch("torn.ckpt");
        let jpath = scratch("torn.journal");
        let _ = fs::remove_file(&ckpt);
        let mut j = ChipJournal::create(&jpath, FP).unwrap();
        j.append(&summary(0)).unwrap();
        j.append(&summary(1)).unwrap();
        drop(j);
        let mut text = fs::read_to_string(&jpath).unwrap();
        text.truncate(text.len() - 12);
        fs::write(&jpath, &text).unwrap();
        let report = compact_streaming(&ckpt, &jpath).unwrap();
        assert_eq!(report.chips, 1);
        assert_eq!(report.skipped, 1);
        assert_eq!(load(&ckpt, FP).unwrap(), vec![summary(0)]);
    }

    #[test]
    fn chip_count_streams_without_loading() {
        let ckpt = scratch("count.ckpt");
        save(&ckpt, FP, &(0..9).map(summary).collect::<Vec<_>>()).unwrap();
        assert_eq!(checkpoint_chips(&ckpt).unwrap(), 9);
        assert_eq!(read_fingerprint(&ckpt).unwrap(), FP);
        let missing = scratch("count-missing.ckpt");
        let _ = fs::remove_file(&missing);
        assert_eq!(checkpoint_chips(&missing).unwrap(), 0);
    }

    #[test]
    fn wrong_magic_is_refused_even_with_the_right_fingerprint() {
        let path = scratch("wrong-magic.ckpt");
        fs::write(&path, format!("not a store file\nfingerprint {FP:016x}\n")).unwrap();
        assert!(matches!(
            read_fingerprint(&path),
            Err(CheckpointError::Format(_))
        ));
    }

    /// The crash-consistency property the compaction's two-step design
    /// promises: interrupted at *every* filesystem mutation, under every
    /// pending-data fate, a lenient reboot recovers exactly the chip set
    /// a never-compacted replay would. "Lenient" is the production
    /// stance: an unreadable half of the pair contributes nothing
    /// (recovery rebuilds or quarantines it), a readable half is merged
    /// journal-over-checkpoint.
    #[test]
    fn interrupted_compaction_never_loses_or_invents_chips() {
        use std::sync::Arc;
        use vs_guard::crashcheck;
        use vs_guard::vfs::{SimFs, VfsHandle};

        let sim = Arc::new(SimFs::new());
        let vfs: VfsHandle = Arc::clone(&sim) as VfsHandle;
        let dir = std::path::Path::new("/vsim/compact");
        vfs.create_dir_all(dir).unwrap();
        let ckpt = dir.join("pair.ckpt");
        let jpath = dir.join("pair.journal");
        // Checkpoint {0, 1, 5}; journal {1', 3} — chip 1 re-ran with
        // different bytes, so the journal must win at every crash point.
        crate::checkpoint::save_on(&vfs, &ckpt, FP, &[summary(0), summary(1), summary(5)]).unwrap();
        let mut altered = summary(1);
        altered.correctable += 1;
        let mut j = ChipJournal::create_on(&vfs, &jpath, FP).unwrap();
        j.append(&altered).unwrap();
        j.append(&summary(3)).unwrap();
        drop(j);
        let expected = vec![summary(0), altered, summary(3), summary(5)];
        let setup_ops = sim.mutations();

        compact_streaming_on(&vfs, &ckpt, &jpath).unwrap();

        let recover = |point: &crashcheck::CrashPoint| -> Vec<ChipSummary> {
            let boot = Arc::new(SimFs::from_image(&sim.crash_image(point)));
            let bvfs: VfsHandle = Arc::clone(&boot) as VfsHandle;
            let mut merged = crate::checkpoint::load_report_on(&bvfs, &ckpt, FP)
                .map(|l| l.summaries)
                .unwrap_or_default();
            let tail = replay_journal_on(&bvfs, &jpath, FP)
                .map(|r| r.summaries)
                .unwrap_or_default();
            for s in tail {
                match merged.iter_mut().find(|m| m.chip == s.chip) {
                    Some(slot) => *slot = s,
                    None => merged.push(s),
                }
            }
            merged.sort_by_key(|s| s.chip);
            merged
        };

        let mut compaction_points = 0;
        for point in crashcheck::enumerate(&sim) {
            if point.op <= setup_ops {
                continue; // crashes inside the setup workload, not compaction
            }
            compaction_points += 1;
            assert_eq!(
                recover(&point),
                expected,
                "crash at {point} during compaction changed the recovered chip set"
            );
        }
        assert!(
            compaction_points >= 15,
            "compaction should expose many crash points, got {compaction_points}"
        );
    }
}

//! Streaming journal→checkpoint compaction.
//!
//! The in-memory compaction the [`FleetRunner`](crate::FleetRunner) does
//! mid-run holds every completed summary anyway, so it folds the journal
//! into the checkpoint for free. A *daemon* restarting over a large warm
//! store cannot afford that: the checkpoint may hold orders of magnitude
//! more chips than the journal window, and loading it whole just to
//! absorb a handful of journal records is wasted memory.
//!
//! [`compact_streaming`] folds the write-ahead journal into the
//! checkpoint while streaming the checkpoint line by line: memory is
//! bounded by the *journal window* (the records appended since the last
//! checkpoint save), never by the fleet size. The merge preserves the
//! chip-id sort order `save` produces — journal records are spliced into
//! position — and keeps the crash-safety contract of the runner's own
//! compaction: the merged checkpoint is streamed through
//! [`vs_guard::durable::atomic_write`] (temp file, fsync, rename, parent
//! directory fsync), and only then is the journal truncated. A crash
//! between the two steps leaves harmless duplicates, never a gap.

use crate::checkpoint::{decode_chip, CheckpointError, MAGIC as CKPT_MAGIC};
use crate::journal::{replay_journal_streaming_on, ChipJournal};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write as _};
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
/// buffered pass, decoding each line only far enough to accept it.
/// Returns 0 for a missing file (an empty store, not an error).
pub fn checkpoint_chips(path: &Path) -> Result<u64, CheckpointError> {
    checkpoint_chips_on(&vfs::std_fs(), path)
}

/// [`checkpoint_chips`] against an explicit filesystem backend.
pub fn checkpoint_chips_on(vfs: &VfsHandle, path: &Path) -> Result<u64, CheckpointError> {
    if !vfs.exists(path) {
        return Ok(0);
    }
    let reader = BufReader::new(vfs.open_read(path)?);
    let mut lines = reader.lines();
    match lines.next().transpose()? {
        Some(ref l) if l == CKPT_MAGIC => {}
        other => {
            return Err(CheckpointError::Format(format!(
                "bad header {other:?} (expected {CKPT_MAGIC:?})"
            )))
        }
    }
    match lines.next().transpose()? {
        Some(ref l) if l.starts_with("fingerprint ") => {}
        _ => return Err(CheckpointError::Format("missing fingerprint line".into())),
    }
    let mut chips = 0u64;
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if matches!(decode_chip(&line), Ok(Some(_))) {
            chips += 1;
        }
    }
    Ok(chips)
}

/// Reads the fingerprint a checkpoint or journal is bound to without
/// loading its records (the two formats share the header shape).
pub fn read_fingerprint(path: &Path) -> Result<u64, CheckpointError> {
    read_fingerprint_on(&vfs::std_fs(), path)
}

/// [`read_fingerprint`] against an explicit filesystem backend.
pub fn read_fingerprint_on(vfs: &VfsHandle, path: &Path) -> Result<u64, CheckpointError> {
    let reader = BufReader::new(vfs.open_read(path)?);
    let mut lines = reader.lines();
    let _magic = lines
        .next()
        .transpose()?
        .ok_or_else(|| CheckpointError::Format("empty store file".into()))?;
    match lines
        .next()
        .transpose()?
        .as_deref()
        .and_then(|l| l.strip_prefix("fingerprint "))
    {
        Some(hex) => u64::from_str_radix(hex, 16)
            .map_err(|_| CheckpointError::Format(format!("bad fingerprint {hex:?}"))),
        None => Err(CheckpointError::Format("missing fingerprint line".into())),
    }
}

/// Folds `journal` into `ckpt` without loading the checkpoint in memory.
///
/// * The journal is replayed (deduped by chip id, damaged records skipped
///   with a count) into a sorted map — memory O(journal window).
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
    if !vfs.exists(journal) {
        let fingerprint = if vfs.exists(ckpt) {
            read_fingerprint_on(vfs, ckpt)?
        } else {
            0
        };
        return Ok(CompactionReport {
            fingerprint,
            chips: checkpoint_chips_on(vfs, ckpt)?,
            merged: 0,
            skipped: 0,
        });
    }
    let replay = replay_journal_streaming_on(vfs, journal)?;
    let fingerprint = replay.fingerprint;
    if vfs.exists(ckpt) {
        let ckpt_fp = read_fingerprint_on(vfs, ckpt)?;
        if ckpt_fp != fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: ckpt_fp,
                found: fingerprint,
            });
        }
    }
    let mut skipped = replay.skipped;
    if replay.records.is_empty() {
        return Ok(CompactionReport {
            fingerprint,
            chips: checkpoint_chips_on(vfs, ckpt)?,
            merged: 0,
            skipped,
        });
    }
    // Encoded journal records, sorted by chip id, still to be spliced.
    let mut pending: BTreeMap<u64, String> = replay.records;
    let merged_candidates = pending.len() as u64;
    let mut replaced = 0u64;
    let mut chips = 0u64;

    atomic_write(&**vfs, ckpt, |file| {
        let mut out = BufWriter::new(file);
        writeln!(out, "{CKPT_MAGIC}")?;
        writeln!(out, "fingerprint {fingerprint:016x}")?;
        if vfs.exists(ckpt) {
            let reader = BufReader::new(vfs.open_read(ckpt)?);
            for (idx, line) in reader.lines().enumerate() {
                let line = line?;
                if idx < 2 || line.trim().is_empty() {
                    continue; // header already rewritten
                }
                let id = match decode_chip(&line) {
                    Ok(Some(summary)) => summary.chip.0,
                    // Damaged checkpoint records are dropped here exactly
                    // as a lenient load would drop them.
                    _ => {
                        skipped += 1;
                        continue;
                    }
                };
                // Splice every journal record that sorts before this one.
                let earlier: Vec<u64> = pending.range(..id).map(|(k, _)| *k).collect();
                for k in earlier {
                    let record = pending.remove(&k).expect("key just enumerated");
                    writeln!(out, "{record}")?;
                    chips += 1;
                }
                match pending.remove(&id) {
                    // Present in both: the journal copy wins.
                    Some(record) => {
                        writeln!(out, "{record}")?;
                        replaced += 1;
                    }
                    None => writeln!(out, "{line}")?,
                }
                chips += 1;
            }
        }
        for record in pending.values() {
            writeln!(out, "{record}")?;
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

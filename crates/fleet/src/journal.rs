//! The write-ahead progress journal: crash-safe sidecar to the periodic
//! checkpoint.
//!
//! The checkpoint is rewritten whole every `checkpoint_every` chips, so a
//! SIGKILL can lose up to `checkpoint_every - 1` finished chips. The
//! journal closes that window: as each chip completes, its record is
//! appended and fsynced before the coordinator moves on. Resume therefore
//! recovers *every* finished chip — checkpoint ∪ journal — losing at most
//! the record that was mid-append when the process died, and that record
//! is detected as damaged, never silently mis-parsed.
//!
//! A journal is a checkpoint tail: it starts with the same header and
//! holds the same CRC-framed records, so [`load_checkpoint_report`](crate::load_checkpoint_report) replays
//! it.
//!
//! On resume the journal is folded into the checkpoint by
//! [`compact_streaming_on`](crate::compact_streaming_on); at every later
//! checkpoint save it is recreated empty. Either way the checkpoint is
//! written first, so a crash between the two steps merely leaves
//! duplicate records, which replay dedups by chip id.

use crate::checkpoint::{encode_chip, store_header};
use crate::summary::ChipSummary;
use std::io;
use std::path::Path;
use vs_guard::vfs::{self, VfsHandle};
use vs_guard::JournalWriter;

/// An open progress journal: one durable record per completed chip.
#[derive(Debug)]
pub struct ChipJournal {
    writer: JournalWriter,
}

impl ChipJournal {
    /// Creates (truncating) a journal bound to a config fingerprint.
    pub fn create(path: &Path, fingerprint: u64) -> io::Result<ChipJournal> {
        ChipJournal::create_on(&vfs::std_fs(), path, fingerprint)
    }

    /// [`ChipJournal::create`] against an explicit filesystem backend.
    pub fn create_on(vfs: &VfsHandle, path: &Path, fingerprint: u64) -> io::Result<ChipJournal> {
        let header = store_header(fingerprint);
        let writer = JournalWriter::create_on(vfs, path, &header.lines().collect::<Vec<_>>())?;
        Ok(ChipJournal { writer })
    }

    /// Opens an existing journal for appending.
    #[cfg(test)]
    pub(crate) fn open_append(path: &Path) -> io::Result<ChipJournal> {
        ChipJournal::open_append_on(&vfs::std_fs(), path)
    }

    /// [`ChipJournal::open_append`] against an explicit backend.
    pub(crate) fn open_append_on(vfs: &VfsHandle, path: &Path) -> io::Result<ChipJournal> {
        let writer = JournalWriter::open_append_on(vfs, path)?;
        Ok(ChipJournal { writer })
    }

    /// Durably appends one finished chip. When this returns `Ok`, the
    /// record survives SIGKILL — and the backend's mutation stream is
    /// marked with the acknowledgement, so a crash-point explorer knows
    /// exactly which chips were acked before any crash.
    pub fn append(&mut self, summary: &ChipSummary) -> io::Result<()> {
        self.writer.append(&encode_chip(summary))?;
        self.writer
            .vfs()
            .mark(&format!("ack chip={}", summary.chip.0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{load_checkpoint_report, CheckpointError};
    use crate::summary::CoreMarginSummary;
    use std::fs;
    use std::path::PathBuf;
    use vs_types::ChipId;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vs-fleet-journal-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn summary(id: u64) -> ChipSummary {
        ChipSummary {
            chip: ChipId(id),
            die_seed: 0x5EED ^ id,
            margins: vec![CoreMarginSummary {
                core: 0,
                first_error_mv: 735,
                min_safe_mv: 640,
            }],
            mean_vdd_mv: vec![743.25],
            vdd_reduction: vec![0.061 + id as f64 * 1e-9],
            energy_savings: 1.0 / 3.0,
            correctable: 100 + id,
            emergencies: 1,
            crashes: 0,
            sw_overhead: 0.01,
            dues: 0,
            rollbacks: 0,
        }
    }

    #[test]
    fn journal_round_trips_bit_exact() {
        let path = scratch("roundtrip.journal");
        let mut j = ChipJournal::create(&path, 0xF00D).unwrap();
        let originals: Vec<ChipSummary> = (0..4).map(summary).collect();
        // Append out of order — replay sorts by chip id.
        for i in [2usize, 0, 3, 1] {
            j.append(&originals[i]).unwrap();
        }
        drop(j);
        let replay = load_checkpoint_report(&path, 0xF00D).unwrap();
        assert_eq!(replay.summaries, originals);
        assert!(replay.warnings.is_empty());
    }

    #[test]
    fn reopen_appends_and_duplicates_dedup() {
        let path = scratch("reopen.journal");
        let mut j = ChipJournal::create(&path, 1).unwrap();
        j.append(&summary(0)).unwrap();
        j.append(&summary(1)).unwrap();
        drop(j);
        let mut j = ChipJournal::open_append(&path).unwrap();
        j.append(&summary(1)).unwrap(); // the compaction-crash duplicate
        j.append(&summary(2)).unwrap();
        drop(j);
        let replay = load_checkpoint_report(&path, 1).unwrap();
        assert_eq!(replay.summaries.len(), 3);
        assert!(replay.warnings.is_empty());
    }

    #[test]
    fn torn_final_record_is_detected_not_fatal() {
        let path = scratch("torn.journal");
        let mut j = ChipJournal::create(&path, 2).unwrap();
        j.append(&summary(0)).unwrap();
        j.append(&summary(1)).unwrap();
        drop(j);
        // Simulate SIGKILL mid-append: chop the last record partway.
        let mut text = fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 10);
        fs::write(&path, &text).unwrap();
        let replay = load_checkpoint_report(&path, 2).unwrap();
        assert_eq!(replay.summaries.len(), 1);
        assert_eq!(replay.summaries[0].chip, ChipId(0));
        assert_eq!(replay.warnings.len(), 1);
    }

    #[test]
    fn wrong_fingerprint_and_garbage_are_hard_errors() {
        let path = scratch("fingerprint.journal");
        ChipJournal::create(&path, 7).unwrap();
        assert!(matches!(
            load_checkpoint_report(&path, 8),
            Err(CheckpointError::FingerprintMismatch {
                expected: 8,
                found: 7
            })
        ));
        let garbage = scratch("garbage.journal");
        fs::write(&garbage, "you are not a journal\n").unwrap();
        assert!(matches!(
            load_checkpoint_report(&garbage, 0),
            Err(CheckpointError::Format(_))
        ));
        let missing = scratch("missing.journal");
        let _ = fs::remove_file(&missing);
        assert!(matches!(
            load_checkpoint_report(&missing, 0),
            Err(CheckpointError::Io(_))
        ));
    }
}

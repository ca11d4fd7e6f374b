//! Store fsck: offline scrub and repair of checkpoint/journal pairs.
//!
//! The daemon's store is a directory of `<fingerprint>.ckpt` /
//! `<fingerprint>.journal` pairs plus whatever a crash left behind:
//! orphaned save temp files, a journal whose final append was torn
//! mid-line, a journal truncated before its header was durable, or —
//! under a real durability bug — a checkpoint whose content never
//! reached the platters before the rename did. [`scrub`] walks the
//! store, classifies every deviation as a typed [`ScrubIssue`], and in
//! repair mode fixes what is mechanically safe to fix:
//!
//! * **Orphan temp files** (`*.tmp.*`) are deleted — a save either
//!   renamed its temp into place or the temp is garbage.
//! * **Torn journal tails** (the *final* record line fails its frame
//!   CRC) are truncated back to the last good record — exactly what the
//!   lenient replayer skips, made physical so the next append does not
//!   splice onto a half-written line.
//! * **Headerless journals** (zero bytes, or a header the crash cut
//!   short with no records after it) are rebuilt from the fingerprint
//!   in the file name.
//!
//!   Both journal repairs replace the file with
//!   [`atomic_write`], so a crash
//!   mid-repair leaves either the damaged or the repaired journal, never
//!   a shorter one.
//! * **Unrecoverable files** — wrong magic, a fingerprint that
//!   contradicts the file name, non-UTF-8 bytes — are moved into
//!   `<store>/quarantine/` rather than deleted, preserving the evidence
//!   while unblocking the boot.
//! * **Mid-file record damage** (bit rot on an interior line, or a whole
//!   frame whose payload does not decode) is *reported only*: the
//!   lenient loaders already skip such records, and rewriting history is
//!   not fsck's call.
//!
//! Both files of a pair go through `vs-fleet`'s one store reader, the
//! same one the loaders use, so fsck reports exactly the records they
//! skip.
//!
//! Everything runs against the [`Vfs`](vs_guard::vfs::Vfs) seam, so the
//! crash-consistency checker scrubs simulated crash images with the
//! same code the operator's `repro fleetd fsck` runs against real
//! stores.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use vs_fleet::{CheckpointError, CheckpointWarning};
use vs_guard::durable::{atomic_write, quarantine};
use vs_guard::vfs::VfsHandle;

/// What kind of deviation a scrub found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// A `*.tmp.*` file a crashed save left behind.
    OrphanTemp,
    /// The journal's final record line fails its frame CRC — the append
    /// that was in flight when the process died.
    TornJournalTail,
    /// The journal is empty or its header never became durable, and no
    /// records follow — rebuildable from the file name.
    MissingJournalHeader,
    /// The file as a whole cannot be trusted: wrong magic, a header
    /// fingerprint that contradicts the file name, or undecodable bytes.
    BadFile,
    /// An interior record is damaged (bad CRC, malformed, truncated).
    /// The lenient loaders skip it; fsck only reports it.
    CorruptRecord,
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IssueKind::OrphanTemp => "orphan temp file",
            IssueKind::TornJournalTail => "torn journal tail",
            IssueKind::MissingJournalHeader => "missing journal header",
            IssueKind::BadFile => "unrecoverable file",
            IssueKind::CorruptRecord => "corrupt record",
        };
        f.write_str(s)
    }
}

/// What the scrub did about an issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubAction {
    /// Found and reported; nothing was changed (non-repair mode, or the
    /// issue is not mechanically repairable).
    Reported,
    /// Fixed in place: temp removed, tail truncated, header rebuilt.
    Repaired,
    /// Moved into `<store>/quarantine/`.
    Quarantined,
}

impl fmt::Display for ScrubAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScrubAction::Reported => "reported",
            ScrubAction::Repaired => "repaired",
            ScrubAction::Quarantined => "quarantined",
        };
        f.write_str(s)
    }
}

/// One deviation found by a scrub.
#[derive(Debug, Clone)]
pub struct ScrubIssue {
    /// The file the issue is about.
    pub path: PathBuf,
    /// What kind of deviation.
    pub kind: IssueKind,
    /// What was done about it.
    pub action: ScrubAction,
    /// Human-readable specifics (line numbers, expected/found values).
    pub detail: String,
}

impl fmt::Display for ScrubIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}: {} [{}]",
            self.path.display(),
            self.kind,
            self.detail,
            self.action
        )
    }
}

/// The result of one scrub pass over a store directory.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Checkpoint/journal fingerprints examined.
    pub sweeps: usize,
    /// Every deviation found, in deterministic (path-sorted walk) order.
    pub issues: Vec<ScrubIssue>,
    /// Fingerprints that had at least one file quarantined.
    pub quarantined_sweeps: Vec<u64>,
}

impl ScrubReport {
    /// No deviations at all.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Issues fixed in place.
    pub fn repairs(&self) -> u64 {
        self.issues
            .iter()
            .filter(|i| i.action == ScrubAction::Repaired)
            .count() as u64
    }

    /// Issues that remain after the pass: everything neither repaired
    /// nor quarantined out of the store.
    pub fn unresolved(&self) -> u64 {
        self.issues
            .iter()
            .filter(|i| i.action == ScrubAction::Reported)
            .count() as u64
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scrubbed {} sweep(s): {} issue(s), {} repaired, {} quarantined sweep(s)",
            self.sweeps,
            self.issues.len(),
            self.repairs(),
            self.quarantined_sweeps.len()
        )?;
        for issue in &self.issues {
            writeln!(f, "  {issue}")?;
        }
        Ok(())
    }
}

/// How one store file came out of inspection.
enum Health {
    /// No such file — a pair may legitimately have only one half.
    Absent,
    /// Header checks out; interior damage (if any) already reported.
    Ok,
    /// The whole file is untrustworthy; the detail says why.
    Bad(String),
}

/// Loads a store file through the reader the daemon's loaders use. A
/// header problem (wrong magic, a fingerprint that contradicts the file
/// name, non-UTF-8 bytes) is `Err(detail)`: the whole file is bad.
/// Otherwise returns a warning per record the loaders skip.
fn load_warnings(
    vfs: &VfsHandle,
    path: &Path,
    fingerprint: u64,
) -> io::Result<Result<Vec<(usize, CheckpointWarning)>, String>> {
    match vs_fleet::load_checkpoint_report_on(vfs, path, fingerprint) {
        Ok(load) => Ok(Ok(load.warnings)),
        Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::InvalidData => {
            Ok(Err("not valid UTF-8".into()))
        }
        Err(CheckpointError::Io(e)) => Err(e),
        Err(e) => Ok(Err(e.to_string())),
    }
}

/// Reports skipped records as report-only issues: the lenient loaders
/// already skip them, and rewriting history is not fsck's call.
fn report_corrupt(
    path: &Path,
    warnings: Vec<(usize, CheckpointWarning)>,
    issues: &mut Vec<ScrubIssue>,
) {
    for (line, warning) in warnings {
        issues.push(ScrubIssue {
            path: path.to_path_buf(),
            kind: IssueKind::CorruptRecord,
            action: ScrubAction::Reported,
            detail: format!("line {line}: {warning}"),
        });
    }
}

/// Inspects a checkpoint: header, then every record. Interior record
/// damage is pushed as report-only issues; header damage makes the whole
/// file [`Health::Bad`].
fn check_checkpoint(
    vfs: &VfsHandle,
    path: &Path,
    fingerprint: u64,
    issues: &mut Vec<ScrubIssue>,
) -> io::Result<Health> {
    if !vfs.exists(path) {
        return Ok(Health::Absent);
    }
    Ok(match load_warnings(vfs, path, fingerprint)? {
        Ok(warnings) => {
            report_corrupt(path, warnings, issues);
            Health::Ok
        }
        Err(detail) => Health::Bad(detail),
    })
}

/// What a journal inspection decided, beyond plain health.
enum JournalState {
    Absent,
    Ok,
    /// A strict prefix of the header (zero bytes included) and nothing
    /// else: the header can be rebuilt from the file-name fingerprint.
    Headerless,
    /// Healthy except the final record line fails its frame: keep the
    /// first `keep` bytes, dropping the torn line.
    TornTail {
        line: usize,
        keep: usize,
    },
    Bad(String),
}

/// Inspects a journal: header, then every record. Interior record
/// damage is report-only; only a frame failure on the *final* line is a
/// torn tail (the append in flight at the crash), which repair may
/// truncate.
fn check_journal(
    vfs: &VfsHandle,
    path: &Path,
    fingerprint: u64,
    issues: &mut Vec<ScrubIssue>,
) -> io::Result<JournalState> {
    if !vfs.exists(path) {
        return Ok(JournalState::Absent);
    }
    let bytes = vfs.read(path)?;
    let header = vs_fleet::store_header(fingerprint);
    if bytes.len() < header.len() && header.as_bytes().starts_with(&bytes) {
        return Ok(JournalState::Headerless);
    }
    let mut warnings = match load_warnings(vfs, path, fingerprint)? {
        Ok(warnings) => warnings,
        Err(detail) => return Ok(JournalState::Bad(detail)),
    };
    // Only a frame failure on the final line is the append in flight at
    // the crash; repair cuts the file where that line starts.
    let last_line = bytes.split_inclusive(|b| *b == b'\n').count();
    let torn = matches!(
        warnings.last(),
        Some((line, CheckpointWarning::Truncated | CheckpointWarning::BadCrc { .. }))
            if *line == last_line
    );
    if torn {
        warnings.pop();
    }
    report_corrupt(path, warnings, issues);
    if !torn {
        return Ok(JournalState::Ok);
    }
    let body = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
    let keep = body.iter().rposition(|b| *b == b'\n').map_or(0, |i| i + 1);
    Ok(JournalState::TornTail {
        line: last_line,
        keep,
    })
}

/// Walks the store at `dir`, classifying every deviation; with `repair`
/// set, fixes what is safe to fix and quarantines what is not.
///
/// Deterministic: the walk is path-sorted and every decision is a pure
/// function of file contents, so the same store bytes produce the same
/// report — on the real filesystem or on a simulated crash image.
pub fn scrub(vfs: &VfsHandle, dir: &Path, repair: bool) -> io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let files = vfs.read_dir_sorted(dir)?;

    // Pass 1: orphan temp files, regardless of what they were temps for.
    for path in &files {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.contains(".tmp.") {
            let action = if repair {
                vfs.remove_file(path)?;
                ScrubAction::Repaired
            } else {
                ScrubAction::Reported
            };
            report.issues.push(ScrubIssue {
                path: path.clone(),
                kind: IssueKind::OrphanTemp,
                action,
                detail: "crashed save left its temp file behind".into(),
            });
        }
    }

    // Pass 2: checkpoint/journal pairs, keyed by file-name fingerprint.
    let mut prints: Vec<u64> = Vec::new();
    for path in &files {
        let ext = path.extension().and_then(|e| e.to_str());
        if !matches!(ext, Some("ckpt") | Some("journal")) {
            continue;
        }
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.contains(".tmp.") {
            continue; // already handled as an orphan temp
        }
        let stem = path.file_stem().unwrap_or_default().to_string_lossy();
        match (stem.len() == 16)
            .then(|| u64::from_str_radix(&stem, 16).ok())
            .flatten()
        {
            Some(fp) => {
                if !prints.contains(&fp) {
                    prints.push(fp);
                }
            }
            None => report.issues.push(ScrubIssue {
                path: path.clone(),
                kind: IssueKind::BadFile,
                action: ScrubAction::Reported,
                detail: "file name is not a 16-digit fingerprint".into(),
            }),
        }
    }
    prints.sort_unstable();

    for fp in prints {
        report.sweeps += 1;
        let ckpt = dir.join(format!("{fp:016x}.ckpt"));
        let journal = dir.join(format!("{fp:016x}.journal"));
        let ckpt_health = check_checkpoint(vfs, &ckpt, fp, &mut report.issues)?;
        let journal_state = check_journal(vfs, &journal, fp, &mut report.issues)?;
        let mut quarantined = false;

        if let Health::Bad(detail) = ckpt_health {
            let action = if repair {
                quarantine(&**vfs, dir, &ckpt)?;
                quarantined = true;
                ScrubAction::Quarantined
            } else {
                ScrubAction::Reported
            };
            report.issues.push(ScrubIssue {
                path: ckpt.clone(),
                kind: IssueKind::BadFile,
                action,
                detail,
            });
        }
        match journal_state {
            JournalState::Absent | JournalState::Ok => {}
            JournalState::Headerless => {
                let action = if repair {
                    let header = vs_fleet::store_header(fp);
                    atomic_write(&**vfs, &journal, |w| w.write_all(header.as_bytes()))?;
                    ScrubAction::Repaired
                } else {
                    ScrubAction::Reported
                };
                report.issues.push(ScrubIssue {
                    path: journal.clone(),
                    kind: IssueKind::MissingJournalHeader,
                    action,
                    detail: "header rebuilt from file-name fingerprint".into(),
                });
            }
            JournalState::TornTail { line, keep } => {
                let action = if repair {
                    let bytes = vfs.read(&journal)?;
                    atomic_write(&**vfs, &journal, |w| w.write_all(&bytes[..keep]))?;
                    ScrubAction::Repaired
                } else {
                    ScrubAction::Reported
                };
                report.issues.push(ScrubIssue {
                    path: journal.clone(),
                    kind: IssueKind::TornJournalTail,
                    action,
                    detail: format!("line {line} is a half-written append"),
                });
            }
            JournalState::Bad(detail) => {
                let action = if repair {
                    quarantine(&**vfs, dir, &journal)?;
                    quarantined = true;
                    ScrubAction::Quarantined
                } else {
                    ScrubAction::Reported
                };
                report.issues.push(ScrubIssue {
                    path: journal.clone(),
                    kind: IssueKind::BadFile,
                    action,
                    detail,
                });
            }
        }
        if quarantined {
            report.quarantined_sweeps.push(fp);
        }
    }
    if repair && !report.issues.is_empty() {
        let _ = vfs.sync_dir(dir);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::sync::Arc;
    use vs_guard::crashcheck::{self, CrashPoint, PendingMode};
    use vs_guard::vfs::{OpenMode, SimFs};

    fn sim() -> (Arc<SimFs>, VfsHandle) {
        let sim = Arc::new(SimFs::new());
        let handle: VfsHandle = Arc::clone(&sim) as VfsHandle;
        (sim, handle)
    }

    fn store_dir(vfs: &VfsHandle) -> PathBuf {
        let dir = PathBuf::from("/vsim/store");
        vfs.create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a minimal healthy pair by hand: fsck checks formats, not
    /// simulation semantics, so empty record sections are fine.
    fn write_pair(vfs: &VfsHandle, dir: &Path, fp: u64) {
        let header = vs_fleet::store_header(fp);
        write_file(vfs, &dir.join(format!("{fp:016x}.ckpt")), header.as_bytes());
        write_file(
            vfs,
            &dir.join(format!("{fp:016x}.journal")),
            header.as_bytes(),
        );
    }

    /// Whole framed chip records, exactly as journal appends write them.
    fn records(ids: &[u64]) -> Vec<String> {
        let (_sim, vfs) = sim();
        let path = store_dir(&vfs).join("records.journal");
        let mut journal = vs_fleet::ChipJournal::create_on(&vfs, &path, 0).unwrap();
        for &id in ids {
            journal
                .append(&vs_fleet::ChipSummary {
                    chip: vs_types::ChipId(id),
                    die_seed: id,
                    margins: Vec::new(),
                    mean_vdd_mv: vec![740.0],
                    vdd_reduction: vec![0.06],
                    energy_savings: 0.2,
                    correctable: id,
                    emergencies: 0,
                    crashes: 0,
                    sw_overhead: 0.0,
                    dues: 0,
                    rollbacks: 0,
                })
                .unwrap();
        }
        let text = vfs.read_to_string(&path).unwrap();
        text.lines().skip(2).map(String::from).collect()
    }

    fn write_file(vfs: &VfsHandle, path: &Path, bytes: &[u8]) {
        let mut f = vfs.open_write(path, OpenMode::Truncate).unwrap();
        f.write_all(bytes).unwrap();
        f.sync_all().unwrap();
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let (_sim, vfs) = sim();
        let dir = store_dir(&vfs);
        write_pair(&vfs, &dir, 0xAB);
        let report = scrub(&vfs, &dir, false).unwrap();
        assert!(report.clean(), "{report}");
        assert_eq!(report.sweeps, 1);
    }

    #[test]
    fn orphan_temps_are_removed_on_repair() {
        let (_sim, vfs) = sim();
        let dir = store_dir(&vfs);
        write_pair(&vfs, &dir, 0xAB);
        let temp = dir.join("00000000000000ab.ckpt.tmp.sim1");
        write_file(&vfs, &temp, b"half a checkpoint");
        let report = scrub(&vfs, &dir, false).unwrap();
        assert_eq!(report.issues.len(), 1);
        assert_eq!(report.issues[0].kind, IssueKind::OrphanTemp);
        assert!(vfs.exists(&temp), "non-repair scrub must not mutate");
        let report = scrub(&vfs, &dir, true).unwrap();
        assert_eq!(report.repairs(), 1);
        assert!(!vfs.exists(&temp));
        assert!(scrub(&vfs, &dir, false).unwrap().clean());
    }

    #[test]
    fn torn_journal_tail_is_truncated_on_repair() {
        let (_sim, vfs) = sim();
        let dir = store_dir(&vfs);
        write_pair(&vfs, &dir, 0xCD);
        let journal = dir.join("00000000000000cd.journal");
        let good = records(&[0]).remove(0);
        let mut text = vfs.read_to_string(&journal).unwrap();
        text.push_str(&good);
        text.push('\n');
        text.push_str(&good[..good.len() / 2]); // torn mid-append, no newline
        write_file(&vfs, &journal, text.as_bytes());

        let report = scrub(&vfs, &dir, true).unwrap();
        assert_eq!(report.repairs(), 1);
        assert_eq!(report.issues[0].kind, IssueKind::TornJournalTail);
        let repaired = vfs.read_to_string(&journal).unwrap();
        assert!(repaired.ends_with(&format!("{good}\n")), "{repaired:?}");
        assert!(scrub(&vfs, &dir, false).unwrap().clean());
    }

    #[test]
    fn torn_tail_repair_is_crash_atomic() {
        let (sim, vfs) = sim();
        let dir = store_dir(&vfs);
        write_pair(&vfs, &dir, 0xCD);
        let journal = dir.join("00000000000000cd.journal");
        let records = records(&[0, 1]);
        let mut text = vfs.read_to_string(&journal).unwrap();
        for record in &records {
            text.push_str(record);
            text.push('\n');
        }
        text.push_str(&records[0][..records[0].len() / 2]); // torn mid-append
        write_file(&vfs, &journal, text.as_bytes());
        let before = text.into_bytes();

        // Every crash point from the (durable) damaged store onwards is a
        // crash during the repair.
        let repair_start = sim.mutations();
        assert_eq!(scrub(&vfs, &dir, true).unwrap().repairs(), 1);
        let after = vfs.read(&journal).unwrap();
        assert_ne!(after, before);

        let points: Vec<CrashPoint> = crashcheck::enumerate(&sim)
            .into_iter()
            .filter(|p| p.op >= repair_start)
            .collect();
        for point in &points {
            let found = &sim.crash_image(point).files[&journal];
            assert!(
                *found == before || *found == after,
                "{point}: journal is neither pre- nor post-repair: {:?}",
                String::from_utf8_lossy(found)
            );
            let text = String::from_utf8_lossy(found);
            for record in &records {
                assert!(
                    text.lines().any(|l| l == record.as_str()),
                    "{point}: whole record {record:?} lost"
                );
            }
        }
        assert!(
            points
                .iter()
                .any(|p| matches!(p.pending, PendingMode::Torn(_))),
            "the repair's writes were enumerated with torn variants"
        );
    }

    #[test]
    fn headerless_journal_is_rebuilt_from_its_name() {
        let (_sim, vfs) = sim();
        let dir = store_dir(&vfs);
        let journal = dir.join("00000000000000ef.journal");
        write_file(&vfs, &journal, b"");
        let report = scrub(&vfs, &dir, true).unwrap();
        assert_eq!(report.repairs(), 1);
        assert_eq!(report.issues[0].kind, IssueKind::MissingJournalHeader);
        let text = vfs.read_to_string(&journal).unwrap();
        assert_eq!(
            text,
            "voltspec-fleet-store v2\nfingerprint 00000000000000ef\n"
        );
    }

    #[test]
    fn unrecoverable_checkpoint_is_quarantined_and_journal_kept() {
        let (_sim, vfs) = sim();
        let dir = store_dir(&vfs);
        write_pair(&vfs, &dir, 0x11);
        let ckpt = dir.join("0000000000000011.ckpt");
        // The planted-bug shape: renamed into place with no content.
        write_file(&vfs, &ckpt, b"");
        let report = scrub(&vfs, &dir, true).unwrap();
        assert_eq!(report.quarantined_sweeps, vec![0x11]);
        assert!(!vfs.exists(&ckpt));
        assert!(vfs.exists(&dir.join("quarantine/0000000000000011.ckpt")));
        assert!(
            vfs.exists(&dir.join("0000000000000011.journal")),
            "the healthy half of the pair survives"
        );
        assert!(scrub(&vfs, &dir, false).unwrap().clean());
    }

    #[test]
    fn mid_file_damage_is_reported_not_repaired() {
        let (_sim, vfs) = sim();
        let dir = store_dir(&vfs);
        write_pair(&vfs, &dir, 0x22);
        let journal = dir.join("0000000000000022.journal");
        let mut text = vfs.read_to_string(&journal).unwrap();
        text.push_str("00000000 rotted interior record\n");
        text.push_str(&records(&[1]).remove(0));
        text.push('\n');
        write_file(&vfs, &journal, text.as_bytes());
        let before = vfs.read_to_string(&journal).unwrap();
        let report = scrub(&vfs, &dir, true).unwrap();
        assert_eq!(report.issues.len(), 1);
        assert_eq!(report.issues[0].kind, IssueKind::CorruptRecord);
        assert_eq!(report.issues[0].action, ScrubAction::Reported);
        assert_eq!(vfs.read_to_string(&journal).unwrap(), before);
    }

    #[test]
    fn undecodable_interior_record_is_reported() {
        // A whole frame (valid CRC) whose payload is not a chip record:
        // replay skips it, so fsck must flag it too.
        let (_sim, vfs) = sim();
        let dir = store_dir(&vfs);
        write_pair(&vfs, &dir, 0x33);
        let journal = dir.join("0000000000000033.journal");
        let good = records(&[0, 2]);
        let mut text = vfs.read_to_string(&journal).unwrap();
        text.push_str(&format!(
            "{}\n{}\n{}\n",
            good[0],
            vs_guard::frame("chip 1 wat=huh"),
            good[1]
        ));
        write_file(&vfs, &journal, text.as_bytes());
        let report = scrub(&vfs, &dir, false).unwrap();
        assert_eq!(report.issues.len(), 1, "{report}");
        assert_eq!(report.issues[0].kind, IssueKind::CorruptRecord);
        assert!(report.issues[0].detail.starts_with("line 4: "), "{report}");
    }
}

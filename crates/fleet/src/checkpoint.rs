//! The fleet store's file format, shared by checkpoints and journals.
//!
//! A store file is line-oriented text. Two header lines bind it to a
//! [`FleetConfig::fingerprint`](crate::FleetConfig::fingerprint):
//!
//! ```text
//! voltspec-fleet-store v2
//! fingerprint <16 hex digits>
//! ```
//!
//! Every following line is one completed chip, CRC-framed by
//! [`vs_guard::frame`] (`<crc32 of payload, 8 hex digits> <payload>`).
//! A checkpoint holds its records in chip-id order and is replaced whole;
//! a [journal](crate::ChipJournal) appends them as chips finish. A
//! journal is therefore a checkpoint tail, and one reader loads both.
//! Floating-point fields are stored as their exact IEEE-754 bit patterns
//! (16 hex digits), so a resumed fleet aggregates to *bit-identical*
//! statistics — text round-tripping loses nothing.
//!
//! Saves are atomic and durable ([`vs_guard::durable::atomic_write`]):
//! the checkpoint is written to a uniquely named sibling temp file,
//! fsynced, renamed over the target, and the parent directory is fsynced
//! so the rename itself survives a crash. A sweep killed mid-save leaves
//! the previous checkpoint intact.
//!
//! Loading is deliberately lenient about *records* — a torn final line,
//! a record failing its frame checksum, or a payload that does not decode
//! is skipped with a typed [`CheckpointWarning`], never a panic — while
//! *header* problems (wrong magic, wrong fingerprint) stay hard errors,
//! because they mean the whole file is the wrong file.

use crate::summary::{ChipSummary, CoreMarginSummary};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use vs_guard::durable::atomic_write;
use vs_guard::vfs::{self, VfsHandle};
use vs_guard::{frame, unframe, FrameError};
use vs_types::ChipId;

/// File-format magic: first line of every store file, checkpoint or
/// journal.
pub const STORE_MAGIC: &str = "voltspec-fleet-store v2";

/// The two newline-terminated header lines of a store file bound to
/// `fingerprint`.
pub fn store_header(fingerprint: u64) -> String {
    format!("{STORE_MAGIC}\nfingerprint {fingerprint:016x}\n")
}

/// Why a checkpoint or journal could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file is not a v2 fleet store file: wrong magic or a bad
    /// fingerprint line.
    Format(String),
    /// The file belongs to a different fleet configuration.
    FingerprintMismatch {
        /// Fingerprint of the config attempting to resume.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different fleet config \
                 (expected fingerprint {expected:016x}, file has {found:016x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// Why one chip record was skipped during a load. Record-level damage is
/// never fatal: the rest of the file still loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointWarning {
    /// The record's frame is cut short (an interrupted final write).
    Truncated,
    /// The record fails its frame checksum.
    BadCrc {
        /// The checksum the frame claims.
        expected: u32,
        /// The checksum of the payload actually present.
        found: u32,
    },
    /// The record's payload does not decode as a chip record.
    Malformed(String),
}

impl fmt::Display for CheckpointWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointWarning::Truncated => write!(f, "truncated record"),
            CheckpointWarning::BadCrc { expected, found } => write!(
                f,
                "record fails its checksum (recorded {expected:08x}, computed {found:08x})"
            ),
            CheckpointWarning::Malformed(msg) => write!(f, "malformed record: {msg}"),
        }
    }
}

impl From<FrameError> for CheckpointWarning {
    fn from(e: FrameError) -> CheckpointWarning {
        match e {
            FrameError::Truncated => CheckpointWarning::Truncated,
            FrameError::BadCrc { expected, found } => CheckpointWarning::BadCrc { expected, found },
        }
    }
}

/// The result of a lenient [`load_report`] of a checkpoint or journal:
/// everything that decoded, plus a typed warning per skipped record
/// (`(1-based line number, warning)`).
#[derive(Debug)]
pub struct CheckpointLoad {
    /// The summaries that decoded cleanly, deduplicated by chip id, in
    /// chip-id order.
    pub summaries: Vec<ChipSummary>,
    /// One entry per skipped record.
    pub warnings: Vec<(usize, CheckpointWarning)>,
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn malformed(msg: String) -> CheckpointWarning {
    CheckpointWarning::Malformed(msg)
}

fn parse_f64_hex(s: &str) -> Result<f64, CheckpointWarning> {
    // Exactly 16 hex digits: a shorter string would silently mis-parse.
    if s.len() != 16 {
        return Err(malformed(format!("bad f64 bit pattern {s:?}")));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| malformed(format!("bad f64 bit pattern {s:?}")))
}

fn parse_f64_list(s: &str) -> Result<Vec<f64>, CheckpointWarning> {
    s.split(',')
        .filter(|e| !e.is_empty())
        .map(parse_f64_hex)
        .collect()
}

fn parse_u64(s: &str) -> Result<u64, CheckpointWarning> {
    s.parse()
        .map_err(|_| malformed(format!("bad integer {s:?}")))
}

fn parse_i32(s: &str) -> Result<i32, CheckpointWarning> {
    s.parse()
        .map_err(|_| malformed(format!("bad integer {s:?}")))
}

fn parse_margin(entry: &str) -> Result<CoreMarginSummary, CheckpointWarning> {
    let mut nums = entry.split(':');
    let mut next = || {
        nums.next()
            .ok_or_else(|| malformed(format!("margin entry {entry:?} truncated")))
    };
    Ok(CoreMarginSummary {
        core: parse_u64(next()?)? as usize,
        first_error_mv: parse_i32(next()?)?,
        min_safe_mv: parse_i32(next()?)?,
    })
}

/// Renders one chip record payload (unframed, one line).
pub(crate) fn encode_chip(s: &ChipSummary) -> String {
    let margins = s
        .margins
        .iter()
        .map(|m| format!("{}:{}:{}", m.core, m.first_error_mv, m.min_safe_mv))
        .collect::<Vec<_>>()
        .join(";");
    let join_hex = |v: &[f64]| v.iter().map(|x| f64_hex(*x)).collect::<Vec<_>>().join(",");
    format!(
        "chip {} seed={:016x} margins={} vdd={} red={} es={} ce={} em={} cr={} sw={} du={} rb={}",
        s.chip.0,
        s.die_seed,
        margins,
        join_hex(&s.mean_vdd_mv),
        join_hex(&s.vdd_reduction),
        f64_hex(s.energy_savings),
        s.correctable,
        s.emergencies,
        s.crashes,
        f64_hex(s.sw_overhead),
        s.dues,
        s.rollbacks,
    )
}

/// Parses one chip record payload, field by field in the order
/// [`encode_chip`] writes them.
pub(crate) fn decode_chip(payload: &str) -> Result<ChipSummary, CheckpointWarning> {
    let mut fields = payload.split(' ');
    if fields.next() != Some("chip") {
        return Err(malformed(format!(
            "expected a chip record, got {payload:?}"
        )));
    }
    let chip = ChipId(parse_u64(fields.next().unwrap_or_default())?);
    let mut field = |key: &str| {
        fields
            .next()
            .and_then(|f| f.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| malformed(format!("missing field {key:?} in chip record")))
    };
    let summary = ChipSummary {
        chip,
        die_seed: u64::from_str_radix(field("seed")?, 16)
            .map_err(|_| malformed("bad seed".into()))?,
        margins: field("margins")?
            .split(';')
            .filter(|e| !e.is_empty())
            .map(parse_margin)
            .collect::<Result<_, _>>()?,
        mean_vdd_mv: parse_f64_list(field("vdd")?)?,
        vdd_reduction: parse_f64_list(field("red")?)?,
        energy_savings: parse_f64_hex(field("es")?)?,
        correctable: parse_u64(field("ce")?)?,
        emergencies: parse_u64(field("em")?)?,
        crashes: parse_u64(field("cr")?)?,
        sw_overhead: parse_f64_hex(field("sw")?)?,
        dues: parse_u64(field("du")?)?,
        rollbacks: parse_u64(field("rb")?)?,
    };
    match fields.next() {
        Some(extra) => Err(malformed(format!(
            "unexpected field {extra:?} in chip record"
        ))),
        None => Ok(summary),
    }
}

/// `(1-based line number, warning)` per skipped record.
type Warnings = Vec<(usize, CheckpointWarning)>;

/// One chip record read from a store file: the decoded summary and the
/// framed line it came from, kept so compaction copies it verbatim.
#[derive(Debug)]
pub(crate) struct Record {
    pub summary: ChipSummary,
    pub line: String,
}

/// The one reader of store files. Opening it reads and checks the header
/// (magic, then fingerprint line); iterating yields every record line as
/// `(1-based line number, the record or why it is skipped)`.
pub(crate) struct StoreReader {
    /// The fingerprint the header declares.
    pub fingerprint: u64,
    lines: io::Lines<BufReader<Box<dyn io::Read + Send>>>,
    line_no: usize,
}

impl StoreReader {
    /// Opens `path` and checks its header.
    pub fn open(vfs: &VfsHandle, path: &Path) -> Result<Self, CheckpointError> {
        let mut lines = BufReader::new(vfs.open_read(path)?).lines();
        let magic = lines.next().transpose()?.unwrap_or_default();
        if magic != STORE_MAGIC {
            return Err(CheckpointError::Format(format!(
                "bad header {magic:?} (expected {STORE_MAGIC:?})"
            )));
        }
        let line = lines.next().transpose()?.unwrap_or_default();
        let fingerprint = line
            .strip_prefix("fingerprint ")
            .filter(|hex| hex.len() == 16)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| CheckpointError::Format(format!("bad fingerprint line {line:?}")))?;
        Ok(StoreReader {
            fingerprint,
            lines,
            line_no: 2,
        })
    }

    /// Reads every remaining record into a map keyed by chip id. A chip
    /// recorded twice (a crash between the two steps of a compaction
    /// leaves journal duplicates, bit-identical since the simulation is
    /// deterministic) keeps its last record.
    pub fn read_all(self) -> Result<(BTreeMap<u64, Record>, Warnings), CheckpointError> {
        let mut records = BTreeMap::new();
        let mut warnings = Vec::new();
        for item in self {
            match item? {
                (_, Ok(record)) => {
                    records.insert(record.summary.chip.0, record);
                }
                (line, Err(warning)) => warnings.push((line, warning)),
            }
        }
        Ok((records, warnings))
    }
}

impl Iterator for StoreReader {
    type Item = io::Result<(usize, Result<Record, CheckpointWarning>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => return Some(Err(e)),
            };
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            let summary = unframe(&line)
                .map_err(CheckpointWarning::from)
                .and_then(decode_chip);
            return Some(Ok((
                self.line_no,
                summary.map(|summary| Record { summary, line }),
            )));
        }
    }
}

/// Atomically and durably writes a checkpoint: header, then one framed
/// record per summary in chip-id order. The text is written to a uniquely
/// named sibling temp file, fsynced, renamed over `path`, and the parent
/// directory is fsynced — so after `Ok` the new checkpoint survives
/// SIGKILL, and after any failure the previous one is intact.
pub fn save(
    path: &Path,
    fingerprint: u64,
    summaries: &[ChipSummary],
) -> Result<(), CheckpointError> {
    save_on(&vfs::std_fs(), path, fingerprint, summaries)
}

/// [`save`] against an explicit filesystem backend — the seam the
/// crash-consistency checker records through.
pub fn save_on(
    vfs: &VfsHandle,
    path: &Path,
    fingerprint: u64,
    summaries: &[ChipSummary],
) -> Result<(), CheckpointError> {
    let mut sorted: Vec<&ChipSummary> = summaries.iter().collect();
    sorted.sort_by_key(|s| s.chip);
    let mut text = store_header(fingerprint);
    for s in sorted {
        text.push_str(&frame(&encode_chip(s)));
        text.push('\n');
    }
    atomic_write(&**vfs, path, |w| w.write_all(text.as_bytes()))?;
    Ok(())
}

/// Loads a checkpoint or journal leniently, verifying it belongs to the
/// config with `fingerprint`.
///
/// Header problems (missing file, wrong magic, wrong fingerprint) are
/// hard errors — the file as a whole is unusable. Record problems — a
/// torn final line, a checksum failure, a payload that does not decode —
/// skip only that record and surface as typed [`CheckpointWarning`]s
/// with their 1-based line numbers, so the caller can report partial
/// damage without abandoning the resume. A chip recorded twice keeps its
/// last record. Never panics on arbitrary file bytes.
pub fn load_report(path: &Path, fingerprint: u64) -> Result<CheckpointLoad, CheckpointError> {
    load_report_on(&vfs::std_fs(), path, fingerprint)
}

/// [`load_report`] against an explicit filesystem backend.
pub fn load_report_on(
    vfs: &VfsHandle,
    path: &Path,
    fingerprint: u64,
) -> Result<CheckpointLoad, CheckpointError> {
    let reader = StoreReader::open(vfs, path)?;
    if reader.fingerprint != fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            expected: fingerprint,
            found: reader.fingerprint,
        });
    }
    let (records, warnings) = reader.read_all()?;
    Ok(CheckpointLoad {
        summaries: records.into_values().map(|r| r.summary).collect(),
        warnings,
    })
}

/// Loads a checkpoint, verifying it belongs to the config with
/// `fingerprint`. Returns the completed summaries (chip-id order).
///
/// The lenient [`load_report`] with the warnings discarded: damaged
/// records (torn final write, failed checksum, undecodable payload) are
/// skipped silently.
pub fn load(path: &Path, fingerprint: u64) -> Result<Vec<ChipSummary>, CheckpointError> {
    load_report(path, fingerprint).map(|l| l.summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vs-fleet-checkpoint-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn summary(id: u64) -> ChipSummary {
        ChipSummary {
            chip: ChipId(id),
            die_seed: 0xDEAD_BEEF ^ id,
            margins: vec![
                CoreMarginSummary {
                    core: 0,
                    first_error_mv: 735,
                    min_safe_mv: 640,
                },
                CoreMarginSummary {
                    core: 1,
                    first_error_mv: 720,
                    min_safe_mv: 655,
                },
            ],
            // Deliberately awkward values: round-tripping must be exact.
            mean_vdd_mv: vec![743.333_333_333_1, 760.000_000_000_2],
            vdd_reduction: vec![0.1 + 0.2 - 0.3 + 0.07, f64::MIN_POSITIVE],
            energy_savings: 1.0 / 3.0,
            correctable: 12345,
            emergencies: 2,
            crashes: 0,
            sw_overhead: 0.0123456789,
            dues: id % 3,
            rollbacks: id % 2,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let path = scratch("roundtrip.ckpt");
        let originals: Vec<ChipSummary> = (0..5).map(summary).collect();
        save(&path, 0xABCD, &originals).unwrap();
        let loaded = load(&path, 0xABCD).unwrap();
        assert_eq!(originals, loaded);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = scratch("fingerprint.ckpt");
        save(&path, 1, &[summary(0)]).unwrap();
        match load(&path, 2) {
            Err(CheckpointError::FingerprintMismatch { expected, found }) => {
                assert_eq!(expected, 2);
                assert_eq!(found, 1);
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_final_record_is_skipped() {
        let path = scratch("truncated.ckpt");
        save(&path, 7, &[summary(0), summary(1)]).unwrap();
        let mut text = fs::read_to_string(&path).unwrap();
        // Chop the last record mid-field.
        let cut = text.rfind("es=").unwrap();
        text.truncate(cut);
        fs::write(&path, text).unwrap();
        let loaded = load(&path, 7).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].chip, ChipId(0));
    }

    #[test]
    fn bad_crc_is_a_typed_warning_not_a_panic() {
        let path = scratch("badcrc.ckpt");
        save(&path, 9, &[summary(0), summary(1), summary(2)]).unwrap();
        // Corrupt one byte inside chip 1's record body.
        let mut text = fs::read_to_string(&path).unwrap();
        let pos = text.find("chip 1 ").unwrap() + "chip 1 seed=00000000d".len();
        unsafe { text.as_bytes_mut()[pos] ^= 0x01 };
        fs::write(&path, &text).unwrap();

        let report = load_report(&path, 9).unwrap();
        assert_eq!(report.summaries.len(), 2, "the damaged record is skipped");
        assert_eq!(report.summaries[0].chip, ChipId(0));
        assert_eq!(report.summaries[1].chip, ChipId(2));
        assert_eq!(report.warnings.len(), 1);
        let (line_no, warning) = &report.warnings[0];
        assert_eq!(*line_no, 4, "header is two lines, chip 1 is line 4");
        assert!(matches!(warning, CheckpointWarning::BadCrc { .. }));
        // The silent wrapper agrees on the surviving records.
        assert_eq!(load(&path, 9).unwrap(), report.summaries);
    }

    #[test]
    fn malformed_records_are_warnings_not_errors() {
        let path = scratch("malformed.ckpt");
        save(&path, 3, &[summary(0)]).unwrap();
        let mut text = fs::read_to_string(&path).unwrap();
        // Whole frames (valid CRCs) around payloads that do not decode.
        text.push_str(&format!("{}\n", frame("chip 1 wat=huh")));
        text.push_str(&format!("{}\n", frame("not-a-record-at-all")));
        fs::write(&path, &text).unwrap();
        let report = load_report(&path, 3).unwrap();
        assert_eq!(report.summaries.len(), 1);
        assert_eq!(report.warnings.len(), 2);
        assert!(report
            .warnings
            .iter()
            .all(|(_, w)| matches!(w, CheckpointWarning::Malformed(_))));
    }

    #[test]
    fn repeated_saves_leave_no_temp_files() {
        let dir = scratch("unique-temp-dir");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("x.ckpt");

        save(&target, 1, &[summary(0)]).unwrap();
        save(&target, 1, &[summary(0), summary(1)]).unwrap();
        assert_eq!(load(&target, 1).unwrap().len(), 2);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "saves must not leave temp files behind"
        );
    }

    #[test]
    fn garbage_is_rejected() {
        let path = scratch("garbage.ckpt");
        fs::write(&path, "not a checkpoint\n").unwrap();
        assert!(matches!(load(&path, 0), Err(CheckpointError::Format(_))));
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = scratch("does-not-exist.ckpt");
        let _ = fs::remove_file(&path);
        assert!(matches!(load(&path, 0), Err(CheckpointError::Io(_))));
    }
}

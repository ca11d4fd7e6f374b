//! Checkpoint/resume for long fleet sweeps.
//!
//! The checkpoint is a line-oriented text file: a header binding the file
//! to a [`FleetConfig::fingerprint`](crate::FleetConfig::fingerprint),
//! then one line per completed chip. Floating-point fields are stored as
//! their exact IEEE-754 bit patterns (16 hex digits), so a resumed fleet
//! aggregates to *bit-identical* statistics — text round-tripping loses
//! nothing.
//!
//! Saves are atomic and durable ([`vs_guard::durable::atomic_write`]):
//! the checkpoint is written to a uniquely named sibling temp file,
//! fsynced, renamed over the target, and the parent directory is fsynced
//! so the rename itself survives a crash. A sweep killed mid-save leaves
//! the previous checkpoint intact.
//!
//! Each record carries an optional trailing `crc=` field (CRC-32 of the
//! record body). Loading is deliberately lenient about *records* —
//! a truncated final line, a record failing its checksum, or a malformed
//! record is skipped with a typed [`CheckpointWarning`], never a panic —
//! while *header* problems (wrong magic, wrong fingerprint) stay hard
//! errors, because they mean the whole file is the wrong file. Records
//! written before the `crc=` field existed still load.

use crate::summary::{ChipSummary, CoreMarginSummary};
use std::fmt;
use std::io;
use std::path::Path;
use vs_guard::crc32;
use vs_guard::durable::atomic_write;
use vs_guard::vfs::{self, VfsHandle};
use vs_types::ChipId;

/// File-format magic: first line of every checkpoint.
pub const MAGIC: &str = "voltspec-fleet-checkpoint v1";

/// Why a checkpoint could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file is not a v1 fleet checkpoint, or a record is malformed.
    Format(String),
    /// The checkpoint belongs to a different fleet configuration.
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
/// never fatal: the rest of the checkpoint still resumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointWarning {
    /// The record is missing trailing fields (an interrupted final write).
    Truncated,
    /// The record fails its `crc=` checksum.
    BadCrc {
        /// The checksum the record claims.
        expected: u32,
        /// The checksum of the record body actually present.
        found: u32,
    },
    /// The record does not parse as a chip record.
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

/// The result of a lenient [`load_report`]: everything that decoded, plus
/// a typed warning per skipped record (`(1-based line number, warning)`).
#[derive(Debug)]
pub struct CheckpointLoad {
    /// The summaries that decoded cleanly, in chip-id order.
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
    // Exactly 16 hex digits: a shorter string is a truncated write, and
    // accepting it would silently mis-parse the value.
    if s.len() != 16 {
        return Err(malformed(format!("bad f64 bit pattern {s:?}")));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| malformed(format!("bad f64 bit pattern {s:?}")))
}

fn parse_u64(s: &str) -> Result<u64, CheckpointWarning> {
    s.parse()
        .map_err(|_| malformed(format!("bad integer {s:?}")))
}

fn parse_i32(s: &str) -> Result<i32, CheckpointWarning> {
    s.parse()
        .map_err(|_| malformed(format!("bad integer {s:?}")))
}

/// Renders one chip record as a single checkpoint line, ending with a
/// `crc=` field covering everything before it.
pub(crate) fn encode_chip(s: &ChipSummary) -> String {
    let margins = s
        .margins
        .iter()
        .map(|m| format!("{}:{}:{}", m.core, m.first_error_mv, m.min_safe_mv))
        .collect::<Vec<_>>()
        .join(";");
    let join_hex = |v: &[f64]| v.iter().map(|x| f64_hex(*x)).collect::<Vec<_>>().join(",");
    let mut line = format!(
        "chip {} seed={:016x} margins={} vdd={} red={} es={} ce={} em={} cr={} sw={}",
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
    );
    // Resilience counters are appended only when set, keeping clean-fleet
    // checkpoints byte-identical to the pre-fault format.
    if s.dues > 0 {
        line.push_str(&format!(" du={}", s.dues));
    }
    if s.rollbacks > 0 {
        line.push_str(&format!(" rb={}", s.rollbacks));
    }
    let crc = crc32(line.as_bytes());
    line.push_str(&format!(" crc={crc:08x}"));
    line
}

/// Splits a record's trailing `crc=` field off, if present, returning the
/// record body and the recorded checksum. Records written before the
/// `crc=` field existed come back unchanged with no checksum.
fn split_crc(line: &str) -> Result<(&str, Option<u32>), CheckpointWarning> {
    match line.rsplit_once(" crc=") {
        Some((body, hex)) if !hex.contains(' ') => {
            let crc = u32::from_str_radix(hex, 16)
                .map_err(|_| malformed(format!("bad crc field {hex:?}")))?;
            Ok((body, Some(crc)))
        }
        _ => Ok((line, None)),
    }
}

/// Parses one chip record line, verifying its `crc=` checksum when one is
/// present (legacy records without one still load). Returns `Ok(None)`
/// for an incomplete (truncated) line so partial final writes do not
/// poison a resume.
pub(crate) fn decode_chip(line: &str) -> Result<Option<ChipSummary>, CheckpointWarning> {
    let (line, recorded) = split_crc(line)?;
    if let Some(expected) = recorded {
        let found = crc32(line.as_bytes());
        if expected != found {
            return Err(CheckpointWarning::BadCrc { expected, found });
        }
    }
    let mut parts = line.split_whitespace();
    if parts.next() != Some("chip") {
        return Err(malformed(format!("expected a chip record, got {line:?}")));
    }
    let chip = match parts.next() {
        Some(id) => ChipId(parse_u64(id)?),
        None => return Ok(None),
    };
    let mut die_seed = None;
    let mut margins = None;
    let mut mean_vdd_mv = None;
    let mut vdd_reduction = None;
    let mut energy_savings = None;
    let mut correctable = None;
    let mut emergencies = None;
    let mut crashes = None;
    let mut sw_overhead = None;
    // Optional resilience counters: absent in pre-fault checkpoints (and
    // in clean-fleet saves), defaulting to zero.
    let mut dues = 0;
    let mut rollbacks = 0;
    for field in parts {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| malformed(format!("field {field:?} is not key=value")))?;
        match key {
            "seed" => {
                die_seed = Some(
                    u64::from_str_radix(value, 16)
                        .map_err(|_| malformed(format!("bad seed {value:?}")))?,
                )
            }
            "margins" => {
                let mut list = Vec::new();
                for entry in value.split(';').filter(|e| !e.is_empty()) {
                    let mut nums = entry.split(':');
                    let core = nums
                        .next()
                        .ok_or_else(|| malformed("empty margin entry".into()))?;
                    let fe = nums
                        .next()
                        .ok_or_else(|| malformed(format!("margin entry {entry:?} truncated")))?;
                    let ms = nums
                        .next()
                        .ok_or_else(|| malformed(format!("margin entry {entry:?} truncated")))?;
                    list.push(CoreMarginSummary {
                        core: parse_u64(core)? as usize,
                        first_error_mv: parse_i32(fe)?,
                        min_safe_mv: parse_i32(ms)?,
                    });
                }
                margins = Some(list);
            }
            "vdd" | "red" => {
                let list = value
                    .split(',')
                    .filter(|e| !e.is_empty())
                    .map(parse_f64_hex)
                    .collect::<Result<Vec<f64>, _>>()?;
                if key == "vdd" {
                    mean_vdd_mv = Some(list);
                } else {
                    vdd_reduction = Some(list);
                }
            }
            "es" => energy_savings = Some(parse_f64_hex(value)?),
            "ce" => correctable = Some(parse_u64(value)?),
            "em" => emergencies = Some(parse_u64(value)?),
            "cr" => crashes = Some(parse_u64(value)?),
            "sw" => sw_overhead = Some(parse_f64_hex(value)?),
            "du" => dues = parse_u64(value)?,
            "rb" => rollbacks = parse_u64(value)?,
            other => return Err(malformed(format!("unknown field {other:?} in chip record"))),
        }
    }
    // A record missing trailing fields is a truncated final write.
    match (
        die_seed,
        margins,
        mean_vdd_mv,
        vdd_reduction,
        energy_savings,
        correctable,
        emergencies,
        crashes,
        sw_overhead,
    ) {
        (
            Some(die_seed),
            Some(margins),
            Some(mean_vdd_mv),
            Some(vdd_reduction),
            Some(energy_savings),
            Some(correctable),
            Some(emergencies),
            Some(crashes),
            Some(sw_overhead),
        ) => Ok(Some(ChipSummary {
            chip,
            die_seed,
            margins,
            mean_vdd_mv,
            vdd_reduction,
            energy_savings,
            correctable,
            emergencies,
            crashes,
            sw_overhead,
            dues,
            rollbacks,
        })),
        _ => Ok(None),
    }
}

/// Atomically and durably writes a checkpoint: header, then one line per
/// summary in chip-id order. The text is written to a uniquely named
/// sibling temp file, fsynced, renamed over `path`, and the parent
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
    let mut text = String::new();
    text.push_str(MAGIC);
    text.push('\n');
    text.push_str(&format!("fingerprint {fingerprint:016x}\n"));
    for s in sorted {
        text.push_str(&encode_chip(s));
        text.push('\n');
    }
    atomic_write(&**vfs, path, |w| w.write_all(text.as_bytes()))?;
    Ok(())
}

/// Loads a checkpoint leniently, verifying it belongs to the config with
/// `fingerprint`.
///
/// Header problems (missing file, wrong magic, wrong fingerprint) are
/// hard errors — the file as a whole is unusable. Record problems — a
/// truncated final line, a checksum failure, a malformed record — skip
/// only that record and surface as typed [`CheckpointWarning`]s with
/// their 1-based line numbers, so the caller can report partial damage
/// without abandoning the resume. Never panics on arbitrary file bytes.
pub fn load_report(path: &Path, fingerprint: u64) -> Result<CheckpointLoad, CheckpointError> {
    load_report_on(&vfs::std_fs(), path, fingerprint)
}

/// [`load_report`] against an explicit filesystem backend.
pub fn load_report_on(
    vfs: &VfsHandle,
    path: &Path,
    fingerprint: u64,
) -> Result<CheckpointLoad, CheckpointError> {
    let text = vfs.read_to_string(path)?;
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, MAGIC)) => {}
        other => {
            return Err(CheckpointError::Format(format!(
                "bad header {:?} (expected {MAGIC:?})",
                other.map(|(_, l)| l)
            )))
        }
    }
    let found = match lines
        .next()
        .and_then(|(_, l)| l.strip_prefix("fingerprint "))
    {
        Some(hex) => u64::from_str_radix(hex, 16)
            .map_err(|_| CheckpointError::Format(format!("bad fingerprint {hex:?}")))?,
        None => return Err(CheckpointError::Format("missing fingerprint line".into())),
    };
    if found != fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            expected: fingerprint,
            found,
        });
    }
    let mut summaries = Vec::new();
    let mut warnings = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        match decode_chip(line) {
            Ok(Some(summary)) => summaries.push(summary),
            Ok(None) => warnings.push((idx + 1, CheckpointWarning::Truncated)),
            Err(warning) => warnings.push((idx + 1, warning)),
        }
    }
    summaries.sort_by_key(|s| s.chip);
    Ok(CheckpointLoad {
        summaries,
        warnings,
    })
}

/// Loads a checkpoint, verifying it belongs to the config with
/// `fingerprint`. Returns the completed summaries (chip-id order).
///
/// The lenient [`load_report`] with the warnings discarded: damaged
/// records (truncated final write, failed checksum, malformed line) are
/// skipped silently.
pub fn load(path: &Path, fingerprint: u64) -> Result<Vec<ChipSummary>, CheckpointError> {
    load_report(path, fingerprint).map(|l| l.summaries)
}

/// [`load`] against an explicit filesystem backend.
pub fn load_on(
    vfs: &VfsHandle,
    path: &Path,
    fingerprint: u64,
) -> Result<Vec<ChipSummary>, CheckpointError> {
    load_report_on(vfs, path, fingerprint).map(|l| l.summaries)
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
    fn pre_fault_records_decode_with_zero_counters() {
        // A record written before the `du`/`rb` fields existed must load
        // with both counters at zero.
        let mut s = summary(4);
        s.dues = 0;
        s.rollbacks = 0;
        let line = encode_chip(&s);
        assert!(!line.contains("du=") && !line.contains("rb="), "{line}");
        let decoded = decode_chip(&line).unwrap().unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn records_without_crc_still_load() {
        // A record written before the `crc=` field existed must decode
        // identically — the checksum is strictly additive.
        let s = summary(2);
        let line = encode_chip(&s);
        let (body, crc) = line.rsplit_once(" crc=").unwrap();
        assert_eq!(crc.len(), 8, "crc renders as 8 hex digits");
        assert_eq!(decode_chip(body).unwrap().unwrap(), s);
        assert_eq!(decode_chip(&line).unwrap().unwrap(), s);
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
        text.push_str("chip 1 wat=huh\n");
        text.push_str("not-a-record-at-all\n");
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

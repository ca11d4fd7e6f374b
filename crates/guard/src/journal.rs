//! Crash-safe append-only journaling: CRC32-framed records, fsynced per
//! append.
//!
//! A journal is a line-oriented file. Header lines (format magic,
//! fingerprints) are written raw by the owner; every *record* is framed as
//!
//! ```text
//! <crc32 of payload, 8 hex digits> <payload>
//! ```
//!
//! and the writer flushes **and fsyncs** after each record. The
//! consequence is the write-ahead property long sweeps need: a SIGKILL at
//! any instant loses at most the record being appended, and on replay that
//! record is *detected* — [`unframe`] reports it as truncated or
//! corrupt — rather than silently mis-parsed.

use crate::crc32::crc32;
use crate::fsfault::{short_write_error, WriteFault};
use crate::vfs::{OpenMode, VfsFile, VfsHandle};
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Why a framed journal line could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line is too short to carry a frame (an interrupted write).
    Truncated,
    /// The payload does not match its checksum (bit rot, or a write torn
    /// mid-line).
    BadCrc {
        /// The checksum the frame claims.
        expected: u32,
        /// The checksum of the payload actually present.
        found: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated journal record"),
            FrameError::BadCrc { expected, found } => write!(
                f,
                "journal record fails its checksum (recorded {expected:08x}, computed {found:08x})"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Frames one payload line: `"<crc32:08x> <payload>"`.
///
/// The payload must not contain a newline (records are line-delimited).
pub fn frame(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "journal payloads are single lines");
    format!("{:08x} {payload}", crc32(payload.as_bytes()))
}

/// Decodes a framed line back to its payload, verifying the checksum.
pub fn unframe(line: &str) -> Result<&str, FrameError> {
    let (crc_hex, payload) = line.split_at_checked(8).ok_or(FrameError::Truncated)?;
    let payload = payload.strip_prefix(' ').ok_or(FrameError::Truncated)?;
    let expected = u32::from_str_radix(crc_hex, 16).map_err(|_| FrameError::Truncated)?;
    let found = crc32(payload.as_bytes());
    if expected != found {
        return Err(FrameError::BadCrc { expected, found });
    }
    Ok(payload)
}

/// An append-only journal file: every append is framed, flushed, and
/// fsynced before the call returns, so acknowledged records survive
/// SIGKILL.
pub struct JournalWriter {
    path: PathBuf,
    vfs: VfsHandle,
    file: Box<dyn VfsFile>,
}

impl fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalWriter")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` on `vfs` and durably
    /// writes the given raw header lines. Under an installed
    /// [`crate::fsfault`] plan, creation consumes ENOSPC budget *before*
    /// touching the file — a store that is out of space cannot start a
    /// new journal, and the caller sees the failure up front rather than
    /// mid-run.
    pub fn create_on(vfs: &VfsHandle, path: &Path, header: &[&str]) -> io::Result<JournalWriter> {
        let header_len: usize = header.iter().map(|l| l.len() + 1).sum();
        if let WriteFault::Short(_) = vfs.faults().write_fault(path, header_len)? {
            // A torn header leaves no usable journal; surface it as the
            // creation failing outright.
            return Err(short_write_error());
        }
        let file = vfs.open_write(path, OpenMode::Truncate)?;
        let mut writer = JournalWriter {
            path: path.to_path_buf(),
            vfs: VfsHandle::clone(vfs),
            file,
        };
        for line in header {
            writer.file.write_all(line.as_bytes())?;
            writer.file.write_all(b"\n")?;
        }
        writer.sync()?;
        Ok(writer)
    }

    /// Opens an existing journal on `vfs` for appending (records go
    /// after whatever is already there). Consumes injected ENOSPC budget
    /// like [`create_on`](JournalWriter::create_on); reopening on a full
    /// disk fails.
    pub fn open_append_on(vfs: &VfsHandle, path: &Path) -> io::Result<JournalWriter> {
        if let WriteFault::Short(_) = vfs.faults().write_fault(path, 1)? {
            return Err(short_write_error());
        }
        let file = vfs.open_write(path, OpenMode::Append)?;
        Ok(JournalWriter {
            path: path.to_path_buf(),
            vfs: VfsHandle::clone(vfs),
            file,
        })
    }

    /// Appends one framed record and fsyncs. When this returns `Ok`, the
    /// record is durable. Under an installed [`crate::fsfault`] plan the
    /// append can fail with injected ENOSPC (nothing written), a torn
    /// write (a durable prefix of the record — exactly what a power loss
    /// mid-write leaves), or an fsync failure (record written but not
    /// acknowledged durable).
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        let mut line = frame(payload);
        line.push('\n');
        let bytes = line.as_bytes();
        match self.vfs.faults().write_fault(&self.path, bytes.len())? {
            WriteFault::Intact => self.file.write_all(bytes)?,
            WriteFault::Short(n) => {
                self.file.write_all(&bytes[..n])?;
                // Make the torn prefix durable, as a real crash would.
                self.file.flush()?;
                let _ = self.file.sync();
                return Err(short_write_error());
            }
        }
        self.sync()
    }

    /// Flushes and fsyncs the underlying file.
    fn sync(&mut self) -> io::Result<()> {
        self.vfs.faults().sync_fault(&self.path)?;
        self.file.flush()?;
        self.file.sync()
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The filesystem this journal writes to (used by owners to drop
    /// acknowledgement [`crate::vfs::Vfs::mark`]s after durable appends).
    pub fn vfs(&self) -> &VfsHandle {
        &self.vfs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vs-guard-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn frame_round_trips() {
        for payload in ["", "chip 3 seed=03", "x".repeat(4096).as_str()] {
            assert_eq!(unframe(&frame(payload)), Ok(payload));
        }
    }

    #[test]
    fn corruption_is_typed_not_silent() {
        let line = frame("chip 5 es=deadbeef");
        // Flip one payload byte: BadCrc.
        let mut corrupt = line.clone().into_bytes();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x20;
        let corrupt = String::from_utf8(corrupt).unwrap();
        assert!(matches!(unframe(&corrupt), Err(FrameError::BadCrc { .. })));
        // Chop the line anywhere inside the frame header: Truncated.
        assert_eq!(unframe(&line[..4]), Err(FrameError::Truncated));
        assert_eq!(unframe(""), Err(FrameError::Truncated));
        // Chop inside the payload: the crc no longer matches.
        assert!(unframe(&line[..line.len() - 3]).is_err());
    }

    #[test]
    fn writer_appends_durable_records_after_header() {
        let path = scratch("writer.journal");
        let mut w =
            JournalWriter::create_on(&vfs::std_fs(), &path, &["magic v1", "fingerprint 00ff"])
                .unwrap();
        w.append("record one").unwrap();
        w.append("record two").unwrap();
        drop(w);

        // Re-open and append more — nothing already written is disturbed.
        let mut w = JournalWriter::open_append_on(&vfs::std_fs(), &path).unwrap();
        w.append("record three").unwrap();
        assert_eq!(w.path(), path.as_path());
        drop(w);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "magic v1");
        assert_eq!(lines[1], "fingerprint 00ff");
        assert_eq!(unframe(lines[2]), Ok("record one"));
        assert_eq!(unframe(lines[3]), Ok("record two"));
        assert_eq!(unframe(lines[4]), Ok("record three"));
    }

    #[test]
    fn injected_torn_append_is_durable_prefix_and_detected_on_replay() {
        let dir = std::env::temp_dir().join("vs-guard-journal-fsfault");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        // The plan lives on this handle alone, so no other test's writes
        // under the same directory can consume it.
        let vfs = vfs::std_fs();
        let mut w = JournalWriter::create_on(&vfs, &path, &["magic v1"]).unwrap();
        w.append("record one").unwrap();

        vfs.faults().install(
            &dir,
            crate::fsfault::FsFaultPlan {
                short_writes: 1,
                ..Default::default()
            },
        );
        let err = w.append("record two").unwrap_err();
        assert!(err.to_string().contains("short write"));
        drop(w);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header, good record, torn prefix");
        assert_eq!(unframe(lines[1]), Ok("record one"));
        assert!(
            unframe(lines[2]).is_err(),
            "the torn record must be detected, not silently parsed"
        );
    }
}

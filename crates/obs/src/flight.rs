//! The crash flight recorder: postmortem bundles written with the
//! vs-guard journal discipline.
//!
//! When a run dies interestingly — a sentinel invariant fires, a worker
//! panics past its retries, the watchdog cancels a hung attempt — the
//! last events of the affected chip plus the run's identity are dumped
//! as a *postmortem bundle*: a line-oriented file in which every line is
//! CRC32-framed ([`vs_guard::frame`]) and the whole file is written
//! temp-then-rename with fsync, so a bundle either exists intact or not
//! at all, and bit rot is detected rather than mis-parsed.
//!
//! Bundle contents are a pure function of (config, fault plan, chip):
//! event lines come from the chip's deterministic stream, violations are
//! sorted upstream, and file names are derived from the config
//! fingerprint — so two runs of the same job produce byte-identical
//! bundles under any worker count, which CI checks.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use vs_guard::{frame, unframe, FrameError};
use vs_telemetry::TelemetryEvent;

/// Default flight-recorder ring capacity: the last N events per chip
/// kept for a postmortem. Small enough to dump instantly, large enough
/// to hold the whole causal neighborhood of a violation.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What dumped the bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostmortemTrigger {
    /// A sentinel safety invariant fired on the chip.
    Violation,
    /// The chip's worker panicked on every attempt (the chip was
    /// quarantined). Event lines are absent: the attempt's recorder
    /// died with it, and inventing a partial stream would break the
    /// bundle's determinism guarantee.
    Panic,
    /// The wall-clock watchdog cancelled at least one attempt.
    Watchdog,
}

impl PostmortemTrigger {
    /// Stable lowercase label (used in file names and the header line).
    pub(crate) fn label(self) -> &'static str {
        match self {
            PostmortemTrigger::Violation => "violation",
            PostmortemTrigger::Panic => "panic",
            PostmortemTrigger::Watchdog => "watchdog",
        }
    }

    /// Parses a label produced by [`PostmortemTrigger::label`].
    pub(crate) fn parse(s: &str) -> Option<PostmortemTrigger> {
        [
            PostmortemTrigger::Violation,
            PostmortemTrigger::Panic,
            PostmortemTrigger::Watchdog,
        ]
        .into_iter()
        .find(|t| t.label() == s)
    }
}

impl fmt::Display for PostmortemTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One postmortem flight-recorder bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemBundle {
    /// What dumped it.
    pub trigger: PostmortemTrigger,
    /// The chip the trigger concerned.
    pub chip: u64,
    /// The run's [`FleetConfig::fingerprint`] (which already folds in
    /// the fault-plan digest when a plan is armed).
    ///
    /// [`FleetConfig::fingerprint`]: ../vs_fleet/struct.FleetConfig.html
    pub fingerprint: u64,
    /// Human context: the violation summary, panic error, or watchdog
    /// note.
    pub detail: String,
    /// Events the flight ring overwrote before the dump (0 when the
    /// whole stream fit).
    pub dropped: u64,
    /// Violation descriptions, chip-sorted upstream.
    pub violations: Vec<String>,
    /// The retained event window, serialized — one
    /// [`TelemetryEvent::write_json`] object per entry, oldest first.
    pub events: Vec<String>,
}

impl PostmortemBundle {
    /// An empty bundle for `trigger` on `chip`.
    pub fn new(trigger: PostmortemTrigger, chip: u64, fingerprint: u64) -> PostmortemBundle {
        PostmortemBundle {
            trigger,
            chip,
            fingerprint,
            detail: String::new(),
            dropped: 0,
            violations: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Serializes and appends one event to the retained window.
    pub fn push_event(&mut self, event: &TelemetryEvent) {
        let mut line = String::new();
        event.write_json(&mut line);
        self.events.push(line);
    }

    /// The bundle's deterministic file name:
    /// `pm-<fingerprint>-chip<chip>-<trigger>.bundle`.
    pub(crate) fn file_name(&self) -> String {
        format!(
            "pm-{:016x}-chip{}-{}.bundle",
            self.fingerprint, self.chip, self.trigger
        )
    }

    /// The bundle's payload lines (pre-framing): one header object, one
    /// object per violation, one object per event.
    pub(crate) fn to_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(1 + self.violations.len() + self.events.len());
        let mut detail = String::with_capacity(self.detail.len());
        escape_json_into(&self.detail, &mut detail);
        lines.push(format!(
            "{{\"postmortem\":1,\"trigger\":\"{}\",\"chip\":{},\"fingerprint\":\"{:016x}\",\
             \"detail\":\"{}\",\"dropped\":{},\"violations\":{},\"events\":{}}}",
            self.trigger,
            self.chip,
            self.fingerprint,
            detail,
            self.dropped,
            self.violations.len(),
            self.events.len()
        ));
        for v in &self.violations {
            let mut line = String::from("{\"violation\":\"");
            escape_json_into(v, &mut line);
            line.push_str("\"}");
            lines.push(line);
        }
        lines.extend(self.events.iter().cloned());
        lines
    }
}

/// Appends `s` to `out`, escaped for embedding in a JSON string literal.
/// Postmortem bundles and the fleet daemon's wire frames both escape
/// through this one character map.
pub fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Un-escapes what [`escape_json_into`] produced.
fn unescape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Extracts a string field from one flat JSON object line (the bundle's
/// own header shape — not a general JSON parser).
fn json_str(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let mut end = 0;
    let bytes = rest.as_bytes();
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => return Some(unescape_json(&rest[..end])),
            _ => end += 1,
        }
    }
    None
}

/// Extracts an unsigned integer field from one flat JSON object line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Why a bundle failed to load.
#[derive(Debug)]
pub enum BundleError {
    /// The file could not be read.
    Io(io::Error),
    /// A line failed its CRC frame (`1-based` line number attached).
    Frame {
        /// 1-based line number of the bad frame.
        line: usize,
        /// The frame-level failure.
        error: FrameError,
    },
    /// The frames decoded but the content is not a bundle.
    Malformed(String),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle unreadable: {e}"),
            BundleError::Frame { line, error } => {
                write!(f, "bundle line {line} fails its frame: {error}")
            }
            BundleError::Malformed(msg) => write!(f, "malformed bundle: {msg}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<io::Error> for BundleError {
    fn from(e: io::Error) -> BundleError {
        BundleError::Io(e)
    }
}

/// Writes `bundle` into `dir` (created if needed) crash-safely: every
/// line CRC-framed, the whole file written through
/// [`vs_guard::durable::atomic_write`] (temp file, fsync, rename,
/// directory fsync). Returns the final path. An existing bundle of the
/// same name is replaced atomically — re-running the same job re-dumps
/// the identical bytes.
///
/// `vfs` is the seam the crash-consistency checker records through. A
/// failed write degrades gracefully upstream: the runner records the
/// loss in the degradation report instead of failing the job.
pub fn write_bundle_on(
    vfs: &vs_guard::vfs::VfsHandle,
    dir: &Path,
    bundle: &PostmortemBundle,
) -> io::Result<PathBuf> {
    vfs.create_dir_all(dir)?;
    let path = dir.join(bundle.file_name());
    let mut text = String::new();
    for line in bundle.to_lines() {
        text.push_str(&frame(&line));
        text.push('\n');
    }
    vs_guard::durable::atomic_write(&**vfs, &path, |w| w.write_all(text.as_bytes()))?;
    Ok(path)
}

/// Reads a bundle back, verifying every line's CRC frame and the header
/// section counts.
pub fn read_bundle(path: &Path) -> Result<PostmortemBundle, BundleError> {
    let text = fs::read_to_string(path)?;
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let payload = unframe(raw).map_err(|error| BundleError::Frame { line: i + 1, error })?;
        lines.push(payload.to_owned());
    }
    let header = lines
        .first()
        .ok_or_else(|| BundleError::Malformed("empty bundle".into()))?;
    if json_u64(header, "postmortem") != Some(1) {
        return Err(BundleError::Malformed(
            "header is not a postmortem v1 object".into(),
        ));
    }
    let trigger = json_str(header, "trigger")
        .and_then(|t| PostmortemTrigger::parse(&t))
        .ok_or_else(|| BundleError::Malformed("missing or unknown trigger".into()))?;
    let chip =
        json_u64(header, "chip").ok_or_else(|| BundleError::Malformed("missing chip".into()))?;
    let fingerprint = json_str(header, "fingerprint")
        .and_then(|h| u64::from_str_radix(&h, 16).ok())
        .ok_or_else(|| BundleError::Malformed("missing fingerprint".into()))?;
    let detail = json_str(header, "detail").unwrap_or_default();
    let dropped = json_u64(header, "dropped").unwrap_or(0);
    let n_violations = json_u64(header, "violations").unwrap_or(0) as usize;
    let n_events = json_u64(header, "events").unwrap_or(0) as usize;
    let body = &lines[1..];
    if body.len() != n_violations + n_events {
        return Err(BundleError::Malformed(format!(
            "header promises {n_violations}+{n_events} lines, found {}",
            body.len()
        )));
    }
    let violations = body[..n_violations]
        .iter()
        .map(|l| {
            json_str(l, "violation")
                .ok_or_else(|| BundleError::Malformed("violation line without text".into()))
        })
        .collect::<Result<Vec<String>, BundleError>>()?;
    Ok(PostmortemBundle {
        trigger,
        chip,
        fingerprint,
        detail,
        dropped,
        violations,
        events: body[n_violations..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::{ChipId, DomainId, SimTime};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vs-obs-flight-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_bundle() -> PostmortemBundle {
        let mut b = PostmortemBundle::new(PostmortemTrigger::Violation, 3, 0x3b3f_2ca3_afa0_a1d2);
        b.detail = "rollback-raises chip3 d0 @1000us: \"quoted\"\nsecond line".into();
        b.dropped = 7;
        b.violations
            .push("rollback-raises chip3 d0 @1000us: requested 705 mV".into());
        b.push_event(&TelemetryEvent::DueConsumed {
            at: SimTime::from_millis(1),
            domain: DomainId(0),
            rollback_mv: 705,
            safe_mv: 710,
        });
        b.push_event(&TelemetryEvent::JobFinished {
            chip: ChipId(3),
            sim_time: SimTime::from_millis(500),
            correctable: 12,
            emergencies: 0,
            crashes: 0,
        });
        b
    }

    #[test]
    fn bundle_round_trips_byte_exactly() {
        let dir = scratch("round-trip");
        let bundle = sample_bundle();
        let path = write_bundle_on(&vs_guard::vfs::std_fs(), &dir, &bundle).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "pm-3b3f2ca3afa0a1d2-chip3-violation.bundle"
        );
        let loaded = read_bundle(&path).unwrap();
        assert_eq!(loaded, bundle);

        // Re-writing the identical bundle leaves identical bytes.
        let before = fs::read(&path).unwrap();
        write_bundle_on(&vs_guard::vfs::std_fs(), &dir, &bundle).unwrap();
        assert_eq!(fs::read(&path).unwrap(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_not_misparsed() {
        let dir = scratch("corrupt");
        let path = write_bundle_on(&vs_guard::vfs::std_fs(), &dir, &sample_bundle()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match read_bundle(&path) {
            Err(BundleError::Frame { line, .. }) => assert!(line >= 1),
            other => panic!("corruption must surface as a frame error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_detected_by_section_counts() {
        let dir = scratch("truncated");
        let path = write_bundle_on(&vs_guard::vfs::std_fs(), &dir, &sample_bundle()).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(2).collect();
        fs::write(&path, kept.join("\n")).unwrap();
        assert!(matches!(read_bundle(&path), Err(BundleError::Malformed(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metadata_only_bundles_are_valid() {
        let dir = scratch("panic");
        let mut b = PostmortemBundle::new(PostmortemTrigger::Panic, 5, 0xdead_beef);
        b.detail = "worker panic on every attempt: injected panic (chip 5)".into();
        let path = write_bundle_on(&vs_guard::vfs::std_fs(), &dir, &b).unwrap();
        let loaded = read_bundle(&path).unwrap();
        assert_eq!(loaded.trigger, PostmortemTrigger::Panic);
        assert!(loaded.events.is_empty());
        assert!(loaded.violations.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}

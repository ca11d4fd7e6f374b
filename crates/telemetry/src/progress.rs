//! Fleet progress reporting.
//!
//! The fleet runner used to `eprintln!` ad-hoc status lines; these sinks
//! replace that with a pluggable interface so callers choose between
//! silence (`--quiet`), the familiar human stderr ticker, or
//! machine-readable JSONL progress records.

use std::io::Write;
use vs_types::ChipId;

/// One completed chip, as seen by a progress sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressReport {
    /// The chip that just finished.
    pub chip: ChipId,
    /// Chips finished so far, including this one.
    pub completed: u64,
    /// Chips in the whole run.
    pub total: u64,
}

/// A consumer of fleet progress.
pub trait ProgressSink {
    /// Called once per finished chip, in completion order (which is
    /// nondeterministic under multiple workers — sinks must not feed
    /// determinism-checked output).
    fn chip_done(&mut self, report: &ProgressReport);

    /// Called once when the run completes.
    fn finished(&mut self, _total: u64) {}
}

/// Reports nothing (`--quiet`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentProgress;

impl ProgressSink for SilentProgress {
    fn chip_done(&mut self, _report: &ProgressReport) {}
}

/// Human-readable ticker on stderr: one line every `stride` chips and a
/// final completion line.
#[derive(Debug, Clone, Copy)]
pub struct HumanProgress {
    stride: u64,
}

impl Default for HumanProgress {
    fn default() -> HumanProgress {
        HumanProgress::new(16)
    }
}

impl HumanProgress {
    /// A ticker printing every `stride` chips (`stride` 0 behaves as 1).
    pub(crate) fn new(stride: u64) -> HumanProgress {
        HumanProgress {
            stride: stride.max(1),
        }
    }
}

impl ProgressSink for HumanProgress {
    fn chip_done(&mut self, report: &ProgressReport) {
        if report.completed.is_multiple_of(self.stride) && report.completed < report.total {
            eprintln!("  fleet: {}/{} chips", report.completed, report.total);
        }
    }

    fn finished(&mut self, total: u64) {
        eprintln!("  fleet: {total}/{total} chips");
    }
}

/// Machine-readable progress: one JSON object per finished chip.
#[derive(Debug)]
pub struct JsonlProgress<W: Write> {
    out: W,
}

impl<W: Write> JsonlProgress<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> JsonlProgress<W> {
        JsonlProgress { out }
    }

    /// Returns the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> ProgressSink for JsonlProgress<W> {
    fn chip_done(&mut self, report: &ProgressReport) {
        // Progress is advisory; an unwritable stream should not kill a
        // fleet run, so errors are ignored here (unlike trace sinks).
        let _ = writeln!(
            self.out,
            "{{\"progress\":{{\"chip\":{},\"completed\":{},\"total\":{}}}}}",
            report.chip.0, report.completed, report.total
        );
        // Each record must reach the consumer as the chip finishes —
        // live followers (a `fleetd watch`-style pipe) would otherwise
        // see progress arrive in BufWriter-sized bursts.
        let _ = self.out.flush();
    }

    fn finished(&mut self, _total: u64) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_progress_is_machine_readable() {
        let mut sink = JsonlProgress::new(Vec::new());
        sink.chip_done(&ProgressReport {
            chip: ChipId(3),
            completed: 1,
            total: 4,
        });
        sink.finished(4);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text,
            "{\"progress\":{\"chip\":3,\"completed\":1,\"total\":4}}\n"
        );
    }

    #[test]
    fn silent_progress_is_silent() {
        // Nothing observable to assert beyond "does not panic".
        let mut sink = SilentProgress;
        sink.chip_done(&ProgressReport {
            chip: ChipId(0),
            completed: 1,
            total: 1,
        });
        sink.finished(1);
    }

    #[test]
    fn human_stride_clamps_to_one() {
        let sink = HumanProgress::new(0);
        assert_eq!(sink.stride, 1);
    }
}

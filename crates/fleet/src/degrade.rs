//! Graceful-degradation accounting: what a fleet survived, explicitly.
//!
//! A resilient fleet run never loses a failure silently. Worker-job
//! panics, chips that exhausted their retries, and checkpoint writes that
//! could not be persisted all land in the [`DegradationReport`] attached
//! to the [`FleetResult`](crate::FleetResult), so callers can complete
//! with partial results *and* know exactly what is missing.

use std::fmt;
use vs_types::ChipId;

/// Everything that went wrong — and was absorbed — during a fleet run.
///
/// The chip lists are sorted by chip id, so the report is deterministic
/// for any worker count: retry/quarantine decisions depend only on the
/// fault plan's per-chip attempt counts, never on scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Chips whose job failed at least once but eventually succeeded,
    /// with the number of failed attempts absorbed.
    pub retried: Vec<(ChipId, u32)>,
    /// Chips whose job kept failing past the retry budget: no summary,
    /// excluded from population statistics.
    pub quarantined: Vec<ChipId>,
    /// Checkpoint saves that failed mid-run, as display strings. The run
    /// continues (results are still returned in memory), but resume state
    /// on disk may be stale — callers must surface this.
    pub checkpoint_failures: Vec<String>,
    /// Chips whose job was cancelled by the wall-clock watchdog at least
    /// once (hung or too-slow workers), with the number of fired attempts.
    /// Fired attempts count against the same retry budget as panics, so a
    /// chip that keeps hanging ends up in `quarantined` too.
    pub watchdog_fired: Vec<(ChipId, u32)>,
    /// True when the run was cut short by cooperative cancellation
    /// (Ctrl-C): `summaries` holds only the chips finished before the
    /// interrupt, and progress was flushed to the checkpoint/journal.
    pub interrupted: bool,
    /// Damaged checkpoint or journal records skipped during resume, as
    /// display strings. The affected chips are simply re-simulated.
    pub corrupt_records: Vec<String>,
}

impl DegradationReport {
    /// True when nothing was absorbed: no retries, no quarantined chips,
    /// no failed checkpoint writes.
    pub fn is_clean(&self) -> bool {
        self.retried.is_empty()
            && self.quarantined.is_empty()
            && self.checkpoint_failures.is_empty()
            && self.watchdog_fired.is_empty()
            && !self.interrupted
            && self.corrupt_records.is_empty()
    }

    /// Total failed job attempts absorbed by retries (successful chips
    /// only; quarantined chips are listed separately).
    #[cfg(test)]
    pub(crate) fn attempts_absorbed(&self) -> u64 {
        self.retried.iter().map(|(_, n)| u64::from(*n)).sum()
    }

    /// Sorts the chip lists by id (the runner calls this before handing
    /// the report out).
    pub(crate) fn normalize(&mut self) {
        self.retried.sort_by_key(|(chip, _)| *chip);
        self.quarantined.sort();
        self.watchdog_fired.sort_by_key(|(chip, _)| *chip);
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "degradation: none");
        }
        writeln!(
            f,
            "degradation: {} retried, {} quarantined, {} checkpoint failures, {} watchdog fires{}",
            self.retried.len(),
            self.quarantined.len(),
            self.checkpoint_failures.len(),
            self.watchdog_fired.len(),
            if self.interrupted {
                ", interrupted"
            } else {
                ""
            }
        )?;
        for (chip, attempts) in &self.retried {
            writeln!(f, "  retried chip {} ({attempts} failed attempts)", chip.0)?;
        }
        for chip in &self.quarantined {
            writeln!(f, "  quarantined chip {} (no result)", chip.0)?;
        }
        for err in &self.checkpoint_failures {
            writeln!(f, "  checkpoint save failed: {err}")?;
        }
        for (chip, fires) in &self.watchdog_fired {
            writeln!(f, "  watchdog cancelled chip {} ({fires} attempts)", chip.0)?;
        }
        for rec in &self.corrupt_records {
            writeln!(f, "  corrupt record skipped: {rec}")?;
        }
        if self.interrupted {
            writeln!(f, "  run interrupted: results are partial")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_is_one_line() {
        let report = DegradationReport::default();
        assert!(report.is_clean());
        assert_eq!(report.attempts_absorbed(), 0);
        assert_eq!(report.to_string(), "degradation: none");
    }

    #[test]
    fn report_lists_everything_sorted() {
        let mut report = DegradationReport {
            retried: vec![(ChipId(5), 2), (ChipId(1), 1)],
            quarantined: vec![ChipId(7), ChipId(3)],
            checkpoint_failures: vec!["disk full".into()],
            watchdog_fired: vec![(ChipId(7), 3), (ChipId(5), 1)],
            interrupted: true,
            corrupt_records: vec!["checkpoint line 4: bad CRC".into()],
        };
        report.normalize();
        assert_eq!(report.retried, vec![(ChipId(1), 1), (ChipId(5), 2)]);
        assert_eq!(report.quarantined, vec![ChipId(3), ChipId(7)]);
        assert_eq!(report.watchdog_fired, vec![(ChipId(5), 1), (ChipId(7), 3)]);
        assert_eq!(report.attempts_absorbed(), 3);
        let text = report.to_string();
        assert!(text.contains("1 checkpoint failures"));
        assert!(text.contains("quarantined chip 3"));
        assert!(text.contains("disk full"));
        assert!(text.contains("watchdog cancelled chip 7 (3 attempts)"));
        assert!(text.contains("interrupted"));
        assert!(text.contains("bad CRC"));
    }

    #[test]
    fn interruption_alone_makes_a_report_dirty() {
        let report = DegradationReport {
            interrupted: true,
            ..DegradationReport::default()
        };
        assert!(!report.is_clean());
        assert!(report.to_string().contains("results are partial"));
    }
}

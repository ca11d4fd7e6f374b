//! ECC event records and the chip-wide event log.
//!
//! On the reference platform, correctable-error reports carry the set and
//! way of the failing cache line (§IV-A4 of the paper); the firmware keeps
//! logs used both for characterization (which lines are weak?) and to drive
//! the speculation algorithm. [`EccEventLog`] plays that role here.

use std::collections::HashMap;
use std::fmt;
use vs_types::{CacheKind, CoreId, LineAddress, SimTime};

/// A single-bit error that the ECC hardware corrected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CorrectableError {
    /// When the event was raised.
    pub at: SimTime,
    /// The line that produced the error.
    pub line: LineAddress,
    /// Which word of the line failed.
    pub word: u32,
    /// Which codeword bit within the word flipped.
    pub bit: u32,
    /// The decoder syndrome.
    pub syndrome: u32,
}

impl fmt::Display for CorrectableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] CE {} word {} bit {} (syndrome 0x{:02X})",
            self.at, self.line, self.word, self.bit, self.syndrome
        )
    }
}

/// A multi-bit error the ECC hardware detected but could not correct.
///
/// In the real system this is a machine-check condition; in the simulator it
/// marks a run as unsafe (the speculation system must never reach it in
/// steady state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UncorrectableError {
    /// When the event was raised.
    pub at: SimTime,
    /// The line that produced the error.
    pub line: LineAddress,
    /// Which word of the line failed.
    pub word: u32,
    /// The decoder syndrome.
    pub syndrome: u32,
}

impl fmt::Display for UncorrectableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] UE {} word {} (syndrome 0x{:02X})",
            self.at, self.line, self.word, self.syndrome
        )
    }
}

/// A chip-wide log of ECC events, with the per-line and per-structure
/// summaries the characterization experiments need.
///
/// # Examples
///
/// ```
/// use vs_ecc::{EccEventLog, CorrectableError};
/// use vs_types::{CoreId, CacheKind, LineAddress, SetWay, SimTime};
///
/// let mut log = EccEventLog::new();
/// log.record_correctable(CorrectableError {
///     at: SimTime::from_millis(10),
///     line: LineAddress::new(CoreId(0), CacheKind::L2Data, SetWay::new(17, 3)),
///     word: 2,
///     bit: 40,
///     syndrome: 0x0B,
/// });
/// assert_eq!(log.correctable_count(), 1);
/// assert_eq!(log.count_for_core(CoreId(0), CacheKind::L2Data), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EccEventLog {
    correctable: Vec<CorrectableError>,
    uncorrectable: Vec<UncorrectableError>,
    per_line: HashMap<LineAddress, u64>,
}

impl EccEventLog {
    /// Creates an empty log.
    pub fn new() -> EccEventLog {
        EccEventLog::default()
    }

    /// Appends a correctable-error event.
    pub fn record_correctable(&mut self, event: CorrectableError) {
        *self.per_line.entry(event.line).or_insert(0) += 1;
        self.correctable.push(event);
    }

    /// Appends an uncorrectable-error event.
    pub fn record_uncorrectable(&mut self, event: UncorrectableError) {
        self.uncorrectable.push(event);
    }

    /// Total number of correctable events recorded.
    pub fn correctable_count(&self) -> u64 {
        self.correctable.len() as u64
    }

    /// Total number of uncorrectable events recorded.
    pub fn uncorrectable_count(&self) -> u64 {
        self.uncorrectable.len() as u64
    }

    /// All correctable events, in arrival order.
    pub fn correctable(&self) -> &[CorrectableError] {
        &self.correctable
    }

    /// All uncorrectable events, in arrival order.
    pub fn uncorrectable(&self) -> &[UncorrectableError] {
        &self.uncorrectable
    }

    /// Number of correctable events from one core's structure.
    pub fn count_for_core(&self, core: CoreId, cache: CacheKind) -> u64 {
        self.per_line
            .iter()
            .filter(|(line, _)| line.core == core && line.cache == cache)
            .map(|(_, n)| *n)
            .sum()
    }

    /// The line with the most correctable events, if any were recorded.
    pub fn hottest_line(&self) -> Option<(LineAddress, u64)> {
        self.per_line
            .iter()
            .max_by_key(|(line, n)| (**n, std::cmp::Reverse(**line)))
            .map(|(line, n)| (*line, *n))
    }

    /// Drops all recorded events.
    pub fn clear(&mut self) {
        self.correctable.clear();
        self.uncorrectable.clear();
        self.per_line.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::SetWay;

    fn ce(core: usize, cache: CacheKind, set: usize, at_ms: u64) -> CorrectableError {
        CorrectableError {
            at: SimTime::from_millis(at_ms),
            line: LineAddress::new(CoreId(core), cache, SetWay::new(set, 0)),
            word: 0,
            bit: 1,
            syndrome: 0x07,
        }
    }

    #[test]
    fn counts_and_filters() {
        let mut log = EccEventLog::new();
        log.record_correctable(ce(0, CacheKind::L2Data, 5, 1));
        log.record_correctable(ce(0, CacheKind::L2Data, 5, 2));
        log.record_correctable(ce(0, CacheKind::L2Instruction, 9, 3));
        log.record_correctable(ce(1, CacheKind::L2Data, 5, 4));
        assert_eq!(log.correctable_count(), 4);
        assert_eq!(log.count_for_core(CoreId(0), CacheKind::L2Data), 2);
        assert_eq!(log.count_for_core(CoreId(0), CacheKind::L2Instruction), 1);
        assert_eq!(log.count_for_core(CoreId(1), CacheKind::L2Data), 1);
        assert_eq!(log.count_for_core(CoreId(2), CacheKind::L2Data), 0);
    }

    #[test]
    fn hottest_line() {
        let mut log = EccEventLog::new();
        for _ in 0..3 {
            log.record_correctable(ce(0, CacheKind::L2Data, 7, 1));
        }
        log.record_correctable(ce(0, CacheKind::L2Data, 2, 1));
        let (line, n) = log.hottest_line().unwrap();
        assert_eq!(line.location.set, 7);
        assert_eq!(n, 3);
    }

    #[test]
    fn hottest_line_empty() {
        assert!(EccEventLog::new().hottest_line().is_none());
    }

    #[test]
    fn uncorrectable_tracked_separately() {
        let mut log = EccEventLog::new();
        log.record_uncorrectable(UncorrectableError {
            at: SimTime::ZERO,
            line: LineAddress::new(CoreId(0), CacheKind::L2Data, SetWay::new(0, 0)),
            word: 3,
            syndrome: 0b11,
        });
        assert_eq!(log.uncorrectable_count(), 1);
        assert_eq!(log.correctable_count(), 0);
        log.clear();
        assert_eq!(log.uncorrectable_count(), 0);
    }

    #[test]
    fn display_strings() {
        let msg = ce(1, CacheKind::L2Instruction, 3, 5).to_string();
        assert!(msg.contains("CE"));
        assert!(msg.contains("core1"));
        assert!(msg.contains("L2I"));
    }
}

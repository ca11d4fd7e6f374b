//! The chip's ECC error counts.
//!
//! The paper's mechanisms read ECC errors only as counts: the monitor's
//! per-period error counter (§III-A), the firmware baseline's count of
//! workload-triggered errors (§V-F), and the set/way of the failing lines
//! that characterization ranks (§IV-A4). [`EccCounts`] keeps exactly
//! that: two totals and one correctable count per line that erred, so it
//! grows with the number of erring lines, not with the number of errors.

use std::collections::BTreeMap;
use vs_types::{CacheKind, CoreId, LineAddress, SetWay};

/// Correctable and uncorrectable ECC error counts, with the correctable
/// ones also kept per line.
///
/// Lines are ordered by `(core, structure, set, way)`, so one core's (or
/// one structure's) lines form a contiguous range and iteration order is
/// deterministic.
#[derive(Debug, Default)]
pub struct EccCounts {
    correctable: u64,
    uncorrectable: u64,
    per_line: BTreeMap<LineAddress, u64>,
}

impl EccCounts {
    /// Counts `n` correctable errors on `line` (nothing when `n` is 0).
    pub(crate) fn add_correctable(&mut self, line: LineAddress, n: u64) {
        if n > 0 {
            self.correctable += n;
            *self.per_line.entry(line).or_insert(0) += n;
        }
    }

    /// Counts `n` uncorrectable errors.
    pub(crate) fn add_uncorrectable(&mut self, n: u64) {
        self.uncorrectable += n;
    }

    /// Total correctable errors.
    pub fn correctable(&self) -> u64 {
        self.correctable
    }

    /// Total uncorrectable errors.
    pub fn uncorrectable(&self) -> u64 {
        self.uncorrectable
    }

    /// Correctable errors from one core's structure.
    pub(crate) fn correctable_in(&self, core: CoreId, kind: CacheKind) -> u64 {
        let first = LineAddress::new(core, kind, SetWay::default());
        self.sum_from(first, |line| line.core == core && line.cache == kind)
    }

    /// Correctable errors from every structure of one core.
    pub fn correctable_on_core(&self, core: CoreId) -> u64 {
        // `L1Instruction` is the lowest `CacheKind`: the core's lines
        // start here.
        let first = LineAddress::new(core, CacheKind::L1Instruction, SetWay::default());
        self.sum_from(first, |line| line.core == core)
    }

    /// The distinct lines that raised a correctable error, in order.
    pub fn erring_lines(&self) -> impl Iterator<Item = LineAddress> + '_ {
        self.per_line.keys().copied()
    }

    /// The per-line counts from `first` on, while `same` holds.
    fn sum_from(&self, first: LineAddress, same: impl Fn(&LineAddress) -> bool) -> u64 {
        self.per_line
            .range(first..)
            .take_while(|(line, _)| same(line))
            .map(|(_, n)| n)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(core: usize, cache: CacheKind, set: usize) -> LineAddress {
        LineAddress::new(CoreId(core), cache, SetWay::new(set, 0))
    }

    #[test]
    fn totals_and_ranges() {
        let mut counts = EccCounts::default();
        counts.add_correctable(line(0, CacheKind::L2Data, 5), 2);
        counts.add_correctable(line(0, CacheKind::L2Instruction, 9), 1);
        counts.add_correctable(line(0, CacheKind::RegisterFileInt, 0), 4);
        counts.add_correctable(line(1, CacheKind::L2Data, 5), 1);
        counts.add_correctable(line(1, CacheKind::L1Instruction, 0), 3);
        counts.add_correctable(line(2, CacheKind::L2Data, 1), 0);
        counts.add_uncorrectable(1);
        assert_eq!(counts.correctable(), 11);
        assert_eq!(counts.uncorrectable(), 1);
        assert_eq!(counts.correctable_in(CoreId(0), CacheKind::L2Data), 2);
        assert_eq!(
            counts.correctable_in(CoreId(0), CacheKind::L2Instruction),
            1
        );
        assert_eq!(counts.correctable_in(CoreId(1), CacheKind::L2Data), 1);
        assert_eq!(counts.correctable_in(CoreId(2), CacheKind::L2Data), 0);
        assert_eq!(counts.correctable_on_core(CoreId(0)), 7);
        assert_eq!(counts.correctable_on_core(CoreId(1)), 4);
        assert_eq!(counts.correctable_on_core(CoreId(2)), 0);
    }

    #[test]
    fn erring_lines_are_distinct_and_ordered() {
        let mut counts = EccCounts::default();
        for _ in 0..3 {
            counts.add_correctable(line(1, CacheKind::L2Data, 7), 1);
        }
        counts.add_correctable(line(0, CacheKind::L2Data, 2), 5);
        let lines: Vec<_> = counts.erring_lines().collect();
        assert_eq!(
            lines,
            vec![line(0, CacheKind::L2Data, 2), line(1, CacheKind::L2Data, 7)]
        );
    }
}

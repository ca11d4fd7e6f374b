//! The hardware ECC monitor (§III-A).

use vs_platform::{Chip, ProbeOutcome};
use vs_types::{CacheKind, CoreId, SetWay};

/// A lightweight hardware unit that continuously probes one designated
/// weak cache line and maintains access/error counters.
///
/// On the real chip an ECC monitor is provisioned in every cache
/// controller (nobody knows at design time where the weakest line will
/// be), but only one per voltage domain is *active* at a time; the rest
/// are powered down. This type models one monitor; the
/// [`SpeculationSystem`](crate::SpeculationSystem) instantiates the active
/// set.
///
/// The monitor's probe loop writes a test pattern to its line and issues a
/// read after each write; the built-in ECC hardware corrects single-bit
/// upsets and reports them, incrementing the error counter. The counters
/// are reset each control period; their ratio is the correctable-error
/// rate the voltage controller servos on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccMonitor {
    core: CoreId,
    kind: CacheKind,
    line: SetWay,
    active: bool,
    accesses: u64,
    errors: u64,
}

impl EccMonitor {
    /// Creates an *inactive* monitor attached to a designated line.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not an L2 structure (monitors live in the cache
    /// controllers of the L2s, where the weak lines are).
    pub(crate) fn new(core: CoreId, kind: CacheKind, line: SetWay) -> EccMonitor {
        assert!(kind.is_l2(), "monitors target L2 lines, got {kind}");
        EccMonitor {
            core,
            kind,
            line,
            active: false,
            accesses: 0,
            errors: 0,
        }
    }

    /// The core whose cache controller hosts this monitor.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The structure being monitored.
    pub fn kind(&self) -> CacheKind {
        self.kind
    }

    /// The designated line.
    pub fn line(&self) -> SetWay {
        self.line
    }

    /// Whether the monitor is currently probing.
    #[cfg(test)]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Activates the monitor: de-configures its line from normal cache
    /// allocation and preloads the test pattern.
    pub(crate) fn activate(&mut self, chip: &mut Chip) {
        chip.designate_monitor_line(self.core, self.kind, self.line);
        self.active = true;
    }

    /// Deactivates the monitor and returns its line to normal use (done
    /// when recalibration selects a different line).
    pub(crate) fn deactivate(&mut self, chip: &mut Chip) {
        chip.release_monitor_line(self.core, self.kind, self.line);
        self.active = false;
    }

    /// Issues one probe burst (`accesses` write-then-read cycles during
    /// idle cache cycles), accumulates the counters, and returns the
    /// burst's outcome (its uncorrectable count is normally zero; nonzero
    /// means the domain voltage is catastrophically low).
    ///
    /// # Panics
    ///
    /// Panics if the monitor is not active.
    pub(crate) fn probe(&mut self, chip: &mut Chip, accesses: u64) -> ProbeOutcome {
        assert!(self.active, "probe on an inactive monitor");
        let outcome = chip.monitor_probe(self.core, self.kind, self.line, accesses);
        self.accesses += outcome.accesses;
        self.errors += outcome.correctable;
        outcome
    }

    /// The correctable-error rate since the last counter reset.
    pub(crate) fn error_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.errors as f64 / self.accesses as f64
        }
    }

    /// Accesses since the last reset.
    pub(crate) fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Errors since the last reset.
    pub(crate) fn error_count(&self) -> u64 {
        self.errors
    }

    /// Resets the per-period counters (done by the control system after
    /// each reading, §III-A).
    pub(crate) fn reset_counters(&mut self) {
        self.accesses = 0;
        self.errors = 0;
    }

    /// Retargets the monitor at a new line (recalibration path, §III-D).
    /// The monitor must be inactive.
    ///
    /// # Panics
    ///
    /// Panics if the monitor is still active.
    #[cfg(test)]
    pub(crate) fn retarget(&mut self, kind: CacheKind, line: SetWay) {
        assert!(!self.active, "deactivate before retargeting");
        assert!(kind.is_l2(), "monitors target L2 lines, got {kind}");
        self.kind = kind;
        self.line = line;
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_platform::ChipConfig;
    use vs_types::{DomainId, Millivolts};

    fn small_chip() -> Chip {
        let config = ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(9)
        };
        Chip::new(config)
    }

    #[test]
    fn monitor_lifecycle() {
        let mut chip = small_chip();
        let weak = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0].location;
        let mut m = EccMonitor::new(CoreId(0), CacheKind::L2Data, weak);
        assert!(!m.is_active());
        m.activate(&mut chip);
        assert!(m.is_active());
        chip.tick();
        let outcome = m.probe(&mut chip, 500);
        assert_eq!(outcome.uncorrectable, 0);
        assert_eq!(m.access_count(), 500);
        assert_eq!(m.error_rate(), 0.0, "no errors at nominal voltage");
        m.reset_counters();
        assert_eq!(m.access_count(), 0);
        m.probe(&mut chip, 200);
        assert_eq!(m.access_count(), 200, "a reset starts a fresh window");
        m.deactivate(&mut chip);
        assert!(!m.is_active());
    }

    #[test]
    fn monitor_sees_errors_near_vc() {
        let mut chip = small_chip();
        let weak = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0];
        let mut m = EccMonitor::new(CoreId(0), CacheKind::L2Data, weak.location);
        m.activate(&mut chip);
        chip.request_domain_voltage(DomainId(0), Millivolts(weak.weakest_vc_mv as i32 + 8));
        chip.tick();
        m.probe(&mut chip, 5000);
        let rate = m.error_rate();
        assert!(rate > 0.001, "expected errors near Vc, got {rate}");
        assert!(rate < 0.99);
    }

    #[test]
    fn retarget_requires_deactivation() {
        let mut chip = small_chip();
        let bank = chip.cell_bank(CoreId(0), CacheKind::L2Data);
        let first = bank.lines()[0].location;
        let second = bank.lines()[1].location;
        let mut m = EccMonitor::new(CoreId(0), CacheKind::L2Data, first);
        m.activate(&mut chip);
        m.deactivate(&mut chip);
        m.retarget(CacheKind::L2Instruction, second);
        assert_eq!(m.kind(), CacheKind::L2Instruction);
        assert_eq!(m.line(), second);
    }

    #[test]
    #[should_panic(expected = "deactivate before retargeting")]
    fn retarget_while_active_panics() {
        let mut chip = small_chip();
        let weak = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0].location;
        let mut m = EccMonitor::new(CoreId(0), CacheKind::L2Data, weak);
        m.activate(&mut chip);
        m.retarget(CacheKind::L2Data, SetWay::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "inactive monitor")]
    fn probe_inactive_panics() {
        let mut chip = small_chip();
        let mut m = EccMonitor::new(CoreId(0), CacheKind::L2Data, SetWay::new(0, 0));
        m.probe(&mut chip, 1);
    }

    #[test]
    #[should_panic(expected = "L2 lines")]
    fn non_l2_rejected() {
        EccMonitor::new(CoreId(0), CacheKind::L1Data, SetWay::new(0, 0));
    }
}

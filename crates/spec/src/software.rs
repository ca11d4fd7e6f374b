//! The software/firmware speculation baseline (prior work, compared in
//! §V-F).
//!
//! The baseline has no dedicated monitors: it watches the correctable
//! errors the *workload itself* triggers. Two structural handicaps follow,
//! both reproduced here:
//!
//! 1. **Conservatism.** Workloads touch any particular weak line rarely,
//!    so silence is weak evidence of safety. The firmware therefore holds
//!    a guard margin above the lowest voltage at which off-line
//!    calibration ever saw an error, and backs off whenever the workload
//!    does trip a line.
//! 2. **Handling cost.** Each correctable error is handled in
//!    firmware (logging, bookkeeping, rate evaluation), stalling the core
//!    for a fixed time. As voltage drops and errors multiply, the
//!    overhead grows until it overtakes the savings — the energy
//!    turn-around of Figure 18.

use crate::system::RunStats;
use crate::tally::run_periodic;
use vs_platform::Chip;
use vs_types::{CacheKind, DomainId, Millivolts, SimTime};

/// Tunables of the software baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareConfig {
    /// Control period (firmware runs far less often than the hardware
    /// monitor's per-tick probing).
    pub control_period: SimTime,
    /// Firmware stall per handled correctable error.
    pub handling_cost: SimTime,
    /// Guard margin held above the off-line calibrated error onset.
    ///
    /// This is the structural conservatism of the firmware approach: with
    /// every handled error costing `handling_cost` of stall, firmware
    /// cannot afford to ride the error band the way the hardware monitor
    /// does, so it parks where workload-triggered errors stay rare.
    pub guard_margin: Millivolts,
    /// Step size.
    pub step: Millivolts,
    /// Periods of silence required before another step down.
    pub quiet_periods_to_lower: u32,
}

impl Default for SoftwareConfig {
    fn default() -> SoftwareConfig {
        SoftwareConfig {
            control_period: SimTime::from_millis(100),
            handling_cost: SimTime::from_micros(300),
            guard_margin: Millivolts(35),
            step: Millivolts(5),
            quiet_periods_to_lower: 3,
        }
    }
}

impl SoftwareConfig {
    /// Firmware stall for handling `errors` correctable errors.
    pub(crate) fn stall(&self, errors: u64) -> SimTime {
        SimTime::from_micros(self.handling_cost.as_micros() * errors)
    }
}

/// Per-domain state of the software baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DomainState {
    /// Lowest set point firmware will try (off-line onset + margin).
    floor: Millivolts,
    /// Consecutive quiet control periods.
    quiet: u32,
    /// The domain's correctable errors at the last reading.
    seen: u64,
}

/// The firmware-based voltage-speculation baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareSpeculation {
    config: SoftwareConfig,
    domains: Vec<DomainState>,
    /// Accumulated firmware stall time (performance overhead).
    pub overhead: SimTime,
}

impl SoftwareSpeculation {
    /// Creates the baseline. `offline_onsets` is the per-domain voltage at
    /// which off-line calibration first observed a correctable error (the
    /// same quantity the paper's prior-work system measured at boot).
    pub fn new(config: SoftwareConfig, offline_onsets: &[Millivolts]) -> SoftwareSpeculation {
        SoftwareSpeculation {
            config,
            domains: offline_onsets
                .iter()
                .map(|v| DomainState {
                    floor: *v + config.guard_margin,
                    quiet: 0,
                    seen: 0,
                })
                .collect(),
            overhead: SimTime::ZERO,
        }
    }

    /// The firmware floor of a domain.
    #[cfg(test)]
    pub(crate) fn domain_floor(&self, domain: DomainId) -> Millivolts {
        self.domains[domain.0].floor
    }

    /// Runs one control-period evaluation for every domain: counts the
    /// workload-triggered correctable errors since the last period, pays
    /// the firmware handling cost for each, and adjusts set points.
    pub(crate) fn on_control_period(&mut self, chip: &mut Chip) {
        for (d, state) in self.domains.iter_mut().enumerate() {
            let domain = DomainId(d);
            // An error belongs to the domain of the core whose line raised it.
            let total: u64 = chip
                .config()
                .cores_in_domain(domain)
                .into_iter()
                .map(|core| chip.ecc_counts().correctable_on_core(core))
                .sum();
            let new_count = total.saturating_sub(state.seen);
            state.seen = total;
            self.overhead += self.config.stall(new_count);
            let current = chip.domain_set_point(domain);
            if new_count > 0 {
                // Back off and restart the quiet counter.
                chip.request_domain_voltage(domain, current + self.config.step * 2);
                state.quiet = 0;
            } else {
                state.quiet += 1;
                if state.quiet >= self.config.quiet_periods_to_lower {
                    let target = current - self.config.step;
                    if target >= state.floor {
                        chip.request_domain_voltage(domain, target);
                    }
                    state.quiet = 0;
                }
            }
        }
    }

    /// Runs the baseline system for `duration` on an already-configured
    /// chip. The statistics' core-rail energy excludes the firmware
    /// stall, which accumulates in [`SoftwareSpeculation::overhead`].
    pub fn run(&mut self, chip: &mut Chip, duration: SimTime) -> RunStats {
        run_periodic(chip, duration, self.config.control_period, |chip| {
            self.on_control_period(chip)
        })
    }

    /// The fraction of `duration` lost to firmware error handling.
    pub fn overhead_fraction(&self, duration: SimTime) -> f64 {
        stall_fraction(self.overhead, duration)
    }
}

/// The off-line calibration the prior-work system ran at boot: per domain,
/// the highest critical voltage of any weak line in its cores' L2s (the
/// voltage at which a stepped sweep first sees a correctable error, in
/// oracle form). The CPM baseline guards the same onsets.
pub(crate) fn offline_onsets(chip: &mut Chip) -> Vec<Millivolts> {
    (0..chip.config().num_domains())
        .map(|d| {
            let mut vc = f64::NEG_INFINITY;
            for core in chip.config().cores_in_domain(DomainId(d)) {
                for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
                    vc = vc.max(chip.cell_bank(core, kind).lines()[0].weakest_vc_mv);
                }
            }
            Millivolts(vc.ceil() as i32)
        })
        .collect()
}

/// The fraction of `duration` a firmware `stall` takes up.
pub(crate) fn stall_fraction(stall: SimTime, duration: SimTime) -> f64 {
    if duration == SimTime::ZERO {
        return 0.0;
    }
    stall.as_secs_f64() / duration.as_secs_f64()
}

/// The stall-energy rule: firmware stall burns energy at the run's mean
/// power, so a run that lost `stall_fraction` of its time to error
/// handling costs its measured `energy_j` scaled by that fraction.
pub(crate) fn stall_energy_j(energy_j: f64, stall_fraction: f64) -> f64 {
    energy_j * (1.0 + stall_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_platform::ChipConfig;
    use vs_types::CoreId;
    use vs_workload::StressTest;

    fn small_chip(seed: u64) -> Chip {
        Chip::new(ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        })
    }

    #[test]
    fn floor_respects_guard_margin() {
        let sw = SoftwareSpeculation::new(SoftwareConfig::default(), &[Millivolts(700)]);
        assert_eq!(sw.domain_floor(DomainId(0)), Millivolts(735));
    }

    #[test]
    fn descends_only_to_the_firmware_floor_when_quiet() {
        let mut chip = small_chip(7);
        let onsets = offline_onsets(&mut chip);
        let mut sw = SoftwareSpeculation::new(SoftwareConfig::default(), &onsets);
        // Idle chip: no workload errors ever; firmware walks down and
        // parks at the lowest 5 mV grid point at or above its floor.
        let stats = sw.run(&mut chip, SimTime::from_secs(60));
        let final_v = chip.domain_set_point(DomainId(0));
        let floor = sw.domain_floor(DomainId(0));
        assert!(
            final_v >= floor && final_v < floor + Millivolts(5),
            "park point {final_v} vs floor {floor}"
        );
        assert!(
            stats.mean_vdd_mv[0] > f64::from(final_v.0),
            "mean includes the descent"
        );
        assert_eq!(stats.correctable, 0);
        assert_eq!(sw.overhead, SimTime::ZERO);
    }

    #[test]
    fn backs_off_when_workload_trips_errors() {
        let mut chip = small_chip(7);
        let onset = offline_onsets(&mut chip)[0];
        // Force an aggressive (wrong) calibration so the workload *will*
        // trip errors, and verify firmware reacts by raising.
        let mut sw = SoftwareSpeculation::new(
            SoftwareConfig {
                guard_margin: Millivolts(-60),
                ..SoftwareConfig::default()
            },
            &[onset],
        );
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        chip.set_workload(CoreId(1), Box::new(StressTest::default()));
        let _ = sw.run(&mut chip, SimTime::from_secs(120));
        // 161 handled errors at 300 us each: the stress trips weak lines,
        // and each is paid for exactly once.
        assert_eq!(sw.overhead, SimTime::from_micros(161 * 300));
        let final_v = chip.domain_set_point(DomainId(0));
        assert!(
            final_v > onset - Millivolts(60),
            "firmware must back off above its (too-low) floor, got {final_v}"
        );
    }

    #[test]
    fn software_is_more_conservative_than_hardware() {
        // The headline §V-F comparison at system level: the firmware
        // baseline parks above where the hardware controller settles.
        let mut chip = small_chip(7);
        let onsets = offline_onsets(&mut chip);
        let mut sw = SoftwareSpeculation::new(SoftwareConfig::default(), &onsets);
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        let _ = sw.run(&mut chip, SimTime::from_secs(60));
        let sw_v = chip.domain_set_point(DomainId(0));

        let mut sys = crate::SpeculationSystem::new(
            ChipConfig {
                num_cores: 2,
                weak_lines_tracked: 8,
                ..ChipConfig::low_voltage(7)
            },
            crate::ControllerConfig::default(),
        );
        sys.calibrate_fast();
        sys.assign_workload(CoreId(0), Box::new(StressTest::default()));
        let _ = sys.run(SimTime::from_secs(60));
        // Compare steady-state park points, not run means (the hardware
        // run's mean includes its descent from nominal).
        let hw_v = sys.chip().domain_set_point(DomainId(0));
        assert!(
            hw_v < sw_v,
            "hardware speculation must go lower: hw {hw_v} vs sw {sw_v}"
        );
    }

    #[test]
    fn stall_energy_scales_by_the_stall_fraction() {
        let cfg = SoftwareConfig::default();
        let run = SimTime::from_secs(10);
        assert_eq!(
            stall_energy_j(20.0, stall_fraction(cfg.stall(0), run)),
            20.0
        );
        // 10k errors x 300 us = 3 s of stall in a 10 s run: 30 % more.
        let with_errors = stall_energy_j(20.0, stall_fraction(cfg.stall(10_000), run));
        assert!((with_errors - 26.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_fraction() {
        let mut sw = SoftwareSpeculation::new(SoftwareConfig::default(), &[Millivolts(700)]);
        sw.overhead = SimTime::from_secs(1);
        assert!((sw.overhead_fraction(SimTime::from_secs(10)) - 0.1).abs() < 1e-12);
        assert_eq!(sw.overhead_fraction(SimTime::ZERO), 0.0);
    }
}

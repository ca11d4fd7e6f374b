//! The dual-socket blade (the evaluation platform of Table I).
//!
//! The BL860c-i4 carries *two* Itanium 9560 processors in one enclosure.
//! Each socket runs its own independent speculation system — calibration,
//! monitors, and controllers are all per-chip, because the weak lines are
//! per-die — but they share the enclosure's airflow, so both sockets'
//! silicon temperature follows the *blade's* total dissipation through one
//! thermal model.
//!
//! [`BladeServer`] interleaves the sockets tick by tick via
//! [`SpeculationSystem::step`] and closes the shared thermal loop.

use crate::system::{RunStats, SpeculationSystem};
use crate::tally::RunTally;
use crate::{CalibrationPlan, ControllerConfig};
use std::fmt;
use vs_platform::ChipConfig;
use vs_power::{FanSpeed, ThermalParams, ThermalState};
use vs_types::{Celsius, SimTime, Watts};
use vs_workload::Suite;

/// A dual-socket (or N-socket) blade with a shared enclosure.
pub struct BladeServer {
    sockets: Vec<SpeculationSystem>,
    thermal: ThermalState,
}

impl fmt::Debug for BladeServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BladeServer")
            .field("sockets", &self.sockets.len())
            .field("temperature", &self.thermal.temperature())
            .finish()
    }
}

/// Per-socket plus blade-level results of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct BladeRunStats {
    /// Per-socket statistics (same shape as a single-system run).
    pub sockets: Vec<RunStats>,
    /// Final blade temperature.
    pub temperature: Celsius,
    /// Mean blade power over the run.
    pub mean_power_w: f64,
}

impl BladeRunStats {
    /// True when every socket ran safely.
    pub fn is_safe(&self) -> bool {
        self.sockets.iter().all(RunStats::is_safe)
    }
}

impl BladeServer {
    /// Builds a blade with `sockets` chips. Socket *i* gets die seed
    /// `base_seed + i` (two sockets never carry the same silicon).
    pub(crate) fn new(
        sockets: usize,
        base_seed: u64,
        controller: ControllerConfig,
        thermal: ThermalParams,
    ) -> BladeServer {
        assert!(sockets > 0, "a blade needs at least one socket");
        let systems: Vec<SpeculationSystem> = (0..sockets as u64)
            .map(|i| SpeculationSystem::new(ChipConfig::low_voltage(base_seed + i), controller))
            .collect();
        BladeServer {
            sockets: systems,
            thermal: ThermalState::new(thermal, Watts(4.0)),
        }
    }

    /// The standard evaluation blade: two sockets, default controller and
    /// thermal parameters.
    pub fn bl860c_i4(base_seed: u64) -> BladeServer {
        BladeServer::new(
            2,
            base_seed,
            ControllerConfig::default(),
            ThermalParams::default(),
        )
    }

    /// The sockets.
    #[cfg(test)]
    pub(crate) fn sockets(&self) -> &[SpeculationSystem] {
        &self.sockets
    }

    /// Current blade temperature.
    #[cfg(test)]
    pub(crate) fn temperature(&self) -> Celsius {
        self.thermal.temperature()
    }

    /// Sets the enclosure fan speed.
    pub fn set_fan(&mut self, fan: FanSpeed) {
        self.thermal.set_fan(fan);
    }

    /// Calibrates every socket via the oracle that reads each structure's
    /// ranked cell-bank lines.
    pub fn calibrate_fast(&mut self) {
        for s in &mut self.sockets {
            s.calibrate_with(&CalibrationPlan::fast());
        }
    }

    /// Assigns a suite to every core of every socket.
    pub fn assign_suite(&mut self, suite: Suite, per_benchmark: SimTime) {
        for s in &mut self.sockets {
            s.assign_suite(suite, per_benchmark);
        }
    }

    /// Runs the blade for `duration`, interleaving the sockets tick by
    /// tick and closing the shared thermal loop.
    ///
    /// # Panics
    ///
    /// Panics if any socket is uncalibrated or sockets disagree on tick
    /// length.
    pub fn run(&mut self, duration: SimTime) -> BladeRunStats {
        let tick = self.sockets[0].chip().config().tick;
        assert!(
            self.sockets.iter().all(|s| s.chip().config().tick == tick),
            "sockets must share a tick length"
        );
        let ticks = (duration.as_micros() / tick.as_micros()).max(1);
        let mut runs: Vec<_> = self
            .sockets
            .iter()
            .map(|s| (RunTally::start(s.chip()), s.recovery_mark()))
            .collect();
        let mut power_sum = 0.0;
        for _ in 0..ticks {
            let mut blade_power = 0.0;
            for (socket, (tally, _)) in self.sockets.iter_mut().zip(&mut runs) {
                let report = socket.step();
                blade_power += report.power.0;
                tally.record(socket.chip(), report.power, report.emergencies);
            }
            power_sum += blade_power;
            // Shared enclosure: both sockets see the blade's temperature.
            self.thermal.advance(Watts(blade_power), tick);
            let t = self.thermal.temperature();
            for socket in &mut self.sockets {
                socket.chip_mut().set_static_temperature(t);
            }
        }

        let sockets = self
            .sockets
            .iter()
            .zip(runs)
            .map(|(s, (tally, mark))| s.close_run(tally, mark, duration))
            .collect();

        BladeRunStats {
            sockets,
            temperature: self.thermal.temperature(),
            mean_power_w: power_sum / ticks as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_blade(seed: u64) -> BladeServer {
        let mut blade = BladeServer::new(
            2,
            seed,
            ControllerConfig::default(),
            ThermalParams::default(),
        );
        // Shrink the sockets for test speed.
        for i in 0..2 {
            blade.sockets[i] = SpeculationSystem::new(
                ChipConfig {
                    num_cores: 2,
                    weak_lines_tracked: 8,
                    ..ChipConfig::low_voltage(seed + i as u64)
                },
                ControllerConfig::default(),
            );
        }
        blade
    }

    #[test]
    fn two_sockets_speculate_independently() {
        let mut blade = small_blade(500);
        blade.calibrate_fast();
        blade.assign_suite(Suite::CoreMark, SimTime::from_secs(5));
        let stats = blade.run(SimTime::from_secs(15));
        assert!(stats.is_safe());
        assert_eq!(stats.sockets.len(), 2);
        let a = stats.sockets[0].average_domain_vdd();
        let b = stats.sockets[1].average_domain_vdd();
        assert!(a < 790.0 && b < 790.0, "both sockets speculate: {a}, {b}");
        assert_ne!(a, b, "different dies park at different voltages");
    }

    #[test]
    fn shared_enclosure_heats_with_load() {
        let mut blade = small_blade(500);
        blade.calibrate_fast();
        let idle_t = blade.temperature().0;
        blade.assign_suite(Suite::SpecFp2000, SimTime::from_secs(5));
        let stats = blade.run(SimTime::from_secs(60));
        assert!(stats.is_safe());
        assert!(
            stats.temperature.0 > idle_t + 1.0,
            "load must warm the blade: {} -> {}",
            idle_t,
            stats.temperature
        );
        // Both sockets observe the shared temperature.
        for s in blade.sockets() {
            assert_eq!(s.chip().temperature(), stats.temperature);
        }
    }

    #[test]
    fn blade_power_is_the_sum_of_sockets() {
        let mut blade = small_blade(500);
        blade.calibrate_fast();
        let stats = blade.run(SimTime::from_secs(5));
        let per_socket: f64 = stats
            .sockets
            .iter()
            .map(|s| s.energy_j / s.duration.as_secs_f64())
            .sum();
        assert!(
            (stats.mean_power_w - per_socket).abs() < 0.05 * per_socket,
            "blade {} vs sockets {}",
            stats.mean_power_w,
            per_socket
        );
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn empty_blade_rejected() {
        BladeServer::new(0, 1, ControllerConfig::default(), ThermalParams::default());
    }
}

//! The per-domain voltage control law (§III-B).

use crate::monitor::EccMonitor;
use vs_platform::{Chip, ProbeOutcome};
use vs_types::{ConfigError, DomainId, SimTime};

/// Tunables of the voltage-control system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Error-rate floor: below it the voltage is lowered one step (1 % in
    /// the paper's implementation).
    pub floor: f64,
    /// Error-rate ceiling: above it the voltage is raised one step (5 %).
    pub ceiling: f64,
    /// Emergency ceiling: at or above it the monitor raises an interrupt
    /// and the domain is bumped by the emergency increment immediately
    /// (80 %).
    pub emergency_ceiling: f64,
    /// Regulator steps applied on an emergency (the "larger increment").
    pub emergency_steps: u32,
    /// How often the control system reads and resets the monitor counters.
    pub control_period: SimTime,
    /// Monitor probe reads issued per simulation tick (idle cache cycles).
    pub probes_per_tick: u64,
    /// Minimum accesses before a reading is considered meaningful.
    pub min_accesses: u64,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            floor: 0.01,
            ceiling: 0.05,
            emergency_ceiling: 0.80,
            emergency_steps: 5,
            control_period: SimTime::from_millis(10),
            probes_per_tick: 250,
            min_accesses: 100,
        }
    }
}

impl ControllerConfig {
    /// Validates the configuration, returning the first violated
    /// constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        // NaN compares false to everything, so it needs explicit checks
        // to fail validation rather than slip through.
        if self.floor.is_nan() || self.floor <= 0.0 {
            return Err(ConfigError::out_of_range(
                "floor",
                "positive and below the ceiling",
                self.floor,
            ));
        }
        if self.ceiling.is_nan() || self.floor >= self.ceiling {
            return Err(ConfigError::inconsistent(
                "ceiling",
                "floor",
                "floor must be positive and below the ceiling",
            ));
        }
        if !(self.ceiling < self.emergency_ceiling && self.emergency_ceiling <= 1.0) {
            return Err(ConfigError::out_of_range(
                "emergency_ceiling",
                "above the ceiling, at most 1.0",
                self.emergency_ceiling,
            ));
        }
        if self.emergency_steps == 0 {
            return Err(ConfigError::non_positive("emergency_steps"));
        }
        if self.control_period <= SimTime::ZERO {
            return Err(ConfigError::non_positive("control_period"));
        }
        if self.probes_per_tick == 0 {
            return Err(ConfigError::non_positive("probes_per_tick"));
        }
        Ok(())
    }
}

/// What the controller did at a control-period boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ControlAction {
    /// Error rate below the floor: stepped the domain down.
    SteppedDown {
        /// The observed rate.
        rate: f64,
    },
    /// Error rate within the band: held the set point.
    Held {
        /// The observed rate.
        rate: f64,
    },
    /// Error rate above the ceiling: stepped the domain up.
    SteppedUp {
        /// The observed rate.
        rate: f64,
    },
    /// Emergency interrupt: bumped by the emergency increment.
    Emergency {
        /// The observed rate.
        rate: f64,
    },
    /// Not enough accesses to judge; held.
    InsufficientData,
}

/// The controller of one voltage domain: one active monitor plus the
/// control law.
#[derive(Debug)]
pub struct DomainController {
    domain: DomainId,
    monitor: EccMonitor,
    config: ControllerConfig,
    last_reading: f64,
    stuck_rate: Option<f64>,
}

impl DomainController {
    /// Creates a controller for `domain` around an *active* monitor.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid; use [`ControllerConfig::validate`]
    /// first to handle bad configurations as data.
    pub(crate) fn new(
        domain: DomainId,
        monitor: EccMonitor,
        config: ControllerConfig,
    ) -> DomainController {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        DomainController {
            domain,
            monitor,
            config,
            last_reading: 0.0,
            stuck_rate: None,
        }
    }

    /// The monitor (for inspection).
    pub fn monitor(&self) -> &EccMonitor {
        &self.monitor
    }

    /// Mutable monitor access (used by recalibration).
    pub(crate) fn monitor_mut(&mut self) -> &mut EccMonitor {
        &mut self.monitor
    }

    /// The most recent control-period error-rate reading.
    pub(crate) fn last_reading(&self) -> f64 {
        self.last_reading
    }

    /// The control-law configuration in effect.
    pub(crate) fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Replaces the control law (used by per-domain band tailoring).
    ///
    /// # Panics
    ///
    /// Panics if the new configuration is invalid.
    pub fn set_config(&mut self, config: ControllerConfig) {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        self.config = config;
    }

    /// Forces the monitor line to report a fixed error rate (a stuck-at
    /// fault injected by `vs-faults`), or clears the fault with `None`.
    ///
    /// While stuck, every control-period reading and every per-tick
    /// emergency check sees `rate` regardless of what the real line does,
    /// and the minimum-access gate is bypassed (a stuck line "reports"
    /// unconditionally).
    pub(crate) fn set_stuck_rate(&mut self, rate: Option<f64>) {
        self.stuck_rate = rate;
    }

    /// Runs the monitor's per-tick probe burst. If the burst itself shows
    /// an emergency-level error rate, the interrupt path fires immediately
    /// (without waiting for the control period). Returns the burst's
    /// outcome and whether an emergency fired.
    pub(crate) fn on_tick(&mut self, chip: &mut Chip) -> (ProbeOutcome, bool) {
        let outcome = self.monitor.probe(chip, self.config.probes_per_tick);
        let (rate, gated) = match self.stuck_rate {
            Some(stuck) => (stuck, true),
            None => (
                self.monitor.error_rate(),
                self.monitor.access_count() >= self.config.min_accesses,
            ),
        };
        let fired = gated && rate >= self.config.emergency_ceiling;
        if fired {
            self.emergency(chip, rate);
        }
        (outcome, fired)
    }

    fn emergency(&mut self, chip: &mut Chip, rate: f64) {
        chip.domain_regulator_mut(self.domain)
            .step_up_by(self.config.emergency_steps);
        self.last_reading = rate;
        self.monitor.reset_counters();
    }

    /// Reads the counters at a control-period boundary, applies the
    /// control law, and resets the counters.
    pub(crate) fn on_control_period(&mut self, chip: &mut Chip) -> ControlAction {
        if self.stuck_rate.is_none() && self.monitor.access_count() < self.config.min_accesses {
            return ControlAction::InsufficientData;
        }
        let rate = self.stuck_rate.unwrap_or_else(|| self.monitor.error_rate());
        self.last_reading = rate;
        self.monitor.reset_counters();
        if rate >= self.config.emergency_ceiling {
            chip.domain_regulator_mut(self.domain)
                .step_up_by(self.config.emergency_steps);
            ControlAction::Emergency { rate }
        } else if rate > self.config.ceiling {
            chip.domain_regulator_mut(self.domain).step_up();
            ControlAction::SteppedUp { rate }
        } else if rate < self.config.floor {
            chip.domain_regulator_mut(self.domain).step_down();
            ControlAction::SteppedDown { rate }
        } else {
            ControlAction::Held { rate }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_platform::ChipConfig;
    use vs_types::{CacheKind, CoreId, Millivolts};

    fn chip_and_monitor() -> (Chip, EccMonitor) {
        let config = ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(9)
        };
        let mut chip = Chip::new(config);
        let weak = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0].location;
        let mut monitor = EccMonitor::new(CoreId(0), CacheKind::L2Data, weak);
        monitor.activate(&mut chip);
        (chip, monitor)
    }

    #[test]
    fn config_validation() {
        assert_eq!(ControllerConfig::default().validate(), Ok(()));
    }

    #[test]
    fn inverted_band_rejected() {
        let err = ControllerConfig {
            floor: 0.5,
            ceiling: 0.1,
            ..ControllerConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field(), "ceiling");
        assert!(err.to_string().contains("below the ceiling"), "{err}");
    }

    #[test]
    #[should_panic(expected = "control_period")]
    fn invalid_config_panics_at_construction() {
        let (_, monitor) = chip_and_monitor();
        DomainController::new(
            DomainId(0),
            monitor,
            ControllerConfig {
                control_period: SimTime::ZERO,
                ..ControllerConfig::default()
            },
        );
    }

    #[test]
    fn stuck_rate_overrides_the_monitor() {
        let (mut chip, monitor) = chip_and_monitor();
        let mut ctrl = DomainController::new(DomainId(0), monitor, ControllerConfig::default());
        // Stuck at zero: the controller keeps stepping down even though a
        // real line would eventually start erring.
        ctrl.set_stuck_rate(Some(0.0));
        chip.tick();
        ctrl.on_tick(&mut chip);
        assert!(matches!(
            ctrl.on_control_period(&mut chip),
            ControlAction::SteppedDown { rate } if rate == 0.0
        ));
        // Stuck at one: the per-tick emergency path fires unconditionally.
        ctrl.set_stuck_rate(Some(1.0));
        chip.tick();
        assert!(ctrl.on_tick(&mut chip).1);
        ctrl.set_stuck_rate(None);
        assert_eq!(ctrl.stuck_rate, None);
    }

    #[test]
    fn steps_down_when_silent() {
        let (mut chip, monitor) = chip_and_monitor();
        let mut ctrl = DomainController::new(DomainId(0), monitor, ControllerConfig::default());
        chip.tick();
        let before = chip.domain_set_point(DomainId(0));
        ctrl.on_tick(&mut chip);
        let action = ctrl.on_control_period(&mut chip);
        assert!(matches!(action, ControlAction::SteppedDown { rate } if rate == 0.0));
        assert_eq!(
            chip.domain_regulator_mut(DomainId(0)).pending(),
            before - Millivolts(5),
            "exactly one step down is pending"
        );
        chip.tick();
        assert_eq!(chip.domain_set_point(DomainId(0)), before - Millivolts(5));
    }

    #[test]
    fn insufficient_data_holds() {
        let (mut chip, monitor) = chip_and_monitor();
        let cfg = ControllerConfig {
            min_accesses: 10_000,
            ..ControllerConfig::default()
        };
        let mut ctrl = DomainController::new(DomainId(0), monitor, cfg);
        chip.tick();
        ctrl.on_tick(&mut chip);
        assert!(matches!(
            ctrl.on_control_period(&mut chip),
            ControlAction::InsufficientData
        ));
    }

    #[test]
    fn converges_into_the_error_band() {
        // The central claim of the control law: starting from nominal, the
        // controller walks the domain down until the monitor reports an
        // error rate inside [floor, ceiling], then hovers there.
        let (mut chip, monitor) = chip_and_monitor();
        let cfg = ControllerConfig::default();
        let mut ctrl = DomainController::new(DomainId(0), monitor, cfg);
        let mut held_readings = Vec::new();
        for tick in 0..4000 {
            chip.tick();
            ctrl.on_tick(&mut chip);
            if (tick + 1) % 10 == 0 {
                let action = ctrl.on_control_period(&mut chip);
                if tick > 3000 {
                    if let ControlAction::Held { rate } = action {
                        held_readings.push(rate);
                    }
                }
            }
        }
        assert!(
            !chip.any_crashed(),
            "the controller must never crash a core"
        );
        let v = chip.domain_set_point(DomainId(0));
        assert!(
            v < Millivolts(790),
            "controller should have speculated well below nominal, got {v}"
        );
        assert!(
            !held_readings.is_empty(),
            "controller should settle into the band and hold"
        );
        assert!(held_readings
            .iter()
            .all(|r| (cfg.floor..=cfg.ceiling).contains(r)));
    }

    #[test]
    fn emergency_fires_on_sudden_droop() {
        let (mut chip, monitor) = chip_and_monitor();
        let weak_vc = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0].weakest_vc_mv;
        let mut ctrl = DomainController::new(DomainId(0), monitor, ControllerConfig::default());
        // Slam the domain far below the weak cell: the monitor sees a
        // near-100% rate and must fire the interrupt path.
        chip.request_domain_voltage(DomainId(0), Millivolts(weak_vc as i32 - 25));
        chip.tick();
        let before = chip.domain_set_point(DomainId(0));
        let (outcome, fired) = ctrl.on_tick(&mut chip);
        assert!(fired, "emergency must fire at a near-1.0 error rate");
        assert!(outcome.correctable > 0, "the burst that fired it erred");
        chip.tick();
        assert_eq!(
            chip.domain_set_point(DomainId(0)),
            before + Millivolts(25),
            "emergency bump is emergency_steps x 5 mV"
        );
        assert!(ctrl.last_reading() >= ControllerConfig::default().emergency_ceiling);
        assert_eq!(
            ctrl.monitor().access_count(),
            0,
            "the interrupt resets the window"
        );
    }
}

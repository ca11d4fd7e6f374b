//! Enclosure thermal model.
//!
//! The paper's temperature experiment (§III-D) works by slowing the
//! server-enclosure fans and watching the correctable-error distribution:
//! a ~20 °C rise produced no measurable change. To reproduce that
//! *mechanism* (rather than just the temperature number), this module
//! models the blade's thermal path: silicon temperature follows dissipated
//! power through a first-order RC response whose thermal resistance
//! depends on fan speed.

use vs_types::{Celsius, SimTime, Watts};

/// Enclosure fan setting, as a fraction of full speed.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct FanSpeed(pub f64);

impl FanSpeed {
    /// Full speed.
    pub(crate) const FULL: FanSpeed = FanSpeed(1.0);

    /// Creates a fan speed, clamped into `[0.2, 1.0]` (server fans never
    /// fully stop).
    pub fn new(fraction: f64) -> FanSpeed {
        FanSpeed(fraction.clamp(0.2, 1.0))
    }
}

impl Default for FanSpeed {
    fn default() -> FanSpeed {
        FanSpeed::FULL
    }
}

/// Parameters of the thermal path from junction to inlet air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Inlet-air (ambient) temperature.
    pub ambient: Celsius,
    /// Junction-to-air thermal resistance at full fan speed, in °C/W.
    pub resistance_full_fan_c_per_w: f64,
    /// Thermal time constant of the package + heatsink, in seconds.
    pub time_constant_s: f64,
}

impl Default for ThermalParams {
    fn default() -> ThermalParams {
        ThermalParams {
            ambient: Celsius(25.0),
            // Calibrated for the low-voltage operating point: the ~14 W
            // the speculated blade dissipates there sits ~24 C over
            // ambient at full fan (=> ~49 C silicon, the model's reference
            // temperature), and a fan slowdown to 55% adds the ~20 C the
            // paper's experiment reports.
            resistance_full_fan_c_per_w: 1.7,
            time_constant_s: 12.0,
        }
    }
}

/// First-order thermal state of one socket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalState {
    params: ThermalParams,
    fan: FanSpeed,
    temperature: Celsius,
}

impl ThermalState {
    /// Creates a state settled at the steady-state temperature for
    /// `initial_power`.
    pub fn new(params: ThermalParams, initial_power: Watts) -> ThermalState {
        let mut state = ThermalState {
            params,
            fan: FanSpeed::FULL,
            temperature: Celsius(0.0),
        };
        state.temperature = state.steady_state(initial_power);
        state
    }

    /// The current silicon temperature.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Sets the fan speed (the §III-D experiment's knob).
    pub fn set_fan(&mut self, fan: FanSpeed) {
        self.fan = fan;
    }

    /// Effective junction-to-air resistance at the current fan speed.
    /// Slower air means higher resistance, roughly inversely.
    pub(crate) fn resistance_c_per_w(&self) -> f64 {
        self.params.resistance_full_fan_c_per_w / self.fan.0.max(0.2)
    }

    /// The steady-state temperature at a given dissipation.
    pub(crate) fn steady_state(&self, power: Watts) -> Celsius {
        Celsius(self.params.ambient.0 + self.resistance_c_per_w() * power.0.max(0.0))
    }

    /// Advances the state by `dt` at the given dissipation (first-order
    /// relaxation toward the steady state).
    pub fn advance(&mut self, power: Watts, dt: SimTime) {
        let target = self.steady_state(power);
        let alpha = (dt.as_secs_f64() / self.params.time_constant_s).min(1.0);
        self.temperature = Celsius(self.temperature.0 + alpha * (target.0 - self.temperature.0));
    }

    /// Jumps straight to the steady state for `power` (used when a long
    /// interval passes between samples).
    #[cfg(test)]
    pub(crate) fn settle(&mut self, power: Watts) {
        self.temperature = self.steady_state(power);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ThermalState {
        ThermalState::new(ThermalParams::default(), Watts(14.0))
    }

    #[test]
    fn reference_point_near_50c() {
        let s = state();
        assert!(
            (44.0..55.0).contains(&s.temperature().0),
            "the ~14 W low-voltage blade at full fan should idle near 50 C, got {}",
            s.temperature()
        );
    }

    #[test]
    fn slowing_fans_raises_steady_state_about_20c() {
        // The paper's knob: slowed fans produced up to 20 C of variation.
        let mut s = state();
        let full = s.steady_state(Watts(14.0));
        s.set_fan(FanSpeed::new(0.55));
        let slow = s.steady_state(Watts(14.0));
        let delta = slow.0 - full.0;
        assert!(
            (15.0..28.0).contains(&delta),
            "fan slowdown should add ~20 C, got {delta:.1}"
        );
    }

    #[test]
    fn relaxation_approaches_target_monotonically() {
        let mut s = state();
        let hot = Watts(30.0);
        let target = s.steady_state(hot);
        let mut prev = s.temperature().0;
        for _ in 0..100 {
            s.advance(hot, SimTime::from_millis(500));
            assert!(s.temperature().0 >= prev - 1e-9);
            prev = s.temperature().0;
        }
        assert!((s.temperature().0 - target.0).abs() < 1.0);
    }

    #[test]
    fn settle_jumps_to_steady_state() {
        let mut s = state();
        s.settle(Watts(30.0));
        assert_eq!(s.temperature(), s.steady_state(Watts(30.0)));
    }

    #[test]
    fn fan_speed_clamps() {
        assert_eq!(FanSpeed::new(0.0).0, 0.2);
        assert_eq!(FanSpeed::new(2.0).0, 1.0);
        assert_eq!(FanSpeed::default(), FanSpeed::FULL);
    }

    #[test]
    fn cooling_works_too() {
        let mut s = state();
        s.settle(Watts(30.0));
        let hot = s.temperature().0;
        for _ in 0..100 {
            s.advance(Watts(5.0), SimTime::from_millis(500));
        }
        assert!(s.temperature().0 < hot - 10.0);
    }
}

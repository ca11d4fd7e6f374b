//! A domain's complete supply: regulator plus network.

use crate::network::{Pdn, PdnParams};
use crate::regulator::VoltageRegulator;
use vs_types::Millivolts;

/// The load a domain presents to its supply during one control tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadCurrent {
    /// Average (DC) current, in amperes.
    pub i_dc_amps: f64,
    /// Amplitude of the oscillating component, in amperes.
    pub i_ac_amps: f64,
    /// Frequency of the oscillating component, in hertz.
    pub f_osc_hz: f64,
    /// Magnitude of any abrupt load step that happened this tick, in
    /// amperes (drives the first droop).
    pub transient_step_amps: f64,
}

impl LoadCurrent {
    /// A purely DC load.
    #[cfg(test)]
    pub(crate) fn dc(i_dc_amps: f64) -> LoadCurrent {
        LoadCurrent {
            i_dc_amps,
            ..LoadCurrent::default()
        }
    }

    /// A DC load with an oscillating component.
    pub fn oscillating(i_dc_amps: f64, i_ac_amps: f64, f_osc_hz: f64) -> LoadCurrent {
        LoadCurrent {
            i_dc_amps,
            i_ac_amps,
            f_osc_hz,
            ..LoadCurrent::default()
        }
    }

    /// Adds the load of another sharer of the same rail (two cores per
    /// domain on the reference platform). Oscillating components are
    /// combined conservatively: the dominant frequency wins, amplitudes
    /// add.
    pub fn combine(self, other: LoadCurrent) -> LoadCurrent {
        let (f_osc_hz, _) = if self.i_ac_amps >= other.i_ac_amps {
            (self.f_osc_hz, self.i_ac_amps)
        } else {
            (other.f_osc_hz, other.i_ac_amps)
        };
        LoadCurrent {
            i_dc_amps: self.i_dc_amps + other.i_dc_amps,
            i_ac_amps: self.i_ac_amps + other.i_ac_amps,
            f_osc_hz,
            transient_step_amps: self.transient_step_amps.max(other.transient_step_amps),
        }
    }
}

/// One voltage domain's supply path: a regulator feeding the arrays through
/// the passive network.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSupply {
    regulator: VoltageRegulator,
    pdn: Pdn,
}

impl DomainSupply {
    /// Creates a supply from parts.
    pub fn new(regulator: VoltageRegulator, pdn: Pdn) -> DomainSupply {
        DomainSupply { regulator, pdn }
    }

    /// A supply configured for the low-voltage operating point: 800 mV
    /// nominal, range 500–900 mV, default network.
    pub fn low_voltage_default() -> DomainSupply {
        DomainSupply {
            regulator: VoltageRegulator::new(Millivolts(800), Millivolts(500), Millivolts(900)),
            pdn: Pdn::new(PdnParams::default()),
        }
    }

    /// The regulator.
    pub fn regulator(&self) -> &VoltageRegulator {
        &self.regulator
    }

    /// Mutable access to the regulator (the voltage controller's handle).
    pub fn regulator_mut(&mut self) -> &mut VoltageRegulator {
        &mut self.regulator
    }

    /// The passive network.
    #[cfg(test)]
    pub(crate) fn pdn(&self) -> &Pdn {
        &self.pdn
    }

    /// Advances the regulator one tick (applies pending set points).
    pub fn tick(&mut self) -> bool {
        self.regulator.tick()
    }

    /// Applies all pending regulator changes immediately (used at
    /// initialization).
    pub fn settle(&mut self) {
        self.regulator.tick();
    }

    /// The worst-case effective voltage at the arrays under `load`, in
    /// millivolts (as a float: droops are analog).
    pub fn effective_voltage_mv(&self, load: &LoadCurrent) -> f64 {
        let set = f64::from(self.regulator.output().0);
        set - self.pdn.ir_drop_mv(load.i_dc_amps)
            - self.pdn.ac_droop_mv(load.i_ac_amps, load.f_osc_hz)
            - self.pdn.transient_droop_mv(load.transient_step_amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_voltage_drops_with_load() {
        let supply = DomainSupply::low_voltage_default();
        let idle = supply.effective_voltage_mv(&LoadCurrent::dc(0.5));
        let busy = supply.effective_voltage_mv(&LoadCurrent::dc(6.0));
        assert!(busy < idle);
        assert!(idle < 800.0, "even idle load drops something");
    }

    #[test]
    fn resonant_virus_droops_more_than_flat_out() {
        let supply = DomainSupply::low_voltage_default();
        let f0 = supply.pdn().params().resonance_hz;
        // NOP-0 virus: higher average power, no oscillation near resonance.
        let nop0 = supply.effective_voltage_mv(&LoadCurrent::oscillating(8.0, 1.0, f0 * 6.0));
        // NOP-8 virus: lower average power, oscillating at resonance.
        let nop8 = supply.effective_voltage_mv(&LoadCurrent::oscillating(6.0, 2.5, f0));
        assert!(
            nop8 < nop0,
            "resonant virus must produce the deeper droop ({nop8} vs {nop0})"
        );
    }

    #[test]
    fn transient_step_produces_first_droop() {
        let supply = DomainSupply::low_voltage_default();
        let steady = supply.effective_voltage_mv(&LoadCurrent::dc(4.0));
        let mut load = LoadCurrent::dc(4.0);
        load.transient_step_amps = 3.0;
        let stepped = supply.effective_voltage_mv(&load);
        assert!(stepped < steady);
    }

    #[test]
    fn regulator_changes_propagate_after_tick() {
        let mut supply = DomainSupply::low_voltage_default();
        let before = supply.effective_voltage_mv(&LoadCurrent::dc(1.0));
        supply.regulator_mut().request(Millivolts(740));
        assert_eq!(supply.effective_voltage_mv(&LoadCurrent::dc(1.0)), before);
        supply.tick();
        let after = supply.effective_voltage_mv(&LoadCurrent::dc(1.0));
        assert!((before - after - 60.0).abs() < 1e-9);
    }

    #[test]
    fn combine_adds_dc_and_keeps_dominant_frequency() {
        let a = LoadCurrent::oscillating(2.0, 0.5, 1.0e6);
        let b = LoadCurrent::oscillating(3.0, 2.0, 8.0e6);
        let c = a.combine(b);
        assert_eq!(c.i_dc_amps, 5.0);
        assert_eq!(c.i_ac_amps, 2.5);
        assert_eq!(c.f_osc_hz, 8.0e6, "dominant oscillator sets the frequency");
    }

    #[test]
    fn combine_takes_max_transient() {
        let mut a = LoadCurrent::dc(1.0);
        a.transient_step_amps = 2.0;
        let mut b = LoadCurrent::dc(1.0);
        b.transient_step_amps = 0.5;
        assert_eq!(a.combine(b).transient_step_amps, 2.0);
    }

    #[test]
    fn default_supply_starts_at_nominal() {
        assert_eq!(
            DomainSupply::low_voltage_default().regulator().output(),
            Millivolts(800)
        );
    }
}

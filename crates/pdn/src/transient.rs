//! Time-domain droop simulation.
//!
//! The control-plane model uses the frequency-domain shortcuts in
//! [`crate::Pdn`] (resonant magnitude response, first-droop impedance).
//! This module integrates the underlying second-order circuit directly —
//! a series R-L feeding the on-die capacitance, with the die drawing a
//! current waveform — so the shortcuts can be validated against the
//! physics they abbreviate. It is the reference those unit tests compare
//! against, so it is compiled only for tests.
//!
//! The equivalent circuit:
//!
//! ```text
//!    Vreg ──R──L──┬──── v(t)   (die voltage)
//!                 C
//!                 └──── i_load(t) drawn by the die
//! ```
//!
//! with `dv/dt = (i_L − i_load)/C` and `di_L/dt = (Vreg − v − R·i_L)/L`.

use crate::network::PdnParams;

/// Second-order circuit element values derived from [`PdnParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CircuitValues {
    /// Series resistance, in ohms.
    pub r_ohm: f64,
    /// Series (package) inductance, in henries.
    pub l_henry: f64,
    /// Die capacitance, in farads.
    pub c_farad: f64,
}

impl CircuitValues {
    /// Derives R, L, C from the behavioural parameters: the resonance
    /// frequency fixes `LC`, and the peak impedance (≈ characteristic
    /// impedance boosted by Q) fixes their ratio.
    pub(crate) fn from_params(params: &PdnParams) -> CircuitValues {
        let w0 = std::f64::consts::TAU * params.resonance_hz;
        // Z0 = sqrt(L/C); at resonance the parallel-resonant peak is about
        // Q * Z0 with Q = Z0 / R.
        let r_ohm = params.r_static_mohm * 1.0e-3;
        let z0 = (params.z_peak_mohm * 1.0e-3 / params.q_factor).max(1.0e-6);
        let l_henry = z0 / w0;
        let c_farad = 1.0 / (z0 * w0);
        CircuitValues {
            r_ohm,
            l_henry,
            c_farad,
        }
    }

    /// The natural (resonance) frequency of these values, in hertz.
    pub(crate) fn resonance_hz(&self) -> f64 {
        1.0 / (std::f64::consts::TAU * (self.l_henry * self.c_farad).sqrt())
    }
}

/// A time-domain droop simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TransientSim {
    values: CircuitValues,
    /// Regulator voltage, in volts.
    v_reg: f64,
    /// Die voltage state, in volts.
    v_die: f64,
    /// Inductor current state, in amperes.
    i_l: f64,
}

impl TransientSim {
    /// Creates a simulation settled at `v_reg_volts` with a steady
    /// `i_idle_amps` load.
    pub(crate) fn new(values: CircuitValues, v_reg_volts: f64, i_idle_amps: f64) -> TransientSim {
        TransientSim {
            values,
            v_reg: v_reg_volts,
            v_die: v_reg_volts - values.r_ohm * i_idle_amps,
            i_l: i_idle_amps,
        }
    }

    /// The current die voltage, in volts.
    pub(crate) fn v_die(&self) -> f64 {
        self.v_die
    }

    /// Advances the circuit by `dt_s` with the die drawing `i_load_amps`.
    /// (Semi-implicit Euler; callers should keep `dt` well below the
    /// resonance period.)
    pub(crate) fn step(&mut self, i_load_amps: f64, dt_s: f64) {
        let v = &self.values;
        self.i_l += dt_s * (self.v_reg - self.v_die - v.r_ohm * self.i_l) / v.l_henry;
        self.v_die += dt_s * (self.i_l - i_load_amps) / v.c_farad;
    }

    /// Runs a square-wave load (`i_low`/`i_high` alternating at
    /// `f_osc_hz`, 50 % duty) for `cycles` periods and returns the deepest
    /// die voltage seen in the final quarter of the run (steady-state
    /// droop floor).
    pub(crate) fn worst_droop_under_square_wave(
        &mut self,
        i_low: f64,
        i_high: f64,
        f_osc_hz: f64,
        cycles: u32,
    ) -> f64 {
        let period = 1.0 / f_osc_hz;
        let dt = period / 400.0;
        let total_steps = (400 * cycles) as usize;
        let mut worst = self.v_die;
        for k in 0..total_steps {
            let phase = (k % 400) as f64 / 400.0;
            let load = if phase < 0.5 { i_high } else { i_low };
            self.step(load, dt);
            if k >= total_steps * 3 / 4 {
                worst = worst.min(self.v_die);
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Pdn;

    fn values() -> CircuitValues {
        CircuitValues::from_params(&PdnParams::default())
    }

    #[test]
    fn derived_circuit_hits_the_resonance() {
        let v = values();
        let f0 = PdnParams::default().resonance_hz;
        assert!(
            (v.resonance_hz() - f0).abs() / f0 < 1e-9,
            "LC must reproduce the behavioural resonance"
        );
        assert!(v.l_henry > 0.0 && v.c_farad > 0.0);
    }

    #[test]
    fn dc_settles_to_ir_drop() {
        let v = values();
        let mut sim = TransientSim::new(v, 0.8, 0.0);
        // Step to 5 A and integrate far past the transient.
        let dt = 1.0 / (PdnParams::default().resonance_hz * 400.0);
        for _ in 0..2_000_000 {
            sim.step(5.0, dt);
        }
        let expected = 0.8 - v.r_ohm * 5.0;
        assert!(
            (sim.v_die() - expected).abs() < 2.0e-4,
            "DC operating point: {} vs {}",
            sim.v_die(),
            expected
        );
    }

    #[test]
    fn resonant_square_wave_droops_deepest() {
        // Sweep the square-wave frequency through the resonance: the
        // deepest steady-state droop must occur at (or adjacent to) the
        // resonant point — the time-domain confirmation of the
        // frequency-domain model the control plane uses.
        let params = PdnParams::default();
        let f0 = params.resonance_hz;
        let mut droops = Vec::new();
        for mult in [0.25, 0.5, 1.0, 2.0, 4.0] {
            let mut sim = TransientSim::new(values(), 0.8, 1.0);
            let worst = sim.worst_droop_under_square_wave(1.0, 3.0, f0 * mult, 60);
            droops.push((mult, 0.8 - worst));
        }
        let (at_res, deepest) = droops
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .copied()
            .expect("nonempty");
        assert_eq!(
            at_res, 1.0,
            "deepest droop must be at resonance: {droops:?}"
        );
        assert!(deepest > 0.0);
    }

    #[test]
    fn time_domain_agrees_with_frequency_domain_magnitude() {
        // The frequency-domain model says droop depth at resonance is about
        // |Z(f0)| * I_ac (fundamental). Compare within a factor accounting
        // for square-wave harmonics (4/pi on the fundamental).
        let params = PdnParams::default();
        let pdn = Pdn::new(params);
        let i_ac = 1.0; // square wave between 1 A and 3 A => amplitude 1 A
        let fundamental = 4.0 / std::f64::consts::PI * i_ac;
        let predicted_mv = pdn.ac_droop_mv(fundamental, params.resonance_hz) + pdn.ir_drop_mv(2.0);
        let mut sim = TransientSim::new(values(), 0.8, 1.0);
        let worst = sim.worst_droop_under_square_wave(1.0, 3.0, params.resonance_hz, 80);
        let measured_mv = (0.8 - worst) * 1000.0;
        let ratio = measured_mv / predicted_mv;
        assert!(
            (0.5..2.0).contains(&ratio),
            "time vs frequency domain: measured {measured_mv:.2} mV vs predicted {predicted_mv:.2} mV"
        );
    }
}

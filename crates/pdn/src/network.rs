//! The passive power-delivery network.

/// Electrical parameters of one domain's delivery network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdnParams {
    /// Residual static (DC) resistance from regulator to array, in
    /// milliohms. Small because the regulator's remote sensing compensates
    /// most of the DC path drop (voltage positioning); what remains is the
    /// on-die grid below the sense point.
    pub r_static_mohm: f64,
    /// Resonance frequency of the package/die network, in hertz.
    ///
    /// The default places the resonance where a 340 MHz FMA/NOP virus with
    /// 8 NOPs oscillates: one loop iteration is ~13 high-power cycles plus
    /// the NOPs, so `f_osc = 340 MHz / (13 + 8) ≈ 16.2 MHz` — reproducing
    /// the error-count spike of the paper's Figure 15 at NOP-8.
    pub resonance_hz: f64,
    /// Quality factor of the resonance (sharpness of the peak).
    pub q_factor: f64,
    /// Peak AC impedance at resonance, in milliohms.
    pub z_peak_mohm: f64,
    /// Impedance presented to a sudden (step) load change, in milliohms —
    /// the "first droop" seen on abrupt activity transitions.
    pub z_transient_mohm: f64,
}

impl Default for PdnParams {
    fn default() -> PdnParams {
        PdnParams {
            r_static_mohm: 0.4,
            resonance_hz: 340.0e6 / 21.0,
            q_factor: 5.0,
            z_peak_mohm: 14.0,
            z_transient_mohm: 3.0,
        }
    }
}

/// The passive network: converts load currents into voltage drops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pdn {
    params: PdnParams,
}

impl Default for Pdn {
    fn default() -> Pdn {
        Pdn::new(PdnParams::default())
    }
}

impl Pdn {
    /// Creates a network from parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(params: PdnParams) -> Pdn {
        assert!(
            params.r_static_mohm > 0.0,
            "static resistance must be positive"
        );
        assert!(params.resonance_hz > 0.0, "resonance must be positive");
        assert!(params.q_factor > 0.0, "Q must be positive");
        assert!(params.z_peak_mohm > 0.0, "peak impedance must be positive");
        assert!(
            params.z_transient_mohm > 0.0,
            "transient impedance must be positive"
        );
        Pdn { params }
    }

    /// The parameters.
    #[cfg(test)]
    pub(crate) fn params(&self) -> &PdnParams {
        &self.params
    }

    /// Static IR drop for a DC load current, in millivolts.
    pub(crate) fn ir_drop_mv(&self, i_dc_amps: f64) -> f64 {
        self.params.r_static_mohm * i_dc_amps.max(0.0)
    }

    /// Magnitude of the resonant AC impedance at frequency `f_hz`, in
    /// milliohms. This is the classic second-order band-pass response:
    /// near zero at DC, peaking at the resonance, rolling off above it.
    pub(crate) fn ac_impedance_mohm(&self, f_hz: f64) -> f64 {
        if f_hz <= 0.0 {
            return 0.0;
        }
        let p = &self.params;
        let detune = f_hz / p.resonance_hz - p.resonance_hz / f_hz;
        p.z_peak_mohm / (1.0 + (p.q_factor * detune).powi(2)).sqrt()
    }

    /// Depth of the AC droop (peak deviation below the DC level) for a load
    /// oscillating with amplitude `i_ac_amps` at `f_hz`, in millivolts.
    pub(crate) fn ac_droop_mv(&self, i_ac_amps: f64, f_hz: f64) -> f64 {
        self.ac_impedance_mohm(f_hz) * i_ac_amps.max(0.0)
    }

    /// First-droop depth for a sudden load step of `delta_i_amps`, in
    /// millivolts.
    pub(crate) fn transient_droop_mv(&self, delta_i_amps: f64) -> f64 {
        self.params.z_transient_mohm * delta_i_amps.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ir_drop_linear_in_current() {
        let pdn = Pdn::default();
        assert_eq!(pdn.ir_drop_mv(0.0), 0.0);
        let d4 = pdn.ir_drop_mv(4.0);
        let d8 = pdn.ir_drop_mv(8.0);
        assert!((d8 - 2.0 * d4).abs() < 1e-12);
        assert_eq!(pdn.ir_drop_mv(-3.0), 0.0, "negative current clamps");
    }

    #[test]
    fn impedance_peaks_at_resonance() {
        let pdn = Pdn::default();
        let f0 = pdn.params().resonance_hz;
        let at_res = pdn.ac_impedance_mohm(f0);
        assert!((at_res - pdn.params().z_peak_mohm).abs() < 1e-9);
        for f in [f0 / 10.0, f0 / 2.0, f0 * 2.0, f0 * 10.0] {
            assert!(
                pdn.ac_impedance_mohm(f) < at_res,
                "off-resonance impedance must be below the peak"
            );
        }
    }

    #[test]
    fn impedance_vanishes_at_dc() {
        let pdn = Pdn::default();
        assert_eq!(pdn.ac_impedance_mohm(0.0), 0.0);
        assert!(pdn.ac_impedance_mohm(10.0) < 0.1);
    }

    #[test]
    fn sharper_q_narrows_the_peak() {
        let mut p = PdnParams::default();
        let broad = Pdn::new(PdnParams { q_factor: 2.0, ..p });
        p.q_factor = 20.0;
        let sharp = Pdn::new(p);
        let f_off = p.resonance_hz * 1.3;
        assert!(sharp.ac_impedance_mohm(f_off) < broad.ac_impedance_mohm(f_off));
    }

    #[test]
    fn droops_scale_with_current() {
        let pdn = Pdn::default();
        let f0 = pdn.params().resonance_hz;
        assert!(pdn.ac_droop_mv(2.0, f0) > pdn.ac_droop_mv(1.0, f0));
        assert!(pdn.transient_droop_mv(3.0) > pdn.transient_droop_mv(1.0));
        assert_eq!(pdn.ac_droop_mv(-1.0, f0), 0.0);
        assert_eq!(pdn.transient_droop_mv(-1.0), 0.0);
    }

    #[test]
    fn resonant_droop_beats_stronger_dc_load() {
        // The paper's key observation (Fig. 15/16): a *weaker* virus
        // oscillating at resonance droops more than a stronger one at a
        // different frequency.
        let pdn = Pdn::default();
        let at_resonance = pdn.ac_droop_mv(2.0, pdn.params().resonance_hz);
        let stronger_off = pdn.ac_droop_mv(4.0, pdn.params().resonance_hz * 4.0);
        assert!(at_resonance > stronger_off);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_params_rejected() {
        Pdn::new(PdnParams {
            r_static_mohm: 0.0,
            ..PdnParams::default()
        });
    }
}

//! The per-core power model.

use vs_types::{Millivolts, VddMode, Watts};

/// Calibration constants for the power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Effective switched capacitance per core at full activity, in farads.
    /// Calibrated so a fully active core at 1.1 V / 2.53 GHz dissipates
    /// ~14 W dynamic.
    pub c_eff_farads: f64,
    /// Leakage of one core at the low-voltage anchor (800 mV), in watts.
    pub leak_low_anchor_w: f64,
    /// Exponential leakage slope at the low-voltage point: one e-fold per
    /// this many millivolts (near-threshold DIBL sensitivity).
    pub leak_slope_low_mv: f64,
    /// Leakage of one core at the nominal anchor (1.1 V), in watts.
    pub leak_nominal_anchor_w: f64,
    /// Exponential leakage slope at the nominal point (gentler:
    /// super-threshold operation).
    pub leak_slope_nominal_mv: f64,
    /// Uncore (L3, memory controllers, interconnect) power at the
    /// low-voltage point, in watts. The uncore rails are not speculated.
    pub uncore_low_w: f64,
    /// Uncore power at the nominal point, in watts.
    pub uncore_nominal_w: f64,
    /// Floor on activity: clock distribution and idle logic keep switching
    /// even in a spin-loop.
    pub idle_activity: f64,
}

impl Default for PowerParams {
    fn default() -> PowerParams {
        PowerParams {
            // 14 W = c_eff * (1.1)^2 * 2.53e9  =>  c_eff = 4.573e-9
            c_eff_farads: 4.573e-9,
            leak_low_anchor_w: 0.5,
            leak_slope_low_mv: 60.0,
            leak_nominal_anchor_w: 3.5,
            leak_slope_nominal_mv: 150.0,
            uncore_low_w: 1.6,
            uncore_nominal_w: 28.0,
            idle_activity: 0.12,
        }
    }
}

/// Converts operating conditions into power and current.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerModel {
    params: PowerParams,
}

impl PowerModel {
    /// Creates a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive (except `idle_activity`,
    /// which may be zero).
    pub fn new(params: PowerParams) -> PowerModel {
        assert!(params.c_eff_farads > 0.0, "capacitance must be positive");
        assert!(
            params.leak_low_anchor_w > 0.0,
            "leakage anchors must be positive"
        );
        assert!(
            params.leak_nominal_anchor_w > 0.0,
            "leakage anchors must be positive"
        );
        assert!(
            params.leak_slope_low_mv > 0.0,
            "leakage slopes must be positive"
        );
        assert!(
            params.leak_slope_nominal_mv > 0.0,
            "leakage slopes must be positive"
        );
        assert!(
            params.idle_activity >= 0.0,
            "idle activity cannot be negative"
        );
        PowerModel { params }
    }

    /// Dynamic power of one core: `c_eff · V² · f · activity`.
    ///
    /// `activity` is clamped below by the idle floor; power-virus kernels
    /// may exceed 1.0.
    pub fn core_dynamic(&self, vdd: Millivolts, mode: VddMode, activity: f64) -> Watts {
        let v = vdd.as_volts();
        let a = activity.max(self.params.idle_activity);
        Watts(self.params.c_eff_farads * v * v * mode.frequency().0 * a)
    }

    /// Leakage power of one core at `vdd`, anchored per operating point.
    pub(crate) fn core_leakage(&self, vdd: Millivolts, mode: VddMode) -> Watts {
        let (anchor_w, anchor_mv, slope_mv) = match mode {
            VddMode::LowVoltage => (
                self.params.leak_low_anchor_w,
                800.0,
                self.params.leak_slope_low_mv,
            ),
            VddMode::Nominal => (
                self.params.leak_nominal_anchor_w,
                1100.0,
                self.params.leak_slope_nominal_mv,
            ),
        };
        let v_mv = f64::from(vdd.0);
        // Linear-times-exponential: I_leak roughly constant-field scaled by
        // V, with the exponential carrying the sub/near-threshold slope.
        Watts(anchor_w * (v_mv / anchor_mv) * ((v_mv - anchor_mv) / slope_mv).exp())
    }

    /// Total power of one core.
    pub fn core_power(&self, vdd: Millivolts, mode: VddMode, activity: f64) -> Watts {
        self.core_dynamic(vdd, mode, activity) + self.core_leakage(vdd, mode)
    }

    /// Uncore power at an operating point (constant: the uncore rails are
    /// not speculated).
    pub fn uncore_power(&self, mode: VddMode) -> Watts {
        match mode {
            VddMode::LowVoltage => Watts(self.params.uncore_low_w),
            VddMode::Nominal => Watts(self.params.uncore_nominal_w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdp_anchor_at_nominal() {
        let m = PowerModel::default();
        let socket = m.core_power(Millivolts(1100), VddMode::Nominal, 1.0) * 8.0
            + m.uncore_power(VddMode::Nominal);
        assert!(
            (150.0..185.0).contains(&socket.0),
            "8-core socket at nominal full load should be near the 170 W TDP, got {socket}"
        );
    }

    #[test]
    fn low_voltage_point_anchors() {
        let m = PowerModel::default();
        let dyn_w = m.core_dynamic(Millivolts(800), VddMode::LowVoltage, 1.0);
        assert!((0.9..1.1).contains(&dyn_w.0), "dynamic ~1 W, got {dyn_w}");
        let leak = m.core_leakage(Millivolts(800), VddMode::LowVoltage);
        assert!((leak.0 - 0.5).abs() < 1e-9, "leakage anchor, got {leak}");
    }

    #[test]
    fn eight_percent_vdd_cut_saves_about_a_third() {
        // The paper's headline: 8% average Vdd reduction => ~33% power cut.
        let m = PowerModel::default();
        let base = m.core_power(Millivolts(800), VddMode::LowVoltage, 1.0);
        let spec = m.core_power(Millivolts(736), VddMode::LowVoltage, 1.0);
        let savings = 1.0 - spec / base;
        assert!(
            (0.30..0.36).contains(&savings),
            "expected ~33% savings, got {:.1}%",
            savings * 100.0
        );
    }

    #[test]
    fn dynamic_power_quadratic_in_v() {
        let m = PowerModel::default();
        let p1 = m.core_dynamic(Millivolts(600), VddMode::LowVoltage, 1.0);
        let p2 = m.core_dynamic(Millivolts(1200), VddMode::LowVoltage, 1.0);
        assert!((p2.0 / p1.0 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_monotone_and_steeper_at_low_point() {
        let m = PowerModel::default();
        let mut prev = 0.0;
        for mv in (600..=900).step_by(20) {
            let leak = m.core_leakage(Millivolts(mv), VddMode::LowVoltage).0;
            assert!(leak > prev);
            prev = leak;
        }
        // Relative sensitivity per 50 mV is larger at the low point.
        let low_ratio = m.core_leakage(Millivolts(800), VddMode::LowVoltage)
            / m.core_leakage(Millivolts(750), VddMode::LowVoltage);
        let nom_ratio = m.core_leakage(Millivolts(1100), VddMode::Nominal)
            / m.core_leakage(Millivolts(1050), VddMode::Nominal);
        assert!(low_ratio > nom_ratio);
    }

    #[test]
    fn idle_floor_applies() {
        let m = PowerModel::default();
        let idle = m.core_dynamic(Millivolts(800), VddMode::LowVoltage, 0.0);
        let explicit = m.core_dynamic(Millivolts(800), VddMode::LowVoltage, 0.12);
        assert_eq!(idle, explicit);
    }

    #[test]
    fn virus_activity_above_one_allowed() {
        let m = PowerModel::default();
        let virus = m.core_dynamic(Millivolts(800), VddMode::LowVoltage, 1.4);
        let normal = m.core_dynamic(Millivolts(800), VddMode::LowVoltage, 1.0);
        assert!(virus > normal);
    }
}

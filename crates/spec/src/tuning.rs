//! Per-domain floor/ceiling tailoring (the paper's §V-C future work).
//!
//! The paper uses one fixed error-rate band (1 %–5 %) for every domain and
//! notes that Figure 13 leaves "some potential for tailoring the values of
//! the floor or ceiling" — different lines ramp with very different
//! steepness, so a fixed rate band translates into different *voltage*
//! margins above each line's critical voltage.
//!
//! This module implements that tailoring. During calibration the
//! designated line's error-probability ramp is measured directly (the same
//! probe mechanism the monitor uses); the measured logistic slope then
//! converts a desired voltage margin into per-domain floor/ceiling rates:
//!
//! ```text
//! rate(V) = logistic((Vc − V)/s)   ⇒   V(rate) = Vc − s·ln(rate/(1−rate))
//! ```
//!
//! Under the fixed 1 % floor, a *shallow* line (large `s`) parks far above
//! its Vc (the 1 % point sits at `Vc + 4.6·s`), wasting margin; a steep
//! line parks close. Tailoring assigns each domain the floor/ceiling rates
//! that correspond to one common *voltage* margin: shallow lines get a
//! higher floor rate (so they come down), steep lines a lower one — equal
//! physical distance to trouble everywhere, and several millivolts
//! recovered on the shallow domains.

use crate::calibrate::CalibrationOutcome;
use crate::controller::ControllerConfig;
use vs_platform::Chip;
use vs_types::Millivolts;

/// The measured response of one designated line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineResponse {
    /// Estimated critical voltage (the 50 %-error point), in millivolts.
    pub vc_mv: f64,
    /// Estimated logistic slope, in millivolts.
    pub slope_mv: f64,
}

impl LineResponse {
    /// The error rate this line produces at `v_mv`.
    pub(crate) fn rate_at(&self, v_mv: f64) -> f64 {
        vs_types::stats::logistic((self.vc_mv - v_mv) / self.slope_mv)
    }

    /// The voltage at which this line errs at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly inside `(0, 1)`.
    #[cfg(test)]
    pub(crate) fn voltage_at(&self, rate: f64) -> f64 {
        assert!(
            rate > 0.0 && rate < 1.0,
            "rate must be in (0,1), got {rate}"
        );
        self.vc_mv - self.slope_mv * (rate / (1.0 - rate)).ln()
    }
}

/// Measures a designated line's response by probing it at a ladder of
/// voltages around its calibrated onset.
///
/// Returns the fitted [`LineResponse`]. The chip is reset afterwards.
pub fn measure_line_response(
    chip: &mut Chip,
    outcome: &CalibrationOutcome,
    accesses_per_point: u64,
) -> LineResponse {
    chip.reset();
    chip.designate_monitor_line(outcome.core, outcome.kind, outcome.line);
    let domain = outcome.domain;

    // Probe on a 2 mV ladder from +20 mV above the onset downwards until
    // the rate saturates; collect (voltage, rate) samples in the ramp.
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut v = outcome.onset_vdd + Millivolts(20);
    loop {
        chip.request_domain_voltage(domain, v);
        chip.tick();
        let probe =
            chip.monitor_probe(outcome.core, outcome.kind, outcome.line, accesses_per_point);
        let rate = probe.error_rate();
        if rate > 0.002 && rate < 0.998 {
            // Keep only informative mid-ramp points.
            samples.push((chip.domain_v_eff_mv(domain), rate));
        }
        if rate >= 0.998 || v.0 <= chip.config().regulator_range().0 .0 {
            break;
        }
        v -= Millivolts(2);
    }
    chip.reset();

    fit_logistic(&samples)
}

/// Fits a logistic response to `(voltage, rate)` samples by linear
/// regression on the logit: `ln(p/(1−p)) = (Vc − V)/s`.
///
/// Falls back to a nominal 3.2 mV slope at the highest sampled voltage if
/// fewer than two informative samples exist.
pub(crate) fn fit_logistic(samples: &[(f64, f64)]) -> LineResponse {
    if samples.len() < 2 {
        let vc = samples.first().map_or(700.0, |(v, _)| *v);
        return LineResponse {
            vc_mv: vc,
            slope_mv: 3.2,
        };
    }
    // Regress y = logit(p) on x = V:  y = (Vc - V)/s  =  Vc/s - V/s.
    let n = samples.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(v, p) in samples {
        let y = (p / (1.0 - p)).ln();
        sx += v;
        sy += y;
        sxx += v * v;
        sxy += v * y;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-9 {
        return LineResponse {
            vc_mv: samples[0].0,
            slope_mv: 3.2,
        };
    }
    let b = (n * sxy - sx * sy) / denom; // = -1/s
    let a = (sy - b * sx) / n; // = Vc/s
    let slope_mv = (-1.0 / b).clamp(0.5, 30.0);
    let vc_mv = a * slope_mv;
    LineResponse { vc_mv, slope_mv }
}

/// Tailors one domain's controller band so the *floor* rate corresponds to
/// operating `margin_mv` above the line's critical voltage, and the
/// ceiling keeps the paper's 5× floor-to-ceiling shape.
///
/// Rates are clamped into sane bounds so shallow lines degrade gracefully
/// toward the default band.
pub fn tailor_band(
    base: &ControllerConfig,
    response: &LineResponse,
    margin_mv: f64,
) -> ControllerConfig {
    let floor = response
        .rate_at(response.vc_mv + margin_mv)
        .clamp(0.002, 0.20);
    let ceiling = (floor * 5.0).clamp(floor + 0.005, 0.60);
    ControllerConfig {
        floor,
        ceiling,
        ..*base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{calibrate_domain, CalibrationPlan};
    use vs_platform::ChipConfig;
    use vs_types::DomainId;

    fn small_chip(seed: u64) -> Chip {
        Chip::new(ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        })
    }

    #[test]
    fn logistic_fit_recovers_known_parameters() {
        let truth = LineResponse {
            vc_mv: 712.0,
            slope_mv: 4.0,
        };
        let samples: Vec<(f64, f64)> = (0..16)
            .map(|i| {
                let v = 700.0 + f64::from(i) * 1.5;
                (v, truth.rate_at(v))
            })
            .filter(|(_, p)| *p > 0.002 && *p < 0.998)
            .collect();
        let fit = fit_logistic(&samples);
        assert!((fit.vc_mv - truth.vc_mv).abs() < 0.5, "vc {}", fit.vc_mv);
        assert!(
            (fit.slope_mv - truth.slope_mv).abs() < 0.3,
            "s {}",
            fit.slope_mv
        );
    }

    #[test]
    fn fit_degrades_gracefully_on_sparse_data() {
        let fit = fit_logistic(&[]);
        assert!(fit.slope_mv > 0.0);
        let fit = fit_logistic(&[(700.0, 0.5)]);
        assert_eq!(fit.vc_mv, 700.0);
    }

    #[test]
    fn response_roundtrip() {
        let r = LineResponse {
            vc_mv: 720.0,
            slope_mv: 3.0,
        };
        for rate in [0.01, 0.05, 0.5, 0.9] {
            let v = r.voltage_at(rate);
            assert!((r.rate_at(v) - rate).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be in (0,1)")]
    fn voltage_at_rejects_bad_rate() {
        LineResponse {
            vc_mv: 700.0,
            slope_mv: 3.0,
        }
        .voltage_at(1.0);
    }

    #[test]
    fn measured_response_matches_silicon() {
        let mut chip = small_chip(31);
        let outcome = calibrate_domain(&mut chip, DomainId(0), &CalibrationPlan::fast());
        let response = measure_line_response(&mut chip, &outcome, 6000);
        let truth = chip.cell_bank(outcome.core, outcome.kind).lines()[0];
        assert!(
            (response.vc_mv - truth.weakest_vc_mv).abs() < 4.0,
            "measured Vc {} vs true {}",
            response.vc_mv,
            truth.weakest_vc_mv
        );
        assert!(
            (response.slope_mv - truth.read_noise_mv).abs() < 1.5,
            "measured slope {} vs true {}",
            response.slope_mv,
            truth.read_noise_mv
        );
    }

    #[test]
    fn shallow_lines_get_higher_floor_rates() {
        // At a fixed voltage margin, a shallow line errs more often, so its
        // tailored floor rate must be higher (bringing it down to the same
        // physical distance from trouble as a steep line).
        let base = ControllerConfig::default();
        let steep = tailor_band(
            &base,
            &LineResponse {
                vc_mv: 710.0,
                slope_mv: 1.8,
            },
            12.0,
        );
        let shallow = tailor_band(
            &base,
            &LineResponse {
                vc_mv: 710.0,
                slope_mv: 7.0,
            },
            12.0,
        );
        assert!(
            shallow.floor > steep.floor,
            "shallow {} vs steep {}",
            shallow.floor,
            steep.floor
        );
        assert_eq!(steep.validate(), Ok(()));
        assert_eq!(shallow.validate(), Ok(()));
    }

    #[test]
    fn tailored_band_holds_the_requested_margin() {
        // With the tailored floor, the controller's park point sits at
        // (approximately) vc + margin regardless of slope.
        for slope in [2.0, 4.0, 8.0] {
            let r = LineResponse {
                vc_mv: 715.0,
                slope_mv: slope,
            };
            let cfg = tailor_band(&ControllerConfig::default(), &r, 14.0);
            let park = r.voltage_at(cfg.floor);
            assert!(
                (park - (715.0 + 14.0)).abs() < 8.0,
                "slope {slope}: park {park}"
            );
        }
    }
}

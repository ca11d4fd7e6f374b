//! Extension experiments beyond the paper's figures:
//!
//! * a three-way comparison of voltage-guidance mechanisms (ECC-monitor
//!   hardware, workload-driven software, and a Lefurgy-style CPM baseline
//!   from §VI);
//! * the §V-C future-work floor/ceiling tailoring, evaluated against the
//!   fixed band.

use crate::calibrate::CalibrationPlan;
use crate::software::SoftwareConfig;
use crate::system::{RunStats, SpeculationSystem};
use crate::testbed::Testbed;
use crate::tuning::{measure_line_response, tailor_band};
use crate::ControllerConfig;
use vs_platform::{Chip, ChipConfig};
use vs_types::SimTime;
use vs_workload::Suite;

/// Results of one guidance mechanism on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismResult {
    /// Label ("ecc-hw", "software", "cpm", "static").
    pub mechanism: String,
    /// Mean set point per domain over the run, in millivolts.
    pub mean_vdd_mv: Vec<f64>,
    /// Core-rail energy over the run, in joules.
    pub energy_j: f64,
    /// Whether the run stayed safe.
    pub safe: bool,
}

impl MechanismResult {
    /// Mean set point across domains.
    pub fn average_vdd(&self) -> f64 {
        self.mean_vdd_mv.iter().sum::<f64>() / self.mean_vdd_mv.len() as f64
    }
}

fn chip_config(seed: u64) -> ChipConfig {
    ChipConfig::low_voltage(seed)
}

/// Runs all four mechanisms (static nominal, CPM, software, ECC hardware)
/// on the same die and workload; returns the results, static first.
pub fn mechanism_comparison(
    seed: u64,
    suite: Suite,
    per_benchmark: SimTime,
    duration: SimTime,
) -> Vec<MechanismResult> {
    let bed = Testbed::suite(seed, suite, per_benchmark, duration);
    let result = |mechanism: &str, stats: &RunStats, energy_j: f64| MechanismResult {
        mechanism: mechanism.into(),
        mean_vdd_mv: stats.mean_vdd_mv.clone(),
        energy_j,
        safe: stats.is_safe(),
    };
    let (nominal, cpm, hw) = (bed.nominal(), bed.cpm(), bed.hardware());
    let sw = bed.firmware(SoftwareConfig::default());
    vec![
        result("static", &nominal, nominal.core_rail_energy_j),
        result("cpm", &cpm, cpm.core_rail_energy_j),
        // The software baseline pays its firmware stall in energy.
        result("software", &sw.stats, sw.rail_energy_j()),
        result("ecc-hw", &hw, hw.core_rail_energy_j),
    ]
}

/// One domain's fixed-band vs tailored-band comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TailoringResult {
    /// The domain.
    pub domain: usize,
    /// Measured line slope, in millivolts.
    pub slope_mv: f64,
    /// Tailored floor/ceiling rates.
    pub tailored_band: (f64, f64),
    /// Mean set point with the fixed 1-5 % band.
    pub fixed_vdd_mv: f64,
    /// Mean set point with the tailored band.
    pub tailored_vdd_mv: f64,
    /// Both runs stayed safe.
    pub safe: bool,
}

/// Evaluates floor/ceiling tailoring (§V-C future work): measures each
/// designated line's ramp, tailors the band to a uniform voltage margin,
/// and compares steady-state voltages against the fixed band.
pub fn tailoring_comparison(seed: u64, margin_mv: f64, duration: SimTime) -> Vec<TailoringResult> {
    // Fixed-band run.
    let mut fixed = SpeculationSystem::builder(chip_config(seed))
        .build()
        .expect("reference config is valid");
    fixed.calibrate_with(&CalibrationPlan::fast());
    let outcomes = fixed.calibration().to_vec();
    let fixed_stats = fixed.run(duration);

    // Measure responses on a scratch chip of the same die.
    let mut scratch = Chip::new(chip_config(seed));
    let responses: Vec<_> = outcomes
        .iter()
        .map(|o| measure_line_response(&mut scratch, o, 5000))
        .collect();

    // Tailored run: per-domain bands.
    let mut tailored = SpeculationSystem::builder(chip_config(seed))
        .build()
        .expect("reference config is valid");
    tailored.calibrate_with(&CalibrationPlan::fast());
    let bands: Vec<ControllerConfig> = responses
        .iter()
        .map(|r| tailor_band(&ControllerConfig::default(), r, margin_mv))
        .collect();
    for (d, band) in bands.iter().enumerate() {
        tailored.controllers_mut()[d].set_config(*band);
    }
    let tailored_stats = tailored.run(duration);

    (0..outcomes.len())
        .map(|d| TailoringResult {
            domain: d,
            slope_mv: responses[d].slope_mv,
            tailored_band: (bands[d].floor, bands[d].ceiling),
            fixed_vdd_mv: fixed_stats.mean_vdd_mv[d],
            tailored_vdd_mv: tailored_stats.mean_vdd_mv[d],
            safe: fixed_stats.is_safe() && tailored_stats.is_safe(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::power::{hw_vs_sw_energy, SuiteRunOptions};

    #[test]
    fn figure_17_and_the_mechanism_table_share_one_reference() {
        let opts = SuiteRunOptions::fast();
        let fig17 = hw_vs_sw_energy(5, Suite::CoreMark, &opts);
        let table = mechanism_comparison(5, Suite::CoreMark, opts.per_benchmark, opts.duration);
        let energy = |m: &str| table.iter().find(|r| r.mechanism == m).unwrap().energy_j;
        assert_eq!(fig17.hardware_relative, energy("ecc-hw") / energy("static"));
        assert_eq!(
            fig17.software_relative,
            energy("software") / energy("static")
        );
    }

    #[test]
    fn mechanisms_rank_as_expected() {
        let results = mechanism_comparison(
            2014,
            Suite::CoreMark,
            SimTime::from_secs(3),
            SimTime::from_secs(12),
        );
        assert_eq!(results.len(), 4);
        let by = |m: &str| results.iter().find(|r| r.mechanism == m).unwrap();
        for r in &results {
            assert!(r.safe, "{} crashed", r.mechanism);
        }
        let staticv = by("static").average_vdd();
        let cpm = by("cpm").average_vdd();
        let sw = by("software").average_vdd();
        let hw = by("ecc-hw").average_vdd();
        assert!(cpm < staticv, "cpm {cpm} vs static {staticv}");
        assert!(hw < cpm, "ecc-hw {hw} vs cpm {cpm}");
        assert!(hw < sw, "ecc-hw {hw} vs software {sw}");
        // And the energy ordering puts the paper's system first.
        assert!(by("ecc-hw").energy_j < by("cpm").energy_j);
        assert!(by("ecc-hw").energy_j < by("software").energy_j);
        assert!(by("ecc-hw").energy_j < by("static").energy_j);
    }

    #[test]
    fn tailoring_stays_safe_and_tracks_the_margin() {
        let results = tailoring_comparison(2014, 14.0, SimTime::from_secs(12));
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.safe, "domain {} unsafe", r.domain);
            assert!(r.tailored_band.0 < r.tailored_band.1);
            // Tailored voltages stay in a plausible window around fixed.
            assert!(
                (r.tailored_vdd_mv - r.fixed_vdd_mv).abs() < 40.0,
                "domain {}: tailored {} vs fixed {}",
                r.domain,
                r.tailored_vdd_mv,
                r.fixed_vdd_mv
            );
        }
        // On at least one shallow domain, tailoring recovers voltage.
        // (Steep domains may give a little back; the *sum* should not be
        // worse than the fixed band by more than noise.)
        let total_fixed: f64 = results.iter().map(|r| r.fixed_vdd_mv).sum();
        let total_tailored: f64 = results.iter().map(|r| r.tailored_vdd_mv).sum();
        assert!(
            total_tailored < total_fixed + 10.0,
            "tailoring should not lose voltage overall: {total_tailored} vs {total_fixed}"
        );
    }
}

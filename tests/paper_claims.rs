//! The paper's headline claims, asserted at reduced scale on the reference
//! die. The committed full-scale numbers live in EXPERIMENTS.md; these
//! tests pin the *shape* of every claim so regressions are caught in CI.

use voltspec::platform::characterize::{all_core_margins, CharacterizeOptions};
use voltspec::platform::{Chip, ChipConfig};
use voltspec::spec::experiments::misc::retention_experiment;
use voltspec::spec::experiments::noise::nop_sweep;
use voltspec::spec::experiments::power::{hw_vs_sw_energy, suite_power, SuiteRunOptions};
use voltspec::types::{CoreId, SimTime, VddMode};
use voltspec::workload::Suite;

const SEED: u64 = 2014;

fn chip(mode: VddMode) -> Chip {
    let mut config = match mode {
        VddMode::LowVoltage => ChipConfig::low_voltage(SEED),
        VddMode::Nominal => ChipConfig::nominal(SEED),
    };
    config.tick = SimTime::from_millis(10);
    Chip::new(config)
}

/// §II-A: minimum safe voltage is >10% below nominal at high frequency and
/// ~23% below at the low-voltage point, with much larger core-to-core
/// spread at low voltage.
#[test]
fn claim_voltage_margins() {
    // Finer steps and longer windows than the other quick tests: the
    // core-to-core *spread* comparison is sensitive to detection noise on
    // the (rare) uncorrectable events that bound the nominal-mode floor.
    let opts = CharacterizeOptions {
        window: SimTime::from_secs(8),
        step: voltspec::types::Millivolts(5),
    };
    let mut high = chip(VddMode::Nominal);
    let high_margins = all_core_margins(&mut high, &opts);
    let mut low = chip(VddMode::LowVoltage);
    let low_margins = all_core_margins(&mut low, &opts);

    let mean = |ms: &[voltspec::platform::characterize::CoreMargins], nominal: f64| -> f64 {
        ms.iter()
            .map(|m| 1.0 - f64::from(m.min_safe_vdd.0) / nominal)
            .sum::<f64>()
            / ms.len() as f64
    };
    let high_reduction = mean(&high_margins, 1100.0);
    let low_reduction = mean(&low_margins, 800.0);
    assert!(
        high_reduction > 0.07,
        "high-frequency min safe should be ~10% below nominal, got {high_reduction:.3}"
    );
    assert!(
        low_reduction > 0.17,
        "low-voltage min safe should be ~23% below nominal, got {low_reduction:.3}"
    );

    let spread = |ms: &[voltspec::platform::characterize::CoreMargins]| -> i32 {
        ms.iter().map(|m| m.min_safe_vdd.0).max().unwrap()
            - ms.iter().map(|m| m.min_safe_vdd.0).min().unwrap()
    };
    assert!(
        spread(&low_margins) > 2 * spread(&high_margins),
        "core-to-core variation must be several times larger at low voltage: {} vs {}",
        spread(&low_margins),
        spread(&high_margins)
    );
}

/// §II-B: the correctable-error band is ~4x wider at the low-voltage point.
#[test]
fn claim_wider_error_band_at_low_voltage() {
    let opts = CharacterizeOptions::fast();
    let band = |mode: VddMode| -> f64 {
        let mut c = chip(mode);
        let ms = all_core_margins(&mut c, &opts);
        ms.iter().map(|m| f64::from(m.error_band().0)).sum::<f64>() / ms.len() as f64
    };
    let high = band(VddMode::Nominal);
    let low = band(VddMode::LowVoltage);
    assert!(
        low > 2.5 * high,
        "band ratio should be ~4x (paper), got {low:.0} vs {high:.0}"
    );
}

/// §V-A: ~8% average Vdd reduction (3-23% per core) and ~33% average
/// power reduction.
#[test]
fn claim_headline_power_savings() {
    let r = suite_power(SEED, Suite::CoreMark, &SuiteRunOptions::fast());
    assert!(r.safe);
    let nominal = 800.0;
    let avg_reduction =
        1.0 - r.per_core_vdd_mv.iter().sum::<f64>() / (r.per_core_vdd_mv.len() as f64 * nominal);
    assert!(
        (0.04..0.15).contains(&avg_reduction),
        "paper: ~8% Vdd reduction, got {:.1}%",
        avg_reduction * 100.0
    );
    assert!(
        (0.20..0.45).contains(&(1.0 - r.relative_power)),
        "paper: ~33% power savings, got {:.1}%",
        (1.0 - r.relative_power) * 100.0
    );
    for (core, vdd) in r.per_core_vdd_mv.iter().enumerate() {
        let reduction = 1.0 - vdd / nominal;
        assert!(
            (0.03..=0.23).contains(&reduction),
            "paper: 3-23% per-core Vdd reduction, core {core} got {:.1}%",
            reduction * 100.0
        );
    }
}

/// Figure 17: hardware speculation saves ~11 points more energy than the
/// software (firmware-handled) variant on the same silicon and workload.
#[test]
fn claim_hardware_beats_software_energy() {
    let e = hw_vs_sw_energy(SEED, Suite::CoreMark, &SuiteRunOptions::fast());
    let gap = (e.software_relative - e.hardware_relative) * 100.0;
    assert!(
        (8.0..=16.0).contains(&gap),
        "paper: ~11 points hardware-over-software energy gap, got {gap:.2} points \
         (hardware {:.3}, software {:.3})",
        e.hardware_relative,
        e.software_relative
    );
}

/// §V-D2: a low-power virus at the resonant NOP count produces more errors
/// than a higher-power off-resonance one.
#[test]
fn claim_resonance_detection() {
    let points = nop_sweep(SEED, CoreId(0), &[0, 8, 20], 80_000);
    let err = |n: u32| points.iter().find(|p| p.nop_count == n).unwrap().errors;
    assert!(err(8) > err(0), "NOP-8 {} vs NOP-0 {}", err(8), err(0));
    assert!(err(8) > err(20), "NOP-8 {} vs NOP-20 {}", err(8), err(20));
}

/// §V-E: the errors are access-time, not retention.
#[test]
fn claim_no_retention_errors() {
    let r = retention_experiment(SEED, CoreId(0), 60);
    assert!(
        r.errors_at_dwell > 0,
        "control must err at the dwell voltage"
    );
    assert_eq!(r.errors_after_restore, 0, "no retention failures");
}

/// §II-C: at the low-voltage point only the L2 caches err.
#[test]
fn claim_only_l2_errors_at_low_voltage() {
    let opts = CharacterizeOptions::fast();
    let mut c = chip(VddMode::LowVoltage);
    let margins = all_core_margins(&mut c, &opts);
    // Run each core briefly at its min safe voltage and inspect the
    // lines that erred.
    let _ =
        voltspec::platform::characterize::error_breakdown(&mut c, &margins, SimTime::from_secs(5));
    assert!(c.ecc_counts().correctable() > 0);
    for line in c.ecc_counts().erring_lines() {
        assert!(
            line.cache.is_l2(),
            "only L2 errors expected at low voltage, saw {}",
            line.cache
        );
    }
}

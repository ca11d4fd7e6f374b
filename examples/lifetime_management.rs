//! Lifetime management: aging, recalibration, and band tailoring.
//!
//! Silicon ages: cell critical voltages drift upward over years of
//! operation, and they drift *unevenly*, so the line that was weakest at
//! birth may not be weakest at mid-life. This example walks one die
//! through a simulated service life, recalibrating at each checkpoint
//! (§III-D) and tailoring the controller band to each designated line's
//! measured ramp (§V-C future work).
//!
//! ```text
//! cargo run --release --example lifetime_management
//! ```

use voltspec::platform::ChipConfig;
use voltspec::spec::recalibrate;
use voltspec::spec::{measure_line_response, tailor_band, ControllerConfig, SpeculationSystem};
use voltspec::types::{DomainId, SimTime};
use voltspec::workload::Suite;

fn main() {
    let seed = 42;
    let mut system =
        SpeculationSystem::new(ChipConfig::low_voltage(seed), ControllerConfig::default());
    system.calibrate_fast();
    println!("== service-life walkthrough (die seed {seed}) ==");
    println!(
        "{:<12} {:>10} {:>18} {:>12} {:>8}",
        "age", "mean Vdd", "monitors retargeted", "emergencies", "safe"
    );

    for years in [0u64, 2, 5, 10] {
        let hours = years as f64 * 8760.0;
        system.chip_mut().set_age_hours(hours);

        // Periodic recalibration: has the weak-line ranking drifted?
        let outcomes = recalibrate(&mut system);
        let retargeted = outcomes.iter().filter(|o| o.changed).count();

        // Tailor each domain's band to its (possibly new) line's measured
        // ramp so every domain keeps the same physical margin as it ages.
        let calibration = system.calibration().to_vec();
        let mut scratch_chip = voltspec::platform::Chip::new(ChipConfig::low_voltage(seed));
        scratch_chip.set_age_hours(hours);
        for outcome in &calibration {
            let response = measure_line_response(&mut scratch_chip, outcome, 4000);
            let band = tailor_band(&ControllerConfig::default(), &response, 14.0);
            system.controllers_mut()[outcome.domain.0].set_config(band);
        }

        // A service interval under load.
        system.assign_suite(Suite::SpecJbb2005, SimTime::from_secs(15));
        let stats = system.run(SimTime::from_secs(30));

        println!(
            "{:<12} {:>8.0}mV {:>18} {:>12} {:>8}",
            format!("{years} years"),
            stats.average_domain_vdd(),
            retargeted,
            stats.emergencies,
            stats.is_safe()
        );
        assert!(stats.is_safe(), "the system must stay safe across its life");
    }

    println!(
        "\naged cells fail at higher voltages, so the controller naturally gives margin back\n\
         over the years — no manual re-guardbanding, the error-rate servo does it. When the\n\
         weak-line ranking flips, recalibration retargets the monitor (and the freed line\n\
         returns to normal cache service)."
    );
    let _ = DomainId(0);
}

//! End-to-end integration: real calibration sweep, closed-loop run, and
//! energy accounting across the whole stack.

use voltspec::platform::ChipConfig;
use voltspec::spec::{CalibrationMethod, CalibrationPlan, ControllerConfig, SpeculationSystem};
use voltspec::types::{CoreId, Millivolts, SimTime};
use voltspec::workload::{benchmark, Suite};

fn small_config(seed: u64) -> ChipConfig {
    ChipConfig {
        num_cores: 2,
        weak_lines_tracked: 8,
        ..ChipConfig::low_voltage(seed)
    }
}

#[test]
fn sweep_calibration_then_safe_speculated_run() {
    let mut sys = SpeculationSystem::new(small_config(101), ControllerConfig::default());
    // The faithful path: voltage-stepped cache sweeps through the real
    // encoded data path.
    let outcomes = sys.calibrate().to_vec();
    assert_eq!(outcomes.len(), 1);
    let onset = outcomes[0].onset_vdd;
    assert!(
        (660..=760).contains(&onset.0),
        "first errors should appear ~100 mV below the 800 mV nominal, got {onset}"
    );

    sys.assign_workload(CoreId(0), Box::new(benchmark("gcc").expect("known")));
    let stats = sys.run(SimTime::from_secs(30));
    assert!(stats.is_safe(), "crashed cores: {:?}", stats.crashed_cores);
    assert!(stats.correctable > 0, "monitor feedback must flow");
    // Steady state rides the error band a little above the weak cell.
    let park = sys.chip().domain_set_point(voltspec::types::DomainId(0));
    assert!(
        park < Millivolts(790) && park > Millivolts(640),
        "implausible park point {park}"
    );
}

#[test]
fn sweep_and_oracle_calibration_agree() {
    let mut by_sweep = SpeculationSystem::new(small_config(202), ControllerConfig::default());
    let sweep = by_sweep
        .calibrate_with(&CalibrationPlan {
            method: CalibrationMethod::CacheSweep,
            ..CalibrationPlan::default()
        })
        .to_vec();
    let mut by_table = SpeculationSystem::new(small_config(202), ControllerConfig::default());
    let table = by_table.calibrate_with(&CalibrationPlan::fast()).to_vec();
    // Both must designate lines in the same structure neighbourhood: the
    // sweep's onset voltage within one coarse stride of the oracle's.
    assert_eq!(sweep.len(), table.len());
    let dv = (sweep[0].onset_vdd - table[0].onset_vdd).0.abs();
    assert!(dv <= 25, "onset disagreement {dv} mV");
}

#[test]
fn speculation_beats_fixed_nominal_on_every_suite() {
    for suite in Suite::ALL {
        let mut sys = SpeculationSystem::new(small_config(303), ControllerConfig::default());
        sys.calibrate_fast();
        sys.assign_suite(suite, SimTime::from_secs(5));
        let spec = sys.run(SimTime::from_secs(15));
        assert!(spec.is_safe(), "{} crashed", suite.label());

        let mut base = SpeculationSystem::new(small_config(303), ControllerConfig::default());
        base.assign_suite(suite, SimTime::from_secs(5));
        let baseline = base.run_baseline(SimTime::from_secs(15));
        assert!(
            spec.core_rail_energy_j < 0.92 * baseline.core_rail_energy_j,
            "{}: {} J vs {} J",
            suite.label(),
            spec.core_rail_energy_j,
            baseline.core_rail_energy_j
        );
    }
}

#[test]
fn monitor_line_holds_no_workload_data_and_events_stay_correctable() {
    let mut sys = SpeculationSystem::new(small_config(404), ControllerConfig::default());
    sys.calibrate_fast();
    let designated = sys.calibration()[0];
    sys.assign_workload(CoreId(0), Box::new(benchmark("mcf").expect("known")));
    sys.assign_workload(CoreId(1), Box::new(benchmark("swim").expect("known")));
    let stats = sys.run(SimTime::from_secs(20));
    assert!(stats.is_safe());
    // Zero uncorrectable events anywhere in the run.
    assert_eq!(sys.chip().ecc_counts().uncorrectable(), 0);
    // Every workload-attributed erring line must be a non-designated line.
    for line in sys.chip().ecc_counts().erring_lines() {
        if line.core == designated.core && line.cache == designated.kind {
            // Errors from the designated line are the monitor's own.
            continue;
        }
        assert_ne!(
            (line.cache, line.location),
            (designated.kind, designated.line),
            "workload data must never land on the de-configured line"
        );
    }
}

#[test]
fn emergency_path_recovers_from_an_induced_collapse() {
    let mut sys = SpeculationSystem::new(small_config(505), ControllerConfig::default());
    sys.calibrate_fast();
    let onset = sys.calibration()[0].onset_vdd;
    // Let it settle into the band first.
    let settled = sys.run(SimTime::from_secs(10));
    assert!(settled.is_safe());
    // Sabotage: slam the rail deep into the failure region. The next probe
    // bursts must fire the emergency interrupt and climb back out.
    let domain = voltspec::types::DomainId(0);
    sys.chip_mut()
        .request_domain_voltage(domain, onset - Millivolts(20));
    let recovery = sys.run(SimTime::from_secs(5));
    assert!(recovery.emergencies > 0, "emergency must have fired");
    assert!(recovery.is_safe(), "recovery must not crash the cores");
    let final_v = sys.chip().domain_set_point(domain);
    assert!(
        final_v > onset - Millivolts(20),
        "controller must have climbed out of the hole, at {final_v}"
    );
}

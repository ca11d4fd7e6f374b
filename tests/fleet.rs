//! Population-level claims and guarantees of the fleet engine.
//!
//! The paper's evaluation is stated over chip *populations* (the Figure 1
//! Vmin spread, the ~8 % mean Vdd reduction); these tests re-express those
//! claims as assertions over simulated fleets at reduced scale (small
//! dies, short runs). The full-scale numbers come from
//! `repro --fleet 256 --workers 8`.

use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;
use voltspec::fleet::{ControllerVariant, FleetConfig, FleetRunner};
use voltspec::types::rng::CounterRng;
use voltspec::types::{ChipId, FleetSeed, SimTime};

/// Figures 1–2: minimum safe voltage varies widely and deterministically
/// across a population. Margins-only (baseline variant, one-tick runs) so
/// a 128-chip population stays cheap.
#[test]
fn claim_population_vmin_spread() {
    let mut config = FleetConfig::small(FleetSeed(2014), 128);
    config.variant = ControllerVariant::Baseline;
    config.run_duration = SimTime::from_millis(1);
    let result = FleetRunner::new(config.clone(), 4).run().unwrap();
    let stats = result.stats(&config);

    assert_eq!(stats.healthy_chips, 128);
    // Every core's floor sits well below the 800 mV nominal (§II-A: ~23 %
    // below at the low-voltage point)...
    let nominal = 800.0;
    let mean_vmin = stats.core_vmin_mv.mean().unwrap();
    assert!(
        mean_vmin < nominal * 0.83,
        "population mean Vmin should be >17% below nominal, got {mean_vmin:.0} mV"
    );
    // ...and the reclaimable guardband varies substantially die to die.
    // The paper's eight-chip sample spans ~4x in error-band onset; this
    // model's population spread at reduced die size is narrower but must
    // stay wide enough that per-chip calibration (not a one-size
    // guardband) is worth it.
    let spread_mv = stats.core_margin_mv.max().unwrap() - stats.core_margin_mv.min().unwrap();
    assert!(
        spread_mv >= 30.0,
        "population guardband spread should span tens of mV, got {spread_mv:.0}"
    );
    assert!(
        stats.vmin_spread().unwrap() > 1.15,
        "guardband max/min ratio too flat: {:?}",
        stats.vmin_spread()
    );
    // Margins are a die property: re-running the population reproduces
    // them exactly.
    let again = FleetRunner::new(config.clone(), 2).run().unwrap();
    assert_eq!(result.summaries, again.summaries);
}

/// §V-A at population scale: the hardware controller's mean Vdd reduction
/// across a fleet lands in the paper's ~8 % band, and every chip both
/// saves energy and stays safe.
#[test]
fn claim_population_vdd_reduction() {
    let config = FleetConfig::small(FleetSeed(2014), 16);
    let result = FleetRunner::new(config.clone(), 4).run().unwrap();
    let stats = result.stats(&config);

    assert_eq!(
        stats.healthy_chips, 16,
        "speculation must never crash a chip"
    );
    let mean = stats.mean_vdd_reduction();
    assert!(
        (0.04..0.15).contains(&mean),
        "paper: ~8% mean Vdd reduction, got {:.1}%",
        mean * 100.0
    );
    // Every chip individually speculates below nominal and saves energy.
    assert!(stats.chip_vdd_reduction.min().unwrap() > 0.0);
    assert!(stats.chip_energy_savings.min().unwrap() > 0.0);
    assert!(
        (0.10..0.45).contains(&stats.mean_energy_savings()),
        "energy savings out of shape: {:.1}%",
        stats.mean_energy_savings() * 100.0
    );
}

/// §V-F at population scale: the firmware baseline is structurally more
/// conservative than the hardware monitor on the same silicon.
#[test]
fn claim_population_software_is_conservative() {
    let mut hw_config = FleetConfig::small(FleetSeed(99), 6);
    hw_config.run_duration = SimTime::from_secs(2);
    let mut sw_config = hw_config.clone();
    sw_config.variant = ControllerVariant::Software;

    let hw = FleetRunner::new(hw_config.clone(), 2).run().unwrap();
    let sw = FleetRunner::new(sw_config.clone(), 2).run().unwrap();
    let hw_stats = hw.stats(&hw_config);
    let sw_stats = sw.stats(&sw_config);
    assert!(
        sw_stats.mean_vdd_reduction() < hw_stats.mean_vdd_reduction(),
        "firmware speculation must reclaim less: sw {:.3} vs hw {:.3}",
        sw_stats.mean_vdd_reduction(),
        hw_stats.mean_vdd_reduction()
    );
}

/// Property: per-chip RNG streams are non-overlapping — no chip's stream
/// ever reproduces a draw sequence of another chip (or of the same chip on
/// another stream id), across fleets, chips, and stream ids.
#[test]
fn property_chip_rng_streams_do_not_overlap() {
    const DRAWS: usize = 32;
    let mut meta = CounterRng::from_key(0xF1EE_CA5E, &[]);
    let mut all_draws: HashSet<u64> = HashSet::new();
    let mut streams = 0usize;
    for case in 0..8 {
        let fleet = FleetSeed(meta.next_u64());
        for chip in 0..32 {
            for stream in [0u64, 1, 0xA551_6E00] {
                let mut rng = fleet.chip_rng(ChipId(chip), stream);
                streams += 1;
                for draw in 0..DRAWS {
                    assert!(
                        all_draws.insert(rng.next_u64()),
                        "case {case}: chip {chip} stream {stream:#x} draw {draw} \
                         collided with another stream"
                    );
                }
            }
        }
    }
    // 8 fleets x 32 chips x 3 streams x 32 draws, all distinct: with
    // 64-bit outputs any repeat is an overlap, not chance (P < 1e-7).
    assert_eq!(all_draws.len(), streams * DRAWS);
}

/// Property: die seeds are unique across fleets and chips.
#[test]
fn property_die_seeds_unique_across_fleets() {
    let mut seeds: HashSet<u64> = HashSet::new();
    for fleet in 0..64u64 {
        let config = FleetConfig::small(FleetSeed(fleet), 64);
        for chip in 0..64 {
            assert!(
                seeds.insert(config.die_seed(ChipId(chip))),
                "die seed collision: fleet {fleet} chip {chip}"
            );
        }
    }
    assert_eq!(seeds.len(), 64 * 64);
}

/// The firmware and fixed-nominal arms are golden artifacts: the
/// checkpoint of a 4-chip `--quick` fleet at seed 2014, built the way
/// `repro --quick --fleet 4 --variant sw|baseline` builds it, must match
/// `tests/golden/fleet-{sw,baseline}.ckpt` byte for byte (every summary
/// field is stored as exact f64 bits). Regenerate with
/// `BLESS=1 cargo test -q --test fleet` after a deliberate change.
#[test]
fn golden_checkpoints_pin_the_firmware_and_nominal_arms() {
    let dir = std::env::temp_dir().join("voltspec-fleet-golden");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (variant, name) in [
        (ControllerVariant::Software, "fleet-sw.ckpt"),
        (ControllerVariant::Baseline, "fleet-baseline.ckpt"),
    ] {
        let config = vs_fleetd::config_for(&vs_fleetd::SweepSpec {
            seed: 2014,
            chips: 4,
            variant,
            quick: true,
            run_ms: 500,
            sentinel: false,
            inject: String::new(),
            key: String::new(),
            deadline_ms: 0,
        });
        let path = dir.join(name);
        FleetRunner::new(config, 2)
            .with_checkpoint(path.clone())
            .run()
            .unwrap();
        let bytes = fs::read(&path).unwrap();
        let golden = golden_dir.join(name);
        if std::env::var_os("BLESS").is_some() {
            fs::write(&golden, &bytes).unwrap();
        }
        let expected = fs::read(&golden).expect("golden file (bless with BLESS=1)");
        assert!(
            bytes == expected,
            "checkpoint drifted from tests/golden/{name}; \
             re-bless with BLESS=1 if the change is intentional"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

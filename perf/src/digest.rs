//! Content digests of sweep results, pinned for the reference seed.
//!
//! Host time is only worth comparing while the simulated work is the
//! same. The first [`DIGEST_CHIPS`] chip summaries of each sweep workload
//! at seed [`REFERENCE_SEED`] are hashed field by field (floats by bit
//! pattern) and compared with the values below; a change that alters
//! what a chip computes fails the benchmark instead of producing a
//! misleading speed-up.

use vs_fleet::ChipSummary;
use vs_types::rng::splitmix64;

/// The seed whose digests are pinned.
pub const REFERENCE_SEED: u64 = 2014;

/// Chips covered by a digest: chip ids `0..DIGEST_CHIPS`.
pub const DIGEST_CHIPS: u64 = 16;

/// Pinned digests at [`REFERENCE_SEED`], by workload name. A deliberate
/// change to the simulated model re-pins these (run the workload at the
/// reference seed; the mismatch message prints the new value).
const PINNED: &[(&str, u64)] = &[
    ("sweep-hw", 0x9122_6496_600f_c613),
    ("sweep-short", 0x6f18_4ae9_344e_6768),
];

/// The pinned digest of `workload`, if it has one.
pub fn pinned(workload: &str) -> Option<u64> {
    PINNED.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d)
}

/// Order-sensitive digest of a list of summaries.
pub fn digest(summaries: &[ChipSummary]) -> u64 {
    let mut h = splitmix64(0xD16E_5700 ^ summaries.len() as u64);
    let mut mix = |v: u64| h = splitmix64(h ^ v);
    for s in summaries {
        mix(s.chip.0);
        mix(s.die_seed);
        for m in &s.margins {
            mix(m.core as u64);
            mix(m.first_error_mv as u64);
            mix(m.min_safe_mv as u64);
        }
        for v in s.mean_vdd_mv.iter().chain(&s.vdd_reduction) {
            mix(v.to_bits());
        }
        mix(s.energy_savings.to_bits());
        mix(s.correctable);
        mix(s.emergencies);
        mix(s.crashes);
        mix(s.sw_overhead.to_bits());
        mix(s.dues);
        mix(s.rollbacks);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_fleet::{FleetConfig, FleetRunner};
    use vs_types::{FleetSeed, SimTime};

    fn tiny_sweep() -> Vec<ChipSummary> {
        let mut config = FleetConfig::small(FleetSeed(REFERENCE_SEED), 3);
        config.run_duration = SimTime::from_millis(50);
        FleetRunner::new(config, 1).run().unwrap().summaries
    }

    #[test]
    fn digest_is_stable_across_two_in_process_runs() {
        let a = tiny_sweep();
        let b = tiny_sweep();
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn digest_sees_every_field_and_the_order() {
        let base = tiny_sweep();
        let d = digest(&base);
        let mut swapped = base.clone();
        swapped.swap(0, 1);
        assert_ne!(digest(&swapped), d);
        let mut nudged = base.clone();
        nudged[2].energy_savings = f64::from_bits(nudged[2].energy_savings.to_bits() ^ 1);
        assert_ne!(digest(&nudged), d);
        let mut counted = base;
        counted[0].correctable += 1;
        assert_ne!(digest(&counted), d);
    }
}

//! Fleet-level identity: naming chips inside a multi-chip population and
//! deriving each chip's die seed from a single fleet seed.
//!
//! Population experiments (the paper's Figures 1–2 spreads, the 8 % mean
//! Vdd-reduction claim) simulate hundreds of independent dies. Each die's
//! entire variation map is a pure function of its `ChipConfig::seed`
//! (see `vs-platform`), so a fleet is fully described by one
//! [`FleetSeed`] plus a chip count: chip `i` runs with the die seed
//! `FleetSeed::chip_seed(ChipId(i))`.
//!
//! Two guarantees matter and are tested:
//!
//! 1. **Determinism.** The derivation is a pure hash of
//!    `(fleet_seed, chip_id)`; it does not depend on thread count, worker
//!    scheduling, or simulation order, so a fleet result is bit-identical
//!    no matter how it is sharded.
//! 2. **Stream separation.** Chip seeds are domain-separated from every
//!    other use of [`hash_key`] by a dedicated
//!    stream tag, so a chip's RNG streams never collide with another
//!    chip's (or with fleet-level draws).

use crate::rng::{hash_key, CounterRng};
use std::fmt;

/// Domain-separation tag for per-chip seed derivation. Any other consumer
/// of [`hash_key`] keyed off a fleet seed must use a different first part.
const CHIP_SEED_STREAM: u64 = 0xF1EE_7C41_9D00_0001;

/// Index of one chip within a fleet (dense, starting at zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipId(pub u64);

impl fmt::Display for ChipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip{}", self.0)
    }
}

/// The master seed of a simulated fleet: the single number that determines
/// every die in the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FleetSeed(pub u64);

impl fmt::Display for FleetSeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fleet#{}", self.0)
    }
}

impl FleetSeed {
    /// Derives the die seed of one chip of this fleet.
    ///
    /// ```
    /// use vs_types::fleet::{ChipId, FleetSeed};
    ///
    /// let fleet = FleetSeed(2014);
    /// // Pure function: same key, same seed — across processes and sharding.
    /// assert_eq!(fleet.chip_seed(ChipId(7)), fleet.chip_seed(ChipId(7)));
    /// // Distinct chips are distinct silicon.
    /// assert_ne!(fleet.chip_seed(ChipId(7)), fleet.chip_seed(ChipId(8)));
    /// ```
    pub fn chip_seed(self, chip: ChipId) -> u64 {
        hash_key(self.0, &[CHIP_SEED_STREAM, chip.0])
    }

    /// A fleet-level RNG for draws that belong to the population rather
    /// than any single die (e.g. random workload assignment), keyed by a
    /// caller-chosen stream id so independent consumers never share a
    /// stream.
    pub fn fleet_rng(self, stream: u64) -> CounterRng {
        CounterRng::from_key(self.0, &[CHIP_SEED_STREAM ^ 0xFFFF_FFFF, stream])
    }

    /// A per-chip RNG for fleet-level decisions about one chip (workload
    /// assignment, re-draw policies) that must not perturb the die's own
    /// variation streams.
    pub fn chip_rng(self, chip: ChipId, stream: u64) -> CounterRng {
        CounterRng::from_key(self.chip_seed(chip), &[CHIP_SEED_STREAM, stream])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn chip_seeds_unique_across_large_fleet() {
        let fleet = FleetSeed(1);
        let seeds: HashSet<u64> = (0..10_000).map(|i| fleet.chip_seed(ChipId(i))).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn different_fleets_are_different_populations() {
        let a: Vec<u64> = (0..64).map(|i| FleetSeed(1).chip_seed(ChipId(i))).collect();
        let b: Vec<u64> = (0..64).map(|i| FleetSeed(2).chip_seed(ChipId(i))).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn chip_rng_streams_are_separated() {
        let fleet = FleetSeed(9);
        let a = fleet.chip_rng(ChipId(0), 0).next_u64();
        let b = fleet.chip_rng(ChipId(0), 1).next_u64();
        let c = fleet.chip_rng(ChipId(1), 0).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ChipId(12).to_string(), "chip12");
        assert_eq!(FleetSeed(2014).to_string(), "fleet#2014");
    }
}

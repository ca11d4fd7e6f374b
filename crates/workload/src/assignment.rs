//! Workload assignment policies for population (fleet) experiments.
//!
//! A single-chip experiment assigns workloads by hand; a fleet of hundreds
//! of chips needs a *policy*: a deterministic rule mapping `(chip, core)`
//! to a workload. The policy draws any randomness from a caller-provided
//! [`CounterRng`] that the fleet layer derives
//! from `(fleet_seed, chip_id)`, so assignment — like everything else — is
//! independent of worker count and scheduling order.

use crate::{Idle, StressTest, Suite, Workload};
use vs_types::rng::CounterRng;
use vs_types::SimTime;

/// A deterministic rule assigning one workload per core of each chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssignmentPolicy {
    /// Every core of every chip idles (margins-only sweeps).
    AllIdle,
    /// Every core of every chip runs the characterization stress mix.
    AllStress,
    /// Every core runs the same suite back-to-back, `per_benchmark` each —
    /// the paper's §IV-C setup replicated across the population.
    UniformSuite {
        /// The suite to run on every core.
        suite: Suite,
        /// Simulated time per benchmark in the suite rotation.
        per_benchmark: SimTime,
    },
    /// Chip `i` runs suite `ALL[i mod 4]` on all its cores: a balanced
    /// split of the population across the four suites of Table II.
    RoundRobinSuites {
        /// Simulated time per benchmark in the suite rotation.
        per_benchmark: SimTime,
    },
    /// Each *core* draws an independent suite from the chip's assignment
    /// stream — the most heterogeneous (datacenter-like) mix.
    PerCoreRandom {
        /// Simulated time per benchmark in the suite rotation.
        per_benchmark: SimTime,
    },
}

impl AssignmentPolicy {
    /// Short label used in fleet reports.
    pub fn label(&self) -> &'static str {
        match self {
            AssignmentPolicy::AllIdle => "idle",
            AssignmentPolicy::AllStress => "stress",
            AssignmentPolicy::UniformSuite { .. } => "uniform-suite",
            AssignmentPolicy::RoundRobinSuites { .. } => "round-robin",
            AssignmentPolicy::PerCoreRandom { .. } => "per-core-random",
        }
    }

    /// Produces the workload for one core of one chip.
    ///
    /// `chip_index` is the chip's position in the fleet; `rng` is the
    /// chip's assignment stream (advanced once per core, in core order, by
    /// the caller driving cores `0..num_cores`).
    pub fn workload_for(
        &self,
        chip_index: u64,
        _core: usize,
        rng: &mut CounterRng,
    ) -> Box<dyn Workload + Send + Sync> {
        match *self {
            AssignmentPolicy::AllIdle => Box::new(Idle),
            AssignmentPolicy::AllStress => Box::new(StressTest::default()),
            AssignmentPolicy::UniformSuite {
                suite,
                per_benchmark,
            } => Box::new(suite.back_to_back(per_benchmark)),
            AssignmentPolicy::RoundRobinSuites { per_benchmark } => {
                let suite = Suite::ALL[(chip_index % Suite::ALL.len() as u64) as usize];
                Box::new(suite.back_to_back(per_benchmark))
            }
            AssignmentPolicy::PerCoreRandom { per_benchmark } => {
                let suite = Suite::ALL[rng.next_below(Suite::ALL.len() as u64) as usize];
                Box::new(suite.back_to_back(per_benchmark))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> CounterRng {
        CounterRng::from_key(7, &[])
    }

    #[test]
    fn uniform_assigns_the_named_suite_everywhere() {
        let policy = AssignmentPolicy::UniformSuite {
            suite: Suite::CoreMark,
            per_benchmark: SimTime::from_secs(1),
        };
        for chip in 0..4 {
            let w = policy.workload_for(chip, 0, &mut rng());
            assert_eq!(w.name(), "CoreMark");
        }
    }

    #[test]
    fn round_robin_cycles_suites_by_chip() {
        let policy = AssignmentPolicy::RoundRobinSuites {
            per_benchmark: SimTime::from_secs(1),
        };
        let names: Vec<String> = (0..8)
            .map(|chip| policy.workload_for(chip, 0, &mut rng()).name().to_owned())
            .collect();
        assert_eq!(names[0], names[4]);
        assert_eq!(names[1], names[5]);
        assert_ne!(names[0], names[1]);
    }

    #[test]
    fn per_core_random_is_deterministic_in_the_stream() {
        let policy = AssignmentPolicy::PerCoreRandom {
            per_benchmark: SimTime::from_secs(1),
        };
        let mut a = rng();
        let mut b = rng();
        for core in 0..8 {
            let x = policy.workload_for(3, core, &mut a).name().to_owned();
            let y = policy.workload_for(3, core, &mut b).name().to_owned();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn idle_and_stress_do_what_they_say() {
        let w = AssignmentPolicy::AllIdle.workload_for(0, 0, &mut rng());
        assert_eq!(w.name(), "idle");
        let w = AssignmentPolicy::AllStress.workload_for(0, 0, &mut rng());
        assert!(w.demand(SimTime::from_secs(1)).activity > 0.5);
    }
}

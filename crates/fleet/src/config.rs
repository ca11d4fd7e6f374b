//! Fleet configuration: what population to simulate and how.

use vs_faults::FaultPlan;
use vs_platform::ChipConfig;
use vs_spec::{ControllerConfig, SoftwareConfig};
use vs_types::rng::splitmix64;
use vs_types::{ChipId, ConfigError, FleetSeed, SimTime};
use vs_workload::AssignmentPolicy;

/// Which speculation mechanism every chip of the fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerVariant {
    /// The paper's hardware ECC-monitor controller (§III).
    Hardware,
    /// The firmware/software speculation baseline (prior work, §V-F).
    Software,
    /// No speculation: fixed nominal voltage (the energy denominator).
    Baseline,
}

impl ControllerVariant {
    /// Short label used in reports and checkpoints.
    pub fn label(self) -> &'static str {
        match self {
            ControllerVariant::Hardware => "hw",
            ControllerVariant::Software => "sw",
            ControllerVariant::Baseline => "baseline",
        }
    }

    /// Parses a label produced by [`ControllerVariant::label`].
    pub fn parse(s: &str) -> Option<ControllerVariant> {
        match s {
            "hw" => Some(ControllerVariant::Hardware),
            "sw" => Some(ControllerVariant::Software),
            "baseline" => Some(ControllerVariant::Baseline),
            _ => None,
        }
    }
}

/// How per-core voltage margins are characterized for each die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarginsMode {
    /// Oracle margins straight from the silicon model
    /// ([`vs_platform::characterize::all_analytic_core_margins`]) —
    /// milliseconds per die.
    Analytic,
}

/// Full description of one fleet experiment.
///
/// A fleet is `num_chips` independent dies. Die `i`'s silicon is derived
/// purely from `(seed, i)`; its workloads purely from the
/// assignment policy and the same key. Nothing depends on worker count or
/// scheduling, which is what makes fleet results bit-identical under any
/// sharding (asserted by `tests/determinism.rs`).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Master seed: one number determines the whole population.
    pub seed: FleetSeed,
    /// Number of chips to simulate.
    pub num_chips: u64,
    /// Template chip configuration; the per-die `seed` field is
    /// overwritten for each chip.
    pub base_chip: ChipConfig,
    /// Which speculation mechanism the fleet runs.
    pub variant: ControllerVariant,
    /// Hardware-controller tunables (used by the `Hardware` variant).
    pub controller: ControllerConfig,
    /// Firmware-baseline tunables (used by the `Software` variant).
    pub software: SoftwareConfig,
    /// How workloads are assigned to cores across the population.
    pub assignment: AssignmentPolicy,
    /// Simulated duration of each chip's speculation run.
    pub run_duration: SimTime,
    /// How margins are characterized.
    pub margins: MarginsMode,
    /// Ticks per resumable-run slice (granularity of progress reporting;
    /// does not affect results).
    pub slice_ticks: u64,
    /// Faults to inject across the population (empty by default). Chip
    /// events are replayed inside each chip's speculation run; worker
    /// panics are consumed by the [`FleetRunner`](crate::FleetRunner)
    /// retry machinery. Part of the fingerprint when non-empty, so a
    /// faulted fleet never resumes a clean checkpoint (or vice versa).
    pub faults: FaultPlan,
}

impl FleetConfig {
    /// A fleet of `num_chips` reference dies with paper-faithful defaults:
    /// 8-core chips, hardware controller, suites split round-robin across
    /// the population, analytic margins.
    pub fn new(seed: FleetSeed, num_chips: u64) -> FleetConfig {
        FleetConfig {
            seed,
            num_chips,
            base_chip: ChipConfig::low_voltage(0),
            variant: ControllerVariant::Hardware,
            controller: ControllerConfig::default(),
            software: SoftwareConfig::default(),
            assignment: AssignmentPolicy::RoundRobinSuites {
                per_benchmark: SimTime::from_secs(1),
            },
            run_duration: SimTime::from_secs(4),
            margins: MarginsMode::Analytic,
            slice_ticks: 1000,
            faults: FaultPlan::new(),
        }
    }

    /// A reduced-cost fleet for tests: 2-core dies, short runs.
    pub fn small(seed: FleetSeed, num_chips: u64) -> FleetConfig {
        let mut config = FleetConfig::new(seed, num_chips);
        config.base_chip.num_cores = 2;
        config.base_chip.weak_lines_tracked = 8;
        config.run_duration = SimTime::from_secs(2);
        config
    }

    /// The seed the population is drawn from: the master seed.
    pub fn effective_seed(&self) -> FleetSeed {
        self.seed
    }

    /// The die seed of one chip.
    pub fn die_seed(&self, chip: ChipId) -> u64 {
        self.effective_seed().chip_seed(chip)
    }

    /// The full chip configuration of one die.
    pub fn chip_config(&self, chip: ChipId) -> ChipConfig {
        ChipConfig {
            seed: self.die_seed(chip),
            ..self.base_chip.clone()
        }
    }

    /// A stable fingerprint of everything that determines per-chip
    /// results. Checkpoints record it; resuming under a config with a
    /// different fingerprint is refused (the saved summaries would be
    /// silently wrong).
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(0xF1EE_F1EE ^ self.seed.0);
        let mut mix = |v: u64| h = splitmix64(h ^ v);
        // Stored checkpoints and journals carry fingerprints that mixed a
        // wafer generation (always 0) here and a margins-mode tag (1 for
        // analytic) below; both constants stay so those files still resume.
        mix(0);
        mix(self.base_chip.seed); // template seed is ignored per-die
        mix(self.base_chip.num_cores as u64);
        mix(self.base_chip.cores_per_domain as u64);
        mix(self.base_chip.weak_lines_tracked as u64);
        mix(self.base_chip.tick.as_micros());
        mix(match self.base_chip.mode {
            vs_types::VddMode::LowVoltage => 1,
            vs_types::VddMode::Nominal => 2,
        });
        mix(self
            .variant
            .label()
            .bytes()
            .fold(0u64, |a, b| splitmix64(a ^ u64::from(b))));
        mix(self.run_duration.as_micros());
        mix(match self.margins {
            MarginsMode::Analytic => 1,
        });
        mix(self
            .assignment
            .label()
            .bytes()
            .fold(0u64, |a, b| splitmix64(a ^ u64::from(b))));
        // Only mixed when faults are present, so fingerprints of clean
        // fleets are unchanged from before fault injection existed.
        if !self.faults.is_empty() {
            mix(self.faults.digest());
        }
        h
    }

    /// The sentinel envelope matching this fleet: regulator clamps from
    /// the base chip's operating point, band ceiling from the controller,
    /// rollback budget from the default recovery policy the chip jobs run
    /// under. Mode defaults to record-and-continue; callers flip it before
    /// handing the config to [`FleetRunner::with_sentinel`](crate::FleetRunner::with_sentinel).
    pub fn sentinel_config(&self) -> vs_sentinel::SentinelConfig {
        let (floor, max) = self.base_chip.regulator_range();
        vs_sentinel::SentinelConfig {
            floor_mv: floor.0,
            max_mv: max.0,
            ceiling: self.controller.ceiling,
            max_rollbacks_per_domain: vs_faults::RecoveryPolicy::default().max_rollbacks_per_domain,
            ..vs_sentinel::SentinelConfig::low_voltage()
        }
    }

    /// Validates internal consistency, naming the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_chips == 0 {
            return Err(ConfigError::non_positive("num_chips"));
        }
        if self.slice_ticks == 0 {
            return Err(ConfigError::non_positive("slice_ticks"));
        }
        if self.run_duration <= SimTime::ZERO {
            return Err(ConfigError::non_positive("run_duration"));
        }
        self.base_chip.validate()?;
        self.controller.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(FleetConfig::new(FleetSeed(1), 16).validate(), Ok(()));
        assert_eq!(FleetConfig::small(FleetSeed(1), 4).validate(), Ok(()));
    }

    #[test]
    fn bad_configs_name_the_field() {
        let empty = FleetConfig {
            num_chips: 0,
            ..FleetConfig::small(FleetSeed(1), 4)
        };
        assert_eq!(empty.validate().unwrap_err().field(), "num_chips");
        let frozen = FleetConfig {
            run_duration: SimTime::ZERO,
            ..FleetConfig::small(FleetSeed(1), 4)
        };
        assert_eq!(frozen.validate().unwrap_err().field(), "run_duration");
    }

    #[test]
    fn die_seeds_are_distinct_and_stable() {
        let cfg = FleetConfig::new(FleetSeed(5), 8);
        let again = FleetConfig::new(FleetSeed(5), 8);
        for i in 0..8 {
            assert_eq!(cfg.die_seed(ChipId(i)), again.die_seed(ChipId(i)));
            for j in (i + 1)..8 {
                assert_ne!(cfg.die_seed(ChipId(i)), cfg.die_seed(ChipId(j)));
            }
        }
    }

    #[test]
    fn fingerprint_tracks_result_relevant_fields() {
        let a = FleetConfig::new(FleetSeed(5), 8);
        let same = FleetConfig::new(FleetSeed(5), 8);
        assert_eq!(a.fingerprint(), same.fingerprint());
        let other_seed = FleetConfig::new(FleetSeed(6), 8);
        assert_ne!(a.fingerprint(), other_seed.fingerprint());
        let other_variant = FleetConfig {
            variant: ControllerVariant::Software,
            ..FleetConfig::new(FleetSeed(5), 8)
        };
        assert_ne!(a.fingerprint(), other_variant.fingerprint());
        // Chip count is deliberately NOT in the fingerprint: growing a
        // fleet resumes cleanly from a smaller run's checkpoint.
        let more_chips = FleetConfig::new(FleetSeed(5), 32);
        assert_eq!(a.fingerprint(), more_chips.fingerprint());
        // Injected faults change results, so they change the fingerprint;
        // an empty plan leaves clean-fleet fingerprints untouched.
        let faulted = FleetConfig {
            faults: FaultPlan::new().due_at(SimTime::from_millis(5), vs_types::DomainId(0)),
            ..FleetConfig::new(FleetSeed(5), 8)
        };
        assert_ne!(a.fingerprint(), faulted.fingerprint());
        let empty_plan = FleetConfig {
            faults: FaultPlan::new(),
            ..FleetConfig::new(FleetSeed(5), 8)
        };
        assert_eq!(a.fingerprint(), empty_plan.fingerprint());
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Stored checkpoints and journals are keyed by these values.
        assert_eq!(
            FleetConfig::new(FleetSeed(5), 8).fingerprint(),
            0xf6ad_9196_538e_c60f
        );
        let sw = FleetConfig {
            variant: ControllerVariant::Software,
            ..FleetConfig::small(FleetSeed(2014), 4)
        };
        assert_eq!(sw.fingerprint(), 0x4ae4_095f_1fb5_0f37);
    }

    #[test]
    fn variant_labels_round_trip() {
        for v in [
            ControllerVariant::Hardware,
            ControllerVariant::Software,
            ControllerVariant::Baseline,
        ] {
            assert_eq!(ControllerVariant::parse(v.label()), Some(v));
        }
        assert_eq!(ControllerVariant::parse("nope"), None);
    }
}

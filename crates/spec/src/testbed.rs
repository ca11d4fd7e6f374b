//! One die, one workload, every mechanism (§V, Figures 10, 11 and 17).
//!
//! Mechanisms are only comparable on identical silicon running identical
//! workloads. A [`Testbed`] holds that pairing and runs each mechanism —
//! fixed nominal, the firmware baseline, the CPM baseline, the ECC-guided
//! hardware — on a fresh copy of it. The figure experiments and the fleet
//! job both normalize against [`Testbed::nominal`], so a fleet chip and a
//! figure bar measured on the same die and workload agree bit for bit.

use crate::cpm::{CpmConfig, CpmSpeculation};
use crate::software::{offline_onsets, stall_energy_j, SoftwareConfig, SoftwareSpeculation};
use crate::system::{RunStats, SpeculationSystem};
use crate::tally::run_nominal;
use crate::ControllerConfig;
use std::fmt;
use vs_platform::{BankMap, Chip, ChipConfig};
use vs_types::{CoreId, SimTime};
use vs_workload::Suite;

/// A die, the workloads its cores run, and the run length: the common
/// ground of every mechanism in a comparison.
pub struct Testbed<'a> {
    chip: ChipConfig,
    banks: Option<&'a BankMap>,
    workloads: Box<dyn Fn(&mut Chip) + 'a>,
    duration: SimTime,
}

impl fmt::Debug for Testbed<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Testbed")
            .field("seed", &self.chip.seed)
            .field("banks", &self.banks.is_some())
            .field("duration", &self.duration)
            .finish()
    }
}

/// What the firmware baseline measured on a [`Testbed`].
#[derive(Debug, Clone, PartialEq)]
pub struct FirmwareRun {
    /// The run's statistics; their core-rail energy excludes the stall.
    pub stats: RunStats,
    /// Fraction of the run lost to firmware error handling.
    pub overhead_fraction: f64,
}

impl FirmwareRun {
    /// Core-rail energy including the firmware stall, which burns energy
    /// at the run's mean rail power.
    pub fn rail_energy_j(&self) -> f64 {
        stall_energy_j(self.stats.core_rail_energy_j, self.overhead_fraction)
    }
}

impl<'a> Testbed<'a> {
    /// A testbed on `chip` whose cores get their workloads from
    /// `workloads`. Every mechanism run calls it once on a fresh chip, so
    /// it must assign the same workloads every time.
    pub fn new(
        chip: ChipConfig,
        duration: SimTime,
        workloads: impl Fn(&mut Chip) + 'a,
    ) -> Testbed<'a> {
        Testbed {
            chip,
            banks: None,
            workloads: Box::new(workloads),
            duration,
        }
    }

    /// Lets every run adopt cell banks already built for this die instead
    /// of rescanning them; results are bit-identical either way.
    pub fn with_banks(mut self, banks: &'a BankMap) -> Testbed<'a> {
        self.banks = Some(banks);
        self
    }

    /// The reference die of the figures: one suite instance per core,
    /// `per_benchmark` per entry, back to back.
    pub(crate) fn suite(
        seed: u64,
        suite: Suite,
        per_benchmark: SimTime,
        duration: SimTime,
    ) -> Testbed<'static> {
        Testbed::new(ChipConfig::low_voltage(seed), duration, move |chip| {
            for i in 0..chip.config().num_cores {
                chip.set_workload(CoreId(i), Box::new(suite.back_to_back(per_benchmark)));
            }
        })
    }

    /// The die's configuration.
    pub(crate) fn chip_config(&self) -> &ChipConfig {
        &self.chip
    }

    /// A fresh chip of the die with its workloads assigned.
    fn loaded_chip(&self) -> Chip {
        let mut chip = Chip::new(self.chip.clone());
        if let Some(banks) = self.banks {
            chip.preload_banks(banks);
        }
        (self.workloads)(&mut chip);
        chip
    }

    /// Fixed nominal voltage, no speculation: the normalization reference.
    pub fn nominal(&self) -> RunStats {
        run_nominal(&mut self.loaded_chip(), self.duration)
    }

    /// The firmware baseline (§V-F), guarding the die's off-line onsets.
    pub fn firmware(&self, config: SoftwareConfig) -> FirmwareRun {
        let mut chip = self.loaded_chip();
        let onsets = offline_onsets(&mut chip);
        let mut sw = SoftwareSpeculation::new(config, &onsets);
        let stats = sw.run(&mut chip, self.duration);
        FirmwareRun {
            stats,
            overhead_fraction: sw.overhead_fraction(self.duration),
        }
    }

    /// The critical-path-monitor baseline (§VI).
    pub(crate) fn cpm(&self) -> RunStats {
        let mut chip = self.loaded_chip();
        let onsets = offline_onsets(&mut chip);
        let mut cpm = CpmSpeculation::new(CpmConfig::default(), &mut chip, &onsets);
        cpm.run(&mut chip, self.duration)
    }

    /// The ECC-guided hardware system (§III) with the default control
    /// law and table calibration.
    pub(crate) fn hardware(&self) -> RunStats {
        let mut sys = SpeculationSystem::new(self.chip.clone(), ControllerConfig::default());
        if let Some(banks) = self.banks {
            sys.chip_mut().preload_banks(banks);
        }
        sys.calibrate_fast();
        (self.workloads)(sys.chip_mut());
        sys.run(self.duration)
    }
}

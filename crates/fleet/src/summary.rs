//! Per-chip result summaries — the unit of work the fleet streams,
//! checkpoints, and aggregates.

use vs_types::ChipId;

/// One core's voltage landmarks, flattened for streaming/serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMarginSummary {
    /// Core index on its chip.
    pub core: usize,
    /// Onset of the correctable-error band (set-point mV).
    pub first_error_mv: i32,
    /// Minimum safe voltage (set-point mV).
    pub min_safe_mv: i32,
}

/// Everything the fleet keeps about one simulated chip.
///
/// Summaries are pure functions of `(FleetConfig, ChipId)` — a summary
/// computed by any worker, in any order, on any machine, is bit-identical.
/// All floating-point fields are checkpointed as exact bit patterns so a
/// resumed fleet aggregates to exactly the same statistics as a fresh one.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSummary {
    /// The chip's position in the fleet.
    pub chip: ChipId,
    /// The die seed its silicon was drawn from.
    pub die_seed: u64,
    /// Per-core voltage margins.
    pub margins: Vec<CoreMarginSummary>,
    /// Mean regulator set point per domain over the speculation run (mV).
    pub mean_vdd_mv: Vec<f64>,
    /// Achieved Vdd reduction per domain, as a fraction of nominal.
    pub vdd_reduction: Vec<f64>,
    /// Core-rail energy saved vs the fixed-nominal baseline, as a
    /// fraction (0.0 for the `Baseline` variant).
    pub energy_savings: f64,
    /// Correctable errors over the run.
    pub correctable: u64,
    /// Emergency interrupts over the run.
    pub emergencies: u64,
    /// Cores that crashed (0 in a healthy fleet). With fault injection
    /// and recovery enabled this counts only *unrecovered* crashes;
    /// recovered ones appear in `rollbacks`.
    pub crashes: u64,
    /// Firmware overhead fraction (`Software` variant only, else 0).
    pub sw_overhead: f64,
    /// DUEs consumed by the firmware rollback path (0 without injection).
    pub dues: u64,
    /// Crashes recovered by rolling the domain back (0 without
    /// injection).
    pub rollbacks: u64,
}

impl ChipSummary {
    /// Mean Vdd reduction across the chip's domains.
    pub(crate) fn mean_reduction(&self) -> f64 {
        if self.vdd_reduction.is_empty() {
            return 0.0;
        }
        self.vdd_reduction.iter().sum::<f64>() / self.vdd_reduction.len() as f64
    }

    /// True if the chip completed its run without crashing.
    pub(crate) fn is_healthy(&self) -> bool {
        self.crashes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> ChipSummary {
        ChipSummary {
            chip: ChipId(3),
            die_seed: 99,
            margins: vec![
                CoreMarginSummary {
                    core: 0,
                    first_error_mv: 730,
                    min_safe_mv: 640,
                },
                CoreMarginSummary {
                    core: 1,
                    first_error_mv: 720,
                    min_safe_mv: 660,
                },
            ],
            mean_vdd_mv: vec![740.0, 760.0],
            vdd_reduction: vec![0.075, 0.05],
            energy_savings: 0.12,
            correctable: 10,
            emergencies: 0,
            crashes: 0,
            sw_overhead: 0.0,
            dues: 0,
            rollbacks: 0,
        }
    }

    #[test]
    fn helpers() {
        let s = summary();
        assert!((s.mean_reduction() - 0.0625).abs() < 1e-12);
        assert!(s.is_healthy());
    }

    #[test]
    fn empty_margins_and_reductions() {
        let s = ChipSummary {
            margins: Vec::new(),
            vdd_reduction: Vec::new(),
            ..summary()
        };
        assert_eq!(s.mean_reduction(), 0.0);
    }
}

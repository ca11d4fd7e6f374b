//! Fallible, fluent construction of a [`SpeculationSystem`].

use crate::controller::ControllerConfig;
use crate::system::SpeculationSystem;
use vs_faults::{FaultPlan, RecoveryPolicy};
use vs_platform::ChipConfig;
use vs_telemetry::Recorder;
use vs_types::{ConfigError, SimTime};

/// Builds a [`SpeculationSystem`] without panicking on bad configuration.
///
/// [`SpeculationSystem::new`] panics when handed an invalid config — fine
/// for tests and examples, wrong for tools that assemble configs from user
/// input (sweeps, the repro CLI, fleet jobs). The builder validates both
/// configs up front and returns the [`ConfigError`] instead, and wires the
/// optional collaborators (recorder, fault plan, recovery policy, trace
/// spacing) in one expression.
///
/// # Examples
///
/// ```
/// use vs_platform::ChipConfig;
/// use vs_spec::{ControllerConfig, SpeculationSystem};
///
/// let sys = SpeculationSystem::builder(ChipConfig::low_voltage(42))
///     .controller(ControllerConfig::default())
///     .build();
/// assert!(sys.is_ok(), "default configs are valid");
///
/// let bad = ControllerConfig { floor: 0.2, ceiling: 0.1, ..ControllerConfig::default() };
/// let err = SpeculationSystem::builder(ChipConfig::low_voltage(42))
///     .controller(bad)
///     .build()
///     .unwrap_err();
/// assert_eq!(err.field(), "ceiling");
/// ```
#[derive(Debug)]
pub struct SystemBuilder {
    chip: ChipConfig,
    controller: ControllerConfig,
    recorder: Option<Recorder>,
    fault_plan: Option<FaultPlan>,
    recovery: Option<RecoveryPolicy>,
    trace_spacing: Option<SimTime>,
}

impl SpeculationSystem {
    /// Starts a builder around `chip` with the default controller config.
    pub fn builder(chip: ChipConfig) -> SystemBuilder {
        SystemBuilder {
            chip,
            controller: ControllerConfig::default(),
            recorder: None,
            fault_plan: None,
            recovery: None,
            trace_spacing: None,
        }
    }
}

impl SystemBuilder {
    /// Sets the control-law configuration (validated in `build`).
    pub fn controller(mut self, config: ControllerConfig) -> SystemBuilder {
        self.controller = config;
        self
    }

    /// Installs a telemetry recorder.
    pub fn recorder(mut self, recorder: Recorder) -> SystemBuilder {
        self.recorder = Some(recorder);
        self
    }

    /// Installs a fault plan; this enables the recovery path.
    pub fn fault_plan(mut self, plan: FaultPlan) -> SystemBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the rollback tunables; this enables the recovery path.
    pub fn recovery_policy(mut self, policy: RecoveryPolicy) -> SystemBuilder {
        self.recovery = Some(policy);
        self
    }

    /// Sets the trace-sample spacing (default 100 ms).
    pub(crate) fn trace_spacing(mut self, spacing: SimTime) -> SystemBuilder {
        self.trace_spacing = Some(spacing);
        self
    }

    /// Validates both configs and assembles the system. The system still
    /// needs calibrating before it can run.
    pub fn build(self) -> Result<SpeculationSystem, ConfigError> {
        self.chip.validate()?;
        self.controller.validate()?;
        let mut sys = SpeculationSystem::new(self.chip, self.controller);
        if let Some(recorder) = self.recorder {
            sys.set_recorder(recorder);
        }
        if let Some(policy) = self.recovery {
            sys.set_recovery_policy(policy);
        }
        if let Some(plan) = self.fault_plan {
            sys.set_fault_plan(&plan);
        }
        if let Some(spacing) = self.trace_spacing {
            sys.set_trace_spacing(spacing);
        }
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_faults::FaultPlan;
    use vs_types::{DomainId, SimTime};

    #[test]
    fn builder_matches_new_plus_setters() {
        let mut by_hand =
            SpeculationSystem::new(ChipConfig::low_voltage(7), ControllerConfig::default());
        by_hand.set_trace_spacing(SimTime::from_millis(50));
        let built = SpeculationSystem::builder(ChipConfig::low_voltage(7))
            .trace_spacing(SimTime::from_millis(50))
            .build()
            .unwrap();
        assert_eq!(format!("{by_hand:?}"), format!("{built:?}"));
        assert!(!built.is_resilient());
    }

    #[test]
    fn bad_configs_surface_as_errors_not_panics() {
        let bad_chip = ChipConfig {
            num_cores: 0,
            ..ChipConfig::low_voltage(1)
        };
        let err = SpeculationSystem::builder(bad_chip).build().unwrap_err();
        assert_eq!(err.field(), "num_cores");

        let bad_ctrl = ControllerConfig {
            control_period: SimTime::ZERO,
            ..ControllerConfig::default()
        };
        let err = SpeculationSystem::builder(ChipConfig::low_voltage(1))
            .controller(bad_ctrl)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "control_period");
    }

    #[test]
    fn fault_plan_enables_resilience() {
        let plan = FaultPlan::new().due_at(SimTime::from_millis(5), DomainId(0));
        let sys = SpeculationSystem::builder(ChipConfig::low_voltage(1))
            .fault_plan(plan)
            .build()
            .unwrap();
        assert!(sys.is_resilient());
    }
}

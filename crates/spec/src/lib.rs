//! ECC-feedback-guided voltage speculation.
//!
//! This crate is the paper's primary contribution, built on the simulated
//! platform in `vs-platform`:
//!
//! * [`EccMonitor`] — the lightweight hardware unit of §III-A: it owns one
//!   de-configured weak cache line per voltage domain, continuously writes
//!   test patterns and reads them back, and maintains access/error
//!   counters whose ratio is the correctable-error rate.
//! * [`CalibrationPlan`] — the boot-time calibration of §III-C: sweep the L2
//!   caches while stepping the voltage down, find the line that errs at
//!   the highest voltage in each domain, designate it for monitoring.
//! * [`DomainController`] / [`ControllerConfig`] — the §III-B control law:
//!   keep the monitored error rate between a floor (1 %) and a ceiling
//!   (5 %) with ±5 mV steps, with an emergency interrupt path (80 %
//!   ceiling, large step) for sudden droops.
//! * [`SpeculationSystem`] — the assembled system: one active monitor per
//!   domain, a centralized control loop, full run statistics and traces.
//! * [`SoftwareSpeculation`] — the firmware-based prior-work baseline the
//!   paper compares against (§V-F): driven by *workload-triggered* errors
//!   only, with a per-error firmware handling cost.
//! * [`Testbed`] — one die and its workloads, on which every mechanism
//!   (fixed nominal, firmware, CPM, ECC hardware) runs and is measured the
//!   same way; the figure experiments and the fleet job share it.
//! * [`experiments`] — drivers that regenerate every evaluation figure.
//!
//! # Examples
//!
//! ```no_run
//! use vs_platform::ChipConfig;
//! use vs_spec::{ControllerConfig, SpeculationSystem};
//! use vs_types::SimTime;
//! use vs_workload::Suite;
//!
//! let mut system = SpeculationSystem::new(ChipConfig::low_voltage(42), ControllerConfig::default());
//! system.calibrate_fast();
//! system.assign_suite(Suite::CoreMark, SimTime::from_secs(30));
//! let stats = system.run(SimTime::from_secs(120));
//! println!("average Vdd: {:?}", stats.average_domain_vdd());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blade;
mod builder;
mod calibrate;
mod controller;
mod cpm;
pub mod experiments;
mod monitor;
mod recalibrate;
mod software;
mod system;
mod tally;
mod testbed;
mod tuning;

pub use blade::{BladeRunStats, BladeServer};
pub use builder::SystemBuilder;
pub use calibrate::{CalibrationMethod, CalibrationOutcome, CalibrationPlan};
pub use controller::{ControllerConfig, DomainController};
pub use monitor::EccMonitor;
pub use recalibrate::{recalibrate, RecalibrationOutcome};
pub use software::{SoftwareConfig, SoftwareSpeculation};
pub use system::{RunStats, SpecRun, SpeculationSystem, StepReport, TracePoint};
pub use testbed::{FirmwareRun, Testbed};
pub use tuning::{measure_line_response, tailor_band, LineResponse};

//! Power and energy models.
//!
//! Voltage speculation's payoff is power: lowering Vdd at constant
//! frequency cuts dynamic power quadratically and leakage (which is
//! steeply voltage-sensitive near threshold) even faster. This crate
//! converts operating conditions into per-core power, derives the rail
//! currents the PDN model needs, and integrates energy over simulated runs.
//!
//! # Calibration
//!
//! The model is anchored per operating point ([`VddMode`](vs_types::VddMode)):
//!
//! * at the nominal point (2.53 GHz, 1.1 V) a fully active core dissipates
//!   ~14 W dynamic + ~3.5 W leakage; with the uncore that lands the 8-core
//!   socket near its 170 W TDP (Table I);
//! * at the low-voltage point (340 MHz, 800 mV) the same effective
//!   capacitance gives ~1 W dynamic, and leakage is anchored at ~0.5 W with
//!   an exponential voltage sensitivity (e-fold every 60 mV, a
//!   near-threshold DIBL slope). With that split, the paper's measured
//!   relationship — an ~8 % average Vdd reduction producing ~33 % average
//!   power savings — reproduces quantitatively:
//!   `0.667 · (0.92)² + 0.333 · 0.92·e^(−64/60) ≈ 0.67`.
//!
//! # Examples
//!
//! ```
//! use vs_power::PowerModel;
//! use vs_types::{Millivolts, VddMode};
//!
//! let model = PowerModel::default();
//! let at_nominal = model.core_power(Millivolts(800), VddMode::LowVoltage, 1.0);
//! let speculated = model.core_power(Millivolts(736), VddMode::LowVoltage, 1.0);
//! let savings = 1.0 - speculated / at_nominal;
//! assert!(savings > 0.25 && savings < 0.40);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod energy;
mod model;
mod thermal;

pub use energy::EnergyMeter;
pub use model::{PowerModel, PowerParams};
pub use thermal::{FanSpeed, ThermalParams, ThermalState};

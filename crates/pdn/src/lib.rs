//! Power-delivery network (PDN) and voltage-regulator models.
//!
//! The effective voltage at the SRAM arrays is never quite the regulator's
//! set point: resistive (IR) drop scales with load current, and the
//! package/die RLC network resonates — a workload that oscillates between
//! high- and low-power phases near the resonance frequency (the paper's
//! FMA/NOP "voltage virus", §IV-B) produces droops several times deeper
//! than its average current alone would. Because the voltage-speculation
//! controller servos on an error rate measured at the *array*, it must see
//! those effects; this crate supplies them.
//!
//! Components:
//!
//! * [`VoltageRegulator`] — a per-domain regulator with a 5 mV step grid
//!   and bounded range; the voltage-control system adjusts its set point.
//! * [`Pdn`] — the passive network: static resistance for IR drop plus a
//!   second-order resonance for AC droop.
//! * [`DomainSupply`] — a regulator + PDN pair that converts a
//!   [`LoadCurrent`] into the effective voltage seen by the arrays.
//!
//! # Examples
//!
//! ```
//! use vs_pdn::{DomainSupply, LoadCurrent};
//! use vs_types::Millivolts;
//!
//! let mut supply = DomainSupply::low_voltage_default();
//! supply.regulator_mut().request(Millivolts(740));
//! supply.settle();
//!
//! let dc = |amps| LoadCurrent { i_dc_amps: amps, ..LoadCurrent::default() };
//! let idle = supply.effective_voltage_mv(&dc(1.0));
//! let busy = supply.effective_voltage_mv(&dc(8.0));
//! assert!(busy < idle, "heavier load means deeper IR drop");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod network;
mod regulator;
mod supply;
#[cfg(test)]
mod transient;

pub use network::{Pdn, PdnParams};
pub use regulator::VoltageRegulator;
pub use supply::{DomainSupply, LoadCurrent};

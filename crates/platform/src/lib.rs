//! The simulated chip multiprocessor.
//!
//! This crate assembles the substrates — SRAM variation physics
//! (`vs-sram`), the ECC-encoded cache hierarchy (`vs-cache`), the
//! power-delivery network (`vs-pdn`), the power model (`vs-power`), and
//! workload profiles (`vs-workload`) — into a machine that behaves like the
//! paper's Itanium 9560 platform from the perspective of the
//! voltage-speculation system:
//!
//! * eight in-order cores grouped two per voltage domain, each domain with
//!   its own regulator and delivery network;
//! * a discrete-time engine ([`Chip::tick`], 1 ms default) that converts
//!   workload demand into rail currents, effective voltages, correctable
//!   and uncorrectable ECC errors, power, and energy;
//! * [`EccCounts`] — the chip's error totals and per-line correctable
//!   counts, which every CE total in the workspace reads;
//! * per-core crash detection (logic floor violations or uncorrectable
//!   errors), the simulator's equivalent of the machine checks that bound
//!   the minimum safe voltage;
//! * a [`vs_sram::CellBank`] per structure ([`Chip::cell_bank`]),
//!   ranking the deterministically weakest cache lines — the lines whose
//!   behaviour the whole paper turns on;
//! * [`characterize`] — the voltage-margin experiments of §II
//!   (Figures 1–4).
//!
//! # Examples
//!
//! ```no_run
//! use vs_platform::{Chip, ChipConfig};
//! use vs_types::{CoreId, DomainId, Millivolts};
//! use vs_workload::StressTest;
//!
//! let mut chip = Chip::new(ChipConfig::low_voltage(42));
//! chip.set_workload(CoreId(0), Box::new(StressTest::default()));
//! chip.request_domain_voltage(DomainId(0), Millivolts(720));
//! for _ in 0..1000 {
//!     let report = chip.tick();
//!     assert!(report.crashes.is_empty(), "720 mV should be safe");
//! }
//! println!("CEs so far: {}", chip.ecc_counts().correctable());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod characterize;
mod chip;
mod config;
mod counts;

pub use chip::{BankMap, Chip, CrashInfo, CrashReason, ProbeOutcome, TickReport};
pub use config::ChipConfig;
pub use counts::EccCounts;

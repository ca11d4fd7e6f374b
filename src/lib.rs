//! # voltspec
//!
//! A full-system simulation and reproduction of **"Using ECC Feedback to
//! Guide Voltage Speculation in Low-Voltage Processors"** (Bacha &
//! Teodorescu, MICRO 2014).
//!
//! Low-voltage operation needs guardbands that can eat most of its energy
//! savings. The paper's insight: ECC-protected cache lines err
//! *deterministically* — the same weak lines, at the same voltages — and at
//! low Vdd the band between the first correctable error and the crash
//! voltage is wide. A tiny hardware monitor that continuously probes each
//! voltage domain's weakest line yields a dense error-rate signal that a
//! controller can servo on, shaving ~8 % of Vdd (and ~33 % of power) with
//! no performance loss.
//!
//! This crate is a facade over the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | units, identifiers, deterministic RNG, statistics |
//! | [`ecc`] | Hsiao SEC-DED codecs |
//! | [`sram`] | process-variation cell model and failure sampling |
//! | [`cache`] | geometry-accurate hierarchy with an encoded data path |
//! | [`pdn`] | regulators, IR drop, resonant droop |
//! | [`power`] | dynamic/leakage power and energy accounting |
//! | [`workload`] | benchmark suites, stress kernels, the voltage virus |
//! | [`platform`] | the simulated CMP, its ECC error counts, and characterization harnesses |
//! | [`spec`] | **the contribution**: monitors, calibration, control, experiments |
//! | [`faults`] | deterministic fault injection (DUEs, crashes, droops) and recovery policies |
//! | [`fleet`] | parallel multi-chip population simulation and statistics |
//! | [`telemetry`] | structured event tracing, metrics registry, profiling spans |
//! | [`guard`] | run supervision: cancellation tokens, watchdogs, crash-safe journaling |
//! | [`sentinel`] | online safety-invariant monitoring over telemetry streams |
//!
//! # Quickstart
//!
//! ```no_run
//! use voltspec::platform::ChipConfig;
//! use voltspec::spec::SpeculationSystem;
//! use voltspec::types::SimTime;
//! use voltspec::workload::Suite;
//!
//! // One simulated die (the seed *is* the silicon). The builder
//! // surfaces bad configs as `Err(ConfigError)` instead of panicking.
//! let mut system = SpeculationSystem::builder(ChipConfig::low_voltage(42))
//!     .build()
//!     .expect("reference config is valid");
//! // Boot-time calibration finds and designates the weak lines.
//! system.calibrate_fast();
//! // Run CoreMark on every core under closed-loop speculation.
//! system.assign_suite(Suite::CoreMark, SimTime::from_secs(30));
//! let stats = system.run(SimTime::from_secs(120));
//! assert!(stats.is_safe());
//! println!(
//!     "mean Vdd {:.0} mV, energy {:.1} J, {} correctable errors",
//!     stats.average_domain_vdd(),
//!     stats.energy_j,
//!     stats.correctable,
//! );
//! ```
//!
//! To regenerate the paper's tables and figures, run the `repro` binary
//! from the `vs-bench` crate: `cargo run --release -p vs-bench --bin repro
//! -- all`.

#![warn(missing_docs)]

pub use vs_cache as cache;
pub use vs_ecc as ecc;
pub use vs_faults as faults;
pub use vs_fleet as fleet;
pub use vs_guard as guard;
pub use vs_pdn as pdn;
pub use vs_platform as platform;
pub use vs_power as power;
pub use vs_sentinel as sentinel;
pub use vs_spec as spec;
pub use vs_sram as sram;
pub use vs_telemetry as telemetry;
pub use vs_types as types;
pub use vs_workload as workload;

/// Workspace version, for reporting tools.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        let mv = crate::types::Millivolts(800);
        assert_eq!(mv.as_volts(), 0.8);
        let code = crate::ecc::SecDed::hsiao_72_64();
        assert_eq!(code.codeword_bits(), 72);
        assert!(!crate::VERSION.is_empty());
    }
}

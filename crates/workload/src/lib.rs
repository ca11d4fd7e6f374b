//! Synthetic workload profiles.
//!
//! The real evaluation ran CoreMark, SPECjbb2005, and SPEC CPU2000 binaries
//! (plus stress tests and a hand-built voltage virus) on HP-UX. Those
//! binaries are unavailable here, and more importantly the speculation
//! system never *sees* a binary — it sees the workload's effect on the
//! power rails (activity, current transients, oscillation) and on the cache
//! (L2 traffic volume, instruction/data split, working-set size). Each
//! workload in this crate is therefore a deterministic generator of those
//! observable [`Demand`] quantities, with per-benchmark character and
//! multi-second phase behaviour.
//!
//! Provided workloads:
//!
//! * [`suites`] — named benchmark profiles grouped into the four suites of
//!   the paper's Table II;
//! * [`StressTest`] — the CPU+cache+memory stress mix used for voltage
//!   margin characterization (§II-A);
//! * [`StressKernel`] — the 30 s on / 30 s off duty-cycled load used for
//!   the activity-variation robustness experiment (§V-D1);
//! * [`VoltageVirus`] — the FMA/NOP resonance virus (§IV-B), parameterized
//!   by NOP count;
//! * [`Idle`] and [`BackToBack`] — composition helpers.
//!
//! # Examples
//!
//! ```
//! use vs_workload::{suites, Workload};
//! use vs_types::SimTime;
//!
//! let mcf = suites::benchmark("mcf").expect("mcf is in SPECint");
//! let d = mcf.demand(SimTime::from_secs(3));
//! assert!(d.l2_accesses_per_ms > 0.0);
//! assert!(d.activity > 0.0 && d.activity < 1.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assignment;
mod bench;
mod demand;
mod stress;
mod virus;

pub use assignment::AssignmentPolicy;
pub use bench::{benchmark, suites, BenchmarkProfile, Suite};
pub use demand::{BackToBack, Demand, Idle, Workload};
pub use stress::{StressKernel, StressTest};
pub use virus::VoltageVirus;

//! Reproduction harness for the paper's evaluation.
//!
//! The `repro` binary exposes one subcommand per table and figure of the
//! paper; this library holds the experiment-to-text plumbing so it can be
//! unit-tested and reused. Every function takes a [`Scale`] so the same
//! code paths serve both the full reproduction (`repro all`) and fast
//! smoke runs (`repro --quick`, and this crate's tests).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crashmatrix;
pub mod figures;
pub mod report;

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale windows and sweeps (minutes of simulated time).
    Full,
    /// Seconds-scale smoke runs for CI and quick iteration.
    Quick,
}

impl Scale {
    /// The default chip seed for reproduction runs (any seed is valid;
    /// this one is the "reference die" the committed EXPERIMENTS.md was
    /// generated with).
    pub const REFERENCE_SEED: u64 = 2014;
}

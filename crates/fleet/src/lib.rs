//! Parallel multi-chip fleet simulation.
//!
//! The paper's population claims — the ~4× chip-to-chip Vmin spread
//! behind Figure 1 and the ~8 % mean Vdd reduction of §V — are statements
//! about *many* chips, not one. This crate turns the single-chip engine
//! (`vs-platform` + `vs-spec`) into a population instrument: it simulates
//! hundreds to thousands of independent dies in parallel and aggregates
//! them into distributions those claims can be asserted over.
//!
//! # Architecture
//!
//! * [`FleetConfig`] — one seed plus a chip count fully describes a
//!   population. Chip `i`'s silicon derives from the pure hash
//!   `FleetSeed::chip_seed(ChipId(i))`; its workloads from an
//!   [`AssignmentPolicy`](vs_workload::AssignmentPolicy) driven by a
//!   per-chip RNG stream.
//! * [`simulate_chip`] — the unit of work: characterize one die, run the
//!   configured [`ControllerVariant`] (hardware monitor, firmware
//!   baseline, or no speculation), normalize against a fixed-nominal
//!   baseline, return a [`ChipSummary`]. Pure function of
//!   `(config, chip_id)`.
//! * [`FleetRunner`] — shards chips across worker threads (dynamic
//!   claiming off an atomic counter, results streamed over a channel),
//!   with optional checkpoint/resume. Jobs run panic-isolated with
//!   bounded retry; chips that keep failing are quarantined and the run
//!   completes with partial results plus a [`DegradationReport`].
//! * [`PopulationStats`] — chip-id-sorted aggregation: Vmin and
//!   first-error distributions, Vdd-reduction histograms, energy-savings
//!   percentiles, crash counts.
//!
//! # Determinism
//!
//! Fleet results are **bit-identical for any worker count**: per-chip
//! randomness is keyed, not shared; workers only *schedule* pure jobs;
//! aggregation sorts by chip id. The same holds across
//! checkpoint/resume — summaries round-trip through the checkpoint file
//! as exact IEEE-754 bit patterns.
//!
//! # Examples
//!
//! ```no_run
//! use vs_fleet::{FleetConfig, FleetRunner};
//! use vs_types::FleetSeed;
//!
//! let config = FleetConfig::new(FleetSeed(2014), 256);
//! let result = FleetRunner::new(config.clone(), 8).run().unwrap();
//! let stats = result.stats(&config);
//! println!("{}", stats.report(config.base_chip.mode.nominal_vdd()));
//! assert!(stats.mean_vdd_reduction() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aggregate;
mod checkpoint;
mod compact;
mod config;
mod degrade;
mod job;
mod journal;
mod runner;
mod summary;

pub use aggregate::{Distribution, Histogram, PopulationStats};
pub use checkpoint::{
    load as load_checkpoint, load_report as load_checkpoint_report,
    load_report_on as load_checkpoint_report_on, save as save_checkpoint,
    save_on as save_checkpoint_on, store_header, CheckpointError, CheckpointLoad,
    CheckpointWarning, STORE_MAGIC,
};
pub use compact::{
    checkpoint_chips, checkpoint_chips_on, compact_streaming, compact_streaming_on,
    read_fingerprint, read_fingerprint_on, CompactionReport,
};
pub use config::{ControllerVariant, FleetConfig, MarginsMode};
pub use degrade::DegradationReport;
pub use job::{simulate_chip, simulate_chip_guarded, simulate_chip_traced};
pub use journal::{replay_journal, replay_journal_on, ChipJournal};
pub use runner::{FleetError, FleetResult, FleetRunner, FleetTrace};
pub use summary::{ChipSummary, CoreMarginSummary};

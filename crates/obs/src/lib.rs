//! The live observability plane for the voltage-speculation fleet.
//!
//! The paper's whole premise is a feedback loop you can *watch*: ECC
//! correction counts stream out of the hardware, the controller reacts,
//! and the margin you saved is visible in the telemetry. This crate
//! gives the simulation stack the matching operational feedback loop —
//! three layers, all std-only and all built on the determinism contract
//! (per-chip event streams are pure functions of `(config, chip,
//! filter)`; nothing here may perturb them):
//!
//! * **Metrics exposition** ([`render_prometheus`], [`PromSnapshot`],
//!   [`names`]) — a hand-rolled Prometheus text encoder over
//!   [`vs_telemetry::MetricsRegistry`], plus the matching parser the
//!   dashboard and the golden tests share. Deterministic: name-sorted
//!   output, shortest-round-trip floats, cumulative histogram buckets.
//! * **Causal span model** ([`span`]) — deterministic span ids for the
//!   job → lane → chip → tick-batch hierarchy and [`span::SpanTree`]
//!   reconstruction from a merged trace. Span ids are pure functions of
//!   position in the hierarchy (the "lane" is `chip mod LANES`, never
//!   the physical worker), and causality rides in explicit `id`/`parent`
//!   links, so the same tree reconstructs under any `--workers` count.
//! * **Crash flight recorder** — fixed-window postmortem
//!   bundles ([`PostmortemBundle`]) dumped on sentinel violations,
//!   worker panics, and watchdog cancellations, written with the
//!   vs-guard journal discipline (per-line CRC32 frames, temp + fsync +
//!   rename) so a bundle either exists intact or not at all.
//!
//! [`render_top`] renders the `repro fleetd top` terminal dashboard from pairs
//! of parsed metrics snapshots.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod flight;
pub mod names;
mod prom;
pub mod span;
mod top;

pub use flight::{
    escape_json_into, read_bundle, write_bundle_on, BundleError, PostmortemBundle,
    PostmortemTrigger, DEFAULT_FLIGHT_CAPACITY,
};
pub use prom::{metric_name, render_prometheus, PromParseError, PromSample, PromSnapshot};
pub use top::render_top;

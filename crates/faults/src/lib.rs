//! Deterministic fault injection for the voltspec stack.
//!
//! The paper's controller operates *inside* the failure region: correctable
//! errors are the signal, detected-uncorrectable errors (DUEs) and crashes
//! are the hazard. This crate supplies the hazard on demand — a seeded,
//! fully deterministic schedule of faults that the speculation loop
//! (`vs-spec`) and the fleet runner (`vs-fleet`) consume to exercise their
//! recovery paths:
//!
//! * [`FaultPlan`] — a declarative schedule of [`ScheduledFault`]s: DUEs,
//!   forced core crashes, transient voltage droops, and monitor-line
//!   stuck-at faults, each fired at a simulated time or when a domain's
//!   effective voltage falls below a threshold, plus injected *worker*
//!   panics that kill fleet jobs from the outside. Plans can be built
//!   explicitly, parsed from a compact CLI spec ([`FaultSpec`]), or drawn
//!   from a seed (`FaultPlan::seeded`).
//! * [`FaultInjector`] — the runtime half: polled once per simulation
//!   tick with the current time and per-domain effective voltages, it
//!   returns the [`FaultAction`]s firing that tick and tracks the active
//!   windows of transient faults (droops, stuck-at) so the consumer also
//!   sees their expirations.
//! * [`RecoveryPolicy`] — tunables of the firmware rollback path: the
//!   simulated latency charged per rollback, the safety margin re-applied
//!   above the last-known-safe voltage, and the per-domain rollback budget
//!   after which a domain is quarantined.
//! * **Chaos tooling** — [`chaos_plan`] draws seeded random compositions
//!   of the whole grammar for soak testing; `FaultAtom` decomposes a
//!   plan into independently removable pieces, [`FaultPlan::to_spec_string`]
//!   prints any plan back as a canonical `--inject` string, and
//!   [`minimize`] delta-debugs a failing plan down to a 1-minimal
//!   reproducer.
//!
//! Everything here is pure data + `CounterRng` streams: the same plan
//! replayed against the same chip produces bit-identical faults, which is
//! what lets fleet traces stay byte-identical across worker counts even
//! with injections enabled.
//!
//! # Examples
//!
//! ```
//! use vs_faults::{FaultAction, FaultInjector, FaultPlan};
//! use vs_types::{DomainId, SimTime};
//!
//! let plan = FaultPlan::new().due_at(SimTime::from_millis(5), DomainId(0));
//! let mut inj = FaultInjector::new(&plan);
//! // Nothing before the scheduled instant...
//! assert!(inj.poll(SimTime::from_millis(4), &[800.0]).is_empty());
//! // ...exactly one DUE at it.
//! assert_eq!(
//!     inj.poll(SimTime::from_millis(5), &[800.0]),
//!     vec![FaultAction::Due { domain: DomainId(0) }],
//! );
//! assert!(inj.is_idle());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod atom;
mod chaos;
mod injector;
mod plan;
mod recovery;
mod shrink;
mod spec;

pub use chaos::{chaos_plan, daemon_chaos_plan, ChaosProfile};
pub use injector::{FaultAction, FaultInjector};
pub use plan::{DaemonFaultKind, FaultKind, FaultPlan, FaultTrigger, ScheduledFault};
pub use recovery::RecoveryPolicy;
pub use shrink::{ddmin, minimize};
pub use spec::FaultSpec;

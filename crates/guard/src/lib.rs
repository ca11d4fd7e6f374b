//! Run supervision for the voltspec stack.
//!
//! The paper's hardware controller must keep servoing safely through
//! droops, errors, and emergencies for the life of the machine; this crate
//! gives the *simulation* the matching process-level resilience. Multi-hour
//! fleet sweeps (the scale of the MPSoC margin-reduction and
//! reduced-voltage-DRAM characterization campaigns the roadmap tracks) get
//! three guarantees:
//!
//! * **Cooperative cancellation** — [`CancelToken`], a cloneable atomic
//!   flag checked inside the fleet worker loop and the per-chip speculation
//!   step loop. Tokens form a parent/child hierarchy: cancelling a parent
//!   cancels every child (the run-wide Ctrl-C token) while a child can be
//!   cancelled alone (one hung chip) without touching its siblings.
//!   [`install_ctrl_c`] wires the run-wide token to SIGINT so an
//!   interrupted sweep flushes a valid checkpoint instead of dying
//!   mid-write; a second Ctrl-C restores the default handler and kills the
//!   process immediately.
//! * **Wall-clock watchdog** — [`Watchdog`], a supervisor thread holding a
//!   registry of [`HeartbeatHandle`]s. Workers beat between simulation
//!   slices; a job that stops beating past its deadline budget has its
//!   token cancelled (and is marked [`HeartbeatHandle::fired`]) so the
//!   owning runner can retry or quarantine the chip without stalling the
//!   rest of the sweep.
//! * **Crash-safe journaling** — [`JournalWriter`] plus the [`frame`] /
//!   [`unframe`] record codec: append-only files of CRC32-checksummed
//!   records, flushed and fsynced per append, so a SIGKILL at any instant
//!   loses at most the record being written (and that record is *detected*
//!   as truncated or corrupt on replay, never silently mis-parsed).
//! * **Atomic whole-file writes** — [`durable::atomic_write`] (temp file,
//!   fsync, rename, directory fsync) is the only way the stack replaces a
//!   file, and [`durable::quarantine`] the only way it moves a damaged one
//!   aside.
//! * **Filesystem fault injection** — the [`fsfault`] module ("FaultyFs"):
//!   both durable write paths above consult a deterministic, counted
//!   fault budget (ENOSPC, short/torn writes, fsync failures) scoped to a
//!   directory prefix, so torture harnesses can prove the recovery story
//!   end to end. With no plan installed the hook is one atomic load.
//!   Fault state belongs to one [`vfs::Vfs`] instance: a plan reaches only
//!   the writes made through the handle it was installed on.
//! * **Crash-consistency checking** — the [`vfs`] module's [`vfs::Vfs`]
//!   seam routes every durable write through either the real filesystem
//!   (`vfs::StdFs`) or a deterministic recorder ([`vfs::SimFs`]) that
//!   can materialize the disk image at any crash point, and
//!   [`crashcheck`] exhaustively explores those points against
//!   caller-supplied recovery invariants.
//!
//! Everything is std-only (the workspace builds offline) and wall-clock
//! state never feeds into simulated results: supervision decides *whether*
//! work ran, never *what* it computed, which is what keeps supervised fleet
//! results bit-identical to unsupervised ones.
//!
//! # Examples
//!
//! ```
//! use vs_guard::{CancelToken, Watchdog};
//! use std::time::Duration;
//!
//! // Hierarchical cancellation: the run token governs every job token.
//! let run = CancelToken::new();
//! let job = run.child();
//! assert!(!job.is_cancelled());
//! run.cancel();
//! assert!(job.is_cancelled(), "children observe parent cancellation");
//!
//! // A watchdog cancels jobs that stop heartbeating.
//! let watchdog = Watchdog::spawn(Duration::from_millis(1));
//! let handle = watchdog.register(Duration::from_millis(5), &CancelToken::new());
//! while !handle.token().is_cancelled() {
//!     std::thread::sleep(Duration::from_millis(1)); // never beats...
//! }
//! assert!(handle.fired(), "...so the watchdog fired");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cancel;
pub mod crashcheck;
mod crc32;
pub mod durable;
pub mod fsfault;
mod journal;
pub mod vfs;
mod watchdog;

pub use cancel::{install_ctrl_c, CancelToken};
pub use crc32::crc32;
pub use journal::{frame, unframe, FrameError, JournalWriter};
pub use watchdog::{parse_duration, HeartbeatHandle, Watchdog};

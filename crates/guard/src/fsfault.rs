//! Deterministic filesystem fault injection ("FaultyFs") for torture
//! testing the daemon tier.
//!
//! The durable-write paths of this crate ([`crate::durable::atomic_write`]
//! and [`crate::JournalWriter`]) consult their filesystem's
//! [`FaultState`] before touching the disk. When no plan is installed the
//! consultation is a single relaxed atomic load — the production fast
//! path. A torture harness installs an [`FsFaultPlan`] scoped to a
//! directory prefix, and writes under that prefix then consume the plan's
//! fault budget in a fixed, deterministic order:
//!
//! 1. **ENOSPC** — the write fails up front with a "no space left on
//!    device" error; nothing reaches the file. Callers classify this by
//!    the error text and can park new work until space returns.
//! 2. **Short writes** — the write fails part-way. A journal append
//!    leaves its torn prefix durable, exactly what a crash mid-`write(2)`
//!    leaves behind, so replay-side truncation detection gets exercised;
//!    an atomic whole-file write discards its temp file instead, so the
//!    previous version stays in place.
//! 3. **Fsync failures** — the data may be in the page cache but the
//!    durability barrier fails; acknowledgement must not be sent.
//!
//! Fault state is **per [`crate::vfs::Vfs`] instance**: every backend,
//! `crate::vfs::StdFs` handles included, owns its own [`FaultState`],
//! so a plan reaches exactly the writes made through the handle it was
//! installed on. Each state also tallies the faults it injected
//! ([`FaultState::counters`], monotone for the state's lifetime) so the
//! observability plane can prove every injected fault was accounted for.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A counted budget of filesystem faults to inject, consumed in the
/// fixed order ENOSPC → short writes → fsync failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsFaultPlan {
    /// Writes that fail up front with "no space left on device".
    pub enospc: u32,
    /// Writes that fail part-way (power-loss truncation).
    pub short_writes: u32,
    /// Durability barriers (fsync) that fail after the data is written.
    pub fsync_failures: u32,
}

impl FsFaultPlan {
    /// True when the plan injects nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.enospc == 0 && self.short_writes == 0 && self.fsync_failures == 0
    }
}

/// Tallies of the faults one [`FaultState`] has injected (monotone, never
/// reset — suitable for Prometheus counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsFaultCounters {
    /// ENOSPC errors injected.
    pub enospc: u64,
    /// Short (torn) writes injected.
    pub short_writes: u64,
    /// Fsync failures injected.
    pub fsync_failures: u64,
}

impl FsFaultCounters {
    /// Total faults injected across all classes.
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.enospc + self.short_writes + self.fsync_failures
    }
}

/// What a hooked write should do, as decided by the installed plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// No fault: perform the write normally.
    Intact,
    /// Write only the first `n` bytes of the payload, then fail with
    /// [`short_write_error`].
    Short(usize),
}

#[derive(Debug)]
struct Scope {
    prefix: PathBuf,
    remaining: FsFaultPlan,
}

/// Per-filesystem-instance fault-injection state: at most one installed
/// [`FsFaultPlan`] scoped to a directory prefix, plus the tallies of the
/// faults it has injected.
///
/// With no plan installed, the write and fsync hooks are a single
/// relaxed atomic load — safe on the production hot path.
#[derive(Debug, Default)]
pub struct FaultState {
    active: AtomicBool,
    scope: Mutex<Option<Scope>>,
    enospc: AtomicU64,
    short_writes: AtomicU64,
    fsync_failures: AtomicU64,
}

impl FaultState {
    /// Installs `plan` for every durable write whose target path starts
    /// with `prefix`, replacing any previously installed plan.
    pub fn install(&self, prefix: &Path, plan: FsFaultPlan) {
        let mut state = self
            .scope
            .lock()
            .expect("fault scope poisoned: a holder panicked");
        *state = Some(Scope {
            prefix: prefix.to_path_buf(),
            remaining: plan,
        });
        self.active.store(!plan.is_empty(), Ordering::Release);
    }

    /// The fault budget still unconsumed, if a plan is installed.
    #[cfg(test)]
    pub(crate) fn remaining(&self) -> Option<FsFaultPlan> {
        self.scope
            .lock()
            .expect("fault scope poisoned: a holder panicked")
            .as_ref()
            .map(|s| s.remaining)
    }

    /// The faults this state has injected so far.
    pub fn counters(&self) -> FsFaultCounters {
        FsFaultCounters {
            enospc: self.enospc.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            fsync_failures: self.fsync_failures.load(Ordering::Relaxed),
        }
    }

    /// Consults the plan before a durable write of `len` bytes to `path`.
    ///
    /// Returns `Err` for an injected ENOSPC (nothing must be written),
    /// `Ok(WriteFault::Short(n))` when only the first `n` bytes should
    /// land, and `Ok(WriteFault::Intact)` otherwise.
    pub(crate) fn write_fault(&self, path: &Path, len: usize) -> io::Result<WriteFault> {
        if !self.active.load(Ordering::Acquire) {
            return Ok(WriteFault::Intact);
        }
        let mut state = self
            .scope
            .lock()
            .expect("fault scope poisoned: a holder panicked");
        let Some(scope) = state.as_mut() else {
            return Ok(WriteFault::Intact);
        };
        if !path.starts_with(&scope.prefix) {
            return Ok(WriteFault::Intact);
        }
        if scope.remaining.enospc > 0 {
            scope.remaining.enospc -= 1;
            self.enospc.fetch_add(1, Ordering::Relaxed);
            return Err(enospc_error());
        }
        if scope.remaining.short_writes > 0 {
            scope.remaining.short_writes -= 1;
            self.short_writes.fetch_add(1, Ordering::Relaxed);
            return Ok(WriteFault::Short(len / 2));
        }
        Ok(WriteFault::Intact)
    }

    /// Consults the plan before an fsync of `path`; `Err` means the
    /// barrier failed and the caller must not acknowledge durability.
    pub(crate) fn sync_fault(&self, path: &Path) -> io::Result<()> {
        if !self.active.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut state = self
            .scope
            .lock()
            .expect("fault scope poisoned: a holder panicked");
        let Some(scope) = state.as_mut() else {
            return Ok(());
        };
        if !path.starts_with(&scope.prefix) {
            return Ok(());
        }
        if scope.remaining.fsync_failures > 0 {
            scope.remaining.fsync_failures -= 1;
            self.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected fault: fsync failed"));
        }
        Ok(())
    }
}

/// The error an injected ENOSPC surfaces as. The text deliberately
/// matches the kernel's, so classification by message ("no space left")
/// treats injected and real exhaustion identically.
fn enospc_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        "injected fault: no space left on device",
    )
}

/// The error a short (torn) write surfaces as.
pub(crate) fn short_write_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::WriteZero,
        "injected fault: short write (power-loss truncation)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_hooks_are_transparent() {
        let state = FaultState::default();
        let p = Path::new("/tmp/anywhere");
        assert_eq!(state.write_fault(p, 100).unwrap(), WriteFault::Intact);
        assert!(state.sync_fault(p).is_ok());
    }

    #[test]
    fn budget_is_consumed_in_order_and_counted() {
        let state = FaultState::default();
        let scope = Path::new("/tmp/vs-fsfault-scope");
        state.install(
            scope,
            FsFaultPlan {
                enospc: 1,
                short_writes: 1,
                fsync_failures: 1,
            },
        );
        let target = scope.join("store/x.journal");
        // ENOSPC first…
        let err = state.write_fault(&target, 10).unwrap_err();
        assert!(err.to_string().contains("no space left"));
        // …then the short write…
        assert_eq!(
            state.write_fault(&target, 10).unwrap(),
            WriteFault::Short(5)
        );
        // …then the budget is dry.
        assert_eq!(state.write_fault(&target, 10).unwrap(), WriteFault::Intact);
        // Fsync budget is independent of the write budget.
        assert!(state.sync_fault(&target).is_err());
        assert!(state.sync_fault(&target).is_ok());
        assert_eq!(state.remaining(), Some(FsFaultPlan::default()));
        // Tallies are exact: the state is local.
        assert_eq!(
            state.counters(),
            FsFaultCounters {
                enospc: 1,
                short_writes: 1,
                fsync_failures: 1,
            }
        );
        assert_eq!(state.counters().total(), 3);
    }

    #[test]
    fn paths_outside_the_scope_are_untouched() {
        let state = FaultState::default();
        state.install(
            Path::new("/tmp/vs-fsfault-only-here"),
            FsFaultPlan {
                enospc: 1,
                ..Default::default()
            },
        );
        let outside = Path::new("/tmp/elsewhere/file");
        assert_eq!(state.write_fault(outside, 10).unwrap(), WriteFault::Intact);
        assert!(state.sync_fault(outside).is_ok());
        // The budget was not consumed by the out-of-scope write.
        assert_eq!(
            state.remaining().unwrap(),
            FsFaultPlan {
                enospc: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn instances_are_independent() {
        let a = FaultState::default();
        let b = FaultState::default();
        let scope = Path::new("/tmp/vs-fsfault-indep");
        a.install(
            scope,
            FsFaultPlan {
                enospc: 1,
                ..Default::default()
            },
        );
        let target = scope.join("f");
        assert!(b.write_fault(&target, 4).is_ok(), "b has no plan");
        assert!(a.write_fault(&target, 4).is_err(), "a consumed its own");
        assert_eq!(b.remaining(), None);
    }
}

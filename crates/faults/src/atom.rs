//! Plan decomposition and canonical unparsing.
//!
//! Delta-debugging a failing [`FaultPlan`] needs two things the plan type
//! does not otherwise expose: a flat list of independently removable
//! pieces ([`FaultAtom`]), and a way to print any plan back into the
//! `--inject` grammar so a minimized plan is a ready-to-paste reproducer.
//! The unparse is *canonical* — times always pick the largest exact unit,
//! fields are emitted in grammar order — so the same plan always prints
//! the same string, which is what makes minimized reproducers
//! byte-comparable across worker counts.

use crate::plan::{DaemonFaultKind, FaultKind, FaultPlan, FaultTrigger, ScheduledFault};
use std::fmt::Write as _;
use vs_types::{ChipId, SimTime};

/// One independently removable piece of a [`FaultPlan`]: a scheduled
/// chip-level fault, a worker panic/hang schedule, the checkpoint
/// I/O-error count, or a daemon-tier fault budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultAtom {
    /// One scheduled chip-level fault.
    Event(ScheduledFault),
    /// `(chip, attempts)`: the chip's worker panics on its first
    /// `attempts` attempts.
    WorkerPanic(ChipId, u32),
    /// `(chip, attempts)`: the chip's worker hangs on its first
    /// `attempts` attempts.
    WorkerHang(ChipId, u32),
    /// The first `n` checkpoint saves fail.
    CheckpointIoErrors(u32),
    /// `(kind, count)`: a counted daemon-tier fault budget.
    Daemon(DaemonFaultKind, u32),
}

impl FaultAtom {
    /// The atom as one `--inject` directive.
    pub(crate) fn to_spec(self) -> String {
        let mut out = String::new();
        match self {
            FaultAtom::Event(f) => write_event(&mut out, &f),
            FaultAtom::WorkerPanic(chip, attempts) => {
                let _ = write!(out, "panic:chip{}", chip.0);
                if attempts != 1 {
                    let _ = write!(out, "x{attempts}");
                }
            }
            FaultAtom::WorkerHang(chip, attempts) => {
                let _ = write!(out, "hang:chip{}", chip.0);
                if attempts != 1 {
                    let _ = write!(out, "x{attempts}");
                }
            }
            FaultAtom::CheckpointIoErrors(n) => {
                let _ = write!(out, "io-error:{n}");
            }
            FaultAtom::Daemon(kind, n) => {
                let _ = write!(out, "daemon:{}:{n}", kind.label());
            }
        }
        out
    }
}

fn write_time(out: &mut String, t: SimTime) {
    let us = t.as_micros();
    if us.is_multiple_of(1_000_000) {
        let _ = write!(out, "{}s", us / 1_000_000);
    } else if us.is_multiple_of(1_000) {
        let _ = write!(out, "{}ms", us / 1_000);
    } else {
        let _ = write!(out, "{us}us");
    }
}

fn write_event(out: &mut String, f: &ScheduledFault) {
    match (f.trigger, f.kind) {
        (FaultTrigger::At(at), FaultKind::Due { domain }) => {
            out.push_str("due@");
            write_time(out, at);
            let _ = write!(out, ":d{}", domain.0);
        }
        (FaultTrigger::At(at), FaultKind::CoreCrash { core }) => {
            out.push_str("crash@");
            write_time(out, at);
            let _ = write!(out, ":c{}", core.0);
        }
        (
            FaultTrigger::At(at),
            FaultKind::Droop {
                domain,
                depth,
                duration,
            },
        ) => {
            out.push_str("droop@");
            write_time(out, at);
            let _ = write!(out, ":d{}:{}mv:", domain.0, depth.0);
            write_time(out, duration);
        }
        (
            FaultTrigger::At(at),
            FaultKind::MonitorStuck {
                domain,
                rate,
                duration,
            },
        ) => {
            out.push_str("stuck@");
            write_time(out, at);
            let _ = write!(out, ":d{}:{rate}:", domain.0);
            write_time(out, duration);
        }
        (FaultTrigger::BelowVoltage { domain, threshold }, FaultKind::CoreCrash { core }) => {
            let _ = write!(out, "crash<{}mv:d{}:c{}", threshold.0, domain.0, core.0);
        }
        // The grammar has no spelling for a voltage-triggered non-crash
        // fault; no builder constructs one, but a hand-built plan could.
        // Render the nearest crash directive so the output still parses.
        (FaultTrigger::BelowVoltage { domain, threshold }, _) => {
            let _ = write!(out, "crash<{}mv:d{}:c0", threshold.0, domain.0);
        }
    }
    if let Some(chip) = f.chip {
        let _ = write!(out, ":chip{}", chip.0);
    }
}

impl FaultPlan {
    /// Decomposes the plan into independently removable atoms, in a
    /// deterministic order: scheduled events first (in plan order), then
    /// panics, hangs, and the I/O-error count.
    pub(crate) fn atoms(&self) -> Vec<FaultAtom> {
        let mut atoms: Vec<FaultAtom> = self
            .events()
            .iter()
            .copied()
            .map(FaultAtom::Event)
            .collect();
        atoms.extend(
            self.worker_panics()
                .iter()
                .map(|&(c, n)| FaultAtom::WorkerPanic(c, n)),
        );
        atoms.extend(
            self.worker_hangs()
                .iter()
                .map(|&(c, n)| FaultAtom::WorkerHang(c, n)),
        );
        if self.checkpoint_io_errors() > 0 {
            atoms.push(FaultAtom::CheckpointIoErrors(self.checkpoint_io_errors()));
        }
        atoms.extend(
            self.daemon_faults()
                .iter()
                .map(|&(k, n)| FaultAtom::Daemon(k, n)),
        );
        atoms
    }

    /// Rebuilds a plan from a subset of atoms (the inverse of
    /// [`FaultPlan::atoms`] when given all of them).
    pub(crate) fn from_atoms(atoms: &[FaultAtom]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for atom in atoms {
            match *atom {
                FaultAtom::Event(f) => plan.push(f),
                FaultAtom::WorkerPanic(chip, attempts) => {
                    plan = plan.worker_panic(chip, attempts);
                }
                FaultAtom::WorkerHang(chip, attempts) => {
                    plan = plan.worker_hang(chip, attempts);
                }
                FaultAtom::CheckpointIoErrors(n) => {
                    plan = plan.checkpoint_io_error(n);
                }
                FaultAtom::Daemon(kind, n) => {
                    plan = plan.daemon_fault(kind, n);
                }
            }
        }
        plan
    }

    /// The whole plan as one `--inject` string, in canonical form: the
    /// same plan always prints the same string, and the string parses
    /// back ([`crate::FaultSpec::parse`]) into an equal plan. An empty plan
    /// prints as the empty string.
    pub fn to_spec_string(&self) -> String {
        self.atoms()
            .iter()
            .map(|a| a.to_spec())
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultSpec;
    use vs_types::{CoreId, DomainId, Millivolts};

    fn full_plan() -> FaultPlan {
        FaultPlan::new()
            .due_at(SimTime::from_millis(500), DomainId(0))
            .crash_at(SimTime::from_secs(1), CoreId(1))
            .crash_below(DomainId(1), Millivolts(650), CoreId(3))
            .droop_at(
                SimTime::from_millis(200),
                DomainId(0),
                Millivolts(80),
                SimTime::from_millis(50),
            )
            .stuck_at(
                SimTime::from_micros(100_500),
                DomainId(1),
                0.25,
                SimTime::from_millis(200),
            )
            .worker_panic(ChipId(3), 2)
            .worker_hang(ChipId(5), 1)
            .checkpoint_io_error(2)
            .daemon_fault(DaemonFaultKind::TornFrame, 2)
            .daemon_fault(DaemonFaultKind::Enospc, 1)
    }

    #[test]
    fn atoms_round_trip_through_from_atoms() {
        let plan = full_plan();
        let atoms = plan.atoms();
        assert_eq!(atoms.len(), 10);
        assert_eq!(FaultPlan::from_atoms(&atoms), plan);
        assert_eq!(FaultPlan::from_atoms(&[]), FaultPlan::new());
    }

    #[test]
    fn spec_string_round_trips_through_the_parser() {
        let plan = full_plan();
        let spec = plan.to_spec_string();
        let reparsed = FaultSpec::parse(&spec).unwrap().materialize(8);
        assert_eq!(reparsed, plan, "spec was: {spec}");
        // Canonical: unparse(parse(unparse(p))) == unparse(p).
        assert_eq!(reparsed.to_spec_string(), spec);
    }

    #[test]
    fn times_pick_the_largest_exact_unit() {
        let plan = FaultPlan::new()
            .due_at(SimTime::from_secs(2), DomainId(0))
            .due_at(SimTime::from_millis(1500), DomainId(0))
            .due_at(SimTime::from_micros(1501), DomainId(0));
        assert_eq!(
            plan.to_spec_string(),
            "due@2s:d0,due@1500ms:d0,due@1501us:d0"
        );
    }

    #[test]
    fn chip_scope_and_counts_are_preserved() {
        let mut plan = FaultPlan::new().worker_panic(ChipId(4), 1);
        plan.push(ScheduledFault {
            chip: Some(ChipId(2)),
            trigger: FaultTrigger::At(SimTime::from_millis(5)),
            kind: FaultKind::Due {
                domain: DomainId(1),
            },
        });
        assert_eq!(plan.to_spec_string(), "due@5ms:d1:chip2,panic:chip4");
        let reparsed = FaultSpec::parse(&plan.to_spec_string())
            .unwrap()
            .materialize(8);
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn daemon_atoms_unparse_canonically() {
        let plan = FaultPlan::new()
            .daemon_fault(DaemonFaultKind::Disconnect, 1)
            .daemon_fault(DaemonFaultKind::Overload, 3);
        assert_eq!(
            plan.to_spec_string(),
            "daemon:disconnect:1,daemon:overload:3"
        );
        let reparsed = FaultSpec::parse(&plan.to_spec_string())
            .unwrap()
            .materialize(4);
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn stuck_rate_round_trips_exactly() {
        for rate in [0.0, 0.1, 0.25, 0.5, 1.0] {
            let plan = FaultPlan::new().stuck_at(
                SimTime::from_millis(10),
                DomainId(0),
                rate,
                SimTime::from_millis(20),
            );
            let reparsed = FaultSpec::parse(&plan.to_spec_string())
                .unwrap()
                .materialize(1);
            assert_eq!(reparsed, plan, "rate {rate}");
        }
    }
}

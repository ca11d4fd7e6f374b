//! The declarative fault schedule.

use vs_types::rng::{splitmix64, CounterRng};
use vs_types::{ChipId, CoreId, DomainId, Millivolts, SimTime};

/// When a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// At a fixed simulated time.
    At(SimTime),
    /// The first tick a domain's effective voltage is observed below a
    /// threshold (the crash-at-undervolt hazard the emergency ceiling
    /// exists to avoid).
    BelowVoltage {
        /// The domain whose rail is watched.
        domain: DomainId,
        /// Fire when `v_eff` drops below this many millivolts.
        threshold: Millivolts,
    },
}

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A detected-uncorrectable ECC error is consumed by a domain: the
    /// firmware machine-check path must roll the domain back.
    Due {
        /// The domain consuming the DUE.
        domain: DomainId,
    },
    /// A core crashes outright (undervolt latch-up, not modeled by the
    /// organic logic-floor path).
    CoreCrash {
        /// The core that dies.
        core: CoreId,
    },
    /// A transient supply droop: the domain's set point is depressed by
    /// `depth` for `duration`, then restored.
    Droop {
        /// The domain whose rail droops.
        domain: DomainId,
        /// How far the set point is depressed.
        depth: Millivolts,
        /// How long the droop lasts.
        duration: SimTime,
    },
    /// The domain's monitor line sticks at a fixed error rate for
    /// `duration` (stuck-at-0 blinds the controller, stuck-at-1 floods it).
    MonitorStuck {
        /// The domain whose monitor sticks.
        domain: DomainId,
        /// The rate the stuck line reports, in `[0, 1]`.
        rate: f64,
        /// How long the fault lasts.
        duration: SimTime,
    },
}

/// A daemon-tier fault class: faults injected into vs-fleetd's transport,
/// store, or admission path rather than into the chip simulation. Counted
/// (each carries a budget of occurrences), consumed by the torture
/// harness, and invisible to the simulation engine — daemon faults never
/// change *what* a sweep computes, only how rough the road there is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DaemonFaultKind {
    /// A client-side frame write is torn mid-frame (a short write followed
    /// by a failed connection); the server sees a truncated frame.
    TornFrame,
    /// A read stalls (slow-loris) for a bounded pause before completing.
    StalledRead,
    /// The connection drops mid-exchange with a reset.
    Disconnect,
    /// A durable store write fails up front with ENOSPC.
    Enospc,
    /// A durable store write persists only a prefix (power-loss
    /// truncation).
    ShortWrite,
    /// A durability barrier (fsync) fails after the data is written.
    FsyncFail,
    /// Extra filler jobs flood the scheduler past admission control.
    Overload,
}

impl DaemonFaultKind {
    /// Every kind, in canonical (spec-string and digest) order.
    pub(crate) const ALL: [DaemonFaultKind; 7] = [
        DaemonFaultKind::TornFrame,
        DaemonFaultKind::StalledRead,
        DaemonFaultKind::Disconnect,
        DaemonFaultKind::Enospc,
        DaemonFaultKind::ShortWrite,
        DaemonFaultKind::FsyncFail,
        DaemonFaultKind::Overload,
    ];

    /// The spec-grammar label (`daemon:<label>:<count>`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            DaemonFaultKind::TornFrame => "torn",
            DaemonFaultKind::StalledRead => "stall",
            DaemonFaultKind::Disconnect => "disconnect",
            DaemonFaultKind::Enospc => "enospc",
            DaemonFaultKind::ShortWrite => "short-write",
            DaemonFaultKind::FsyncFail => "fsync",
            DaemonFaultKind::Overload => "overload",
        }
    }

    /// Parses a spec-grammar label back to a kind.
    pub(crate) fn parse(label: &str) -> Option<DaemonFaultKind> {
        DaemonFaultKind::ALL
            .into_iter()
            .find(|k| k.label() == label)
    }

    fn index(self) -> u64 {
        DaemonFaultKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind present in ALL") as u64
    }
}

/// One fault in a plan: what, when, and (for fleet plans) on which chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// The chip the fault targets; `None` targets every chip (and is the
    /// only sensible value for single-system plans).
    pub chip: Option<ChipId>,
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// What fires.
    pub kind: FaultKind,
}

/// Fraction of chips whose worker job panics (and is retried) once in a
/// [`FaultPlan::seeded`] population.
const SEEDED_PANIC_FRACTION: f64 = 0.25;
/// Expected DUE injections per chip of a seeded population.
const SEEDED_DUES_PER_CHIP: f64 = 0.5;
/// Expected forced core crashes per chip of a seeded population.
const SEEDED_CRASHES_PER_CHIP: f64 = 0.25;
/// Seeded faults are scheduled uniformly inside
/// `[SEEDED_WINDOW_START, SEEDED_WINDOW_END)`.
const SEEDED_WINDOW_START: SimTime = SimTime::from_millis(100);
/// End of the seeded injection window.
const SEEDED_WINDOW_END: SimTime = SimTime::from_millis(1600);

/// A deterministic schedule of faults.
///
/// A plan is pure data: it can be cloned into every fleet worker, scoped
/// to a single chip with [`FaultPlan::for_chip`], and folded into a config
/// fingerprint with [`FaultPlan::digest`]. An empty plan injects nothing
/// and costs nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<ScheduledFault>,
    /// `(chip, attempts)`: the worker job for `chip` panics on its first
    /// `attempts` attempts. Injected at the fleet layer, not in the chip
    /// simulation, so retried attempts replay identically.
    panics: Vec<(ChipId, u32)>,
    /// `(chip, attempts)`: the worker job for `chip` *hangs* (stops
    /// heartbeating, spinning until cancelled) on its first `attempts`
    /// attempts. Exercises the watchdog path: fleet-layer like panics, so
    /// retried attempts replay identically.
    hangs: Vec<(ChipId, u32)>,
    /// The first `n` checkpoint saves of a fleet run fail with an injected
    /// I/O error, exercising the save retry/backoff path deterministically.
    checkpoint_io_errors: u32,
    /// Daemon-tier fault budgets, `(kind, count)` with at most one entry
    /// per kind. Consumed by the vs-fleetd torture harness, never by the
    /// chip simulation.
    daemon: Vec<(DaemonFaultKind, u32)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.panics.is_empty()
            && self.hangs.is_empty()
            && self.checkpoint_io_errors == 0
            && self.daemon.is_empty()
    }

    /// The scheduled chip-level faults.
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// The injected worker panics, as `(chip, attempts)` pairs.
    pub fn worker_panics(&self) -> &[(ChipId, u32)] {
        &self.panics
    }

    /// The injected worker hangs, as `(chip, attempts)` pairs.
    pub(crate) fn worker_hangs(&self) -> &[(ChipId, u32)] {
        &self.hangs
    }

    /// How many checkpoint saves should fail with an injected I/O error.
    pub fn checkpoint_io_errors(&self) -> u32 {
        self.checkpoint_io_errors
    }

    /// Adds a fault.
    pub(crate) fn push(&mut self, fault: ScheduledFault) {
        self.events.push(fault);
    }

    /// Schedules a DUE for `domain` at `at` (builder form).
    pub fn due_at(mut self, at: SimTime, domain: DomainId) -> FaultPlan {
        self.events.push(ScheduledFault {
            chip: None,
            trigger: FaultTrigger::At(at),
            kind: FaultKind::Due { domain },
        });
        self
    }

    /// Schedules a forced crash of `core` at `at` (builder form).
    pub fn crash_at(mut self, at: SimTime, core: CoreId) -> FaultPlan {
        self.events.push(ScheduledFault {
            chip: None,
            trigger: FaultTrigger::At(at),
            kind: FaultKind::CoreCrash { core },
        });
        self
    }

    /// Schedules a crash of `core` the first time `domain` is observed
    /// below `threshold` (builder form).
    pub fn crash_below(
        mut self,
        domain: DomainId,
        threshold: Millivolts,
        core: CoreId,
    ) -> FaultPlan {
        self.events.push(ScheduledFault {
            chip: None,
            trigger: FaultTrigger::BelowVoltage { domain, threshold },
            kind: FaultKind::CoreCrash { core },
        });
        self
    }

    /// Schedules a transient droop (builder form).
    pub fn droop_at(
        mut self,
        at: SimTime,
        domain: DomainId,
        depth: Millivolts,
        duration: SimTime,
    ) -> FaultPlan {
        self.events.push(ScheduledFault {
            chip: None,
            trigger: FaultTrigger::At(at),
            kind: FaultKind::Droop {
                domain,
                depth,
                duration,
            },
        });
        self
    }

    /// Schedules a monitor stuck-at window (builder form).
    pub fn stuck_at(
        mut self,
        at: SimTime,
        domain: DomainId,
        rate: f64,
        duration: SimTime,
    ) -> FaultPlan {
        self.events.push(ScheduledFault {
            chip: None,
            trigger: FaultTrigger::At(at),
            kind: FaultKind::MonitorStuck {
                domain,
                rate,
                duration,
            },
        });
        self
    }

    /// Makes the worker job for `chip` panic on its first `attempts`
    /// attempts (builder form). With a retry budget of `attempts` or more
    /// the chip eventually completes; with less it is quarantined.
    pub fn worker_panic(mut self, chip: ChipId, attempts: u32) -> FaultPlan {
        match self.panics.iter_mut().find(|(c, _)| *c == chip) {
            Some((_, n)) => *n = (*n).max(attempts),
            None => self.panics.push((chip, attempts)),
        }
        self
    }

    /// How many attempts of `chip`'s worker job should panic.
    pub fn panic_attempts(&self, chip: ChipId) -> u32 {
        self.panics
            .iter()
            .find(|(c, _)| *c == chip)
            .map_or(0, |(_, n)| *n)
    }

    /// Makes the worker job for `chip` hang — spin without heartbeating
    /// until its watchdog cancels it — on its first `attempts` attempts
    /// (builder form). With a retry budget of `attempts` or more the chip
    /// eventually completes; with less it is quarantined.
    pub fn worker_hang(mut self, chip: ChipId, attempts: u32) -> FaultPlan {
        match self.hangs.iter_mut().find(|(c, _)| *c == chip) {
            Some((_, n)) => *n = (*n).max(attempts),
            None => self.hangs.push((chip, attempts)),
        }
        self
    }

    /// How many attempts of `chip`'s worker job should hang.
    pub fn hang_attempts(&self, chip: ChipId) -> u32 {
        self.hangs
            .iter()
            .find(|(c, _)| *c == chip)
            .map_or(0, |(_, n)| *n)
    }

    /// Makes the first `n` checkpoint saves fail with an injected I/O
    /// error (builder form). Saturating: combining plans keeps the max.
    pub fn checkpoint_io_error(mut self, n: u32) -> FaultPlan {
        self.checkpoint_io_errors = self.checkpoint_io_errors.max(n);
        self
    }

    /// Budgets `n` occurrences of the daemon-tier fault `kind` (builder
    /// form). Max-merge like panics: combining plans keeps the larger
    /// budget. A zero count is dropped (it injects nothing).
    pub fn daemon_fault(mut self, kind: DaemonFaultKind, n: u32) -> FaultPlan {
        if n == 0 {
            return self;
        }
        match self.daemon.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, have)) => *have = (*have).max(n),
            None => self.daemon.push((kind, n)),
        }
        self
    }

    /// The daemon-tier fault budgets, `(kind, count)` in insertion order.
    pub(crate) fn daemon_faults(&self) -> &[(DaemonFaultKind, u32)] {
        &self.daemon
    }

    /// The budget for one daemon-tier fault kind (0 when absent).
    pub fn daemon_fault_count(&self, kind: DaemonFaultKind) -> u32 {
        self.daemon
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// The plan scoped to one chip: events targeting other chips are
    /// dropped and surviving events lose their chip tag (worker panics are
    /// kept as-is; they are consumed at the fleet layer).
    pub fn for_chip(&self, chip: ChipId) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .filter(|f| f.chip.is_none() || f.chip == Some(chip))
                .map(|f| ScheduledFault { chip: None, ..*f })
                .collect(),
            panics: self.panics.clone(),
            hangs: self.hangs.clone(),
            checkpoint_io_errors: self.checkpoint_io_errors,
            daemon: self.daemon.clone(),
        }
    }

    /// Draws a plan from a seed: a deterministic population of worker
    /// panics, DUEs, and forced crashes across `num_chips` chips. The same
    /// `(seed, num_chips)` always yields the same plan.
    pub(crate) fn seeded(seed: u64, num_chips: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let span = SEEDED_WINDOW_END
            .saturating_sub(SEEDED_WINDOW_START)
            .as_micros();
        for chip in 0..num_chips {
            let mut rng = CounterRng::from_key(seed, &[0xFA_017, chip]);
            // The first draw once picked chips doomed to out-panic any
            // retry budget; none are, but the draw stays so every seeded
            // plan keeps its stream.
            let _ = rng.next_f64();
            if rng.next_f64() < SEEDED_PANIC_FRACTION {
                plan = plan.worker_panic(ChipId(chip), 1);
            }
            let mut schedule = |plan: &mut FaultPlan, expected: f64, is_due: bool| {
                let n = expected.floor() as u64 + u64::from(rng.bernoulli(expected.fract()));
                for _ in 0..n {
                    let at = SEEDED_WINDOW_START + SimTime::from_micros(rng.next_below(span));
                    let kind = if is_due {
                        FaultKind::Due {
                            domain: DomainId(0),
                        }
                    } else {
                        FaultKind::CoreCrash { core: CoreId(0) }
                    };
                    plan.push(ScheduledFault {
                        chip: Some(ChipId(chip)),
                        trigger: FaultTrigger::At(at),
                        kind,
                    });
                }
            };
            schedule(&mut plan, SEEDED_DUES_PER_CHIP, true);
            schedule(&mut plan, SEEDED_CRASHES_PER_CHIP, false);
        }
        plan
    }

    /// A stable 64-bit digest of the plan, for config fingerprints: two
    /// plans digest equal iff they schedule the same faults in the same
    /// order. The empty plan digests to 0.
    pub fn digest(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let mut h = splitmix64(0xFA17_D163);
        let mut mix = |v: u64| h = splitmix64(h ^ v);
        for f in &self.events {
            mix(match f.chip {
                Some(c) => c.0 + 1,
                None => 0,
            });
            match f.trigger {
                FaultTrigger::At(t) => {
                    mix(1);
                    mix(t.as_micros());
                }
                FaultTrigger::BelowVoltage { domain, threshold } => {
                    mix(2);
                    mix(domain.0 as u64);
                    mix(threshold.0 as u64);
                }
            }
            match f.kind {
                FaultKind::Due { domain } => {
                    mix(1);
                    mix(domain.0 as u64);
                }
                FaultKind::CoreCrash { core } => {
                    mix(2);
                    mix(core.0 as u64);
                }
                FaultKind::Droop {
                    domain,
                    depth,
                    duration,
                } => {
                    mix(3);
                    mix(domain.0 as u64);
                    mix(depth.0 as u64);
                    mix(duration.as_micros());
                }
                FaultKind::MonitorStuck {
                    domain,
                    rate,
                    duration,
                } => {
                    mix(4);
                    mix(domain.0 as u64);
                    mix(rate.to_bits());
                    mix(duration.as_micros());
                }
            }
        }
        for &(chip, attempts) in &self.panics {
            mix(5);
            mix(chip.0);
            mix(u64::from(attempts));
        }
        for &(chip, attempts) in &self.hangs {
            mix(6);
            mix(chip.0);
            mix(u64::from(attempts));
        }
        if self.checkpoint_io_errors > 0 {
            mix(7);
            mix(u64::from(self.checkpoint_io_errors));
        }
        for &(kind, n) in &self.daemon {
            mix(8);
            mix(kind.index());
            mix(u64::from(n));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_scoping() {
        let plan = FaultPlan::new()
            .due_at(SimTime::from_millis(10), DomainId(1))
            .crash_at(SimTime::from_millis(20), CoreId(2))
            .worker_panic(ChipId(3), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.panic_attempts(ChipId(3)), 2);
        assert_eq!(plan.panic_attempts(ChipId(4)), 0);

        let mut fleet = plan.clone();
        fleet.push(ScheduledFault {
            chip: Some(ChipId(7)),
            trigger: FaultTrigger::At(SimTime::from_millis(30)),
            kind: FaultKind::Due {
                domain: DomainId(0),
            },
        });
        // Chip 7 sees the shared events plus its own; chip 1 only shared.
        assert_eq!(fleet.for_chip(ChipId(7)).events().len(), 3);
        assert_eq!(fleet.for_chip(ChipId(1)).events().len(), 2);
        assert!(fleet
            .for_chip(ChipId(7))
            .events()
            .iter()
            .all(|f| f.chip.is_none()));
    }

    #[test]
    fn worker_panic_takes_the_max() {
        let plan = FaultPlan::new()
            .worker_panic(ChipId(1), 3)
            .worker_panic(ChipId(1), 1);
        assert_eq!(plan.panic_attempts(ChipId(1)), 3);
        assert_eq!(plan.worker_panics().len(), 1);
    }

    #[test]
    fn hangs_and_io_errors_count_as_content() {
        let plan = FaultPlan::new().worker_hang(ChipId(2), 1);
        assert!(!plan.is_empty());
        assert_eq!(plan.hang_attempts(ChipId(2)), 1);
        assert_eq!(plan.hang_attempts(ChipId(3)), 0);
        // Max-merge, like panics.
        let plan = plan.worker_hang(ChipId(2), 4).worker_hang(ChipId(2), 2);
        assert_eq!(plan.hang_attempts(ChipId(2)), 4);
        assert_eq!(plan.worker_hangs().len(), 1);
        // Scoping keeps hangs (consumed at the fleet layer, like panics).
        assert_eq!(plan.for_chip(ChipId(9)).hang_attempts(ChipId(2)), 4);

        let io = FaultPlan::new().checkpoint_io_error(3);
        assert!(!io.is_empty());
        assert_eq!(io.checkpoint_io_errors(), 3);
        assert_eq!(io.checkpoint_io_error(1).checkpoint_io_errors(), 3);
        assert_eq!(FaultPlan::new().checkpoint_io_errors(), 0);
    }

    #[test]
    fn digest_distinguishes_hangs_from_panics() {
        let panic = FaultPlan::new().worker_panic(ChipId(1), 2);
        let hang = FaultPlan::new().worker_hang(ChipId(1), 2);
        let io = FaultPlan::new().checkpoint_io_error(2);
        assert_ne!(panic.digest(), hang.digest());
        assert_ne!(panic.digest(), io.digest());
        assert_ne!(hang.digest(), io.digest());
        assert_ne!(hang.digest(), 0);
        assert_eq!(
            hang.digest(),
            FaultPlan::new().worker_hang(ChipId(1), 2).digest()
        );
    }

    #[test]
    fn seeded_plan_is_pinned() {
        // `--inject seeded:42` on a 16-chip fleet: the fixed profile and
        // the RNG stream behind it must keep drawing exactly this plan.
        let plan = FaultPlan::seeded(42, 16);
        assert_eq!(
            plan.to_spec_string(),
            "due@1475882us:d0:chip0,due@409679us:d0:chip1,due@1543140us:d0:chip2,\
             due@196447us:d0:chip3,crash@1344366us:c0:chip4,due@1353914us:d0:chip5,\
             due@117906us:d0:chip9,due@1542100us:d0:chip10,due@1443057us:d0:chip12,\
             due@774807us:d0:chip13,crash@746543us:c0:chip15,panic:chip0,panic:chip1,\
             panic:chip8,panic:chip9,panic:chip11,panic:chip14"
        );
        assert_eq!(plan.digest(), 0x4032_c150_1b67_4ad3);
    }

    #[test]
    fn seeded_is_deterministic_and_profile_shaped() {
        let a = FaultPlan::seeded(42, 64);
        let b = FaultPlan::seeded(42, 64);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(43, 64));
        // Roughly a quarter of chips panic once.
        let panics = a.worker_panics().len();
        assert!((4..=30).contains(&panics), "got {panics} panics");
        // Scheduled events exist and fall inside the window.
        assert!(!a.events().is_empty());
        for f in a.events() {
            let FaultTrigger::At(t) = f.trigger else {
                panic!("seeded plans schedule by time")
            };
            assert!(t >= SimTime::from_millis(100) && t < SimTime::from_millis(1600));
            assert!(f.chip.is_some());
        }
    }

    #[test]
    fn daemon_faults_count_as_content_and_max_merge() {
        let plan = FaultPlan::new().daemon_fault(DaemonFaultKind::TornFrame, 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.daemon_fault_count(DaemonFaultKind::TornFrame), 2);
        assert_eq!(plan.daemon_fault_count(DaemonFaultKind::Enospc), 0);
        // Max-merge like panics; zero counts are dropped.
        let plan = plan
            .daemon_fault(DaemonFaultKind::TornFrame, 1)
            .daemon_fault(DaemonFaultKind::TornFrame, 5)
            .daemon_fault(DaemonFaultKind::Overload, 0);
        assert_eq!(plan.daemon_fault_count(DaemonFaultKind::TornFrame), 5);
        assert_eq!(plan.daemon_faults().len(), 1);
        // Scoping keeps daemon faults (they are process-level).
        assert_eq!(
            plan.for_chip(ChipId(3))
                .daemon_fault_count(DaemonFaultKind::TornFrame),
            5
        );
        // Label round-trip for every kind.
        for kind in DaemonFaultKind::ALL {
            assert_eq!(DaemonFaultKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(DaemonFaultKind::parse("not-a-kind"), None);
    }

    #[test]
    fn digest_distinguishes_daemon_kinds_and_counts() {
        let torn = FaultPlan::new().daemon_fault(DaemonFaultKind::TornFrame, 1);
        let stall = FaultPlan::new().daemon_fault(DaemonFaultKind::StalledRead, 1);
        let torn2 = FaultPlan::new().daemon_fault(DaemonFaultKind::TornFrame, 2);
        assert_ne!(torn.digest(), 0);
        assert_ne!(torn.digest(), stall.digest());
        assert_ne!(torn.digest(), torn2.digest());
        assert_ne!(
            torn.digest(),
            FaultPlan::new().checkpoint_io_error(1).digest()
        );
        assert_eq!(
            torn.digest(),
            FaultPlan::new()
                .daemon_fault(DaemonFaultKind::TornFrame, 1)
                .digest()
        );
    }

    #[test]
    fn digest_tracks_content() {
        assert_eq!(FaultPlan::new().digest(), 0);
        let a = FaultPlan::new().due_at(SimTime::from_millis(10), DomainId(0));
        let b = FaultPlan::new().due_at(SimTime::from_millis(10), DomainId(0));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(
            a.digest(),
            FaultPlan::new()
                .due_at(SimTime::from_millis(11), DomainId(0))
                .digest()
        );
        assert_ne!(a.digest(), a.clone().worker_panic(ChipId(0), 1).digest());
    }
}

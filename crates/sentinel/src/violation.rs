//! Typed invariant violations with event-window context.

use std::fmt;
use vs_telemetry::TelemetryEvent;
use vs_types::{ChipId, DomainId, SimTime};

/// The catalogue of safety properties the sentinel checks online.
///
/// Each invariant is *structural*: it holds on a correct stack under any
/// composition of injected faults, so a violation is a bug, never noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every set point a controller requests stays inside the regulator
    /// envelope `[floor, max]` — the voltage never leaves
    /// `[emergency floor, regulator max]`.
    VoltageEnvelope,
    /// Every DUE or crash rollback targets *strictly above* the
    /// last-known-safe set point it was computed from: recovery must add
    /// the safety margin, never subtract it.
    RollbackRaises,
    /// A monitor window above the band ceiling is answered before the next
    /// window closes: the servo returns the error rate toward the 1–5 %
    /// band instead of ignoring an excursion.
    ServoResponse,
    /// An emergency rollback actually raises the set point (or the
    /// regulator is already pinned at its upper clamp).
    EmergencyEffective,
    /// Quarantine is monotonic: a domain is quarantined at most once, and
    /// no controller, monitor, or fault activity appears on it afterwards.
    QuarantineMonotonic,
    /// The rollback budget is honored: a domain never absorbs more than
    /// `max_rollbacks_per_domain + 1` rollbacks without being quarantined,
    /// and is never quarantined before the budget is spent.
    RollbackBudget,
    /// Replayed journal results match checkpointed results for the same
    /// chip (checked by the fleet runner during resume, not from the event
    /// stream).
    CheckpointConsistency,
}

impl Invariant {
    /// Stable lowercase label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Invariant::VoltageEnvelope => "voltage-envelope",
            Invariant::RollbackRaises => "rollback-raises",
            Invariant::ServoResponse => "servo-response",
            Invariant::EmergencyEffective => "emergency-effective",
            Invariant::QuarantineMonotonic => "quarantine-monotonic",
            Invariant::RollbackBudget => "rollback-budget",
            Invariant::CheckpointConsistency => "checkpoint-consistency",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One detected invariant violation.
///
/// Carries where it happened (chip/domain/simulated time), a
/// human-readable detail, and the window of events that led up to it so a
/// report is actionable without re-running the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// The chip the event stream belonged to, when known.
    pub chip: Option<ChipId>,
    /// The affected voltage domain, when the invariant is per-domain.
    pub domain: Option<DomainId>,
    /// Simulated time of the violating event.
    pub at: SimTime,
    /// Human-readable description of what was expected and what was seen.
    pub detail: String,
    /// The last few events before (and including) the violating one.
    pub context: Vec<TelemetryEvent>,
}

impl Violation {
    /// A [`Invariant::CheckpointConsistency`] violation, built by the
    /// fleet runner when a replayed journal record disagrees with the
    /// checkpoint for the same chip.
    pub fn checkpoint_mismatch(chip: ChipId, detail: String) -> Violation {
        Violation {
            invariant: Invariant::CheckpointConsistency,
            chip: Some(chip),
            domain: None,
            at: SimTime::ZERO,
            detail,
            context: Vec::new(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.invariant)?;
        if let Some(chip) = self.chip {
            write!(f, " chip{}", chip.0)?;
        }
        if let Some(domain) = self.domain {
            write!(f, " d{}", domain.0)?;
        }
        write!(f, " @{}us: {}", self.at.as_micros(), self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_site() {
        let v = Violation {
            invariant: Invariant::RollbackRaises,
            chip: Some(ChipId(3)),
            domain: Some(DomainId(1)),
            at: SimTime::from_millis(12),
            detail: "rollback to 690 mV does not clear the safe point 700 mV".into(),
            context: Vec::new(),
        };
        let s = v.to_string();
        assert!(s.contains("rollback-raises"), "{s}");
        assert!(s.contains("chip3"), "{s}");
        assert!(s.contains("d1"), "{s}");
        assert!(s.contains("@12000us"), "{s}");
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let all = [
            Invariant::VoltageEnvelope,
            Invariant::RollbackRaises,
            Invariant::ServoResponse,
            Invariant::EmergencyEffective,
            Invariant::QuarantineMonotonic,
            Invariant::RollbackBudget,
            Invariant::CheckpointConsistency,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }
}

//! The online invariant checker.

use crate::config::SentinelConfig;
use crate::violation::{Invariant, Violation};
use std::collections::VecDeque;
use vs_telemetry::{EventSink, StepDirection, TelemetryEvent};
use vs_types::{ChipId, DomainId, SimTime};

/// Per-domain tracking state.
#[derive(Debug, Clone, Default)]
struct DomainState {
    /// Rollbacks (DUE or crash) seen on this domain.
    rollbacks: u32,
    /// Quarantine events seen on this domain.
    quarantines: u32,
    /// An above-ceiling monitor window awaiting an up-step or emergency:
    /// `(window time, observed rate)`.
    pending_window: Option<(SimTime, f64)>,
}

/// Checks the safety-invariant catalogue online over a telemetry stream.
///
/// Feed events in stream order via [`SentinelMonitor::observe`] (or use
/// the monitor as a [`vs_telemetry::EventSink`]), call
/// [`SentinelMonitor::finish`] when the stream ends, and read the
/// violations. The monitor requires the stream to carry at least
/// [`SentinelConfig::required_categories`]; narrower streams silently
/// disarm the invariants whose inputs are missing.
///
/// A `JobStarted` event resets the per-domain state (a new chip's stream
/// begins), so one monitor can walk a multi-chip fleet trace in which each
/// chip's events form a contiguous run.
#[derive(Debug, Clone)]
pub struct SentinelMonitor {
    config: SentinelConfig,
    chip: Option<ChipId>,
    domains: Vec<DomainState>,
    context: VecDeque<TelemetryEvent>,
    violations: Vec<Violation>,
}

impl SentinelMonitor {
    /// A monitor with no chip association (violations carry `chip: None`
    /// until a `JobStarted` event names one).
    pub(crate) fn new(config: SentinelConfig) -> SentinelMonitor {
        SentinelMonitor {
            config,
            chip: None,
            domains: Vec::new(),
            context: VecDeque::new(),
            violations: Vec::new(),
        }
    }

    /// A monitor whose violations are tagged with `chip` from the start.
    pub fn for_chip(config: SentinelConfig, chip: ChipId) -> SentinelMonitor {
        let mut m = SentinelMonitor::new(config);
        m.chip = Some(chip);
        m
    }

    /// Checks a complete stream in one call: observes every event, then
    /// finishes, and returns the violations.
    #[cfg(test)]
    pub(crate) fn check(config: SentinelConfig, events: &[TelemetryEvent]) -> Vec<Violation> {
        let mut m = SentinelMonitor::new(config);
        for e in events {
            m.observe(e);
        }
        m.finish();
        m.into_violations()
    }

    /// The violations found so far, in stream order.
    #[cfg(test)]
    pub(crate) fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no violation has been found.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Consumes the monitor, returning its violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }

    /// Ends the stream: any above-ceiling window still unanswered becomes
    /// a [`Invariant::ServoResponse`] violation.
    pub fn finish(&mut self) {
        for d in 0..self.domains.len() {
            if let Some((at, rate)) = self.domains[d].pending_window.take() {
                self.report(
                    Invariant::ServoResponse,
                    Some(DomainId(d)),
                    at,
                    format!(
                        "window rate {rate} above ceiling {} was never answered",
                        self.config.ceiling
                    ),
                );
            }
        }
    }

    /// Observes one event in stream order.
    pub fn observe(&mut self, event: &TelemetryEvent) {
        if self.context.len() == self.config.context_window.max(1) {
            self.context.pop_front();
        }
        self.context.push_back(*event);

        match *event {
            TelemetryEvent::JobStarted { chip } => {
                self.chip = Some(chip);
                self.domains.clear();
            }
            TelemetryEvent::JobFinished { .. } => self.finish(),
            TelemetryEvent::MonitorWindow {
                at, domain, rate, ..
            } => {
                self.check_not_quarantined(domain, at, "monitor window");
                if let Some((prev_at, prev_rate)) = self.state(domain).pending_window.take() {
                    self.report(
                        Invariant::ServoResponse,
                        Some(domain),
                        prev_at,
                        format!(
                            "window rate {prev_rate} above ceiling {} was not answered \
                             before the next window closed at {}us",
                            self.config.ceiling,
                            at.as_micros()
                        ),
                    );
                }
                if rate > self.config.ceiling {
                    self.state(domain).pending_window = Some((at, rate));
                }
            }
            TelemetryEvent::VoltageStep {
                at,
                domain,
                direction,
                set_point_mv,
                ..
            } => {
                self.check_not_quarantined(domain, at, "voltage step");
                self.check_envelope(domain, at, set_point_mv);
                if let Some((win_at, win_rate)) = self.state(domain).pending_window.take() {
                    if direction == StepDirection::Down {
                        self.report(
                            Invariant::ServoResponse,
                            Some(domain),
                            at,
                            format!(
                                "window rate {win_rate} above ceiling {} at {}us was answered \
                                 by a *down* step",
                                self.config.ceiling,
                                win_at.as_micros()
                            ),
                        );
                    }
                }
            }
            TelemetryEvent::EmergencyRollback {
                at,
                domain,
                delta_mv,
                set_point_mv,
                rate,
                ..
            } => {
                self.check_not_quarantined(domain, at, "emergency rollback");
                self.check_envelope(domain, at, set_point_mv);
                self.state(domain).pending_window = None;
                if delta_mv <= 0 && set_point_mv < self.config.max_mv {
                    self.report(
                        Invariant::EmergencyEffective,
                        Some(domain),
                        at,
                        format!(
                            "emergency at rate {rate} moved the set point by {delta_mv} mV \
                             to {set_point_mv} mV (not pinned at the {} mV clamp)",
                            self.config.max_mv
                        ),
                    );
                }
            }
            TelemetryEvent::DueConsumed {
                at,
                domain,
                rollback_mv,
                safe_mv,
            } => {
                self.check_not_quarantined(domain, at, "DUE rollback");
                self.check_rollback(domain, at, rollback_mv, safe_mv, "DUE");
            }
            TelemetryEvent::CrashRollback {
                at,
                domain,
                rollback_mv,
                safe_mv,
                ..
            } => {
                self.check_not_quarantined(domain, at, "crash rollback");
                self.check_rollback(domain, at, rollback_mv, safe_mv, "crash");
            }
            TelemetryEvent::Quarantine {
                at,
                domain,
                rollbacks,
            } => {
                let budget = self.config.max_rollbacks_per_domain;
                if self.state(domain).quarantines > 0 {
                    self.report(
                        Invariant::QuarantineMonotonic,
                        Some(domain),
                        at,
                        "domain quarantined twice".to_string(),
                    );
                }
                if rollbacks <= budget {
                    self.report(
                        Invariant::RollbackBudget,
                        Some(domain),
                        at,
                        format!(
                            "quarantined after {rollbacks} rollbacks, \
                             inside the budget of {budget}"
                        ),
                    );
                }
                self.state(domain).quarantines += 1;
                self.state(domain).pending_window = None;
            }
            TelemetryEvent::EccCorrection { at, domain, .. }
            | TelemetryEvent::EccDetection { at, domain, .. } => {
                self.check_not_quarantined(domain, at, "ECC probe");
            }
            // Calibration happens outside the speculation loop; guard
            // events are process-level. Neither feeds an invariant.
            TelemetryEvent::Calibrated { .. }
            | TelemetryEvent::Recalibrated { .. }
            | TelemetryEvent::WatchdogFired { .. }
            | TelemetryEvent::RunInterrupted { .. }
            | TelemetryEvent::JournalReplayed { .. }
            | TelemetryEvent::JournalCompacted { .. }
            | TelemetryEvent::SpanOpen { .. }
            | TelemetryEvent::SpanClose { .. } => {}
        }
    }

    fn state(&mut self, domain: DomainId) -> &mut DomainState {
        if self.domains.len() <= domain.0 {
            self.domains.resize_with(domain.0 + 1, DomainState::default);
        }
        &mut self.domains[domain.0]
    }

    fn check_envelope(&mut self, domain: DomainId, at: SimTime, set_point_mv: i32) {
        if set_point_mv < self.config.floor_mv || set_point_mv > self.config.max_mv {
            self.report(
                Invariant::VoltageEnvelope,
                Some(domain),
                at,
                format!(
                    "set point {set_point_mv} mV outside [{}, {}] mV",
                    self.config.floor_mv, self.config.max_mv
                ),
            );
        }
    }

    fn check_rollback(
        &mut self,
        domain: DomainId,
        at: SimTime,
        rollback_mv: i32,
        safe_mv: i32,
        kind: &str,
    ) {
        if rollback_mv <= safe_mv {
            self.report(
                Invariant::RollbackRaises,
                Some(domain),
                at,
                format!(
                    "{kind} rollback to {rollback_mv} mV does not clear the \
                     last-known-safe point {safe_mv} mV"
                ),
            );
        }
        if rollback_mv < self.config.floor_mv || rollback_mv > self.config.max_mv {
            self.report(
                Invariant::VoltageEnvelope,
                Some(domain),
                at,
                format!(
                    "{kind} rollback target {rollback_mv} mV outside [{}, {}] mV",
                    self.config.floor_mv, self.config.max_mv
                ),
            );
        }
        let budget = self.config.max_rollbacks_per_domain;
        let st = self.state(domain);
        st.rollbacks += 1;
        let count = st.rollbacks;
        let quarantines = st.quarantines;
        if count > budget + 1 && quarantines == 0 {
            self.report(
                Invariant::RollbackBudget,
                Some(domain),
                at,
                format!("{count} rollbacks absorbed without quarantine (budget {budget})"),
            );
        }
    }

    fn check_not_quarantined(&mut self, domain: DomainId, at: SimTime, what: &str) {
        if self.state(domain).quarantines > 0 {
            self.report(
                Invariant::QuarantineMonotonic,
                Some(domain),
                at,
                format!("{what} on a quarantined domain"),
            );
        }
    }

    fn report(
        &mut self,
        invariant: Invariant,
        domain: Option<DomainId>,
        at: SimTime,
        detail: String,
    ) {
        self.violations.push(Violation {
            invariant,
            chip: self.chip,
            domain,
            at,
            detail,
            context: self.context.iter().copied().collect(),
        });
    }
}

impl EventSink for SentinelMonitor {
    fn record(&mut self, event: &TelemetryEvent) {
        self.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::CoreId;

    fn cfg() -> SentinelConfig {
        SentinelConfig::low_voltage()
    }

    fn window(at_ms: u64, rate: f64) -> TelemetryEvent {
        TelemetryEvent::MonitorWindow {
            at: SimTime::from_millis(at_ms),
            domain: DomainId(0),
            accesses: 2500,
            errors: (2500.0 * rate) as u64,
            rate,
        }
    }

    fn step_up(at_ms: u64, set_point_mv: i32) -> TelemetryEvent {
        TelemetryEvent::VoltageStep {
            at: SimTime::from_millis(at_ms),
            domain: DomainId(0),
            direction: StepDirection::Up,
            rate: 0.12,
            delta_mv: 5,
            set_point_mv,
        }
    }

    fn due(at_ms: u64, rollback_mv: i32, safe_mv: i32) -> TelemetryEvent {
        TelemetryEvent::DueConsumed {
            at: SimTime::from_millis(at_ms),
            domain: DomainId(0),
            rollback_mv,
            safe_mv,
        }
    }

    #[test]
    fn clean_servo_stream_has_no_violations() {
        let events = [
            TelemetryEvent::JobStarted { chip: ChipId(2) },
            window(10, 0.002),
            window(20, 0.12),
            step_up(20, 705),
            window(30, 0.03),
            due(35, 710, 700),
            TelemetryEvent::JobFinished {
                chip: ChipId(2),
                sim_time: SimTime::from_millis(40),
                correctable: 10,
                emergencies: 0,
                crashes: 0,
            },
        ];
        assert!(SentinelMonitor::check(cfg(), &events).is_empty());
    }

    #[test]
    fn unanswered_window_is_a_servo_response_violation() {
        let events = [window(10, 0.2), window(20, 0.001)];
        let v = SentinelMonitor::check(cfg(), &events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::ServoResponse);
        assert_eq!(v[0].domain, Some(DomainId(0)));
        // The stream-end path fires too when the window is last.
        let v = SentinelMonitor::check(cfg(), &[window(10, 0.2)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::ServoResponse);
    }

    #[test]
    fn down_step_after_hot_window_is_a_violation() {
        let down = TelemetryEvent::VoltageStep {
            at: SimTime::from_millis(20),
            domain: DomainId(0),
            direction: StepDirection::Down,
            rate: 0.2,
            delta_mv: -5,
            set_point_mv: 695,
        };
        let v = SentinelMonitor::check(cfg(), &[window(20, 0.2), down]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::ServoResponse);
    }

    #[test]
    fn rollback_below_safe_point_is_caught_with_context() {
        let events = [
            TelemetryEvent::JobStarted { chip: ChipId(7) },
            window(10, 0.002),
            due(15, 690, 700),
        ];
        let v = SentinelMonitor::check(cfg(), &events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::RollbackRaises);
        assert_eq!(v[0].chip, Some(ChipId(7)));
        assert_eq!(v[0].at, SimTime::from_millis(15));
        assert!(v[0].detail.contains("690"), "{}", v[0].detail);
        assert_eq!(v[0].context.len(), 3, "carries the event window");
    }

    #[test]
    fn envelope_is_enforced_on_steps_and_rollbacks() {
        let hot = TelemetryEvent::VoltageStep {
            at: SimTime::from_millis(10),
            domain: DomainId(1),
            direction: StepDirection::Up,
            rate: 0.1,
            delta_mv: 5,
            set_point_mv: 905,
        };
        let v = SentinelMonitor::check(cfg(), &[hot]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::VoltageEnvelope);

        let cold = due(10, 495, 490);
        let v = SentinelMonitor::check(cfg(), &[cold]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, Invariant::VoltageEnvelope);
    }

    #[test]
    fn ineffective_emergency_is_caught() {
        let dud = TelemetryEvent::EmergencyRollback {
            at: SimTime::from_millis(10),
            domain: DomainId(0),
            rate: 0.9,
            steps: 5,
            delta_mv: 0,
            set_point_mv: 700,
        };
        let v = SentinelMonitor::check(cfg(), &[dud]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::EmergencyEffective);

        // Pinned at the clamp: an emergency that cannot raise is fine.
        let pinned = TelemetryEvent::EmergencyRollback {
            at: SimTime::from_millis(10),
            domain: DomainId(0),
            rate: 0.9,
            steps: 5,
            delta_mv: 0,
            set_point_mv: 900,
        };
        assert!(SentinelMonitor::check(cfg(), &[pinned]).is_empty());
    }

    #[test]
    fn quarantine_is_monotonic_and_budgeted() {
        let q = |at_ms: u64, rollbacks: u32| TelemetryEvent::Quarantine {
            at: SimTime::from_millis(at_ms),
            domain: DomainId(0),
            rollbacks,
        };
        // Double quarantine.
        let v = SentinelMonitor::check(cfg(), &[q(10, 9), q(20, 9)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::QuarantineMonotonic);
        // Premature quarantine (budget is 8).
        let v = SentinelMonitor::check(cfg(), &[q(10, 3)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::RollbackBudget);
        // Activity after quarantine.
        let v = SentinelMonitor::check(cfg(), &[q(10, 9), window(20, 0.001)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::QuarantineMonotonic);
        assert!(
            v[0].detail.contains("quarantined domain"),
            "{}",
            v[0].detail
        );
    }

    #[test]
    fn rollbacks_past_the_budget_without_quarantine_are_caught() {
        let mut events = Vec::new();
        for i in 0..10u64 {
            events.push(due(10 + i, 710, 700));
        }
        let v = SentinelMonitor::check(cfg(), &events);
        // Budget 8: rollbacks 10 > 9 fires once at the 10th.
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, Invariant::RollbackBudget);
    }

    #[test]
    fn job_started_resets_per_chip_state() {
        let events = [
            window(10, 0.2),
            step_up(10, 705),
            TelemetryEvent::Quarantine {
                at: SimTime::from_millis(20),
                domain: DomainId(0),
                rollbacks: 9,
            },
            TelemetryEvent::JobStarted { chip: ChipId(1) },
            // Same domain id, different chip: not quarantined here.
            window(10, 0.002),
        ];
        assert!(SentinelMonitor::check(cfg(), &events).is_empty());
    }

    #[test]
    fn monitor_is_an_event_sink() {
        let mut m = SentinelMonitor::for_chip(cfg(), ChipId(4));
        let e = due(10, 690, 700);
        let sink: &mut dyn EventSink = &mut m;
        sink.record(&e);
        m.finish();
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].chip, Some(ChipId(4)));
        assert!(!m.is_clean());
    }

    #[test]
    fn crash_rollback_checks_match_due_checks() {
        let bad = TelemetryEvent::CrashRollback {
            at: SimTime::from_millis(10),
            domain: DomainId(0),
            core: CoreId(1),
            rollback_mv: 650,
            safe_mv: 660,
        };
        let v = SentinelMonitor::check(cfg(), &[bad]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, Invariant::RollbackRaises);
        assert!(v[0].detail.contains("crash"), "{}", v[0].detail);
    }
}

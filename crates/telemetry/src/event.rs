//! The typed event layer: what happened, where, and at what simulated
//! time.
//!
//! Every event is a small `Copy` value timestamped in **simulated time
//! only** — no wall clocks anywhere in this module — so an event stream is
//! a pure function of the simulation it was recorded from. That is the
//! property the fleet leans on to produce byte-identical traces under any
//! worker count (wall-clock data lives in [`crate::profile`], which is
//! kept strictly apart from determinism-checked output).

use std::fmt;
use vs_types::{CacheKind, ChipId, CoreId, DomainId, SimTime};

/// Coarse event taxonomy, used for filtering and for the standard metric
/// instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventCategory {
    /// ECC corrections and detections observed by the active monitors.
    Ecc,
    /// Weak-line monitor control-period windows (accesses/errors/rate).
    Monitor,
    /// Controller decisions: voltage steps and emergency rollbacks.
    Controller,
    /// Boot-time calibration and periodic recalibration outcomes.
    Calibration,
    /// Fleet job lifecycle (per-chip start/finish).
    Fleet,
    /// Fault consumption and firmware recovery (DUEs, crash rollbacks,
    /// domain quarantine).
    Fault,
    /// Run supervision decisions: watchdog firings, cooperative
    /// cancellation, journal replay and compaction.
    Guard,
    /// Causal span markers (job → lane → chip → tick-batch open/close).
    /// Deliberately **excluded from [`EventFilter::all`]**: spans are
    /// opt-in structure, and keeping them out of `all()` is what lets a
    /// span-armed build leave every pre-existing trace byte untouched.
    Span,
}

impl EventCategory {
    /// All categories, in serialization order.
    pub(crate) const ALL: [EventCategory; 8] = [
        EventCategory::Ecc,
        EventCategory::Monitor,
        EventCategory::Controller,
        EventCategory::Calibration,
        EventCategory::Fleet,
        EventCategory::Fault,
        EventCategory::Guard,
        EventCategory::Span,
    ];

    /// Stable lowercase label (used by `--trace-filter` and JSONL output).
    pub(crate) fn label(self) -> &'static str {
        match self {
            EventCategory::Ecc => "ecc",
            EventCategory::Monitor => "monitor",
            EventCategory::Controller => "controller",
            EventCategory::Calibration => "calibration",
            EventCategory::Fleet => "fleet",
            EventCategory::Fault => "fault",
            EventCategory::Guard => "guard",
            EventCategory::Span => "span",
        }
    }

    /// Parses a label produced by [`EventCategory::label`].
    pub(crate) fn parse(s: &str) -> Option<EventCategory> {
        EventCategory::ALL.into_iter().find(|c| c.label() == s)
    }

    fn bit(self) -> u8 {
        match self {
            EventCategory::Ecc => 1 << 0,
            EventCategory::Monitor => 1 << 1,
            EventCategory::Controller => 1 << 2,
            EventCategory::Calibration => 1 << 3,
            EventCategory::Fleet => 1 << 4,
            EventCategory::Fault => 1 << 5,
            EventCategory::Guard => 1 << 6,
            EventCategory::Span => 1 << 7,
        }
    }
}

impl fmt::Display for EventCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which event categories a [`Recorder`](crate::Recorder) keeps. A bitmask
/// small enough that the hot-path check is one AND.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventFilter(u8);

impl EventFilter {
    /// Keeps nothing (the no-op configuration; emission short-circuits).
    pub const fn none() -> EventFilter {
        EventFilter(0)
    }

    /// Keeps every *observation* category. [`EventCategory::Span`] is
    /// deliberately not included: span markers are opt-in structure
    /// (`EventFilter::parse("span")` or an explicit
    /// [`EventFilter::of`]), so pre-span traces keep their exact bytes.
    pub const fn all() -> EventFilter {
        EventFilter(0b111_1111)
    }

    /// Keeps exactly the given categories.
    pub fn of(categories: &[EventCategory]) -> EventFilter {
        EventFilter(categories.iter().fold(0, |m, c| m | c.bit()))
    }

    /// Parses a comma-separated category list (`"ecc,controller,fleet"`).
    /// Returns `None` on any unknown category name.
    pub fn parse(list: &str) -> Option<EventFilter> {
        let mut mask = 0;
        for part in list.split(',').filter(|p| !p.is_empty()) {
            mask |= EventCategory::parse(part.trim())?.bit();
        }
        Some(EventFilter(mask))
    }

    /// True when no category is kept.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when `category` is kept.
    #[inline]
    pub fn accepts(self, category: EventCategory) -> bool {
        self.0 & category.bit() != 0
    }

    /// The filter keeping everything either side keeps. Used by consumers
    /// that need extra categories beyond what the caller asked to record
    /// (e.g. an invariant monitor riding along a filtered trace).
    pub fn union(self, other: EventFilter) -> EventFilter {
        EventFilter(self.0 | other.0)
    }
}

/// The direction of a controller voltage step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepDirection {
    /// Error rate below the floor: the set point moved down.
    Down,
    /// Error rate above the ceiling: the set point moved up.
    Up,
}

impl StepDirection {
    /// Stable lowercase label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            StepDirection::Down => "down",
            StepDirection::Up => "up",
        }
    }
}

/// The level of a causal span within one fleet run's hierarchy.
///
/// Spans nest strictly: a run has one `Job` span, a job has a fixed set
/// of `Lane` spans (virtual lanes — *not* physical worker threads, whose
/// assignment is scheduling-dependent), each lane owns its chips' `Chip`
/// spans, and a chip's simulation is divided into `Batch` spans, one per
/// tick-batch slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanLevel {
    /// The whole fleet run (one per trace).
    Job,
    /// A deterministic virtual lane (`chip mod lane-count`).
    Lane,
    /// One chip's simulation.
    Chip,
    /// One tick-batch slice of a chip's simulation.
    Batch,
}

impl SpanLevel {
    /// All levels, outermost first.
    #[cfg(test)]
    pub(crate) const ALL: [SpanLevel; 4] = [
        SpanLevel::Job,
        SpanLevel::Lane,
        SpanLevel::Chip,
        SpanLevel::Batch,
    ];

    /// Stable lowercase label (the JSONL `"level"` field).
    pub(crate) fn label(self) -> &'static str {
        match self {
            SpanLevel::Job => "job",
            SpanLevel::Lane => "lane",
            SpanLevel::Chip => "chip",
            SpanLevel::Batch => "batch",
        }
    }

    /// Parses a label produced by [`SpanLevel::label`].
    #[cfg(test)]
    pub(crate) fn parse(s: &str) -> Option<SpanLevel> {
        SpanLevel::ALL.into_iter().find(|l| l.label() == s)
    }
}

impl fmt::Display for SpanLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured telemetry event.
///
/// Variants are grouped by [`EventCategory`]; all payloads are plain
/// numbers and ids so the whole enum stays `Copy` (pushing one onto a
/// pre-sized ring allocates nothing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// Correctable ECC errors observed during one tick's monitor probes.
    EccCorrection {
        /// Simulated time of the tick.
        at: SimTime,
        /// The voltage domain whose monitor saw them.
        domain: DomainId,
        /// Core hosting the monitored line.
        core: CoreId,
        /// Corrections this tick.
        count: u64,
    },
    /// Uncorrectable (detected-only) ECC events during one tick's probes —
    /// the domain voltage is catastrophically low.
    EccDetection {
        /// Simulated time of the tick.
        at: SimTime,
        /// The voltage domain whose monitor saw them.
        domain: DomainId,
        /// Core hosting the monitored line.
        core: CoreId,
        /// Detections this tick.
        count: u64,
    },
    /// One control-period window of the weak-line monitor: the counters
    /// the control law read before resetting them.
    MonitorWindow {
        /// Simulated time of the control-period boundary.
        at: SimTime,
        /// The domain whose window closed.
        domain: DomainId,
        /// Probe accesses in the window.
        accesses: u64,
        /// Correctable errors in the window.
        errors: u64,
        /// `errors / accesses`.
        rate: f64,
    },
    /// The control law moved the domain set point by one ±5 mV step.
    VoltageStep {
        /// Simulated time of the decision.
        at: SimTime,
        /// The stepped domain.
        domain: DomainId,
        /// Which way it moved.
        direction: StepDirection,
        /// The window error rate that triggered the step.
        rate: f64,
        /// Set-point change, in millivolts (signed).
        delta_mv: i32,
        /// The set point requested after the step, in millivolts.
        set_point_mv: i32,
    },
    /// The emergency interrupt path fired: the monitor saw an error rate
    /// at or above the emergency ceiling and the domain was bumped by the
    /// large increment immediately.
    EmergencyRollback {
        /// Simulated time the interrupt fired.
        at: SimTime,
        /// The rescued domain.
        domain: DomainId,
        /// The observed error rate.
        rate: f64,
        /// Regulator steps applied at once.
        steps: u32,
        /// Set-point change, in millivolts.
        delta_mv: i32,
        /// The set point requested after the bump, in millivolts.
        set_point_mv: i32,
    },
    /// Boot-time calibration designated a domain's monitored line.
    Calibrated {
        /// Simulated time calibration finished.
        at: SimTime,
        /// The calibrated domain.
        domain: DomainId,
        /// Core whose cache hosts the designated line.
        core: CoreId,
        /// Which L2 structure it is in.
        kind: CacheKind,
        /// Cache set of the line.
        set: u32,
        /// Way of the line.
        way: u32,
        /// Voltage at which the line first erred, in millivolts.
        onset_mv: i32,
    },
    /// Periodic recalibration re-ranked a domain's weak lines.
    Recalibrated {
        /// Simulated time of the recalibration.
        at: SimTime,
        /// The domain.
        domain: DomainId,
        /// Whether the monitor was retargeted at a different line.
        changed: bool,
        /// The new (aged) onset estimate, in millivolts.
        onset_mv: i32,
    },
    /// A fleet worker started simulating a chip.
    JobStarted {
        /// The chip.
        chip: ChipId,
    },
    /// A fleet worker finished a chip.
    JobFinished {
        /// The chip.
        chip: ChipId,
        /// Simulated duration of its speculation run.
        sim_time: SimTime,
        /// Correctable errors over the run.
        correctable: u64,
        /// Emergency interrupts over the run.
        emergencies: u64,
        /// Cores that crashed (0 in a healthy fleet).
        crashes: u64,
    },
    /// A detected-uncorrectable ECC error was consumed by a domain and the
    /// firmware machine-check path rolled it back to its last-known-safe
    /// set point.
    DueConsumed {
        /// Simulated time the DUE was consumed.
        at: SimTime,
        /// The affected domain.
        domain: DomainId,
        /// The set point requested by the rollback, in millivolts.
        rollback_mv: i32,
        /// The last-known-safe set point the rollback was computed from,
        /// in millivolts. A correct recovery path always requests strictly
        /// above this value (safe point plus the safety margin) — the
        /// invariant the sentinel checks.
        safe_mv: i32,
    },
    /// A core crashed and the recovery path restarted it after rolling its
    /// domain back to the last-known-safe set point.
    CrashRollback {
        /// Simulated time of the recovery.
        at: SimTime,
        /// The affected domain.
        domain: DomainId,
        /// The core that was restarted.
        core: CoreId,
        /// The set point requested by the rollback, in millivolts.
        rollback_mv: i32,
        /// The last-known-safe set point the rollback was computed from,
        /// in millivolts (see [`TelemetryEvent::DueConsumed`]).
        safe_mv: i32,
    },
    /// A domain exhausted its rollback budget and was quarantined: parked
    /// at nominal with speculation disabled for the rest of the run.
    Quarantine {
        /// Simulated time of the quarantine.
        at: SimTime,
        /// The quarantined domain.
        domain: DomainId,
        /// Rollbacks the domain had absorbed when it was parked.
        rollbacks: u32,
    },
    /// The wall-clock watchdog cancelled a chip's job attempt for missing
    /// its heartbeat budget. The attempt counts as failed and is retried
    /// under the normal retry policy. Deliberately carries no wall-clock
    /// payload: traces stay a pure function of the fault plan.
    WatchdogFired {
        /// The supervised chip.
        chip: ChipId,
        /// The attempt that was cancelled (0-based, like retry counting).
        attempt: u32,
    },
    /// The run was cancelled cooperatively (Ctrl-C or an owner-side
    /// cancel) and wound down after flushing a valid checkpoint.
    RunInterrupted {
        /// Chips that had completed when the cancellation was observed.
        completed: u64,
        /// Chips the run was asked to simulate.
        total: u64,
    },
    /// Progress-journal records were replayed into the resume state.
    JournalReplayed {
        /// Chips recovered from the journal (beyond the checkpoint).
        chips: u64,
    },
    /// The progress journal was compacted into the checkpoint: every
    /// journaled chip is now in the checkpoint and the journal restarts
    /// empty.
    JournalCompacted {
        /// Chips carried by the checkpoint after compaction.
        chips: u64,
    },
    /// A causal span opened. The `id`/`parent` pair encodes the causal
    /// tree explicitly, so a job's hierarchy reconstructs from a merged
    /// trace by link-chasing — stream position carries no meaning, which
    /// is what keeps span traces byte-identical under any worker count.
    SpanOpen {
        /// Simulated time the span opened (`ZERO` for process-level
        /// spans, which have no simulated clock).
        at: SimTime,
        /// The span's id (unique within one trace; a pure function of
        /// the span's position in the hierarchy).
        id: u64,
        /// The parent span's id (0 for the root job span).
        parent: u64,
        /// Where in the hierarchy this span sits.
        level: SpanLevel,
        /// The level-specific identity: job number, lane index, chip id,
        /// or batch index.
        ident: u64,
    },
    /// A causal span closed.
    SpanClose {
        /// Simulated time the span closed.
        at: SimTime,
        /// The id given by the matching [`TelemetryEvent::SpanOpen`].
        id: u64,
        /// Observation events enclosed by the span (direct and nested).
        events: u64,
    },
}

impl TelemetryEvent {
    /// The event's category (what filters and metrics key on).
    pub fn category(&self) -> EventCategory {
        match self {
            TelemetryEvent::EccCorrection { .. } | TelemetryEvent::EccDetection { .. } => {
                EventCategory::Ecc
            }
            TelemetryEvent::MonitorWindow { .. } => EventCategory::Monitor,
            TelemetryEvent::VoltageStep { .. } | TelemetryEvent::EmergencyRollback { .. } => {
                EventCategory::Controller
            }
            TelemetryEvent::Calibrated { .. } | TelemetryEvent::Recalibrated { .. } => {
                EventCategory::Calibration
            }
            TelemetryEvent::JobStarted { .. } | TelemetryEvent::JobFinished { .. } => {
                EventCategory::Fleet
            }
            TelemetryEvent::DueConsumed { .. }
            | TelemetryEvent::CrashRollback { .. }
            | TelemetryEvent::Quarantine { .. } => EventCategory::Fault,
            TelemetryEvent::WatchdogFired { .. }
            | TelemetryEvent::RunInterrupted { .. }
            | TelemetryEvent::JournalReplayed { .. }
            | TelemetryEvent::JournalCompacted { .. } => EventCategory::Guard,
            TelemetryEvent::SpanOpen { .. } | TelemetryEvent::SpanClose { .. } => {
                EventCategory::Span
            }
        }
    }

    /// Stable lowercase name of the variant (the JSONL `"event"` field).
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::EccCorrection { .. } => "ecc_correction",
            TelemetryEvent::EccDetection { .. } => "ecc_detection",
            TelemetryEvent::MonitorWindow { .. } => "monitor_window",
            TelemetryEvent::VoltageStep { .. } => "voltage_step",
            TelemetryEvent::EmergencyRollback { .. } => "emergency_rollback",
            TelemetryEvent::Calibrated { .. } => "calibrated",
            TelemetryEvent::Recalibrated { .. } => "recalibrated",
            TelemetryEvent::JobStarted { .. } => "job_started",
            TelemetryEvent::JobFinished { .. } => "job_finished",
            TelemetryEvent::DueConsumed { .. } => "due_consumed",
            TelemetryEvent::CrashRollback { .. } => "crash_rollback",
            TelemetryEvent::Quarantine { .. } => "quarantine",
            TelemetryEvent::WatchdogFired { .. } => "watchdog_fired",
            TelemetryEvent::RunInterrupted { .. } => "run_interrupted",
            TelemetryEvent::JournalReplayed { .. } => "journal_replayed",
            TelemetryEvent::JournalCompacted { .. } => "journal_compacted",
            TelemetryEvent::SpanOpen { .. } => "span_open",
            TelemetryEvent::SpanClose { .. } => "span_close",
        }
    }

    /// Simulated timestamp of the event. Job-lifecycle events are pinned
    /// to the run boundaries (start at time zero, finish at the run's
    /// simulated duration).
    pub(crate) fn at(&self) -> SimTime {
        match *self {
            TelemetryEvent::EccCorrection { at, .. }
            | TelemetryEvent::EccDetection { at, .. }
            | TelemetryEvent::MonitorWindow { at, .. }
            | TelemetryEvent::VoltageStep { at, .. }
            | TelemetryEvent::EmergencyRollback { at, .. }
            | TelemetryEvent::Calibrated { at, .. }
            | TelemetryEvent::Recalibrated { at, .. }
            | TelemetryEvent::DueConsumed { at, .. }
            | TelemetryEvent::CrashRollback { at, .. }
            | TelemetryEvent::Quarantine { at, .. }
            | TelemetryEvent::SpanOpen { at, .. }
            | TelemetryEvent::SpanClose { at, .. } => at,
            TelemetryEvent::JobStarted { .. } => SimTime::ZERO,
            TelemetryEvent::JobFinished { sim_time, .. } => sim_time,
            // Guard events are process-level: no simulated clock applies,
            // so they pin to time zero (keeping traces wall-clock-free).
            TelemetryEvent::WatchdogFired { .. }
            | TelemetryEvent::RunInterrupted { .. }
            | TelemetryEvent::JournalReplayed { .. }
            | TelemetryEvent::JournalCompacted { .. } => SimTime::ZERO,
        }
    }

    /// Appends the event as one JSON object (no trailing newline) to
    /// `out`. Hand-rolled — the workspace builds offline with no serde —
    /// and deterministic: field order is fixed and floats are rendered
    /// with Rust's shortest round-trip formatting.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"event\":\"{}\",\"category\":\"{}\",\"at_us\":{}",
            self.name(),
            self.category().label(),
            self.at().as_micros()
        );
        match *self {
            TelemetryEvent::EccCorrection {
                domain,
                core,
                count,
                ..
            }
            | TelemetryEvent::EccDetection {
                domain,
                core,
                count,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"domain\":{},\"core\":{},\"count\":{}",
                    domain.0, core.0, count
                );
            }
            TelemetryEvent::MonitorWindow {
                domain,
                accesses,
                errors,
                rate,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"domain\":{},\"accesses\":{},\"errors\":{},\"rate\":{}",
                    domain.0,
                    accesses,
                    errors,
                    JsonF64(rate)
                );
            }
            TelemetryEvent::VoltageStep {
                domain,
                direction,
                rate,
                delta_mv,
                set_point_mv,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"domain\":{},\"direction\":\"{}\",\"rate\":{},\"delta_mv\":{},\"set_point_mv\":{}",
                    domain.0,
                    direction.label(),
                    JsonF64(rate),
                    delta_mv,
                    set_point_mv
                );
            }
            TelemetryEvent::EmergencyRollback {
                domain,
                rate,
                steps,
                delta_mv,
                set_point_mv,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"domain\":{},\"rate\":{},\"steps\":{},\"delta_mv\":{},\"set_point_mv\":{}",
                    domain.0,
                    JsonF64(rate),
                    steps,
                    delta_mv,
                    set_point_mv
                );
            }
            TelemetryEvent::Calibrated {
                domain,
                core,
                kind,
                set,
                way,
                onset_mv,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"domain\":{},\"core\":{},\"kind\":\"{}\",\"set\":{},\"way\":{},\"onset_mv\":{}",
                    domain.0, core.0, kind, set, way, onset_mv
                );
            }
            TelemetryEvent::Recalibrated {
                domain,
                changed,
                onset_mv,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"domain\":{},\"changed\":{},\"onset_mv\":{}",
                    domain.0, changed, onset_mv
                );
            }
            TelemetryEvent::JobStarted { chip } => {
                let _ = write!(out, ",\"chip\":{}", chip.0);
            }
            TelemetryEvent::JobFinished {
                chip,
                correctable,
                emergencies,
                crashes,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"chip\":{},\"correctable\":{},\"emergencies\":{},\"crashes\":{}",
                    chip.0, correctable, emergencies, crashes
                );
            }
            TelemetryEvent::DueConsumed {
                domain,
                rollback_mv,
                safe_mv,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"domain\":{},\"rollback_mv\":{},\"safe_mv\":{}",
                    domain.0, rollback_mv, safe_mv
                );
            }
            TelemetryEvent::CrashRollback {
                domain,
                core,
                rollback_mv,
                safe_mv,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"domain\":{},\"core\":{},\"rollback_mv\":{},\"safe_mv\":{}",
                    domain.0, core.0, rollback_mv, safe_mv
                );
            }
            TelemetryEvent::Quarantine {
                domain, rollbacks, ..
            } => {
                let _ = write!(out, ",\"domain\":{},\"rollbacks\":{}", domain.0, rollbacks);
            }
            TelemetryEvent::WatchdogFired { chip, attempt } => {
                let _ = write!(out, ",\"chip\":{},\"attempt\":{}", chip.0, attempt);
            }
            TelemetryEvent::RunInterrupted { completed, total } => {
                let _ = write!(out, ",\"completed\":{completed},\"total\":{total}");
            }
            TelemetryEvent::JournalReplayed { chips } => {
                let _ = write!(out, ",\"chips\":{chips}");
            }
            TelemetryEvent::JournalCompacted { chips } => {
                let _ = write!(out, ",\"chips\":{chips}");
            }
            TelemetryEvent::SpanOpen {
                id,
                parent,
                level,
                ident,
                ..
            } => {
                // Span ids are bit-packed u64s; hex keeps the level tag in
                // the top bits legible and sidesteps the 2^53 precision
                // cliff of numeric JSON consumers.
                let _ = write!(
                    out,
                    ",\"id\":\"{id:016x}\",\"parent\":\"{parent:016x}\",\"level\":\"{}\",\"ident\":{ident}",
                    level.label()
                );
            }
            TelemetryEvent::SpanClose { id, events, .. } => {
                let _ = write!(out, ",\"id\":\"{id:016x}\",\"events\":{events}");
            }
        }
        out.push('}');
    }
}

/// Deterministic JSON rendering for `f64`: shortest round-trip decimal,
/// with the non-finite values JSON cannot express mapped to `null`.
struct JsonF64(f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parse_round_trips() {
        let f = EventFilter::parse("ecc,controller,fleet").unwrap();
        assert!(f.accepts(EventCategory::Ecc));
        assert!(f.accepts(EventCategory::Controller));
        assert!(f.accepts(EventCategory::Fleet));
        assert!(!f.accepts(EventCategory::Monitor));
        assert!(!f.accepts(EventCategory::Calibration));
        assert_eq!(EventFilter::parse("ecc,bogus"), None);
        assert!(EventFilter::parse("").unwrap().is_empty());
        assert!(EventFilter::none().is_empty());
        let merged = EventFilter::of(&[EventCategory::Ecc]).union(EventFilter::of(&[
            EventCategory::Monitor,
            EventCategory::Ecc,
        ]));
        assert!(merged.accepts(EventCategory::Ecc));
        assert!(merged.accepts(EventCategory::Monitor));
        assert!(!merged.accepts(EventCategory::Guard));
        assert_eq!(
            EventFilter::all().union(EventFilter::none()),
            EventFilter::all()
        );
        for c in EventCategory::ALL {
            // `all()` covers every observation category; Span alone is
            // opt-in, so armed span tracing never perturbs `all()` traces.
            assert_eq!(
                EventFilter::all().accepts(c),
                c != EventCategory::Span,
                "all() must accept {c} iff it is not the span category"
            );
            assert_eq!(EventCategory::parse(c.label()), Some(c));
        }
        let spans = EventFilter::parse("span").unwrap();
        assert!(spans.accepts(EventCategory::Span));
        assert!(!spans.accepts(EventCategory::Ecc));
        assert!(EventFilter::all().union(spans).accepts(EventCategory::Span));
    }

    #[test]
    fn event_categories_and_timestamps() {
        let step = TelemetryEvent::VoltageStep {
            at: SimTime::from_millis(10),
            domain: DomainId(0),
            direction: StepDirection::Down,
            rate: 0.002,
            delta_mv: -5,
            set_point_mv: 795,
        };
        assert_eq!(step.category(), EventCategory::Controller);
        assert_eq!(step.at(), SimTime::from_millis(10));
        let started = TelemetryEvent::JobStarted { chip: ChipId(3) };
        assert_eq!(started.category(), EventCategory::Fleet);
        assert_eq!(started.at(), SimTime::ZERO);
    }

    #[test]
    fn json_is_stable_and_parseable_shape() {
        let mut out = String::new();
        TelemetryEvent::EmergencyRollback {
            at: SimTime::from_millis(42),
            domain: DomainId(1),
            rate: 0.9375,
            steps: 5,
            delta_mv: 25,
            set_point_mv: 700,
        }
        .write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"emergency_rollback\",\"category\":\"controller\",\
             \"at_us\":42000,\"domain\":1,\"rate\":0.9375,\"steps\":5,\
             \"delta_mv\":25,\"set_point_mv\":700}"
        );
    }

    #[test]
    fn fault_events_have_stable_shape() {
        let due = TelemetryEvent::DueConsumed {
            at: SimTime::from_millis(7),
            domain: DomainId(2),
            rollback_mv: 730,
            safe_mv: 720,
        };
        assert_eq!(due.category(), EventCategory::Fault);
        assert_eq!(due.at(), SimTime::from_millis(7));
        let mut out = String::new();
        due.write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"due_consumed\",\"category\":\"fault\",\
             \"at_us\":7000,\"domain\":2,\"rollback_mv\":730,\"safe_mv\":720}"
        );

        out.clear();
        TelemetryEvent::CrashRollback {
            at: SimTime::from_millis(8),
            domain: DomainId(1),
            core: CoreId(3),
            rollback_mv: 725,
            safe_mv: 715,
        }
        .write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"crash_rollback\",\"category\":\"fault\",\
             \"at_us\":8000,\"domain\":1,\"core\":3,\"rollback_mv\":725,\"safe_mv\":715}"
        );

        out.clear();
        TelemetryEvent::Quarantine {
            at: SimTime::from_millis(9),
            domain: DomainId(0),
            rollbacks: 9,
        }
        .write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"quarantine\",\"category\":\"fault\",\
             \"at_us\":9000,\"domain\":0,\"rollbacks\":9}"
        );
        assert!(EventFilter::all().accepts(EventCategory::Fault));
        assert!(EventFilter::parse("fault")
            .unwrap()
            .accepts(EventCategory::Fault));
    }

    #[test]
    fn guard_events_have_stable_shape() {
        let fired = TelemetryEvent::WatchdogFired {
            chip: ChipId(5),
            attempt: 1,
        };
        assert_eq!(fired.category(), EventCategory::Guard);
        assert_eq!(fired.at(), SimTime::ZERO, "guard events carry no sim clock");
        let mut out = String::new();
        fired.write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"watchdog_fired\",\"category\":\"guard\",\
             \"at_us\":0,\"chip\":5,\"attempt\":1}"
        );

        out.clear();
        TelemetryEvent::RunInterrupted {
            completed: 12,
            total: 64,
        }
        .write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"run_interrupted\",\"category\":\"guard\",\
             \"at_us\":0,\"completed\":12,\"total\":64}"
        );

        out.clear();
        TelemetryEvent::JournalReplayed { chips: 7 }.write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"journal_replayed\",\"category\":\"guard\",\
             \"at_us\":0,\"chips\":7}"
        );

        out.clear();
        TelemetryEvent::JournalCompacted { chips: 9 }.write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"journal_compacted\",\"category\":\"guard\",\
             \"at_us\":0,\"chips\":9}"
        );

        assert!(EventFilter::all().accepts(EventCategory::Guard));
        assert!(EventFilter::parse("guard")
            .unwrap()
            .accepts(EventCategory::Guard));
        assert!(!EventFilter::parse("fleet,fault")
            .unwrap()
            .accepts(EventCategory::Guard));
    }

    #[test]
    fn span_events_have_stable_shape() {
        let open = TelemetryEvent::SpanOpen {
            at: SimTime::ZERO,
            id: 0x8000_0000_0000_0003,
            parent: 0x4000_0000_0000_0001,
            level: SpanLevel::Chip,
            ident: 3,
        };
        assert_eq!(open.category(), EventCategory::Span);
        assert_eq!(open.at(), SimTime::ZERO);
        let mut out = String::new();
        open.write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"span_open\",\"category\":\"span\",\
             \"at_us\":0,\"id\":\"8000000000000003\",\
             \"parent\":\"4000000000000001\",\"level\":\"chip\",\"ident\":3}"
        );

        out.clear();
        TelemetryEvent::SpanClose {
            at: SimTime::from_millis(500),
            id: 0x8000_0000_0000_0003,
            events: 42,
        }
        .write_json(&mut out);
        assert_eq!(
            out,
            "{\"event\":\"span_close\",\"category\":\"span\",\
             \"at_us\":500000,\"id\":\"8000000000000003\",\"events\":42}"
        );

        for level in SpanLevel::ALL {
            assert_eq!(SpanLevel::parse(level.label()), Some(level));
        }
        assert_eq!(SpanLevel::parse("bogus"), None);
    }

    #[test]
    fn json_maps_non_finite_rates_to_null() {
        let mut out = String::new();
        TelemetryEvent::MonitorWindow {
            at: SimTime::ZERO,
            domain: DomainId(0),
            accesses: 0,
            errors: 0,
            rate: f64::NAN,
        }
        .write_json(&mut out);
        assert!(out.contains("\"rate\":null"));
    }
}

//! The [`Recorder`]: the object simulation code emits events into.
//!
//! A recorder is a filter plus a `Vec` of the events it kept. The
//! disabled configuration (empty filter) is the default everywhere; its
//! `emit` is a single branch on a byte and it allocates nothing, which is
//! what keeps tracing free when nobody asked for it. Recorders are
//! per-simulation (one per chip in a fleet), never shared across threads
//! — cross-chip merging happens afterwards in chip-id order, which is
//! what makes fleet traces deterministic under any worker count.

use crate::event::{EventCategory, EventFilter, TelemetryEvent};
use crate::sink::EventSink;

/// Collects telemetry events from one simulation.
#[derive(Debug, Clone)]
pub struct Recorder {
    filter: EventFilter,
    /// Kept events, oldest first; never allocated while the filter is
    /// empty.
    events: Vec<TelemetryEvent>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A recorder that keeps nothing (`emit` short-circuits).
    pub fn disabled() -> Recorder {
        Recorder::enabled(EventFilter::none())
    }

    /// A recorder keeping every event of the `filter` categories.
    pub fn enabled(filter: EventFilter) -> Recorder {
        Recorder {
            filter,
            events: Vec::new(),
        }
    }

    /// True when `category` events would be kept. Call sites use this to
    /// skip gathering event payloads on the hot path.
    #[inline]
    pub fn wants(&self, category: EventCategory) -> bool {
        self.filter.accepts(category)
    }

    /// Records an event if its category passes the filter.
    #[inline]
    pub fn emit(&mut self, event: TelemetryEvent) {
        if self.filter.accepts(event.category()) {
            self.events.push(event);
        }
    }

    /// Removes and returns all held events, oldest first.
    pub fn take_events(&mut self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains all held events into `sink`, oldest first.
    pub fn drain_into(&mut self, sink: &mut dyn EventSink) {
        for event in self.events.drain(..) {
            sink.record(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CaptureSink;
    use vs_types::{ChipId, CoreId, DomainId, SimTime};

    fn ecc_event() -> TelemetryEvent {
        TelemetryEvent::EccCorrection {
            at: SimTime::from_millis(1),
            domain: DomainId(0),
            core: CoreId(0),
            count: 3,
        }
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::disabled();
        assert!(r.filter.is_empty());
        assert!(!r.wants(EventCategory::Ecc));
        r.emit(ecc_event());
        assert!(r.events.is_empty());
        assert_eq!(
            r.events.capacity(),
            0,
            "a disabled recorder allocates nothing"
        );
        assert!(r.take_events().is_empty());
    }

    #[test]
    fn filter_is_respected() {
        let mut r = Recorder::enabled(EventFilter::of(&[EventCategory::Fleet]));
        r.emit(ecc_event()); // filtered out
        r.emit(TelemetryEvent::JobStarted { chip: ChipId(7) });
        let events = r.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category(), EventCategory::Fleet);
    }

    #[test]
    fn drain_into_sink() {
        let mut r = Recorder::enabled(EventFilter::all());
        r.emit(ecc_event());
        let mut sink = CaptureSink::new();
        r.drain_into(&mut sink);
        assert_eq!(sink.events().len(), 1);
        assert!(r.events.is_empty());
    }
}

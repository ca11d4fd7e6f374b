//! The [`Recorder`]: the object simulation code emits events into.
//!
//! A recorder is a filter plus a pre-allocated [`EventRing`]. The
//! disabled configuration (empty filter) is the default everywhere; its
//! `emit` is a single branch on a byte, which is what keeps tracing free
//! when nobody asked for it. Recorders are per-simulation (one per chip in
//! a fleet), never shared across threads — cross-chip merging happens
//! afterwards in chip-id order, which is what makes fleet traces
//! deterministic under any worker count.

use crate::event::{EventCategory, EventFilter, TelemetryEvent};
use crate::ring::EventRing;
use crate::sink::EventSink;

/// Default ring capacity: enough for every event of the workloads the
/// repo's experiments run, small enough to be cheap to pre-allocate.
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 16;

/// Collects telemetry events from one simulation.
#[derive(Debug, Clone)]
pub struct Recorder {
    filter: EventFilter,
    /// Lazily created on first enable, so a disabled recorder costs one
    /// byte of filter and an empty `Option`.
    ring: Option<EventRing>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A recorder that keeps nothing (`emit` short-circuits).
    pub fn disabled() -> Recorder {
        Recorder {
            filter: EventFilter::none(),
            ring: None,
        }
    }

    /// A recorder keeping `filter` categories in a ring of
    /// `DEFAULT_CAPACITY`.
    pub fn enabled(filter: EventFilter) -> Recorder {
        Recorder::with_capacity(filter, DEFAULT_CAPACITY)
    }

    /// A recorder keeping `filter` categories in a ring of `capacity`
    /// events.
    pub(crate) fn with_capacity(filter: EventFilter, capacity: usize) -> Recorder {
        Recorder {
            filter,
            ring: if filter.is_empty() {
                None
            } else {
                Some(EventRing::new(capacity))
            },
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
            if let Some(ring) = &mut self.ring {
                ring.push(event);
            }
        }
    }

    /// Events held (0 when disabled).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, EventRing::len)
    }

    /// True when no events are held.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns all held events, oldest first.
    pub fn take_events(&mut self) -> Vec<TelemetryEvent> {
        self.ring.as_mut().map_or_else(Vec::new, EventRing::drain)
    }

    /// Drains all held events into `sink`, oldest first.
    pub fn drain_into(&mut self, sink: &mut dyn EventSink) {
        if let Some(ring) = &mut self.ring {
            for event in ring.drain() {
                sink.record(&event);
            }
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
        assert!(r.is_empty());
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
        assert!(r.is_empty());
    }
}

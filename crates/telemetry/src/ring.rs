//! A fixed-capacity flight-recorder ring for telemetry events.
//!
//! The buffer is allocated once at construction; pushing is a store plus
//! two index updates, so the simulation hot path never allocates. When
//! full, the *oldest* event is overwritten (flight-recorder semantics) and
//! the drop is counted — deterministically, since what is dropped is a
//! pure function of the event sequence.

use crate::event::TelemetryEvent;

/// Fixed-capacity ring of [`TelemetryEvent`]s, overwrite-oldest.
#[derive(Debug, Clone)]
pub(crate) struct EventRing {
    buf: Vec<TelemetryEvent>,
    /// Index of the oldest event (only meaningful once full).
    head: usize,
    /// Events currently held.
    len: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (allocated up front).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; a recorder that keeps nothing is
    /// expressed with an empty [`EventFilter`](crate::EventFilter), not a
    /// zero-sized ring.
    pub(crate) fn new(capacity: usize) -> EventRing {
        assert!(capacity > 0, "ring capacity must be positive");
        EventRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Events currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no events are held.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Oldest events overwritten so far.
    #[cfg(test)]
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends an event, overwriting the oldest if full.
    #[inline]
    pub(crate) fn push(&mut self, event: TelemetryEvent) {
        let cap = self.buf.capacity();
        if self.buf.len() < cap {
            self.buf.push(event);
            self.len += 1;
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    /// Iterates the held events oldest-first without consuming them.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TelemetryEvent> {
        let (tail, first) = self.buf.split_at(self.head);
        first.iter().chain(tail.iter())
    }

    /// Removes and returns all held events, oldest first. The allocation
    /// is retained for reuse.
    pub(crate) fn drain(&mut self) -> Vec<TelemetryEvent> {
        let out: Vec<TelemetryEvent> = self.iter().copied().collect();
        self.buf.clear();
        self.head = 0;
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::ChipId;

    fn ev(i: u64) -> TelemetryEvent {
        TelemetryEvent::JobStarted { chip: ChipId(i) }
    }

    fn chips(ring: &EventRing) -> Vec<u64> {
        ring.iter()
            .map(|e| match e {
                TelemetryEvent::JobStarted { chip } => chip.0,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut ring = EventRing::new(3);
        for i in 0..3 {
            ring.push(ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(chips(&ring), vec![0, 1, 2]);

        ring.push(ev(3));
        ring.push(ev(4));
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(chips(&ring), vec![2, 3, 4]);
    }

    #[test]
    fn drain_empties_and_preserves_order() {
        let mut ring = EventRing::new(4);
        for i in 0..6 {
            ring.push(ev(i));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 4);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drop count survives draining");
        // Oldest-first: 2,3,4,5 survived.
        assert!(matches!(
            drained[0],
            TelemetryEvent::JobStarted { chip: ChipId(2) }
        ));
        assert!(matches!(
            drained[3],
            TelemetryEvent::JobStarted { chip: ChipId(5) }
        ));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        EventRing::new(0);
    }
}

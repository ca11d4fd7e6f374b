//! Pluggable event sinks: where a drained event stream goes.
//!
//! Two implementations cover the stack's needs: [`CaptureSink`]
//! (in-memory, for tests that assert on exact event sequences) and
//! [`JsonlSink`] (one hand-rolled JSON object per line; the
//! `repro --trace FILE` format).

use crate::event::TelemetryEvent;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A consumer of telemetry events.
pub trait EventSink {
    /// Records one event.
    fn record(&mut self, event: &TelemetryEvent);

    /// Flushes any buffered output (a no-op for in-memory sinks).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Keeps every event in memory, for tests and programmatic inspection.
#[derive(Debug, Clone, Default)]
pub struct CaptureSink {
    events: Vec<TelemetryEvent>,
}

impl CaptureSink {
    /// An empty capture sink.
    pub fn new() -> CaptureSink {
        CaptureSink::default()
    }

    /// The captured events, in record order.
    #[cfg(test)]
    pub(crate) fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Consumes the sink, returning the captured events.
    pub fn into_events(self) -> Vec<TelemetryEvent> {
        self.events
    }
}

impl EventSink for CaptureSink {
    fn record(&mut self, event: &TelemetryEvent) {
        self.events.push(*event);
    }
}

/// Writes one JSON object per line to an [`io::Write`].
///
/// Serialization is hand-rolled ([`TelemetryEvent::write_json`]) and
/// deterministic; writing the same event sequence always produces the
/// same bytes. I/O errors are sticky: the first one is kept and the sink
/// stops writing, so a full disk cannot truncate a trace silently.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    line: String,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    pub fn create(path: &Path) -> io::Result<JsonlSink<BufWriter<File>>> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            line: String::with_capacity(256),
            error: None,
        }
    }

    /// Flushes and returns the inner writer, or the first I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record(&mut self, event: &TelemetryEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.write_json(&mut self.line);
        self.line.push('\n');
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Renders a slice of events as JSONL text (one object per line, each
/// newline-terminated) — the exact bytes a [`JsonlSink`] would write.
pub fn to_jsonl(events: &[TelemetryEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128);
    for event in events {
        event.write_json(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::{ChipId, SimTime};

    fn sample() -> [TelemetryEvent; 2] {
        [
            TelemetryEvent::JobStarted { chip: ChipId(0) },
            TelemetryEvent::JobFinished {
                chip: ChipId(0),
                sim_time: SimTime::from_millis(500),
                correctable: 17,
                emergencies: 1,
                crashes: 0,
            },
        ]
    }

    #[test]
    fn capture_sink_keeps_order() {
        let mut sink = CaptureSink::new();
        for e in sample() {
            sink.record(&e);
        }
        assert_eq!(sink.events(), &sample());
        assert_eq!(sink.into_events().len(), 2);
    }

    #[test]
    fn jsonl_sink_matches_to_jsonl() {
        let mut sink = JsonlSink::new(Vec::new());
        for e in sample() {
            sink.record(&e);
        }
        let bytes = sink.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), to_jsonl(&sample()));
    }

    #[test]
    fn jsonl_lines_are_objects() {
        let text = to_jsonl(&sample());
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}

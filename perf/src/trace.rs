//! In-memory wall-clock spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer (no instrumentation inside the crates), kept in memory, and
//! written as JSONL only when the run ends. Every span of one chip or
//! job shares a `trace_id`; `parent` links a span to the span that
//! caused it.

use crate::json::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id, so a parent's id can be handed to its children
    /// before the parent itself is recorded.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records the span `id` (from [`Tracer::reserve`]) over `[start, end]`.
    pub fn record(
        &mut self,
        id: u64,
        trace_id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            trace_id,
            span_id: id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.push(span);
    }

    /// Reserves an id and records a leaf span in one step.
    pub fn leaf(
        &mut self,
        trace_id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record(id, trace_id, parent, name, start, end);
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSONL, one object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace_id\":{},\"span_id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.trace_id,
                s.span_id,
                parent,
                quote(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
/// Returned in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.span_id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time and span count per span name, self time in
/// nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut totals = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = totals.entry(s.name).or_insert((0, 0));
        entry.0 += self_ns;
        entry.1 += 1;
    }
    totals
}

/// The share of wall time the measured phases do not explain, in
/// percent: `100 × (1 − phase_sum ÷ wall)`. Negative when the phases,
/// timed separately, add up to more than the wall they are compared with.
pub fn unattributed_pct(phase_sum_ns: f64, wall_ns: f64) -> f64 {
    100.0 * (1.0 - phase_sum_ns / wall_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace_id: 7,
            span_id: id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, None, "chip", 0, 100),
            span(2, Some(1), "calibrate", 10, 40),
            span(3, Some(1), "run", 40, 70),
            // Overlaps `run` by 10 and sticks out past the parent by 10.
            span(4, Some(1), "baseline", 60, 110),
            span(5, Some(3), "slice", 45, 65),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 30, 10, 50, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["chip"], (10, 1));
        assert_eq!(by_name["run"], (10, 1));
        assert_eq!(by_name.values().map(|v| v.0).sum::<u64>(), 120);
    }

    #[test]
    fn unattributed_share_of_wall() {
        assert!((unattributed_pct(90.0, 100.0) - 10.0).abs() < 1e-9);
        assert_eq!(unattributed_pct(100.0, 100.0), 0.0);
        assert!(unattributed_pct(110.0, 100.0) < 0.0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let root = t.reserve();
        let child = t.leaf(3, Some(root), "submit", origin, origin);
        t.record(root, 3, None, "job", origin, origin);
        assert_eq!(child, root + 1);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let first = crate::json::Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("submit"));
        assert_eq!(first.get("parent").unwrap().as_f64(), Some(root as f64));
    }
}

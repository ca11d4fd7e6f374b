//! Prometheus-style text exposition, hand-rolled and std-only.
//!
//! The encoder walks a [`MetricsRegistry`] and renders the classic
//! `text/plain; version=0.0.4` shape: `# TYPE` comments, cumulative
//! `_bucket{le="..."}` series for histograms, `_sum`/`_count`, and
//! name-sorted output so the same registry renders to the same bytes
//! anywhere. The parser is the inverse half the dashboard and the tests
//! share: it reads a snapshot back into name → value samples without any
//! external crate.

use std::fmt;
use vs_telemetry::{FixedHistogram, MetricsRegistry};

/// Maps a dotted registry instrument name (`"fleet.chips_completed"`)
/// onto a legal Prometheus metric name under `prefix`
/// (`"voltspec_fleet_chips_completed"`). Every character outside
/// `[a-zA-Z0-9_]` becomes `_`.
pub fn metric_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len() + 1);
    for part in [prefix, "_", name] {
        for c in part.chars() {
            out.push(if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            });
        }
    }
    out
}

/// A float in exposition format: shortest round-trip decimal, with the
/// Prometheus spellings for the non-finite values.
struct PromF64(f64);

impl fmt::Display for PromF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_nan() {
            f.write_str("NaN")
        } else if self.0 == f64::INFINITY {
            f.write_str("+Inf")
        } else if self.0 == f64::NEG_INFINITY {
            f.write_str("-Inf")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Renders `registry` as Prometheus-style exposition text.
///
/// Instruments are emitted name-sorted within each kind (counters, then
/// gauges, then histograms), so output is a deterministic function of the
/// registry's contents. Histogram buckets are cumulative (`le` is the
/// bucket's upper edge; samples below the layout's `lo` count into every
/// bucket, samples at or above `hi` only into `+Inf`), matching how a
/// real Prometheus client library would flatten a [`FixedHistogram`].
pub fn render_prometheus(registry: &MetricsRegistry, prefix: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    let mut counters: Vec<(&str, u64)> = registry.counters().collect();
    counters.sort_by(|a, b| a.0.cmp(b.0));
    for (name, v) in counters {
        let name = metric_name(prefix, name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }

    let mut gauges: Vec<(&str, f64)> = registry.gauges().collect();
    gauges.sort_by(|a, b| a.0.cmp(b.0));
    for (name, v) in gauges {
        let name = metric_name(prefix, name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", PromF64(v));
    }

    let mut histograms: Vec<(&str, &FixedHistogram)> = registry.histograms().collect();
    histograms.sort_by(|a, b| a.0.cmp(b.0));
    for (name, h) in histograms {
        let name = metric_name(prefix, name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        // Underflow samples are below every finite edge, so they seed the
        // cumulative count.
        let mut cumulative = h.underflow;
        for (_, hi, c) in h.bins() {
            cumulative += c;
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", PromF64(hi));
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", PromF64(h.sum));
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

/// Why a snapshot failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum PromParseError {
    /// A non-comment line did not split into `name value`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
}

impl fmt::Display for PromParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromParseError::Malformed { line, text } => {
                write!(f, "malformed exposition line {line}: {text:?}")
            }
        }
    }
}

impl std::error::Error for PromParseError {}

/// One parsed sample: name, raw label block (`""` when unlabeled), value.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// The metric name.
    pub name: String,
    /// The raw text between `{` and `}` (`le="0.05"`), empty if none.
    pub labels: String,
    /// The sample value.
    pub value: f64,
}

/// A parsed metrics snapshot: what `repro fleetd top` polls and what the
/// golden tests assert against.
#[derive(Debug, Clone, Default)]
pub struct PromSnapshot {
    samples: Vec<PromSample>,
}

impl PromSnapshot {
    /// Parses exposition text. `# ...` comments and blank lines are
    /// skipped; everything else must be `name[{labels}] value`.
    pub fn parse(text: &str) -> Result<PromSnapshot, PromParseError> {
        let mut samples = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let malformed = || PromParseError::Malformed {
                line: i + 1,
                text: raw.to_owned(),
            };
            let (head, value) = line.rsplit_once(' ').ok_or_else(malformed)?;
            let value = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                "NaN" => f64::NAN,
                v => v.parse::<f64>().map_err(|_| malformed())?,
            };
            let (name, labels) = match head.split_once('{') {
                Some((name, rest)) => {
                    let labels = rest.strip_suffix('}').ok_or_else(malformed)?;
                    (name, labels)
                }
                None => (head, ""),
            };
            if name.is_empty() {
                return Err(malformed());
            }
            samples.push(PromSample {
                name: name.to_owned(),
                labels: labels.to_owned(),
                value,
            });
        }
        Ok(PromSnapshot { samples })
    }

    /// All samples, in exposition order.
    pub fn samples(&self) -> impl Iterator<Item = &PromSample> {
        self.samples.iter()
    }

    /// The value of the unlabeled sample `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// The value of the sample `name` carrying exactly `labels`.
    #[cfg(test)]
    pub(crate) fn labeled(&self, name: &str, labels: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| s.value)
    }

    /// Unlabeled samples whose name starts with `prefix`, in exposition
    /// order (the dashboard enumerates per-worker gauges this way).
    pub(crate) fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, f64)> {
        self.samples
            .iter()
            .filter(move |s| s.labels.is_empty() && s.name.starts_with(prefix))
            .map(|s| (s.name.as_str(), s.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized_under_a_prefix() {
        assert_eq!(
            metric_name("voltspec", "fleet.chips_completed"),
            "voltspec_fleet_chips_completed"
        );
        assert_eq!(metric_name("x", "a-b c"), "x_a_b_c");
    }

    #[test]
    fn encoder_and_parser_round_trip() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("fleet.chips_completed");
        r.inc(c, 42);
        let g = r.gauge("fleetd.jobs_running");
        r.set(g, 2.0);
        let h = r.histogram("monitor.error_rate", 0.0, 1.0, 4);
        r.observe(h, -0.5); // underflow
        r.observe(h, 0.1);
        r.observe(h, 0.6);
        r.observe(h, 2.0); // overflow

        let text = render_prometheus(&r, "voltspec");
        assert!(text.contains("# TYPE voltspec_fleet_chips_completed counter\n"));
        assert!(text.contains("voltspec_fleet_chips_completed 42\n"));
        assert!(text.contains("# TYPE voltspec_monitor_error_rate histogram\n"));

        let snap = PromSnapshot::parse(&text).unwrap();
        assert_eq!(snap.value("voltspec_fleet_chips_completed"), Some(42.0));
        assert_eq!(snap.value("voltspec_fleetd_jobs_running"), Some(2.0));
        // Cumulative buckets: underflow counts everywhere, overflow only
        // at +Inf.
        assert_eq!(
            snap.labeled("voltspec_monitor_error_rate_bucket", "le=\"0.25\""),
            Some(2.0)
        );
        assert_eq!(
            snap.labeled("voltspec_monitor_error_rate_bucket", "le=\"1\""),
            Some(3.0)
        );
        assert_eq!(
            snap.labeled("voltspec_monitor_error_rate_bucket", "le=\"+Inf\""),
            Some(4.0)
        );
        assert_eq!(snap.value("voltspec_monitor_error_rate_count"), Some(4.0));
        let names: Vec<&str> = snap
            .with_prefix("voltspec_fleetd_")
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["voltspec_fleetd_jobs_running"]);
    }

    #[test]
    fn rendering_is_deterministic_and_sorted() {
        let mut r = MetricsRegistry::new();
        let b = r.counter("b.second");
        let a = r.counter("a.first");
        r.inc(b, 1);
        r.inc(a, 2);
        let text = render_prometheus(&r, "p");
        let first = text.find("p_a_first").unwrap();
        let second = text.find("p_b_second").unwrap();
        assert!(first < second, "counters render name-sorted");
        assert_eq!(text, render_prometheus(&r, "p"));
    }

    #[test]
    fn parser_rejects_garbage_with_a_typed_error() {
        assert!(PromSnapshot::parse("# just a comment\n\n")
            .unwrap()
            .samples
            .is_empty());
        let err = PromSnapshot::parse("no_value_here\n").unwrap_err();
        assert!(matches!(err, PromParseError::Malformed { line: 1, .. }));
        assert!(PromSnapshot::parse("x not_a_number\n").is_err());
        assert_eq!(
            PromSnapshot::parse("up +Inf\n").unwrap().value("up"),
            Some(f64::INFINITY)
        );
    }
}

//! Wall-clock profiling spans.
//!
//! Everything in this module measures **real time** and is therefore
//! non-deterministic by construction. It must never feed any output that
//! determinism checks compare: the fleet keeps its [`FleetProfile`] in a
//! separate section (printed to stderr by `repro`), and the trace/metrics
//! pipeline never touches these numbers.

use std::fmt::Write as _;
use std::time::Instant;

/// Formats a nanosecond quantity with a human-scale unit.
pub(crate) fn format_ns(ns: f64) -> String {
    let (value, unit) = scale_ns(ns);
    format!("{value:.2} {unit}")
}

/// Picks the display unit for a nanosecond quantity.
pub(crate) fn scale_ns(ns: f64) -> (f64, &'static str) {
    if ns >= 1e9 {
        (ns / 1e9, "s")
    } else if ns >= 1e6 {
        (ns / 1e6, "ms")
    } else if ns >= 1e3 {
        (ns / 1e3, "us")
    } else {
        (ns, "ns")
    }
}

/// A running wall-clock span.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the start.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A log2-bucketed latency histogram (nanoseconds).
///
/// Bucket `i` holds samples in `[2^i us-ish, ...)`: concretely the bucket
/// index is `floor(log2(ns / 1024))`, clamped, so the histogram spans
/// ~1 us to ~1000 s in 30 buckets with no configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 30],
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; 30],
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn observe_ns(&mut self, ns: u64) {
        let idx = (63 - (ns / 1024).max(1).leading_zeros()) as usize;
        self.buckets[idx.min(self.buckets.len() - 1)] += 1;
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (`None` when empty).
    pub(crate) fn mean_ns(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.total_ns as f64 / self.count as f64)
        }
    }

    /// `(min, max)` observed, in nanoseconds (`None` when empty).
    pub(crate) fn range_ns(&self) -> Option<(u64, u64)> {
        if self.count == 0 {
            None
        } else {
            Some((self.min_ns, self.max_ns))
        }
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min_ns = other.min_ns;
                self.max_ns = other.max_ns;
            } else {
                self.min_ns = self.min_ns.min(other.min_ns);
                self.max_ns = self.max_ns.max(other.max_ns);
            }
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
    }

    /// Non-empty buckets as `(bucket_floor_ns, count)`.
    pub(crate) fn bins(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1024u64 << i, c))
    }
}

/// One fleet worker's wall-clock breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerProfile {
    /// Worker index within the pool.
    pub worker: usize,
    /// Chips this worker simulated.
    pub jobs: u64,
    /// Time spent inside `simulate_chip`.
    pub busy_ns: u64,
    /// Time spent claiming work and sending results (scheduling overhead).
    pub steal_ns: u64,
    /// Wall time of the worker's whole loop.
    pub wall_ns: u64,
}

impl WorkerProfile {
    /// Time neither simulating nor scheduling (startup skew, send
    /// backpressure, end-of-queue drain).
    pub(crate) fn idle_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.busy_ns + self.steal_ns)
    }
}

/// Wall-clock profile of one fleet run: per-worker busy/steal/idle plus
/// the per-chip job latency distribution.
///
/// Strictly diagnostic — never part of determinism-checked output.
#[derive(Debug, Clone, Default)]
pub struct FleetProfile {
    /// One entry per worker thread.
    pub workers: Vec<WorkerProfile>,
    /// Per-chip `simulate_chip` latency.
    pub job_latency: LatencyHistogram,
    /// Wall time of the whole run.
    pub wall_ns: u64,
}

impl FleetProfile {
    /// Renders the profiling section (clearly marked as wall-clock).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("profiling (wall-clock, non-deterministic):\n");
        let _ = writeln!(out, "  run wall time: {}", format_ns(self.wall_ns as f64));
        for w in &self.workers {
            let pct = |ns: u64| {
                if w.wall_ns == 0 {
                    0.0
                } else {
                    100.0 * ns as f64 / w.wall_ns as f64
                }
            };
            let _ = writeln!(
                out,
                "  worker {:>2}: {:>4} chips, busy {:>5.1}%, steal {:>4.1}%, idle {:>5.1}%",
                w.worker,
                w.jobs,
                pct(w.busy_ns),
                pct(w.steal_ns),
                pct(w.idle_ns()),
            );
        }
        if let Some((min, max)) = self.job_latency.range_ns() {
            let _ = writeln!(
                out,
                "  chip latency: n={}, mean {}, min {}, max {}",
                self.job_latency.count(),
                format_ns(self.job_latency.mean_ns().unwrap_or(0.0)),
                format_ns(min as f64),
                format_ns(max as f64),
            );
            for (floor, count) in self.job_latency.bins() {
                let _ = writeln!(out, "    >= {:>10}  {count}", format_ns(floor as f64));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_buckets_by_magnitude() {
        let mut h = LatencyHistogram::new();
        h.observe_ns(500); // sub-us clamps to the first bucket
        h.observe_ns(2_000); // ~2 us
        h.observe_ns(2_000_000); // ~2 ms
        assert_eq!(h.count(), 3);
        assert_eq!(h.range_ns(), Some((500, 2_000_000)));
        let bins: Vec<(u64, u64)> = h.bins().collect();
        assert_eq!(bins.iter().map(|(_, c)| c).sum::<u64>(), 3);
        assert!(bins.len() >= 2, "samples of different magnitude spread out");

        let mut other = LatencyHistogram::new();
        other.observe_ns(100);
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert_eq!(h.range_ns(), Some((100, 2_000_000)));
    }

    #[test]
    fn worker_profile_idle_is_remainder() {
        let w = WorkerProfile {
            worker: 0,
            jobs: 4,
            busy_ns: 70,
            steal_ns: 10,
            wall_ns: 100,
        };
        assert_eq!(w.idle_ns(), 20);
    }

    #[test]
    fn fleet_profile_renders_sections() {
        let mut profile = FleetProfile {
            workers: vec![WorkerProfile {
                worker: 0,
                jobs: 2,
                busy_ns: 1_000_000,
                steal_ns: 1_000,
                wall_ns: 2_000_000,
            }],
            ..FleetProfile::default()
        };
        profile.job_latency.observe_ns(500_000);
        profile.wall_ns = 2_000_000;
        let text = profile.render();
        assert!(text.contains("wall-clock"));
        assert!(text.contains("worker  0"));
        assert!(text.contains("chip latency"));
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(format_ns(12.0), "12.00 ns");
        assert_eq!(format_ns(1.5e3), "1.50 us");
        assert_eq!(format_ns(2.5e6), "2.50 ms");
        assert_eq!(format_ns(3.0e9), "3.00 s");
    }
}

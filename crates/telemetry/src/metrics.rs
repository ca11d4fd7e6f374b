//! A small metrics registry: named counters, gauges, and fixed-bucket
//! histograms, snapshotable at any sim tick.
//!
//! Instruments are registered by name and addressed by cheap integer
//! handles, so hot paths never hash or compare strings. Everything in
//! here is driven by simulated quantities — snapshots of the same event
//! stream render to identical bytes on any machine. [`EventMetrics`]
//! wires a registry to the standard event taxonomy (error-rate, step-size
//! and time-between-emergencies distributions).

use crate::event::{StepDirection, TelemetryEvent};
use vs_types::SimTime;

/// Handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram over `[lo, hi)` with explicit under/overflow
/// and running count/sum (for the mean).
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    /// Lower edge of the first bucket.
    pub lo: f64,
    /// Upper edge of the last bucket.
    pub hi: f64,
    /// Per-bucket counts.
    pub buckets: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above `hi`.
    pub overflow: u64,
    /// Total samples observed.
    pub count: u64,
    /// Sum of all observed samples.
    pub sum: f64,
}

impl FixedHistogram {
    /// An empty histogram of `bins` equal-width buckets over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub(crate) fn new(lo: f64, hi: f64, bins: usize) -> FixedHistogram {
        assert!(bins > 0, "a histogram needs at least one bucket");
        assert!(hi > lo, "histogram range must be non-empty");
        FixedHistogram {
            lo,
            hi,
            buckets: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one sample.
    pub(crate) fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = (((v - self.lo) / width) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Mean of all observed samples (`None` when empty).
    #[cfg(test)]
    pub(crate) fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Adds another histogram's contents bucket-by-bucket.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ.
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &FixedHistogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.buckets.len() == other.buckets.len(),
            "histogram merge requires identical bucket layouts"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }

    /// `(lower_edge, upper_edge, count)` per bucket, for rendering.
    pub fn bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        self.buckets.iter().enumerate().map(move |(i, &c)| {
            let lower = self.lo + width * i as f64;
            (lower, lower + width, c)
        })
    }
}

/// The registry: named instruments with handle-based access.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, FixedHistogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter named `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        match self.counters.iter().position(|(n, _)| n == name) {
            Some(i) => CounterId(i),
            None => {
                self.counters.push((name.to_owned(), 0));
                CounterId(self.counters.len() - 1)
            }
        }
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Registers (or finds) a gauge named `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        match self.gauges.iter().position(|(n, _)| n == name) {
            Some(i) => GaugeId(i),
            None => {
                self.gauges.push((name.to_owned(), 0.0));
                GaugeId(self.gauges.len() - 1)
            }
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Registers (or finds) a histogram named `name` with the given
    /// bucket layout. An existing histogram keeps its layout.
    pub fn histogram(&mut self, name: &str, lo: f64, hi: f64, bins: usize) -> HistogramId {
        match self.histograms.iter().position(|(n, _)| n == name) {
            Some(i) => HistogramId(i),
            None => {
                self.histograms
                    .push((name.to_owned(), FixedHistogram::new(lo, hi, bins)));
                HistogramId(self.histograms.len() - 1)
            }
        }
    }

    /// Records one histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].1.observe(value);
    }

    /// Every counter as `(name, value)`, in registration order. Snapshot
    /// encoders (the Prometheus-style text exposition in `vs-obs`) walk
    /// these rather than knowing instrument names up front.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Every gauge as `(name, value)`, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Every histogram as `(name, histogram)`, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &FixedHistogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Reads a counter by name (`None` if unregistered).
    #[cfg(test)]
    pub(crate) fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Reads a gauge by name (`None` if unregistered).
    #[cfg(test)]
    pub(crate) fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Reads a histogram by name (`None` if unregistered).
    #[cfg(test)]
    pub(crate) fn histogram_value(&self, name: &str) -> Option<&FixedHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// A [`MetricsRegistry`] pre-wired to the standard event taxonomy.
///
/// Feed it events (live at emission time, or a merged stream after a
/// fleet run) and it maintains: per-kind counters, the monitor error-rate
/// distribution, the controller step-size distribution, and the
/// time-between-emergencies distribution. `JobStarted` resets the
/// emergency-gap clock so fleet streams never measure gaps across chips.
#[derive(Debug, Clone)]
pub struct EventMetrics {
    registry: MetricsRegistry,
    corrections: CounterId,
    detections: CounterId,
    windows: CounterId,
    steps_up: CounterId,
    steps_down: CounterId,
    emergencies: CounterId,
    calibrations: CounterId,
    recalibrations: CounterId,
    jobs_started: CounterId,
    jobs_finished: CounterId,
    crashes: CounterId,
    dues_consumed: CounterId,
    crash_rollbacks: CounterId,
    quarantines: CounterId,
    watchdog_fired: CounterId,
    interrupts: CounterId,
    journal_replayed: CounterId,
    journal_compactions: CounterId,
    span_opens: CounterId,
    span_closes: CounterId,
    set_point: GaugeId,
    error_rate: HistogramId,
    step_mv: HistogramId,
    emergency_gap_ms: HistogramId,
    last_emergency: Option<SimTime>,
}

impl Default for EventMetrics {
    fn default() -> EventMetrics {
        EventMetrics::new()
    }
}

impl EventMetrics {
    /// A registry with the standard instruments registered.
    pub(crate) fn new() -> EventMetrics {
        let mut r = MetricsRegistry::new();
        EventMetrics {
            corrections: r.counter("ecc.corrections"),
            detections: r.counter("ecc.detections"),
            windows: r.counter("monitor.windows"),
            steps_up: r.counter("controller.steps_up"),
            steps_down: r.counter("controller.steps_down"),
            emergencies: r.counter("controller.emergencies"),
            calibrations: r.counter("calibration.calibrated"),
            recalibrations: r.counter("calibration.recalibrated"),
            jobs_started: r.counter("fleet.jobs_started"),
            jobs_finished: r.counter("fleet.jobs_finished"),
            crashes: r.counter("fleet.crashes"),
            dues_consumed: r.counter("fault.dues_consumed"),
            crash_rollbacks: r.counter("fault.crash_rollbacks"),
            quarantines: r.counter("fault.quarantines"),
            watchdog_fired: r.counter("guard.watchdog_fired"),
            interrupts: r.counter("guard.run_interrupted"),
            journal_replayed: r.counter("guard.journal_chips_replayed"),
            journal_compactions: r.counter("guard.journal_compactions"),
            span_opens: r.counter("span.opens"),
            span_closes: r.counter("span.closes"),
            set_point: r.gauge("controller.last_set_point_mv"),
            error_rate: r.histogram("monitor.error_rate", 0.0, 1.0, 20),
            step_mv: r.histogram("controller.step_mv", -25.0, 30.0, 11),
            emergency_gap_ms: r.histogram("controller.emergency_gap_ms", 0.0, 2000.0, 20),
            last_emergency: None,
            registry: r,
        }
    }

    /// Routes one event to its instruments.
    pub(crate) fn observe(&mut self, event: &TelemetryEvent) {
        match *event {
            TelemetryEvent::EccCorrection { count, .. } => {
                self.registry.inc(self.corrections, count);
            }
            TelemetryEvent::EccDetection { count, .. } => {
                self.registry.inc(self.detections, count);
            }
            TelemetryEvent::MonitorWindow { rate, .. } => {
                self.registry.inc(self.windows, 1);
                self.registry.observe(self.error_rate, rate);
            }
            TelemetryEvent::VoltageStep {
                direction,
                delta_mv,
                set_point_mv,
                ..
            } => {
                let id = match direction {
                    StepDirection::Up => self.steps_up,
                    StepDirection::Down => self.steps_down,
                };
                self.registry.inc(id, 1);
                self.registry.observe(self.step_mv, f64::from(delta_mv));
                self.registry.set(self.set_point, f64::from(set_point_mv));
            }
            TelemetryEvent::EmergencyRollback {
                at,
                delta_mv,
                set_point_mv,
                ..
            } => {
                self.registry.inc(self.emergencies, 1);
                self.registry.observe(self.step_mv, f64::from(delta_mv));
                self.registry.set(self.set_point, f64::from(set_point_mv));
                if let Some(prev) = self.last_emergency {
                    let gap_ms = at.saturating_sub(prev).as_micros() as f64 / 1e3;
                    self.registry.observe(self.emergency_gap_ms, gap_ms);
                }
                self.last_emergency = Some(at);
            }
            TelemetryEvent::Calibrated { .. } => self.registry.inc(self.calibrations, 1),
            TelemetryEvent::Recalibrated { .. } => self.registry.inc(self.recalibrations, 1),
            TelemetryEvent::JobStarted { .. } => {
                self.registry.inc(self.jobs_started, 1);
                self.last_emergency = None;
            }
            TelemetryEvent::JobFinished { crashes, .. } => {
                self.registry.inc(self.jobs_finished, 1);
                self.registry.inc(self.crashes, crashes);
            }
            TelemetryEvent::DueConsumed { .. } => {
                self.registry.inc(self.dues_consumed, 1);
            }
            TelemetryEvent::CrashRollback { .. } => {
                self.registry.inc(self.crash_rollbacks, 1);
            }
            TelemetryEvent::Quarantine { .. } => {
                self.registry.inc(self.quarantines, 1);
            }
            TelemetryEvent::WatchdogFired { .. } => {
                self.registry.inc(self.watchdog_fired, 1);
            }
            TelemetryEvent::RunInterrupted { .. } => {
                self.registry.inc(self.interrupts, 1);
            }
            TelemetryEvent::JournalReplayed { chips } => {
                self.registry.inc(self.journal_replayed, chips);
            }
            TelemetryEvent::JournalCompacted { .. } => {
                self.registry.inc(self.journal_compactions, 1);
            }
            TelemetryEvent::SpanOpen { .. } => {
                self.registry.inc(self.span_opens, 1);
            }
            TelemetryEvent::SpanClose { .. } => {
                self.registry.inc(self.span_closes, 1);
            }
        }
    }

    /// Builds metrics from a whole event stream.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TelemetryEvent>) -> EventMetrics {
        let mut m = EventMetrics::new();
        for e in events {
            m.observe(e);
        }
        m
    }

    /// The underlying registry (snapshot/render at any point).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::{ChipId, CoreId, DomainId};

    #[test]
    fn histogram_observe_and_merge() {
        let mut a = FixedHistogram::new(0.0, 1.0, 10);
        a.observe(-0.1);
        a.observe(0.0);
        a.observe(0.55);
        a.observe(1.0);
        assert_eq!(a.underflow, 1);
        assert_eq!(a.overflow, 1);
        assert_eq!(a.buckets[0], 1);
        assert_eq!(a.buckets[5], 1);
        assert_eq!(a.count, 4);

        let mut b = FixedHistogram::new(0.0, 1.0, 10);
        b.observe(0.55);
        a.merge(&b);
        assert_eq!(a.buckets[5], 2);
        assert_eq!(a.count, 5);
    }

    #[test]
    #[should_panic(expected = "identical bucket layouts")]
    fn histogram_merge_rejects_layout_mismatch() {
        let mut a = FixedHistogram::new(0.0, 1.0, 10);
        a.merge(&FixedHistogram::new(0.0, 2.0, 10));
    }

    #[test]
    fn registry_handles() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("x.count");
        assert_eq!(r.counter("x.count"), c, "registration is idempotent");
        r.inc(c, 2);
        let g = r.gauge("x.gauge");
        r.set(g, 1.5);
        let h = r.histogram("x.hist", 0.0, 10.0, 5);
        r.observe(h, 3.0);
        r.observe(h, 7.0);
        assert_eq!(r.counter_value("x.count"), Some(2));
        assert_eq!(r.gauge_value("x.gauge"), Some(1.5));
        let hist = r.histogram_value("x.hist").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.mean(), Some(5.0));
    }

    #[test]
    fn event_metrics_standard_instruments() {
        let events = [
            TelemetryEvent::JobStarted { chip: ChipId(0) },
            TelemetryEvent::EccCorrection {
                at: SimTime::from_millis(1),
                domain: DomainId(0),
                core: CoreId(0),
                count: 4,
            },
            TelemetryEvent::MonitorWindow {
                at: SimTime::from_millis(10),
                domain: DomainId(0),
                accesses: 1000,
                errors: 30,
                rate: 0.03,
            },
            TelemetryEvent::VoltageStep {
                at: SimTime::from_millis(10),
                domain: DomainId(0),
                direction: StepDirection::Down,
                rate: 0.002,
                delta_mv: -5,
                set_point_mv: 795,
            },
            TelemetryEvent::EmergencyRollback {
                at: SimTime::from_millis(20),
                domain: DomainId(0),
                rate: 0.9,
                steps: 5,
                delta_mv: 25,
                set_point_mv: 820,
            },
            TelemetryEvent::EmergencyRollback {
                at: SimTime::from_millis(120),
                domain: DomainId(0),
                rate: 0.85,
                steps: 5,
                delta_mv: 25,
                set_point_mv: 845,
            },
        ];
        let m = EventMetrics::from_events(&events);
        let r = m.registry();
        assert_eq!(r.counter_value("ecc.corrections"), Some(4));
        assert_eq!(r.counter_value("monitor.windows"), Some(1));
        assert_eq!(r.counter_value("controller.steps_down"), Some(1));
        assert_eq!(r.counter_value("controller.emergencies"), Some(2));
        assert_eq!(r.gauge_value("controller.last_set_point_mv"), Some(845.0));
        let gaps = r.histogram_value("controller.emergency_gap_ms").unwrap();
        assert_eq!(gaps.count, 1, "one gap between two emergencies");
        assert!((gaps.mean().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fault_events_count() {
        let events = [
            TelemetryEvent::DueConsumed {
                at: SimTime::from_millis(5),
                domain: DomainId(0),
                rollback_mv: 730,
                safe_mv: 720,
            },
            TelemetryEvent::DueConsumed {
                at: SimTime::from_millis(6),
                domain: DomainId(1),
                rollback_mv: 735,
                safe_mv: 725,
            },
            TelemetryEvent::CrashRollback {
                at: SimTime::from_millis(7),
                domain: DomainId(0),
                core: CoreId(1),
                rollback_mv: 740,
                safe_mv: 730,
            },
            TelemetryEvent::Quarantine {
                at: SimTime::from_millis(8),
                domain: DomainId(0),
                rollbacks: 9,
            },
        ];
        let m = EventMetrics::from_events(&events);
        let r = m.registry();
        assert_eq!(r.counter_value("fault.dues_consumed"), Some(2));
        assert_eq!(r.counter_value("fault.crash_rollbacks"), Some(1));
        assert_eq!(r.counter_value("fault.quarantines"), Some(1));
    }

    #[test]
    fn guard_events_count() {
        let events = [
            TelemetryEvent::WatchdogFired {
                chip: ChipId(4),
                attempt: 0,
            },
            TelemetryEvent::WatchdogFired {
                chip: ChipId(4),
                attempt: 1,
            },
            TelemetryEvent::JournalReplayed { chips: 6 },
            TelemetryEvent::JournalCompacted { chips: 10 },
            TelemetryEvent::RunInterrupted {
                completed: 10,
                total: 32,
            },
        ];
        let m = EventMetrics::from_events(&events);
        let r = m.registry();
        assert_eq!(r.counter_value("guard.watchdog_fired"), Some(2));
        assert_eq!(r.counter_value("guard.journal_chips_replayed"), Some(6));
        assert_eq!(r.counter_value("guard.journal_compactions"), Some(1));
        assert_eq!(r.counter_value("guard.run_interrupted"), Some(1));
    }

    #[test]
    fn job_start_resets_emergency_gap_clock() {
        let events = [
            TelemetryEvent::EmergencyRollback {
                at: SimTime::from_millis(400),
                domain: DomainId(0),
                rate: 0.9,
                steps: 5,
                delta_mv: 25,
                set_point_mv: 820,
            },
            TelemetryEvent::JobStarted { chip: ChipId(1) },
            TelemetryEvent::EmergencyRollback {
                at: SimTime::from_millis(10),
                domain: DomainId(0),
                rate: 0.9,
                steps: 5,
                delta_mv: 25,
                set_point_mv: 820,
            },
        ];
        let m = EventMetrics::from_events(&events);
        let gaps = m
            .registry()
            .histogram_value("controller.emergency_gap_ms")
            .unwrap();
        assert_eq!(gaps.count, 0, "gaps must not span chips");
    }
}

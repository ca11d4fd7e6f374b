//! The `Workload` trait and composition helpers.

use std::fmt;
use vs_types::SimTime;

/// What a workload demands of the platform during one control tick.
///
/// These are the only quantities the speculation system can observe: the
/// rest of the workload's behaviour is irrelevant to voltage control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Mean switching activity (scales dynamic power; 1.0 is a fully busy
    /// core, power-virus kernels may exceed it).
    pub activity: f64,
    /// Amplitude of the periodic activity oscillation around the mean
    /// (drives resonant droop).
    pub activity_osc_amplitude: f64,
    /// Frequency of that oscillation, in hertz.
    pub osc_freq_hz: f64,
    /// Magnitude of any abrupt activity change at this tick (drives the
    /// first droop); zero in steady state.
    pub activity_transient_step: f64,
    /// L2 cache accesses issued per millisecond.
    pub l2_accesses_per_ms: f64,
    /// Fraction of L2 traffic on the instruction side.
    pub instruction_fraction: f64,
    /// Fraction of the L2's lines in the current working set (governs how
    /// likely the workload is to touch any particular weak line).
    pub footprint_fraction: f64,
}

impl Demand {
    /// A completely idle core: spin-loop in firmware.
    pub fn idle() -> Demand {
        Demand {
            activity: 0.0,
            activity_osc_amplitude: 0.0,
            osc_freq_hz: 0.0,
            activity_transient_step: 0.0,
            l2_accesses_per_ms: 0.0,
            instruction_fraction: 0.0,
            footprint_fraction: 0.0,
        }
    }

    /// Validates invariants (all fields finite and non-negative, fractions
    /// in range). Used by property tests and debug assertions.
    #[cfg(test)]
    pub(crate) fn is_valid(&self) -> bool {
        let nonneg = [
            self.activity,
            self.activity_osc_amplitude,
            self.osc_freq_hz,
            self.activity_transient_step,
            self.l2_accesses_per_ms,
        ];
        nonneg.iter().all(|x| x.is_finite() && *x >= 0.0)
            && (0.0..=1.0).contains(&self.instruction_fraction)
            && (0.0..=1.0).contains(&self.footprint_fraction)
    }
}

/// A workload: a deterministic function from simulated time to demand.
pub trait Workload: fmt::Debug {
    /// Short name for reports ("mcf", "voltage-virus-nop8", ...).
    fn name(&self) -> &str;

    /// The demand at simulated time `t` (time since the workload started).
    fn demand(&self, t: SimTime) -> Demand;

    /// Natural duration, if the workload ends on its own (suite runs use
    /// this to schedule back-to-back execution).
    fn duration(&self) -> Option<SimTime> {
        None
    }
}

/// The idle workload: a firmware spin-loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Idle;

impl Workload for Idle {
    fn name(&self) -> &str {
        "idle"
    }

    fn demand(&self, _t: SimTime) -> Demand {
        Demand::idle()
    }
}

/// Runs a sequence of workloads back to back (the evaluation runs
/// benchmarks consecutively to exercise context switches, §IV-C).
///
/// Demand transitions between segments report an activity transient step,
/// which is exactly what stresses the controller at context switches.
pub struct BackToBack {
    name: String,
    segments: Vec<(Box<dyn Workload + Send + Sync>, SimTime)>,
}

impl fmt::Debug for BackToBack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackToBack")
            .field("name", &self.name)
            .field(
                "segments",
                &self
                    .segments
                    .iter()
                    .map(|(w, d)| (w.name().to_owned(), *d))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl BackToBack {
    /// Creates a sequence.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or any segment has zero duration.
    pub fn new(
        name: impl Into<String>,
        segments: Vec<(Box<dyn Workload + Send + Sync>, SimTime)>,
    ) -> BackToBack {
        assert!(
            !segments.is_empty(),
            "a sequence needs at least one segment"
        );
        assert!(
            segments.iter().all(|(_, d)| *d > SimTime::ZERO),
            "segments must have positive duration"
        );
        BackToBack {
            name: name.into(),
            segments,
        }
    }

    /// The segment active at `t` and the local time within it. After the
    /// last segment ends, the last segment stays active (a long-running
    /// final workload).
    fn segment_at(&self, t: SimTime) -> (usize, SimTime) {
        let mut start = SimTime::ZERO;
        for (i, (_, d)) in self.segments.iter().enumerate() {
            let end = start + *d;
            if t < end {
                return (i, t - start);
            }
            start = end;
        }
        let last = self.segments.len() - 1;
        (last, self.segments[last].1)
    }

    /// The name of the segment active at `t`.
    #[cfg(test)]
    pub(crate) fn active_segment_name(&self, t: SimTime) -> &str {
        let (i, _) = self.segment_at(t);
        self.segments[i].0.name()
    }
}

impl Workload for BackToBack {
    fn name(&self) -> &str {
        &self.name
    }

    fn demand(&self, t: SimTime) -> Demand {
        let (i, local) = self.segment_at(t);
        let mut d = self.segments[i].0.demand(local);
        // Within the first tick of a new segment, report the activity jump
        // from the previous segment as a transient.
        if i > 0 && local < SimTime::from_millis(1) {
            let prev = &self.segments[i - 1];
            let prev_d = prev.0.demand(prev.1);
            d.activity_transient_step = (d.activity - prev_d.activity).abs();
        }
        d
    }

    fn duration(&self) -> Option<SimTime> {
        let mut total = SimTime::ZERO;
        for (_, d) in &self.segments {
            total += *d;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Flat(f64);
    impl Workload for Flat {
        fn name(&self) -> &str {
            "flat"
        }
        fn demand(&self, _t: SimTime) -> Demand {
            Demand {
                activity: self.0,
                ..Demand::idle()
            }
        }
    }

    #[test]
    fn idle_demand_is_valid_and_zero() {
        let d = Idle.demand(SimTime::from_secs(10));
        assert!(d.is_valid());
        assert_eq!(d.activity, 0.0);
        assert_eq!(Idle.name(), "idle");
        assert!(Idle.duration().is_none());
    }

    #[test]
    fn validity_checks() {
        let mut d = Demand::idle();
        assert!(d.is_valid());
        d.instruction_fraction = 1.5;
        assert!(!d.is_valid());
        d.instruction_fraction = 0.5;
        d.activity = f64::NAN;
        assert!(!d.is_valid());
    }

    #[test]
    fn back_to_back_switches_segments() {
        let seq = BackToBack::new(
            "pair",
            vec![
                (Box::new(Flat(0.2)), SimTime::from_secs(5)),
                (Box::new(Flat(0.9)), SimTime::from_secs(5)),
            ],
        );
        assert_eq!(seq.demand(SimTime::from_secs(1)).activity, 0.2);
        assert_eq!(seq.demand(SimTime::from_secs(7)).activity, 0.9);
        assert_eq!(seq.active_segment_name(SimTime::from_secs(1)), "flat");
        assert_eq!(seq.duration(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn back_to_back_reports_transition_transient() {
        let seq = BackToBack::new(
            "pair",
            vec![
                (Box::new(Flat(0.2)), SimTime::from_secs(5)),
                (Box::new(Flat(0.9)), SimTime::from_secs(5)),
            ],
        );
        let at_switch = seq.demand(SimTime::from_secs(5));
        assert!((at_switch.activity_transient_step - 0.7).abs() < 1e-12);
        let after = seq.demand(SimTime::from_secs(5) + SimTime::from_millis(2));
        assert_eq!(after.activity_transient_step, 0.0);
    }

    #[test]
    fn back_to_back_holds_last_segment() {
        let seq = BackToBack::new("one", vec![(Box::new(Flat(0.5)), SimTime::from_secs(1))]);
        assert_eq!(seq.demand(SimTime::from_secs(100)).activity, 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_sequence_rejected() {
        BackToBack::new("none", Vec::new());
    }
}

//! Per-domain voltage regulator.

use vs_types::Millivolts;

/// A voltage regulator with a discrete step grid and a bounded range.
///
/// The paper's control system adjusts supply voltage in 5 mV increments
/// (§III-B); the regulator model enforces that grid, clamps requests into
/// its supported range, and applies changes on the next `tick` (regulator
/// slew is far faster than the 1 ms control tick, so one tick of latency is
/// the right granularity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoltageRegulator {
    output: Millivolts,
    pending: Millivolts,
    min: Millivolts,
    max: Millivolts,
    step: Millivolts,
}

impl VoltageRegulator {
    /// The default adjustment step: 5 mV.
    pub(crate) const DEFAULT_STEP: Millivolts = Millivolts(5);

    /// Creates a regulator initialized (and settled) at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or `initial` lies outside it.
    pub fn new(initial: Millivolts, min: Millivolts, max: Millivolts) -> VoltageRegulator {
        assert!(min < max, "regulator range must be non-empty");
        assert!(
            (min..=max).contains(&initial),
            "initial voltage {initial} outside [{min}, {max}]"
        );
        VoltageRegulator {
            output: initial,
            pending: initial,
            min,
            max,
            step: Self::DEFAULT_STEP,
        }
    }

    /// The voltage currently being delivered.
    pub fn output(&self) -> Millivolts {
        self.output
    }

    /// The set point that will be delivered after the next tick.
    pub fn pending(&self) -> Millivolts {
        self.pending
    }

    /// Requests a new set point; it is snapped *down* to the step grid and
    /// clamped into range, and takes effect on the next tick.
    pub fn request(&mut self, target: Millivolts) {
        let snapped = Millivolts((target.0.div_euclid(self.step.0)) * self.step.0);
        self.pending = snapped.clamp(self.min, self.max);
    }

    /// Requests one step down from the pending set point.
    pub fn step_down(&mut self) {
        self.request(self.pending - self.step);
    }

    /// Requests one step up from the pending set point.
    pub fn step_up(&mut self) {
        self.request(self.pending + self.step);
    }

    /// Requests `n` steps up at once (the emergency path uses a larger
    /// increment, §III-B).
    pub fn step_up_by(&mut self, n: u32) {
        self.request(self.pending + Millivolts(self.step.0 * n as i32));
    }

    /// Applies the pending set point. Returns `true` if the output moved.
    pub(crate) fn tick(&mut self) -> bool {
        if self.pending != self.output {
            self.output = self.pending;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vr() -> VoltageRegulator {
        VoltageRegulator::new(Millivolts(800), Millivolts(500), Millivolts(1200))
    }

    #[test]
    fn request_snaps_to_grid_and_applies_next_tick() {
        let mut r = vr();
        r.request(Millivolts(733));
        assert_eq!(r.output(), Millivolts(800));
        assert_eq!(r.pending(), Millivolts(730));
        assert!(r.tick());
        assert_eq!(r.output(), Millivolts(730));
        assert!(!r.tick(), "no further movement without a new request");
    }

    #[test]
    fn request_clamps_to_range() {
        let mut r = vr();
        r.request(Millivolts(300));
        r.tick();
        assert_eq!(r.output(), Millivolts(500));
        r.request(Millivolts(2000));
        r.tick();
        assert_eq!(r.output(), Millivolts(1200));
    }

    #[test]
    fn step_up_down() {
        let mut r = vr();
        r.step_down();
        r.tick();
        assert_eq!(r.output(), Millivolts(795));
        r.step_up();
        r.step_up();
        r.tick();
        assert_eq!(r.output(), Millivolts(805));
    }

    #[test]
    fn emergency_multi_step() {
        let mut r = vr();
        r.step_up_by(5);
        r.tick();
        assert_eq!(r.output(), Millivolts(825));
    }

    #[test]
    fn pending_steps_compound_within_a_tick() {
        let mut r = vr();
        r.step_down();
        r.step_down();
        r.tick();
        assert_eq!(r.output(), Millivolts(790));
    }

    #[test]
    fn tick_reports_whether_the_output_moved() {
        let mut r = vr();
        r.step_down();
        assert!(r.tick());
        r.step_down();
        assert_eq!(r.pending(), Millivolts(790));
        assert!(r.tick());
        assert!(!r.tick(), "a settled regulator does not move");
        assert_eq!(
            (r.output(), r.pending()),
            (Millivolts(790), Millivolts(790))
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn initial_out_of_range_panics() {
        VoltageRegulator::new(Millivolts(400), Millivolts(500), Millivolts(1200));
    }
}

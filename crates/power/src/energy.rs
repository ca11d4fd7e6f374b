//! Energy integration.

use vs_types::{Joules, SimTime, Watts};

/// Integrates power over time into energy.
///
/// # Examples
///
/// ```
/// use vs_power::EnergyMeter;
/// use vs_types::{SimTime, Watts, Joules};
///
/// let mut meter = EnergyMeter::new();
/// meter.add(Watts(10.0), SimTime::from_millis(500));
/// meter.add(Watts(20.0), SimTime::from_millis(500));
/// assert_eq!(meter.total(), Joules(15.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeter {
    total: Joules,
    elapsed: SimTime,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> EnergyMeter {
        EnergyMeter::default()
    }

    /// Accumulates `power` held for `dt`.
    pub fn add(&mut self, power: Watts, dt: SimTime) {
        self.total += power.over_secs(dt.as_secs_f64());
        self.elapsed += dt;
    }

    /// Total energy so far.
    pub fn total(&self) -> Joules {
        self.total
    }

    /// Total integration time so far.
    #[cfg(test)]
    pub(crate) fn elapsed(&self) -> SimTime {
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_integrates() {
        let mut m = EnergyMeter::new();
        m.add(Watts(5.0), SimTime::from_secs(2));
        m.add(Watts(1.0), SimTime::from_secs(3));
        assert_eq!(m.total(), Joules(13.0));
        assert_eq!(m.elapsed(), SimTime::from_secs(5));
    }

    #[test]
    fn meter_handles_zero_dt() {
        let mut m = EnergyMeter::new();
        m.add(Watts(100.0), SimTime::ZERO);
        assert_eq!(m.total(), Joules(0.0));
    }
}

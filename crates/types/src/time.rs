//! Simulation time.
//!
//! The control-plane simulation advances in fixed ticks (1 ms by default,
//! matching the data-sampling period used on the reference platform, §IV-A4).
//! [`SimTime`] is a microsecond-resolution monotonic counter so that tick
//! arithmetic is exact.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) simulated time, at microsecond resolution.
///
/// ```
/// use vs_types::SimTime;
///
/// let t = SimTime::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(t + SimTime::from_millis(500), SimTime::from_secs(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    micros: u64,
}

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime { micros: 0 };

    /// Builds a time from whole microseconds.
    pub const fn from_micros(micros: u64) -> SimTime {
        SimTime { micros }
    }

    /// Builds a time from whole milliseconds.
    pub const fn from_millis(millis: u64) -> SimTime {
        SimTime {
            micros: millis * 1_000,
        }
    }

    /// Builds a time from whole seconds.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime {
            micros: secs * 1_000_000,
        }
    }

    /// The value in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// The value in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.micros / 1_000
    }

    /// The value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1.0e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime {
            micros: self.micros.saturating_sub(rhs.micros),
        }
    }

    /// Whether this instant lies on a multiple of `period` (used for
    /// scheduling periodic controller work).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[cfg(test)]
    pub(crate) fn is_multiple_of(self, period: SimTime) -> bool {
        assert!(period.micros > 0, "period must be positive");
        self.micros.is_multiple_of(period.micros)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.micros >= 1_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if self.micros >= 1_000 {
            write!(f, "{:.3} ms", self.micros as f64 / 1000.0)
        } else {
            write!(f, "{} µs", self.micros)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime {
            micros: self.micros + rhs.micros,
        }
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.micros += rhs.micros;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds on underflow; use
    /// [`SimTime::saturating_sub`] when the ordering is not known.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime {
            micros: self.micros - rhs.micros,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(300);
        let b = SimTime::from_millis(200);
        assert_eq!(a + b, SimTime::from_millis(500));
        assert_eq!(a - b, SimTime::from_millis(100));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut t = SimTime::ZERO;
        t += SimTime::from_micros(7);
        assert_eq!(t.as_micros(), 7);
    }

    #[test]
    fn periodicity() {
        let tick = SimTime::from_millis(10);
        assert!(SimTime::from_millis(40).is_multiple_of(tick));
        assert!(!SimTime::from_millis(45).is_multiple_of(tick));
        assert!(SimTime::ZERO.is_multiple_of(tick));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        SimTime::from_millis(10).is_multiple_of(SimTime::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_secs(90).to_string(), "90.000 s");
        assert_eq!(SimTime::from_millis(2).to_string(), "2.000 ms");
        assert_eq!(SimTime::from_micros(15).to_string(), "15 µs");
    }
}

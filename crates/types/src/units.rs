//! Strongly typed physical units.
//!
//! All supply voltages in the simulator are integral millivolt quantities
//! ([`Millivolts`]) because the modelled voltage regulators adjust the rail in
//! discrete 5 mV steps (paper §III-B). Analog quantities that arise from the
//! physics models (power, energy, temperature) use `f64` newtypes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A supply-voltage level in integral millivolts.
///
/// `Millivolts` is the unit the voltage-control plane speaks: regulator set
/// points, guardbands, and speculation steps are all integral millivolt
/// quantities. Conversion to volts for the physics models goes through
/// [`Millivolts::as_volts`].
///
/// # Examples
///
/// ```
/// use vs_types::Millivolts;
///
/// let nominal = Millivolts(1100);
/// let guardband = Millivolts(100);
/// assert_eq!(nominal - guardband, Millivolts(1000));
/// assert_eq!(Millivolts(800).as_volts(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Millivolts(pub i32);

impl Millivolts {
    /// Returns the value in volts as a float, for the analog models.
    #[inline]
    pub fn as_volts(self) -> f64 {
        f64::from(self.0) / 1000.0
    }

    /// Clamps the value into `[lo, hi]`.
    #[inline]
    #[cfg(test)]
    pub(crate) fn clamp(self, lo: Millivolts, hi: Millivolts) -> Millivolts {
        Millivolts(self.0.clamp(lo.0, hi.0))
    }

    /// Absolute difference between two levels.
    #[inline]
    #[cfg(test)]
    pub(crate) fn abs_diff(self, other: Millivolts) -> Millivolts {
        Millivolts((self.0 - other.0).abs())
    }

    /// The level as a fraction of `reference` (e.g. for "relative supply
    /// voltage" plots such as the paper's Figure 1).
    ///
    /// # Panics
    ///
    /// Panics if `reference` is zero.
    #[inline]
    pub fn relative_to(self, reference: Millivolts) -> f64 {
        assert!(reference.0 != 0, "reference voltage must be nonzero");
        f64::from(self.0) / f64::from(reference.0)
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mV", self.0)
    }
}

impl Add for Millivolts {
    type Output = Millivolts;
    fn add(self, rhs: Millivolts) -> Millivolts {
        Millivolts(self.0 + rhs.0)
    }
}

impl Sub for Millivolts {
    type Output = Millivolts;
    fn sub(self, rhs: Millivolts) -> Millivolts {
        Millivolts(self.0 - rhs.0)
    }
}

impl AddAssign for Millivolts {
    fn add_assign(&mut self, rhs: Millivolts) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Millivolts {
    fn sub_assign(&mut self, rhs: Millivolts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Millivolts {
    type Output = Millivolts;
    fn neg(self) -> Millivolts {
        Millivolts(-self.0)
    }
}

impl Mul<i32> for Millivolts {
    type Output = Millivolts;
    fn mul(self, rhs: i32) -> Millivolts {
        Millivolts(self.0 * rhs)
    }
}

/// A clock frequency in hertz.
///
/// ```
/// use vs_types::Hertz;
///
/// let high = Hertz::from_mhz(2530.0);
/// let low = Hertz::from_mhz(340.0);
/// assert!(high > low);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(pub f64);

impl Hertz {
    /// Builds a frequency from megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Hertz {
        Hertz(mhz * 1.0e6)
    }

    /// Builds a frequency from gigahertz.
    #[inline]
    pub(crate) fn from_ghz(ghz: f64) -> Hertz {
        Hertz(ghz * 1.0e9)
    }

    /// The frequency in megahertz.
    #[inline]
    pub(crate) fn as_mhz(self) -> f64 {
        self.0 / 1.0e6
    }

    /// The frequency in gigahertz.
    #[inline]
    pub(crate) fn as_ghz(self) -> f64 {
        self.0 / 1.0e9
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0e9 {
            write!(f, "{:.2} GHz", self.as_ghz())
        } else if self.0 >= 1.0e6 {
            write!(f, "{:.0} MHz", self.as_mhz())
        } else {
            write!(f, "{:.0} Hz", self.0)
        }
    }
}

/// Power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

impl Watts {
    /// Energy accumulated by holding this power for `secs` seconds.
    #[inline]
    pub fn over_secs(self, secs: f64) -> Joules {
        Joules(self.0 * secs)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} W", self.0)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Div<Watts> for Watts {
    type Output = f64;
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} J", self.0)
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Div<Joules> for Joules {
    type Output = f64;
    fn div(self, rhs: Joules) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

/// Temperature in degrees Celsius.
///
/// The paper reports that enclosure-fan-induced variation of up to 20 °C has
/// no measurable effect on error distribution (§III-D); the SRAM model keeps
/// a small temperature coefficient so that experiment can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(pub f64);

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} °C", self.0)
    }
}

impl Add for Celsius {
    type Output = Celsius;
    fn add(self, rhs: Celsius) -> Celsius {
        Celsius(self.0 + rhs.0)
    }
}

impl Sub for Celsius {
    type Output = Celsius;
    fn sub(self, rhs: Celsius) -> Celsius {
        Celsius(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millivolt_arithmetic() {
        let a = Millivolts(800);
        let b = Millivolts(64);
        assert_eq!(a - b, Millivolts(736));
        assert_eq!(a + b, Millivolts(864));
        assert_eq!(-b, Millivolts(-64));
        assert_eq!(b * 3, Millivolts(192));
        let mut c = a;
        c += b;
        assert_eq!(c, Millivolts(864));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn millivolt_clamp_and_diff() {
        assert_eq!(
            Millivolts(900).clamp(Millivolts(600), Millivolts(800)),
            Millivolts(800)
        );
        assert_eq!(
            Millivolts(500).clamp(Millivolts(600), Millivolts(800)),
            Millivolts(600)
        );
        assert_eq!(Millivolts(700).abs_diff(Millivolts(750)), Millivolts(50));
        assert_eq!(Millivolts(750).abs_diff(Millivolts(700)), Millivolts(50));
    }

    #[test]
    fn millivolt_relative() {
        let rel = Millivolts(736).relative_to(Millivolts(800));
        assert!((rel - 0.92).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reference voltage must be nonzero")]
    fn millivolt_relative_zero_reference_panics() {
        let _ = Millivolts(700).relative_to(Millivolts(0));
    }

    #[test]
    fn hertz_conversions() {
        let f = Hertz::from_ghz(2.53);
        assert!((f.as_mhz() - 2530.0).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Millivolts(736).to_string(), "736 mV");
        assert_eq!(Hertz::from_ghz(2.53).to_string(), "2.53 GHz");
        assert_eq!(Hertz::from_mhz(340.0).to_string(), "340 MHz");
        assert_eq!(Watts(33.125).to_string(), "33.125 W");
        assert_eq!(Celsius(45.0).to_string(), "45.0 °C");
    }

    #[test]
    fn power_energy_relation() {
        let e = Watts(10.0).over_secs(30.0);
        assert_eq!(e, Joules(300.0));
        let total: Joules = [Joules(1.0), Joules(2.5)].into_iter().sum();
        assert!((total.0 - 3.5).abs() < 1e-12);
        let total_w: Watts = [Watts(1.0), Watts(2.0)].into_iter().sum();
        assert!((total_w.0 - 3.0).abs() < 1e-12);
    }
}

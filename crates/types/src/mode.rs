//! Chip operating modes.
//!
//! The paper characterizes the same silicon at two operating points
//! (Table I): the nominal high-frequency point (2.53 GHz at 1.1 V) and a
//! low-voltage point at the lowest supported frequency (340 MHz at 800 mV —
//! derived by the authors by applying the measured 100 mV guardband to the
//! voltage of the first correctable error at that frequency).

use crate::units::{Hertz, Millivolts};
use std::fmt;

/// One of the two characterized operating points of the chip.
///
/// ```
/// use vs_types::VddMode;
///
/// assert_eq!(VddMode::Nominal.nominal_vdd().0, 1100);
/// assert_eq!(VddMode::LowVoltage.nominal_vdd().0, 800);
/// assert!(VddMode::Nominal.frequency() > VddMode::LowVoltage.frequency());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum VddMode {
    /// 2.53 GHz at a nominal 1.1 V supply.
    Nominal,
    /// 340 MHz at a nominal 800 mV supply — the regime the proposed
    /// speculation system is designed for.
    #[default]
    LowVoltage,
}

impl VddMode {
    /// The nominal supply voltage at this operating point.
    pub fn nominal_vdd(self) -> Millivolts {
        match self {
            VddMode::Nominal => Millivolts(1100),
            VddMode::LowVoltage => Millivolts(800),
        }
    }

    /// The fixed clock frequency at this operating point. Voltage
    /// speculation never changes frequency (that is the point: power savings
    /// with no performance impact).
    pub fn frequency(self) -> Hertz {
        match self {
            VddMode::Nominal => Hertz::from_ghz(2.53),
            VddMode::LowVoltage => Hertz::from_mhz(340.0),
        }
    }

    /// The guardband the platform applies below nominal before any
    /// correctable error is expected (~100 mV at both points, §IV).
    #[cfg(test)]
    pub(crate) fn guardband(self) -> Millivolts {
        Millivolts(100)
    }

    /// A stable small integer for RNG stream derivation.
    #[cfg(test)]
    pub(crate) fn stream_id(self) -> u64 {
        match self {
            VddMode::Nominal => 0,
            VddMode::LowVoltage => 1,
        }
    }
}

impl fmt::Display for VddMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VddMode::Nominal => write!(f, "nominal (2.53 GHz)"),
            VddMode::LowVoltage => write!(f, "low-voltage (340 MHz)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_constants() {
        assert_eq!(VddMode::Nominal.nominal_vdd(), Millivolts(1100));
        assert_eq!(VddMode::LowVoltage.nominal_vdd(), Millivolts(800));
        assert!((VddMode::Nominal.frequency().as_ghz() - 2.53).abs() < 1e-9);
        assert!((VddMode::LowVoltage.frequency().as_mhz() - 340.0).abs() < 1e-9);
        assert_eq!(VddMode::Nominal.guardband(), Millivolts(100));
    }

    #[test]
    fn stream_ids_differ() {
        assert_ne!(
            VddMode::Nominal.stream_id(),
            VddMode::LowVoltage.stream_id()
        );
    }

    #[test]
    fn display() {
        assert!(VddMode::LowVoltage.to_string().contains("340"));
    }
}

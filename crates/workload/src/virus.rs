//! The FMA/NOP voltage virus (§IV-B).
//!
//! The virus is a tight loop of high-power floating-point multiply-add
//! instructions interleaved with a configurable number of NOPs. Varying the
//! NOP count sweeps the loop's power-oscillation frequency; when it lands
//! on the chip's package resonance the supply droops far more than the
//! virus's average power would suggest. The paper uses this to show that
//! correctable errors in cache lines are sensitive enough to detect voltage
//! noise (Figures 15 and 16).

use crate::demand::{Demand, Workload};
use vs_types::{Hertz, SimTime};

/// The FMA/NOP voltage virus, parameterized by NOP count.
///
/// # Examples
///
/// ```
/// use vs_workload::{VoltageVirus, Workload};
/// use vs_types::{Hertz, SimTime};
///
/// let clk = Hertz::from_mhz(340.0);
/// let resonant = VoltageVirus::new(8, clk);
/// let flat = VoltageVirus::new(0, clk);
/// // NOP-0 has higher average power...
/// assert!(flat.demand(SimTime::ZERO).activity > resonant.demand(SimTime::ZERO).activity);
/// // ...but essentially no oscillation.
/// assert!(flat.demand(SimTime::ZERO).activity_osc_amplitude < 1e-12);
/// assert!(resonant.demand(SimTime::ZERO).activity_osc_amplitude > 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageVirus {
    nop_count: u32,
    clock: Hertz,
    name: VirusName,
}

/// A stack-allocated name buffer so `Workload::name` can return a slice.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VirusName {
    buf: [u8; 24],
    len: usize,
}

impl VirusName {
    fn new(nop_count: u32) -> VirusName {
        let s = format!("voltage-virus-nop{nop_count}");
        let mut buf = [0u8; 24];
        let bytes = s.as_bytes();
        let len = bytes.len().min(24);
        buf[..len].copy_from_slice(&bytes[..len]);
        VirusName { buf, len }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("constructed from a str")
    }
}

/// Cycles of the high-power FMA body per loop iteration.
pub(crate) const VIRUS_BODY_CYCLES: u32 = 13;

/// Activity during the FMA burst (a power virus exceeds normal full load).
const ACTIVITY_HIGH: f64 = 1.45;
/// Activity during the NOP filler.
const ACTIVITY_LOW: f64 = 0.15;

impl VoltageVirus {
    /// Creates a virus with `nop_count` NOPs per iteration, running on a
    /// core clocked at `clock`.
    pub fn new(nop_count: u32, clock: Hertz) -> VoltageVirus {
        VoltageVirus {
            nop_count,
            clock,
            name: VirusName::new(nop_count),
        }
    }

    /// Duty cycle of the high-power phase.
    pub fn duty_cycle(&self) -> f64 {
        f64::from(VIRUS_BODY_CYCLES) / f64::from(VIRUS_BODY_CYCLES + self.nop_count)
    }

    /// The loop's power-oscillation frequency: one high/low cycle per loop
    /// iteration of `body + nops` core cycles.
    pub fn oscillation_frequency(&self) -> Hertz {
        Hertz(self.clock.0 / f64::from(VIRUS_BODY_CYCLES + self.nop_count))
    }

    /// Mean activity over one iteration.
    pub(crate) fn mean_activity(&self) -> f64 {
        let d = self.duty_cycle();
        ACTIVITY_HIGH * d + ACTIVITY_LOW * (1.0 - d)
    }

    /// Amplitude of the fundamental of the activity square wave: the
    /// peak-to-mean swing `(high − low)·sin(π·duty)·(2/π)`, which vanishes
    /// for NOP-0 (no low phase) and shrinks as NOPs dominate.
    pub(crate) fn oscillation_amplitude(&self) -> f64 {
        let d = self.duty_cycle();
        (ACTIVITY_HIGH - ACTIVITY_LOW)
            * (std::f64::consts::PI * d).sin()
            * (2.0 / std::f64::consts::PI)
    }
}

impl Workload for VoltageVirus {
    fn name(&self) -> &str {
        self.name.as_str()
    }

    fn demand(&self, _t: SimTime) -> Demand {
        Demand {
            activity: self.mean_activity(),
            activity_osc_amplitude: self.oscillation_amplitude(),
            osc_freq_hz: self.oscillation_frequency().0,
            activity_transient_step: 0.0,
            // The virus is a register-resident loop: almost no L2 traffic.
            l2_accesses_per_ms: 20.0,
            instruction_fraction: 0.5,
            footprint_fraction: 0.001,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clk() -> Hertz {
        Hertz::from_mhz(340.0)
    }

    #[test]
    fn name_includes_nop_count() {
        assert_eq!(VoltageVirus::new(8, clk()).name(), "voltage-virus-nop8");
        assert_eq!(VoltageVirus::new(0, clk()).name(), "voltage-virus-nop0");
    }

    #[test]
    fn nop8_oscillates_at_the_default_pdn_resonance() {
        let v = VoltageVirus::new(8, clk());
        let f = v.oscillation_frequency().0;
        assert!(
            (f - 340.0e6 / 21.0).abs() < 1.0,
            "NOP-8 at 340 MHz must land on 16.19 MHz, got {f}"
        );
    }

    #[test]
    fn mean_power_decreases_with_nops() {
        let mut prev = f64::INFINITY;
        for n in 0..=20 {
            let a = VoltageVirus::new(n, clk()).mean_activity();
            assert!(a < prev, "mean activity must fall as NOPs increase");
            prev = a;
        }
    }

    #[test]
    fn nop0_has_no_oscillation() {
        let v = VoltageVirus::new(0, clk());
        assert!(v.oscillation_amplitude() < 1e-12);
        assert_eq!(v.duty_cycle(), 1.0);
    }

    #[test]
    fn oscillation_amplitude_peaks_near_half_duty() {
        // duty = 0.5 at nop = body = 13.
        let at_13 = VoltageVirus::new(13, clk()).oscillation_amplitude();
        for n in [0, 2, 40, 100] {
            assert!(VoltageVirus::new(n, clk()).oscillation_amplitude() <= at_13 + 1e-12);
        }
    }

    #[test]
    fn demand_is_valid_and_register_resident() {
        let d = VoltageVirus::new(8, clk()).demand(SimTime::from_secs(1));
        assert!(d.is_valid());
        assert!(d.l2_accesses_per_ms < 100.0);
        assert!(d.footprint_fraction < 0.01);
    }

    #[test]
    fn frequency_sweep_is_monotone() {
        let mut prev = f64::INFINITY;
        for n in 0..=20 {
            let f = VoltageVirus::new(n, clk()).oscillation_frequency().0;
            assert!(f < prev);
            prev = f;
        }
    }
}

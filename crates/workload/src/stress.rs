//! Stress workloads used for characterization and robustness testing.

use crate::demand::{Demand, Workload};
use vs_types::rng::CounterRng;
use vs_types::SimTime;

/// The voltage-margin characterization stress mix: CPU-intensive (FP and
/// INT) kernels plus cache- and memory-intensive kernels, designed to
/// exercise the whole chip (paper §II-A, Table II "Stress test").
///
/// The mix alternates between compute-heavy and cache-heavy phases every
/// few hundred milliseconds so that both the power rails and the caches see
/// sustained pressure; its large footprint touches most L2 lines, which is
/// what makes it suitable for finding the minimum safe voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressTest {
    seed: u64,
}

impl Default for StressTest {
    fn default() -> StressTest {
        StressTest::new(0x57E5)
    }
}

impl StressTest {
    /// Creates the stress mix with a phase-pattern seed.
    pub(crate) fn new(seed: u64) -> StressTest {
        StressTest { seed }
    }
}

impl Workload for StressTest {
    fn name(&self) -> &str {
        "stress-test"
    }

    fn demand(&self, t: SimTime) -> Demand {
        // 400 ms alternating compute / cache phases with seeded jitter.
        let phase = t.as_millis() / 400;
        let mut rng = CounterRng::from_key(self.seed, &[phase]);
        let cache_heavy = phase % 2 == 1;
        let jitter = 0.9 + 0.2 * rng.next_f64();
        if cache_heavy {
            Demand {
                activity: 0.75 * jitter,
                activity_osc_amplitude: 0.08,
                osc_freq_hz: 2.0e5,
                activity_transient_step: 0.0,
                l2_accesses_per_ms: 5200.0 * jitter,
                instruction_fraction: 0.30,
                footprint_fraction: 0.85,
            }
        } else {
            Demand {
                activity: 1.05 * jitter,
                activity_osc_amplitude: 0.10,
                osc_freq_hz: 2.0e5,
                activity_transient_step: 0.0,
                l2_accesses_per_ms: 1500.0 * jitter,
                instruction_fraction: 0.40,
                footprint_fraction: 0.60,
            }
        }
    }
}

/// The duty-cycled stress kernel of the activity-variation experiment
/// (§V-D1): runs flat out for `period_on`, then is throttled into a
/// firmware spin-loop for `period_off`, with abrupt transitions that
/// produce load-step droops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressKernel {
    period_on: SimTime,
    period_off: SimTime,
}

impl Default for StressKernel {
    fn default() -> StressKernel {
        // The paper throttles every 30 seconds.
        StressKernel::new(SimTime::from_secs(30), SimTime::from_secs(30))
    }
}

impl StressKernel {
    /// Creates a kernel with explicit on/off periods.
    ///
    /// # Panics
    ///
    /// Panics if either period is zero.
    pub(crate) fn new(period_on: SimTime, period_off: SimTime) -> StressKernel {
        assert!(
            period_on > SimTime::ZERO && period_off > SimTime::ZERO,
            "periods must be positive"
        );
        StressKernel {
            period_on,
            period_off,
        }
    }

    /// Whether the kernel is in its active phase at `t`.
    pub(crate) fn is_active(&self, t: SimTime) -> bool {
        let cycle = self.period_on.as_micros() + self.period_off.as_micros();
        (t.as_micros() % cycle) < self.period_on.as_micros()
    }

    fn at_transition(&self, t: SimTime) -> bool {
        let cycle = self.period_on.as_micros() + self.period_off.as_micros();
        let pos = t.as_micros() % cycle;
        pos < 1_000 || pos.abs_diff(self.period_on.as_micros()) < 1_000
    }
}

impl Workload for StressKernel {
    fn name(&self) -> &str {
        "stress-kernel"
    }

    fn demand(&self, t: SimTime) -> Demand {
        let active = self.is_active(t);
        let step = if self.at_transition(t) { 1.0 } else { 0.0 };
        if active {
            Demand {
                activity: 1.15,
                activity_osc_amplitude: 0.12,
                osc_freq_hz: 3.0e5,
                activity_transient_step: step,
                l2_accesses_per_ms: 3000.0,
                instruction_fraction: 0.25,
                footprint_fraction: 0.5,
            }
        } else {
            Demand {
                activity_transient_step: step,
                ..Demand::idle()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_test_alternates_phases() {
        let s = StressTest::default();
        let compute = s.demand(SimTime::from_millis(100));
        let cache = s.demand(SimTime::from_millis(500));
        assert!(cache.l2_accesses_per_ms > compute.l2_accesses_per_ms);
        assert!(compute.activity > cache.activity);
        assert!(compute.is_valid() && cache.is_valid());
    }

    #[test]
    fn stress_test_has_large_footprint() {
        let s = StressTest::default();
        for ms in (0..4000).step_by(250) {
            let d = s.demand(SimTime::from_millis(ms));
            assert!(
                d.footprint_fraction >= 0.5,
                "stress test must exercise most of the cache"
            );
        }
    }

    #[test]
    fn kernel_duty_cycle() {
        let k = StressKernel::default();
        assert!(k.is_active(SimTime::from_secs(10)));
        assert!(!k.is_active(SimTime::from_secs(40)));
        assert!(k.is_active(SimTime::from_secs(70)));
        assert!(k.demand(SimTime::from_secs(10)).activity > 1.0);
        assert_eq!(k.demand(SimTime::from_secs(40)).activity, 0.0);
    }

    #[test]
    fn kernel_reports_transients_at_edges() {
        let k = StressKernel::default();
        assert!(k.demand(SimTime::from_secs(30)).activity_transient_step > 0.0);
        assert!(k.demand(SimTime::from_secs(60)).activity_transient_step > 0.0);
        assert_eq!(
            k.demand(SimTime::from_secs(45)).activity_transient_step,
            0.0
        );
    }

    #[test]
    fn custom_periods() {
        let k = StressKernel::new(SimTime::from_secs(5), SimTime::from_secs(15));
        assert!(k.is_active(SimTime::from_secs(4)));
        assert!(!k.is_active(SimTime::from_secs(6)));
        assert!(k.is_active(SimTime::from_secs(21)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        StressKernel::new(SimTime::ZERO, SimTime::from_secs(1));
    }
}

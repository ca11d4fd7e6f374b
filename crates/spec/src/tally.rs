//! The bookkeeping every mechanism run shares.
//!
//! Whatever steers the voltage — the ECC-guided controllers, the firmware
//! baseline, the CPM baseline, or nothing at all — a run is measured the
//! same way: one [`RunTally`] records each tick and closes into a
//! [`RunStats`]. The open-loop mechanisms also share one tick loop,
//! [`run_periodic`].

use crate::system::RunStats;
use vs_platform::Chip;
use vs_types::{CoreId, DomainId, SimTime, Watts};

/// Per-tick sums and start-of-run counters of one run on one chip.
#[derive(Debug, Clone)]
pub(crate) struct RunTally {
    ticks: u64,
    power_sum: f64,
    vdd_sums: Vec<f64>,
    emergencies: u64,
    energy_before: f64,
    rail_energy_before: f64,
    ce_before: u64,
}

impl RunTally {
    /// Starts a tally on `chip` as it stands now.
    pub(crate) fn start(chip: &Chip) -> RunTally {
        RunTally {
            ticks: 0,
            power_sum: 0.0,
            vdd_sums: vec![0.0; chip.config().num_domains()],
            emergencies: 0,
            energy_before: chip.energy().total().0,
            rail_energy_before: chip.core_rail_energy().total().0,
            ce_before: chip.ecc_counts().correctable(),
        }
    }

    /// Records one executed tick: the chip's power during it, every
    /// domain's set point after it, and the emergencies it fired.
    #[inline]
    pub(crate) fn record(&mut self, chip: &Chip, power: Watts, emergencies: u64) {
        self.ticks += 1;
        self.power_sum += power.0;
        for (d, sum) in self.vdd_sums.iter_mut().enumerate() {
            *sum += f64::from(chip.domain_set_point(DomainId(d)).0);
        }
        self.emergencies += emergencies;
    }

    /// Ticks recorded so far.
    pub(crate) fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Closes the tally into the statistics of a run that covered
    /// `duration`. Means are over the recorded ticks; energy and error
    /// counts are the chip's deltas since [`RunTally::start`]. The
    /// recovery fields are zero and the trace empty: only a closed-loop
    /// system has them.
    pub(crate) fn finish(self, chip: &Chip, duration: SimTime) -> RunStats {
        let ticks = self.ticks.max(1) as f64;
        RunStats {
            duration,
            mean_vdd_mv: self.vdd_sums.iter().map(|s| s / ticks).collect(),
            mean_power_w: self.power_sum / ticks,
            energy_j: chip.energy().total().0 - self.energy_before,
            core_rail_energy_j: chip.core_rail_energy().total().0 - self.rail_energy_before,
            correctable: chip.ecc_counts().correctable() - self.ce_before,
            emergencies: self.emergencies,
            crashed_cores: (0..chip.config().num_cores)
                .filter(|i| chip.crash_info(CoreId(*i)).is_some())
                .collect(),
            dues_consumed: 0,
            crash_rollbacks: 0,
            recovery_time: SimTime::ZERO,
            quarantined_domains: Vec::new(),
            trace: Vec::new(),
        }
    }
}

/// Runs `chip` for `duration` under an open-loop mechanism that acts once
/// at the end of every `period`, and returns the run's statistics.
pub(crate) fn run_periodic(
    chip: &mut Chip,
    duration: SimTime,
    period: SimTime,
    mut on_period: impl FnMut(&mut Chip),
) -> RunStats {
    let tick = chip.config().tick;
    let ticks = (duration.as_micros() / tick.as_micros()).max(1);
    let period_ticks = (period.as_micros() / tick.as_micros()).max(1);
    let mut tally = RunTally::start(chip);
    for t in 0..ticks {
        let report = chip.tick();
        tally.record(chip, report.power, 0);
        if (t + 1) % period_ticks == 0 {
            on_period(chip);
        }
    }
    tally.finish(chip, duration)
}

/// Runs `chip` at fixed nominal voltage with no speculation for
/// `duration`: the reference every mechanism is normalized against.
pub(crate) fn run_nominal(chip: &mut Chip, duration: SimTime) -> RunStats {
    let nominal = chip.mode().nominal_vdd();
    for d in 0..chip.config().num_domains() {
        chip.request_domain_voltage(DomainId(d), nominal);
    }
    // Nothing acts at a period boundary, so one period spans the run.
    run_periodic(chip, duration, duration, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_platform::ChipConfig;
    use vs_types::Millivolts;

    fn small_chip() -> Chip {
        Chip::new(ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(3)
        })
    }

    #[test]
    fn nominal_run_holds_nominal_and_measures_the_whole_run() {
        let mut chip = small_chip();
        chip.request_domain_voltage(DomainId(0), Millivolts(700));
        chip.tick();
        let stats = run_nominal(&mut chip, SimTime::from_millis(200));
        assert_eq!(stats.mean_vdd_mv, vec![800.0]);
        assert_eq!(stats.duration, SimTime::from_millis(200));
        assert!(stats.is_safe());
        assert!(stats.core_rail_energy_j > 0.0 && stats.energy_j > stats.core_rail_energy_j);
        let mean_power = stats.energy_j / stats.duration.as_secs_f64();
        assert!((stats.mean_power_w - mean_power).abs() < 1e-9 * mean_power);
    }

    #[test]
    fn periodic_loop_acts_once_per_whole_period() {
        let mut chip = small_chip();
        let mut calls = Vec::new();
        let stats = run_periodic(
            &mut chip,
            SimTime::from_millis(25),
            SimTime::from_millis(10),
            |chip| calls.push(chip.now()),
        );
        assert_eq!(calls, [SimTime::from_millis(10), SimTime::from_millis(20)]);
        assert_eq!(stats.duration, SimTime::from_millis(25));
    }
}

//! A phase-by-phase replica of `vs_fleet::simulate_chip` for the
//! hardware variant, timed under spans.
//!
//! The replica calls the same public functions in the same order as the
//! fleet's chip job — characterize on a scratch die, calibrate with the
//! scratch die's cell banks, assign the chip's workloads, run in
//! `SpecRun::advance` slices, then the fixed-nominal baseline — so each
//! phase's wall time can be taken separately. The traced run compares
//! every replica's summary with `simulate_chip`'s: if the chip job ever
//! changes its recipe, the mismatch count says the phase breakdown no
//! longer describes it.

use crate::report::{Better, Metric, Report};
use crate::stats::Summary;
use crate::trace::{self_time_by_name, unattributed_pct, Tracer};
use std::time::Instant;
use vs_fleet::{
    simulate_chip, ChipSummary, ControllerVariant, CoreMarginSummary, FleetConfig, MarginsMode,
};
use vs_platform::characterize::all_analytic_core_margins;
use vs_platform::{BankMap, Chip};
use vs_spec::{SpecRun, SpeculationSystem};
use vs_types::{ChipId, CoreId};

/// RNG stream of the chip job's workload assignment (the fleet crate's
/// `ASSIGN_STREAM`); a different value shows up as replica mismatches.
const ASSIGN_STREAM: u64 = 0xA551_6E00;

/// Wall time of one replayed chip and of each of its phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    pub chip_ns: f64,
    pub characterize_ns: f64,
    pub calibrate_ns: f64,
    pub run_ns: f64,
    pub baseline_ns: f64,
    /// Simulation ticks in the run phase.
    pub ticks: u64,
}

impl Phases {
    pub fn phase_sum_ns(&self) -> f64 {
        self.characterize_ns + self.calibrate_ns + self.run_ns + self.baseline_ns
    }
}

/// Assigns the chip's workloads exactly as the fleet's chip job does.
pub fn assign_workloads(config: &FleetConfig, chip: ChipId, target: &mut Chip) {
    let mut rng = config.effective_seed().chip_rng(chip, ASSIGN_STREAM);
    for core in 0..target.config().num_cores {
        let workload = config.assignment.workload_for(chip.0, core, &mut rng);
        target.set_workload(CoreId(core), workload);
    }
}

/// A fresh system for `chip` on the scratch die's banks.
fn system(config: &FleetConfig, chip: ChipId, banks: &BankMap) -> SpeculationSystem {
    let mut sys = SpeculationSystem::new(config.chip_config(chip), config.controller);
    sys.chip_mut().preload_banks(banks);
    sys
}

/// Replays one chip of a clean hardware-variant fleet with analytic
/// margins, recording a `chip` span (trace id = chip id) with
/// `characterize`, `calibrate`, `run` (with one `slice` per advance) and
/// `baseline` children.
///
/// # Panics
///
/// Panics on a fleet the replica does not model (another variant,
/// measured margins, or injected faults).
pub fn replicate(config: &FleetConfig, chip: ChipId, tracer: &mut Tracer) -> (ChipSummary, Phases) {
    assert!(
        config.variant == ControllerVariant::Hardware
            && config.margins == MarginsMode::Analytic
            && config.faults.is_empty(),
        "the replica models clean hardware-variant fleets with analytic margins"
    );
    let trace = chip.0;
    let root = tracer.reserve();
    let t_chip = Instant::now();

    let t0 = Instant::now();
    let chip_config = config.chip_config(chip);
    let mut scratch = Chip::new(chip_config.clone());
    let margins: Vec<CoreMarginSummary> = all_analytic_core_margins(&mut scratch)
        .into_iter()
        .map(|m| CoreMarginSummary {
            core: m.core.0,
            first_error_mv: m.first_error_vdd.0,
            min_safe_mv: m.min_safe_vdd.0,
        })
        .collect();
    let banks = scratch.export_banks();
    let t1 = Instant::now();
    tracer.leaf(trace, Some(root), "characterize", t0, t1);

    let mut sys = system(config, chip, &banks);
    sys.calibrate_fast();
    let t2 = Instant::now();
    tracer.leaf(trace, Some(root), "calibrate", t1, t2);

    let run = tracer.reserve();
    assign_workloads(config, chip, sys.chip_mut());
    let mut session = SpecRun::new(&sys, config.run_duration);
    loop {
        let s0 = Instant::now();
        if session.advance(&mut sys, config.slice_ticks) == 0 {
            break;
        }
        tracer.leaf(trace, Some(run), "slice", s0, Instant::now());
    }
    let ticks = session.progress().0;
    let stats = session.finish(&sys);
    let nominal = sys.chip().mode().nominal_vdd();
    let reduction = SpeculationSystem::voltage_reduction(&stats, nominal);
    let t3 = Instant::now();
    tracer.record(run, trace, Some(root), "run", t2, t3);

    let mut base = system(config, chip, &banks);
    assign_workloads(config, chip, base.chip_mut());
    let base_energy = base.run_baseline(config.run_duration).core_rail_energy_j;
    let t4 = Instant::now();
    tracer.leaf(trace, Some(root), "baseline", t3, t4);
    tracer.record(root, trace, None, "chip", t_chip, t4);

    let savings = if base_energy > 0.0 {
        1.0 - stats.core_rail_energy_j / base_energy
    } else {
        0.0
    };
    let summary = ChipSummary {
        chip,
        die_seed: chip_config.seed,
        margins,
        mean_vdd_mv: stats.mean_vdd_mv,
        vdd_reduction: reduction,
        energy_savings: savings,
        correctable: stats.correctable,
        emergencies: stats.emergencies,
        crashes: stats.crashed_cores.len() as u64,
        sw_overhead: 0.0,
        dues: stats.dues_consumed,
        rollbacks: stats.crash_rollbacks,
    };
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
    let phases = Phases {
        chip_ns: ns(t_chip, t4),
        characterize_ns: ns(t0, t1),
        calibrate_ns: ns(t1, t2),
        run_ns: ns(t2, t3),
        baseline_ns: ns(t3, t4),
        ticks,
    };
    (summary, phases)
}

/// Chips replayed together, with the untraced wall time they took: one
/// chip of a sweep with its callback gap, or every chip of a daemon job
/// with the job's submit-to-Done latency.
pub struct Unit {
    pub config: FleetConfig,
    pub chips: Vec<ChipId>,
    pub wall_ns: f64,
}

/// Replayed chips, accumulated unit by unit.
#[derive(Default)]
pub struct Replay {
    phases: Vec<Phases>,
    mismatches: u64,
    phase_sum_ns: f64,
    wall_sum_ns: f64,
}

impl Replay {
    /// Replays every chip of `unit` phase by phase under spans and
    /// compares each replica with `simulate_chip` (untimed).
    pub fn unit(&mut self, unit: &Unit, tracer: &mut Tracer) {
        for &chip in &unit.chips {
            let (summary, p) = replicate(&unit.config, chip, tracer);
            if summary != simulate_chip(&unit.config, chip) {
                self.mismatches += 1;
            }
            self.phase_sum_ns += p.phase_sum_ns();
            self.phases.push(p);
        }
        self.wall_sum_ns += unit.wall_ns;
    }

    /// Chips replayed so far.
    pub fn chips(&self) -> usize {
        self.phases.len()
    }

    /// Reports the phase metrics, `fleet.unattributed_pct` (phase sum
    /// against the units' untraced wall), `fleet.replica_mismatch` and
    /// mean self time per span name. Returns the traced rate: replayed
    /// chips per second of chip span.
    ///
    /// # Panics
    ///
    /// Panics if no chip was replayed.
    pub fn report(self, tracer: &Tracer, report: &mut Report) -> f64 {
        let Replay {
            phases,
            mismatches,
            phase_sum_ns,
            wall_sum_ns,
        } = self;
        if mismatches > 0 {
            report.problem(format!(
                "{mismatches} of {} replayed chips differ from simulate_chip",
                phases.len()
            ));
        }
        let lower = Better::Lower;
        report.push(Metric::single(
            "fleet.replica_mismatch",
            "count",
            lower,
            mismatches as f64,
        ));
        type Phase = fn(&Phases) -> f64;
        let ms = |f: Phase| -> Summary {
            let xs: Vec<f64> = phases.iter().map(|p| f(p) / 1e6).collect();
            Summary::of(&xs).expect("at least one replayed chip")
        };
        let phase_metrics: [(&str, Phase); 5] = [
            ("fleet.chip_ms", |p| p.chip_ns),
            ("platform.characterize_ms", |p| p.characterize_ns),
            ("spec.calibrate_ms", |p| p.calibrate_ns),
            ("spec.run_ms", |p| p.run_ns),
            ("spec.baseline_ms", |p| p.baseline_ns),
        ];
        for (name, f) in phase_metrics {
            report.push(Metric::median(name, "ms", lower, ms(f)));
        }
        // ms(run / ticks) × 1000 = µs per tick.
        let step = ms(|p| p.run_ns / p.ticks as f64 * 1e3);
        report.push(Metric::median("spec.step_us", "us", lower, step));
        report.push(Metric::single(
            "fleet.unattributed_pct",
            "%",
            lower,
            unattributed_pct(phase_sum_ns, wall_sum_ns),
        ));
        // Mean self time per span of each name: what a layer costs beyond
        // the layers it calls.
        for (name, (total_ns, count)) in self_time_by_name(tracer.spans()) {
            report.push(Metric {
                samples: count,
                ..Metric::single(
                    &format!("self.{name}_ms"),
                    "ms",
                    lower,
                    total_ns as f64 / count as f64 / 1e6,
                )
            });
        }
        let span_s: f64 = phases.iter().map(|p| p.chip_ns).sum::<f64>() / 1e9;
        phases.len() as f64 / span_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::{FleetSeed, SimTime};

    #[test]
    fn replica_matches_the_chip_job_and_spans_nest() {
        let mut config = FleetConfig::small(FleetSeed(2014), 4);
        config.run_duration = SimTime::from_millis(60);
        config.slice_ticks = 25;
        let mut tracer = Tracer::new(Instant::now());
        for chip in 0..2 {
            let (summary, phases) = replicate(&config, ChipId(chip), &mut tracer);
            assert_eq!(summary, simulate_chip(&config, ChipId(chip)));
            assert_eq!(phases.ticks, 60);
            assert!(phases.phase_sum_ns() <= phases.chip_ns);
        }
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        // Per chip: characterize, calibrate, 3 slices, run, baseline, chip.
        assert_eq!(names.len(), 16);
        assert_eq!(names.iter().filter(|n| **n == "slice").count(), 6);
        let roots: Vec<_> = tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .collect();
        assert_eq!(roots.len(), 2);
        assert!(roots.iter().all(|s| s.name == "chip"));
    }
}

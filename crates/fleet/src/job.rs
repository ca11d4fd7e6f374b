//! The per-chip unit of work: simulate one die of the fleet end to end.
//!
//! [`simulate_chip`] is a pure function of `(FleetConfig, ChipId)` — it
//! derives the die, its margins, its workloads, runs the configured
//! controller variant against a fixed-nominal baseline, and returns one
//! [`ChipSummary`]. Nothing in here reads shared state, so any worker can
//! run any chip in any order and the fleet's aggregate is unchanged.

use crate::config::{ControllerVariant, FleetConfig, MarginsMode};
use crate::summary::{ChipSummary, CoreMarginSummary};
use vs_guard::CancelToken;
use vs_obs::span::{batch_span, chip_span, lane_of, lane_span};
use vs_platform::characterize::all_analytic_core_margins;
use vs_platform::{BankMap, Chip, ChipConfig};
use vs_spec::{RunStats, SpecRun, SpeculationSystem, Testbed};
use vs_telemetry::{EventCategory, EventFilter, Recorder, SpanLevel, TelemetryEvent};
use vs_types::rng::CounterRng;
use vs_types::{ChipId, CoreId};

/// Stream id of the per-chip workload-assignment RNG (domain-separated
/// from every other [`FleetSeed::chip_rng`](vs_types::FleetSeed::chip_rng)
/// consumer).
const ASSIGN_STREAM: u64 = 0xA551_6E00;

/// Simulates one chip of the fleet and returns its summary.
pub fn simulate_chip(config: &FleetConfig, chip: ChipId) -> ChipSummary {
    simulate_chip_traced(config, chip, EventFilter::none()).0
}

/// Simulates one chip and also returns its telemetry stream: the fleet
/// job-lifecycle bracket (when the filter keeps `fleet` events) around the
/// speculation run's own events (hardware variant only — the firmware and
/// no-speculation baselines do not run the monitor/controller loop).
///
/// The stream is a pure function of `(config, chip, filter)` — workers can
/// run chips in any order and the merged per-chip streams are identical.
pub(crate) fn simulate_chip_traced(
    config: &FleetConfig,
    chip: ChipId,
    filter: EventFilter,
) -> (ChipSummary, Vec<TelemetryEvent>) {
    simulate_chip_guarded(config, chip, filter, &CancelToken::new(), || {})
        .expect("a fresh token is never cancelled")
}

/// [`simulate_chip_traced`] under supervision: `cancel` is polled between
/// simulation slices (a cancelled job returns `None` within one slice,
/// discarding its partial work) and `beat` is invoked at the same points
/// so a watchdog can tell a slow chip from a hung one.
///
/// Supervision never touches the simulated results: a job that completes
/// under a never-cancelled token is bit-identical to an unsupervised one.
pub(crate) fn simulate_chip_guarded(
    config: &FleetConfig,
    chip: ChipId,
    filter: EventFilter,
    cancel: &CancelToken,
    mut beat: impl FnMut(),
) -> Option<(ChipSummary, Vec<TelemetryEvent>)> {
    if cancel.is_cancelled() {
        return None;
    }
    let chip_config = config.chip_config(chip);
    let die_seed = chip_config.seed;
    let (margins, banks) = characterize(config, &chip_config);
    beat();
    if cancel.is_cancelled() {
        return None;
    }
    let mut events = Vec::new();
    // Chip span: opened before the job-lifecycle bracket, closed after
    // it, parented to the chip's *virtual* lane (`chip mod LANES`) so the
    // span tree is a pure function of the chip id, never of which
    // physical worker ran it.
    let spans = filter.accepts(EventCategory::Span);
    if spans {
        events.push(TelemetryEvent::SpanOpen {
            at: vs_types::SimTime::ZERO,
            id: chip_span(chip),
            parent: lane_span(lane_of(chip)),
            level: SpanLevel::Chip,
            ident: chip.0,
        });
    }
    if filter.accepts(EventCategory::Fleet) {
        events.push(TelemetryEvent::JobStarted { chip });
    }

    // The die and its workloads, on which the variant and the
    // fixed-nominal baseline both run.
    let bed = Testbed::new(chip_config.clone(), config.run_duration, |target| {
        assign_workloads(config, chip, target)
    })
    .with_banks(&banks);
    let (stats, energy_savings, sw_overhead) = match config.variant {
        ControllerVariant::Hardware => {
            let stats = run_hardware(
                config,
                chip,
                &chip_config,
                &banks,
                filter,
                &mut events,
                cancel,
                &mut beat,
            )?;
            let saved = saved_fraction(stats.core_rail_energy_j, &bed.nominal());
            (stats, saved, 0.0)
        }
        // The firmware and no-speculation baselines run monolithically
        // (no slice loop to poll inside); the entry check above still
        // bounds how late a cancelled claim can start.
        ControllerVariant::Software => {
            let fw = bed.firmware(config.software);
            let saved = saved_fraction(fw.rail_energy_j(), &bed.nominal());
            (fw.stats, saved, fw.overhead_fraction)
        }
        ControllerVariant::Baseline => (bed.nominal(), 0.0, 0.0),
    };
    let crashes = stats.crashed_cores.len() as u64;

    if filter.accepts(EventCategory::Fleet) {
        events.push(TelemetryEvent::JobFinished {
            chip,
            sim_time: config.run_duration,
            correctable: stats.correctable,
            emergencies: stats.emergencies,
            crashes,
        });
    }
    if spans {
        // Everything pushed since the chip's SpanOpen (including batch
        // span events) is enclosed by it.
        events.push(TelemetryEvent::SpanClose {
            at: config.run_duration,
            id: chip_span(chip),
            events: events.len() as u64 - 1,
        });
    }
    let summary = ChipSummary {
        chip,
        die_seed,
        margins,
        vdd_reduction: SpeculationSystem::voltage_reduction(&stats, chip_config.mode.nominal_vdd()),
        mean_vdd_mv: stats.mean_vdd_mv,
        energy_savings,
        correctable: stats.correctable,
        emergencies: stats.emergencies,
        crashes,
        sw_overhead,
        dues: stats.dues_consumed,
        rollbacks: stats.crash_rollbacks,
    };
    Some((summary, events))
}

/// Characterizes the die's per-core margins on a scratch chip (stress
/// sweeps perturb chip state, so the run below starts from fresh silicon).
///
/// Also returns the scratch chip's cell banks: the ranking scans it paid
/// for are pure functions of the die, so every later chip of this job
/// (hardware run, baselines) adopts them instead of rescanning.
fn characterize(
    config: &FleetConfig,
    chip_config: &ChipConfig,
) -> (Vec<CoreMarginSummary>, BankMap) {
    let mut scratch = Chip::new(chip_config.clone());
    let measured = match config.margins {
        MarginsMode::Analytic => all_analytic_core_margins(&mut scratch),
    };
    let margins = measured
        .into_iter()
        .map(|m| CoreMarginSummary {
            core: m.core.0,
            first_error_mv: m.first_error_vdd.0,
            min_safe_mv: m.min_safe_vdd.0,
        })
        .collect();
    (margins, scratch.export_banks())
}

/// The chip's workload-assignment RNG. Recreating it from the key yields
/// the same draws, which is how the speculation run and its baseline get
/// identical workloads without sharing state.
fn assignment_rng(config: &FleetConfig, chip: ChipId) -> CounterRng {
    config.effective_seed().chip_rng(chip, ASSIGN_STREAM)
}

/// Assigns the policy's workloads to every core of a chip.
fn assign_workloads(config: &FleetConfig, chip: ChipId, target: &mut Chip) {
    let mut rng = assignment_rng(config, chip);
    for core in 0..target.config().num_cores {
        let workload = config.assignment.workload_for(chip.0, core, &mut rng);
        target.set_workload(CoreId(core), workload);
    }
}

/// The paper's hardware controller (§III), run in slices under the job's
/// supervision and telemetry.
#[allow(clippy::too_many_arguments)]
fn run_hardware(
    config: &FleetConfig,
    chip: ChipId,
    chip_config: &ChipConfig,
    banks: &BankMap,
    filter: EventFilter,
    events: &mut Vec<TelemetryEvent>,
    cancel: &CancelToken,
    beat: &mut dyn FnMut(),
) -> Option<RunStats> {
    let mut sys = SpeculationSystem::new(chip_config.clone(), config.controller);
    sys.chip_mut().preload_banks(banks);
    if !filter.is_empty() {
        sys.set_recorder(Recorder::enabled(filter));
    }
    // Chip-scoped fault events are replayed inside the run, which also
    // arms the DUE/crash recovery path for this chip.
    let plan = config.faults.for_chip(chip);
    if !plan.events().is_empty() {
        sys.set_fault_plan(&plan);
    }
    sys.calibrate_fast();
    assign_workloads(config, chip, sys.chip_mut());
    let mut session = SpecRun::new(&sys, config.run_duration);
    if filter.accepts(EventCategory::Span) {
        // Tick-batch spans: each slice's recorder output is drained
        // eagerly and sandwiched between the batch's open/close, so the
        // span encloses exactly the events its slice produced. Batch
        // boundaries are tick counts — identical for every worker count.
        let tick_us = sys.chip().config().tick.as_micros();
        let mut batch = 0u64;
        loop {
            let opened = vs_types::SimTime::from_micros(session.progress().0 * tick_us);
            if session.advance_guarded(&mut sys, config.slice_ticks, cancel)? == 0 {
                break;
            }
            let id = batch_span(chip, batch);
            events.push(TelemetryEvent::SpanOpen {
                at: opened,
                id,
                parent: chip_span(chip),
                level: SpanLevel::Batch,
                ident: batch,
            });
            let drained = sys.take_events();
            let enclosed = drained.len() as u64;
            events.extend(drained);
            events.push(TelemetryEvent::SpanClose {
                at: vs_types::SimTime::from_micros(session.progress().0 * tick_us),
                id,
                events: enclosed,
            });
            batch += 1;
            beat();
        }
    } else {
        while session.advance_guarded(&mut sys, config.slice_ticks, cancel)? > 0 {
            beat();
        }
    }
    let stats = session.finish(&sys);
    events.extend(sys.take_events());
    Some(stats)
}

/// The fraction of the fixed-nominal run's core-rail energy that a run
/// using `rail_energy_j` saved.
fn saved_fraction(rail_energy_j: f64, nominal: &RunStats) -> f64 {
    if nominal.core_rail_energy_j > 0.0 {
        1.0 - rail_energy_j / nominal.core_rail_energy_j
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::FleetSeed;

    fn small(variant: ControllerVariant) -> FleetConfig {
        let mut config = FleetConfig::small(FleetSeed(2014), 4);
        config.variant = variant;
        config.run_duration = vs_types::SimTime::from_secs(2);
        config
    }

    #[test]
    fn hardware_chip_is_pure_and_reproducible() {
        let config = small(ControllerVariant::Hardware);
        let a = simulate_chip(&config, ChipId(1));
        let b = simulate_chip(&config, ChipId(1));
        assert_eq!(a, b, "simulate_chip must be a pure function");
        assert_eq!(a.chip, ChipId(1));
        assert_eq!(a.die_seed, config.die_seed(ChipId(1)));
        assert_eq!(a.margins.len(), 2);
        assert!(a.is_healthy());
        assert!(a.mean_reduction() > 0.0, "hardware must speculate down");
        assert!(a.energy_savings > 0.0, "speculation must save energy");
    }

    #[test]
    fn distinct_chips_are_distinct_silicon() {
        let config = small(ControllerVariant::Hardware);
        let a = simulate_chip(&config, ChipId(0));
        let b = simulate_chip(&config, ChipId(1));
        assert_ne!(a.die_seed, b.die_seed);
        assert_ne!(
            (a.margins.clone(), a.mean_vdd_mv.clone()),
            (b.margins.clone(), b.mean_vdd_mv.clone()),
            "different dies should land on different operating points"
        );
    }

    #[test]
    fn software_variant_reports_overhead_and_saves_less_than_hardware() {
        let hw = simulate_chip(&small(ControllerVariant::Hardware), ChipId(0));
        let sw = simulate_chip(&small(ControllerVariant::Software), ChipId(0));
        assert_eq!(hw.die_seed, sw.die_seed, "same silicon under both variants");
        assert!(sw.sw_overhead >= 0.0);
        assert!(
            sw.mean_reduction() < hw.mean_reduction(),
            "firmware is structurally more conservative: sw {} vs hw {}",
            sw.mean_reduction(),
            hw.mean_reduction()
        );
    }

    #[test]
    fn software_variant_is_the_shared_firmware_arm_against_the_shared_nominal_run() {
        let config = small(ControllerVariant::Software);
        let id = ChipId(2);
        let summary = simulate_chip(&config, id);
        // The shared arms on the bare die: no banks carried over from
        // characterization, the policy's workloads.
        let bed = Testbed::new(config.chip_config(id), config.run_duration, |target| {
            assign_workloads(&config, id, target)
        });
        let fw = bed.firmware(config.software);
        let nominal = bed.nominal();
        assert_eq!(summary.mean_vdd_mv, fw.stats.mean_vdd_mv);
        assert_eq!(summary.correctable, fw.stats.correctable);
        assert_eq!(summary.crashes, fw.stats.crashed_cores.len() as u64);
        assert_eq!(summary.sw_overhead, fw.overhead_fraction);
        assert_eq!(
            summary.energy_savings,
            1.0 - fw.rail_energy_j() / nominal.core_rail_energy_j
        );
    }

    #[test]
    fn baseline_variant_never_speculates() {
        let base = simulate_chip(&small(ControllerVariant::Baseline), ChipId(0));
        assert!(base.vdd_reduction.iter().all(|r| *r == 0.0));
        assert_eq!(base.energy_savings, 0.0);
        assert_eq!(base.emergencies, 0);
    }

    #[test]
    fn guarded_job_is_identical_when_uncancelled_and_stops_when_cancelled() {
        let config = small(ControllerVariant::Hardware);
        let plain = simulate_chip_traced(&config, ChipId(1), EventFilter::all());
        let token = CancelToken::new();
        let mut beats = 0u64;
        let guarded = simulate_chip_guarded(&config, ChipId(1), EventFilter::all(), &token, || {
            beats += 1
        })
        .unwrap();
        assert_eq!(plain, guarded, "supervision must not perturb results");
        assert!(beats > 0, "the job heartbeats between slices");

        token.cancel();
        assert!(
            simulate_chip_guarded(&config, ChipId(1), EventFilter::none(), &token, || {}).is_none(),
            "a cancelled token refuses the job"
        );
    }

    #[test]
    fn assignment_rng_is_stable_across_calls() {
        let config = small(ControllerVariant::Hardware);
        let mut a = assignment_rng(&config, ChipId(3));
        let mut b = assignment_rng(&config, ChipId(3));
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

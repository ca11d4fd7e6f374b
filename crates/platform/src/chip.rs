//! The chip: cores, domains, and the discrete-time simulation engine.

use crate::config::ChipConfig;
use crate::counts::EccCounts;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vs_cache::hierarchy::CoreCaches;
use vs_cache::{Cache, CacheGeometry};
use vs_ecc::SecDed;
use vs_pdn::{DomainSupply, LoadCurrent, Pdn, VoltageRegulator};
use vs_power::{EnergyMeter, FanSpeed, PowerModel, ThermalParams, ThermalState};
use vs_sram::{CellBank, ChipVariation, FailureLut};
use vs_types::rng::CounterRng;
use vs_types::{
    CacheKind, CoreId, DomainId, FlipMask, LineAddress, Millivolts, SetWay, SimTime, VddMode, Watts,
};
use vs_workload::{Demand, Workload};

/// Shared cell banks, keyed by `(core, structure)`.
///
/// Banks are pure functions of the chip seed and mode, so chips modelling
/// the *same silicon* (characterization scratch chip, hardware-feedback
/// run, baseline run) can share one set via [`Chip::export_banks`] /
/// [`Chip::preload_banks`] instead of each paying the ranking scan.
pub type BankMap = HashMap<(CoreId, CacheKind), Arc<CellBank>>;

/// Why a core stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashReason {
    /// Effective voltage fell below the core's logic floor.
    LogicFloor,
    /// An uncorrectable (multi-bit) ECC error was consumed.
    UncorrectableError,
    /// Forced by an external fault injector (see [`Chip::force_crash`]).
    Injected,
}

/// Details of a core crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashInfo {
    /// When the crash happened.
    pub at: SimTime,
    /// Why.
    pub reason: CrashReason,
    /// Effective voltage at the moment of the crash, in millivolts.
    pub v_eff_mv: f64,
}

/// What one [`Chip::tick`] observed.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// Simulation time at the *start* of the tick.
    pub at: SimTime,
    /// Effective voltage per domain during the tick, in millivolts.
    pub domain_v_eff_mv: Vec<f64>,
    /// Correctable errors raised this tick.
    pub correctable: u64,
    /// Cores that crashed this tick.
    pub crashes: Vec<(CoreId, CrashInfo)>,
    /// Total chip power this tick.
    pub power: Watts,
}

/// Counters from one ECC-monitor probe burst (see [`Chip::monitor_probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeOutcome {
    /// Reads issued.
    pub accesses: u64,
    /// Reads that raised a correctable error.
    pub correctable: u64,
    /// Reads that raised an uncorrectable error.
    pub uncorrectable: u64,
}

impl ProbeOutcome {
    /// The observed correctable-error rate (errors per access); zero when
    /// no accesses were made.
    pub fn error_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.correctable as f64 / self.accesses as f64
        }
    }
}

/// One SRAM structure of one core, as the failure kernel sees it: the
/// shared cell bank, the failure LUT derived from it, and the
/// working-set draws of its lines.
#[derive(Debug)]
struct Structure {
    bank: Arc<CellBank>,
    lut: FailureLut,
    /// The 2 s working-set phase `phase_draws` were drawn for.
    phase: Option<u64>,
    /// Per bank line, the uniform that decides whether the line is in the
    /// workload's working set during `phase`.
    phase_draws: Vec<f64>,
}

impl Structure {
    /// The structure in `slot` (`kind` of `core`), building its cell bank
    /// on first use.
    fn of<'a>(
        slot: &'a mut Option<Structure>,
        variation: &ChipVariation,
        config: &ChipConfig,
        core: CoreId,
        kind: CacheKind,
    ) -> &'a mut Structure {
        slot.get_or_insert_with(|| {
            let geometry = CacheGeometry::for_kind(kind);
            Structure::new(Arc::new(CellBank::build(
                variation,
                core,
                kind,
                config.mode,
                geometry.sets,
                geometry.ways,
                geometry.words_per_line(),
                config.weak_lines_tracked,
            )))
        })
    }

    fn new(bank: Arc<CellBank>) -> Structure {
        Structure {
            bank,
            lut: FailureLut::new(),
            phase: None,
            phase_draws: Vec::new(),
        }
    }

    /// Fills `phase_draws` with the working-set uniforms of every bank
    /// line for `phase`, unless they already hold them: one draw per line
    /// per phase from the keyed stream a per-tick draw would use.
    fn draw_phase(&mut self, seed: u64, phase: u64) {
        if self.phase != Some(phase) {
            let (core, kind) = (self.bank.core().0 as u64, self.bank.kind().stream_id());
            self.phase_draws.clear();
            self.phase_draws
                .extend(self.bank.lines().iter().map(|line| {
                    let (set, way) = (line.location.set as u64, line.location.way as u64);
                    CounterRng::from_key(seed, &[0xF007, core, kind, set, way, phase]).next_f64()
                }));
            self.phase = Some(phase);
        }
    }
}

/// A line owned by an ECC monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MonitorLine {
    kind: CacheKind,
    location: SetWay,
    /// The line's index in its structure's cell bank.
    bank_line: usize,
}

/// Per-core simulation state.
struct CoreState {
    caches: CoreCaches,
    workload: Option<Box<dyn Workload + Send + Sync>>,
    workload_started: SimTime,
    rng: CounterRng,
    crash: Option<CrashInfo>,
    last_activity: f64,
    /// Lines currently owned by an ECC monitor (excluded from workload
    /// traffic).
    monitor_lines: Vec<MonitorLine>,
    /// Per [`CacheKind`] (indexed by `kind as usize`), the structure's
    /// kernel state, built on first use.
    structures: [Option<Structure>; CacheKind::ALL.len()],
}

impl fmt::Debug for CoreState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoreState")
            .field(
                "workload",
                &self.workload.as_ref().map(|w| w.name().to_owned()),
            )
            .field("crash", &self.crash)
            .finish()
    }
}

/// The simulated chip multiprocessor.
pub struct Chip {
    config: ChipConfig,
    variation: ChipVariation,
    power: PowerModel,
    domains: Vec<DomainSupply>,
    domain_v_eff_mv: Vec<f64>,
    cores: Vec<CoreState>,
    /// Per core, the logic floor at the configured mode.
    logic_floors: Vec<Millivolts>,
    counts: EccCounts,
    now: SimTime,
    energy: EnergyMeter,
    core_rail_energy: EnergyMeter,
    last_core_power_w: Vec<f64>,
    /// Accumulated operational aging applied to every cell access (hours).
    age_hours: f64,
    /// Dynamic enclosure thermal state; `None` keeps the configured static
    /// temperature (the default, for exact reproducibility of the
    /// temperature-independent experiments).
    thermal: Option<ThermalState>,
}

impl fmt::Debug for Chip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chip")
            .field("mode", &self.config.mode)
            .field("cores", &self.cores.len())
            .field("now", &self.now)
            .field("correctable", &self.counts.correctable())
            .finish()
    }
}

impl Chip {
    /// Builds a chip from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid; use [`ChipConfig::validate`] first
    /// to handle bad configurations as data.
    pub fn new(config: ChipConfig) -> Chip {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let variation = ChipVariation::new(config.seed, config.sram.clone());
        let (lo, hi) = config.regulator_range();
        let nominal = config.mode.nominal_vdd();
        let domains = (0..config.num_domains())
            .map(|_| {
                DomainSupply::new(VoltageRegulator::new(nominal, lo, hi), Pdn::new(config.pdn))
            })
            .collect::<Vec<_>>();
        let cores = (0..config.num_cores)
            .map(|i| CoreState {
                caches: CoreCaches::new(),
                workload: None,
                workload_started: SimTime::ZERO,
                rng: CounterRng::from_key(config.seed, &[0xACC, i as u64]),
                crash: None,
                last_activity: 0.0,
                monitor_lines: Vec::new(),
                structures: Default::default(),
            })
            .collect();
        let logic_floors = (0..config.num_cores)
            .map(|i| variation.logic_floor(CoreId(i), config.mode))
            .collect();
        let n_domains = config.num_domains();
        let nominal_mv = f64::from(nominal.0);
        Chip {
            last_core_power_w: vec![0.0; config.num_cores],
            cores,
            domains,
            domain_v_eff_mv: vec![nominal_mv; n_domains],
            logic_floors,
            counts: EccCounts::default(),
            now: SimTime::ZERO,
            energy: EnergyMeter::new(),
            core_rail_energy: EnergyMeter::new(),
            power: PowerModel::new(config.power),
            variation,
            config,
            age_hours: 0.0,
            thermal: None,
        }
    }

    /// Enables the dynamic enclosure thermal model: silicon temperature
    /// follows dissipated power and fan speed instead of staying at the
    /// configured constant.
    pub fn enable_thermal(&mut self, params: ThermalParams) {
        let idle = self.power.uncore_power(self.config.mode);
        self.thermal = Some(ThermalState::new(params, idle));
    }

    /// Sets the enclosure fan speed (no-op unless the thermal model is
    /// enabled).
    pub fn set_fan(&mut self, fan: FanSpeed) {
        if let Some(t) = &mut self.thermal {
            t.set_fan(fan);
        }
    }

    /// The silicon temperature the arrays currently see.
    pub fn temperature(&self) -> vs_types::Celsius {
        self.thermal
            .as_ref()
            .map_or(self.config.temperature, |t| t.temperature())
    }

    /// Overrides the static silicon temperature (used when an *external*
    /// thermal model — e.g. a shared blade enclosure — drives it). Has no
    /// effect while the chip's own thermal model is enabled.
    pub fn set_static_temperature(&mut self, temperature: vs_types::Celsius) {
        self.config.temperature = temperature;
    }

    /// Sets the accumulated silicon age. Aging raises cell critical
    /// voltages with per-line random weights (see
    /// [`ChipVariation::aging_shift_mv`]), so both monitor probes and
    /// workload traffic observe it.
    pub fn set_age_hours(&mut self, hours: f64) {
        assert!(hours >= 0.0, "age cannot be negative");
        self.age_hours = hours;
        // Aging moves the query voltage, not the bank, so cached LUT
        // entries stay *correct* — but the working set of operating
        // points shifts, so drop the old ones to keep the tables small.
        self.invalidate_failure_luts();
    }

    /// Drops every cached failure-LUT entry and bumps the LUT epochs.
    ///
    /// Entries are pure functions of the immutable cell banks and the
    /// quantized `(voltage, temperature)` query point, so this is a
    /// boundedness hook, not a correctness requirement: recalibration and
    /// aging transitions call it so stale operating points do not pin
    /// memory.
    pub fn invalidate_failure_luts(&mut self) {
        for state in &mut self.cores {
            for structure in state.structures.iter_mut().flatten() {
                structure.lut.invalidate();
            }
        }
    }

    /// The aging-induced critical-voltage shift of one line at the current
    /// age, in millivolts. Shifting every cell of a line up by `s` is
    /// equivalent to reading it at `v_eff − s`, which is how the analytic
    /// paths apply it.
    pub fn line_aging_shift_mv(&self, core: CoreId, kind: CacheKind, location: SetWay) -> f64 {
        self.variation
            .aging_shift_mv(core, kind, location, self.age_hours)
    }

    // ----- topology and state accessors -------------------------------

    /// The configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The operating mode.
    pub fn mode(&self) -> VddMode {
        self.config.mode
    }

    /// The variation map (the "silicon").
    pub fn variation(&self) -> &ChipVariation {
        &self.variation
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The chip-wide ECC error counts.
    pub fn ecc_counts(&self) -> &EccCounts {
        &self.counts
    }

    /// Total socket energy so far.
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Energy of the speculated core rails only (excludes uncore).
    pub fn core_rail_energy(&self) -> &EnergyMeter {
        &self.core_rail_energy
    }

    /// Power drawn by one core during the last tick, in watts.
    pub fn core_power_w(&self, core: CoreId) -> f64 {
        self.last_core_power_w[core.0]
    }

    /// The logic floor of a core at the current mode.
    pub fn logic_floor(&self, core: CoreId) -> Millivolts {
        self.logic_floors[core.0]
    }

    /// Whether a core has crashed, and how.
    pub fn crash_info(&self, core: CoreId) -> Option<CrashInfo> {
        self.cores[core.0].crash
    }

    /// True if any core has crashed.
    pub fn any_crashed(&self) -> bool {
        self.cores.iter().any(|c| c.crash.is_some())
    }

    /// Crashes a core from the outside (fault injection). The crash is
    /// stamped with the current time and the domain's last effective
    /// voltage; if the core is already down, the original crash record is
    /// kept. Returns the crash record in effect afterwards.
    pub fn force_crash(&mut self, core: CoreId, reason: CrashReason) -> CrashInfo {
        let v_eff = self.domain_v_eff_mv[self.config.domain_of(core).0];
        self.crash_core(core, reason, v_eff);
        self.cores[core.0].crash.expect("crash was just recorded")
    }

    /// Clears a core's crash state: the firmware recovery path has rolled
    /// the domain back and restarted the core. The core's workload resumes
    /// from where its demand curve left off (the crash looks like a stall,
    /// not a restart, to the workload model).
    pub fn recover_core(&mut self, core: CoreId) {
        self.cores[core.0].crash = None;
    }

    // ----- voltage control --------------------------------------------

    /// The regulator of a domain (the voltage controller's handle).
    pub fn domain_regulator_mut(&mut self, domain: DomainId) -> &mut VoltageRegulator {
        self.domains[domain.0].regulator_mut()
    }

    /// The regulator's current output for a domain.
    pub fn domain_set_point(&self, domain: DomainId) -> Millivolts {
        self.domains[domain.0].regulator().output()
    }

    /// Requests a new set point for a domain (applied next tick).
    pub fn request_domain_voltage(&mut self, domain: DomainId, target: Millivolts) {
        self.domains[domain.0].regulator_mut().request(target);
    }

    /// Effective voltage a domain saw during the last tick, in millivolts.
    pub fn domain_v_eff_mv(&self, domain: DomainId) -> f64 {
        self.domain_v_eff_mv[domain.0]
    }

    // ----- workloads ----------------------------------------------------

    /// Assigns a workload to a core, starting it at the current time.
    pub fn set_workload(&mut self, core: CoreId, workload: Box<dyn Workload + Send + Sync>) {
        let state = &mut self.cores[core.0];
        state.workload = Some(workload);
        state.workload_started = self.now;
    }

    /// Removes a core's workload (the core idles in firmware).
    pub fn clear_workload(&mut self, core: CoreId) {
        self.cores[core.0].workload = None;
    }

    fn demand_of(&self, core: usize) -> Demand {
        let state = &self.cores[core];
        if state.crash.is_some() {
            return Demand::idle();
        }
        match &state.workload {
            Some(w) => w.demand(self.now.saturating_sub(state.workload_started)),
            None => Demand::idle(),
        }
    }

    // ----- cell banks ---------------------------------------------------

    /// The kernel state of one structure, building its cell bank on
    /// first use.
    fn structure(&mut self, core: CoreId, kind: CacheKind) -> &mut Structure {
        Structure::of(
            &mut self.cores[core.0].structures[kind as usize],
            &self.variation,
            &self.config,
            core,
            kind,
        )
    }

    /// The SoA cell bank of one structure (built lazily, cached, shared
    /// across same-die chips via [`Chip::preload_banks`]).
    pub fn cell_bank(&mut self, core: CoreId, kind: CacheKind) -> Arc<CellBank> {
        Arc::clone(&self.structure(core, kind).bank)
    }

    /// Snapshot of this chip's cell banks, for sharing with other chips
    /// modelling the same die (cheap: the banks themselves are behind
    /// `Arc`s).
    pub fn export_banks(&self) -> BankMap {
        self.cores
            .iter()
            .flat_map(|state| state.structures.iter().flatten())
            .map(|s| ((s.bank.core(), s.bank.kind()), Arc::clone(&s.bank)))
            .collect()
    }

    /// Adopts pre-built cell banks from another chip of the same die.
    ///
    /// Banks built for a different operating mode are ignored (their cell
    /// voltages would be wrong for this chip); matching ones replace any
    /// lazily-built local copies. Banks of the same die and mode are
    /// identical, so the LUT and working-set draws already derived from a
    /// replaced copy stay valid.
    pub fn preload_banks(&mut self, banks: &BankMap) {
        for (&(core, kind), bank) in banks {
            if bank.mode() != self.config.mode {
                continue;
            }
            let Some(state) = self.cores.get_mut(core.0) else {
                continue;
            };
            match &mut state.structures[kind as usize] {
                Some(structure) => structure.bank = Arc::clone(bank),
                slot => *slot = Some(Structure::new(Arc::clone(bank))),
            }
        }
    }

    // ----- ECC monitor support ------------------------------------------

    /// Designates a line for exclusive ECC-monitor use: it is de-configured
    /// from normal allocation and preloaded with the monitor's test
    /// pattern (§III-C).
    ///
    /// Every designation is one of the cell bank's ranked lines, read
    /// straight from [`Chip::cell_bank`] or picked by a calibration, so
    /// the line is always one the structure's bank tracks.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not an L2 structure, or if `location` is not a
    /// tracked weak line.
    pub fn designate_monitor_line(&mut self, core: CoreId, kind: CacheKind, location: SetWay) {
        assert!(kind.is_l2(), "monitors target L2 lines, got {kind}");
        let Some(bank_line) = self.structure(core, kind).bank.find(location) else {
            panic!("line {location} of {kind} on {core} is not a tracked weak line");
        };
        let state = &mut self.cores[core.0];
        let cache = l2_cache(&mut state.caches, kind).expect("kind is L2");
        cache.disable_line(location);
        let words = cache.geometry().words_per_line();
        cache.store_at(location, u64::MAX, &monitor_pattern(words));
        let monitor = MonitorLine {
            kind,
            location,
            bank_line,
        };
        if !state.monitor_lines.contains(&monitor) {
            state.monitor_lines.push(monitor);
        }
    }

    /// Releases a previously designated monitor line back to normal use.
    pub fn release_monitor_line(&mut self, core: CoreId, kind: CacheKind, location: SetWay) {
        let state = &mut self.cores[core.0];
        let Some(cache) = l2_cache(&mut state.caches, kind) else {
            return;
        };
        cache.enable_line(location);
        state
            .monitor_lines
            .retain(|m| (m.kind, m.location) != (kind, location));
    }

    /// Performs one monitor probe burst against a designated line:
    /// `accesses` write-then-read cycles at the domain's current effective
    /// voltage.
    ///
    /// The first few reads are drawn as one [`FailureLut::sample_burst`]
    /// and each flip mask is decoded on its own (Hsiao SEC-DED), which
    /// classifies the read exactly as decoding the stored codeword with
    /// the mask applied. The remainder are sampled from the identical
    /// analytic distribution. Correctable and uncorrectable counts land
    /// both in the returned [`ProbeOutcome`] and in the chip's
    /// [`EccCounts`].
    ///
    /// # Panics
    ///
    /// Panics if the line was not designated via
    /// [`Chip::designate_monitor_line`], or if a probe with real reads
    /// finds it no longer resident.
    pub fn monitor_probe(
        &mut self,
        core: CoreId,
        kind: CacheKind,
        location: SetWay,
        accesses: u64,
    ) -> ProbeOutcome {
        let temperature = self.temperature();
        let v_eff = self.domain_v_eff_mv[self.config.domain_of(core).0];
        let li = {
            let state = &self.cores[core.0];
            let monitor = state
                .monitor_lines
                .iter()
                .find(|m| (m.kind, m.location) == (kind, location));
            let Some(monitor) = monitor else {
                panic!("line {location} of {kind} is not designated for monitoring");
            };
            if state.crash.is_some() {
                return ProbeOutcome::default();
            }
            monitor.bank_line
        };
        if accesses == 0 {
            return ProbeOutcome::default();
        }

        let age_hours = self.age_hours;
        let aging = if age_hours > 0.0 {
            self.line_aging_shift_mv(core, kind, location)
        } else {
            0.0
        };
        // Shifting every cell up by the aging delta is equivalent to
        // querying at `v_eff − aging` (see `line_aging_shift_mv`).
        let v_query = v_eff - aging;
        let line = LineAddress::new(core, kind, location);
        let n_real = accesses.min(self.config.monitor_real_reads);
        let n_analytic = accesses - n_real;
        let mut outcome = ProbeOutcome {
            accesses,
            ..ProbeOutcome::default()
        };

        // The tracked line's bank and LUT serve the whole probe: the
        // envelope check, the real reads and the analytic remainder.
        let CoreState {
            caches,
            rng,
            structures,
            ..
        } = &mut self.cores[core.0];
        let Structure { bank, lut, .. } = Structure::of(
            &mut structures[kind as usize],
            &self.variation,
            &self.config,
            core,
            kind,
        );

        // Envelope fast path: when even the whole burst cannot produce a
        // statistically visible event (evaluated at the conservative
        // quantized corner), skip sampling entirely. The probe still
        // counts its accesses, so telemetry matches the slow path.
        if lut.negligible(bank, li, v_query, temperature, accesses as f64) {
            return outcome;
        }

        // Real data-path reads, drawn as one burst from the line's LUT row.
        // Each flip mask is decoded alone: the stored pattern is a
        // codeword and the code is linear, so the mask's syndrome is the
        // read's.
        if n_real > 0 {
            let cache = l2_cache(caches, kind).expect("designation enforces L2");
            assert!(
                cache.touch_at(location, n_real),
                "designated line is always resident"
            );
            // Every erring word counts once in the chip's tallies; a read
            // with several uncorrectable words counts once in the outcome.
            let code = SecDed::hsiao_72_64();
            let (mut last_ue_read, mut ue_words) = (None, 0);
            let visit = |read, _word, mask: FlipMask| {
                if mask.is_empty() {
                    return;
                }
                let decoded = code.decode(mask.0);
                if decoded.is_correctable_error() {
                    outcome.correctable += 1;
                } else if decoded.is_uncorrectable() {
                    ue_words += 1;
                    if last_ue_read != Some(read) {
                        last_ue_read = Some(read);
                        outcome.uncorrectable += 1;
                    }
                }
            };
            lut.sample_burst(bank, li, v_query, temperature, n_real, rng, visit);
            // So far the outcome holds the burst alone.
            self.counts.add_correctable(line, outcome.correctable);
            self.counts.add_uncorrectable(ue_words);
        }

        // Analytic remainder, sampled from the same distribution.
        if n_analytic > 0 {
            let (_, p_ce, p_ue) = lut.line_probabilities(bank, li, v_query, temperature);
            let state = &mut self.cores[core.0];
            let ce = state.rng.binomial(n_analytic, p_ce);
            let ue = state.rng.binomial(n_analytic, p_ue);
            outcome.correctable += ce;
            outcome.uncorrectable += ue;
            // The chip's tallies take one error per remainder that erred at
            // all; the outcome carries the full draw.
            self.counts.add_correctable(line, u64::from(ce > 0));
        }

        if outcome.uncorrectable > 0 {
            self.crash_core(core, CrashReason::UncorrectableError, v_eff);
        }
        outcome
    }

    /// Builds a fault injector for calibration-time cache walks at a given
    /// override voltage. Returns the pieces the caller needs because the
    /// injector borrows both the variation map and the core's RNG.
    pub fn injector_parts(
        &mut self,
        core: CoreId,
    ) -> (&ChipVariation, &mut CoreCaches, &mut CounterRng) {
        let state = &mut self.cores[core.0];
        (&self.variation, &mut state.caches, &mut state.rng)
    }

    // ----- the tick -----------------------------------------------------

    /// Advances the simulation by one tick.
    pub fn tick(&mut self) -> TickReport {
        let tick = self.config.tick;
        let tick_ms = tick.as_secs_f64() * 1.0e3;
        let mode = self.config.mode;
        let at = self.now;

        // 1. Regulator set points take effect.
        for d in &mut self.domains {
            d.tick();
        }

        // 2. Demands, currents, and effective voltages.
        let demands: Vec<Demand> = (0..self.cores.len()).map(|i| self.demand_of(i)).collect();
        let mut loads: Vec<LoadCurrent> = vec![LoadCurrent::default(); self.domains.len()];
        let mut core_powers = vec![0.0f64; self.cores.len()];
        for (i, demand) in demands.iter().enumerate() {
            let domain = self.config.domain_of(CoreId(i));
            let v_set = self.domains[domain.0].regulator().output();
            let p = self.power.core_power(v_set, mode, demand.activity);
            core_powers[i] = p.0;
            let i_dc = p.0 / v_set.as_volts();
            // Oscillating and transient components, converted via the
            // dynamic-power sensitivity dP/dactivity.
            let p_per_activity = self.power.core_dynamic(v_set, mode, 1.0).0
                - self.power.core_dynamic(v_set, mode, 0.0).0;
            let detected_step = (demand.activity - self.cores[i].last_activity).abs();
            let step_activity = demand.activity_transient_step.max(if detected_step > 0.3 {
                detected_step
            } else {
                0.0
            });
            let load = LoadCurrent {
                i_dc_amps: i_dc,
                i_ac_amps: p_per_activity * demand.activity_osc_amplitude / v_set.as_volts(),
                f_osc_hz: demand.osc_freq_hz,
                transient_step_amps: p_per_activity * step_activity / v_set.as_volts(),
            };
            loads[domain.0] = loads[domain.0].combine(load);
            self.cores[i].last_activity = demand.activity;
        }
        for (d, load) in loads.iter().enumerate() {
            self.domain_v_eff_mv[d] = self.domains[d].effective_voltage_mv(load);
        }

        // 3. Crash checks and workload-induced ECC events.
        let mut crashes = Vec::new();
        let mut correctable = 0u64;
        for (i, demand) in demands.iter().enumerate().take(self.cores.len()) {
            if self.cores[i].crash.is_some() {
                continue;
            }
            let core = CoreId(i);
            let v_eff = self.domain_v_eff_mv[self.config.domain_of(core).0];
            if v_eff < f64::from(self.logic_floor(core).0) {
                let info = self.crash_core(core, CrashReason::LogicFloor, v_eff);
                crashes.push((core, info));
                continue;
            }
            let (ce, ue) = self.sample_workload_errors(core, demand, v_eff, tick_ms);
            correctable += ce;
            if ue {
                let info = self.crash_core(core, CrashReason::UncorrectableError, v_eff);
                crashes.push((core, info));
            }
        }

        // 4. Energy accounting and thermal relaxation.
        let core_rail_power = Watts(core_powers.iter().sum());
        let total = core_rail_power + self.power.uncore_power(mode);
        self.energy.add(total, tick);
        self.core_rail_energy.add(core_rail_power, tick);
        self.last_core_power_w = core_powers;
        if let Some(t) = &mut self.thermal {
            t.advance(total, tick);
        }

        self.now += tick;
        TickReport {
            at,
            domain_v_eff_mv: self.domain_v_eff_mv.clone(),
            correctable,
            crashes,
            power: total,
        }
    }

    fn crash_core(&mut self, core: CoreId, reason: CrashReason, v_eff_mv: f64) -> CrashInfo {
        let info = CrashInfo {
            at: self.now,
            reason,
            v_eff_mv,
        };
        self.cores[core.0].crash.get_or_insert(info);
        info
    }

    /// Samples the ECC events a workload's own traffic produces during one
    /// tick. Returns `(correctable_count, any_uncorrectable)`.
    fn sample_workload_errors(
        &mut self,
        core: CoreId,
        demand: &Demand,
        v_eff: f64,
        tick_ms: f64,
    ) -> (u64, bool) {
        let mode = self.config.mode;
        let seed = self.config.seed;
        let temperature = self.temperature();
        let reuse = self.config.uniform_reuse_fraction;
        let rf_rate = self.config.rf_weak_access_per_ms;
        let age_hours = self.age_hours;
        let phase = self.now.as_millis() / 2000;

        let kinds = [
            (
                CacheKind::L2Data,
                demand.l2_accesses_per_ms * (1.0 - demand.instruction_fraction),
                demand.footprint_fraction,
            ),
            (
                CacheKind::L2Instruction,
                demand.l2_accesses_per_ms * demand.instruction_fraction,
                demand.footprint_fraction,
            ),
            // Register files only matter at the nominal (timing-limited)
            // point; their "footprint" is the whole array.
            (CacheKind::RegisterFileInt, 0.0, 1.0),
            (CacheKind::RegisterFileFp, 0.0, 1.0),
        ];
        let tracked = if mode == VddMode::Nominal && demand.activity > 0.0 {
            4
        } else {
            2
        };

        let mut total_ce = 0u64;
        let mut any_ue = false;
        for &(kind, rate_per_ms, footprint) in &kinds[..tracked] {
            let CoreState {
                rng,
                monitor_lines,
                structures,
                ..
            } = &mut self.cores[core.0];
            let structure = Structure::of(
                &mut structures[kind as usize],
                &self.variation,
                &self.config,
                core,
                kind,
            );
            structure.draw_phase(seed, phase);
            let Structure {
                bank,
                lut,
                phase_draws,
                ..
            } = structure;
            let total_lines = bank.total_lines();
            for (li, line) in bank.lines().iter().enumerate() {
                let location = line.location;
                if monitor_lines
                    .iter()
                    .any(|m| (m.kind, m.location) == (kind, location))
                {
                    continue; // monitor-owned: holds no workload data
                }
                // Expected accesses this line receives this tick.
                let expected = if kind.is_l2() {
                    rate_per_ms * tick_ms * reuse / total_lines as f64
                } else {
                    demand.activity * rf_rate * tick_ms
                };
                if expected <= 0.0 {
                    continue;
                }
                // Is the line in the current working-set phase?
                if !in_working_set(phase_draws[li], footprint) {
                    continue;
                }
                let aging = if age_hours > 0.0 {
                    self.variation
                        .aging_shift_mv(core, kind, location, age_hours)
                } else {
                    0.0
                };
                let v_query = v_eff - aging;
                // Envelope fast path: when the tick's whole expected
                // traffic cannot produce a statistically visible event
                // (conservative quantized corner), skip the per-line
                // draws entirely. The bank is sorted weakest-first, so
                // once a line is far below the rail nothing beneath it
                // errs either (generous slack for noise-factor
                // variation before breaking).
                if lut.negligible(bank, li, v_query, temperature, expected + 1.0) {
                    if line.weakest_vc_mv < v_eff - 60.0 {
                        break;
                    }
                    continue;
                }
                let (_, p_ce, p_ue) = lut.line_probabilities(bank, li, v_query, temperature);
                if p_ce <= 0.0 && p_ue <= 0.0 {
                    if line.weakest_vc_mv < v_eff - 60.0 {
                        break;
                    }
                    continue;
                }
                // Number of accesses: integer part plus Bernoulli remainder.
                let n = expected.floor() as u64 + u64::from(rng.bernoulli(expected.fract()));
                if n == 0 {
                    continue;
                }
                let ce = rng.binomial(n, p_ce);
                let ue = rng.binomial(n, p_ue);
                // Figures 3 and 4 read these counts.
                total_ce += ce;
                self.counts
                    .add_correctable(LineAddress::new(core, kind, location), ce);
                if ue > 0 {
                    any_ue = true;
                    self.counts.add_uncorrectable(1);
                }
            }
        }
        (total_ce, any_ue)
    }

    /// Resets time, error counts, crashes, caches, and regulators to
    /// power-on state, keeping the (expensive) cell banks and failure
    /// LUTs. Used between characterization runs on the same silicon.
    pub fn reset(&mut self) {
        let nominal = self.config.mode.nominal_vdd();
        for d in &mut self.domains {
            d.regulator_mut().request(nominal);
            d.settle();
        }
        let nominal_mv = f64::from(nominal.0);
        for v in &mut self.domain_v_eff_mv {
            *v = nominal_mv;
        }
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.caches = CoreCaches::new();
            core.workload = None;
            core.crash = None;
            core.last_activity = 0.0;
            core.monitor_lines.clear();
            core.rng = CounterRng::from_key(self.config.seed, &[0xACC, i as u64]);
        }
        self.counts = EccCounts::default();
        self.now = SimTime::ZERO;
        self.energy = EnergyMeter::new();
        self.core_rail_energy = EnergyMeter::new();
    }
}

/// The deterministic test pattern the monitor writes before each read
/// burst: alternating-stress patterns exercising both cell polarities.
pub(crate) fn monitor_pattern(words: usize) -> Vec<u64> {
    (0..words)
        .map(|w| {
            if w % 2 == 0 {
                0x5555_5555_5555_5555
            } else {
                0xAAAA_AAAA_AAAA_AAAA
            }
        })
        .collect()
}

/// The L2 cache of `kind` in a core's hierarchy; `None` for other kinds.
fn l2_cache(caches: &mut CoreCaches, kind: CacheKind) -> Option<&mut Cache> {
    match kind {
        CacheKind::L2Data => Some(&mut caches.l2d),
        CacheKind::L2Instruction => Some(&mut caches.l2i),
        _ => None,
    }
}

/// [`CounterRng::bernoulli`]`(footprint)` decided by its already drawn
/// uniform `u`: the same short-circuits at `footprint ≤ 0` and
/// `footprint ≥ 1` (which draw nothing), then `u < footprint`.
fn in_working_set(u: f64, footprint: f64) -> bool {
    if footprint <= 0.0 {
        false
    } else if footprint >= 1.0 {
        true
    } else {
        u < footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_ecc::DecodeOutcome;
    use vs_types::Celsius;
    use vs_workload::{Idle, StressTest};

    /// A small config so unit tests stay fast: two cores on one domain.
    fn small_config(seed: u64) -> ChipConfig {
        ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        }
    }

    #[test]
    fn construction_and_defaults() {
        let chip = Chip::new(small_config(5));
        assert_eq!(chip.mode(), VddMode::LowVoltage);
        assert_eq!(chip.domain_set_point(DomainId(0)), Millivolts(800));
        assert_eq!(chip.now(), SimTime::ZERO);
        assert!(!chip.any_crashed());
    }

    #[test]
    fn idle_tick_is_safe_and_accounts_energy() {
        let mut chip = Chip::new(small_config(5));
        let report = chip.tick();
        assert!(report.crashes.is_empty());
        assert_eq!(report.correctable, 0);
        assert!(report.power.0 > 0.0, "idle still burns leakage + uncore");
        assert_eq!(chip.now(), SimTime::from_millis(1));
        assert!(chip.energy().total().0 > 0.0);
    }

    #[test]
    fn voltage_request_applies_next_tick() {
        let mut chip = Chip::new(small_config(5));
        chip.request_domain_voltage(DomainId(0), Millivolts(740));
        assert_eq!(chip.domain_set_point(DomainId(0)), Millivolts(800));
        chip.tick();
        assert_eq!(chip.domain_set_point(DomainId(0)), Millivolts(740));
    }

    #[test]
    fn effective_voltage_reflects_load() {
        let mut chip = Chip::new(small_config(5));
        chip.tick();
        let idle_v = chip.domain_v_eff_mv(DomainId(0));
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        chip.set_workload(CoreId(1), Box::new(StressTest::default()));
        chip.tick();
        let busy_v = chip.domain_v_eff_mv(DomainId(0));
        assert!(
            busy_v < idle_v,
            "load must depress the rail ({busy_v} vs {idle_v})"
        );
        assert!(idle_v <= 800.0);
    }

    #[test]
    fn low_voltage_below_floor_crashes() {
        let mut chip = Chip::new(small_config(5));
        let floor = chip.logic_floor(CoreId(0));
        chip.request_domain_voltage(DomainId(0), floor - Millivolts(20));
        let mut crashes = Vec::new();
        for _ in 0..2 {
            crashes.extend(chip.tick().crashes);
        }
        assert!(
            crashes
                .iter()
                .any(|(c, i)| *c == CoreId(0) && i.reason == CrashReason::LogicFloor),
            "expected a logic-floor crash, got {crashes:?}"
        );
        assert!(chip.crash_info(CoreId(0)).is_some());
        // Crashed cores stop producing demand; ticks continue fine.
        chip.tick();
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut chip = Chip::new(small_config(5));
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        chip.request_domain_voltage(DomainId(0), Millivolts(540));
        for _ in 0..5 {
            chip.tick();
        }
        chip.reset();
        assert_eq!(chip.now(), SimTime::ZERO);
        assert_eq!(chip.domain_set_point(DomainId(0)), Millivolts(800));
        assert!(!chip.any_crashed());
        assert_eq!(chip.ecc_counts().correctable(), 0);
    }

    #[test]
    fn force_crash_and_recover_round_trip() {
        let mut chip = Chip::new(small_config(5));
        chip.tick();
        let info = chip.force_crash(CoreId(1), CrashReason::Injected);
        assert_eq!(info.reason, CrashReason::Injected);
        assert!(chip.any_crashed());
        // A second crash keeps the original record.
        let again = chip.force_crash(CoreId(1), CrashReason::LogicFloor);
        assert_eq!(again.reason, CrashReason::Injected);
        chip.recover_core(CoreId(1));
        assert!(!chip.any_crashed());
        assert!(chip.crash_info(CoreId(1)).is_none());
    }

    #[test]
    fn cell_banks_cached() {
        let mut chip = Chip::new(small_config(5));
        let first = chip.cell_bank(CoreId(0), CacheKind::L2Data);
        let second = chip.cell_bank(CoreId(0), CacheKind::L2Data);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn preloaded_banks_are_shared_not_rebuilt() {
        let mut donor = Chip::new(small_config(5));
        donor.cell_bank(CoreId(0), CacheKind::L2Data);
        donor.cell_bank(CoreId(0), CacheKind::L2Instruction);
        let banks = donor.export_banks();

        let mut chip = Chip::new(small_config(5));
        chip.preload_banks(&banks);
        let adopted = chip.cell_bank(CoreId(0), CacheKind::L2Data);
        assert!(Arc::ptr_eq(
            &adopted,
            &banks[&(CoreId(0), CacheKind::L2Data)]
        ));
    }

    #[test]
    fn preload_rejects_wrong_mode_banks() {
        let mut donor = Chip::new(small_config(5));
        donor.cell_bank(CoreId(0), CacheKind::L2Data);
        let banks = donor.export_banks();

        let mut nominal = Chip::new(ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::nominal(5)
        });
        nominal.preload_banks(&banks);
        let own = nominal.cell_bank(CoreId(0), CacheKind::L2Data);
        assert!(!Arc::ptr_eq(&own, &banks[&(CoreId(0), CacheKind::L2Data)]));
        assert_eq!(own.mode(), VddMode::Nominal);
    }

    #[test]
    fn cached_phase_draws_decide_like_the_keyed_bernoulli() {
        // The per-phase uniform must reproduce the per-tick keyed draw's
        // decision, including `bernoulli`'s no-draw short-circuits at
        // p ≤ 0 and p ≥ 1.
        let mut chip = Chip::new(small_config(5));
        let seed = chip.config().seed;
        let mut decisions = 0;
        for core in [CoreId(0), CoreId(1)] {
            for kind in [CacheKind::L2Data, CacheKind::L2Instruction] {
                let bank = chip.cell_bank(core, kind);
                for phase in 0..3u64 {
                    let structure = chip.structure(core, kind);
                    structure.draw_phase(seed, phase);
                    let draws = structure.phase_draws.clone();
                    assert_eq!(draws.len(), bank.lines().len());
                    for (line, &u) in bank.lines().iter().zip(&draws) {
                        for f in [-0.1, 0.0, 0.3, 1.0, 1.2] {
                            let want = CounterRng::from_key(
                                seed,
                                &[
                                    0xF007,
                                    core.0 as u64,
                                    kind.stream_id(),
                                    line.location.set as u64,
                                    line.location.way as u64,
                                    phase,
                                ],
                            )
                            .bernoulli(f);
                            assert_eq!(
                                in_working_set(u, f),
                                want,
                                "{core:?} {kind:?} {} phase {phase} f {f}",
                                line.location
                            );
                            decisions += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(decisions, 2 * 2 * 8 * 3 * 5);
    }

    #[test]
    fn precomputed_logic_floors_match_the_variation() {
        for config in [ChipConfig::low_voltage(9), ChipConfig::nominal(9)] {
            let mode = config.mode;
            let chip = Chip::new(config);
            for core in (0..chip.config().num_cores).map(CoreId) {
                assert_eq!(
                    chip.logic_floor(core),
                    chip.variation().logic_floor(core, mode),
                    "{core:?} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn aging_change_invalidates_failure_luts() {
        let mut chip = Chip::new(small_config(5));
        let weakest = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0];
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weakest.location);
        chip.request_domain_voltage(
            DomainId(0),
            Millivolts(weakest.weakest_vc_mv.round() as i32 + 9),
        );
        chip.tick();
        let before = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weakest.location, 4000);
        assert!(before.correctable > 0, "probe near Vc must err");
        // Aging must both clear the cached tables and keep probing sound.
        chip.set_age_hours(30_000.0);
        let after = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weakest.location, 4000);
        assert!(
            after.error_rate() >= before.error_rate() * 0.5,
            "aged silicon cannot err dramatically less ({} vs {})",
            after.error_rate(),
            before.error_rate()
        );
    }

    #[test]
    fn monitor_probe_counts_and_rates() {
        let mut chip = Chip::new(small_config(5));
        let weakest = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0];
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weakest.location);
        chip.tick();

        // At the 800 mV nominal the monitor sees nothing.
        let clean = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weakest.location, 2000);
        assert_eq!(clean.accesses, 2000);
        assert_eq!(clean.correctable, 0);

        // Parked right at the weak cell's Vc, roughly half the reads err.
        let target = Millivolts(weakest.weakest_vc_mv.round() as i32 + 9);
        chip.request_domain_voltage(DomainId(0), target);
        chip.tick();
        let noisy = chip.monitor_probe(CoreId(0), CacheKind::L2Data, weakest.location, 4000);
        let rate = noisy.error_rate();
        assert!(
            (0.02..0.98).contains(&rate),
            "expected a mid-ramp error rate near Vc, got {rate}"
        );
        assert!(chip.ecc_counts().correctable() > 0);
    }

    /// An injector drawing each word of a tracked line from the LUT, one
    /// [`FailureLut::sample_word`] call per word read.
    struct LutInjector<'a> {
        bank: &'a CellBank,
        lut: FailureLut,
        line: usize,
        v_query_mv: f64,
        temperature: Celsius,
        rng: &'a mut CounterRng,
    }

    impl vs_cache::Injector for LutInjector<'_> {
        fn flip_mask(&mut self, _: CacheKind, _: SetWay, word: u32) -> vs_types::FlipMask {
            self.lut.sample_word(
                self.bank,
                self.line,
                word,
                self.v_query_mv,
                self.temperature,
                self.rng,
            )
        }
    }

    /// A chip with the weakest L2D line of core 0 designated for the
    /// monitor, the rail at `dv` mV from that line's weakest cell, and the
    /// silicon aged until the line's cells have shifted up by `shift` mV.
    fn probed_chip(real_reads: u64, dv: i32, shift: f64) -> (Chip, SetWay) {
        let mut chip = Chip::new(ChipConfig {
            monitor_real_reads: real_reads,
            ..small_config(5)
        });
        let weakest = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0];
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weakest.location);
        if shift > 0.0 {
            chip.set_age_hours(1_000.0);
            let per_khour =
                chip.line_aging_shift_mv(CoreId(0), CacheKind::L2Data, weakest.location);
            chip.set_age_hours(1_000.0 * shift / per_khour);
        }
        let target = weakest.weakest_vc_mv.round() as i32 + dv;
        chip.request_domain_voltage(DomainId(0), Millivolts(target));
        chip.tick();
        (chip, weakest.location)
    }

    #[test]
    fn burst_probe_matches_reads_through_the_cache() {
        const READS: u64 = 64;
        let (mut ces, mut ues, mut shared_ue_reads) = (0, 0, false);
        // Down the weakest cell's ramp, then (aged, so the query voltage
        // falls below the logic floor's reach) into the words' second
        // cells, where reads turn uncorrectable.
        let ramp = [(12, 0.0), (9, 0.0), (4, 0.0), (0, 0.0), (-6, 0.0)];
        let aged = [
            (-40, 60.0),
            (-40, 90.0),
            (-40, 120.0),
            (-40, 140.0),
            (-40, 160.0),
        ];
        for (dv, shift) in ramp.into_iter().chain(aged) {
            let (mut chip, location) = probed_chip(READS, dv, shift);
            let line = LineAddress::new(CoreId(0), CacheKind::L2Data, location);

            // The reference: every read through `Cache::read_at`.
            let bank = chip.cell_bank(CoreId(0), CacheKind::L2Data);
            let mut rng = chip.cores[0].rng.clone();
            let mut cache = chip.cores[0].caches.l2d.clone();
            let aging = chip.line_aging_shift_mv(CoreId(0), CacheKind::L2Data, location);
            let mut injector = LutInjector {
                line: bank.find(location).expect("the weakest line is tracked"),
                bank: &bank,
                lut: FailureLut::new(),
                v_query_mv: chip.domain_v_eff_mv(DomainId(0)) - aging,
                temperature: chip.temperature(),
                rng: &mut rng,
            };
            let mut want = ProbeOutcome::default();
            let (mut want_ce, mut want_ue) = (0, 0);
            for _ in 0..READS {
                let read = cache.read_at(location, &mut injector).unwrap();
                want.accesses += 1;
                want.correctable += read.correctable_count() as u64;
                want.uncorrectable += u64::from(read.has_uncorrectable());
                for e in &read.events {
                    match e.outcome {
                        DecodeOutcome::Corrected { .. } => want_ce += 1,
                        DecodeOutcome::Uncorrectable { .. } => want_ue += 1,
                        DecodeOutcome::Clean { .. } => unreachable!("clean words raise nothing"),
                    }
                }
            }

            let got = chip.monitor_probe(CoreId(0), CacheKind::L2Data, location, READS);
            assert_eq!(got, want, "dv {dv}");
            let counts = chip.ecc_counts();
            assert!(counts.erring_lines().all(|l| l == line), "dv {dv}");
            assert_eq!(
                counts.correctable_in(CoreId(0), CacheKind::L2Data),
                want_ce,
                "dv {dv}: the designated line's corrected words"
            );
            assert_eq!(
                counts.uncorrectable(),
                want_ue,
                "dv {dv}: uncorrectable words"
            );
            assert_eq!(chip.cores[0].rng, rng, "dv {dv}: RNG position");
            ces += got.correctable;
            ues += got.uncorrectable;
            shared_ue_reads |= want_ue > want.uncorrectable;
        }
        assert!(ces > 0 && ues > 0, "the ramp must raise both kinds");
        assert!(
            shared_ue_reads,
            "some read must hold several uncorrectable words"
        );
    }

    #[test]
    #[should_panic(expected = "designated line is always resident")]
    fn burst_probe_requires_the_line_resident() {
        let (mut chip, location) = probed_chip(64, 0, 0.0);
        chip.cores[0].caches.l2d.flush();
        chip.monitor_probe(CoreId(0), CacheKind::L2Data, location, 64);
    }

    #[test]
    #[should_panic(expected = "not designated")]
    fn probe_requires_designation() {
        let mut chip = Chip::new(small_config(5));
        chip.tick();
        chip.monitor_probe(CoreId(0), CacheKind::L2Data, SetWay::new(0, 0), 10);
    }

    #[test]
    fn stress_at_low_voltage_produces_correctable_errors() {
        let mut chip = Chip::new(small_config(5));
        let first_error_v = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0]
            .weakest_vc_mv
            .max(chip.cell_bank(CoreId(0), CacheKind::L2Instruction).lines()[0].weakest_vc_mv);
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        chip.set_workload(CoreId(1), Box::new(Idle));
        // Park 25 mV below the first-error voltage: errors, no crash.
        chip.request_domain_voltage(DomainId(0), Millivolts(first_error_v as i32 - 25));
        // A couple of simulated minutes at 1 ms ticks.
        let mut crashed = 0;
        for _ in 0..120_000 {
            crashed += chip.tick().crashes.len();
        }
        assert_eq!(crashed, 0, "25 mV below first error must be safe");
        assert!(
            chip.ecc_counts().correctable() > 0,
            "the stress workload must trip the weak lines"
        );
        // Errors come from the weak lines only.
        let erring: Vec<_> = chip.ecc_counts().erring_lines().collect();
        for line in erring {
            let bank = chip.cell_bank(line.core, line.cache);
            assert!(bank.find(line.location).is_some());
        }
    }

    #[test]
    fn monitor_line_excluded_from_workload_errors() {
        let mut chip = Chip::new(small_config(5));
        let weakest = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0].location;
        chip.designate_monitor_line(CoreId(0), CacheKind::L2Data, weakest);
        chip.set_workload(CoreId(0), Box::new(StressTest::default()));
        let v = chip.cell_bank(CoreId(0), CacheKind::L2Data).lines()[0].weakest_vc_mv;
        chip.request_domain_voltage(DomainId(0), Millivolts(v as i32 - 10));
        for _ in 0..50_000 {
            chip.tick();
        }
        // No workload-attributed error may come from the designated line.
        assert!(chip
            .ecc_counts()
            .erring_lines()
            .all(|l| (l.cache, l.location) != (CacheKind::L2Data, weakest)));
    }
}

//! The standalone-sweep workloads: one `FleetRunner` with one worker,
//! run as a closed loop for the measurement window.
//!
//! * `sweep-hw` — 8-core paper dies, 4 s simulated, hardware controller.
//!   About half of each chip's wall time is the speculation loop (failure
//!   kernel, SEC-DED, monitor, controller, PDN), so changes there show
//!   up here.
//! * `sweep-short` — 2-core dies, 250 ms simulated. Cell-bank build and
//!   characterization dominate and the run loop is a few percent, so a
//!   speculation-loop gain should leave this workload unchanged while a
//!   bank-build gain moves it most.

use crate::digest;
use crate::layers;
use crate::replica::{Replay, Unit};
use crate::report::{Better, Metric, Report};
use crate::stats::Summary;
use crate::trace::Tracer;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use vs_fleet::{simulate_chip, ChipSummary, FleetConfig, FleetRunner};
use vs_guard::CancelToken;
use vs_types::rng::splitmix64;
use vs_types::{ChipId, FleetSeed, SimTime};

/// Chips a sweep may claim per second of window. No chip takes a
/// millisecond, so the window, never the count, ends the run; the runner
/// keeps a to-do list of this length.
const CHIPS_PER_SECOND_CAP: u64 = 1000;

/// The warm-up chip: outside every measured set (ids stay far below it).
const WARMUP_CHIP: ChipId = ChipId(u64::MAX);

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One chip in `SPOT_EVERY` is re-simulated with `simulate_chip` and
/// must match the runner's summary exactly.
const SPOT_EVERY: u64 = 16;

/// Chips per untraced sweep in the traced run, each followed by its
/// replay: short enough that host speed barely changes between the two.
const SEGMENT_CHIPS: u64 = 8;

/// The fleet configuration of a sweep workload with room for `chips`
/// chips, or `None` for a name that is not a sweep workload.
pub fn config(workload: &str, seed: u64, chips: u64) -> Option<FleetConfig> {
    match workload {
        "sweep-hw" => Some(FleetConfig::new(FleetSeed(seed), chips)),
        "sweep-short" => {
            let mut config = FleetConfig::small(FleetSeed(seed), chips);
            config.run_duration = SimTime::from_millis(250);
            Some(config)
        }
        _ => None,
    }
}

/// What one windowed sweep produced.
struct Sweep {
    summaries: Vec<ChipSummary>,
    /// Gap between consecutive `run_streaming` callbacks (the first from
    /// the start of the run), per chip id, in nanoseconds.
    walls_ns: Vec<(ChipId, f64)>,
    elapsed: Duration,
    quarantined: u64,
}

/// `FleetRunner::try_new` plus one warm-up chip, timed.
fn set_up(workload: &str, config: &FleetConfig) -> (FleetRunner, Duration) {
    let warmup = self::config(workload, digest::REFERENCE_SEED, 1).expect("a sweep workload");
    let start = Instant::now();
    let runner = FleetRunner::try_new(config.clone(), 1).expect("sweep configs validate");
    black_box(simulate_chip(&warmup, WARMUP_CHIP));
    (runner, start.elapsed())
}

/// Runs the sweep until `window` has elapsed at a chip boundary.
fn measure(runner: FleetRunner, window: Duration) -> Sweep {
    let token = CancelToken::new();
    let runner = runner.with_cancel(token.clone());
    let mut walls_ns = Vec::new();
    let start = Instant::now();
    let mut last = start;
    let result = runner
        .run_streaming(|summary| {
            let now = Instant::now();
            walls_ns.push((summary.chip, (now - last).as_nanos() as f64));
            last = now;
            if now - start >= window {
                token.cancel();
            }
        })
        .expect("a clean sweep has no fatal errors");
    Sweep {
        summaries: result.summaries,
        walls_ns,
        elapsed: last - start,
        quarantined: result.degradation.quarantined.len() as u64,
    }
}

/// Runs one sweep workload for `seconds` and reports it.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    tracer: &mut Tracer,
    scratch: &Path,
) -> Report {
    let config = config(workload, seed, seconds * CHIPS_PER_SECOND_CAP).expect("a sweep workload");
    let mut report = Report::default();
    let window = Duration::from_secs(seconds);
    if traced {
        run_traced(
            workload,
            &config,
            seed,
            window,
            tracer,
            scratch,
            &mut report,
        );
        return report;
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut runner = None;
    for _ in 0..SETUPS {
        let (r, took) = set_up(workload, &config);
        setups.push(took.as_secs_f64());
        runner = Some(r);
    }
    let setup = Summary::of(&setups).expect("at least one set-up");
    report.push(Metric::median("setup_s", "s", Better::Lower, setup));

    let sweep = measure(runner.expect("set up at least once"), window);
    let n = sweep.walls_ns.len();
    report.attempted = n as u64 + sweep.quarantined;
    report.failed = sweep.quarantined;
    let rate = n as f64 / sweep.elapsed.as_secs_f64();
    let walls_ms: Vec<f64> = sweep.walls_ns.iter().map(|(_, ns)| ns / 1e6).collect();
    report.push(Metric::single("chips_per_s", "1/s", Better::Higher, rate));
    // A sweep's unit of work is the chip job (`vs_fleet::simulate_chip`):
    // its first and only result is its terminal one, and with one worker
    // in a closed loop its latency is the gap between callbacks.
    report.push(Metric::single("jobs_per_s", "1/s", Better::Higher, rate));
    report.push_latencies("chip_wall", &walls_ms);
    report.push_latencies("job_first_result", &walls_ms);
    report.push_latencies("job_terminal", &walls_ms);
    report.push(Metric::single(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        crate::peak_rss_mb(None),
    ));
    report.note(format!(
        "{n} chips in {:.2} s; a sweep job is one chip, so job latency = chip wall",
        sweep.elapsed.as_secs_f64()
    ));
    check(workload, seed, &config, &sweep.summaries, &mut report);
    report
}

/// Output checks: one chip in 16 is re-simulated and must match, and the
/// reference seed's digest must match its pinned value.
fn check(
    workload: &str,
    seed: u64,
    config: &FleetConfig,
    summaries: &[ChipSummary],
    report: &mut Report,
) {
    let offset = seed % SPOT_EVERY;
    for s in summaries.iter().filter(|s| s.chip.0 % SPOT_EVERY == offset) {
        if simulate_chip(config, s.chip) != *s {
            report.failed += 1;
            report.problem(format!("chip {} differs from simulate_chip", s.chip.0));
        }
    }
    if seed != digest::REFERENCE_SEED {
        return;
    }
    let mut pinned: Vec<ChipSummary> = summaries
        .iter()
        .filter(|s| s.chip.0 < digest::DIGEST_CHIPS)
        .cloned()
        .collect();
    for chip in pinned.len() as u64..digest::DIGEST_CHIPS {
        pinned.push(simulate_chip(config, ChipId(chip)));
    }
    let found = digest::digest(&pinned);
    match digest::pinned(workload) {
        Some(expected) if expected == found => {
            report.note(format!("digest {found:016x} matches the pinned value"))
        }
        Some(expected) => report.problem(format!(
            "digest of chips 0..{} is {found:016x}, pinned {expected:016x}",
            digest::DIGEST_CHIPS
        )),
        None => report.problem(format!("no pinned digest for {workload}")),
    }
}

/// The traced run. For three quarters of the window, short untraced
/// sweeps of [`SEGMENT_CHIPS`] chips alternate with a phase-by-phase
/// replay of the same chips under spans, so a change in host speed
/// during the run affects both sides of `fleet.unattributed_pct` and
/// `trace_overhead_pct` alike. The first segment is the workload's own
/// population (and carries the output checks); later ones use derived
/// fleet seeds. The per-layer microbenchmarks follow.
fn run_traced(
    workload: &str,
    config: &FleetConfig,
    seed: u64,
    window: Duration,
    tracer: &mut Tracer,
    scratch: &Path,
    report: &mut Report,
) {
    let deadline = Instant::now() + window * 3 / 4;
    let mut replay = Replay::default();
    let mut untraced_ns = 0.0;
    let mut batch: Vec<ChipSummary> = Vec::new();
    for segment in 0u64.. {
        if segment > 0 && Instant::now() >= deadline {
            break;
        }
        let segment_seed = if segment == 0 {
            seed
        } else {
            splitmix64(seed ^ splitmix64(segment))
        };
        let config = self::config(workload, segment_seed, SEGMENT_CHIPS).expect("a sweep workload");
        let runner = FleetRunner::try_new(config.clone(), 1).expect("sweep configs validate");
        let sweep = measure(runner, Duration::MAX);
        report.attempted += sweep.walls_ns.len() as u64 + sweep.quarantined;
        report.failed += sweep.quarantined;
        for &(chip, wall_ns) in &sweep.walls_ns {
            untraced_ns += wall_ns;
            let unit = Unit {
                config: config.clone(),
                chips: vec![chip],
                wall_ns,
            };
            replay.unit(&unit, tracer);
        }
        if segment == 0 {
            check(workload, seed, &config, &sweep.summaries, report);
        }
        batch.extend(sweep.summaries);
    }
    let untraced_rate = replay.chips() as f64 / (untraced_ns / 1e9);
    let traced_rate = replay.report(tracer, report);
    report.push(Metric::single(
        "trace_overhead_pct",
        "%",
        Better::Lower,
        100.0 * (1.0 - traced_rate / untraced_rate),
    ));

    // One checkpoint save of a sweep writes every chip so far; the
    // runner's default cadence is a save per 32 chips.
    batch.truncate(32);
    layers::run(config, ChipId(0), &batch, scratch, report);
}

//! The observability plane end to end: Prometheus snapshots, causal
//! span tracing, and the crash flight recorder.
//!
//! Everything here leans on the repo's determinism contract: traces,
//! metrics derived from traces, and postmortem bundles are pure
//! functions of `(config, seed)`, so every artifact must be
//! byte-identical for any worker count — and arming the new
//! instrumentation must never change the bytes existing consumers see.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;
use vs_faults::FaultSpec;
use vs_fleet::{ControllerVariant, FleetConfig, FleetRunner};
use vs_fleetd::{FleetStore, Response, Scheduler, SchedulerConfig, SweepSpec};
use vs_obs::span::{chip_span, job_span, lane_of, lane_span, SpanTree};
use vs_obs::{read_bundle, render_prometheus, PostmortemTrigger, PromSnapshot};
use vs_telemetry::{EventCategory, EventFilter, EventMetrics, SilentProgress, SpanLevel};
use vs_types::{ChipId, FleetSeed, SimTime};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("voltspec-obs-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_config(seed: u64, chips: u64) -> FleetConfig {
    let mut config = FleetConfig::small(FleetSeed(seed), chips);
    config.run_duration = SimTime::from_millis(500);
    config
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

/// The rendered Prometheus text for a seeded run is a golden artifact:
/// byte-stable across runs and worker counts. Regenerate the snapshot
/// with `BLESS=1 cargo test -q --test observability` after a deliberate
/// simulation or encoder change.
#[test]
fn golden_prometheus_snapshot_for_a_seeded_run() {
    let config = tiny_config(2014, 4);
    let render = |workers: usize| {
        let (_, trace) = FleetRunner::new(config.clone(), workers)
            .run_reporting(EventFilter::all(), &mut SilentProgress)
            .unwrap();
        render_prometheus(
            EventMetrics::from_events(&trace.events).registry(),
            "voltspec",
        )
    };
    let text = render(1);
    assert_eq!(text, render(4), "snapshot must not depend on sharding");

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.prom");
    if std::env::var_os("BLESS").is_some() {
        fs::write(&golden, &text).unwrap();
    }
    let expected = fs::read_to_string(&golden).expect("golden file (bless with BLESS=1)");
    assert_eq!(
        text, expected,
        "Prometheus text drifted from tests/golden/metrics.prom; \
         re-bless with BLESS=1 if the change is intentional"
    );

    // And the snapshot must survive its own parser.
    let snap = PromSnapshot::parse(&text).unwrap();
    assert!(snap.samples().count() > 0);
}

/// After every submitted job has pushed its terminal event, the job
/// gauges and counters reconcile exactly: nothing running, nothing
/// queued, and every admission accounted for in exactly one outcome
/// bucket. This is the scrape-side face of the scheduler's
/// settle-before-terminal ordering.
#[test]
fn job_gauges_reconcile_once_terminals_are_seen() {
    let store = FleetStore::open(&scratch("reconcile")).unwrap();
    let sched = Scheduler::start(
        SchedulerConfig {
            workers: 2,
            queue_cap: 16,
            job_workers: 1,
            deadline: None,
        },
        store,
    );
    let spec = |seed: u64, chips: u64| SweepSpec {
        seed,
        chips,
        variant: ControllerVariant::Hardware,
        quick: true,
        run_ms: 0,
        sentinel: false,
        inject: String::new(),
        key: String::new(),
        deadline_ms: 0,
    };
    let mut ids = Vec::new();
    for n in 0..5u64 {
        ids.push(sched.submit(spec(40 + n, 1 + n % 3)).unwrap().unwrap().job);
    }
    // Cancel one immediately — it must land in the cancelled bucket
    // whether it was caught queued or running.
    assert!(sched.cancel(ids[4]));

    for id in &ids {
        let mut cursor = 0;
        loop {
            let chunk = sched
                .watch(*id, cursor, Duration::from_millis(200))
                .unwrap();
            cursor += chunk.events.len();
            if chunk.events.iter().any(|e| {
                matches!(
                    e,
                    Response::Done { .. } | Response::Cancelled { .. } | Response::Failed { .. }
                )
            }) {
                break;
            }
        }
    }

    let snap = PromSnapshot::parse(&sched.metrics()).unwrap();
    let v = |name: &str| snap.value(name).unwrap_or_else(|| panic!("missing {name}"));
    assert_eq!(v("voltspec_fleetd_jobs_running"), 0.0);
    assert_eq!(v("voltspec_fleetd_jobs_queued"), 0.0);
    assert_eq!(v("voltspec_fleetd_jobs_submitted"), ids.len() as f64);
    assert_eq!(
        v("voltspec_fleetd_jobs_completed")
            + v("voltspec_fleetd_jobs_cancelled")
            + v("voltspec_fleetd_jobs_failed"),
        v("voltspec_fleetd_jobs_submitted"),
        "every admitted job settles into exactly one outcome bucket"
    );

    // The snapshot and the stats frame read the same atomics.
    let stats = sched.stats();
    assert_eq!(v("voltspec_fleetd_jobs_completed"), stats.completed as f64);
    assert_eq!(v("voltspec_fleetd_jobs_cancelled"), stats.cancelled as f64);
    assert_eq!(v("voltspec_fleetd_jobs_failed"), stats.failed as f64);

    sched.shutdown();
    sched.join();
}

/// The boot scrub is visible on the scrape surface: plant a torn
/// journal tail, boot the store the way `vs-fleetd` does, and the
/// `store.scrub_*` / `store.quarantined_sweeps` counters reconcile
/// exactly — with the scrub report the boot returned, and with the
/// Prometheus text a scheduler over that store serves.
#[test]
fn scrub_counters_reconcile_with_boot_recovery() {
    use std::sync::atomic::Ordering;
    use vs_fleet::{save_checkpoint_on, simulate_chip, ChipJournal};

    let dir = scratch("scrub-counters");
    let config = tiny_config(31, 2);
    let fp = config.fingerprint();
    let store = FleetStore::open(&dir).unwrap();
    let vfs = store.vfs().clone();
    let ckpt = store.checkpoint_path(&config);
    let jpath = store.journal_path(&config);
    let chips: Vec<_> = (0..2).map(|c| simulate_chip(&config, ChipId(c))).collect();
    save_checkpoint_on(&vfs, &ckpt, fp, &chips[..1]).unwrap();
    let mut journal = ChipJournal::create_on(&vfs, &jpath, fp).unwrap();
    journal.append(&chips[1]).unwrap();
    drop(journal);
    // Tear the final journal record a few bytes into its CRC frame —
    // exactly what a crash mid-append leaves behind.
    let text = fs::read_to_string(&jpath).unwrap();
    let keep = text.trim_end().rfind('\n').unwrap() + 1 + 4;
    fs::write(&jpath, &text.as_bytes()[..keep]).unwrap();

    let recovery = store.boot_recover().unwrap();
    assert_eq!(recovery.scrub.repairs(), 1, "the torn tail was truncated");
    assert!(recovery.quarantined.is_empty());

    let counters = store.counters().clone();
    assert_eq!(counters.scrub_runs.load(Ordering::Relaxed), 1);
    assert_eq!(
        counters.scrub_issues.load(Ordering::Relaxed),
        recovery.scrub.issues.len() as u64
    );
    assert_eq!(
        counters.scrub_repairs.load(Ordering::Relaxed),
        recovery.scrub.repairs()
    );
    assert_eq!(counters.quarantined_sweeps.load(Ordering::Relaxed), 0);

    let sched = Scheduler::start(
        SchedulerConfig {
            workers: 1,
            queue_cap: 4,
            job_workers: 1,
            deadline: None,
        },
        store,
    );
    let snap = PromSnapshot::parse(&sched.metrics()).unwrap();
    let v = |name: &str| snap.value(name).unwrap_or_else(|| panic!("missing {name}"));
    assert_eq!(v("voltspec_store_scrub_runs"), 1.0);
    assert_eq!(
        v("voltspec_store_scrub_issues"),
        recovery.scrub.issues.len() as f64
    );
    assert_eq!(v("voltspec_store_scrub_repairs"), 1.0);
    assert_eq!(v("voltspec_store_quarantined_sweeps"), 0.0);
    sched.shutdown();
    sched.join();
}

// ---------------------------------------------------------------------------
// Causal span tracing
// ---------------------------------------------------------------------------

/// Arming spans adds span events without touching any existing trace
/// byte, the armed trace is itself worker-count invariant, and the
/// job → lane → chip → batch tree reconstructs from the merged stream.
#[test]
fn span_tracing_is_byte_neutral_and_reconstructs_the_causal_tree() {
    let config = tiny_config(77, 6);
    let run = |workers: usize, spans: bool| {
        let mut runner = FleetRunner::new(config.clone(), workers);
        if spans {
            runner = runner.with_spans(9);
        }
        let (_, trace) = runner
            .run_reporting(EventFilter::all(), &mut SilentProgress)
            .unwrap();
        trace
    };

    let plain = run(1, false);
    let armed_1 = run(1, true);
    let armed_4 = run(4, true);
    assert_eq!(
        armed_1.to_jsonl(),
        armed_4.to_jsonl(),
        "span-armed traces are byte-identical under any sharding"
    );

    // Byte-neutrality: strip the span category and the armed trace is
    // exactly the plain one.
    let stripped: Vec<_> = armed_1
        .events
        .iter()
        .filter(|e| e.category() != EventCategory::Span)
        .cloned()
        .collect();
    assert_eq!(stripped, plain.events);
    assert!(
        armed_1.events.len() > plain.events.len(),
        "spans were emitted"
    );

    // Tree reconstruction via parent links, not stream nesting.
    let tree = SpanTree::from_events(&armed_1.events);
    let roots: Vec<_> = tree.roots().collect();
    assert_eq!(roots.len(), 1);
    let job = roots[0];
    assert_eq!(job.level, SpanLevel::Job);
    assert_eq!(job.id, job_span(9));
    assert_eq!(job.ident, 9);

    let lanes: Vec<_> = tree.children(job).collect();
    assert!(!lanes.is_empty());
    for lane in &lanes {
        assert_eq!(lane.level, SpanLevel::Lane);
        assert_eq!(lane.id, lane_span(lane.ident));
        for chip in tree.children(lane) {
            assert_eq!(chip.level, SpanLevel::Chip);
            assert_eq!(chip.id, chip_span(ChipId(chip.ident)));
            assert_eq!(
                lane.ident,
                lane_of(ChipId(chip.ident)),
                "chips hang off their virtual lane, not a worker thread"
            );
            assert!(chip.close_at.is_some(), "chip spans close");
        }
    }
    let chips: usize = lanes.iter().map(|l| tree.children(l).count()).sum();
    assert_eq!(chips as u64, 6, "every chip has a span");
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// An injected always-panicking chip is quarantined; the flight
/// recorder turns that into a metadata-only postmortem bundle whose
/// bytes are identical for any worker count.
#[test]
fn quarantine_bundles_are_byte_identical_across_worker_counts() {
    let mut config = tiny_config(11, 4);
    config.faults = FaultSpec::parse("panic:chip1x9").unwrap().materialize(4);
    let run = |workers: usize, dir: &str| {
        let dir = scratch(dir);
        let result = FleetRunner::new(config.clone(), workers)
            .with_flight_recorder(dir.clone())
            .run()
            .unwrap();
        assert_eq!(result.postmortems.len(), 1, "one quarantined chip");
        fs::read(&result.postmortems[0]).unwrap()
    };
    let one = run(1, "quarantine-w1");
    let four = run(4, "quarantine-w4");
    assert_eq!(one, four, "bundle bytes must not depend on sharding");
}

/// An injected hang plus a watchdog deadline: the chip's first attempts
/// are cancelled, the retry succeeds, and the successful attempt's ring
/// is dumped as a watchdog-triggered bundle. The bundle's event lines —
/// per-chip telemetry, so deterministic — are identical across worker
/// counts, and the bundle round-trips through the typed reader.
#[test]
fn watchdog_bundles_carry_identical_event_bytes() {
    let mut config = tiny_config(23, 3);
    config.faults = FaultSpec::parse("hang:chip1x1").unwrap().materialize(3);
    let run = |workers: usize, dir: &str| {
        let dir = scratch(dir);
        let result = FleetRunner::new(config.clone(), workers)
            .with_flight_recorder(dir.clone())
            .with_deadline(Duration::from_millis(300))
            .run()
            .unwrap();
        assert_eq!(result.postmortems.len(), 1, "one watchdog-hit chip");
        result.postmortems[0].clone()
    };
    let one = run(1, "watchdog-w1");
    let four = run(4, "watchdog-w4");
    let a = read_bundle(&one).unwrap();
    let b = read_bundle(&four).unwrap();
    assert_eq!(a.trigger, PostmortemTrigger::Watchdog);
    assert_eq!(a.chip, 1);
    assert_eq!(a.events, b.events, "ring events are per-chip, so identical");
    assert_eq!(a.fingerprint, b.fingerprint);
    assert!(!a.events.is_empty(), "the ring captured the final attempt");
    assert!(
        one.file_name() == four.file_name(),
        "bundle names are deterministic"
    );
}

/// Every observer armed at once — sentinel, spans, flight recorder —
/// beside a deadline, a checkpoint and a journal, on a sweep with an
/// injected voltage DUE and a hang. The observers share one completion
/// step in the runner, so this is where they could interfere:
///
/// * the trace minus `span` events is the plain run's trace (the plain
///   run keeps the deadline, checkpoint and journal: the hang needs a
///   watchdog to end, and store writes emit guard events);
/// * traces, violations and bundle bytes are identical on 1 and 4
///   workers;
/// * a larger sweep resumed from the written checkpoint and journal
///   matches a fresh run of it.
#[test]
fn all_observers_armed_together_stay_byte_neutral_and_resumable() {
    let config_for = |chips: u64| {
        let mut config = tiny_config(31, chips);
        config.faults = FaultSpec::parse("due@100ms:d0:chip1,hang:chip2x1")
            .unwrap()
            .materialize(chips);
        config
    };
    let guarded = |config: FleetConfig, workers: usize, dir: &PathBuf| {
        FleetRunner::new(config, workers)
            .with_deadline(Duration::from_millis(300))
            .with_checkpoint(dir.join("sweep.ckpt"))
            .with_journal(dir.join("sweep.journal"))
    };
    // Narrower than what the sentinel and the flight recorder record, so
    // the runner must strip their extra categories back out.
    let filter = EventFilter::of(&[
        EventCategory::Controller,
        EventCategory::Fault,
        EventCategory::Guard,
    ]);
    let armed = |config: FleetConfig, workers: usize, dir: &PathBuf| {
        let sentinel = config.sentinel_config();
        guarded(config, workers, dir)
            .with_sentinel(sentinel)
            .with_spans(3)
            .with_flight_recorder(dir.join("postmortem"))
            .run_reporting(filter, &mut SilentProgress)
            .unwrap()
    };
    let bundles = |dir: &PathBuf| {
        let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir.join("postmortem"))
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = fs::read(&path).unwrap();
                (PathBuf::from(path.file_name().unwrap()), bytes)
            })
            .collect();
        files.sort();
        files
    };

    let plain_dir = scratch("all-armed-plain");
    let (plain, plain_trace) = guarded(config_for(6), 1, &plain_dir)
        .run_reporting(filter, &mut SilentProgress)
        .unwrap();
    let dir_1 = scratch("all-armed-w1");
    let dir_4 = scratch("all-armed-w4");
    let (one, trace_1) = armed(config_for(6), 1, &dir_1);
    let (four, trace_4) = armed(config_for(6), 4, &dir_4);

    assert_eq!(one.summaries, plain.summaries);
    assert_eq!(one.degradation.watchdog_fired, vec![(ChipId(2), 1)]);
    let stripped: Vec<_> = trace_1
        .events
        .iter()
        .filter(|e| e.category() != EventCategory::Span)
        .cloned()
        .collect();
    assert_eq!(
        stripped, plain_trace.events,
        "observers change no trace bytes"
    );

    assert_eq!(trace_1.to_jsonl(), trace_4.to_jsonl());
    assert_eq!(one.violations, four.violations);
    let bundles_1 = bundles(&dir_1);
    assert!(!bundles_1.is_empty(), "the watchdog-hit chip left a bundle");
    assert_eq!(
        bundles_1,
        bundles(&dir_4),
        "bundle bytes must not depend on sharding"
    );

    // Grow the sweep: the six stored chips resume, two more simulate.
    let (resumed, _) = armed(config_for(8), 4, &dir_1);
    let fresh = FleetRunner::new(config_for(8), 1)
        .with_deadline(Duration::from_millis(300))
        .run()
        .unwrap();
    assert_eq!((resumed.resumed, resumed.simulated), (6, 2));
    assert_eq!(resumed.summaries, fresh.summaries);
}

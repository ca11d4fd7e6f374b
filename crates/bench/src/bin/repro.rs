//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--seed N] [--csv DIR] <experiment>...
//! repro [--quick] all
//! repro list
//! repro --fleet N [--workers W] [--variant hw|sw|baseline] \
//!       [--checkpoint FILE] [--journal FILE] [--deadline DUR] \
//!       [--seed S] [--quick] \
//!       [--inject SPEC] [--max-retries N] [--fail-fast] \
//!       [--sentinel | --sentinel-fail-fast] \
//!       [--trace FILE] [--trace-filter LIST] [--metrics] \
//!       [--spans] [--postmortem DIR] \
//!       [--quiet] [--progress-jsonl]
//! repro --chaos N [--seed S] [--workers W] [--quiet]
//! repro --chaos-daemon N [--seed S] [--workers W] [--break-dedup]
//!       [--inject SPEC] [--quiet]
//! repro --crash-matrix [CHIPS] [--seed S] [--workers W] [--quiet]
//! repro fleetd fsck STORE [--repair]
//! repro fleetd seed-store DIR --chips N [--seed S] [--torn-tail]
//! repro fleetd submit --socket PATH --chips N [--seed S] [--variant V]
//!        [--quick] [--run-ms M] [--sentinel] [--inject SPEC] [--watch]
//!        [--key K] [--retries N] [--deadline DUR] [--torture SPEC]
//! repro fleetd watch --socket PATH --job J
//! repro fleetd cancel --socket PATH --job J
//! repro fleetd stats --socket PATH
//! repro fleetd metrics --socket PATH
//! repro fleetd top --socket PATH [--interval DUR] [--iterations N]
//! repro fleetd shutdown --socket PATH
//! ```
//!
//! Experiments: `table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8
//! fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 retention
//! temperature aging`.
//!
//! `--fleet N` switches to population mode: simulate an `N`-chip fleet in
//! parallel across `W` worker threads and print population statistics
//! (Vmin spread, Vdd-reduction and energy-savings distributions). Results
//! are bit-identical for any `--workers` value.
//!
//! Fault injection (see `vs_faults::FaultSpec` for the full grammar):
//!
//! * `--inject SPEC` schedules deterministic faults, e.g.
//!   `--inject seeded:42` (a seeded population-wide plan),
//!   `--inject due@500ms:d0,panic:chip3x2,crash@1s:c1:chip2`, or the
//!   supervision faults `--inject hang:chip2x2,io-error:3` (hung worker
//!   jobs, transient checkpoint-save errors). Injected runs are as
//!   deterministic as clean ones: the same spec and seed produce
//!   byte-identical results for any `--workers` count.
//! * `--max-retries N` bounds how often a panicking chip job is retried
//!   (default 2) before the chip is quarantined; the run then completes
//!   with partial results and prints a degradation report.
//! * `--fail-fast` aborts on the first quarantined chip instead.
//!
//! Run supervision & durability:
//!
//! * `--deadline DUR` (e.g. `30s`, `500ms`) arms a wall-clock watchdog:
//!   a chip job that stops heartbeating for longer than `DUR` is
//!   cooperatively cancelled, retried, and quarantined if it keeps
//!   hanging. Pair it with `--inject hang:...` to exercise the path
//!   deterministically (an injected hang without a deadline blocks until
//!   Ctrl-C).
//! * `--journal FILE` keeps a crash-safe write-ahead journal: each
//!   finished chip is fsynced immediately, so resume after SIGKILL
//!   recovers every finished chip even between checkpoint saves. On
//!   start the journal is folded into `--checkpoint` as daemon boot
//!   folds it (the journal copy of a chip wins).
//! * Ctrl-C interrupts gracefully: in-flight chips wind down, progress is
//!   flushed to the checkpoint/journal, partial statistics plus a
//!   degradation report are printed, and the exit status is 130. A
//!   second Ctrl-C kills immediately.
//!
//! Fleet observability:
//!
//! * `--trace FILE` writes the telemetry event stream as JSONL. Events are
//!   timestamped in simulated time and merged in chip-id order, so the
//!   file is byte-identical for any `--workers` count.
//! * `--trace-filter LIST` keeps only the named categories
//!   (comma-separated from `ecc,monitor,controller,calibration,fleet,fault`).
//! * `--metrics` prints a deterministic metrics summary (counters and
//!   histograms derived from the event stream) on stdout.
//! * `--spans` adds causal span events (job → lane → chip → tick-batch,
//!   linked by id/parent) to the trace, rooted at the run's seed. Spans
//!   ride alongside the existing categories without changing their
//!   bytes; `vs_obs::span::SpanTree` reconstructs the causal tree from the
//!   merged trace, identically for any `--workers` count.
//! * `--postmortem DIR` arms the flight recorder: each chip keeps a ring
//!   of its last telemetry events, and a sentinel violation, worker
//!   panic, or watchdog cancel dumps a crash-safe postmortem bundle
//!   (events + config fingerprint + violation context) into `DIR`.
//! * `--quiet` silences progress; `--progress-jsonl` switches the stderr
//!   progress ticker to machine-readable JSONL records.
//!
//! Safety monitoring & chaos soaking (see `vs_sentinel`):
//!
//! * `--sentinel` checks every chip's telemetry stream online against the
//!   paper-derived safety invariants (voltage envelope, rollback raises
//!   above last-safe, servo response to above-ceiling windows, quarantine
//!   monotonicity, rollback budget, checkpoint/journal consistency).
//!   Violations are printed after the run and the exit status is 3.
//! * `--sentinel-fail-fast` aborts on the first violating chip instead.
//! * `--chaos N` is soak mode: draw `N` seeded random compositions of the
//!   fault grammar (pure in `--seed` and the case number), run each under
//!   the sentinel, and on the first violation delta-debug the failing
//!   plan down to a minimal `--inject` reproducer. The shrinking oracle
//!   is a pure function of the plan, so the reproducer string is
//!   byte-identical for any `--workers` count.
//! * `--chaos-daemon N` soaks the *daemon tier* instead: draw `N` seeded
//!   compositions of the `daemon:` fault-atom family (torn frames,
//!   disconnects, stalled reads, ENOSPC, short writes, fsync failures,
//!   overload floods), run each against a live in-process daemon with a
//!   retrying client, and compare against a fault-free baseline. A case
//!   diverges if the terminal outcome or per-chip results differ or any
//!   duplicate sweep was admitted; the first divergent case is
//!   delta-debugged to a minimal `daemon:` reproducer, byte-identical
//!   for any `--workers` count. `--break-dedup` plants the recovery bug
//!   (the client forgets its idempotency key across transport retries)
//!   so CI can check the oracle catches it and shrinks it stably.
//! * `--crash-matrix [CHIPS]` is the crash-consistency model checker
//!   (see `vs_bench::crashmatrix`): record a `CHIPS`-chip sweep
//!   (default 16) of the real fleet runner on a simulated filesystem
//!   that numbers every mutation, enumerate every crash point — each
//!   operation under dropped/retained pending data plus torn-prefix
//!   variants of every write — and at each point reboot the exact
//!   `vs-fleetd` recovery (fsck scrub in repair mode, then streaming
//!   compaction) and check the durability invariants: no panic,
//!   journal-acked chips survive byte-equal, compacted recovery equals
//!   the lenient journal merge, a second boot is a no-op, fingerprints
//!   agree with filenames. A violation is shrunk to the smallest chip
//!   count that still violates and its earliest violating crash point;
//!   stdout is byte-identical for any `--workers` count. The `planted-crash`
//!   cargo feature skips the fsync-before-rename in atomic writes
//!   (checkpoint saves and compaction) so CI can prove the checker
//!   catches exactly that bug.
//!
//! `repro fleetd fsck STORE` is the offline store doctor: walk a store
//! directory (CRC every checkpoint and journal record, spot orphan
//! temps, torn journal tails, headerless journals, fingerprint
//! divergence) and report. `--repair` applies the same policy the
//! daemon's boot scrub applies: orphan temps removed, torn tails
//! truncated to the last whole record, headerless journals rebuilt from
//! their filename fingerprint, unrecoverable files quarantined into
//! `STORE/quarantine/`. Exit `0` when the store is clean (or fully
//! repaired), `3` when issues remain. `repro fleetd seed-store DIR`
//! writes a small valid store (optionally `--torn-tail` mutilates the
//! journal's final record) so CI can exercise the fsck path end to end.
//!
//! `repro fleetd ...` is otherwise the thin client for a running
//! `vs-fleetd` daemon: submit a sweep (`--watch` follows its chip stream to the
//! terminal event; `--inject SPEC` plants deterministic faults), watch
//! or cancel a job by id, fetch a stats snapshot or a Prometheus-text
//! metrics snapshot (`metrics`), follow a live plain-ANSI dashboard
//! (`top`), or ask the daemon to drain and exit. `submit` grows the
//! torture-layer client machinery: `--key K` sets the idempotency key
//! (resubmitting the same key maps onto the already-admitted job),
//! `--retries N` arms the typed retry loop (capped exponential backoff
//! with deterministic jitter, honoring the daemon's Retry-After hint),
//! `--deadline DUR` bounds the whole exchange and propagates the
//! remaining budget to the daemon, and `--torture SPEC` wraps the
//! client's own socket in the fault-injecting transport (the `daemon:`
//! transport atoms of SPEC: torn frames, disconnects, stalls) so a
//! seeded schedule of wire faults can be replayed against a live
//! daemon. `--retries`/`--torture` imply `--watch`.
//!
//! Exit codes: `0` success; `2` usage or configuration error (for
//! `fleetd`, also a typed rejection from the daemon); `3` the sentinel
//! found a safety-invariant violation (immediately under
//! `--sentinel-fail-fast`, after the run completes otherwise; also a
//! divergent `--chaos-daemon` case, a `--crash-matrix` durability
//! violation, or a store `fsck` with unresolved issues); `4` the
//! daemon's admission control
//! rejected a submission (`busy`); `5` a fleetd transport failure —
//! connect refused, torn frame, truncated or garbled response, or a
//! retry/deadline budget exhausted without reaching a terminal event;
//! `130` interrupted by Ctrl-C after flushing progress.
//!
//! Wall-clock profiling (per-worker busy/steal/idle, chip latency) goes to
//! stderr, clearly separated from the deterministic stdout report.

use std::io::Write as _;
use std::time::Instant;
use vs_bench::figures::{characterization, mechanisms, noise, power, supporting, tables, Rendered};
use vs_bench::Scale;
use vs_faults::{chaos_plan, minimize, ChaosProfile, FaultPlan, FaultSpec};
use vs_fleet::{ControllerVariant, FleetConfig, FleetError, FleetRunner};
use vs_guard::parse_duration;
use vs_sentinel::{SentinelMode, Violation};
use vs_telemetry::{
    EventFilter, EventMetrics, HumanProgress, JsonlProgress, JsonlSink, ProgressSink,
    SilentProgress,
};
use vs_types::{FleetSeed, SimTime};

/// Exit status when the sentinel found a safety-invariant violation.
const EXIT_VIOLATION: i32 = 3;
/// Exit status when the daemon's admission control rejected a job.
const EXIT_BUSY: i32 = 4;
/// Exit status when the fleetd transport failed: connect refused, a torn
/// or truncated frame, or a retry/deadline budget exhausted without a
/// terminal event. Distinct from `2` (bad spec, typed daemon rejection)
/// so scripts can tell "retry later" from "fix the invocation".
const EXIT_TRANSPORT: i32 = 5;
/// Exit status after a graceful Ctrl-C (128 + SIGINT).
const EXIT_INTERRUPTED: i32 = 130;

const ALL: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "retention",
    "temperature",
    "aging",
    "baselines",
    "tailoring",
];

fn run_one(name: &str, seed: u64, scale: Scale) -> Option<Rendered> {
    Some(match name {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "fig1" => characterization::fig1(seed, scale),
        "fig2" => characterization::fig2(seed, scale),
        "fig3" => characterization::fig3(seed, scale),
        "fig4" => characterization::fig4(seed, scale),
        "fig5" => mechanisms::fig5(seed),
        "fig6" => mechanisms::fig6(),
        "fig7" => mechanisms::fig7(),
        "fig8" => mechanisms::fig8(seed),
        "fig9" => mechanisms::fig9(seed),
        "fig10" => power::fig10(seed, scale),
        "fig11" => power::fig11(seed, scale),
        "fig12" => vs_bench::figures::traces::fig12(seed, scale),
        "fig13" => power::fig13(seed, scale),
        "fig14" => vs_bench::figures::traces::fig14(seed, scale),
        "fig15" => noise::fig15(seed, scale),
        "fig16" => noise::fig16(seed, scale),
        "fig17" => power::fig17(seed, scale),
        "fig18" => power::fig18(seed, scale),
        "retention" => supporting::retention(seed),
        "temperature" => supporting::temperature(seed, scale),
        "aging" => supporting::aging(seed),
        "baselines" => vs_bench::figures::extensions::baselines(seed, scale),
        "tailoring" => vs_bench::figures::extensions::tailoring(seed, scale),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fleetd") {
        run_fleetd(&args[1..]);
    }
    let mut scale = Scale::Full;
    let mut seed = Scale::REFERENCE_SEED;
    let mut csv_dir: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut fleet_chips: Option<u64> = None;
    let mut workers: usize = 1;
    let mut variant = ControllerVariant::Hardware;
    let mut checkpoint: Option<String> = None;
    let mut journal: Option<String> = None;
    let mut deadline: Option<std::time::Duration> = None;
    let mut inject: Option<String> = None;
    let mut max_retries: Option<u32> = None;
    let mut fail_fast = false;
    let mut sentinel: Option<SentinelMode> = None;
    let mut chaos_cases: Option<u64> = None;
    let mut chaos_daemon_cases: Option<u64> = None;
    let mut break_dedup = false;
    let mut crash_matrix: Option<u64> = None;
    let mut trace: Option<String> = None;
    let mut trace_filter: Option<EventFilter> = None;
    let mut metrics = false;
    let mut spans = false;
    let mut postmortem: Option<String> = None;
    let mut quiet = false;
    let mut progress_jsonl = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--csv needs a directory")),
                );
            }
            "--fleet" => {
                i += 1;
                fleet_chips = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--fleet needs a chip count")),
                );
            }
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--workers needs an integer"));
            }
            "--variant" => {
                i += 1;
                variant = args
                    .get(i)
                    .and_then(|s| ControllerVariant::parse(s))
                    .unwrap_or_else(|| die("--variant must be hw, sw, or baseline"));
            }
            "--checkpoint" => {
                i += 1;
                checkpoint = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--checkpoint needs a file path")),
                );
            }
            "--journal" => {
                i += 1;
                journal = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--journal needs a file path")),
                );
            }
            "--deadline" => {
                i += 1;
                deadline = Some(
                    args.get(i)
                        .and_then(|s| parse_duration(s))
                        .unwrap_or_else(|| die("--deadline needs a duration like 30s or 500ms")),
                );
            }
            "--inject" => {
                i += 1;
                let text = args
                    .get(i)
                    .unwrap_or_else(|| die("--inject needs a fault spec (e.g. seeded:42)"));
                FaultSpec::parse(text).unwrap_or_else(|e| die(&e));
                inject = Some(text.clone());
            }
            "--max-retries" => {
                i += 1;
                max_retries = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--max-retries needs an integer")),
                );
            }
            "--fail-fast" => fail_fast = true,
            "--sentinel" => sentinel = Some(SentinelMode::Record),
            "--sentinel-fail-fast" => sentinel = Some(SentinelMode::FailFast),
            "--chaos" => {
                i += 1;
                chaos_cases = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--chaos needs a case count")),
                );
            }
            "--chaos-daemon" => {
                i += 1;
                chaos_daemon_cases = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--chaos-daemon needs a case count")),
                );
            }
            "--break-dedup" => break_dedup = true,
            "--crash-matrix" => {
                // The chip count is optional: `--crash-matrix 6` records
                // a 6-chip sweep, bare `--crash-matrix` the default 16.
                crash_matrix = Some(match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(chips) => {
                        i += 1;
                        chips
                    }
                    None => 16,
                });
            }
            "--trace" => {
                i += 1;
                trace = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--trace needs a file path")),
                );
            }
            "--trace-filter" => {
                i += 1;
                trace_filter = Some(
                    args.get(i)
                        .and_then(|s| EventFilter::parse(s))
                        .unwrap_or_else(|| {
                            die("--trace-filter needs a comma-separated list from \
                                 ecc,monitor,controller,calibration,fleet,fault,guard,span")
                        }),
                );
            }
            "--metrics" => metrics = true,
            "--spans" => spans = true,
            "--postmortem" => {
                i += 1;
                postmortem = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--postmortem needs a directory")),
                );
            }
            "--quiet" => quiet = true,
            "--progress-jsonl" => progress_jsonl = true,
            "list" => {
                for name in ALL {
                    println!("{name}");
                }
                return;
            }
            "all" => targets.extend(ALL.iter().map(|s| (*s).to_owned())),
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick] [--seed N] [--csv DIR] <experiment>... | all | list\n\
                            repro --fleet N [--workers W] [--variant hw|sw|baseline] \
                     [--checkpoint FILE]\n\
                     \x20      [--journal FILE] [--deadline DUR] \
                     [--inject SPEC] [--max-retries N] [--fail-fast]\n\
                     \x20      [--sentinel | --sentinel-fail-fast] \
                     [--trace FILE] [--trace-filter LIST] [--metrics]\n\
                     \x20      [--spans] [--postmortem DIR] \
                     [--quiet] [--progress-jsonl]\n\
                            repro --chaos N [--seed S] [--workers W] [--quiet]\n\
                            repro --chaos-daemon N [--seed S] [--workers W] \
                     [--break-dedup] [--quiet]\n\
                            repro --crash-matrix [CHIPS] [--seed S] [--workers W] [--quiet]\n\
                            repro fleetd submit|watch|cancel|stats|metrics|top|shutdown \
                     --socket PATH [options]\n\
                            repro fleetd fsck STORE [--repair]\n\
                            repro fleetd seed-store DIR --chips N [--seed S] [--torn-tail]\n\
                     \n\
                     exit codes: 0 success; 2 usage/config error; \
                     3 safety-invariant violation\n\
                     \x20           (immediate under --sentinel-fail-fast, \
                     after the run otherwise,\n\
                     \x20           a divergent --chaos-daemon case, a --crash-matrix \
                     violation,\n\
                     \x20           or unresolved fsck issues); \
                     4 daemon busy (admission control);\n\
                     \x20           5 fleetd transport failure; \
                     130 interrupted by Ctrl-C after flushing progress"
                );
                return;
            }
            other => targets.push(other.to_owned()),
        }
        i += 1;
    }

    if let Some(chips) = crash_matrix {
        run_crash_matrix(chips, seed, workers, quiet);
        return;
    }

    if let Some(cases) = chaos_cases {
        run_chaos(cases, seed, workers, quiet);
        return;
    }

    if let Some(cases) = chaos_daemon_cases {
        let replay = inject.map(|text| {
            FaultSpec::parse(&text)
                .expect("--inject was validated when parsed")
                .materialize(1)
        });
        run_chaos_daemon(cases, seed, workers, break_dedup, quiet, replay);
        return;
    }

    if let Some(num_chips) = fleet_chips {
        let obs = FleetObs {
            trace,
            filter: trace_filter,
            metrics,
            spans,
            postmortem,
            quiet,
            progress_jsonl,
        };
        let resilience = FleetResilience {
            inject,
            max_retries,
            fail_fast,
            sentinel,
        };
        let guard = FleetGuard { journal, deadline };
        run_fleet(
            num_chips,
            workers,
            variant,
            seed,
            scale,
            checkpoint,
            &guard,
            &resilience,
            &obs,
        );
        return;
    }

    if targets.is_empty() {
        die("no experiments given; try `repro list` or `repro all`");
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")));
    }

    println!("# voltspec reproduction — seed {seed}, scale {:?}\n", scale);
    for name in &targets {
        let start = Instant::now();
        match run_one(name, seed, scale) {
            Some(rendered) => {
                print!("{}", rendered.to_text());
                println!(
                    "({} in {:.1}s)\n",
                    rendered.id,
                    start.elapsed().as_secs_f64()
                );
                if let Some(dir) = &csv_dir {
                    for (i, table) in rendered.tables.iter().enumerate() {
                        let path = format!("{dir}/{}_{i}.csv", rendered.id);
                        let mut f = std::fs::File::create(&path)
                            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                        let _ = f.write_all(table.to_csv().as_bytes());
                    }
                }
            }
            None => eprintln!("unknown experiment `{name}` (try `repro list`)"),
        }
    }
}

/// Fault-injection and degradation switches.
struct FleetResilience {
    /// The raw `--inject` text, already validated.
    inject: Option<String>,
    max_retries: Option<u32>,
    fail_fast: bool,
    sentinel: Option<SentinelMode>,
}

/// Run supervision and durability switches.
struct FleetGuard {
    journal: Option<String>,
    deadline: Option<std::time::Duration>,
}

/// Fleet observability switches (tracing, metrics, progress).
struct FleetObs {
    trace: Option<String>,
    filter: Option<EventFilter>,
    metrics: bool,
    spans: bool,
    postmortem: Option<String>,
    quiet: bool,
    progress_jsonl: bool,
}

/// Population mode: simulate a fleet of chips and print its statistics.
#[allow(clippy::too_many_arguments)]
fn run_fleet(
    num_chips: u64,
    workers: usize,
    variant: ControllerVariant,
    seed: u64,
    scale: Scale,
    checkpoint: Option<String>,
    guard: &FleetGuard,
    resilience: &FleetResilience,
    obs: &FleetObs,
) {
    // The daemon's sweep → config mapping: paper-faithful 8-core dies,
    // or at `--quick` 2-core dies with 500 ms runs.
    let quick = scale == Scale::Quick;
    let config = vs_fleetd::config_for(&vs_fleetd::SweepSpec {
        seed,
        chips: num_chips,
        variant,
        quick,
        run_ms: if quick { 500 } else { 0 },
        sentinel: resilience.sentinel.is_some(),
        inject: resilience.inject.clone().unwrap_or_default(),
        key: String::new(),
        deadline_ms: 0,
    });

    let mut runner = FleetRunner::new(config.clone(), workers).with_fail_fast(resilience.fail_fast);
    if let Some(retries) = resilience.max_retries {
        runner = runner.with_max_retries(retries);
    }
    if let Some(mode) = resilience.sentinel {
        let mut sc = config.sentinel_config();
        sc.mode = mode;
        runner = runner.with_sentinel(sc);
    }
    if let Some(path) = checkpoint {
        runner = runner.with_checkpoint(path.into());
    }
    if let Some(path) = &guard.journal {
        runner = runner.with_journal(path.into());
    }
    if let Some(budget) = guard.deadline {
        runner = runner.with_deadline(budget);
    }
    if obs.spans {
        // A local run is its own "job"; the seed names its span tree so
        // traces from different sweeps stay distinguishable when merged.
        runner = runner.with_spans(seed);
    }
    if let Some(dir) = &obs.postmortem {
        runner = runner.with_flight_recorder(dir.into());
    }
    // Ctrl-C cancels cooperatively: workers wind down, progress is
    // flushed, partial results are printed. A second Ctrl-C kills.
    let cancel = vs_guard::CancelToken::new();
    vs_guard::install_ctrl_c(&cancel);
    runner = runner.with_cancel(cancel);

    // Events are collected only when something consumes them; the filter
    // defaults to everything once --trace or --metrics asks for events.
    let filter = if obs.trace.is_some() || obs.metrics {
        obs.filter.unwrap_or_else(EventFilter::all)
    } else {
        EventFilter::none()
    };
    let mut progress: Box<dyn ProgressSink> = if obs.quiet {
        Box::new(SilentProgress)
    } else if obs.progress_jsonl {
        Box::new(JsonlProgress::new(std::io::stderr()))
    } else {
        Box::new(HumanProgress::default())
    };

    println!(
        "# voltspec fleet — {} chips, {} workers, variant {}, seed {seed}, scale {scale:?}\n",
        num_chips,
        workers.max(1),
        variant.label()
    );
    let start = Instant::now();
    let (result, trace) = match runner.run_reporting(filter, progress.as_mut()) {
        Ok(ok) => ok,
        Err(e @ FleetError::InvariantViolation { .. }) => {
            eprintln!("repro: {e}");
            std::process::exit(EXIT_VIOLATION);
        }
        Err(e) => die(&format!("fleet run failed: {e}")),
    };
    let wall = start.elapsed().as_secs_f64();

    let stats = result.stats(&config);
    print!("{}", stats.report(config.base_chip.mode.nominal_vdd()));
    // The degradation report is deterministic (retry/quarantine decisions
    // depend only on the fault plan), so it belongs on stdout.
    if !result.degradation.is_clean() {
        print!("{}", result.degradation);
    }
    // Violations are sorted by chip id, so this block is as deterministic
    // as the statistics above it.
    if !result.violations.is_empty() {
        println!("\n## safety violations ({})\n", result.violations.len());
        for v in &result.violations {
            println!("{v}");
        }
    }
    if result.resumed > 0 {
        println!(
            "({} simulated + {} resumed from checkpoint)",
            result.simulated, result.resumed
        );
    }
    println!(
        "({num_chips} chips in {wall:.1}s — {:.1} chips/s)",
        result.simulated as f64 / wall
    );

    if let Some(path) = &obs.trace {
        let mut sink = JsonlSink::create(std::path::Path::new(path))
            .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
        for event in &trace.events {
            use vs_telemetry::EventSink as _;
            sink.record(event);
        }
        match sink.finish() {
            Ok(_) => eprintln!("trace: {} events -> {path}", trace.events.len()),
            Err(e) => die(&format!("writing {path}: {e}")),
        }
    }
    if obs.metrics {
        // Deterministic: derived purely from the sim-tick event stream.
        println!("\n## metrics (simulated time, deterministic)\n");
        let metrics = EventMetrics::from_events(&trace.events);
        print!(
            "{}",
            vs_obs::render_prometheus(metrics.registry(), vs_obs::names::PROM_PREFIX)
        );
    }
    if !result.postmortems.is_empty() {
        // Bundle paths are diagnostic pointers, not results: stderr.
        for path in &result.postmortems {
            eprintln!("postmortem: {}", path.display());
        }
    }
    if !obs.quiet {
        // Wall-clock numbers are diagnostic only: stderr, never stdout.
        eprint!("{}", trace.profile.render());
    }
    if result.degradation.interrupted {
        // Partial results were printed and progress was flushed; signal
        // the interruption the conventional way (128 + SIGINT).
        eprintln!("repro: interrupted — progress saved, resume with the same flags");
        std::process::exit(EXIT_INTERRUPTED);
    }
    if !result.violations.is_empty() {
        eprintln!(
            "repro: sentinel found {} safety violation(s)",
            result.violations.len()
        );
        std::process::exit(EXIT_VIOLATION);
    }
}

/// The fleet each chaos case runs against: a small quick-scale population
/// matching [`ChaosProfile::default`] (4 two-core dies, 400 ms runs).
fn chaos_fleet_config(seed: u64, profile: &ChaosProfile) -> FleetConfig {
    let mut config = FleetConfig::small(FleetSeed(seed), profile.num_chips);
    config.run_duration = SimTime::from_millis(400);
    config
}

/// Runs one fault plan under the sentinel and returns its violations.
/// Pure in `(base, plan)` — the worker count and wall clock cannot change
/// the outcome — which is what makes it a valid delta-debugging oracle.
fn run_chaos_case(base: &FleetConfig, plan: FaultPlan, workers: usize) -> Vec<Violation> {
    let mut config = base.clone();
    config.faults = plan;
    let runner = FleetRunner::new(config.clone(), workers)
        .with_sentinel(config.sentinel_config())
        // Injected worker hangs go silent until cancelled; the watchdog
        // turns them into ordinary retries.
        .with_deadline(std::time::Duration::from_secs(1));
    match runner.run() {
        Ok(result) => result.violations,
        Err(e) => die(&format!("chaos fleet run failed: {e}")),
    }
}

/// Chaos soak mode: draw `cases` seeded compositions of the fault
/// grammar, run each under the sentinel, and on the first violation
/// shrink the failing plan to a minimal `--inject` reproducer.
///
/// Everything on stdout is deterministic in `(cases, seed)` — case specs,
/// violation reports, and the minimized reproducer are byte-identical for
/// any `--workers` count. Timings go to stderr.
fn run_chaos(cases: u64, seed: u64, workers: usize, quiet: bool) {
    let profile = ChaosProfile::default();
    let base = chaos_fleet_config(seed, &profile);
    println!(
        "# voltspec chaos soak — {cases} cases, seed {seed}, {} chips/case\n",
        profile.num_chips
    );
    let start = Instant::now();
    for case in 0..cases {
        let plan = chaos_plan(seed, case, &profile);
        let spec = plan.to_spec_string();
        let violations = run_chaos_case(&base, plan.clone(), workers);
        if violations.is_empty() {
            println!("case {case:>3}: ok        ({spec})");
            continue;
        }
        println!("case {case:>3}: VIOLATED  ({spec})");
        for v in &violations {
            println!("  {v}");
        }
        // Delta-debug the failing composition down to a 1-minimal plan:
        // removing any single remaining fault makes the violation vanish.
        let minimal = minimize(&plan, |candidate| {
            !run_chaos_case(&base, candidate.clone(), workers).is_empty()
        });
        println!("\nminimal reproducer:");
        println!(
            "  repro --fleet {} --quick --seed {seed} --sentinel --deadline 1s \
             --inject {}",
            profile.num_chips,
            minimal.to_spec_string()
        );
        eprintln!("repro: chaos case {case} violated the safety invariants");
        std::process::exit(EXIT_VIOLATION);
    }
    println!("\n{cases} cases, 0 violations");
    if !quiet {
        eprintln!(
            "chaos: {cases} cases clean in {:.1}s",
            start.elapsed().as_secs_f64()
        );
    }
}

/// Daemon-tier chaos soak: draw `cases` seeded compositions of the
/// `daemon:` fault-atom family, run each against a live in-process
/// daemon with a retrying client, and delta-debug the first divergent
/// case to a minimal reproducer.
///
/// The oracle ([`vs_fleetd::torture::torture_oracle`]) compares the
/// tortured run against a fault-free baseline: a different terminal
/// outcome, different per-chip results, or any duplicate admission is a
/// divergence. It is pure in the plan — wall clock, `--workers`, and
/// scheduling cannot change the verdict — so the minimized reproducer
/// string is byte-identical for any `--workers` count.
fn run_chaos_daemon(
    cases: u64,
    seed: u64,
    job_workers: usize,
    break_dedup: bool,
    quiet: bool,
    replay: Option<FaultPlan>,
) {
    use vs_faults::daemon_chaos_plan;
    use vs_fleetd::torture::torture_oracle;
    const CHIPS: u64 = 3;
    let scratch_root = std::env::temp_dir().join(format!("repro-chaos-daemon-{seed}"));
    println!(
        "# voltspec daemon chaos soak — {cases} cases, seed {seed}, {CHIPS} chips/case{}\n",
        if break_dedup {
            " (idempotency bug planted)"
        } else {
            ""
        }
    );
    let start = Instant::now();
    // One fault-free baseline serves every case and every shrink step.
    let diverges = torture_oracle(seed, CHIPS, job_workers, break_dedup, &scratch_root)
        .unwrap_or_else(|e| {
            eprintln!("repro: daemon chaos: {e}");
            std::process::exit(EXIT_TRANSPORT);
        });
    for case in 0..cases {
        // `--inject` replays one fixed schedule (the minimized
        // reproducer path); otherwise each case draws its own.
        let plan = replay
            .clone()
            .unwrap_or_else(|| daemon_chaos_plan(seed, case));
        let spec = plan.to_spec_string();
        if !diverges(&plan) {
            println!("case {case:>3}: ok        ({spec})");
            continue;
        }
        println!("case {case:>3}: DIVERGED  ({spec})");
        // Delta-debug the failing schedule down to a 1-minimal plan:
        // removing any single remaining fault atom makes the daemon tier
        // recover correctly again.
        let minimal = minimize(&plan, &diverges);
        let _ = std::fs::remove_dir_all(&scratch_root);
        println!("\nminimal reproducer:");
        println!(
            "  repro --chaos-daemon 1 --seed {seed}{} --inject {}",
            if break_dedup { " --break-dedup" } else { "" },
            minimal.to_spec_string()
        );
        println!(
            "  (replay the store surface with `vs-fleetd --torture {0}` and the wire \
             surface with `repro fleetd submit --torture {0}`)",
            minimal.to_spec_string()
        );
        eprintln!("repro: daemon chaos case {case} diverged from the fault-free baseline");
        std::process::exit(EXIT_VIOLATION);
    }
    let _ = std::fs::remove_dir_all(&scratch_root);
    println!("\n{cases} cases, 0 divergences");
    if !quiet {
        eprintln!(
            "chaos-daemon: {cases} cases clean in {:.1}s",
            start.elapsed().as_secs_f64()
        );
    }
}

/// Crash-consistency model checking of the fleet store (see
/// [`vs_bench::crashmatrix`]): record a fleet-runner sweep on a
/// simulated filesystem, enumerate every crash point, and check that
/// the daemon's boot recovery holds every durability invariant at each
/// one. A violation is shrunk to the smallest violating chip count and
/// its earliest violating point.
///
/// Everything on stdout is deterministic in `(chips, seed)` —
/// byte-identical for any `--workers` count. Timings go to stderr.
fn run_crash_matrix(chips: u64, seed: u64, workers: usize, quiet: bool) {
    use vs_bench::crashmatrix;

    let config = crashmatrix::matrix_config(seed, chips);
    let start = Instant::now();
    let rec = crashmatrix::record(&config);
    println!(
        "# voltspec crash matrix — {chips} chips, seed {seed}, {} recorded mutations \
         ({} write barriers)\n",
        rec.sim.mutations(),
        crashmatrix::sync_ops(&rec)
    );
    let (points, findings) = crashmatrix::explore_recording(&rec, workers);
    if findings.is_empty() {
        println!("{points} crash points explored, 0 violations");
        if !quiet {
            eprintln!(
                "crash-matrix: {points} points clean in {:.1}s",
                start.elapsed().as_secs_f64()
            );
        }
        return;
    }

    println!(
        "{points} crash points explored, {} violated\n",
        findings.len()
    );
    const SHOWN: usize = 10;
    for finding in findings.iter().take(SHOWN) {
        println!(
            "  [{}] {}{}: {}",
            finding.index,
            finding.point,
            rec.op_suffix(&finding.point),
            finding.violation
        );
    }
    if findings.len() > SHOWN {
        println!("  … and {} more", findings.len() - SHOWN);
    }

    // The smallest chip count that still violates, then its earliest
    // violating crash point: the smallest workload that still breaks.
    let (min_chips, min_rec, first) = crashmatrix::shrink(&config, workers);
    println!("\nminimal reproducer:");
    println!("  chips: {min_chips:?} (seed {seed})");
    println!(
        "  crash point: {}{}",
        first.point,
        min_rec.op_suffix(&first.point)
    );
    println!("  violation: {}", first.violation);
    println!("  rerun: repro --crash-matrix {chips} --seed {seed}");
    eprintln!(
        "repro: crash matrix found {} durability violation(s)",
        findings.len()
    );
    std::process::exit(EXIT_VIOLATION);
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// The `repro fleetd` client: a thin wrapper over [`vs_fleetd::Client`].
///
/// Streams and reports go to stdout as the daemon's own JSONL messages,
/// so the output is machine-checkable; human summaries go to stderr.
fn run_fleetd(args: &[String]) -> ! {
    use vs_fleetd::{Client, JobOutcome, ProtocolError, Response, RetryError, SweepSpec};

    fn fleetd_die(msg: &str) -> ! {
        eprintln!("repro fleetd: {msg}");
        eprintln!(
            "usage: repro fleetd submit --socket PATH --chips N [--seed S] \
             [--variant hw|sw|baseline] [--quick] [--run-ms M] [--sentinel] \
             [--inject SPEC] [--watch]\n\
             \x20      \x20 [--key K] [--retries N] [--deadline DUR] [--torture SPEC]\n\
             \x20      repro fleetd watch|cancel --socket PATH --job J\n\
             \x20      repro fleetd stats|metrics|shutdown --socket PATH\n\
             \x20      repro fleetd top --socket PATH [--interval DUR] [--iterations N]\n\
             \x20      repro fleetd fsck STORE [--repair]\n\
             \x20      repro fleetd seed-store DIR --chips N [--seed S] [--torn-tail]"
        );
        std::process::exit(2);
    }

    /// The wire broke (as opposed to the daemon answering with a typed
    /// rejection): exit 5 so scripts can tell "retry later" from "fix
    /// the invocation".
    fn transport_die(msg: &str) -> ! {
        eprintln!("repro fleetd: transport failure: {msg}");
        std::process::exit(EXIT_TRANSPORT);
    }

    /// Classifies a protocol-level failure: a decodable daemon `error`
    /// response is a configuration problem (exit 2); everything else —
    /// I/O errors, torn or truncated frames, garbage — is the transport
    /// (exit 5).
    fn protocol_die(context: &str, err: ProtocolError) -> ! {
        match err {
            ProtocolError::Json(msg) => fleetd_die(&format!("{context}: {msg}")),
            other => transport_die(&format!("{context}: {other}")),
        }
    }

    let Some(command) = args.first().map(String::as_str) else {
        fleetd_die("missing subcommand");
    };
    // The offline store tools need no socket: they act on a store
    // directory directly, daemon running or not.
    if command == "fsck" {
        run_fsck(&args[1..]);
    }
    if command == "seed-store" {
        run_seed_store(&args[1..]);
    }
    let mut socket: Option<std::path::PathBuf> = None;
    let mut job: Option<u64> = None;
    let mut spec = SweepSpec {
        seed: 2014,
        chips: 0,
        variant: ControllerVariant::Hardware,
        quick: false,
        run_ms: 0,
        sentinel: false,
        inject: String::new(),
        key: String::new(),
        deadline_ms: 0,
    };
    let mut watch_after_submit = false;
    let mut retries: u32 = 0;
    let mut client_deadline: Option<std::time::Duration> = None;
    let mut torture: Option<String> = None;
    let mut interval = std::time::Duration::from_secs(2);
    let mut iterations: u64 = 0;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                socket = Some(std::path::PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| fleetd_die("--socket needs a path")),
                ));
            }
            "--job" => {
                i += 1;
                job = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| fleetd_die("--job needs an integer")),
                );
            }
            "--chips" => {
                i += 1;
                spec.chips = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fleetd_die("--chips needs a chip count"));
            }
            "--seed" => {
                i += 1;
                spec.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fleetd_die("--seed needs an integer"));
            }
            "--variant" => {
                i += 1;
                spec.variant = args
                    .get(i)
                    .and_then(|s| ControllerVariant::parse(s))
                    .unwrap_or_else(|| fleetd_die("--variant must be hw, sw, or baseline"));
            }
            "--quick" => spec.quick = true,
            "--run-ms" => {
                i += 1;
                spec.run_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fleetd_die("--run-ms needs milliseconds"));
            }
            "--sentinel" => spec.sentinel = true,
            "--inject" => {
                i += 1;
                spec.inject = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| fleetd_die("--inject needs a fault spec (e.g. seeded:42)"));
            }
            "--watch" => watch_after_submit = true,
            "--key" => {
                i += 1;
                spec.key = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| fleetd_die("--key needs an idempotency key"));
            }
            "--retries" => {
                i += 1;
                retries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fleetd_die("--retries needs an integer"));
            }
            "--deadline" => {
                i += 1;
                client_deadline = Some(args.get(i).and_then(|s| parse_duration(s)).unwrap_or_else(
                    || fleetd_die("--deadline needs a duration like 30s or 500ms"),
                ));
            }
            "--torture" => {
                i += 1;
                torture = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| fleetd_die("--torture needs a fault spec")),
                );
            }
            "--interval" => {
                i += 1;
                interval = args
                    .get(i)
                    .and_then(|s| parse_duration(s))
                    .unwrap_or_else(|| fleetd_die("--interval needs a duration like 2s or 500ms"));
            }
            "--iterations" => {
                i += 1;
                iterations = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fleetd_die("--iterations needs an integer"));
            }
            other => fleetd_die(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let Some(socket) = socket else {
        fleetd_die("--socket is required");
    };

    // Each streamed response is echoed to stdout as the daemon's own
    // JSONL message.
    fn echo(resp: &Response) {
        println!("{}", vs_fleetd::protocol::encode_response(resp));
    }
    fn finish(outcome: JobOutcome) -> ! {
        match outcome {
            JobOutcome::Done { chips, resumed, .. } => {
                eprintln!("repro fleetd: done ({chips} chips, {resumed} resumed)");
                std::process::exit(0);
            }
            JobOutcome::Cancelled { chips } => {
                eprintln!("repro fleetd: cancelled ({chips} chips durable)");
                std::process::exit(0);
            }
            JobOutcome::Failed { error } => {
                eprintln!("repro fleetd: job failed: {error}");
                std::process::exit(2);
            }
        }
    }

    // `--retries`/`--torture` arm the typed retry loop, which owns its
    // connections (a fault poisons the old one, so each attempt
    // reconnects) and always follows the stream to its terminal event.
    if command == "submit" && (retries > 0 || torture.is_some()) {
        if spec.chips == 0 {
            fleetd_die("submit needs --chips N");
        }
        let budget = torture.as_deref().map(|s| {
            let plan = FaultSpec::parse(s)
                .unwrap_or_else(|e| fleetd_die(&e))
                .materialize(1);
            vs_fleetd::torture::TransportFaultBudget::from_plan(&plan)
        });
        let policy = vs_fleetd::RetryPolicy {
            max_retries: retries,
            jitter_seed: spec.seed,
            deadline: client_deadline,
            ..Default::default()
        };
        let connect = {
            let socket = socket.clone();
            move || -> std::io::Result<Client> {
                let stream = std::os::unix::net::UnixStream::connect(&socket)?;
                Ok(match &budget {
                    Some(b) => Client::from_stream(vs_fleetd::torture::FaultyTransport::new(
                        stream,
                        b.clone(),
                    )),
                    None => Client::from_stream(stream),
                })
            }
        };
        match vs_fleetd::submit_and_watch(connect, spec, &policy, echo) {
            Ok(report) => {
                eprintln!(
                    "repro fleetd: job {} reached its terminal event in {} attempt(s) \
                     ({} transport retries, {} busy waits, {} store retries{})",
                    report.job,
                    report.attempts,
                    report.transport_retries,
                    report.busy_waits,
                    report.store_retries,
                    if report.deduped { ", deduped" } else { "" }
                );
                finish(report.outcome);
            }
            Err(RetryError::Rejected(msg)) => fleetd_die(&format!("daemon rejected: {msg}")),
            Err(gave_up) => transport_die(&gave_up.to_string()),
        }
    }

    let mut client = match Client::connect(&socket) {
        Ok(client) => client,
        Err(e) => transport_die(&format!("cannot connect to {}: {e}", socket.display())),
    };

    match command {
        "submit" => {
            if spec.chips == 0 {
                fleetd_die("submit needs --chips N");
            }
            match client.submit(spec) {
                Ok(Ok(sub)) => {
                    echo(&Response::Submitted {
                        job: sub.job,
                        deduped: sub.deduped,
                    });
                    if sub.deduped {
                        eprintln!(
                            "repro fleetd: idempotency key matched job {}; not resubmitted",
                            sub.job
                        );
                    }
                    if watch_after_submit {
                        match client.watch(sub.job, echo) {
                            Ok(outcome) => finish(outcome),
                            Err(e) => protocol_die("watch failed", e),
                        }
                    }
                    std::process::exit(0);
                }
                Ok(Err(busy)) => {
                    echo(&busy);
                    eprintln!("repro fleetd: daemon busy, job rejected");
                    std::process::exit(EXIT_BUSY);
                }
                Err(e) => protocol_die("submit failed", e),
            }
        }
        "watch" => {
            let Some(id) = job else {
                fleetd_die("watch needs --job J");
            };
            match client.watch(id, echo) {
                Ok(outcome) => finish(outcome),
                Err(e) => protocol_die("watch failed", e),
            }
        }
        "cancel" => {
            let Some(id) = job else {
                fleetd_die("cancel needs --job J");
            };
            match client.cancel(id) {
                Ok(()) => {
                    eprintln!("repro fleetd: cancel requested for job {id}");
                    std::process::exit(0);
                }
                Err(e) => protocol_die("cancel failed", e),
            }
        }
        "stats" => match client.stats() {
            Ok(stats) => {
                echo(&Response::Stats(stats));
                std::process::exit(0);
            }
            Err(e) => protocol_die("stats failed", e),
        },
        "metrics" => match client.metrics() {
            Ok(text) => {
                print!("{text}");
                std::process::exit(0);
            }
            Err(e) => protocol_die("metrics failed", e),
        },
        "top" => {
            // A plain-ANSI live dashboard: poll the metrics snapshot and
            // render rates from consecutive frames. `--iterations 0`
            // (the default) polls until the connection drops or Ctrl-C.
            let mut prev: Option<vs_obs::PromSnapshot> = None;
            let mut frame: u64 = 0;
            loop {
                let text = match client.metrics() {
                    Ok(text) => text,
                    Err(e) => protocol_die("metrics poll failed", e),
                };
                let snap = match vs_obs::PromSnapshot::parse(&text) {
                    Ok(snap) => snap,
                    Err(e) => fleetd_die(&format!("bad metrics snapshot: {e}")),
                };
                let dt = if prev.is_some() {
                    interval.as_secs_f64()
                } else {
                    0.0
                };
                print!("\x1b[2J\x1b[H");
                print!("{}", vs_obs::render_top(prev.as_ref(), &snap, dt));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                prev = Some(snap);
                frame += 1;
                if iterations > 0 && frame >= iterations {
                    std::process::exit(0);
                }
                std::thread::sleep(interval);
            }
        }
        "shutdown" => match client.shutdown() {
            Ok(()) => {
                eprintln!("repro fleetd: daemon draining");
                std::process::exit(0);
            }
            Err(e) => protocol_die("shutdown failed", e),
        },
        other => fleetd_die(&format!("unknown subcommand {other:?}")),
    }
}

/// `repro fleetd fsck STORE [--repair]`: the offline store doctor.
///
/// Walks the store with the same scrub the daemon runs at boot
/// ([`vs_fleetd::FleetStore::scrub`]): CRC every checkpoint and journal record, spot
/// orphan temp files, torn journal tails, headerless journals, and
/// fingerprint divergence. With `--repair`, fixes what is safe and
/// quarantines what is not into `STORE/quarantine/`. Exit `0` when the
/// store is clean or fully repaired, `3` when issues remain.
fn run_fsck(args: &[String]) -> ! {
    fn fsck_die(msg: &str) -> ! {
        eprintln!("repro fleetd fsck: {msg}");
        eprintln!("usage: repro fleetd fsck STORE [--repair]");
        std::process::exit(2);
    }
    let mut dir: Option<std::path::PathBuf> = None;
    let mut repair = false;
    for arg in args {
        match arg.as_str() {
            "--repair" => repair = true,
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other.into()),
            other => fsck_die(&format!("unknown argument {other:?}")),
        }
    }
    let Some(dir) = dir else {
        fsck_die("fsck needs a store directory");
    };
    if !dir.is_dir() {
        fsck_die(&format!("{} is not a directory", dir.display()));
    }
    let store = match vs_fleetd::FleetStore::open(&dir) {
        Ok(store) => store,
        Err(e) => fsck_die(&format!("cannot open store {}: {e}", dir.display())),
    };
    let report = match store.scrub(repair) {
        Ok(report) => report,
        Err(e) => fsck_die(&format!("scrub failed: {e}")),
    };
    print!("{report}");
    if report.unresolved() == 0 {
        std::process::exit(0);
    }
    eprintln!(
        "repro fleetd fsck: {} unresolved issue(s) in {}{}",
        report.unresolved(),
        dir.display(),
        if repair { "" } else { " (rerun with --repair)" }
    );
    std::process::exit(EXIT_VIOLATION);
}

/// `repro fleetd seed-store DIR --chips N [--seed S] [--torn-tail]`:
/// writes a small valid store — a checkpoint holding the first half of
/// the chips and a journal holding the rest — so CI and operators can
/// exercise the fsck path end to end. `--torn-tail` then truncates the
/// journal's final record mid-frame, planting exactly the damage a
/// crash mid-append leaves behind.
fn run_seed_store(args: &[String]) -> ! {
    use vs_bench::crashmatrix::matrix_config;
    use vs_fleet::{save_checkpoint_on, simulate_chip, ChipJournal};

    fn seed_die(msg: &str) -> ! {
        eprintln!("repro fleetd seed-store: {msg}");
        eprintln!("usage: repro fleetd seed-store DIR --chips N [--seed S] [--torn-tail]");
        std::process::exit(2);
    }
    let mut dir: Option<std::path::PathBuf> = None;
    let mut chips: u64 = 0;
    let mut seed: u64 = Scale::REFERENCE_SEED;
    let mut torn_tail = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chips" => {
                i += 1;
                chips = args[i..]
                    .first()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| seed_die("--chips needs a chip count"));
            }
            "--seed" => {
                i += 1;
                seed = args[i..]
                    .first()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| seed_die("--seed needs an integer"));
            }
            "--torn-tail" => torn_tail = true,
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other.into()),
            other => seed_die(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let Some(dir) = dir else {
        seed_die("seed-store needs a directory");
    };
    if chips == 0 {
        seed_die("seed-store needs --chips N (at least 1)");
    }

    let config = matrix_config(seed, chips);
    let fingerprint = config.fingerprint();
    let vfs = vs_guard::vfs::std_fs();
    if let Err(e) = vfs.create_dir_all(&dir) {
        seed_die(&format!("cannot create {}: {e}", dir.display()));
    }
    let ckpt = dir.join(format!("{fingerprint:016x}.ckpt"));
    let jpath = dir.join(format!("{fingerprint:016x}.journal"));
    let summaries: Vec<_> = (0..chips)
        .map(|c| simulate_chip(&config, vs_types::ChipId(c)))
        .collect();
    let half = summaries.len() / 2;
    if let Err(e) = save_checkpoint_on(&vfs, &ckpt, fingerprint, &summaries[..half]) {
        seed_die(&format!("cannot write {}: {e}", ckpt.display()));
    }
    let written = (|| -> std::io::Result<()> {
        let mut journal = ChipJournal::create_on(&vfs, &jpath, fingerprint)?;
        for summary in &summaries[half..] {
            journal.append(summary)?;
        }
        Ok(())
    })();
    if let Err(e) = written {
        seed_die(&format!("cannot write {}: {e}", jpath.display()));
    }
    if torn_tail {
        // Cut the final record line in half — the exact bytes a crash
        // mid-append leaves. This is deliberate damage to a file we just
        // wrote, so plain std::fs is the honest tool.
        let mutilated = (|| -> std::io::Result<()> {
            let text = std::fs::read_to_string(&jpath)?;
            let trimmed = text.trim_end();
            let last_start = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
            let keep = last_start + (trimmed.len() - last_start) / 2;
            std::fs::write(&jpath, &text.as_bytes()[..keep])
        })();
        if let Err(e) = mutilated {
            seed_die(&format!("cannot tear {}: {e}", jpath.display()));
        }
    }
    eprintln!(
        "repro fleetd seed-store: {} chips (seed {seed}) in {} — {} in checkpoint, \
         {} in journal{}",
        chips,
        dir.display(),
        half,
        summaries.len() - half,
        if torn_tail {
            ", final journal record torn"
        } else {
            ""
        }
    );
    std::process::exit(0);
}

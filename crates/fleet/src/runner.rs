//! The fleet execution engine: shard a chip population across worker
//! threads, stream summaries as chips complete, checkpoint progress.
//!
//! # Determinism under any sharding
//!
//! Workers claim chips dynamically from a shared atomic counter (natural
//! load balancing — die-to-die variation makes chip runtimes uneven), and
//! each chip is simulated by the pure function
//! [`simulate_chip`](crate::simulate_chip). Completion *order* therefore
//! varies run to run, but completion *content* cannot; the aggregate is
//! computed over chip-id-sorted summaries, so fleet results are
//! bit-identical for any worker count. `tests/determinism.rs` asserts
//! this end to end.
//!
//! # Graceful degradation
//!
//! Every chip job runs under [`std::panic::catch_unwind`]: a panicking
//! job (injected via [`FaultPlan::worker_panic`](vs_faults::FaultPlan) or
//! organic) kills neither its worker nor the fleet. Failed jobs are
//! retried with bounded backoff; chips that keep failing are quarantined
//! and the run completes with partial results plus an explicit
//! [`DegradationReport`]. Retry and quarantine decisions depend only on
//! per-chip attempt counts — never on scheduling — so degraded results
//! are as deterministic as clean ones.
//!
//! # Supervision & durability
//!
//! Three opt-in guards (built on `vs-guard`) harden long runs:
//!
//! * [`with_cancel`](FleetRunner::with_cancel) — a cooperative
//!   cancellation token (wire it to Ctrl-C with
//!   [`vs_guard::install_ctrl_c`]) checked between claims and between
//!   simulation slices. An interrupted run flushes its progress and
//!   returns partial results with `degradation.interrupted` set.
//! * [`with_deadline`](FleetRunner::with_deadline) — a wall-clock
//!   watchdog gives every job attempt a heartbeat budget; a job that
//!   goes silent past it is cancelled (never killed), retried under the
//!   normal retry policy, and quarantined if it keeps hanging — the rest
//!   of the fleet never stalls.
//! * [`with_journal`](FleetRunner::with_journal) — a write-ahead journal
//!   fsyncs each finished chip, closing the up-to-`checkpoint_every`
//!   window a SIGKILL could otherwise lose; resume replays it and
//!   compacts it into the checkpoint.
//!
//! Wall-clock guard decisions affect *which* chips complete, never their
//! contents, and guard telemetry is emitted in sorted order after the
//! per-chip streams — traces stay byte-identical across worker counts.

use crate::aggregate::PopulationStats;
use crate::checkpoint::{self, CheckpointError};
use crate::config::FleetConfig;
use crate::degrade::DegradationReport;
use crate::job::simulate_chip_guarded;
use crate::journal::ChipJournal;
use crate::summary::ChipSummary;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Once;
use std::time::Duration;
use vs_guard::vfs::{self, VfsHandle};
use vs_guard::{CancelToken, Watchdog};
use vs_obs::flight::{
    write_bundle_on, PostmortemBundle, PostmortemTrigger, DEFAULT_FLIGHT_CAPACITY,
};
use vs_obs::span::{job_span, lane_of, lane_span, ROOT};
use vs_sentinel::{SentinelConfig, SentinelMode, SentinelMonitor, Violation};
use vs_telemetry::{
    to_jsonl, EventCategory, EventFilter, EventRing, FleetProfile, LatencyHistogram,
    ProgressReport, ProgressSink, SilentProgress, SpanLevel, Stopwatch, TelemetryEvent,
    WorkerProfile,
};
use vs_types::{ChipId, SimTime};

/// Why a fleet run could not produce a (possibly degraded) result.
#[derive(Debug)]
pub enum FleetError {
    /// A checkpoint could not be *loaded* (corrupt file, wrong config).
    /// Save failures do not abort the run — they land in the
    /// [`DegradationReport`] instead.
    Checkpoint(CheckpointError),
    /// A chip job exhausted its retries under
    /// [`FleetRunner::with_fail_fast`]; without fail-fast the chip would
    /// have been quarantined and the run would have completed.
    JobFailed {
        /// The chip whose job kept failing.
        chip: ChipId,
        /// Failed attempts consumed (first try plus retries).
        attempts: u32,
        /// Description of the last failure.
        error: String,
    },
    /// The sentinel found a safety-invariant violation while running in
    /// [`SentinelMode::FailFast`]; in record mode the run would have
    /// completed with the violation in [`FleetResult::violations`].
    InvariantViolation {
        /// The first violation found (stream order on the violating chip).
        violation: Violation,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Checkpoint(e) => write!(f, "{e}"),
            FleetError::JobFailed {
                chip,
                attempts,
                error,
            } => write!(
                f,
                "chip {} failed {attempts} attempts (fail-fast): {error}",
                chip.0
            ),
            FleetError::InvariantViolation { violation } => {
                write!(f, "safety invariant violated (fail-fast): {violation}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Checkpoint(e) => Some(e),
            FleetError::JobFailed { .. } | FleetError::InvariantViolation { .. } => None,
        }
    }
}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> FleetError {
        FleetError::Checkpoint(e)
    }
}

/// The completed fleet: every chip's summary in chip-id order, plus how
/// the run was produced and what it survived.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// One summary per *successful* chip, sorted by chip id (quarantined
    /// chips have none — see `degradation`).
    pub summaries: Vec<ChipSummary>,
    /// Chips simulated successfully by this run (the rest came from a
    /// checkpoint or were quarantined).
    pub simulated: u64,
    /// Chips restored from the checkpoint.
    pub resumed: u64,
    /// What the run absorbed: retries, quarantined chips, failed
    /// checkpoint saves. Empty (`is_clean`) on an undisturbed run.
    pub degradation: DegradationReport,
    /// Safety-invariant violations the sentinel found, sorted by chip id
    /// (stream order within a chip). Always empty unless the runner was
    /// armed with [`FleetRunner::with_sentinel`]; in
    /// [`SentinelMode::FailFast`] the run aborts with
    /// [`FleetError::InvariantViolation`] instead of filling this.
    pub violations: Vec<Violation>,
    /// Postmortem flight-recorder bundles written this run, sorted by
    /// path. Always empty unless the runner was armed with
    /// [`FleetRunner::with_flight_recorder`].
    pub postmortems: Vec<PathBuf>,
}

impl FleetResult {
    /// Aggregates the fleet into population statistics. Quarantined chips
    /// have no summary and are therefore excluded from every
    /// distribution.
    pub fn stats(&self, config: &FleetConfig) -> PopulationStats {
        PopulationStats::from_summaries(&self.summaries, config.base_chip.mode.nominal_vdd())
    }
}

/// The observability side of a fleet run, kept strictly apart from the
/// deterministic results.
///
/// `events` is deterministic: per-chip streams are pure functions of the
/// config and are merged in chip-id order, so the serialized trace is
/// byte-identical for any worker count (retried chips contribute the
/// events of their successful attempt only; quarantined chips contribute
/// none). `profile` is wall-clock and varies run to run; callers must
/// never mix it into determinism-checked output.
#[derive(Debug, Clone, Default)]
pub struct FleetTrace {
    /// Telemetry events of every chip simulated this run, merged in
    /// chip-id order (chips restored from a checkpoint have no events).
    pub events: Vec<TelemetryEvent>,
    /// Wall-clock profile: per-worker busy/steal/idle and job latency.
    pub profile: FleetProfile,
}

impl FleetTrace {
    /// Serializes the (deterministic) event stream as JSONL — the exact
    /// bytes `repro --trace FILE` writes.
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.events)
    }
}

/// Marker payload for plan-scheduled worker panics, so the quiet panic
/// hook can tell them apart from organic ones (which keep the default
/// backtrace output).
struct InjectedPanic;

/// Suppresses default panic output for [`InjectedPanic`] payloads only.
/// Installed at most once per process, the first time a fleet with
/// scheduled worker panics runs.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Human-readable description of a caught panic payload.
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if payload.downcast_ref::<InjectedPanic>().is_some() {
        "injected worker panic".to_owned()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_owned()
    }
}

/// Wall-clock backoff before retry `attempt` (1-based): 5 ms doubling,
/// capped at 40 ms. Wall time never feeds into simulated results, so the
/// backoff cannot perturb determinism.
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis((5u64 << attempt.saturating_sub(1).min(3)).min(40))
}

/// What one claimed chip produced.
enum JobOutcome {
    /// The job succeeded (possibly after retries).
    Done {
        summary: ChipSummary,
        events: Vec<TelemetryEvent>,
        failed_attempts: u32,
        /// Attempt indices the watchdog cancelled before success.
        fired_attempts: Vec<u32>,
    },
    /// The job failed every attempt; the chip is quarantined.
    Failed {
        chip: ChipId,
        attempts: u32,
        error: String,
        /// Attempt indices the watchdog cancelled.
        fired_attempts: Vec<u32>,
    },
    /// The run-wide token was cancelled mid-job; the chip is neither done
    /// nor failed, and the run winds down with partial results.
    Cancelled,
}

/// Drives a fleet of chips across a pool of worker threads.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    config: FleetConfig,
    workers: usize,
    checkpoint: Option<PathBuf>,
    /// Completed chips between checkpoint saves.
    checkpoint_every: u64,
    /// Retries granted per chip after its first failed attempt.
    max_retries: u32,
    /// Abort the run on the first quarantined chip instead of degrading.
    fail_fast: bool,
    /// Run-wide cooperative cancellation token (Ctrl-C).
    cancel: Option<CancelToken>,
    /// Per-attempt wall-clock heartbeat budget; silence past it means the
    /// watchdog cancels the attempt.
    deadline: Option<Duration>,
    /// Write-ahead journal path: one fsynced record per finished chip.
    journal: Option<PathBuf>,
    /// Online safety-invariant monitoring of every chip's event stream.
    sentinel: Option<SentinelConfig>,
    /// Causal span tracing: `Some(job)` threads job → lane → chip →
    /// tick-batch spans through the trace under this job id.
    spans: Option<u64>,
    /// Crash flight recorder: postmortem bundles are written into this
    /// directory on sentinel violations, worker panics, and watchdog
    /// cancellations.
    flight: Option<PathBuf>,
    /// Filesystem backend for every durability path (checkpoint,
    /// journal, postmortem bundles). The production default is the real
    /// filesystem; the crash-consistency checker substitutes a recorder.
    vfs: VfsHandle,
}

impl FleetRunner {
    /// A runner over `config` with `workers` threads (0 is treated as 1).
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid; use [`FleetRunner::try_new`] to
    /// handle the error as data instead.
    pub fn new(config: FleetConfig, workers: usize) -> FleetRunner {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        FleetRunner {
            config,
            workers: workers.max(1),
            checkpoint: None,
            checkpoint_every: 32,
            max_retries: 2,
            fail_fast: false,
            cancel: None,
            deadline: None,
            journal: None,
            sentinel: None,
            spans: None,
            flight: None,
            vfs: vfs::std_fs(),
        }
    }

    /// A runner over `config` with `workers` threads, rejecting invalid
    /// configurations as a [`vs_types::ConfigError`] instead of
    /// panicking.
    pub fn try_new(
        config: FleetConfig,
        workers: usize,
    ) -> Result<FleetRunner, vs_types::ConfigError> {
        config.validate()?;
        Ok(FleetRunner::new(config, workers))
    }

    /// Enables checkpoint/resume at `path`: existing progress there is
    /// restored (refusing files from a different config), and progress is
    /// saved periodically and at completion. Save failures never abort
    /// the run; they are reported in the result's [`DegradationReport`].
    pub fn with_checkpoint(mut self, path: PathBuf) -> FleetRunner {
        self.checkpoint = Some(path);
        self
    }

    /// Sets how many chip completions elapse between checkpoint saves.
    pub fn with_checkpoint_every(mut self, chips: u64) -> FleetRunner {
        self.checkpoint_every = chips.max(1);
        self
    }

    /// Sets the retry budget per chip (default 2): a job may fail this
    /// many times *after* its first attempt before the chip is
    /// quarantined.
    pub fn with_max_retries(mut self, retries: u32) -> FleetRunner {
        self.max_retries = retries;
        self
    }

    /// Aborts the run with [`FleetError::JobFailed`] as soon as any chip
    /// exhausts its retries, instead of quarantining it and completing
    /// with partial results.
    pub fn with_fail_fast(mut self, fail_fast: bool) -> FleetRunner {
        self.fail_fast = fail_fast;
        self
    }

    /// Attaches a run-wide cancellation token. When it is cancelled
    /// (e.g. by Ctrl-C via [`vs_guard::install_ctrl_c`]), workers stop
    /// claiming chips, in-flight jobs wind down at their next slice
    /// boundary, progress is flushed to the checkpoint/journal, and the
    /// run returns partial results with `degradation.interrupted` set.
    pub fn with_cancel(mut self, token: CancelToken) -> FleetRunner {
        self.cancel = Some(token);
        self
    }

    /// Gives every job attempt a wall-clock heartbeat budget, supervised
    /// by a watchdog thread. An attempt that goes silent longer than
    /// `deadline` is cooperatively cancelled — never killed — then
    /// retried under the normal retry policy and quarantined if it keeps
    /// hanging. Wall time never feeds simulated results: the watchdog
    /// decides *whether* a chip completes, not *what* it computes.
    pub fn with_deadline(mut self, deadline: Duration) -> FleetRunner {
        self.deadline = Some(deadline.max(Duration::from_millis(1)));
        self
    }

    /// Enables the crash-safe write-ahead journal at `path`: each
    /// finished chip is appended and fsynced before the run moves on, so
    /// resume after SIGKILL recovers every finished chip even if the
    /// periodic checkpoint never got to save them. On start the journal
    /// is replayed, merged with the checkpoint, and compacted into it.
    pub fn with_journal(mut self, path: PathBuf) -> FleetRunner {
        self.journal = Some(path);
        self
    }

    /// Arms the online safety sentinel: every chip's telemetry stream is
    /// checked against the invariant catalogue of [`vs_sentinel`] as the
    /// chip completes, and checkpoint/journal records are cross-checked
    /// on resume. Violations land in [`FleetResult::violations`] (sorted
    /// by chip id, so the list is identical for any worker count); in
    /// [`SentinelMode::FailFast`] the first violating chip aborts the run
    /// with [`FleetError::InvariantViolation`] instead.
    ///
    /// The sentinel widens the *recording* filter of a
    /// [`run_reporting`](FleetRunner::run_reporting) call by
    /// [`SentinelConfig::required_categories`] internally, then strips the
    /// extra events before they reach the returned trace — the trace (and
    /// its byte-identity across worker counts) is unchanged by arming the
    /// sentinel.
    pub fn with_sentinel(mut self, config: SentinelConfig) -> FleetRunner {
        self.sentinel = Some(config);
        self
    }

    /// Arms causal span tracing under job id `job` (a daemon job number;
    /// 0 for standalone runs). A [`run_reporting`](FleetRunner::run_reporting)
    /// trace then carries the job → lane → chip → tick-batch span
    /// hierarchy: span ids are pure functions of position in the
    /// hierarchy (the "lane" is `chip mod LANES`, never the physical
    /// worker), and causality rides in explicit `id`/`parent` links, so
    /// the same tree reconstructs from the merged trace under any worker
    /// count. Span events live in their own
    /// [`EventCategory::Span`] category, which
    /// [`EventFilter::all`] deliberately excludes — arming spans never
    /// changes the bytes of a trace that did not ask for them, and
    /// stripping `span` events from a span-armed trace yields the plain
    /// trace byte for byte.
    pub fn with_spans(mut self, job: u64) -> FleetRunner {
        self.spans = Some(job);
        self
    }

    /// Arms the crash flight recorder: every chip records the full event
    /// taxonomy internally, and when a chip trips a sentinel violation,
    /// exhausts its retries (panic or hang), or needs a watchdog cancel
    /// on the way to success, the last
    /// [`DEFAULT_FLIGHT_CAPACITY`] of its events are dumped into `dir`
    /// as a postmortem bundle together with the config fingerprint and
    /// the violation context. Bundles are written with the vs-guard
    /// journal discipline (per-line CRC frames, temp + fsync + rename)
    /// and their bytes are a pure function of the config — identical for
    /// any worker count. The widened internal recording is stripped
    /// before events reach the returned trace, so arming the recorder
    /// changes no trace bytes.
    pub fn with_flight_recorder(mut self, dir: PathBuf) -> FleetRunner {
        self.flight = Some(dir);
        self
    }

    /// Routes every durability path (checkpoint saves, journal appends,
    /// postmortem bundles) through `vfs` instead of the real filesystem.
    /// The crash-consistency checker uses this to record a sweep's
    /// complete mutation stream on a [`vs_guard::vfs::SimFs`].
    pub fn with_vfs(mut self, vfs: VfsHandle) -> FleetRunner {
        self.vfs = vfs;
        self
    }

    /// The runner's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the whole fleet to completion.
    pub fn run(&self) -> Result<FleetResult, FleetError> {
        self.run_streaming(|_| {})
    }

    /// Runs the fleet, invoking `on_chip` (on the calling thread) for each
    /// newly simulated chip as it completes. Completion order is
    /// scheduling-dependent; summary *contents* are not.
    pub fn run_streaming(
        &self,
        mut on_chip: impl FnMut(&ChipSummary),
    ) -> Result<FleetResult, FleetError> {
        let mut progress = SilentProgress;
        self.run_core(EventFilter::none(), &mut on_chip, &mut progress)
            .map(|(result, _)| result)
    }

    /// Runs the fleet with telemetry: per-chip event streams (kept per
    /// `filter`, merged in chip-id order — byte-identical for any worker
    /// count), a wall-clock profile, and pluggable progress reporting.
    pub fn run_reporting(
        &self,
        filter: EventFilter,
        progress: &mut dyn ProgressSink,
    ) -> Result<(FleetResult, FleetTrace), FleetError> {
        self.run_core(filter, &mut |_| {}, progress)
    }

    fn run_core(
        &self,
        filter: EventFilter,
        on_chip: &mut dyn FnMut(&ChipSummary),
        progress: &mut dyn ProgressSink,
    ) -> Result<(FleetResult, FleetTrace), FleetError> {
        let fingerprint = self.config.fingerprint();
        if !self.config.faults.worker_panics().is_empty() {
            install_quiet_panic_hook();
        }
        let mut degradation = DegradationReport::default();
        // Guard decisions, buffered separately from the per-chip streams
        // and appended in sorted order so the trace stays byte-identical
        // for any worker count.
        let mut guard_events: Vec<TelemetryEvent> = Vec::new();
        let mut compactions: Vec<TelemetryEvent> = Vec::new();
        // Transient checkpoint-save failures still owed by the fault
        // plan; consumed by `save_with_retry` in (deterministic) save
        // order.
        let mut injected_io = self.config.faults.checkpoint_io_errors();
        // Three filter layers. `emit_filter` is what the returned trace
        // keeps: the caller's filter, widened by the span category when
        // span tracing is armed (spans are additive — stripping them
        // yields the caller's exact trace). `job_filter` is what jobs
        // *record*: the sentinel must see its input categories and the
        // flight recorder must see everything, so both widen it further;
        // the extra events are stripped back down to `emit_filter`
        // before they reach the returned trace.
        let emit_filter = match self.spans {
            Some(_) => filter.union(EventFilter::of(&[EventCategory::Span])),
            None => filter,
        };
        let mut job_filter = emit_filter;
        if self.sentinel.is_some() {
            job_filter = job_filter.union(SentinelConfig::required_categories());
        }
        if self.flight.is_some() {
            job_filter = job_filter.union(EventFilter::all());
        }
        let mut violations: Vec<Violation> = Vec::new();
        let mut postmortems: Vec<PathBuf> = Vec::new();

        // Restore prior progress, dropping chips beyond the current fleet
        // size (a shrunk re-run) — the fingerprint pins everything else.
        // Header/format errors are fatal (resuming without the saved work
        // would silently recompute results); damaged *records* only skip
        // that chip, which is then re-simulated.
        let mut done: Vec<ChipSummary> = match &self.checkpoint {
            Some(path) if self.vfs.exists(path) => {
                let report = checkpoint::load_report_on(&self.vfs, path, fingerprint)?;
                for (line, warning) in report.warnings {
                    degradation
                        .corrupt_records
                        .push(format!("checkpoint line {line}: {warning}"));
                }
                report
                    .summaries
                    .into_iter()
                    .filter(|s| s.chip.0 < self.config.num_chips)
                    .collect()
            }
            _ => Vec::new(),
        };

        // Replay the write-ahead journal and merge it with the
        // checkpoint: the union is every chip that durably finished
        // before the previous process died.
        let mut journal: Option<ChipJournal> = None;
        if let Some(jpath) = &self.journal {
            let mut replayed = 0u64;
            if self.vfs.exists(jpath) {
                let replay = checkpoint::load_report_on(&self.vfs, jpath, fingerprint)?;
                for (line, warning) in replay.warnings {
                    degradation
                        .corrupt_records
                        .push(format!("journal line {line}: {warning}"));
                }
                for summary in replay.summaries {
                    if summary.chip.0 >= self.config.num_chips {
                        continue;
                    }
                    match done.iter().find(|s| s.chip == summary.chip) {
                        // A chip present in both stores must be identical
                        // in both — the journal only ever holds records
                        // the checkpoint absorbs verbatim at compaction.
                        // Divergence means one of the two is corrupt; the
                        // sentinel surfaces it instead of silently
                        // preferring the checkpoint copy.
                        Some(existing) => {
                            if self.sentinel.is_some() && *existing != summary {
                                violations.push(Violation::checkpoint_mismatch(
                                    summary.chip,
                                    format!(
                                        "journal and checkpoint disagree about chip {}",
                                        summary.chip.0
                                    ),
                                ));
                            }
                        }
                        None => {
                            done.push(summary);
                            replayed += 1;
                        }
                    }
                }
            }
            done.sort_by_key(|s| s.chip);
            if replayed > 0 && filter.accepts(EventCategory::Guard) {
                guard_events.push(TelemetryEvent::JournalReplayed { chips: replayed });
            }
            // Compact: persist the merged set into the checkpoint, and
            // only then truncate the journal — a crash in between leaves
            // harmless duplicates, never a gap.
            let compacted = if replayed > 0 {
                match self.save_with_retry(fingerprint, &done, &mut injected_io) {
                    Ok(()) => self.checkpoint.is_some(),
                    Err(e) => {
                        degradation.checkpoint_failures.push(e.to_string());
                        false
                    }
                }
            } else {
                self.checkpoint.is_some() || !self.vfs.exists(jpath)
            };
            journal = Some(if compacted {
                let j = ChipJournal::create_on(&self.vfs, jpath, fingerprint)
                    .map_err(CheckpointError::Io)?;
                if !done.is_empty() && filter.accepts(EventCategory::Guard) {
                    compactions.push(TelemetryEvent::JournalCompacted {
                        chips: done.len() as u64,
                    });
                }
                j
            } else {
                // No checkpoint to absorb the records (or the save
                // failed): keep appending, the journal stays the only
                // durable copy.
                ChipJournal::open_append_on(&self.vfs, jpath).map_err(CheckpointError::Io)?
            });
        }
        if let Some(scfg) = &self.sentinel {
            if scfg.mode == SentinelMode::FailFast {
                if let Some(v) = violations.first() {
                    return Err(FleetError::InvariantViolation {
                        violation: v.clone(),
                    });
                }
            }
        }
        let resumed = done.len() as u64;
        let todo: Vec<ChipId> = {
            let have: std::collections::HashSet<u64> = done.iter().map(|s| s.chip.0).collect();
            (0..self.config.num_chips)
                .filter(|i| !have.contains(i))
                .map(ChipId)
                .collect()
        };

        let next = AtomicU64::new(0);
        let (tx, rx) = mpsc::channel::<JobOutcome>();
        let config = &self.config;
        let todo_ref = &todo;
        let max_retries = self.max_retries;
        let run_token = self.cancel.clone().unwrap_or_default();
        let run_token = &run_token;
        // One watchdog thread supervises every attempt; poll fast enough
        // to notice a hang well within one budget.
        let supervisor = self.deadline.map(|budget| {
            let poll = (budget / 8).clamp(Duration::from_millis(1), Duration::from_secs(1));
            (Watchdog::spawn(poll), budget)
        });
        let supervisor = &supervisor;
        // Per-chip event streams, buffered until the run completes and
        // merged in chip-id order (never completion order) so the trace is
        // independent of scheduling.
        let mut traces: Vec<(ChipId, Vec<TelemetryEvent>)> = Vec::new();
        let mut profile = FleetProfile::default();
        let mut fatal: Option<FleetError> = None;
        let run_watch = Stopwatch::start();

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..self.workers.min(todo_ref.len().max(1)) {
                let tx = tx.clone();
                let next = &next;
                handles.push(scope.spawn(move || {
                    let mut stats = WorkerProfile {
                        worker,
                        ..WorkerProfile::default()
                    };
                    let mut latency = LatencyHistogram::new();
                    let wall = Stopwatch::start();
                    loop {
                        if run_token.is_cancelled() {
                            break;
                        }
                        let claim = Stopwatch::start();
                        let idx = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let chip = todo_ref.get(idx).copied();
                        stats.steal_ns += claim.elapsed_ns();
                        let Some(chip) = chip else {
                            break;
                        };
                        // The plan decides how many attempts this chip's
                        // job hangs or panics before succeeding —
                        // worker-count independent, so retry outcomes are
                        // deterministic. Hangs are injected first, then
                        // panics.
                        let planned_hangs = config.faults.hang_attempts(chip);
                        let planned_panics = config.faults.panic_attempts(chip);
                        let mut failed_attempts = 0u32;
                        let mut fired_attempts: Vec<u32> = Vec::new();
                        let busy = Stopwatch::start();
                        let out = loop {
                            // Fresh supervision per attempt: the job's
                            // token is a child of the run token, so both
                            // the watchdog (directly) and Ctrl-C
                            // (inherited) can stop it.
                            let handle = supervisor
                                .as_ref()
                                .map(|(w, budget)| w.register(chip.0, *budget, run_token));
                            let job_token = handle
                                .as_ref()
                                .map(|h| h.token().clone())
                                .unwrap_or_else(|| run_token.child());
                            let attempt =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    if failed_attempts < planned_hangs {
                                        // Injected hang: go silent (no
                                        // heartbeats) until the watchdog
                                        // or a run-wide interrupt cancels
                                        // this attempt.
                                        while !job_token.is_cancelled() {
                                            std::thread::sleep(Duration::from_millis(1));
                                        }
                                        return None;
                                    }
                                    if failed_attempts < planned_hangs + planned_panics {
                                        std::panic::panic_any(InjectedPanic);
                                    }
                                    simulate_chip_guarded(
                                        config,
                                        chip,
                                        job_filter,
                                        &job_token,
                                        || {
                                            if let Some(h) = &handle {
                                                h.beat();
                                            }
                                        },
                                    )
                                }));
                            let fired = handle.as_ref().is_some_and(|h| h.fired());
                            drop(handle);
                            match attempt {
                                Ok(Some((summary, events))) => {
                                    break JobOutcome::Done {
                                        summary,
                                        events,
                                        failed_attempts,
                                        fired_attempts,
                                    }
                                }
                                Ok(None) if fired && !run_token.is_cancelled() => {
                                    // The watchdog cancelled a hung or
                                    // too-slow attempt: a failure like any
                                    // other, minus the panic.
                                    fired_attempts.push(failed_attempts);
                                    failed_attempts = failed_attempts.saturating_add(1);
                                    if failed_attempts > max_retries {
                                        break JobOutcome::Failed {
                                            chip,
                                            attempts: failed_attempts,
                                            error: "watchdog: job exceeded its deadline".to_owned(),
                                            fired_attempts,
                                        };
                                    }
                                    std::thread::sleep(backoff(failed_attempts));
                                }
                                Ok(None) => break JobOutcome::Cancelled,
                                Err(payload) => {
                                    failed_attempts = failed_attempts.saturating_add(1);
                                    if failed_attempts > max_retries {
                                        break JobOutcome::Failed {
                                            chip,
                                            attempts: failed_attempts,
                                            error: describe_panic(payload.as_ref()),
                                            fired_attempts,
                                        };
                                    }
                                    std::thread::sleep(backoff(failed_attempts));
                                }
                            }
                        };
                        let busy_ns = busy.elapsed_ns();
                        stats.busy_ns += busy_ns;
                        stats.jobs += 1;
                        latency.observe_ns(busy_ns);
                        // A send can only fail if the receiver hung up,
                        // which only happens on fail-fast abort; the
                        // remaining work is moot either way.
                        let send = Stopwatch::start();
                        let disconnected = tx.send(out).is_err();
                        stats.steal_ns += send.elapsed_ns();
                        if disconnected {
                            break;
                        }
                    }
                    stats.wall_ns = wall.elapsed_ns();
                    (stats, latency)
                }));
            }
            drop(tx);

            let mut since_save = 0u64;
            let mut completed = resumed;
            for outcome in rx {
                match outcome {
                    JobOutcome::Done {
                        summary,
                        mut events,
                        failed_attempts,
                        fired_attempts,
                    } => {
                        let watchdog_fires = fired_attempts.len();
                        if !fired_attempts.is_empty() {
                            degradation
                                .watchdog_fired
                                .push((summary.chip, fired_attempts.len() as u32));
                            if filter.accepts(EventCategory::Guard) {
                                for attempt in fired_attempts {
                                    guard_events.push(TelemetryEvent::WatchdogFired {
                                        chip: summary.chip,
                                        attempt,
                                    });
                                }
                            }
                        }
                        if failed_attempts > 0 {
                            degradation.retried.push((summary.chip, failed_attempts));
                        }
                        // Walk the chip's stream through the sentinel
                        // before stripping it back down to the caller's
                        // filter. Violations are re-sorted by chip id at
                        // the end of the run, so completion order (and
                        // therefore worker count) cannot leak into them.
                        let mut chip_violations: Vec<Violation> = Vec::new();
                        if let Some(scfg) = &self.sentinel {
                            let mut monitor = SentinelMonitor::for_chip(*scfg, summary.chip);
                            for e in &events {
                                monitor.observe(e);
                            }
                            monitor.finish();
                            chip_violations = monitor.into_violations();
                        }
                        // Flight recorder: dump the postmortem *before*
                        // stream stripping and before a fail-fast abort,
                        // so the bundle always holds the full-taxonomy
                        // event window of the trigger.
                        if let Some(dir) = &self.flight {
                            let trigger = if !chip_violations.is_empty() {
                                Some((PostmortemTrigger::Violation, chip_violations[0].to_string()))
                            } else if watchdog_fires > 0 {
                                Some((
                                    PostmortemTrigger::Watchdog,
                                    format!(
                                        "watchdog cancelled {watchdog_fires} attempt(s) \
                                         before success"
                                    ),
                                ))
                            } else {
                                None
                            };
                            if let Some((trigger, detail)) = trigger {
                                let mut bundle =
                                    PostmortemBundle::new(trigger, summary.chip.0, fingerprint);
                                bundle.detail = detail;
                                bundle.violations =
                                    chip_violations.iter().map(|v| v.to_string()).collect();
                                let mut ring = EventRing::new(DEFAULT_FLIGHT_CAPACITY);
                                for e in &events {
                                    ring.push(*e);
                                }
                                bundle.dropped = ring.dropped();
                                for e in ring.drain() {
                                    bundle.push_event(&e);
                                }
                                match write_bundle_on(&self.vfs, dir, &bundle) {
                                    Ok(p) => postmortems.push(p),
                                    Err(e) => degradation
                                        .checkpoint_failures
                                        .push(format!("postmortem write failed: {e}")),
                                }
                            }
                        }
                        if let Some(scfg) = &self.sentinel {
                            if !chip_violations.is_empty() && scfg.mode == SentinelMode::FailFast {
                                fatal = Some(FleetError::InvariantViolation {
                                    violation: chip_violations.remove(0),
                                });
                                break;
                            }
                        }
                        violations.append(&mut chip_violations);
                        if job_filter != emit_filter {
                            events.retain(|e| emit_filter.accepts(e.category()));
                        }
                        completed += 1;
                        on_chip(&summary);
                        progress.chip_done(&ProgressReport {
                            chip: summary.chip,
                            completed,
                            total: self.config.num_chips,
                        });
                        if !events.is_empty() {
                            traces.push((summary.chip, events));
                        }
                        // Journal first, checkpoint second: when this
                        // iteration ends the chip is durable even if the
                        // process dies before the next periodic save.
                        if let Some(j) = journal.as_mut() {
                            if let Err(e) = j.append(&summary) {
                                degradation
                                    .checkpoint_failures
                                    .push(format!("journal append failed: {e}"));
                            }
                        }
                        done.push(summary);
                        since_save += 1;
                        if since_save >= self.checkpoint_every {
                            since_save = 0;
                            match self.save_with_retry(fingerprint, &done, &mut injected_io) {
                                Ok(()) => {
                                    self.compact_journal(
                                        fingerprint,
                                        done.len() as u64,
                                        &mut journal,
                                        &mut degradation,
                                        filter,
                                        &mut compactions,
                                    );
                                }
                                Err(e) => {
                                    degradation.checkpoint_failures.push(e.to_string());
                                }
                            }
                        }
                    }
                    JobOutcome::Failed {
                        chip,
                        attempts,
                        error,
                        fired_attempts,
                    } => {
                        if !fired_attempts.is_empty() {
                            degradation
                                .watchdog_fired
                                .push((chip, fired_attempts.len() as u32));
                            if filter.accepts(EventCategory::Guard) {
                                for attempt in fired_attempts {
                                    guard_events
                                        .push(TelemetryEvent::WatchdogFired { chip, attempt });
                                }
                            }
                        }
                        // A quarantined chip gets a metadata-only bundle:
                        // the attempt's recorder died with it, and
                        // inventing a partial stream would break bundle
                        // determinism.
                        if let Some(dir) = &self.flight {
                            let trigger = if error.starts_with("watchdog") {
                                PostmortemTrigger::Watchdog
                            } else {
                                PostmortemTrigger::Panic
                            };
                            let mut bundle = PostmortemBundle::new(trigger, chip.0, fingerprint);
                            bundle.detail =
                                format!("chip quarantined after {attempts} attempts: {error}");
                            match write_bundle_on(&self.vfs, dir, &bundle) {
                                Ok(p) => postmortems.push(p),
                                Err(e) => degradation
                                    .checkpoint_failures
                                    .push(format!("postmortem write failed: {e}")),
                            }
                        }
                        if self.fail_fast {
                            fatal = Some(FleetError::JobFailed {
                                chip,
                                attempts,
                                error,
                            });
                            // Dropping the receiver disconnects every
                            // worker's sender; they wind down after their
                            // in-flight job.
                            break;
                        }
                        degradation.quarantined.push(chip);
                    }
                    JobOutcome::Cancelled => {
                        degradation.interrupted = true;
                    }
                }
            }
            for handle in handles {
                let (stats, latency) = handle.join().expect("fleet worker panicked");
                profile.workers.push(stats);
                profile.job_latency.merge(&latency);
            }
        });
        if run_token.is_cancelled() {
            degradation.interrupted = true;
        }
        if let Some(e) = fatal {
            return Err(e);
        }
        profile.wall_ns = run_watch.elapsed_ns();
        progress.finished(self.config.num_chips);

        done.sort_by_key(|s| s.chip);
        let simulated = done.len() as u64 - resumed;
        if simulated > 0 {
            // Final flush — on an interrupted run this is what makes the
            // partial progress resumable.
            match self.save_with_retry(fingerprint, &done, &mut injected_io) {
                Ok(()) => self.compact_journal(
                    fingerprint,
                    done.len() as u64,
                    &mut journal,
                    &mut degradation,
                    filter,
                    &mut compactions,
                ),
                Err(e) => degradation.checkpoint_failures.push(e.to_string()),
            }
        }
        if degradation.interrupted && filter.accepts(EventCategory::Guard) {
            compactions.push(TelemetryEvent::RunInterrupted {
                completed: done.len() as u64,
                total: self.config.num_chips,
            });
        }
        degradation.normalize();
        traces.sort_by_key(|(chip, _)| *chip);
        // Guard events follow the per-chip streams: replay first, then
        // watchdog fires in (chip, attempt) order, then compactions in
        // occurrence order (their counts are worker-count independent).
        guard_events.sort_by_key(|e| match e {
            TelemetryEvent::WatchdogFired { chip, attempt } => (1u8, chip.0, *attempt),
            _ => (0, 0, 0),
        });
        // Lane spans cover the virtual lanes that own at least one traced
        // chip; counts are per-lane event totals. Both are functions of
        // the (sorted) traces, never of scheduling.
        let mut lane_counts: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        if self.spans.is_some() {
            for (chip, ev) in &traces {
                *lane_counts.entry(lane_of(*chip)).or_insert(0) += ev.len() as u64;
            }
        }
        let mut events: Vec<TelemetryEvent> = traces.into_iter().flat_map(|(_, e)| e).collect();
        events.extend(guard_events);
        events.extend(compactions);
        if let Some(job) = self.spans {
            // The job span brackets the whole merged stream (guard events
            // included); lane spans bracket their chips' streams. All of
            // it is emitted at merge time in lane order, so the trace
            // stays byte-identical for any worker count.
            let jid = job_span(job);
            let mut wrapped = Vec::with_capacity(events.len() + 2 + 2 * lane_counts.len());
            wrapped.push(TelemetryEvent::SpanOpen {
                at: SimTime::ZERO,
                id: jid,
                parent: ROOT,
                level: SpanLevel::Job,
                ident: job,
            });
            for &lane in lane_counts.keys() {
                wrapped.push(TelemetryEvent::SpanOpen {
                    at: SimTime::ZERO,
                    id: lane_span(lane),
                    parent: jid,
                    level: SpanLevel::Lane,
                    ident: lane,
                });
            }
            wrapped.extend(events);
            for (&lane, &count) in &lane_counts {
                wrapped.push(TelemetryEvent::SpanClose {
                    at: self.config.run_duration,
                    id: lane_span(lane),
                    events: count,
                });
            }
            let enclosed = wrapped.len() as u64 - 1;
            wrapped.push(TelemetryEvent::SpanClose {
                at: self.config.run_duration,
                id: jid,
                events: enclosed,
            });
            events = wrapped;
        }
        // Stable sort: violations keep stream order within a chip, and
        // the overall list is independent of completion order.
        violations.sort_by_key(|v| v.chip.map_or(u64::MAX, |c| c.0));
        postmortems.sort();
        Ok((
            FleetResult {
                summaries: done,
                simulated,
                resumed,
                degradation,
                violations,
                postmortems,
            },
            FleetTrace { events, profile },
        ))
    }

    /// Saves the checkpoint, retrying transient I/O errors with bounded
    /// backoff. `injected` counts down the fault plan's scheduled
    /// checkpoint I/O errors; each save attempt consumes one before
    /// touching the disk, so injection order is deterministic.
    fn save_with_retry(
        &self,
        fingerprint: u64,
        done: &[ChipSummary],
        injected: &mut u32,
    ) -> Result<(), CheckpointError> {
        const SAVE_RETRIES: u32 = 2;
        let Some(path) = &self.checkpoint else {
            return Ok(());
        };
        let mut attempt = 0u32;
        loop {
            let result = if *injected > 0 {
                *injected -= 1;
                Err(CheckpointError::Io(std::io::Error::other(
                    "injected checkpoint I/O error",
                )))
            } else {
                checkpoint::save_on(&self.vfs, path, fingerprint, done)
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) => {
                    attempt += 1;
                    if attempt > SAVE_RETRIES {
                        return Err(e);
                    }
                    std::thread::sleep(backoff(attempt));
                }
            }
        }
    }

    /// Truncates the journal after its records were absorbed into a
    /// successfully saved checkpoint. Without a checkpoint the journal is
    /// the only durable copy and must keep growing instead.
    fn compact_journal(
        &self,
        fingerprint: u64,
        chips: u64,
        journal: &mut Option<ChipJournal>,
        degradation: &mut DegradationReport,
        filter: EventFilter,
        compactions: &mut Vec<TelemetryEvent>,
    ) {
        if self.checkpoint.is_none() {
            return;
        }
        let Some(j) = journal else {
            return;
        };
        let path = j.path().to_path_buf();
        match ChipJournal::create_on(&self.vfs, &path, fingerprint) {
            Ok(fresh) => {
                *j = fresh;
                if filter.accepts(EventCategory::Guard) {
                    compactions.push(TelemetryEvent::JournalCompacted { chips });
                }
            }
            Err(e) => degradation
                .checkpoint_failures
                .push(format!("journal compaction failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::replay_journal;
    use vs_faults::FaultPlan;
    use vs_types::FleetSeed;

    fn tiny_config() -> FleetConfig {
        let mut config = FleetConfig::small(FleetSeed(77), 6);
        config.run_duration = vs_types::SimTime::from_millis(500);
        config
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vs-fleet-runner-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let one = FleetRunner::new(tiny_config(), 1).run().unwrap();
        let four = FleetRunner::new(tiny_config(), 4).run().unwrap();
        assert_eq!(one.summaries, four.summaries);
        assert_eq!(one.summaries.len(), 6);
        assert!(one.summaries.windows(2).all(|w| w[0].chip < w[1].chip));
        assert!(one.degradation.is_clean());
    }

    #[test]
    fn streaming_sees_every_chip_exactly_once() {
        let mut seen = Vec::new();
        let result = FleetRunner::new(tiny_config(), 2)
            .run_streaming(|s| seen.push(s.chip))
            .unwrap();
        assert_eq!(seen.len(), 6);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6);
        assert_eq!(result.simulated, 6);
        assert_eq!(result.resumed, 0);
    }

    #[test]
    fn checkpoint_resume_skips_completed_chips_and_matches_fresh_run() {
        let path = scratch("resume.ckpt");
        let _ = std::fs::remove_file(&path);

        // Run the first half and checkpoint it.
        let mut half = tiny_config();
        half.num_chips = 3;
        FleetRunner::new(half, 2)
            .with_checkpoint(path.clone())
            .run()
            .unwrap();

        // Resume into the full fleet: only the second half is simulated.
        let resumed = FleetRunner::new(tiny_config(), 2)
            .with_checkpoint(path.clone())
            .run()
            .unwrap();
        assert_eq!(resumed.resumed, 3);
        assert_eq!(resumed.simulated, 3);

        let fresh = FleetRunner::new(tiny_config(), 2).run().unwrap();
        assert_eq!(
            resumed.summaries, fresh.summaries,
            "a resumed fleet must be bit-identical to a fresh one"
        );
    }

    #[test]
    fn checkpoint_from_other_config_is_refused() {
        let path = scratch("mismatch.ckpt");
        let _ = std::fs::remove_file(&path);
        FleetRunner::new(tiny_config(), 1)
            .with_checkpoint(path.clone())
            .run()
            .unwrap();
        let other = FleetConfig {
            seed: FleetSeed(78),
            ..tiny_config()
        };
        let err = FleetRunner::new(other, 1)
            .with_checkpoint(path.clone())
            .run();
        assert!(matches!(
            err,
            Err(FleetError::Checkpoint(
                CheckpointError::FingerprintMismatch { .. }
            ))
        ));
    }

    #[test]
    fn stats_shortcut_aggregates() {
        let config = tiny_config();
        let result = FleetRunner::new(config.clone(), 2).run().unwrap();
        let stats = result.stats(&config);
        assert_eq!(stats.num_chips, 6);
        assert_eq!(stats.healthy_chips, 6);
    }

    #[test]
    fn injected_panics_are_retried_and_results_are_unchanged() {
        let clean = FleetRunner::new(tiny_config(), 2).run().unwrap();
        let mut config = tiny_config();
        config.faults = FaultPlan::new()
            .worker_panic(ChipId(1), 2)
            .worker_panic(ChipId(4), 1);
        let result = FleetRunner::new(config, 3).run().unwrap();
        assert_eq!(
            result.summaries, clean.summaries,
            "retried chips must produce bit-identical summaries"
        );
        assert_eq!(
            result.degradation.retried,
            vec![(ChipId(1), 2), (ChipId(4), 1)]
        );
        assert!(result.degradation.quarantined.is_empty());
        assert_eq!(result.degradation.attempts_absorbed(), 3);
    }

    #[test]
    fn doomed_chip_is_quarantined_with_partial_results() {
        let mut config = tiny_config();
        config.faults = FaultPlan::new().worker_panic(ChipId(2), u32::MAX);
        let result = FleetRunner::new(config.clone(), 2)
            .with_max_retries(1)
            .run()
            .unwrap();
        assert_eq!(result.degradation.quarantined, vec![ChipId(2)]);
        assert_eq!(result.summaries.len(), 5);
        assert!(result.summaries.iter().all(|s| s.chip != ChipId(2)));
        assert_eq!(result.simulated, 5);
        // The quarantined chip is excluded from population statistics.
        let stats = result.stats(&config);
        assert_eq!(stats.num_chips, 5);
        assert!(!result.degradation.is_clean());
    }

    #[test]
    fn fail_fast_aborts_on_a_doomed_chip() {
        let mut config = tiny_config();
        config.faults = FaultPlan::new().worker_panic(ChipId(0), u32::MAX);
        let err = FleetRunner::new(config, 2)
            .with_max_retries(1)
            .with_fail_fast(true)
            .run();
        match err {
            Err(FleetError::JobFailed { chip, attempts, .. }) => {
                assert_eq!(chip, ChipId(0));
                assert_eq!(attempts, 2);
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
    }

    #[test]
    fn hung_worker_is_watchdog_cancelled_then_retried_to_an_identical_result() {
        let clean = FleetRunner::new(tiny_config(), 2).run().unwrap();
        let mut config = tiny_config();
        config.faults = FaultPlan::new().worker_hang(ChipId(1), 1);
        let result = FleetRunner::new(config, 3)
            .with_deadline(Duration::from_secs(1))
            .run()
            .unwrap();
        assert_eq!(
            result.summaries, clean.summaries,
            "a watchdog-retried chip must produce a bit-identical summary"
        );
        assert_eq!(result.degradation.watchdog_fired, vec![(ChipId(1), 1)]);
        assert_eq!(result.degradation.retried, vec![(ChipId(1), 1)]);
        assert!(result.degradation.quarantined.is_empty());
    }

    #[test]
    fn chip_that_keeps_hanging_is_quarantined_without_stalling_the_fleet() {
        let mut config = tiny_config();
        config.faults = FaultPlan::new().worker_hang(ChipId(2), u32::MAX);
        let result = FleetRunner::new(config, 2)
            .with_max_retries(1)
            .with_deadline(Duration::from_secs(1))
            .run()
            .unwrap();
        assert_eq!(result.degradation.quarantined, vec![ChipId(2)]);
        assert_eq!(result.degradation.watchdog_fired, vec![(ChipId(2), 2)]);
        assert_eq!(result.summaries.len(), 5, "the rest of the fleet completes");
        assert!(result.summaries.iter().all(|s| s.chip != ChipId(2)));
    }

    #[test]
    fn cancelled_run_flushes_partial_progress_and_resumes_to_a_full_fleet() {
        let path = scratch("interrupt.ckpt");
        let journal = scratch("interrupt.journal");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&journal);
        let token = CancelToken::new();
        let cancel_after = token.clone();
        let mut seen = 0u32;
        let partial = FleetRunner::new(tiny_config(), 2)
            .with_checkpoint(path.clone())
            .with_journal(journal.clone())
            .with_cancel(token)
            .run_streaming(|_| {
                seen += 1;
                if seen == 2 {
                    cancel_after.cancel();
                }
            })
            .unwrap();
        assert!(partial.degradation.interrupted);
        assert!(!partial.degradation.is_clean());
        let finished = partial.summaries.len();
        assert!(
            (2..6).contains(&finished),
            "interrupt after 2 chips must leave a partial fleet, got {finished}"
        );

        let resumed = FleetRunner::new(tiny_config(), 2)
            .with_checkpoint(path.clone())
            .with_journal(journal.clone())
            .run()
            .unwrap();
        assert_eq!(resumed.resumed, finished as u64);
        let fresh = FleetRunner::new(tiny_config(), 2).run().unwrap();
        assert_eq!(
            resumed.summaries, fresh.summaries,
            "resume after interrupt must match an undisturbed run bit for bit"
        );
    }

    #[test]
    fn pre_cancelled_run_completes_no_chips_but_reports_cleanly() {
        let token = CancelToken::new();
        token.cancel();
        let result = FleetRunner::new(tiny_config(), 2)
            .with_cancel(token)
            .run()
            .unwrap();
        assert!(result.summaries.is_empty());
        assert!(result.degradation.interrupted);
    }

    #[test]
    fn journal_records_are_recovered_and_compacted_into_the_checkpoint() {
        let journal = scratch("recover.journal");
        let path = scratch("recover.ckpt");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&path);

        // First run journals 3 chips with no checkpoint — as if the
        // process died before any periodic save.
        let mut half = tiny_config();
        half.num_chips = 3;
        FleetRunner::new(half, 2)
            .with_journal(journal.clone())
            .run()
            .unwrap();
        assert!(!path.exists());

        // Resume with both: the journal is replayed, merged, and
        // compacted into the checkpoint; only the rest is simulated.
        let resumed = FleetRunner::new(tiny_config(), 2)
            .with_checkpoint(path.clone())
            .with_journal(journal.clone())
            .run()
            .unwrap();
        assert_eq!(resumed.resumed, 3);
        assert_eq!(resumed.simulated, 3);
        let fresh = FleetRunner::new(tiny_config(), 2).run().unwrap();
        assert_eq!(resumed.summaries, fresh.summaries);

        // Compaction truncated the journal; the checkpoint now carries
        // everything.
        let replay = replay_journal(&journal, tiny_config().fingerprint()).unwrap();
        assert!(replay.summaries.is_empty());
        let saved = checkpoint::load(&path, tiny_config().fingerprint()).unwrap();
        assert_eq!(saved.len(), 6);
    }

    #[test]
    fn injected_checkpoint_io_errors_are_retried_transparently() {
        let path = scratch("ioerr.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut config = tiny_config();
        // Two transient failures: the final save's third attempt lands.
        config.faults = FaultPlan::new().checkpoint_io_error(2);
        let result = FleetRunner::new(config.clone(), 2)
            .with_checkpoint(path.clone())
            .run()
            .unwrap();
        assert!(
            result.degradation.checkpoint_failures.is_empty(),
            "retries must absorb transient save errors: {:?}",
            result.degradation.checkpoint_failures
        );
        let saved = checkpoint::load(&path, config.fingerprint()).unwrap();
        assert_eq!(saved.len(), 6);
    }

    #[test]
    fn exhausted_checkpoint_io_errors_land_in_the_degradation_report() {
        let path = scratch("ioerr-exhausted.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut config = tiny_config();
        // Three failures exhaust one save's whole retry budget.
        config.faults = FaultPlan::new().checkpoint_io_error(3);
        let result = FleetRunner::new(config, 2)
            .with_checkpoint(path.clone())
            .run()
            .unwrap();
        assert_eq!(result.summaries.len(), 6, "results survive save failures");
        assert_eq!(result.degradation.checkpoint_failures.len(), 1);
        assert!(result.degradation.checkpoint_failures[0].contains("injected"));
    }

    #[test]
    fn guard_trace_is_identical_for_any_worker_count() {
        let mut config = tiny_config();
        config.faults = FaultPlan::new().worker_hang(ChipId(1), 1);
        let run = |workers| {
            let mut progress = vs_telemetry::SilentProgress;
            let (_, trace) = FleetRunner::new(config.clone(), workers)
                .with_deadline(Duration::from_secs(1))
                .run_reporting(EventFilter::all(), &mut progress)
                .unwrap();
            trace.to_jsonl()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four, "guard events must not depend on scheduling");
        assert!(one.contains("watchdog_fired"));
    }

    #[test]
    fn sentinel_on_a_clean_fleet_finds_nothing_and_leaves_the_trace_alone() {
        let run = |sentinel: bool, workers: usize| {
            let mut progress = vs_telemetry::SilentProgress;
            let mut runner = FleetRunner::new(tiny_config(), workers);
            if sentinel {
                runner = runner.with_sentinel(tiny_config().sentinel_config());
            }
            let (result, trace) = runner
                .run_reporting(EventFilter::of(&[EventCategory::Ecc]), &mut progress)
                .unwrap();
            (result, trace.to_jsonl())
        };
        let (plain, plain_trace) = run(false, 2);
        let (armed, armed_trace) = run(true, 2);
        assert!(armed.violations.is_empty());
        assert_eq!(plain.summaries, armed.summaries);
        assert_eq!(
            plain_trace, armed_trace,
            "the sentinel's widened recording filter must not leak into the trace"
        );
        let (armed_four, _) = run(true, 4);
        assert_eq!(armed.violations, armed_four.violations);
    }

    #[test]
    fn sentinel_stays_clean_under_injected_chip_faults() {
        use vs_types::{CoreId, DomainId, SimTime};
        let mut config = tiny_config();
        config.faults = FaultPlan::new()
            .due_at(SimTime::from_millis(40), DomainId(0))
            .crash_at(SimTime::from_millis(90), CoreId(1))
            .droop_at(
                SimTime::from_millis(150),
                DomainId(0),
                vs_types::Millivolts(60),
                SimTime::from_millis(30),
            );
        let result = FleetRunner::new(config.clone(), 2)
            .with_sentinel(config.sentinel_config())
            .run()
            .unwrap();
        assert_eq!(result.summaries.len(), 6);
        assert!(
            result.violations.is_empty(),
            "recovery from injected faults must satisfy every invariant: {:?}",
            result.violations
        );
    }

    #[test]
    fn journal_checkpoint_divergence_is_a_consistency_violation() {
        use vs_sentinel::Invariant;
        // Builds a checkpoint+journal pair that disagree about chip 1:
        // the journal holds what the fleet really produced, the
        // checkpoint a record tampered after the fact.
        let plant = |tag: &str| {
            let journal = scratch(&format!("diverge-{tag}.journal"));
            let path = scratch(&format!("diverge-{tag}.ckpt"));
            let _ = std::fs::remove_file(&journal);
            let _ = std::fs::remove_file(&path);
            let mut half = tiny_config();
            half.num_chips = 3;
            FleetRunner::new(half, 2)
                .with_journal(journal.clone())
                .run()
                .unwrap();
            let fresh = FleetRunner::new(tiny_config(), 2).run().unwrap();
            let mut tampered: Vec<ChipSummary> = fresh.summaries[..3].to_vec();
            tampered[1].correctable += 1;
            checkpoint::save(&path, tiny_config().fingerprint(), &tampered).unwrap();
            (path, journal)
        };

        let (path, journal) = plant("record");
        let result = FleetRunner::new(tiny_config(), 2)
            .with_checkpoint(path)
            .with_journal(journal)
            .with_sentinel(tiny_config().sentinel_config())
            .run()
            .unwrap();
        assert_eq!(result.violations.len(), 1, "{:?}", result.violations);
        assert_eq!(
            result.violations[0].invariant,
            Invariant::CheckpointConsistency
        );
        assert_eq!(result.violations[0].chip, Some(ChipId(1)));

        // Fail-fast mode aborts before simulating anything.
        let (path, journal) = plant("failfast");
        let err = FleetRunner::new(tiny_config(), 2)
            .with_checkpoint(path)
            .with_journal(journal)
            .with_sentinel(vs_sentinel::SentinelConfig {
                mode: SentinelMode::FailFast,
                ..tiny_config().sentinel_config()
            })
            .run();
        match err {
            Err(FleetError::InvariantViolation { violation }) => {
                assert_eq!(violation.invariant, Invariant::CheckpointConsistency);
            }
            other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }

    #[test]
    fn retried_then_quarantined_chip_is_reported_once_and_excluded_from_stats() {
        // Chip 2's job hangs once (watchdog cancels it, the retry
        // recovers the worker), then panics on every later attempt until
        // the retry budget runs out and the chip is quarantined.
        let mut config = tiny_config();
        config.faults = FaultPlan::new()
            .worker_hang(ChipId(2), 1)
            .worker_panic(ChipId(2), u32::MAX);
        let result = FleetRunner::new(config.clone(), 2)
            .with_max_retries(1)
            .with_deadline(Duration::from_secs(1))
            .run()
            .unwrap();
        // Exactly one quarantine entry, and no double-count in `retried`
        // (that list is only for chips that eventually succeeded).
        assert_eq!(result.degradation.quarantined, vec![ChipId(2)]);
        assert!(result.degradation.retried.is_empty());
        assert_eq!(result.degradation.watchdog_fired, vec![(ChipId(2), 1)]);
        assert_eq!(result.summaries.len(), 5);
        assert!(result.summaries.iter().all(|s| s.chip != ChipId(2)));
        let stats = result.stats(&config);
        assert_eq!(
            stats.num_chips, 5,
            "a quarantined chip must not dilute population statistics"
        );
    }

    #[test]
    fn try_new_rejects_invalid_configs_without_panicking() {
        let bad = FleetConfig {
            num_chips: 0,
            ..tiny_config()
        };
        let err = FleetRunner::try_new(bad, 2).unwrap_err();
        assert_eq!(err.field(), "num_chips");
        assert!(FleetRunner::try_new(tiny_config(), 2).is_ok());
    }

    #[test]
    fn checkpoint_save_failure_lands_in_the_degradation_report() {
        // A checkpoint path whose parent is a regular file cannot be
        // loaded (it does not exist, so no load is attempted) and every
        // save fails when creating the temp file.
        let parent = scratch("not-a-dir");
        let _ = std::fs::remove_dir_all(&parent);
        std::fs::write(&parent, b"file, not dir").unwrap();
        let result = FleetRunner::new(tiny_config(), 2)
            .with_checkpoint(parent.join("save.ckpt"))
            .with_checkpoint_every(2)
            .run()
            .unwrap();
        assert_eq!(result.summaries.len(), 6, "results survive save failures");
        assert!(
            !result.degradation.checkpoint_failures.is_empty(),
            "failed saves must be reported"
        );
    }
}

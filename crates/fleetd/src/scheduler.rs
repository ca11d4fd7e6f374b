//! Job scheduling: a bounded queue, a fixed worker pool, and per-job
//! event streams.
//!
//! Admission control is the queue depth cap: a `Submit` that arrives
//! with the queue full is rejected with a typed [`Response::Busy`] —
//! the daemon never buffers unbounded work. Admitted jobs carry a
//! [`CancelToken`] that is a *child* of the scheduler's root token, so
//! one `cancel()` at shutdown cooperatively stops every running job;
//! individual jobs cancel without disturbing their siblings. Each
//! running job is a [`FleetRunner`] pointed at the daemon's persistent
//! [`FleetStore`](crate::FleetStore) paths, so progress is durable
//! (journal per chip, checkpoint on completion) and a resubmitted
//! configuration resumes instead of recomputing.
//!
//! Every job buffers its full event stream — per-chip [`Response::Chip`]
//! frames, then exactly one terminal frame — under a mutex + condvar.
//! A `Watch` replays the buffer from the start and then follows live,
//! so watchers can attach before, during, or after the run and see the
//! same stream. Only the newest [`RETAINED_TERMINAL_JOBS`] finished jobs
//! keep their streams; older ones are forgotten on the next admission.

use crate::protocol::{DaemonStats, Response, SweepSpec};
use crate::store::FleetStore;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};
use vs_faults::FaultSpec;
use vs_fleet::{FleetConfig, FleetRunner};
use vs_guard::vfs::VfsHandle;
use vs_guard::CancelToken;
use vs_obs::{names, render_prometheus};
use vs_telemetry::{MetricsRegistry, TelemetryEvent};
use vs_types::{FleetSeed, SimTime};

/// How many finished jobs the scheduler remembers. Each keeps its whole
/// event stream (about 1.4 KB for a 4-chip sweep) for `watch` replay and
/// idempotent resubmission; each admission evicts the oldest finished
/// jobs beyond this many, so a long-lived daemon's memory stays bounded.
/// An evicted job is an unknown id to `watch` and `cancel`, and its
/// idempotency key is released — a keyed resubmission then runs afresh
/// and resumes its chips from the store.
pub(crate) const RETAINED_TERMINAL_JOBS: usize = 128;

/// Scheduler tunables, set once at daemon startup.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker pool size — jobs running concurrently.
    pub workers: usize,
    /// Admission cap: jobs that may wait in the queue.
    pub queue_cap: usize,
    /// Fleet worker threads *inside* each job.
    pub job_workers: usize,
    /// Cooperative per-job deadline; a job past it is cancelled, its
    /// durable progress kept.
    pub deadline: Option<Duration>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            workers: 2,
            queue_cap: 4,
            job_workers: 2,
            deadline: None,
        }
    }
}

/// Queue state a shed submission reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyInfo {
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs waiting (at the cap).
    pub queued: u64,
    /// The cap that was hit.
    pub cap: u64,
    /// `Retry-After`-style hint: a deterministic function of queue
    /// state, so a well-behaved client backs off instead of hammering.
    pub retry_after_ms: u64,
    /// The shed was due to ENOSPC drain mode, not queue depth: the
    /// daemon is finishing running jobs but parking new admissions
    /// until the store is writable again.
    pub parked: bool,
}

/// An accepted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// The job id, for `Watch`/`Cancel`.
    pub job: u64,
    /// The spec's idempotency key matched a job already admitted:
    /// `job` is that existing job and no new sweep was started.
    pub deduped: bool,
}

#[derive(Debug)]
struct JobState {
    events: Vec<Response>,
    terminal: bool,
}

#[derive(Debug)]
struct Job {
    id: u64,
    spec: SweepSpec,
    cancel: CancelToken,
    state: Mutex<JobState>,
    wake: Condvar,
}

impl Job {
    fn push(&self, event: Response, terminal: bool) {
        let mut state = lock(&self.state);
        if state.terminal {
            return; // exactly one terminal event, nothing after it
        }
        state.events.push(event);
        state.terminal = terminal;
        self.wake.notify_all();
    }
}

/// One chunk of a job's event stream, as seen by a watcher.
#[derive(Debug, Clone)]
pub struct WatchChunk {
    /// Events from the watcher's cursor onward (possibly empty if the
    /// poll timed out).
    pub events: Vec<Response>,
    /// The stream has ended; the last event in the full stream is the
    /// terminal one.
    pub terminal: bool,
}

#[derive(Debug)]
struct SchedInner {
    config: SchedulerConfig,
    store: FleetStore,
    shutdown: CancelToken,
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    running: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    /// Idempotency keys → job ids. A resubmission carrying a known key
    /// maps back to its existing job, so client retries after a torn
    /// frame or dropped response never start a duplicate sweep.
    keys: Mutex<BTreeMap<String, u64>>,
    deduped: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_parked: AtomicU64,
    /// ENOSPC drain mode: a job failed with "no space left", so new
    /// admissions park until a probe write to the store succeeds again.
    /// Running jobs keep going — the graceful-degradation half of the
    /// torture contract.
    parked: AtomicBool,
    // Observability plane. `submitted` counts admissions only, so at any
    // quiescent point submitted == running + queued + completed +
    // cancelled + failed — the gauge-consistency invariant the metrics
    // snapshot inherits from run_job's settle-before-terminal ordering.
    submitted: AtomicU64,
    chips_completed: AtomicU64,
    rollbacks: AtomicU64,
    violations: AtomicU64,
    postmortems: AtomicU64,
    /// Cumulative nanoseconds each worker spent inside a job.
    busy_ns: Vec<AtomicU64>,
    started: Instant,
}

/// The daemon's job scheduler: admission, dispatch, event streams.
#[derive(Debug)]
pub struct Scheduler {
    inner: Arc<SchedInner>,
    workers: Vec<thread::JoinHandle<()>>,
}

/// Builds the [`FleetConfig`] a spec describes. The mapping is the
/// protocol's contract: equal specs hit the same store fingerprint.
pub fn config_for(spec: &SweepSpec) -> FleetConfig {
    let mut config = if spec.quick {
        FleetConfig::small(FleetSeed(spec.seed), spec.chips)
    } else {
        FleetConfig::new(FleetSeed(spec.seed), spec.chips)
    };
    config.variant = spec.variant;
    if spec.run_ms > 0 {
        config.run_duration = SimTime::from_millis(spec.run_ms);
    }
    // The fault plan is part of the config fingerprint, so an injected
    // sweep reads and writes a different store slot than a clean one.
    // `submit` validates the directive string before admission; an
    // unparseable spec here (reachable only by calling `config_for`
    // directly) injects nothing rather than panicking.
    if !spec.inject.is_empty() {
        if let Ok(faults) = FaultSpec::parse(&spec.inject) {
            config.faults = faults.materialize(spec.chips);
        }
    }
    config
}

impl Scheduler {
    /// Starts the worker pool over `store`.
    pub fn start(config: SchedulerConfig, store: FleetStore) -> Scheduler {
        let inner = Arc::new(SchedInner {
            config: config.clone(),
            store,
            shutdown: CancelToken::new(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            running: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            keys: Mutex::new(BTreeMap::new()),
            deduped: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_parked: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            chips_completed: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            postmortems: AtomicU64::new(0),
            busy_ns: (0..config.workers.max(1))
                .map(|_| AtomicU64::new(0))
                .collect(),
            started: Instant::now(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("fleetd-worker-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler { inner, workers }
    }

    /// Admits a job or sheds it with the queue state. An invalid spec
    /// is an `Err(String)` before admission is even considered.
    ///
    /// A spec carrying a non-empty idempotency `key` that matches an
    /// earlier admission returns that job's id with `deduped` set —
    /// `Watch` then replays the existing stream from the start, so a
    /// client that lost a `submitted` response to a torn frame retries
    /// safely without starting a duplicate sweep.
    pub fn submit(&self, spec: SweepSpec) -> Result<Result<Submission, BusyInfo>, String> {
        if spec.chips == 0 {
            return Err("a sweep needs at least one chip".into());
        }
        if !spec.inject.is_empty() {
            FaultSpec::parse(&spec.inject).map_err(|e| format!("bad inject spec: {e}"))?;
        }
        let config = config_for(&spec);
        config.validate().map_err(|e| e.to_string())?;
        if !spec.key.is_empty() {
            if let Some(&job) = lock(&self.inner.keys).get(&spec.key) {
                self.inner.deduped.fetch_add(1, Ordering::Relaxed);
                return Ok(Ok(Submission { job, deduped: true }));
            }
        }
        if self.inner.parked.load(Ordering::Relaxed) {
            if store_writable(&self.inner.store) {
                self.inner.parked.store(false, Ordering::Relaxed);
            } else {
                self.inner.shed_parked.fetch_add(1, Ordering::Relaxed);
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Ok(Err(self.busy_info(true)));
            }
        }
        let mut queue = lock(&self.inner.queue);
        if queue.len() >= self.inner.config.queue_cap {
            self.inner.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            let running = self.inner.running.load(Ordering::Relaxed);
            let queued = queue.len() as u64;
            return Ok(Err(BusyInfo {
                running,
                queued,
                cap: self.inner.config.queue_cap as u64,
                retry_after_ms: retry_after_hint(running, queued),
                parked: false,
            }));
        }
        self.evict_terminal_jobs();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        if !spec.key.is_empty() {
            lock(&self.inner.keys).insert(spec.key.clone(), id);
        }
        let job = Arc::new(Job {
            id,
            spec,
            cancel: self.inner.shutdown.child(),
            state: Mutex::new(JobState {
                events: Vec::new(),
                terminal: false,
            }),
            wake: Condvar::new(),
        });
        lock(&self.inner.jobs).insert(id, Arc::clone(&job));
        queue.push_back(job);
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        self.inner.available.notify_one();
        Ok(Ok(Submission {
            job: id,
            deduped: false,
        }))
    }

    /// Forgets the oldest finished jobs beyond [`RETAINED_TERMINAL_JOBS`],
    /// releasing each one's idempotency key unless the key has since been
    /// bound to a newer job.
    fn evict_terminal_jobs(&self) {
        let mut jobs = lock(&self.inner.jobs);
        if jobs.len() <= RETAINED_TERMINAL_JOBS {
            return;
        }
        let finished: Vec<u64> = jobs
            .iter()
            .filter(|(_, job)| lock(&job.state).terminal)
            .map(|(&id, _)| id)
            .collect();
        let excess = finished.len().saturating_sub(RETAINED_TERMINAL_JOBS);
        let mut keys = lock(&self.inner.keys);
        for id in &finished[..excess] {
            let Some(job) = jobs.remove(id) else { continue };
            if keys.get(&job.spec.key) == Some(id) {
                keys.remove(&job.spec.key);
            }
        }
    }

    /// Queue state for a shed, with a deterministic backoff hint scaled
    /// to the load. Must not be called with the queue lock held.
    fn busy_info(&self, parked: bool) -> BusyInfo {
        let running = self.inner.running.load(Ordering::Relaxed);
        let queued = lock(&self.inner.queue).len() as u64;
        BusyInfo {
            running,
            queued,
            cap: self.inner.config.queue_cap as u64,
            retry_after_ms: retry_after_hint(running, queued),
            parked,
        }
    }

    /// Cooperatively cancels a job. `false` if the id is unknown.
    pub fn cancel(&self, job: u64) -> bool {
        let Some(job) = lock(&self.inner.jobs).get(&job).cloned() else {
            return false;
        };
        job.cancel.cancel();
        true
    }

    /// Polls a job's event stream from `cursor`, blocking up to
    /// `timeout` for news. `None` if the id is unknown.
    pub fn watch(&self, job: u64, cursor: usize, timeout: Duration) -> Option<WatchChunk> {
        let job = lock(&self.inner.jobs).get(&job).cloned()?;
        let mut state = lock(&job.state);
        if state.events.len() <= cursor && !state.terminal {
            let (s, _) = job
                .wake
                .wait_timeout(state, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            state = s;
        }
        Some(WatchChunk {
            events: state.events.get(cursor..).unwrap_or(&[]).to_vec(),
            terminal: state.terminal,
        })
    }

    /// A stats snapshot. Counting stored chips streams over the store's
    /// checkpoints.
    pub fn stats(&self) -> DaemonStats {
        DaemonStats {
            running: self.inner.running.load(Ordering::Relaxed),
            queued: lock(&self.inner.queue).len() as u64,
            completed: self.inner.completed.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            stored_chips: self.inner.store.stored_chips(),
            workers: self.inner.config.workers.max(1) as u64,
            queue_cap: self.inner.config.queue_cap as u64,
        }
    }

    /// Renders a Prometheus-text metrics snapshot of the whole daemon.
    ///
    /// Job counters and the running/queued gauges read the *same*
    /// atomics as [`stats`](Scheduler::stats), so the snapshot inherits
    /// `run_job`'s settle-before-terminal discipline: once a watcher has
    /// seen a job's terminal event, a scrape accounts for that job in
    /// exactly one bucket, and
    /// `running + queued + completed + cancelled + failed == submitted`
    /// holds at every quiescent point.
    pub fn metrics(&self) -> String {
        let inner = &self.inner;
        let fs_faults = inner.store.vfs().faults().counters();
        let store_counters = inner.store.counters();
        let mut reg = MetricsRegistry::new();
        let counters = [
            (
                names::JOBS_SUBMITTED,
                inner.submitted.load(Ordering::Relaxed),
            ),
            (
                names::JOBS_COMPLETED,
                inner.completed.load(Ordering::Relaxed),
            ),
            (
                names::JOBS_CANCELLED,
                inner.cancelled.load(Ordering::Relaxed),
            ),
            (names::JOBS_FAILED, inner.failed.load(Ordering::Relaxed)),
            (names::JOBS_REJECTED, inner.rejected.load(Ordering::Relaxed)),
            (names::JOBS_DEDUPED, inner.deduped.load(Ordering::Relaxed)),
            (
                names::SHED_QUEUE_FULL,
                inner.shed_queue_full.load(Ordering::Relaxed),
            ),
            (
                names::SHED_PARKED,
                inner.shed_parked.load(Ordering::Relaxed),
            ),
            (
                names::STORE_SCRUB_RUNS,
                store_counters.scrub_runs.load(Ordering::Relaxed),
            ),
            (
                names::STORE_SCRUB_ISSUES,
                store_counters.scrub_issues.load(Ordering::Relaxed),
            ),
            (
                names::STORE_SCRUB_REPAIRS,
                store_counters.scrub_repairs.load(Ordering::Relaxed),
            ),
            (
                names::STORE_QUARANTINED_SWEEPS,
                store_counters.quarantined_sweeps.load(Ordering::Relaxed),
            ),
            (names::FS_ENOSPC_INJECTED, fs_faults.enospc),
            (names::FS_SHORT_WRITES_INJECTED, fs_faults.short_writes),
            (names::FS_FSYNC_FAILURES_INJECTED, fs_faults.fsync_failures),
            (
                names::CHIPS_COMPLETED,
                inner.chips_completed.load(Ordering::Relaxed),
            ),
            (names::ROLLBACKS, inner.rollbacks.load(Ordering::Relaxed)),
            (names::VIOLATIONS, inner.violations.load(Ordering::Relaxed)),
            (
                names::POSTMORTEMS,
                inner.postmortems.load(Ordering::Relaxed),
            ),
        ];
        for (name, v) in counters {
            let id = reg.counter(name);
            reg.inc(id, v);
        }
        let running = reg.gauge(names::JOBS_RUNNING);
        reg.set(running, inner.running.load(Ordering::Relaxed) as f64);
        let queued = reg.gauge(names::JOBS_QUEUED);
        reg.set(queued, lock(&inner.queue).len() as f64);
        let parked = reg.gauge(names::STORE_PARKED);
        reg.set(
            parked,
            if inner.parked.load(Ordering::Relaxed) {
                1.0
            } else {
                0.0
            },
        );
        let uptime = reg.gauge(names::UPTIME_SECONDS);
        reg.set(uptime, inner.started.elapsed().as_secs_f64());
        for (i, busy) in inner.busy_ns.iter().enumerate() {
            let id = reg.gauge(&names::worker_busy(i));
            reg.set(id, busy.load(Ordering::Relaxed) as f64 / 1e9);
        }
        render_prometheus(&reg, names::PROM_PREFIX)
    }

    /// The root token; server transports watch it to stop accepting.
    pub(crate) fn shutdown_token(&self) -> CancelToken {
        self.inner.shutdown.child()
    }

    /// Begins shutdown: stops admission, cooperatively cancels every
    /// queued and running job.
    pub fn shutdown(&self) {
        self.inner.shutdown.cancel();
        self.inner.available.notify_all();
    }

    /// Waits for the workers to drain. Call after
    /// [`shutdown`](Scheduler::shutdown).
    pub fn join(mut self) {
        self.inner.shutdown.cancel();
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Locks a mutex, shrugging off poison: a worker that panicked while
/// holding a scheduler lock must not take the whole daemon's request
/// plane down with it. Every value these locks guard stays coherent
/// under panic (queues and maps are only mutated through small,
/// non-panicking critical sections), so continuing with the inner value
/// is safe — and strictly better than every later request panicking on
/// `unwrap`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic `Retry-After` hint in milliseconds: load-proportional
/// so retrying clients spread out, capped so nobody waits forever.
fn retry_after_hint(running: u64, queued: u64) -> u64 {
    ((running + queued + 1) * 100).min(2_000)
}

/// Probes whether the store directory accepts writes again with a real
/// durable write through the store backend, so a torture schedule with
/// remaining ENOSPC budget keeps the daemon parked deterministically.
fn store_writable(store: &FleetStore) -> bool {
    let vfs = store.vfs();
    let probe = store.dir().join(".admission-probe");
    let ok = vs_guard::durable::atomic_write(&**vfs, &probe, |w| w.write_all(b"ok"));
    let _ = vfs.remove_file(&probe);
    ok.is_ok()
}

fn worker_loop(inner: &SchedInner, worker: usize) {
    loop {
        let job = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if inner.shutdown.is_cancelled() {
                    return;
                }
                let (q, _) = inner
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
            }
        };
        if job.cancel.is_cancelled() {
            // Cancelled while queued (or the daemon is draining): one
            // terminal event, no work.
            inner.cancelled.fetch_add(1, Ordering::Relaxed);
            job.push(
                Response::Cancelled {
                    job: job.id,
                    chips: 0,
                },
                true,
            );
            continue;
        }
        let busy = Instant::now();
        run_job(inner, &job);
        inner.busy_ns[worker].fetch_add(busy.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Runs one job and pushes its terminal event. Every counter — the
/// outcome tally *and* the `running` gauge — is settled before the
/// terminal push: a watcher that has seen `done`/`cancelled`/`failed`
/// must never read a stats snapshot that still shows the job running.
fn run_job(inner: &SchedInner, job: &Job) {
    inner.running.fetch_add(1, Ordering::Relaxed);
    let terminal = job_terminal(inner, job);
    let tally = match &terminal {
        Response::Done { .. } => &inner.completed,
        Response::Cancelled { .. } => &inner.cancelled,
        _ => &inner.failed,
    };
    if let Response::Failed { error, .. } = &terminal {
        // ENOSPC drain mode: the store stopped accepting writes, so
        // park new admissions (submit un-parks once a probe write
        // succeeds) while running jobs finish on their own terms.
        if error.to_ascii_lowercase().contains("no space left") {
            inner.parked.store(true, Ordering::Relaxed);
        }
        // A failed job releases its idempotency key: the key protects
        // against *duplicate* work, not against retrying work that
        // never finished — a resubmission starts fresh (and resumes
        // whatever the failed run made durable).
        if !job.spec.key.is_empty() {
            lock(&inner.keys).remove(&job.spec.key);
        }
    }
    tally.fetch_add(1, Ordering::Relaxed);
    inner.running.fetch_sub(1, Ordering::Relaxed);
    job.push(terminal, true);
}

/// The body of a job: simulate (streaming per-chip events) and decide
/// the terminal response. Counters are the caller's business.
fn job_terminal(inner: &SchedInner, job: &Job) -> Response {
    let config = config_for(&job.spec);
    let runner = match FleetRunner::try_new(config.clone(), inner.config.job_workers.max(1)) {
        Ok(r) => r,
        Err(e) => {
            return Response::Failed {
                job: job.id,
                error: e.to_string(),
            };
        }
    };
    let mut runner = runner
        .with_vfs(VfsHandle::clone(inner.store.vfs()))
        .with_checkpoint(inner.store.checkpoint_path(&config))
        .with_journal(inner.store.journal_path(&config))
        .with_cancel(job.cancel.child())
        // Span tracing rooted at the job id and a flight recorder under
        // the store: both byte-neutral for the trace a client watches,
        // both always on — a postmortem is most valuable for the job
        // nobody thought to instrument.
        .with_spans(job.id)
        .with_flight_recorder(inner.store.dir().join("postmortem"));
    // The effective deadline is the tighter of the daemon's configured
    // one and the deadline the client propagated with the spec.
    let mut deadline = inner.config.deadline;
    if job.spec.deadline_ms > 0 {
        let client = Duration::from_millis(job.spec.deadline_ms);
        deadline = Some(deadline.map_or(client, |d| d.min(client)));
    }
    if let Some(deadline) = deadline {
        runner = runner.with_deadline(deadline);
    }
    if job.spec.sentinel {
        runner = runner.with_sentinel(config.sentinel_config());
    }
    let total = job.spec.chips;
    let mut streamed = 0u64;
    let result = runner.run_streaming(|summary| {
        streamed += 1;
        inner.chips_completed.fetch_add(1, Ordering::Relaxed);
        inner
            .rollbacks
            .fetch_add(summary.dues + summary.rollbacks, Ordering::Relaxed);
        let mut event = String::new();
        TelemetryEvent::JobFinished {
            chip: summary.chip,
            sim_time: config.run_duration,
            correctable: summary.correctable,
            emergencies: summary.emergencies,
            crashes: summary.crashes,
        }
        .write_json(&mut event);
        job.push(
            Response::Chip {
                job: job.id,
                chip: summary.chip.0,
                completed: streamed,
                total,
                event,
            },
            false,
        );
    });
    if let Ok(res) = &result {
        inner
            .violations
            .fetch_add(res.violations.len() as u64, Ordering::Relaxed);
        inner
            .postmortems
            .fetch_add(res.postmortems.len() as u64, Ordering::Relaxed);
    }
    match result {
        Ok(res) if res.degradation.interrupted || job.cancel.is_cancelled() => {
            Response::Cancelled {
                job: job.id,
                chips: res.summaries.len() as u64,
            }
        }
        Ok(res) => {
            let mean = if res.summaries.is_empty() {
                0.0
            } else {
                res.stats(&config).mean_vdd_reduction()
            };
            Response::Done {
                job: job.id,
                chips: res.summaries.len() as u64,
                resumed: res.resumed,
                mean_vdd_reduction: mean,
                violations: res.violations.len() as u64,
            }
        }
        Err(e) => Response::Failed {
            job: job.id,
            error: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use vs_fleet::ControllerVariant;
    use vs_guard::fsfault::FsFaultPlan;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("vs-fleetd-sched-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(chips: u64) -> SweepSpec {
        SweepSpec {
            seed: 7,
            chips,
            variant: ControllerVariant::Hardware,
            quick: true,
            run_ms: 0,
            sentinel: false,
            inject: String::new(),
            key: String::new(),
            deadline_ms: 0,
        }
    }

    fn drain(sched: &Scheduler, job: u64) -> Vec<Response> {
        let mut events = Vec::new();
        let mut cursor = 0;
        loop {
            let chunk = sched
                .watch(job, cursor, Duration::from_millis(200))
                .expect("job known");
            cursor += chunk.events.len();
            events.extend(chunk.events);
            if chunk.terminal && cursor == events.len() {
                if let Some(last) = events.last() {
                    if matches!(
                        last,
                        Response::Done { .. }
                            | Response::Cancelled { .. }
                            | Response::Failed { .. }
                    ) {
                        return events;
                    }
                }
            }
        }
    }

    #[test]
    fn job_streams_chips_then_done() {
        let store = FleetStore::open(&scratch("stream")).unwrap();
        let sched = Scheduler::start(SchedulerConfig::default(), store);
        let sub = sched.submit(spec(3)).unwrap().unwrap();
        assert!(!sub.deduped);
        let events = drain(&sched, sub.job);
        let chips = events
            .iter()
            .filter(|e| matches!(e, Response::Chip { .. }))
            .count();
        assert_eq!(chips, 3);
        match events.last().unwrap() {
            Response::Done { chips, resumed, .. } => {
                assert_eq!(*chips, 3);
                assert_eq!(*resumed, 0);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn resubmitted_config_resumes_from_the_store() {
        let store = FleetStore::open(&scratch("resume")).unwrap();
        let sched = Scheduler::start(SchedulerConfig::default(), store.clone());
        let first = sched.submit(spec(3)).unwrap().unwrap();
        drain(&sched, first.job);
        let second = sched.submit(spec(3)).unwrap().unwrap();
        assert!(!second.deduped, "distinct keys (empty) never dedup");
        let events = drain(&sched, second.job);
        match events.last().unwrap() {
            Response::Done { chips, resumed, .. } => {
                assert_eq!(*chips, 3);
                assert_eq!(*resumed, 3, "every chip restored, none recomputed");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn admission_control_rejects_past_the_cap() {
        let store = FleetStore::open(&scratch("busy")).unwrap();
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                queue_cap: 1,
                job_workers: 1,
                deadline: None,
            },
            store,
        );
        // Saturate: several long jobs; with one worker and one queue
        // slot, some submission must be rejected.
        let mut admitted = Vec::new();
        let mut busy = None;
        for _ in 0..8 {
            match sched.submit(spec(32)).unwrap() {
                Ok(sub) => admitted.push(sub.job),
                Err(info) => {
                    busy = Some(info);
                    break;
                }
            }
        }
        let busy = busy.expect("cap must reject");
        assert_eq!(busy.cap, 1);
        assert!(!busy.parked, "queue-depth shed, not ENOSPC drain");
        assert!(
            (100..=2_000).contains(&busy.retry_after_ms),
            "load-scaled hint: {}",
            busy.retry_after_ms
        );
        assert!(sched.stats().rejected >= 1);
        for id in admitted {
            assert!(sched.cancel(id));
        }
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn metrics_snapshot_settles_with_the_terminal_event() {
        let store = FleetStore::open(&scratch("metrics")).unwrap();
        let sched = Scheduler::start(SchedulerConfig::default(), store);
        let id = sched.submit(spec(2)).unwrap().unwrap().job;
        drain(&sched, id);
        let text = sched.metrics();
        let snap = vs_obs::PromSnapshot::parse(&text).unwrap();
        let v = |name: &str| snap.value(name).unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(v("voltspec_fleetd_jobs_submitted"), 1.0);
        assert_eq!(v("voltspec_fleetd_jobs_completed"), 1.0);
        assert_eq!(v("voltspec_fleetd_jobs_running"), 0.0);
        assert_eq!(v("voltspec_fleetd_jobs_queued"), 0.0);
        assert_eq!(v("voltspec_fleet_chips_completed"), 2.0);
        assert!(v("voltspec_fleetd_uptime_seconds") >= 0.0);
        assert!(
            snap.value("voltspec_fleetd_worker0_busy_seconds").is_some(),
            "per-worker busy gauges are exposed"
        );
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn jobs_write_through_the_store_backend() {
        // The store lives on a simulated filesystem at a path that also
        // exists, empty, on the real disk. A job's checkpoint and journal
        // must land in the simulation and nothing on the real disk: the
        // runner writes through the store's backend, not a default one.
        let real = scratch("sim-backend");
        let sim = Arc::new(vs_guard::vfs::SimFs::new());
        let vfs: VfsHandle = Arc::clone(&sim) as VfsHandle;
        let store = FleetStore::open_on(&vfs, &real).unwrap();
        let sched = Scheduler::start(SchedulerConfig::default(), store.clone());
        let sub = sched.submit(spec(2)).unwrap().unwrap();
        let events = drain(&sched, sub.job);
        assert!(
            matches!(events.last().unwrap(), Response::Done { chips: 2, .. }),
            "{events:?}"
        );
        let config = config_for(&spec(2));
        for path in [store.checkpoint_path(&config), store.journal_path(&config)] {
            assert!(vfs.exists(&path), "{} missing in SimFs", path.display());
        }
        let on_disk: Vec<_> = fs::read_dir(&real).unwrap().collect();
        assert!(on_disk.is_empty(), "real disk touched: {on_disk:?}");
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn idempotency_keys_dedup_resubmissions() {
        let store = FleetStore::open(&scratch("dedup")).unwrap();
        let sched = Scheduler::start(SchedulerConfig::default(), store);
        let mut keyed = spec(2);
        keyed.key = "client-1-submit-0".into();
        let first = sched.submit(keyed.clone()).unwrap().unwrap();
        assert!(!first.deduped);
        drain(&sched, first.job);
        // A retry of the same key — even after the job finished — maps
        // back to the same job instead of starting a duplicate sweep.
        let retry = sched.submit(keyed).unwrap().unwrap();
        assert!(retry.deduped);
        assert_eq!(retry.job, first.job);
        // The replayed stream is watchable and ends in the same Done.
        let events = drain(&sched, retry.job);
        assert!(matches!(events.last().unwrap(), Response::Done { .. }));
        let snap = vs_obs::PromSnapshot::parse(&sched.metrics()).unwrap();
        assert_eq!(snap.value("voltspec_fleetd_jobs_deduped"), Some(1.0));
        assert_eq!(snap.value("voltspec_fleetd_jobs_submitted"), Some(1.0));
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn finished_jobs_beyond_the_retention_cap_are_forgotten() {
        let store = FleetStore::open(&scratch("retention")).unwrap();
        let sched = Scheduler::start(SchedulerConfig::default(), store);
        let mut keyed = spec(2);
        keyed.key = "evicted-spec".into();
        let first = sched.submit(keyed.clone()).unwrap().unwrap();
        drain(&sched, first.job);
        // Fillers repeat the first config under new keys, so each one is
        // a cheap resume (every chip comes from the store).
        for i in 0..RETAINED_TERMINAL_JOBS + 3 {
            let mut filler = spec(2);
            filler.key = format!("filler-{i}");
            let job = sched.submit(filler).unwrap().unwrap().job;
            drain(&sched, job);
        }
        // The newest job is a fresh sweep that streams its chips.
        let mut fresh = spec(2);
        fresh.seed = 8;
        let newest = sched.submit(fresh).unwrap().unwrap().job;
        let live = drain(&sched, newest);
        assert_eq!(live.len(), 3, "two chips and the terminal: {live:?}");
        let retained = lock(&sched.inner.jobs).len();
        assert!(
            retained <= RETAINED_TERMINAL_JOBS + 1,
            "{retained} jobs retained"
        );
        assert!(
            sched.watch(first.job, 0, Duration::ZERO).is_none(),
            "the oldest job is an unknown id"
        );
        assert!(!sched.cancel(first.job));
        assert_eq!(
            drain(&sched, newest),
            live,
            "the newest job replays in full"
        );
        // The evicted job's key was released: resubmitting it admits a
        // fresh job, which resumes every chip from the store.
        let again = sched.submit(keyed).unwrap().unwrap();
        assert!(!again.deduped);
        assert_ne!(again.job, first.job);
        match drain(&sched, again.job).last().unwrap() {
            Response::Done { chips, resumed, .. } => {
                assert_eq!((*chips, *resumed), (2, 2));
            }
            other => panic!("expected Done, got {other:?}"),
        }
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn enospc_parks_admissions_until_the_store_recovers() {
        let dir = scratch("park");
        let store = FleetStore::open(&dir).unwrap();
        store.vfs().faults().install(
            &dir,
            FsFaultPlan {
                enospc: 12,
                short_writes: 0,
                fsync_failures: 0,
            },
        );
        let sched = Scheduler::start(SchedulerConfig::default(), store);
        let sub = sched.submit(spec(2)).unwrap().unwrap();
        let events = drain(&sched, sub.job);
        match events.last().unwrap() {
            Response::Failed { error, .. } => {
                assert!(error.contains("no space left"), "{error}");
            }
            other => panic!("expected Failed on injected ENOSPC, got {other:?}"),
        }
        // The failure parked admissions: sheds now carry the parked flag
        // while the remaining fault budget keeps the probe write failing.
        let shed = sched.submit(spec(2)).unwrap().unwrap_err();
        assert!(shed.parked, "ENOSPC drain mode, not queue depth");
        // Each parked submit burns one probe; once the budget is spent
        // the store is writable again and admission resumes.
        let mut resumed = None;
        for _ in 0..16 {
            match sched.submit(spec(2)).unwrap() {
                Ok(sub) => {
                    resumed = Some(sub);
                    break;
                }
                Err(info) => assert!(info.parked),
            }
        }
        let resumed = resumed.expect("admission resumes once the budget drains");
        let events = drain(&sched, resumed.job);
        assert!(matches!(events.last().unwrap(), Response::Done { .. }));
        let snap = vs_obs::PromSnapshot::parse(&sched.metrics()).unwrap();
        assert!(snap.value("voltspec_fleetd_shed_parked").unwrap() >= 1.0);
        assert_eq!(snap.value("voltspec_fleetd_store_parked"), Some(0.0));
        // The store's handle is the only one the plan lives on, and the
        // job's runner writes through it: the whole budget is accounted.
        assert_eq!(snap.value("voltspec_guard_fs_enospc_injected"), Some(12.0));
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn poisoned_locks_do_not_take_down_the_request_plane() {
        // A worker that panics while holding a scheduler lock poisons
        // it; every later request used to panic on `.lock().unwrap()`.
        // The `lock` helper shrugs the poison off and continues with
        // the (still coherent) inner value.
        let mutex = Arc::new(Mutex::new(VecDeque::from([1, 2, 3])));
        let poisoner = Arc::clone(&mutex);
        let _ = thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("die holding the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(lock(&mutex).pop_front(), Some(1));
        assert_eq!(lock(&mutex).len(), 2);
    }

    #[test]
    fn bad_inject_specs_fail_before_admission() {
        let store = FleetStore::open(&scratch("inject")).unwrap();
        let sched = Scheduler::start(SchedulerConfig::default(), store);
        let mut bad = spec(2);
        bad.inject = "gibberish~~directive".into();
        assert!(sched.submit(bad).is_err());
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn invalid_specs_fail_before_admission() {
        let store = FleetStore::open(&scratch("invalid")).unwrap();
        let sched = Scheduler::start(SchedulerConfig::default(), store);
        assert!(sched.submit(spec(0)).is_err());
        assert!(!sched.cancel(42), "unknown job");
        assert!(sched.watch(42, 0, Duration::ZERO).is_none());
        sched.shutdown();
        sched.join();
    }
}

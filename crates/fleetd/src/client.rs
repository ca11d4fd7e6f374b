//! A thin synchronous client for the fleetd socket protocol, used by
//! `repro fleetd` and the end-to-end tests, plus the typed retry loop
//! that makes a client survive the daemon-tier torture layer: transport
//! faults reconnect and resubmit under the spec's idempotency key,
//! `Busy` sheds honor the daemon's `Retry-After` hint, and a deadline
//! bounds the whole exchange and propagates to the daemon with the spec.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, DaemonStats, ProtocolError, Request,
    Response, SweepSpec,
};
use crate::scheduler::Submission;
use std::fmt;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};
use vs_types::rng::CounterRng;

/// The byte stream a [`Client`] talks over.
///
/// Blanket-implemented for anything `Read + Write + Send`, so tests and
/// the torture harness can wrap a socket in a fault-injecting shim
/// ([`FaultyTransport`](crate::torture::FaultyTransport)) without the
/// client code knowing.
pub trait Transport: Read + Write + Send {}

impl<T: Read + Write + Send> Transport for T {}

/// One connection to a running daemon.
pub struct Client {
    stream: Box<dyn Transport>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

/// The terminal outcome of a watched job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job completed.
    Done {
        /// Summaries in the final result.
        chips: u64,
        /// Chips restored from the store.
        resumed: u64,
        /// Mean Vdd reduction across the population.
        mean_vdd_reduction: f64,
        /// Sentinel violations recorded.
        violations: u64,
    },
    /// The job was cancelled.
    Cancelled {
        /// Chips durable at the stop.
        chips: u64,
    },
    /// The job failed.
    Failed {
        /// Why.
        error: String,
    },
}

impl Client {
    /// Connects to the daemon's socket.
    pub fn connect(socket: &Path) -> io::Result<Client> {
        Ok(Client {
            stream: Box::new(UnixStream::connect(socket)?),
        })
    }

    /// Wraps an already-connected byte stream — the seam the torture
    /// harness uses to interpose [`FaultyTransport`] between the client
    /// and a real socket.
    ///
    /// [`FaultyTransport`]: crate::torture::FaultyTransport
    pub fn from_stream(stream: impl Transport + 'static) -> Client {
        Client {
            stream: Box::new(stream),
        }
    }

    /// Sends one request and reads one response.
    pub(crate) fn request(&mut self, req: &Request) -> Result<Response, ProtocolError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ProtocolError> {
        match read_frame(&mut self.stream)? {
            Some(text) => decode_response(&text),
            None => Err(ProtocolError::Truncated),
        }
    }

    /// Submits a sweep: `Ok(Ok(_))` if admitted (or deduped onto an
    /// existing job), `Ok(Err(_))` with the Busy response if admission
    /// control shed it.
    pub fn submit(
        &mut self,
        spec: SweepSpec,
    ) -> Result<Result<Submission, Response>, ProtocolError> {
        match self.request(&Request::Submit(spec))? {
            Response::Submitted { job, deduped } => Ok(Ok(Submission { job, deduped })),
            busy @ Response::Busy { .. } => Ok(Err(busy)),
            Response::Error { msg } => Err(ProtocolError::Json(msg)),
            other => Err(ProtocolError::Json(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Watches a job to its end, invoking `on_event` for every streamed
    /// response (chip frames and the terminal one).
    pub fn watch(
        &mut self,
        job: u64,
        on_event: impl FnMut(&Response),
    ) -> Result<JobOutcome, ProtocolError> {
        let mut seen = 0;
        self.watch_skipping(job, &mut seen, on_event)
    }

    /// Watches a job, suppressing the first `*seen` events — the resume
    /// half of the retry loop. The daemon replays a watched stream from
    /// the start, so a reconnecting watcher skips what it already
    /// delivered and `on_event` fires exactly once per event even across
    /// torn connections. `seen` is updated as events are delivered.
    pub(crate) fn watch_skipping(
        &mut self,
        job: u64,
        seen: &mut u64,
        mut on_event: impl FnMut(&Response),
    ) -> Result<JobOutcome, ProtocolError> {
        write_frame(&mut self.stream, &encode_request(&Request::Watch { job }))?;
        let mut index = 0u64;
        loop {
            let resp = self.read_response()?;
            index += 1;
            if index > *seen {
                *seen = index;
                on_event(&resp);
            }
            match resp {
                Response::Done {
                    chips,
                    resumed,
                    mean_vdd_reduction,
                    violations,
                    ..
                } => {
                    return Ok(JobOutcome::Done {
                        chips,
                        resumed,
                        mean_vdd_reduction,
                        violations,
                    })
                }
                Response::Cancelled { chips, .. } => return Ok(JobOutcome::Cancelled { chips }),
                Response::Failed { error, .. } => return Ok(JobOutcome::Failed { error }),
                Response::Error { msg } => return Err(ProtocolError::Json(msg)),
                _ => {}
            }
        }
    }

    /// Cooperatively cancels a job.
    pub fn cancel(&mut self, job: u64) -> Result<(), ProtocolError> {
        match self.request(&Request::Cancel { job })? {
            Response::Cancelled { .. } => Ok(()),
            Response::Error { msg } => Err(ProtocolError::Json(msg)),
            other => Err(ProtocolError::Json(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetches a stats snapshot.
    pub fn stats(&mut self) -> Result<DaemonStats, ProtocolError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Error { msg } => Err(ProtocolError::Json(msg)),
            other => Err(ProtocolError::Json(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetches a Prometheus-text metrics snapshot.
    pub fn metrics(&mut self) -> Result<String, ProtocolError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            Response::Error { msg } => Err(ProtocolError::Json(msg)),
            other => Err(ProtocolError::Json(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ProtocolError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            Response::Error { msg } => Err(ProtocolError::Json(msg)),
            other => Err(ProtocolError::Json(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
}

/// Tunables of the [`submit_and_watch`] retry loop.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total retryable events (transport faults + busy waits) tolerated
    /// before giving up with [`RetryError::Exhausted`].
    pub max_retries: u32,
    /// First backoff; doubles per retry (capped at `max_backoff`).
    pub base_backoff: Duration,
    /// Backoff ceiling before jitter.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream; same seed, same waits.
    pub jitter_seed: u64,
    /// Wall-clock budget for the whole exchange. Also propagated to the
    /// daemon via `SweepSpec::deadline_ms` (the remaining budget at each
    /// submission), so the server abandons work the client gave up on.
    pub deadline: Option<Duration>,
    /// **Planted recovery bug, for the torture harness only**: forget
    /// the idempotency key and job id on every transport retry, turning
    /// each resubmission into a fresh sweep. Exists so the
    /// duplicate-detection oracle has a real bug to catch and `--chaos`
    /// minimization has one to shrink. Never set this in real clients.
    pub break_idempotency: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0,
            deadline: None,
            break_idempotency: false,
        }
    }
}

/// What [`submit_and_watch`] did to get its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryReport {
    /// The job's terminal outcome.
    pub outcome: JobOutcome,
    /// The job id the stream came from.
    pub job: u64,
    /// Connect→submit→watch attempts made (1 = no fault encountered).
    pub attempts: u32,
    /// Attempts abandoned to a transport fault (torn frame, disconnect,
    /// truncated response).
    pub transport_retries: u32,
    /// `Busy` sheds waited out (honoring the daemon's Retry-After hint).
    pub busy_waits: u32,
    /// Jobs that terminated `Failed` on a transient store fault (ENOSPC,
    /// short write, fsync) and were resubmitted — each one is a fresh,
    /// legitimate admission that resumes the failed job's durable
    /// progress.
    pub store_retries: u32,
    /// Some resubmission was deduped onto an already-admitted job — the
    /// idempotency key did its work.
    pub deduped: bool,
}

/// Why [`submit_and_watch`] gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryError {
    /// The retry budget ran out; `last` is the final fault.
    Exhausted {
        /// Attempts made, including the first.
        attempts: u32,
        /// The fault that exhausted the budget.
        last: String,
    },
    /// The policy deadline elapsed before a terminal event.
    DeadlineExceeded {
        /// Attempts made before the budget ran out.
        attempts: u32,
    },
    /// The daemon rejected the spec with a typed error — retrying would
    /// re-earn the same answer, so the loop doesn't.
    Rejected(String),
}

impl fmt::Display for RetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            RetryError::DeadlineExceeded { attempts } => {
                write!(f, "deadline exceeded after {attempts} attempts")
            }
            RetryError::Rejected(msg) => write!(f, "daemon rejected the spec: {msg}"),
        }
    }
}

impl std::error::Error for RetryError {}

/// One attempt's failure, classified for the retry loop.
enum StepFault {
    /// The connection broke; reconnect and resubmit under the key.
    Transport(String),
    /// Admission control shed us; wait at least this many milliseconds.
    Busy(u64),
    /// The job failed on a transient store fault; resubmit fresh.
    Store(String),
    /// Typed rejection; do not retry.
    Fatal(String),
}

/// A `Failed` terminal caused by the store hiccuping rather than the
/// sweep itself — safe and useful to resubmit (the durable progress
/// resumes). The phrases cover ENOSPC, torn writes, and fsync failures,
/// injected or real.
fn is_transient_store_fault(error: &str) -> bool {
    let lower = error.to_ascii_lowercase();
    ["no space left", "short write", "fsync"]
        .iter()
        .any(|phrase| lower.contains(phrase))
}

fn classify(err: ProtocolError) -> StepFault {
    match err {
        // A well-formed daemon `error` response decodes fine and is
        // surfaced as Json by the Client helpers: the spec is bad, not
        // the wire. Everything else is the wire.
        ProtocolError::Json(msg) => StepFault::Fatal(msg),
        other => StepFault::Transport(other.to_string()),
    }
}

/// Submits `spec` and follows its stream to the terminal event,
/// surviving transport faults and admission sheds.
///
/// `connect` is called for every attempt (the previous connection is
/// assumed poisoned after a fault). Recovery invariants:
///
/// * **No duplicate work**: resubmissions reuse `spec.key`, so a retry
///   whose original `submitted` response was torn off the wire maps back
///   to the job the daemon already admitted. An empty key is filled from
///   `jitter_seed` so the loop is always safe.
/// * **Exactly-once delivery**: the daemon replays watched streams from
///   the start; `on_event` skips what it already delivered.
/// * **Typed giving-up**: budget exhaustion, deadline, and daemon
///   rejection are distinct [`RetryError`]s — the caller can map them to
///   distinct exit codes.
pub fn submit_and_watch(
    mut connect: impl FnMut() -> io::Result<Client>,
    mut spec: SweepSpec,
    policy: &RetryPolicy,
    mut on_event: impl FnMut(&Response),
) -> Result<RetryReport, RetryError> {
    if spec.key.is_empty() {
        spec.key = format!("anon-{:016x}", policy.jitter_seed);
    }
    let started = Instant::now();
    let mut attempts = 0u32;
    let mut transport_retries = 0u32;
    let mut busy_waits = 0u32;
    let mut store_retries = 0u32;
    let mut seen = 0u64;
    let mut job: Option<u64> = None;
    let mut deduped = false;
    loop {
        if let Some(deadline) = policy.deadline {
            let remaining = deadline.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                return Err(RetryError::DeadlineExceeded { attempts });
            }
            spec.deadline_ms = (remaining.as_millis() as u64).max(1);
        }
        attempts += 1;
        let attempt = one_attempt(
            &mut connect,
            &spec,
            &mut job,
            &mut seen,
            &mut deduped,
            &mut on_event,
        );
        let fault = match attempt {
            Ok(JobOutcome::Failed { error }) if is_transient_store_fault(&error) => {
                // The daemon released the key when the job failed, so a
                // resubmission starts a fresh job that resumes whatever
                // the failed one made durable. New job, new stream.
                job = None;
                seen = 0;
                StepFault::Store(error)
            }
            Ok(outcome) => {
                return Ok(RetryReport {
                    outcome,
                    job: job.unwrap_or(0),
                    attempts,
                    transport_retries,
                    busy_waits,
                    store_retries,
                    deduped,
                });
            }
            Err(fault) => fault,
        };
        let (hint_ms, last) = match fault {
            StepFault::Fatal(msg) => return Err(RetryError::Rejected(msg)),
            StepFault::Busy(hint) => {
                busy_waits += 1;
                (hint, format!("busy (retry after {hint} ms)"))
            }
            StepFault::Store(msg) => {
                store_retries += 1;
                (0, msg)
            }
            StepFault::Transport(msg) => {
                transport_retries += 1;
                if policy.break_idempotency {
                    // The planted bug: a client that forgets its key and
                    // job across a fault resubmits as a brand-new sweep.
                    spec.key = format!("{}-retry-{transport_retries}", spec.key);
                    job = None;
                    seen = 0;
                }
                (0, msg)
            }
        };
        let retries = transport_retries + busy_waits + store_retries;
        if retries > policy.max_retries {
            return Err(RetryError::Exhausted { attempts, last });
        }
        let wait = backoff_for(policy, retries, hint_ms);
        if let Some(deadline) = policy.deadline {
            if started.elapsed() + wait >= deadline {
                return Err(RetryError::DeadlineExceeded { attempts });
            }
        }
        std::thread::sleep(wait);
    }
}

/// One connect → (submit if needed) → watch pass.
fn one_attempt(
    connect: &mut impl FnMut() -> io::Result<Client>,
    spec: &SweepSpec,
    job: &mut Option<u64>,
    seen: &mut u64,
    deduped: &mut bool,
    on_event: &mut impl FnMut(&Response),
) -> Result<JobOutcome, StepFault> {
    let mut client = connect().map_err(|e| StepFault::Transport(e.to_string()))?;
    let id = match *job {
        Some(id) => id,
        None => match client.submit(spec.clone()).map_err(classify)? {
            Ok(sub) => {
                *deduped |= sub.deduped;
                *job = Some(sub.job);
                sub.job
            }
            Err(Response::Busy { retry_after_ms, .. }) => {
                return Err(StepFault::Busy(retry_after_ms))
            }
            Err(other) => return Err(StepFault::Fatal(format!("unexpected response {other:?}"))),
        },
    };
    client.watch_skipping(id, seen, on_event).map_err(classify)
}

/// Exponential backoff with deterministic jitter, floored at the
/// daemon's Retry-After hint when one was given.
fn backoff_for(policy: &RetryPolicy, retry: u32, hint_ms: u64) -> Duration {
    let exp = policy
        .base_backoff
        .saturating_mul(1u32 << retry.min(10))
        .min(policy.max_backoff);
    let jitter_ms = CounterRng::from_key(policy.jitter_seed, &[0x0BAC_0FF5, u64::from(retry)])
        .next_below(exp.as_millis().max(2) as u64 / 2);
    (exp + Duration::from_millis(jitter_ms)).max(Duration::from_millis(hint_ms))
}

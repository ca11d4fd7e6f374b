//! The wall-clock watchdog: a supervisor thread that cancels jobs which
//! stop heartbeating past their deadline budget.
//!
//! The watchdog is deliberately *cooperative*: firing cancels the job's
//! [`CancelToken`](crate::CancelToken) — it never kills a thread. A job
//! that polls its token (the fleet worker does so between simulation
//! slices, and injected hangs poll it while they spin) winds down at its
//! next check point; the supervisor marks the handle
//! [`fired`](HeartbeatHandle::fired) so the owner can count the strike,
//! retry the chip, or quarantine it.
//!
//! Wall-clock time decides only *whether* a job is cancelled, never what
//! it computes, so watchdog supervision cannot perturb simulated results.

use crate::cancel::CancelToken;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared state of one supervised job.
#[derive(Debug)]
struct JobState {
    /// Budget between heartbeats, in nanoseconds.
    budget_ns: u64,
    /// Last heartbeat, as nanoseconds since the watchdog's origin.
    last_beat_ns: AtomicU64,
    /// The token the watchdog cancels on expiry.
    token: CancelToken,
    /// Set by the owner when the job completes (stops supervision).
    done: AtomicBool,
    /// Set by the watchdog when it cancelled this job.
    fired: AtomicBool,
}

#[derive(Debug)]
struct Shared {
    origin: Instant,
    jobs: Mutex<Vec<Arc<JobState>>>,
    stop: AtomicBool,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A heartbeat registration: the job side of the watchdog.
///
/// Call [`beat`](HeartbeatHandle::beat) at every natural check point;
/// drop the handle when the job completes. If the gap between beats ever exceeds the budget the
/// handle was registered with, the watchdog cancels
/// [`token`](HeartbeatHandle::token) and [`fired`](HeartbeatHandle::fired)
/// turns true.
#[derive(Debug)]
pub struct HeartbeatHandle {
    state: Arc<JobState>,
    shared: Arc<Shared>,
}

impl HeartbeatHandle {
    /// Records a heartbeat: the job is alive, its budget restarts.
    pub fn beat(&self) {
        self.state
            .last_beat_ns
            .store(self.shared.now_ns(), Ordering::Relaxed);
    }

    /// The token the watchdog cancels when the job's budget expires. A
    /// child of the parent token the job was registered under, so run-wide
    /// cancellation reaches it too.
    pub fn token(&self) -> &CancelToken {
        &self.state.token
    }

    /// True once the watchdog cancelled this job for missing its budget.
    pub fn fired(&self) -> bool {
        self.state.fired.load(Ordering::SeqCst)
    }

    /// Ends supervision (idempotent; dropping the handle does the same).
    pub(crate) fn finish(&self) {
        self.state.done.store(true, Ordering::SeqCst);
    }
}

impl Drop for HeartbeatHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The supervisor: one background thread polling every registered job.
///
/// Dropping the watchdog wakes and stops the thread and leaves all
/// tokens as they are.
#[derive(Debug)]
pub struct Watchdog {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns a watchdog that re-checks every supervised job each `poll`
    /// interval. Budgets shorter than the poll interval are detected up to
    /// one interval late — pick `poll` a small fraction of the smallest
    /// budget.
    pub fn spawn(poll: Duration) -> Watchdog {
        let shared = Arc::new(Shared {
            origin: Instant::now(),
            jobs: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let for_thread = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("vs-guard-watchdog".into())
            .spawn(move || watch(&for_thread, poll))
            .expect("spawning the watchdog thread");
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    /// Registers a job: `budget` is the maximum wall-clock gap between
    /// heartbeats, `parent` the token the job's own token is a child of.
    /// The registration counts as the first heartbeat.
    pub fn register(&self, budget: Duration, parent: &CancelToken) -> HeartbeatHandle {
        let state = Arc::new(JobState {
            budget_ns: u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX),
            last_beat_ns: AtomicU64::new(self.shared.now_ns()),
            token: parent.child(),
            done: AtomicBool::new(false),
            fired: AtomicBool::new(false),
        });
        self.shared
            .jobs
            .lock()
            .expect("watchdog jobs poisoned: a holder panicked")
            .push(Arc::clone(&state));
        HeartbeatHandle {
            state,
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

/// The supervisor loop: cancel expired jobs, prune finished ones.
fn watch(shared: &Shared, poll: Duration) {
    while !shared.stop.load(Ordering::SeqCst) {
        // `Drop` unparks this early; a spurious wake is one extra scan.
        std::thread::park_timeout(poll);
        let now = shared.now_ns();
        let mut jobs = shared
            .jobs
            .lock()
            .expect("watchdog jobs poisoned: a holder panicked");
        jobs.retain(|job| {
            if job.done.load(Ordering::SeqCst) {
                return false;
            }
            if job.fired.load(Ordering::SeqCst) {
                return false;
            }
            let idle = now.saturating_sub(job.last_beat_ns.load(Ordering::Relaxed));
            if idle > job.budget_ns {
                job.token.cancel();
                job.fired.store(true, Ordering::SeqCst);
                return false;
            }
            true
        });
    }
}

/// Parses a watchdog budget: `500ms`, `30s`, or bare seconds (`30`).
/// Zero and anything else is rejected — a zero budget would cancel
/// every attempt before its first heartbeat.
pub fn parse_duration(s: &str) -> Option<Duration> {
    let (digits, unit): (&str, fn(u64) -> Duration) = match s {
        _ if s.ends_with("ms") => (&s[..s.len() - 2], Duration::from_millis),
        _ if s.ends_with('s') => (&s[..s.len() - 1], Duration::from_secs),
        _ => (s, Duration::from_secs),
    };
    let n: u64 = digits.parse().ok()?;
    (n > 0).then(|| unit(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_parse_units_and_reject_zero_and_garbage() {
        assert_eq!(parse_duration("500ms"), Some(Duration::from_millis(500)));
        assert_eq!(parse_duration("30s"), Some(Duration::from_secs(30)));
        assert_eq!(parse_duration("30"), Some(Duration::from_secs(30)));
        for bad in [
            "0", "0s", "0ms", "", "s", "ms", "-1s", "1.5s", "30m", "fast",
        ] {
            assert_eq!(parse_duration(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn beating_jobs_are_left_alone() {
        let watchdog = Watchdog::spawn(Duration::from_millis(1));
        let handle = watchdog.register(Duration::from_millis(20), &CancelToken::new());
        for _ in 0..10 {
            handle.beat();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!handle.fired());
        assert!(!handle.token().is_cancelled());
        handle.finish();
    }

    #[test]
    fn silent_jobs_are_cancelled_and_marked_fired() {
        let watchdog = Watchdog::spawn(Duration::from_millis(1));
        let handle = watchdog.register(Duration::from_millis(5), &CancelToken::new());
        let deadline = Instant::now() + Duration::from_secs(5);
        while !handle.token().is_cancelled() {
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(handle.fired());
    }

    #[test]
    fn finished_jobs_are_never_fired() {
        let watchdog = Watchdog::spawn(Duration::from_millis(1));
        let handle = watchdog.register(Duration::from_millis(2), &CancelToken::new());
        handle.finish();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.fired());
        assert!(!handle.token().is_cancelled());
    }

    #[test]
    fn run_wide_cancellation_reaches_supervised_tokens() {
        let run = CancelToken::new();
        let watchdog = Watchdog::spawn(Duration::from_millis(1));
        let handle = watchdog.register(Duration::from_secs(60), &run);
        assert!(!handle.token().is_cancelled());
        run.cancel();
        assert!(handle.token().is_cancelled());
        assert!(
            !handle.token().is_cancelled_directly(),
            "the job's own flag stays clear — this was a run-wide cancel"
        );
        assert!(!handle.fired());
    }

    #[test]
    fn dropping_does_not_wait_out_the_poll_interval() {
        let watchdog = Watchdog::spawn(Duration::from_secs(30));
        // Give the thread time to enter its poll wait; the check below
        // cannot fail spuriously, only pass early.
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        drop(watchdog);
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}

//! The daemon workloads: the real `vs-fleetd` binary on a store in the
//! scratch directory, driven over its Unix socket by a closed-loop
//! client, every job watched to its terminal event.
//!
//! * `daemon-fresh` — every submission is a never-seen spec, so every job
//!   runs the protocol, the scheduler, a per-chip journal append + fsync
//!   and a checkpoint save, none of which run in either sweep.
//! * `daemon-mixed` — the store starts with 64 sweeps left as uncompacted
//!   journals, so boot compacts them; submissions alternate between two
//!   fresh specs and one key-less repeat of a seeded or earlier spec,
//!   which the store answers by resume. A store change that speeds
//!   appends but slows resume or boot shows here.

use crate::replica::{Replay, Unit};
use crate::report::{Better, Metric, Report};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{layers, peak_rss_mb};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};
use vs_fleet::{ControllerVariant, FleetRunner};
use vs_fleetd::{config_for, Client, FleetStore, JobOutcome, Response, SweepSpec};
use vs_obs::{metric_name, names, PromSnapshot};
use vs_types::rng::{splitmix64, CounterRng};
use vs_types::ChipId;

/// Load: client threads, each with one connection and one job in flight
/// at a time. With two on the two-CPU reference host, the two jobs'
/// chips and the daemon's I/O threads compete for both CPUs, and the
/// p75 chip wall and the median `daemon-mixed` job moved by about a fifth
/// between runs of the same code; with one they moved by a twentieth.
const CLIENTS: u64 = 1;
/// Daemon job workers (`--workers`); each job runs one chip at a time
/// (`--job-workers 1`).
const DAEMON_WORKERS: u64 = 2;
/// Chips per submitted sweep.
const JOB_CHIPS: u64 = 4;
/// Simulated run of each chip, in milliseconds.
const RUN_MS: u64 = 250;
/// Sweeps pre-seeded as uncompacted journals for `daemon-mixed`.
const SEEDED_SWEEPS: u64 = 64;
/// A `daemon-mixed` client sends `REPEAT_CYCLE - 1` fresh specs, then one
/// repeat. A repeat is answered from the store in under a millisecond
/// and a fresh job takes tens, so with half of each the median job would
/// fall in the gap between the two and swing from run to run. A median
/// that is a repeat measures little but the host's wake-up latency: it
/// spread by a quarter to two fifths between runs of the same code. With
/// one repeat per two fresh specs the median and the p75 are fresh jobs
/// (the lower quartile and the 62nd percentile of them); store resume
/// shows in `jobs_per_s`, and boot compaction in `setup_s`.
const REPEAT_CYCLE: u64 = 3;
/// Boots timed per run; `setup_s` is their median.
const BOOTS: usize = 5;
/// One job in `CHECK_EVERY` has its `mean_vdd_reduction` recomputed by
/// a standalone `FleetRunner`.
const CHECK_EVERY: usize = 16;
/// Closed-loop load before the timed window. A freshly booted daemon
/// runs its first second or so of jobs up to twice as slowly; a
/// long-running daemon pays that once, so it is not timed.
const WARMUP: Duration = Duration::from_secs(2);
/// How long a boot or a shutdown may take before the run fails.
const PATIENCE: Duration = Duration::from_secs(60);

/// The spec of one quick hardware sweep.
fn spec(seed: u64) -> SweepSpec {
    SweepSpec {
        seed,
        chips: JOB_CHIPS,
        variant: ControllerVariant::Hardware,
        quick: true,
        run_ms: RUN_MS,
        sentinel: false,
        inject: String::new(),
        key: String::new(),
        deadline_ms: 0,
    }
}

/// Seeds are domain-separated by role, so fresh specs never collide with
/// seeded ones or with each other.
fn derived_seed(seed: u64, role: u64, client: u64, n: u64) -> u64 {
    splitmix64(seed ^ splitmix64(role ^ splitmix64(client << 32 ^ n)))
}

const FRESH: u64 = 0xF2E5_0000;
const SEEDED: u64 = 0x5EED_0000;

/// A running `vs-fleetd`, killed and reaped if dropped before a clean
/// shutdown.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on `store` and waits until it answers `Stats`.
    /// Returns it with the connected control client and the boot time.
    fn boot(store: &Path, socket: &Path) -> io::Result<(Daemon, Client, Duration)> {
        let exe = std::env::current_exe()?.with_file_name("vs-fleetd");
        let start = Instant::now();
        let child = Command::new(&exe)
            .arg("--socket")
            .arg(socket)
            .arg("--store")
            .arg(store)
            .args(["--workers", &DAEMON_WORKERS.to_string()])
            .args(["--job-workers", "1", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", exe.display())))?;
        let daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(stream) => break stream,
                Err(_) if start.elapsed() < PATIENCE => thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(e),
            }
        };
        let mut control = Client::from_stream(stream);
        control.stats().map_err(io::Error::other)?;
        Ok((daemon, control, start.elapsed()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and waits for it to exit 0.
    fn stop(mut self, mut control: Client) -> io::Result<()> {
        control.shutdown().map_err(io::Error::other)?;
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("vs-fleetd exited with {status}")))
                };
            }
            if start.elapsed() > PATIENCE {
                return Err(io::Error::other("vs-fleetd did not drain"));
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// How a submitted job ended, from the client's side.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Done {
        chips: u64,
        resumed: u64,
        mean_vdd_reduction: f64,
    },
    Busy,
    Cancelled,
    Failed(String),
    Transport(String),
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: SweepSpec,
    repeat: bool,
    /// Sent during the warm-up: checked, but not timed.
    warmup: bool,
    job: u64,
    sent: Instant,
    acked: Option<Instant>,
    /// `(chip id, arrival)` of every `Chip` frame.
    chips: Vec<(u64, Instant)>,
    ended: Instant,
    outcome: Outcome,
}

impl JobRecord {
    fn first_result(&self) -> Instant {
        self.chips.first().map_or(self.ended, |c| c.1)
    }

    fn fresh_chips(&self) -> u64 {
        match self.outcome {
            Outcome::Done { chips, resumed, .. } => chips - resumed.min(chips),
            _ => 0,
        }
    }
}

/// One client's closed loop until `deadline`; jobs sent before `warm`
/// are warm-up. In `daemon-mixed`, `pool` holds the specs this client
/// may repeat: its share of the seeded ones and every spec it has
/// completed. Each client owns its pool, so its submissions depend only
/// on the seed, and two jobs of one fingerprint (which would share store
/// files) are never in flight at once.
fn client_loop(
    socket: &Path,
    seed: u64,
    client: u64,
    mixed: bool,
    mut pool: Vec<SweepSpec>,
    warm: Instant,
    deadline: Instant,
) -> Vec<JobRecord> {
    let mut records = Vec::new();
    let mut rng = CounterRng::from_key(seed, &[0xC11E, client]);
    let mut conn = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perf: client {client} cannot connect: {e}");
            return records;
        }
    };
    // One round trip before timing, so the daemon has accepted the
    // connection and the first submit does not wait for its accept loop.
    if conn.stats().is_err() {
        return records;
    }
    let mut n = 0u64;
    while Instant::now() < deadline {
        let repeat_spec =
            (mixed && n % REPEAT_CYCLE == REPEAT_CYCLE - 1 && !pool.is_empty()).then(|| {
                let i = rng.next_below(pool.len() as u64) as usize;
                pool.swap_remove(i)
            });
        let repeat = repeat_spec.is_some();
        let spec = repeat_spec.unwrap_or_else(|| spec(derived_seed(seed, FRESH, client, n)));
        n += 1;
        let sent = Instant::now();
        let mut record = JobRecord {
            spec: spec.clone(),
            repeat,
            warmup: sent < warm,
            job: 0,
            sent,
            acked: None,
            chips: Vec::new(),
            ended: sent,
            outcome: Outcome::Busy,
        };
        let outcome = match conn.submit(spec.clone()) {
            Ok(Ok(sub)) => {
                record.job = sub.job;
                record.acked = Some(Instant::now());
                let chips = &mut record.chips;
                let watched = conn.watch(sub.job, |resp| {
                    if let Response::Chip { chip, .. } = resp {
                        chips.push((*chip, Instant::now()));
                    }
                });
                match watched {
                    Ok(JobOutcome::Done {
                        chips,
                        resumed,
                        mean_vdd_reduction,
                        ..
                    }) => Outcome::Done {
                        chips,
                        resumed,
                        mean_vdd_reduction,
                    },
                    Ok(JobOutcome::Cancelled { .. }) => Outcome::Cancelled,
                    Ok(JobOutcome::Failed { error }) => Outcome::Failed(error),
                    Err(e) => Outcome::Transport(e.to_string()),
                }
            }
            Ok(Err(_busy)) => Outcome::Busy,
            Err(e) => Outcome::Transport(e.to_string()),
        };
        record.ended = Instant::now();
        record.outcome = outcome;
        let broken = matches!(record.outcome, Outcome::Transport(_));
        if repeat || mixed && matches!(record.outcome, Outcome::Done { .. }) {
            pool.push(spec);
        }
        records.push(record);
        if broken {
            break;
        }
    }
    records
}

/// The store a workload boots on: empty for `daemon-fresh`, 64 seeded
/// uncompacted journals for `daemon-mixed`. Returns the seeded specs.
fn seed_store(dir: &Path, seed: u64, mixed: bool) -> io::Result<Vec<SweepSpec>> {
    std::fs::create_dir_all(dir)?;
    if !mixed {
        return Ok(Vec::new());
    }
    let store = FleetStore::open(dir)?;
    let specs: Vec<SweepSpec> = (0..SEEDED_SWEEPS)
        .map(|i| spec(derived_seed(seed, SEEDED, 0, i)))
        .collect();
    for s in &specs {
        let config = config_for(s);
        FleetRunner::new(config.clone(), DAEMON_WORKERS as usize)
            .with_journal(store.journal_path(&config))
            .run()
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    Ok(specs)
}

/// Copies the files of a flat store directory.
fn copy_store(from: &Path, to: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Busy seconds of every daemon job worker, scraped from its metrics.
fn busy_seconds(control: &mut Client) -> io::Result<f64> {
    let text = control.metrics().map_err(io::Error::other)?;
    let snapshot = PromSnapshot::parse(&text).map_err(|e| io::Error::other(format!("{e:?}")))?;
    Ok((0..DAEMON_WORKERS as usize)
        .filter_map(|w| snapshot.value(&metric_name(names::PROM_PREFIX, &names::worker_busy(w))))
        .sum())
}

/// Runs one daemon workload for `seconds` and reports it.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    tracer: &mut Tracer,
    scratch: &Path,
) -> io::Result<Report> {
    let mixed = workload == "daemon-mixed";
    let mut report = Report::default();
    let seeded_dir = scratch.join("seeded");
    let seeded = seed_store(&seeded_dir, seed, mixed)?;
    let socket = scratch.join("fleetd.sock");

    // Boots: each on a fresh copy of the seeded store; the last one
    // serves the measurement.
    let boots = if traced { 1 } else { BOOTS };
    let mut boot_s = Vec::with_capacity(boots);
    let mut serving = None;
    for i in 0..boots {
        let store = scratch.join(format!("store-{i}"));
        copy_store(&seeded_dir, &store)?;
        if let Some((daemon, control)) = serving.take() {
            Daemon::stop(daemon, control)?;
        }
        let (daemon, control, took) = Daemon::boot(&store, &socket)?;
        boot_s.push(took.as_secs_f64());
        serving = Some((daemon, control));
    }
    let (daemon, mut control) = serving.expect("at least one boot");
    if !traced {
        let setup = Summary::of(&boot_s).expect("at least one boot");
        report.push(Metric::median("setup_s", "s", Better::Lower, setup));
    }

    let window = if traced {
        Duration::from_secs(seconds) / 2
    } else {
        Duration::from_secs(seconds)
    };
    let warm = Instant::now() + WARMUP;
    let deadline = warm + window;
    let (mut records, busy_before) = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let socket = &socket;
                let pool: Vec<SweepSpec> = seeded
                    .iter()
                    .skip(c as usize)
                    .step_by(CLIENTS as usize)
                    .cloned()
                    .collect();
                s.spawn(move || client_loop(socket, seed, c, mixed, pool, warm, deadline))
            })
            .collect();
        thread::sleep(warm.saturating_duration_since(Instant::now()));
        let busy_before = busy_seconds(&mut control);
        let records: Vec<JobRecord> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        (records, busy_before)
    });
    let busy = busy_seconds(&mut control)? - busy_before?;
    let rss = peak_rss_mb(Some(daemon.pid()));
    Daemon::stop(daemon, control)?;
    records.sort_by_key(|r| r.sent);

    report.attempted = records.len() as u64;
    check(&records, &mut report);
    let measured: Vec<&JobRecord> = records.iter().filter(|r| !r.warmup).collect();
    let start = measured.first().map_or(warm, |r| r.sent);
    let elapsed = measured
        .iter()
        .map(|r| r.ended)
        .max()
        .unwrap_or(start)
        .saturating_duration_since(start);
    let done: Vec<&JobRecord> = measured
        .into_iter()
        .filter(|r| matches!(r.outcome, Outcome::Done { .. }))
        .collect();
    let secs = elapsed.as_secs_f64();
    let fresh_chips: u64 = done.iter().map(|r| r.fresh_chips()).sum();
    let all_chips: u64 = done
        .iter()
        .map(|r| match r.outcome {
            Outcome::Done { chips, .. } => chips,
            _ => 0,
        })
        .sum();
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    // Chip wall as a client sees it: the gap between consecutive Chip
    // frames of one job (the first frame also carries job start-up).
    let gaps_ms: Vec<f64> = done
        .iter()
        .flat_map(|r| r.chips.windows(2).map(|w| ms(w[0].1, w[1].1)))
        .collect();

    if !traced {
        report.push(Metric::single(
            "chips_per_s",
            "1/s",
            Better::Higher,
            fresh_chips as f64 / secs,
        ));
        report.push(Metric::single(
            "jobs_per_s",
            "1/s",
            Better::Higher,
            done.len() as f64 / secs,
        ));
        report.push_latencies("chip_wall", &gaps_ms);
        let first: Vec<f64> = done.iter().map(|r| ms(r.sent, r.first_result())).collect();
        report.push_latencies("job_first_result", &first);
        let terminal: Vec<f64> = done.iter().map(|r| ms(r.sent, r.ended)).collect();
        report.push_latencies("job_terminal", &terminal);
        report.push(Metric::single("peak_rss_mb", "MB", Better::Lower, rss));
        report.note(format!(
            "{} jobs ({} repeats) in {secs:.2} s after {} warm-up jobs, {fresh_chips} chips \
             simulated, {CLIENTS} closed-loop client(s), vs-fleetd --workers {DAEMON_WORKERS} \
             --job-workers 1",
            done.len(),
            done.iter().filter(|r| r.repeat).count(),
            records.iter().filter(|r| r.warmup).count()
        ));
        return Ok(report);
    }

    let rtt: Vec<f64> = done
        .iter()
        .filter_map(|r| Some(ms(r.sent, r.acked?)))
        .collect();
    let ack_first: Vec<f64> = done
        .iter()
        .filter(|r| !r.repeat)
        .filter_map(|r| Some(ms(r.acked?, r.chips.first()?.1)))
        .collect();
    let lower = Better::Lower;
    if let Some(s) = Summary::of(&rtt) {
        report.push(Metric::median("fleetd.submit_rtt_ms", "ms", lower, s));
    }
    if let Some(s) = Summary::of(&ack_first) {
        report.push(Metric::median(
            "fleetd.ack_to_first_chip_ms",
            "ms",
            lower,
            s,
        ));
    }
    report.push(Metric::single(
        "fleetd.worker_busy_frac",
        "ratio",
        Better::Higher,
        busy / (DAEMON_WORKERS as f64 * secs),
    ));
    report.push(Metric::single(
        "fleetd.resumed_chip_frac",
        "ratio",
        Better::Higher,
        1.0 - fresh_chips as f64 / all_chips.max(1) as f64,
    ));
    let recover_dir = scratch.join("recover");
    copy_store(&seeded_dir, &recover_dir)?;
    let store = FleetStore::open(&recover_dir)?;
    let t = Instant::now();
    store
        .boot_recover()
        .map_err(|e| io::Error::other(e.to_string()))?;
    report.push(Metric::single(
        "fleetd.boot_recover_ms",
        "ms",
        lower,
        t.elapsed().as_secs_f64() * 1e3,
    ));

    record_spans(&records, tracer);
    // A fresh job's wall is its submit-to-Done latency; replaying its
    // chips says how much of that the simulation itself explains.
    let budget = Duration::from_secs(seconds) / 4;
    let replay_start = Instant::now();
    let mut replay = Replay::default();
    for r in done.iter().filter(|r| !r.repeat) {
        if replay.chips() >= 3 && replay_start.elapsed() >= budget {
            break;
        }
        let unit = Unit {
            config: config_for(&r.spec),
            chips: r.chips.iter().map(|&(chip, _)| ChipId(chip)).collect(),
            wall_ns: ms(r.sent, r.ended) * 1e6,
        };
        replay.unit(&unit, tracer);
    }
    if replay.chips() == 0 {
        return Err(io::Error::other("no fresh job completed"));
    }
    replay.report(tracer, &mut report);

    let first = done
        .iter()
        .find(|r| !r.repeat)
        .ok_or_else(|| io::Error::other("no fresh job completed"))?;
    let config = config_for(&first.spec);
    let batch = FleetRunner::new(config.clone(), 1)
        .run()
        .map_err(|e| io::Error::other(e.to_string()))?
        .summaries;
    let layer_dir = scratch.join("layers");
    std::fs::create_dir_all(&layer_dir)?;
    layers::run(&config, ChipId(0), &batch, &layer_dir, &mut report);
    Ok(report)
}

/// Per-job spans: `job` from submit-sent to the terminal frame, with
/// `submit` (sent → ack), one `chip_frame` per Chip frame (from the
/// previous frame) and `terminal` (last frame → terminal) children.
fn record_spans(records: &[JobRecord], tracer: &mut Tracer) {
    for r in records {
        let root = tracer.reserve();
        let Some(acked) = r.acked else {
            tracer.record(root, r.job, None, "job", r.sent, r.ended);
            continue;
        };
        tracer.leaf(r.job, Some(root), "submit", r.sent, acked);
        let mut prev = acked;
        for &(_, at) in &r.chips {
            tracer.leaf(r.job, Some(root), "chip_frame", prev, at);
            prev = at;
        }
        tracer.leaf(r.job, Some(root), "terminal", prev, r.ended);
        tracer.record(root, r.job, None, "job", r.sent, r.ended);
    }
}

/// Failure accounting and output checks. A job fails if it was shed as
/// `Busy`, ended `Failed` or `Cancelled`, or hit a transport error; it is
/// also wrong (and the run incorrect) unless its Done carries
/// `chips == spec.chips`, a repeat was served wholly by resume, and, for
/// one job in 16, `mean_vdd_reduction` equals a standalone `FleetRunner`'s.
fn check(records: &[JobRecord], report: &mut Report) {
    for (i, r) in records.iter().enumerate() {
        let Outcome::Done {
            chips,
            resumed,
            mean_vdd_reduction,
        } = &r.outcome
        else {
            report.failed += 1;
            report.note(format!("job {} failed: {:?}", r.job, r.outcome));
            continue;
        };
        let wrong = if *chips != r.spec.chips {
            Some(format!("{chips} chips, expected {}", r.spec.chips))
        } else if r.repeat && resumed != chips {
            Some(format!("repeat resumed {resumed} of {chips} chips"))
        } else if i % CHECK_EVERY == 0 {
            standalone_mismatch(&r.spec, *mean_vdd_reduction)
        } else {
            None
        };
        if let Some(why) = wrong {
            report.failed += 1;
            report.problem(format!("job {} (seed {}): {why}", r.job, r.spec.seed));
        }
    }
}

fn standalone_mismatch(spec: &SweepSpec, reported: f64) -> Option<String> {
    let config = config_for(spec);
    let expected = match FleetRunner::new(config.clone(), 1).run() {
        Ok(result) => result.stats(&config).mean_vdd_reduction(),
        Err(e) => return Some(format!("standalone run failed: {e}")),
    };
    (expected.to_bits() != reported.to_bits()).then(|| {
        format!("mean_vdd_reduction {reported:?}, standalone FleetRunner says {expected:?}")
    })
}

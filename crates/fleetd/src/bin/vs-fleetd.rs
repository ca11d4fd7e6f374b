//! The fleet daemon binary.
//!
//! ```text
//! vs-fleetd --socket /run/fleetd.sock [--store DIR] [--workers N]
//!           [--queue-cap N] [--job-workers N] [--deadline 30s] [--quiet]
//!           [--torture SPEC]
//! vs-fleetd --stdio [--store DIR] ...
//! ```
//!
//! `--torture` takes an `--inject`-grammar spec and installs the
//! *store-surface* counts of its `daemon:` atoms (`enospc`,
//! `short-write`, `fsync`) as a counted fault plan over the store
//! directory — the CI daemon-torture smoke runs a live daemon whose
//! checkpoint and journal writes fail on schedule. Transport atoms are
//! the client's side of the bargain (`repro fleetd … --torture`).
//!
//! Exit codes: 0 clean shutdown (drained after a `shutdown` request or
//! stdio EOF), 2 usage or startup error.

use std::io::{self, BufReader, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use vs_fleetd::server::{serve_jsonl, serve_unix};
use vs_fleetd::{FleetStore, Scheduler, SchedulerConfig};
use vs_guard::parse_duration;

fn die(msg: &str) -> ! {
    eprintln!("vs-fleetd: {msg}");
    eprintln!(
        "usage: vs-fleetd (--socket PATH | --stdio) [--store DIR] [--workers N] \
         [--queue-cap N] [--job-workers N] [--deadline 30s|500ms] [--quiet] \
         [--torture SPEC]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<PathBuf> = None;
    let mut stdio = false;
    let mut store_dir = PathBuf::from("fleetd-store");
    let mut config = SchedulerConfig::default();
    let mut quiet = false;
    let mut torture: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                socket = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| die("--socket needs a path")),
                ));
            }
            "--stdio" => stdio = true,
            "--store" => {
                i += 1;
                store_dir = PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--store needs a directory")),
                );
            }
            "--workers" => {
                i += 1;
                config.workers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--workers needs an integer"));
            }
            "--queue-cap" => {
                i += 1;
                config.queue_cap = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--queue-cap needs an integer"));
            }
            "--job-workers" => {
                i += 1;
                config.job_workers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--job-workers needs an integer"));
            }
            "--deadline" => {
                i += 1;
                config.deadline = Some(
                    args.get(i)
                        .and_then(|s| parse_duration(s))
                        .unwrap_or_else(|| die("--deadline needs a duration like 30s or 500ms")),
                );
            }
            "--quiet" => quiet = true,
            "--torture" => {
                i += 1;
                torture = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--torture needs an inject spec"))
                        .clone(),
                );
            }
            other => die(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if stdio == socket.is_some() {
        die("pick exactly one transport: --socket PATH or --stdio");
    }

    let store = match FleetStore::open(&store_dir) {
        Ok(store) => store,
        Err(e) => die(&format!("cannot open store {}: {e}", store_dir.display())),
    };
    // Boot recovery: fsck scrub in repair mode (orphan temps, torn
    // journal tails, unrecoverable files quarantined), then streaming
    // compaction of every surviving pair. Damage the scrub cannot fix
    // quarantines a sweep instead of killing the boot; only real I/O
    // errors are fatal.
    match store.boot_recover() {
        Ok(recovery) => {
            if !quiet {
                for issue in &recovery.scrub.issues {
                    eprintln!("vs-fleetd: scrub: {issue}");
                }
                for fp in &recovery.quarantined {
                    eprintln!(
                        "vs-fleetd: quarantined sweep {fp:016x}: compaction failed after repair"
                    );
                }
                for report in &recovery.compactions {
                    let skipped = report.skipped.len();
                    if report.merged > 0 || skipped > 0 {
                        eprintln!(
                            "vs-fleetd: recovered {:016x}: {} chips ({} from journal, {skipped} damaged records skipped)",
                            report.fingerprint, report.chips, report.merged
                        );
                    }
                }
            }
        }
        Err(e) => die(&format!("store recovery failed: {e}")),
    }

    // The flight recorder writes postmortem bundles under the store. An
    // unwritable bundle directory must not abort boot — per-job bundle
    // failures already degrade gracefully — but it deserves one loud
    // warning instead of a silent surprise at the first crash.
    let postmortem = store_dir.join("postmortem");
    let probe = postmortem.join(".boot-probe");
    let writable = std::fs::create_dir_all(&postmortem)
        .and_then(|()| std::fs::write(&probe, b"ok"))
        .and_then(|()| std::fs::remove_file(&probe));
    if let Err(e) = writable {
        eprintln!(
            "vs-fleetd: warning: postmortem directory {} is not writable ({e}); \
             crash bundles will be skipped",
            postmortem.display()
        );
    }

    // Torture mode: the store-surface counts of the spec's daemon
    // atoms become a counted fault plan over the store, installed after
    // boot recovery.
    if let Some(spec) = torture {
        let plan = match vs_faults::FaultSpec::parse(&spec) {
            Ok(parsed) => parsed.materialize(1),
            Err(e) => die(&format!("bad --torture spec: {e}")),
        };
        let fs_plan = store.install_faults(&plan);
        if !quiet {
            eprintln!(
                "vs-fleetd: torture mode: {} enospc, {} short writes, {} fsync failures \
                 scheduled over {}",
                fs_plan.enospc,
                fs_plan.short_writes,
                fs_plan.fsync_failures,
                store_dir.display()
            );
        }
    }

    let scheduler = Arc::new(Scheduler::start(config, store));
    if !quiet {
        eprintln!(
            "vs-fleetd: serving {} (store {})",
            socket
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "stdio".into()),
            store_dir.display()
        );
    }

    let served = if let Some(socket) = socket {
        serve_unix(&socket, Arc::clone(&scheduler))
    } else {
        let stdin = io::stdin();
        let stdout = io::stdout();
        let mut reader = BufReader::new(stdin.lock());
        let mut writer = stdout.lock();
        let r = serve_jsonl(&scheduler, &mut reader, &mut writer);
        let _ = writer.flush();
        r
    };
    if let Err(e) = served {
        eprintln!("vs-fleetd: transport error: {e}");
    }
    // Drain: cancel whatever still runs, wait for workers, then the
    // store holds every durable record.
    scheduler.shutdown();
    match Arc::try_unwrap(scheduler) {
        Ok(scheduler) => scheduler.join(),
        Err(scheduler) => {
            // A connection thread still holds a reference; the root token
            // is cancelled, so it exits promptly.
            scheduler.shutdown();
        }
    }
    ExitCode::SUCCESS
}

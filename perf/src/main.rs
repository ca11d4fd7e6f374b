//! `perf`: the end-to-end and per-layer benchmark of standalone sweeps
//! and `vs-fleetd` jobs.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]
//! perf [--seed N] [--seconds S] [--trace 0|1] [--out FILE]   # every workload, one child each
//! perf compare PARENT.json CHANGE.json
//! ```
//!
//! A run measures one workload for `--seconds` of closed-loop load,
//! checks that its outputs are correct, prints every metric with its
//! unit and sample count, and ends with one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--out` appends the run's full results to a file for `perf compare`;
//! `--spans` writes the traced run's spans as JSONL. The exit code is 0
//! for a correct run, 1 for an incorrect or failed one, 2 for bad usage.
//! All times are host wall-clock time.

mod compare;
mod daemon;
mod digest;
mod json;
mod layers;
mod replica;
mod report;
mod stats;
mod sweep;
mod trace;

use report::{END_TO_END, PER_LAYER};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// Every workload, in the order a full run executes them.
const WORKLOADS: [&str; 4] = ["sweep-hw", "sweep-short", "daemon-fresh", "daemon-mixed"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf: {msg}");
    eprintln!(
        "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] \
         [--spans FILE]\n       perf compare PARENT.json CHANGE.json\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: digest::REFERENCE_SEED,
        seconds: 20,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                parsed.workload = Some(w.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds needs an integer from 1 to 600")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--spans" => parsed.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = args.as_slice() else {
            return usage("compare takes two results files");
        };
        return match compare::run(
            Path::new(parent),
            Path::new(change),
            Path::new("BENCHMARK.json"),
        ) {
            Ok((table, any_worse)) => {
                print!("{table}");
                ExitCode::from(u8::from(any_worse))
            }
            Err(e) => usage(&e),
        };
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// Runs every workload in a fresh child process of this binary, so peak
/// RSS and warm state never leak from one workload into the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot find own executable: {e}")),
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perf: {w} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perf: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    let scratch = match scratch_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perf: cannot create a scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tracer = Tracer::new(Instant::now());
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let result = if workload.starts_with("sweep") {
        Ok(sweep::run(
            workload,
            seed,
            seconds,
            traced,
            &mut tracer,
            &scratch,
        ))
    } else {
        daemon::run(workload, seed, seconds, traced, &mut tracer, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perf: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared = if traced { PER_LAYER } else { END_TO_END };
    report.check_declared(declared);

    let header = format!(
        "perf {workload} seed={seed} seconds={seconds} trace={} (host wall-clock time, {} CPUs)",
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    print!("{}", report.table(&header));
    if let Some(out) = &args.out {
        let line = report.results_json(workload, seed, traced);
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = written {
            eprintln!("perf: cannot append to {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
            eprintln!("perf: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.contract_json(declared));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A fresh per-process directory beside the build output
/// (`<target>/perf-scratch/<pid>`), relative to the working directory
/// when it lies under it: Unix socket paths must stay short.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let root = exe
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("perf-scratch"), |t| t.join("perf-scratch"));
    let cwd = std::env::current_dir()?.canonicalize()?;
    let root = root
        .strip_prefix(&cwd)
        .map_or(root.clone(), Path::to_path_buf);
    let dir = root.join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Peak resident set size (`VmHWM`) of this process or of `pid`, in MiB;
/// NaN where `/proc` does not report it.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

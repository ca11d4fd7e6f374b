//! Run supervision end to end: hung workers are watchdog-cancelled and
//! quarantined without stalling the fleet, cooperative cancellation
//! flushes resumable progress, and the write-ahead journal carries a run
//! across a crash even when the checkpoint cannot be written at all.

use std::path::PathBuf;
use std::time::Duration;
use voltspec::faults::{FaultPlan, FaultSpec};
use voltspec::fleet::{load_checkpoint_report, FleetConfig, FleetRunner};
use voltspec::guard::CancelToken;
use voltspec::telemetry::{EventFilter, SilentProgress};
use voltspec::types::{ChipId, FleetSeed, SimTime};

fn tiny_config() -> FleetConfig {
    let mut config = FleetConfig::small(FleetSeed(23), 6);
    config.run_duration = SimTime::from_millis(500);
    config
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("voltspec-guard-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// ISSUE acceptance: an injected hung worker is watchdog-cancelled and
/// quarantined, and the remaining chips complete with results identical
/// to a clean run's.
#[test]
fn hung_worker_is_cancelled_and_quarantined_without_stalling_the_fleet() {
    let clean = FleetRunner::new(tiny_config(), 2).run().unwrap();
    let mut config = tiny_config();
    config.faults = FaultSpec::parse("hang:chip3x99")
        .expect("spec parses")
        .materialize(config.num_chips);
    let result = FleetRunner::new(config, 3)
        .with_max_retries(1)
        .with_deadline(Duration::from_secs(1))
        .run()
        .unwrap();
    assert_eq!(result.degradation.quarantined, vec![ChipId(3)]);
    assert_eq!(result.degradation.watchdog_fired, vec![(ChipId(3), 2)]);
    assert_eq!(result.summaries.len(), 5);
    let without_chip3: Vec<_> = clean
        .summaries
        .iter()
        .filter(|s| s.chip != ChipId(3))
        .cloned()
        .collect();
    assert_eq!(
        result.summaries, without_chip3,
        "the surviving fleet must be bit-identical to a clean run"
    );
}

/// A chip that hangs once recovers on retry with a bit-identical
/// summary — the watchdog only decides *whether* a chip completes.
#[test]
fn transient_hang_recovers_to_a_bit_identical_fleet() {
    let clean = FleetRunner::new(tiny_config(), 2).run().unwrap();
    let mut config = tiny_config();
    config.faults = FaultPlan::new().worker_hang(ChipId(0), 1);
    let result = FleetRunner::new(config, 2)
        .with_deadline(Duration::from_secs(1))
        .run()
        .unwrap();
    assert_eq!(result.summaries, clean.summaries);
    assert_eq!(result.degradation.retried, vec![(ChipId(0), 1)]);
}

/// Cooperative cancellation mid-run flushes a valid checkpoint/journal;
/// resuming completes the fleet bit-identically to an undisturbed run.
#[test]
fn interrupt_flushes_resumable_progress() {
    let ckpt = scratch("interrupt.ckpt");
    let journal = scratch("interrupt.journal");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&journal);

    let token = CancelToken::new();
    let trip = token.clone();
    let mut seen = 0u32;
    let partial = FleetRunner::new(tiny_config(), 2)
        .with_checkpoint(ckpt.clone())
        .with_journal(journal.clone())
        .with_cancel(token)
        .run_streaming(move |_| {
            seen += 1;
            if seen == 2 {
                trip.cancel();
            }
        })
        .unwrap();
    assert!(partial.degradation.interrupted);
    assert!(
        partial.summaries.len() < 6,
        "the interrupt must cut the run"
    );

    let resumed = FleetRunner::new(tiny_config(), 2)
        .with_checkpoint(ckpt)
        .with_journal(journal)
        .run()
        .unwrap();
    assert!(!resumed.degradation.interrupted);
    assert_eq!(resumed.resumed, partial.summaries.len() as u64);
    let fresh = FleetRunner::new(tiny_config(), 2).run().unwrap();
    assert_eq!(resumed.summaries, fresh.summaries);
}

/// The journal is the durability floor: even when every checkpoint save
/// fails (injected transient I/O errors exhausting the retry budget),
/// finished chips survive in the journal and resume from it.
#[test]
fn journal_carries_progress_when_the_checkpoint_cannot_be_saved() {
    let journal = scratch("floor.journal");
    let _ = std::fs::remove_file(&journal);

    // Every save attempt of this run fails: the journal alone persists.
    // (The fault plan is part of the config fingerprint, so the resume
    // below must carry the same plan to read this run's files.)
    let mut config = tiny_config();
    config.faults = FaultPlan::new().checkpoint_io_error(u32::MAX);
    let broken_ckpt = scratch("floor-broken.ckpt");
    let _ = std::fs::remove_file(&broken_ckpt);
    let first = FleetRunner::new(config.clone(), 2)
        .with_checkpoint(broken_ckpt.clone())
        .with_journal(journal.clone())
        .run()
        .unwrap();
    assert!(!first.degradation.checkpoint_failures.is_empty());
    assert!(!broken_ckpt.exists());
    let replay = load_checkpoint_report(&journal, config.fingerprint()).unwrap();
    assert_eq!(replay.summaries.len(), 6, "the journal kept every chip");

    // Resume folds the journal into the checkpoint: nothing is
    // re-simulated. (The injected errors hit the runner's own checkpoint
    // saves only; the start-of-run fold is the store's compaction, so it
    // writes the checkpoint and truncates the journal.)
    let ckpt = scratch("floor.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let resumed = FleetRunner::new(config, 2)
        .with_checkpoint(ckpt)
        .with_journal(journal)
        .run()
        .unwrap();
    assert_eq!(resumed.resumed, 6);
    assert_eq!(resumed.simulated, 0);
    assert_eq!(resumed.summaries, first.summaries);
}

/// Guard decisions are part of the deterministic trace contract: with
/// supervision armed and a hang injected, the serialized event stream is
/// byte-identical for any worker count.
#[test]
fn supervised_traces_are_byte_identical_across_worker_counts() {
    let mut config = tiny_config();
    config.faults = FaultPlan::new().worker_hang(ChipId(2), 1);
    let run = |workers: usize| {
        let (result, trace) = FleetRunner::new(config.clone(), workers)
            .with_deadline(Duration::from_secs(1))
            .run_reporting(EventFilter::all(), &mut SilentProgress)
            .unwrap();
        (result, trace.to_jsonl())
    };
    let (result_1, trace_1) = run(1);
    let (result_4, trace_4) = run(4);
    assert_eq!(result_1.summaries, result_4.summaries);
    assert_eq!(result_1.degradation, result_4.degradation);
    assert_eq!(trace_1, trace_4);
    assert!(trace_1.contains("\"event\":\"watchdog_fired\""));
}

/// Cancellation tokens propagate parent to child but never child to
/// parent — a fired per-job watchdog must not look like a run-wide
/// interrupt.
#[test]
fn cancellation_scopes_nest_one_way() {
    let run = CancelToken::new();
    let job = run.child();
    job.cancel();
    assert!(job.is_cancelled());
    assert!(!run.is_cancelled(), "job cancel must not escape to the run");
    let job2 = run.child();
    run.cancel();
    assert!(job2.is_cancelled(), "run cancel must reach every job");
    assert!(!job2.is_cancelled_directly());
}

/// The VFS seam is behavior-neutral: the same run, once against the real
/// filesystem and once against the deterministic in-memory recorder,
/// leaves byte-identical checkpoint and journal files. This is what
/// makes the crash-matrix findings (recorded on SimFs) transfer to
/// production stores (written through StdFs).
#[test]
fn simfs_and_stdfs_produce_byte_identical_durability_files() {
    use std::sync::Arc;
    use voltspec::guard::vfs::{SimFs, VfsHandle};

    let config = tiny_config();

    // Real filesystem.
    let std_ckpt = scratch("vfs-parity.ckpt");
    let std_journal = scratch("vfs-parity.journal");
    let _ = std::fs::remove_file(&std_ckpt);
    let _ = std::fs::remove_file(&std_journal);
    let on_std = FleetRunner::new(config.clone(), 2)
        .with_checkpoint(std_ckpt.clone())
        .with_journal(std_journal.clone())
        .run()
        .unwrap();

    // Simulated filesystem, same protocol.
    let sim = Arc::new(SimFs::new());
    let vfs: VfsHandle = Arc::clone(&sim) as VfsHandle;
    let dir = std::path::Path::new("/vsim/run");
    vfs.create_dir_all(dir).unwrap();
    let sim_ckpt = dir.join("vfs-parity.ckpt");
    let sim_journal = dir.join("vfs-parity.journal");
    let on_sim = FleetRunner::new(config, 2)
        .with_vfs(vfs)
        .with_checkpoint(sim_ckpt.clone())
        .with_journal(sim_journal.clone())
        .run()
        .unwrap();
    assert_eq!(on_std.summaries, on_sim.summaries);

    let image = sim.snapshot();
    assert_eq!(
        std::fs::read(&std_ckpt).unwrap(),
        image.files[&sim_ckpt],
        "checkpoint bytes must not depend on the filesystem backend"
    );
    assert_eq!(
        std::fs::read(&std_journal).unwrap(),
        image.files[&sim_journal],
        "journal bytes must not depend on the filesystem backend"
    );
}

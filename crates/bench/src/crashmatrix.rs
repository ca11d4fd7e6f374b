//! Crash-consistency model checking of the fleet store.
//!
//! The checker has three parts, ALICE-style. *Record*: run a sweep
//! through the real [`FleetRunner`] — journal appends, periodic
//! checkpoint saves with journal truncation, the final save — against
//! a [`SimFs`] that numbers every filesystem mutation. *Enumerate*:
//! every operation index under every pending-data fate, plus
//! torn-prefix variants of each write
//! ([`vs_guard::crashcheck::enumerate`]). *Check*: for each crash point,
//! materialize the disk image a reboot would find, run the exact boot
//! recovery `vs-fleetd` runs ([`FleetStore::boot_recover`] — fsck scrub
//! in repair mode, then streaming compaction), and test the durability
//! invariants below. A violating matrix is shrunk to the smallest chip
//! count that still violates and its earliest violating crash point.
//!
//! Invariants checked at every crash point:
//!
//! 1. recovery never panics and never fails on a materialized image;
//! 2. every journal-acked chip (the `ack chip=N` mark lands only after
//!    the record is fsynced) survives recovery byte-equal;
//! 3. recovery through compaction equals the lenient
//!    checkpoint-plus-journal merge that never compacts;
//! 4. a second boot is a no-op: no further repairs, no byte changes;
//! 5. every surviving store file's header fingerprint matches its name.
//!
//! Everything here is deterministic in the config: the recorded
//! operation stream, the enumerated points, and every violation string
//! are byte-identical for any worker count.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vs_fleet::{load_checkpoint_report_on, ChipSummary, FleetConfig, FleetRunner};
use vs_fleetd::FleetStore;
use vs_guard::crashcheck::{self, CrashFinding, CrashPoint};
use vs_guard::vfs::{SimFs, SimImage, SimOp, VfsHandle};
use vs_types::{FleetSeed, SimTime};

/// The simulated store directory every recorded workload writes under.
/// Paths are simulation-internal, so output referencing them is stable
/// across machines.
pub(crate) const SIM_STORE: &str = "/vsim/store";

/// How many chip completions the recorded sweep batches between
/// checkpoint saves. Smaller than the runner's default of 32, so a
/// handful of chips already crosses several save-and-truncate cycles.
const CHECKPOINT_EVERY: u64 = 4;

/// The quick-scale fleet config every crash-matrix run uses: small dies
/// and short runs, so recording a workload costs milliseconds while the
/// durability protocol stays byte-for-byte the production one.
pub fn matrix_config(seed: u64, chips: u64) -> FleetConfig {
    let mut config = FleetConfig::small(FleetSeed(seed), chips);
    config.run_duration = SimTime::from_millis(400);
    config
}

/// A recorded store workload, ready for crash-point exploration.
#[derive(Debug)]
pub struct Recording {
    /// The recording filesystem: interrogate [`SimFs::ops`],
    /// [`SimFs::marks`], and [`SimFs::crash_image`].
    pub sim: Arc<SimFs>,
    /// What every simulated chip must look like after any recovery,
    /// keyed by chip id.
    pub expected: BTreeMap<u64, ChipSummary>,
    /// The config fingerprint naming the store's checkpoint/journal pair.
    pub fingerprint: u64,
}

impl Recording {
    /// The recorded sweep's checkpoint path.
    pub(crate) fn checkpoint_path(&self) -> PathBuf {
        Path::new(SIM_STORE).join(format!("{:016x}.ckpt", self.fingerprint))
    }

    /// The recorded sweep's journal path.
    pub(crate) fn journal_path(&self) -> PathBuf {
        Path::new(SIM_STORE).join(format!("{:016x}.journal", self.fingerprint))
    }

    /// A deterministic ` (label)` suffix describing the operation a
    /// crash point interrupts — empty for the pristine point 0.
    pub fn op_suffix(&self, point: &CrashPoint) -> String {
        let ops = self.sim.ops();
        match usize::try_from(point.op) {
            Ok(k) if k >= 1 && k <= ops.len() => format!(" ({})", ops[k - 1].label()),
            _ => String::new(),
        }
    }
}

/// Records a one-worker sweep of `config` through the real
/// [`FleetRunner`] onto a fresh [`SimFs`]: journal create, per-chip
/// fsynced appends (each followed by an `ack chip=N` mark), a checkpoint
/// save plus journal truncation every `CHECKPOINT_EVERY` chips, and the
/// final save plus truncation.
///
/// A fault-free `SimFs` cannot fail, so recording errors are programmer
/// errors and panic.
pub fn record(config: &FleetConfig) -> Recording {
    let sim = Arc::new(SimFs::new());
    let vfs: VfsHandle = Arc::clone(&sim) as VfsHandle;
    vfs.create_dir_all(Path::new(SIM_STORE))
        .expect("SimFs mkdir");
    let mut rec = Recording {
        sim,
        expected: BTreeMap::new(),
        fingerprint: config.fingerprint(),
    };
    let result = FleetRunner::new(config.clone(), 1)
        .with_vfs(vfs)
        .with_checkpoint(rec.checkpoint_path())
        .with_journal(rec.journal_path())
        .with_checkpoint_every(CHECKPOINT_EVERY)
        .run()
        .expect("recorded sweep");
    assert!(result.degradation.is_clean(), "{}", result.degradation);
    rec.expected = result
        .summaries
        .into_iter()
        .map(|s| (s.chip.0, s))
        .collect();
    rec
}

/// Checks every store invariant at one crash point of a recording.
/// Returns `None` when recovery holds and `Some(violation)` with a
/// deterministic description otherwise. Recovery panics are caught and
/// reported as violations — the explorer must survive every image.
pub fn check(rec: &Recording, point: &CrashPoint) -> Option<String> {
    let image = rec.sim.crash_image(point);
    // Chips acked at or before the crash: their `ack chip=N` mark was
    // recorded only after the journal append fsynced, so they must
    // survive recovery under every pending-data fate.
    let acked: Vec<u64> = rec
        .sim
        .marks()
        .iter()
        .filter(|(at, _)| *at <= point.op)
        .filter_map(|(_, label)| label.strip_prefix("ack chip=")?.parse().ok())
        .collect();
    match std::panic::catch_unwind(AssertUnwindSafe(|| check_image(rec, &image, &acked))) {
        Ok(verdict) => verdict,
        Err(payload) => Some(format!("recovery panicked: {}", panic_text(&payload))),
    }
}

/// Extracts the panic message from a caught payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// The invariant battery proper, run against one materialized image.
fn check_image(rec: &Recording, image: &SimImage, acked: &[u64]) -> Option<String> {
    let dir = Path::new(SIM_STORE);
    let ckpt = rec.checkpoint_path();
    let jpath = rec.journal_path();
    let fp = rec.fingerprint;

    // Boot 1: the exact recovery vs-fleetd runs — fsck scrub in repair
    // mode, then streaming compaction of every surviving pair.
    let boot = Arc::new(SimFs::from_image(image));
    let vfs: VfsHandle = Arc::clone(&boot) as VfsHandle;
    let store = match FleetStore::open_on(&vfs, dir) {
        Ok(store) => store,
        Err(e) => return Some(format!("store open failed: {e}")),
    };
    let recovery = match store.boot_recover() {
        Ok(recovery) => recovery,
        Err(e) => return Some(format!("boot recovery failed: {e}")),
    };
    let quarantined = recovery.quarantined.contains(&fp);

    // Invariant 2: journal-acked chips survive, byte-equal.
    if !acked.is_empty() {
        if quarantined {
            return Some(format!(
                "sweep with {} acked chip(s) was quarantined",
                acked.len()
            ));
        }
        let load = match load_checkpoint_report_on(&vfs, &ckpt, fp) {
            Ok(load) => load,
            Err(e) => {
                return Some(format!(
                    "{} acked chip(s) but recovered checkpoint unreadable: {e}",
                    acked.len()
                ))
            }
        };
        for &chip in acked {
            let Some(found) = load.summaries.iter().find(|s| s.chip.0 == chip) else {
                return Some(format!("acked chip {chip} missing after recovery"));
            };
            if Some(found) != rec.expected.get(&chip) {
                return Some(format!("acked chip {chip} recovered with different bytes"));
            }
        }
    }

    // Invariant 3: recovery through compaction equals the lenient
    // checkpoint-plus-journal merge that never compacts. Only testable
    // when the pre-repair pair is loadable at all (otherwise the scrub's
    // repair/quarantine verdicts — covered above — define the outcome).
    if !quarantined {
        let pre = Arc::new(SimFs::from_image(image));
        let prevfs: VfsHandle = Arc::clone(&pre) as VfsHandle;
        let base = load_checkpoint_report_on(&prevfs, &ckpt, fp);
        let tail = load_checkpoint_report_on(&prevfs, &jpath, fp);
        if let (Ok(base), Ok(tail)) = (base, tail) {
            let mut merged = base.summaries;
            for summary in tail.summaries {
                match merged.iter_mut().find(|m| m.chip == summary.chip) {
                    Some(slot) => *slot = summary,
                    None => merged.push(summary),
                }
            }
            merged.sort_by_key(|s| s.chip);
            let after = load_checkpoint_report_on(&vfs, &ckpt, fp)
                .map(|l| l.summaries)
                .unwrap_or_default();
            if after != merged {
                return Some(format!(
                    "compacted recovery has {} chip(s), lenient journal merge has {}",
                    after.len(),
                    merged.len()
                ));
            }
        }
    }

    // Invariant 4: recovery is idempotent — a second boot from the
    // recovered bytes repairs nothing and changes nothing.
    let settled = boot.snapshot();
    let again = Arc::new(SimFs::from_image(&settled));
    let vfs2: VfsHandle = Arc::clone(&again) as VfsHandle;
    let store2 = match FleetStore::open_on(&vfs2, dir) {
        Ok(store) => store,
        Err(e) => return Some(format!("second boot open failed: {e}")),
    };
    match store2.boot_recover() {
        Ok(second) => {
            if second.scrub.repairs() > 0 || !second.quarantined.is_empty() {
                return Some(format!(
                    "second boot repaired again ({} repairs, {} quarantined)",
                    second.scrub.repairs(),
                    second.quarantined.len()
                ));
            }
            if again.snapshot() != settled {
                return Some("second boot changed the store bytes".into());
            }
        }
        Err(e) => return Some(format!("second boot failed: {e}")),
    }

    // Invariant 5: every surviving store file agrees with its name.
    let listing = match vfs.read_dir_sorted(dir) {
        Ok(listing) => listing,
        Err(e) => return Some(format!("recovered store unlistable: {e}")),
    };
    for path in listing {
        let (Some(stem), Some(ext)) = (
            path.file_stem().and_then(|s| s.to_str()),
            path.extension().and_then(|s| s.to_str()),
        ) else {
            continue;
        };
        if ext != "ckpt" && ext != "journal" {
            continue;
        }
        let Ok(named) = u64::from_str_radix(stem, 16) else {
            continue;
        };
        match vs_fleet::read_fingerprint_on(&vfs, &path) {
            Ok(found) if found == named => {}
            Ok(found) => {
                return Some(format!(
                    "recovered {} has fingerprint {found:016x} inside",
                    path.display()
                ))
            }
            Err(e) => return Some(format!("recovered {} unreadable: {e}", path.display())),
        }
    }

    None
}

/// Enumerates and checks every crash point of a recording across
/// `workers` threads. Returns the point count and the (index-sorted,
/// worker-count-invariant) findings.
pub fn explore_recording(rec: &Recording, workers: usize) -> (usize, Vec<CrashFinding>) {
    let points = crashcheck::enumerate(&rec.sim);
    let findings = crashcheck::explore(&points, workers, |point| check(rec, point));
    (points.len(), findings)
}

/// Shrinks a violating matrix to a minimal reproducer: the smallest
/// chip count whose recorded sweep still violates, its chips, its
/// recording, and its earliest violating crash point.
///
/// Each candidate re-records a sweep of `0..n` chips and re-explores its
/// full matrix — pure in `(config, n)`, so the reproducer is
/// byte-identical for any worker count.
///
/// # Panics
///
/// Panics if `config`'s own matrix has no violation (the caller shrinks
/// only after finding one).
pub fn shrink(config: &FleetConfig, workers: usize) -> (Vec<u64>, Recording, CrashFinding) {
    (1..=config.num_chips)
        .find_map(|chips| {
            let mut sized = config.clone();
            sized.num_chips = chips;
            let rec = record(&sized);
            let first = explore_recording(&rec, workers).1.into_iter().next()?;
            Some(((0..chips).collect(), rec, first))
        })
        .expect("the full sweep violates")
}

/// Counts the write barriers (syncs) in a recording — a cheap smoke
/// signal that the recorded protocol actually fsyncs.
pub fn sync_ops(rec: &Recording) -> usize {
    rec.sim
        .ops()
        .iter()
        .filter(|op| matches!(op, SimOp::Sync(_) | SimOp::SyncDir(_)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_is_deterministic() {
        let config = matrix_config(11, 5);
        let a = record(&config);
        let b = record(&config);
        let labels =
            |r: &Recording| -> Vec<String> { r.sim.ops().iter().map(|op| op.label()).collect() };
        assert_eq!(labels(&a), labels(&b));
        assert_eq!(a.sim.marks(), b.sim.marks());
        assert!(sync_ops(&a) >= 5, "every journal append fsyncs");
        assert_eq!(a.expected.len(), 5, "every chip is expected after recovery");
    }

    #[test]
    #[cfg_attr(
        feature = "planted-crash",
        ignore = "the planted bug violates by design"
    )]
    fn clean_matrix_has_no_violations() {
        let config = matrix_config(7, 5);
        let rec = record(&config);
        let (points, findings) = explore_recording(&rec, 2);
        assert!(
            points > 50,
            "a 5-chip workload enumerates many points, got {points}"
        );
        assert_eq!(
            findings
                .iter()
                .map(|f| format!("[{}] {}: {}", f.index, f.point, f.violation))
                .collect::<Vec<_>>(),
            Vec::<String>::new()
        );
    }

    #[test]
    #[cfg(feature = "planted-crash")]
    fn planted_fsync_bug_is_caught_and_shrunk() {
        let config = matrix_config(7, 5);
        let rec = record(&config);
        let (_, findings) = explore_recording(&rec, 2);
        assert!(
            !findings.is_empty(),
            "skipping fsync-before-rename must violate durability"
        );
        let (chips1, _, first1) = shrink(&config, 1);
        let (chips4, _, first4) = shrink(&config, 4);
        assert_eq!(
            chips1, chips4,
            "reproducer chip set is worker-count invariant"
        );
        assert_eq!(first1.point, first4.point);
        assert_eq!(first1.violation, first4.violation);
    }
}

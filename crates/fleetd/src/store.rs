//! The daemon's persistent fleet store.
//!
//! One directory holds the durable results of every configuration the
//! daemon has ever run, keyed by [`FleetConfig::fingerprint`]: each
//! config owns a `<fingerprint>.ckpt` checkpoint and a
//! `<fingerprint>.journal` write-ahead journal, both in the formats
//! `vs-fleet` already speaks. A job for a config the store has seen
//! before resumes where the last one stopped — that falls out of the
//! runner's own checkpoint/journal replay; the store just pins the
//! paths.
//!
//! On startup [`FleetStore::boot_recover`] runs the fsck scrub in
//! repair mode (orphan temps removed, torn journal tails truncated,
//! unrecoverable files quarantined), then folds every journal into its
//! checkpoint with the streaming compaction pass
//! ([`vs_fleet::compact_streaming_on`]) — absorbing whatever a
//! SIGKILL'd predecessor left behind without ever loading a whole fleet
//! into memory. A pair that still cannot compact after repair is moved
//! to `<store>/quarantine/` instead of killing the boot.
//!
//! Every path goes through the [`Vfs`](vs_guard::vfs::Vfs) seam, so the
//! crash-consistency checker can boot a store from a simulated crash
//! image and watch exactly this recovery run.

use crate::fsck::{self, ScrubReport};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vs_fleet::{
    checkpoint_chips_on, compact_streaming_on, CheckpointError, CompactionReport, FleetConfig,
};
use vs_guard::durable::quarantine;
use vs_guard::vfs::{self, VfsHandle};

/// Monotonic counters the store's scrub and recovery paths bump, read
/// by the scheduler's metrics snapshot. Shared across [`FleetStore`]
/// clones (the scheduler clones the store into worker threads).
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// Scrub passes completed (boot and on-demand).
    pub scrub_runs: AtomicU64,
    /// Issues found across all scrubs.
    pub scrub_issues: AtomicU64,
    /// Issues repaired in place across all scrubs.
    pub scrub_repairs: AtomicU64,
    /// Sweeps moved to quarantine (by scrub or boot compaction).
    pub quarantined_sweeps: AtomicU64,
}

/// The outcome of a boot-time recovery pass.
#[derive(Debug)]
pub struct BootRecovery {
    /// What the repair scrub found and fixed.
    pub scrub: ScrubReport,
    /// One compaction report per pair that had a journal.
    pub compactions: Vec<CompactionReport>,
    /// Fingerprints quarantined because compaction still failed after
    /// repair (in addition to any the scrub itself quarantined).
    pub quarantined: Vec<u64>,
}

/// A directory of per-configuration checkpoint/journal pairs.
#[derive(Debug, Clone)]
pub struct FleetStore {
    dir: PathBuf,
    vfs: VfsHandle,
    counters: Arc<StoreCounters>,
}

impl FleetStore {
    /// Opens (creating if needed) a store rooted at `dir` on the real
    /// filesystem.
    pub fn open(dir: &Path) -> io::Result<FleetStore> {
        FleetStore::open_on(&vfs::std_fs(), dir)
    }

    /// [`FleetStore::open`] against an explicit filesystem backend.
    pub fn open_on(vfs: &VfsHandle, dir: &Path) -> io::Result<FleetStore> {
        vfs.create_dir_all(dir)?;
        Ok(FleetStore {
            dir: dir.to_path_buf(),
            vfs: VfsHandle::clone(vfs),
            counters: Arc::new(StoreCounters::default()),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filesystem backend this store reads and writes through.
    pub fn vfs(&self) -> &VfsHandle {
        &self.vfs
    }

    /// The store's scrub/quarantine counters (shared across clones).
    pub fn counters(&self) -> &Arc<StoreCounters> {
        &self.counters
    }

    /// The checkpoint path owned by `config`.
    pub fn checkpoint_path(&self, config: &FleetConfig) -> PathBuf {
        self.dir.join(format!("{:016x}.ckpt", config.fingerprint()))
    }

    /// The journal path owned by `config`.
    pub fn journal_path(&self, config: &FleetConfig) -> PathBuf {
        self.dir
            .join(format!("{:016x}.journal", config.fingerprint()))
    }

    /// Runs the fsck scrub over the store, bumping the scrub counters.
    /// With `repair` set, fixes what is safe and quarantines what is
    /// not; otherwise only reports.
    pub fn scrub(&self, repair: bool) -> io::Result<ScrubReport> {
        let report = fsck::scrub(&self.vfs, &self.dir, repair)?;
        self.counters.scrub_runs.fetch_add(1, Ordering::Relaxed);
        self.counters
            .scrub_issues
            .fetch_add(report.issues.len() as u64, Ordering::Relaxed);
        self.counters
            .scrub_repairs
            .fetch_add(report.repairs(), Ordering::Relaxed);
        self.counters
            .quarantined_sweeps
            .fetch_add(report.quarantined_sweeps.len() as u64, Ordering::Relaxed);
        Ok(report)
    }

    /// The journals currently in the store, path-sorted.
    fn journals(&self) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .vfs
            .read_dir_sorted(&self.dir)?
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "journal"))
            .collect())
    }

    /// Folds every journal into its checkpoint (streaming, O(journal
    /// window) memory). Call once at startup, before workers run: a
    /// SIGKILL'd predecessor's journals become checkpoint records, and
    /// every pair is left with an empty journal. Returns one report per
    /// configuration that had a journal.
    ///
    /// Prefer [`boot_recover`](FleetStore::boot_recover), which scrubs
    /// first and quarantines pairs this pass would die on.
    pub fn recover(&self) -> Result<Vec<CompactionReport>, CheckpointError> {
        let mut reports = Vec::new();
        for journal in self.journals()? {
            let ckpt = journal.with_extension("ckpt");
            reports.push(compact_streaming_on(&self.vfs, &ckpt, &journal)?);
        }
        Ok(reports)
    }

    /// Boot-time recovery: scrub in repair mode, then compact every
    /// pair. A pair whose compaction still fails with a *format*
    /// problem after repair is quarantined — the daemon boots on the
    /// healthy remainder instead of dying — while real I/O errors stay
    /// fatal (a disk that cannot read is not a store to serve from).
    pub fn boot_recover(&self) -> Result<BootRecovery, CheckpointError> {
        let scrub = self.scrub(true)?;
        let mut compactions = Vec::new();
        let mut quarantined = Vec::new();
        for journal in self.journals()? {
            let ckpt = journal.with_extension("ckpt");
            match compact_streaming_on(&self.vfs, &ckpt, &journal) {
                Ok(report) => compactions.push(report),
                Err(CheckpointError::Io(e)) => return Err(CheckpointError::Io(e)),
                Err(_) => {
                    let fp = journal
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .unwrap_or(0);
                    for path in [&ckpt, &journal] {
                        if self.vfs.exists(path) {
                            quarantine(&*self.vfs, &self.dir, path)?;
                        }
                    }
                    self.counters
                        .quarantined_sweeps
                        .fetch_add(1, Ordering::Relaxed);
                    quarantined.push(fp);
                }
            }
        }
        Ok(BootRecovery {
            scrub,
            compactions,
            quarantined,
        })
    }

    /// Total chip records across every checkpoint in the store, counted
    /// streaming. Journal records not yet compacted are not included;
    /// after [`recover`](FleetStore::recover) there are none.
    pub fn stored_chips(&self) -> u64 {
        let Ok(entries) = self.vfs.read_dir_sorted(&self.dir) else {
            return 0;
        };
        let mut total = 0;
        for path in entries {
            if path.extension().is_some_and(|e| e == "ckpt") {
                total += checkpoint_chips_on(&self.vfs, &path).unwrap_or(0);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use vs_fleet::FleetRunner;
    use vs_types::FleetSeed;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("vs-fleetd-store-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn recover_absorbs_journals_and_counts_chips() {
        let dir = scratch("recover");
        let store = FleetStore::open(&dir).unwrap();
        let config = FleetConfig::small(FleetSeed(99), 3);
        // A run that journals but is "killed" before compacting: simulate
        // by running with a journal and no checkpoint saves mid-run, then
        // deleting the checkpoint the runner compacted into.
        let ckpt = store.checkpoint_path(&config);
        let journal = store.journal_path(&config);
        let runner = FleetRunner::new(config.clone(), 2)
            .with_checkpoint(ckpt.clone())
            .with_journal(journal.clone());
        let result = runner.run().unwrap();
        assert_eq!(result.summaries.len(), 3);
        assert_eq!(store.stored_chips(), 3);

        // Startup recovery over an already-compacted pair is a no-op.
        let reports = store.recover().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].chips, 3);
        assert_eq!(reports[0].merged, 0);
        assert_eq!(store.stored_chips(), 3);
    }

    #[test]
    fn boot_recover_repairs_a_torn_tail_and_keeps_acked_chips() {
        let dir = scratch("boot-torn");
        let store = FleetStore::open(&dir).unwrap();
        let config = FleetConfig::small(FleetSeed(5), 2);
        let journal = store.journal_path(&config);
        let runner = FleetRunner::new(config.clone(), 1).with_journal(journal.clone());
        runner.run().unwrap();
        // Tear the journal's final line mid-append.
        let mut text = fs::read_to_string(&journal).unwrap();
        let keep = text.trim_end().rfind('\n').unwrap() + 1 + 4;
        text.truncate(keep);
        fs::write(&journal, &text).unwrap();

        let recovery = store.boot_recover().unwrap();
        assert_eq!(recovery.scrub.repairs(), 1, "{}", recovery.scrub);
        assert!(recovery.quarantined.is_empty());
        assert_eq!(recovery.compactions.len(), 1);
        // One chip's append was torn — exactly that record is lost, the
        // other survives into the checkpoint.
        assert_eq!(store.stored_chips(), 1);
        let snap = &store.counters();
        assert_eq!(snap.scrub_runs.load(Ordering::Relaxed), 1);
        assert!(snap.scrub_issues.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn non_utf8_store_files_never_panic() {
        // A corrupt store (bit rot, disk scribbles) must flow through
        // typed paths end to end: counting skips the file, boot
        // recovery quarantines it, nothing unwraps raw bytes.
        let dir = scratch("non-utf8");
        let store = FleetStore::open(&dir).unwrap();
        let ckpt = dir.join("00000000000000cc.ckpt");
        fs::write(&ckpt, [0xFF, 0xFE, 0x00, 0x9F, 0x92, 0x96]).unwrap();
        assert_eq!(store.stored_chips(), 0);
        let recovery = store.boot_recover().unwrap();
        assert_eq!(recovery.scrub.quarantined_sweeps, vec![0xCC]);
        assert!(!ckpt.exists());
        assert!(dir
            .join("quarantine")
            .join("00000000000000cc.ckpt")
            .exists());
    }

    #[test]
    fn boot_recover_quarantines_what_repair_cannot_save() {
        let dir = scratch("boot-quarantine");
        let store = FleetStore::open(&dir).unwrap();
        // A journal whose header fingerprint contradicts its file name:
        // not mechanically repairable, not compactable.
        let rogue = dir.join("00000000000000aa.journal");
        fs::write(&rogue, vs_fleet::store_header(0xBB)).unwrap();
        let recovery = store.boot_recover().unwrap();
        assert_eq!(recovery.scrub.quarantined_sweeps, vec![0xAA]);
        assert!(!rogue.exists());
        assert!(dir
            .join("quarantine")
            .join("00000000000000aa.journal")
            .exists());
        assert_eq!(
            store.counters().quarantined_sweeps.load(Ordering::Relaxed),
            1
        );
        // The store still boots clean afterwards.
        let again = store.boot_recover().unwrap();
        assert!(again.scrub.clean(), "{}", again.scrub);
    }

    #[test]
    fn v1_checkpoint_is_quarantined_and_the_rerun_matches_a_clean_store() {
        let config = FleetConfig::small(FleetSeed(41), 3);
        let clean = FleetStore::open(&scratch("v1-clean")).unwrap();
        FleetRunner::new(config.clone(), 1)
            .with_checkpoint(clean.checkpoint_path(&config))
            .run()
            .unwrap();
        let expected = fs::read_to_string(clean.checkpoint_path(&config)).unwrap();

        // The same sweep in the retired v1 format: its own magic, and a
        // trailing ` crc=` field on each unframed record.
        let store = FleetStore::open(&scratch("v1-store")).unwrap();
        let ckpt = store.checkpoint_path(&config);
        let mut v1 = format!(
            "voltspec-fleet-checkpoint v1\nfingerprint {:016x}\n",
            config.fingerprint()
        );
        for line in expected.lines().skip(2) {
            let body = vs_guard::unframe(line).unwrap();
            v1.push_str(&format!(
                "{body} crc={:08x}\n",
                vs_guard::crc32(body.as_bytes())
            ));
        }
        fs::write(&ckpt, v1).unwrap();

        let recovery = store.boot_recover().unwrap();
        assert_eq!(
            recovery.scrub.quarantined_sweeps,
            vec![config.fingerprint()],
            "{}",
            recovery.scrub
        );
        assert!(!ckpt.exists());
        FleetRunner::new(config.clone(), 1)
            .with_checkpoint(ckpt.clone())
            .run()
            .unwrap();
        assert_eq!(fs::read_to_string(&ckpt).unwrap(), expected);
    }
}

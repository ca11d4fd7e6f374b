//! The one durability path for whole-file writes and quarantine moves.
//!
//! Every file the stack replaces as a whole — checkpoints, compacted
//! checkpoints, postmortem bundles, fsck repairs, the daemon's admission
//! probe — goes through [`atomic_write`]: temp file, fsync, rename, then a
//! best-effort fsync of the parent directory. A crash at any instant
//! leaves either the previous file or the new one, never a mix, and at
//! worst an orphan `*.tmp.*` file that `fleetd fsck` removes. Damaged
//! files are moved aside with [`quarantine`] instead of being deleted.
//!
//! Append-only journals are the one durable writer not built here: their
//! records are made durable one `fsync` at a time by
//! [`crate::JournalWriter`].

use crate::fsfault::{short_write_error, WriteFault};
use crate::vfs::{OpenMode, Vfs};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-wide counter making every temp-file name unique: two writers
/// targeting sibling paths (or the same path, racing) never clobber each
/// other's in-flight temp file.
static TEMP_SERIAL: AtomicU64 = AtomicU64::new(0);

/// The temp path one [`atomic_write`] of `path` uses: `<path>.tmp.<tag>`.
/// A backend with a deterministic [`Vfs::temp_tag`] (SimFs) names by its
/// own counter so recorded operation streams are byte-identical across
/// processes; the production backend uses `<pid>.<serial>`.
fn temp_path(vfs: &dyn Vfs, path: &Path) -> PathBuf {
    let tag = vfs.temp_tag().unwrap_or_else(|| {
        let serial = TEMP_SERIAL.fetch_add(1, Ordering::Relaxed);
        format!("{}.{serial}", std::process::id())
    });
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(format!(".tmp.{tag}"));
    path.with_file_name(name)
}

/// Atomically and durably replaces `path` with whatever `fill` writes.
///
/// `fill` streams the content into a uniquely named sibling temp file
/// (so a large checkpoint is never held in memory). The temp file is then
/// fsynced and renamed over `path`, and the parent directory is fsynced,
/// best-effort, so the rename itself survives a crash. After `Ok` the new
/// content is durable; after any error `path` is untouched and the temp
/// file is gone.
///
/// The fault plan of `vfs` is consulted once for the write, keyed on the
/// final `path` (so torture scopes match the store directory, not the
/// temp name), and once for the fsync. An injected ENOSPC or short write
/// fails before anything is created.
pub fn atomic_write(
    vfs: &dyn Vfs,
    path: &Path,
    fill: impl FnOnce(&mut dyn io::Write) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = temp_path(vfs, path);
    if let WriteFault::Short(_) = vfs.faults().write_fault(path, 0)? {
        return Err(short_write_error());
    }
    let result = (|| {
        let mut file = vfs.open_write(&tmp, OpenMode::Truncate)?;
        fill(&mut file)?;
        file.flush()?;
        vfs.faults().sync_fault(path)?;
        // The fsync-before-rename is what makes the rename safe: without
        // it, a crash after the (metadata-durable) rename can expose a
        // file whose *content* never reached the platters. The
        // `planted-crash` feature removes the barrier so the crash matrix
        // can prove it catches exactly this bug.
        #[cfg(not(feature = "planted-crash"))]
        file.sync_all()?;
        drop(file);
        vfs.rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = vfs.remove_file(&tmp);
        return result;
    }
    // Best-effort: directory fsync is not portable, and a failure here
    // cannot lose content (the file itself is synced), only the rename.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let _ = vfs.sync_dir(parent);
    }
    Ok(())
}

/// Moves `path` into `<store_dir>/quarantine/` (created if needed) and
/// syncs that directory, preserving a damaged file as evidence while
/// taking it out of the store.
pub fn quarantine(vfs: &dyn Vfs, store_dir: &Path, path: &Path) -> io::Result<()> {
    let qdir = store_dir.join("quarantine");
    vfs.create_dir_all(&qdir)?;
    let name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    vfs.rename(path, &qdir.join(name))?;
    let _ = vfs.sync_dir(&qdir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsfault::FsFaultPlan;
    use crate::vfs::{CrashPoint, PendingMode, SimFs};

    fn store() -> (SimFs, PathBuf) {
        let sim = SimFs::new();
        let dir = PathBuf::from("/vsim/store");
        sim.create_dir_all(&dir).unwrap();
        (sim, dir)
    }

    #[test]
    #[cfg_attr(
        feature = "planted-crash",
        ignore = "the planted bug drops the fsync-before-rename by design"
    )]
    fn every_crash_point_sees_the_old_or_the_new_file() {
        let (sim, dir) = store();
        let path = dir.join("x.ckpt");
        atomic_write(&sim, &path, |w| w.write_all(b"old")).unwrap();
        let base = sim.mutations();
        atomic_write(&sim, &path, |w| w.write_all(b"new content")).unwrap();
        assert_eq!(sim.read(&path).unwrap(), b"new content");
        for op in base..=sim.mutations() {
            for pending in [PendingMode::Dropped, PendingMode::Retained] {
                let image = sim.crash_image(&CrashPoint { op, pending });
                let found = &image.files[&path];
                assert!(
                    found == b"old" || found == b"new content",
                    "op {op} {pending}: {found:?}"
                );
            }
        }
        let listing = sim.read_dir_sorted(&dir).unwrap();
        assert_eq!(listing, vec![path], "no temp file survives a save");
    }

    #[test]
    fn temp_names_are_unique_per_write() {
        let std = crate::vfs::std_fs();
        let target = Path::new("/tmp/x.ckpt");
        let (a, b) = (temp_path(&*std, target), temp_path(&*std, target));
        assert_ne!(a, b, "every write gets its own temp file");
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("x.ckpt.tmp."), "{name}");
        let (sim, _) = store();
        assert_eq!(temp_path(&sim, target), Path::new("/tmp/x.ckpt.tmp.sim1"));
    }

    #[test]
    fn failures_leave_the_old_file_and_no_temp() {
        let (sim, dir) = store();
        let path = dir.join("x.ckpt");
        atomic_write(&sim, &path, |w| w.write_all(b"old")).unwrap();
        sim.faults().install(
            &dir,
            FsFaultPlan {
                enospc: 1,
                short_writes: 1,
                fsync_failures: 1,
            },
        );
        let errors: Vec<String> = (0..3)
            .map(|_| {
                atomic_write(&sim, &path, |w| w.write_all(b"new"))
                    .unwrap_err()
                    .to_string()
            })
            .collect();
        assert!(errors[0].contains("no space left"), "{errors:?}");
        assert!(errors[1].contains("short write"), "{errors:?}");
        assert!(errors[2].contains("fsync failed"), "{errors:?}");
        // A failing `fill` is cleaned up the same way.
        let err = atomic_write(&sim, &path, |_| Err(io::Error::other("fill failed")));
        assert!(err.is_err());
        assert_eq!(sim.read(&path).unwrap(), b"old");
        assert_eq!(sim.read_dir_sorted(&dir).unwrap(), vec![path]);
        assert_eq!(sim.faults().counters().total(), 3);
    }

    #[test]
    fn quarantine_moves_the_file_aside() {
        let (sim, dir) = store();
        let path = dir.join("bad.journal");
        atomic_write(&sim, &path, |w| w.write_all(b"junk")).unwrap();
        quarantine(&sim, &dir, &path).unwrap();
        assert!(!sim.exists(&path));
        assert_eq!(
            sim.read(&dir.join("quarantine/bad.journal")).unwrap(),
            b"junk"
        );
    }
}

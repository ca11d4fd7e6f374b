//! A minimal virtual filesystem seam for every durability path.
//!
//! The paper's safety argument rests on recovery machinery that is only
//! exercised in corner states; the software analogue is the store's
//! crash-recovery path, which production never exercises until the one
//! moment it must work. This module makes that path *checkable*: all
//! durable writes in the stack (journal appends, checkpoint saves,
//! streaming compaction, postmortem bundles, the fleetd store layout) go
//! through the [`Vfs`] trait instead of `std::fs` directly.
//!
//! Two implementations exist:
//!
//! * `StdFs` — the production backend. Every method is a thin forward
//!   to `std::fs`; the only extra cost over calling `std::fs` directly is
//!   one dynamic dispatch, and its fault hook is a single relaxed atomic
//!   load when no fault plan is installed. Each handle owns its fault
//!   state, so a plan installed on one store's handle never reaches
//!   another's writes.
//! * [`SimFs`] — a deterministic in-memory filesystem that records every
//!   mutation as a numbered operation ([`SimOp`]) and can materialize the
//!   disk image as of any [`CrashPoint`]: any operation index, with the
//!   not-yet-fsynced data dropped ([`PendingMode::Dropped`]), retained
//!   ([`PendingMode::Retained`]), or torn mid-write
//!   ([`PendingMode::Torn`], a durable prefix of the crashed write).
//!
//! The crash model follows ordered-metadata journaling filesystems
//! (ext4-ordered and friends): metadata operations (create, rename,
//! remove, mkdir) are durable at apply time, while file *data* written
//! since the last fsync lives in a per-file pending buffer that a crash
//! may or may not persist. `fsync` promotes a file's pending bytes to
//! durable. This is deliberately the adversarial model ALICE-style
//! checkers use: if recovery survives both extremes (all pending lost,
//! all pending kept) plus torn prefixes of the final write, it survives
//! any subset a real kernel would leave behind.
//!
//! Durability code is written against [`VfsHandle`] (an `Arc<dyn Vfs>`)
//! so a recording [`SimFs`] and the real `StdFs` are interchangeable;
//! whole-file writes and quarantine moves go through [`crate::durable`].

use crate::fsfault::FaultState;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// How [`Vfs::open_write`] positions the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Create the file, truncating any existing content.
    Truncate,
    /// Open an existing file and append after its current content.
    Append,
}

/// A writable file handle from a [`Vfs`].
///
/// Extends [`io::Write`] with the two durability barriers the stack
/// uses. The distinction matters to the crash model: data written but
/// not yet synced is exactly what a crash may lose.
pub trait VfsFile: io::Write + Send {
    /// Durability barrier for the file's data (`fdatasync`).
    fn sync(&mut self) -> io::Result<()>;
    /// Durability barrier for data and metadata (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem operations the durability stack needs.
///
/// Deliberately small: open-for-write, whole-file reads, rename, remove,
/// mkdir, directory listing, and directory sync. The durable writers of
/// this crate consult [`Vfs::faults`] before writing (the FaultyFs
/// torture hook), and callers may drop [`Vfs::mark`] labels to tag
/// acknowledgement points in the recorded operation stream.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Opens `path` for writing in the given mode.
    fn open_write(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>>;

    /// Reads the entire file as bytes.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Opens `path` for streaming reads (the compaction path never loads
    /// a whole checkpoint in memory).
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn io::Read + Send>>;

    /// Reads the entire file as UTF-8 text.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let bytes = self.read(path)?;
        String::from_utf8(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file is not valid UTF-8"))
    }

    /// True when `path` names an existing file or directory.
    fn exists(&self, path: &Path) -> bool;

    /// Atomically renames `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// The files directly under `dir`, sorted by path (directories are
    /// not listed). A missing directory is an empty listing.
    fn read_dir_sorted(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Durability barrier for a directory's entries (fsync of the
    /// directory fd) — what makes a completed rename survive a crash.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// The fault-injection state consulted before durable writes.
    fn faults(&self) -> &FaultState;

    /// Tags the current point in the mutation stream with `label`.
    ///
    /// No-op on the production backend; [`SimFs`] records `(ops-so-far,
    /// label)` so a crash-point explorer can compute which
    /// acknowledgements precede any crash point.
    fn mark(&self, _label: &str) {}

    /// A deterministic tag for temp-file naming, if this backend wants
    /// one. `None` (the production default) lets callers fall back to
    /// pid-and-serial names; [`SimFs`] returns a per-instance counter so
    /// recorded operation streams are byte-identical across processes.
    fn temp_tag(&self) -> Option<String> {
        None
    }
}

/// A shared, clonable handle to a [`Vfs`] backend.
pub type VfsHandle = Arc<dyn Vfs>;

/// A new production backend handle with its own, empty fault state.
pub fn std_fs() -> VfsHandle {
    Arc::new(StdFs::default())
}

// ---------------------------------------------------------------------------
// StdFs: the production backend.
// ---------------------------------------------------------------------------

/// The real filesystem. All methods forward to `std::fs`; the handle owns
/// its fault state, which starts with no plan installed.
#[derive(Debug, Default)]
pub(crate) struct StdFs {
    faults: FaultState,
}

#[derive(Debug)]
struct StdFile(File);

impl io::Write for StdFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for StdFile {
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for StdFs {
    fn open_write(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let file = match mode {
            OpenMode::Truncate => File::create(path)?,
            OpenMode::Append => OpenOptions::new().append(true).open(path)?,
        };
        Ok(Box::new(StdFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn io::Read + Send>> {
        Ok(Box::new(File::open(path)?))
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir_sorted(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                files.push(entry.path());
            }
        }
        files.sort();
        Ok(files)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn faults(&self) -> &FaultState {
        &self.faults
    }
}

// ---------------------------------------------------------------------------
// SimFs: deterministic in-memory recording backend.
// ---------------------------------------------------------------------------

/// One recorded filesystem mutation. Indices into the recorded stream
/// are 1-based: operation `k` is the `k`-th mutation applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOp {
    /// Truncating create of a file (metadata: durable at apply).
    Create(PathBuf),
    /// Append of `bytes` to a file's *pending* (un-fsynced) data.
    Write {
        /// The file written.
        path: PathBuf,
        /// The appended bytes.
        bytes: Vec<u8>,
    },
    /// fsync/fdatasync of a file: pending data becomes durable.
    Sync(PathBuf),
    /// Rename (metadata: durable at apply).
    Rename {
        /// Source path.
        from: PathBuf,
        /// Destination path (replaced if present).
        to: PathBuf,
    },
    /// File removal (metadata: durable at apply).
    Remove(PathBuf),
    /// Directory creation (metadata: durable at apply).
    CreateDir(PathBuf),
    /// fsync of a directory (no-op in this model: metadata is already
    /// durable at apply, but the barrier is still a numbered crash
    /// point).
    SyncDir(PathBuf),
}

impl SimOp {
    /// A short deterministic human-readable label (sim paths only).
    pub fn label(&self) -> String {
        match self {
            SimOp::Create(p) => format!("create {}", p.display()),
            SimOp::Write { path, bytes } => {
                format!("write {} ({}B)", path.display(), bytes.len())
            }
            SimOp::Sync(p) => format!("sync {}", p.display()),
            SimOp::Rename { from, to } => {
                format!("rename {} -> {}", from.display(), to.display())
            }
            SimOp::Remove(p) => format!("remove {}", p.display()),
            SimOp::CreateDir(p) => format!("mkdir {}", p.display()),
            SimOp::SyncDir(p) => format!("syncdir {}", p.display()),
        }
    }

    /// For write operations, the payload length (used to enumerate torn
    /// prefixes).
    pub(crate) fn write_len(&self) -> Option<usize> {
        match self {
            SimOp::Write { bytes, .. } => Some(bytes.len()),
            _ => None,
        }
    }
}

/// What happens to not-yet-fsynced data at a crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PendingMode {
    /// All pending (un-fsynced) data is lost; only fsynced bytes and
    /// applied metadata survive.
    Dropped,
    /// All pending data happens to reach the platters anyway (the
    /// kernel flushed it before the crash).
    Retained,
    /// Pending data survives, but the crashed operation — which must be
    /// a [`SimOp::Write`] — lands only its first `n` bytes (a torn
    /// write).
    Torn(usize),
}

impl fmt::Display for PendingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PendingMode::Dropped => write!(f, "dropped"),
            PendingMode::Retained => write!(f, "retained"),
            PendingMode::Torn(n) => write!(f, "torn({n})"),
        }
    }
}

/// A crash point: the image after operations `1..=op` with `pending`
/// deciding the fate of un-fsynced data. `op == 0` is the pristine
/// pre-workload state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Number of recorded operations that completed before the crash
    /// (for [`PendingMode::Torn`], the crashed — partially applied —
    /// operation itself).
    pub op: u64,
    /// Fate of un-fsynced data.
    pub pending: PendingMode,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op={} pending={}", self.op, self.pending)
    }
}

/// A materialized disk image: what a reboot would find.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimImage {
    /// File contents by path.
    pub files: BTreeMap<PathBuf, Vec<u8>>,
    /// Directories present.
    pub dirs: BTreeSet<PathBuf>,
}

#[derive(Debug, Default, Clone)]
struct SimFileState {
    durable: Vec<u8>,
    pending: Vec<u8>,
}

impl SimFileState {
    fn visible(&self) -> Vec<u8> {
        let mut v = self.durable.clone();
        v.extend_from_slice(&self.pending);
        v
    }
}

#[derive(Debug, Default)]
struct SimState {
    files: BTreeMap<PathBuf, SimFileState>,
    dirs: BTreeSet<PathBuf>,
    ops: Vec<SimOp>,
    marks: Vec<(u64, String)>,
    temp_serial: u64,
}

impl SimState {
    /// Applies one mutation to the live view and records it.
    fn apply_and_record(&mut self, op: SimOp) {
        Self::apply(&mut self.files, &mut self.dirs, &op, None);
        self.ops.push(op);
    }

    /// Applies `op` to a (files, dirs) view. `torn` limits a write to a
    /// prefix (crash-replay only; the live view always passes `None`).
    fn apply(
        files: &mut BTreeMap<PathBuf, SimFileState>,
        dirs: &mut BTreeSet<PathBuf>,
        op: &SimOp,
        torn: Option<usize>,
    ) {
        match op {
            SimOp::Create(p) => {
                files.insert(p.clone(), SimFileState::default());
            }
            SimOp::Write { path, bytes } => {
                let f = files.entry(path.clone()).or_default();
                let n = torn.unwrap_or(bytes.len()).min(bytes.len());
                f.pending.extend_from_slice(&bytes[..n]);
            }
            SimOp::Sync(p) => {
                if let Some(f) = files.get_mut(p) {
                    let pending = std::mem::take(&mut f.pending);
                    f.durable.extend_from_slice(&pending);
                }
            }
            SimOp::Rename { from, to } => {
                if let Some(f) = files.remove(from) {
                    files.insert(to.clone(), f);
                }
            }
            SimOp::Remove(p) => {
                files.remove(p);
            }
            SimOp::CreateDir(p) => {
                let mut cur = PathBuf::new();
                for comp in p.components() {
                    cur.push(comp);
                    dirs.insert(cur.clone());
                }
            }
            SimOp::SyncDir(_) => {}
        }
    }
}

/// A deterministic in-memory filesystem that records every mutation.
///
/// Create one with [`SimFs::new`] (empty) or [`SimFs::from_image`] (a
/// rebooted crash image), hand clones of the `Arc` to durability code as
/// a [`VfsHandle`], then interrogate the recording: [`SimFs::mutations`]
/// counts operations, [`SimFs::crash_image`] materializes any crash
/// point, [`SimFs::marks`] returns acknowledgement tags.
#[derive(Debug, Default)]
pub struct SimFs {
    state: Arc<Mutex<SimState>>,
    faults: FaultState,
}

impl SimFs {
    /// An empty simulated filesystem.
    pub fn new() -> SimFs {
        SimFs::default()
    }

    /// A simulated filesystem booted from a crash image: every file in
    /// the image is durable, and the operation log starts empty.
    pub fn from_image(image: &SimImage) -> SimFs {
        let sim = SimFs::new();
        {
            let mut st = sim
                .state
                .lock()
                .expect("SimFs state poisoned: a holder panicked");
            st.dirs = image.dirs.clone();
            for (path, bytes) in &image.files {
                st.files.insert(
                    path.clone(),
                    SimFileState {
                        durable: bytes.clone(),
                        pending: Vec::new(),
                    },
                );
            }
        }
        sim
    }

    /// The number of mutations recorded so far.
    pub fn mutations(&self) -> u64 {
        self.state
            .lock()
            .expect("SimFs state poisoned: a holder panicked")
            .ops
            .len() as u64
    }

    /// The recorded operations, in order (operation `k` is `ops()[k-1]`).
    pub fn ops(&self) -> Vec<SimOp> {
        self.state
            .lock()
            .expect("SimFs state poisoned: a holder panicked")
            .ops
            .clone()
    }

    /// The recorded `(ops-so-far, label)` marks, in order.
    pub fn marks(&self) -> Vec<(u64, String)> {
        self.state
            .lock()
            .expect("SimFs state poisoned: a holder panicked")
            .marks
            .clone()
    }

    /// The disk image a reboot would find at `point`.
    ///
    /// Replays operations `1..=point.op` from scratch; metadata applies
    /// durably, data lands in pending buffers, syncs promote. The final
    /// image keeps only durable bytes ([`PendingMode::Dropped`]) or
    /// durable plus pending ([`PendingMode::Retained`] /
    /// [`PendingMode::Torn`], the latter truncating the crashed write).
    ///
    /// # Panics
    ///
    /// Panics if `point.op` exceeds the recorded operation count, or if
    /// [`PendingMode::Torn`] is used on a non-write operation — both are
    /// explorer bugs, not recoverable states.
    pub fn crash_image(&self, point: &CrashPoint) -> SimImage {
        let st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        let k = usize::try_from(point.op).expect("crash point fits usize");
        assert!(
            k <= st.ops.len(),
            "crash point {k} past end of {} recorded ops",
            st.ops.len()
        );
        let mut files: BTreeMap<PathBuf, SimFileState> = BTreeMap::new();
        let mut dirs: BTreeSet<PathBuf> = BTreeSet::new();
        for (i, op) in st.ops[..k].iter().enumerate() {
            let torn = match point.pending {
                PendingMode::Torn(n) if i + 1 == k => {
                    assert!(
                        matches!(op, SimOp::Write { .. }),
                        "torn crash point on non-write op {}",
                        op.label()
                    );
                    Some(n)
                }
                _ => None,
            };
            SimState::apply(&mut files, &mut dirs, op, torn);
        }
        let keep_pending = !matches!(point.pending, PendingMode::Dropped);
        SimImage {
            files: files
                .into_iter()
                .map(|(p, f)| {
                    let bytes = if keep_pending { f.visible() } else { f.durable };
                    (p, bytes)
                })
                .collect(),
            dirs,
        }
    }

    /// The current live view (durable plus pending) of every file — what
    /// a reader sees with no crash. Useful for byte-identity assertions
    /// between recoveries.
    pub fn snapshot(&self) -> SimImage {
        let st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        SimImage {
            files: st
                .files
                .iter()
                .map(|(p, f)| (p.clone(), f.visible()))
                .collect(),
            dirs: st.dirs.clone(),
        }
    }
}

#[derive(Debug)]
struct SimFile {
    state: Arc<Mutex<SimState>>,
    path: PathBuf,
}

impl io::Write for SimFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !buf.is_empty() {
            let mut st = self
                .state
                .lock()
                .expect("SimFs state poisoned: a holder panicked");
            st.apply_and_record(SimOp::Write {
                path: self.path.clone(),
                bytes: buf.to_vec(),
            });
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl VfsFile for SimFile {
    fn sync(&mut self) -> io::Result<()> {
        let mut st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        st.apply_and_record(SimOp::Sync(self.path.clone()));
        Ok(())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.sync()
    }
}

impl Vfs for SimFs {
    fn open_write(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        match mode {
            OpenMode::Truncate => {
                st.apply_and_record(SimOp::Create(path.to_path_buf()));
            }
            OpenMode::Append => {
                if !st.files.contains_key(path) {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no such file: {}", path.display()),
                    ));
                }
            }
        }
        Ok(Box::new(SimFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        st.files.get(path).map(|f| f.visible()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {}", path.display()),
            )
        })
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn io::Read + Send>> {
        let bytes = self.read(path)?;
        Ok(Box::new(io::Cursor::new(bytes)))
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        st.files.contains_key(path) || st.dirs.contains(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        if !st.files.contains_key(from) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {}", from.display()),
            ));
        }
        st.apply_and_record(SimOp::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
        });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        if !st.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {}", path.display()),
            ));
        }
        st.apply_and_record(SimOp::Remove(path.to_path_buf()));
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        if !st.dirs.contains(path) {
            st.apply_and_record(SimOp::CreateDir(path.to_path_buf()));
        }
        Ok(())
    }

    fn read_dir_sorted(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        Ok(st
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        st.apply_and_record(SimOp::SyncDir(dir.to_path_buf()));
        Ok(())
    }

    fn faults(&self) -> &FaultState {
        &self.faults
    }

    fn mark(&self, label: &str) {
        let mut st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        let at = st.ops.len() as u64;
        st.marks.push((at, label.to_string()));
    }

    fn temp_tag(&self) -> Option<String> {
        let mut st = self
            .state
            .lock()
            .expect("SimFs state poisoned: a holder panicked");
        st.temp_serial += 1;
        Some(format!("sim{}", st.temp_serial))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> (Arc<SimFs>, VfsHandle) {
        let sim = Arc::new(SimFs::new());
        let vfs: VfsHandle = Arc::clone(&sim) as VfsHandle;
        (sim, vfs)
    }

    #[test]
    fn writes_are_pending_until_synced() {
        let (sim, vfs) = sim();
        let p = Path::new("/vsim/a");
        let mut f = vfs.open_write(p, OpenMode::Truncate).unwrap();
        f.write_all(b"hello").unwrap();
        // Visible to live readers...
        assert_eq!(vfs.read(p).unwrap(), b"hello");
        // ...but lost at a Dropped crash (ops: create, write).
        let img = sim.crash_image(&CrashPoint {
            op: 2,
            pending: PendingMode::Dropped,
        });
        assert_eq!(img.files[p], b"");
        // Retained keeps it.
        let img = sim.crash_image(&CrashPoint {
            op: 2,
            pending: PendingMode::Retained,
        });
        assert_eq!(img.files[p], b"hello");
        // After sync it is durable even when pending drops.
        f.sync().unwrap();
        let img = sim.crash_image(&CrashPoint {
            op: 3,
            pending: PendingMode::Dropped,
        });
        assert_eq!(img.files[p], b"hello");
    }

    #[test]
    fn torn_write_lands_a_prefix() {
        let (sim, vfs) = sim();
        let p = Path::new("/vsim/t");
        let mut f = vfs.open_write(p, OpenMode::Truncate).unwrap();
        f.write_all(b"0123456789").unwrap();
        let img = sim.crash_image(&CrashPoint {
            op: 2,
            pending: PendingMode::Torn(4),
        });
        assert_eq!(img.files[p], b"0123");
    }

    #[test]
    fn metadata_is_durable_at_apply() {
        let (sim, vfs) = sim();
        vfs.create_dir_all(Path::new("/vsim/store")).unwrap();
        let tmp = Path::new("/vsim/store/x.tmp");
        let fin = Path::new("/vsim/store/x.ckpt");
        let mut f = vfs.open_write(tmp, OpenMode::Truncate).unwrap();
        f.write_all(b"data").unwrap();
        f.sync_all().unwrap();
        drop(f);
        vfs.rename(tmp, fin).unwrap();
        // ops: mkdir, create, write, sync, rename — crash right after the
        // rename with pending dropped still sees the renamed, full file.
        let img = sim.crash_image(&CrashPoint {
            op: sim.mutations(),
            pending: PendingMode::Dropped,
        });
        assert_eq!(img.files[fin], b"data");
        assert!(!img.files.contains_key(tmp));
        assert!(img.dirs.contains(Path::new("/vsim/store")));
    }

    #[test]
    fn crash_image_before_rename_keeps_temp_only() {
        let (sim, vfs) = sim();
        let tmp = Path::new("/vsim/y.tmp");
        let fin = Path::new("/vsim/y.ckpt");
        let mut f = vfs.open_write(tmp, OpenMode::Truncate).unwrap();
        f.write_all(b"data").unwrap();
        f.sync_all().unwrap();
        drop(f);
        vfs.rename(tmp, fin).unwrap();
        // One op earlier: the rename has not happened yet.
        let img = sim.crash_image(&CrashPoint {
            op: sim.mutations() - 1,
            pending: PendingMode::Dropped,
        });
        assert_eq!(img.files[tmp], b"data");
        assert!(!img.files.contains_key(fin));
    }

    #[test]
    fn marks_record_ack_points() {
        let (sim, vfs) = sim();
        let p = Path::new("/vsim/j");
        let mut f = vfs.open_write(p, OpenMode::Truncate).unwrap();
        f.write_all(b"r1\n").unwrap();
        f.sync().unwrap();
        vfs.mark("ack chip=1");
        f.write_all(b"r2\n").unwrap();
        assert_eq!(sim.marks(), vec![(3, "ack chip=1".to_string())]);
    }

    #[test]
    fn from_image_reboots_with_durable_content() {
        let (sim, vfs) = sim();
        vfs.create_dir_all(Path::new("/vsim/d")).unwrap();
        let p = Path::new("/vsim/d/f");
        let mut f = vfs.open_write(p, OpenMode::Truncate).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync().unwrap();
        let img = sim.crash_image(&CrashPoint {
            op: sim.mutations(),
            pending: PendingMode::Dropped,
        });
        let rebooted = SimFs::from_image(&img);
        assert_eq!(rebooted.read(p).unwrap(), b"abc");
        assert_eq!(rebooted.mutations(), 0, "reboot starts a fresh recording");
        assert!(rebooted.exists(Path::new("/vsim/d")));
    }

    #[test]
    fn read_dir_sorted_lists_direct_files() {
        let (_sim, vfs) = sim();
        vfs.create_dir_all(Path::new("/vsim/s")).unwrap();
        for name in ["b.journal", "a.ckpt", "deep"] {
            let p = PathBuf::from("/vsim/s").join(name);
            vfs.open_write(&p, OpenMode::Truncate).unwrap();
        }
        let nested = Path::new("/vsim/s/sub/x");
        vfs.open_write(nested, OpenMode::Truncate).unwrap();
        let listing = vfs.read_dir_sorted(Path::new("/vsim/s")).unwrap();
        assert_eq!(
            listing,
            vec![
                PathBuf::from("/vsim/s/a.ckpt"),
                PathBuf::from("/vsim/s/b.journal"),
                PathBuf::from("/vsim/s/deep"),
            ]
        );
    }

    #[test]
    fn per_instance_faults_do_not_leak_across_instances() {
        let plan = crate::fsfault::FsFaultPlan {
            enospc: 1,
            ..Default::default()
        };
        let (_a, vfs_a) = sim();
        let (_b, vfs_b) = sim();
        vfs_a.faults().install(Path::new("/vsim"), plan);
        let p = Path::new("/vsim/x");
        assert!(vfs_a.faults().write_fault(p, 8).is_err());
        assert!(
            vfs_b.faults().write_fault(p, 8).is_ok(),
            "instance B has its own empty fault state"
        );

        // Two real-filesystem handles under one directory prefix are just
        // as independent: a plan on one never reaches the other's writes.
        let dir = std::env::temp_dir().join("vs-guard-vfs-two-stdfs");
        let (std_a, std_b) = (std_fs(), std_fs());
        std_a.faults().install(&dir, plan);
        let target = dir.join("store/x.ckpt");
        assert!(std_b.faults().write_fault(&target, 8).is_ok());
        assert_eq!(std_b.faults().counters().total(), 0);
        assert!(std_a.faults().write_fault(&target, 8).is_err());
        assert_eq!(std_a.faults().counters().enospc, 1);
    }

    #[test]
    fn std_fs_round_trips_and_lists() {
        let dir = std::env::temp_dir().join("vs-guard-vfs-stdfs");
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = std_fs();
        let p = dir.join("std-roundtrip.txt");
        let mut f = vfs.open_write(&p, OpenMode::Truncate).unwrap();
        f.write_all(b"one\n").unwrap();
        f.sync_all().unwrap();
        drop(f);
        let mut f = vfs.open_write(&p, OpenMode::Append).unwrap();
        f.write_all(b"two\n").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.read_to_string(&p).unwrap(), "one\ntwo\n");
        assert!(vfs.read_dir_sorted(&dir).unwrap().contains(&p));
        assert!(vfs.temp_tag().is_none(), "production backend has no tag");
        let renamed = dir.join("std-renamed.txt");
        vfs.rename(&p, &renamed).unwrap();
        assert!(vfs.exists(&renamed) && !vfs.exists(&p));
        vfs.remove_file(&renamed).unwrap();
        assert!(!vfs.exists(&renamed));
    }
}

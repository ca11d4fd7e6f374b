//! Exhaustive crash-point exploration over a recorded [`SimFs`] workload.
//!
//! A crash-consistency check has three parts: *record* a workload once on
//! a [`SimFs`] (counting its N mutations), *enumerate* every crash point
//! — each operation index under each [`PendingMode`], plus torn-prefix
//! variants of every write — and *check* each point by materializing the
//! image, rebooting the recovery path on it, and testing invariants. This
//! module owns the enumeration and the deterministic parallel driver; the
//! invariant checker itself is a caller-supplied closure, because only
//! the caller knows what "recovery" means for its store.
//!
//! Determinism contract: [`explore`] returns findings sorted by crash
//! point index regardless of worker count, so a violating run prints
//! byte-identical output on 1 or 16 workers — the property the
//! minimizer's reproducers rely on.

use crate::vfs::SimFs;
pub use crate::vfs::{CrashPoint, PendingMode};
use std::sync::Mutex;

/// One invariant violation at one crash point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFinding {
    /// Index of the point in the enumerated sequence (stable across
    /// worker counts).
    pub index: usize,
    /// The crash point that violated.
    pub point: CrashPoint,
    /// Deterministic description of the violated invariant.
    pub violation: String,
}

/// Enumerates every crash point of a recorded workload.
///
/// For each operation `k` in `1..=N`: the image with pending data
/// dropped, the image with pending data retained, and — when operation
/// `k` is a write of `L ≥ 2` bytes — torn variants landing the first
/// `1`, `L/2`, and `L-1` bytes (deduplicated, ascending). Index 0 is the
/// pristine pre-workload image.
pub fn enumerate(sim: &SimFs) -> Vec<CrashPoint> {
    let ops = sim.ops();
    let mut points = vec![CrashPoint {
        op: 0,
        pending: PendingMode::Dropped,
    }];
    for (i, op) in ops.iter().enumerate() {
        let k = (i + 1) as u64;
        points.push(CrashPoint {
            op: k,
            pending: PendingMode::Dropped,
        });
        points.push(CrashPoint {
            op: k,
            pending: PendingMode::Retained,
        });
        if let Some(len) = op.write_len() {
            let mut torn: Vec<usize> = [1, len / 2, len.saturating_sub(1)]
                .into_iter()
                .filter(|&j| j >= 1 && j < len)
                .collect();
            torn.sort_unstable();
            torn.dedup();
            for j in torn {
                points.push(CrashPoint {
                    op: k,
                    pending: PendingMode::Torn(j),
                });
            }
        }
    }
    points
}

/// Checks every crash point with `check` across `workers` threads.
///
/// `check` returns `None` when all invariants hold at a point and
/// `Some(violation)` otherwise. Work is striped by index (worker `w`
/// takes points `w, w+workers, …`) and findings are merged and sorted by
/// index, so the result — and anything printed from it — is identical
/// for any worker count.
pub fn explore<F>(points: &[CrashPoint], workers: usize, check: F) -> Vec<CrashFinding>
where
    F: Fn(&CrashPoint) -> Option<String> + Sync,
{
    let workers = workers.max(1).min(points.len().max(1));
    let findings: Mutex<Vec<CrashFinding>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let check = &check;
            let findings = &findings;
            scope.spawn(move || {
                let mut local = Vec::new();
                for (index, point) in points.iter().enumerate().skip(w).step_by(workers) {
                    if let Some(violation) = check(point) {
                        local.push(CrashFinding {
                            index,
                            point: *point,
                            violation,
                        });
                    }
                }
                findings
                    .lock()
                    .expect("crash findings poisoned: a holder panicked")
                    .extend(local);
            });
        }
    });
    let mut findings = findings.into_inner().unwrap();
    findings.sort_by_key(|f| f.index);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{OpenMode, VfsHandle};
    use std::io::Write as _;
    use std::path::Path;
    use std::sync::Arc;

    fn recorded_sim() -> Arc<SimFs> {
        let sim = Arc::new(SimFs::new());
        let vfs: VfsHandle = Arc::clone(&sim) as VfsHandle;
        vfs.create_dir_all(Path::new("/vsim/s")).unwrap();
        let mut f = vfs
            .open_write(Path::new("/vsim/s/f"), OpenMode::Truncate)
            .unwrap();
        f.write_all(b"0123456789").unwrap();
        f.sync().unwrap();
        sim
    }

    #[test]
    fn enumerate_covers_all_ops_and_torn_prefixes() {
        let sim = recorded_sim();
        // ops: mkdir, create, write(10B), sync
        assert_eq!(sim.mutations(), 4);
        let points = enumerate(&sim);
        // 1 pristine + 4*2 modes + torn {1,5,9} on the write.
        assert_eq!(points.len(), 1 + 8 + 3);
        assert_eq!(
            points[0],
            CrashPoint {
                op: 0,
                pending: PendingMode::Dropped
            }
        );
        let torn: Vec<_> = points
            .iter()
            .filter(|p| matches!(p.pending, PendingMode::Torn(_)))
            .collect();
        assert_eq!(torn.len(), 3);
        assert!(torn.iter().all(|p| p.op == 3), "torn only on the write op");
    }

    #[test]
    fn explore_is_deterministic_across_worker_counts() {
        let sim = recorded_sim();
        let points = enumerate(&sim);
        // A synthetic invariant that "fails" on every dropped-pending
        // image where the file is missing or empty.
        let check = |point: &CrashPoint| {
            let img = sim.crash_image(point);
            match img.files.get(Path::new("/vsim/s/f")) {
                Some(bytes) if !bytes.is_empty() => None,
                _ => Some(format!("file empty or missing at {point}")),
            }
        };
        let one = explore(&points, 1, check);
        let four = explore(&points, 4, check);
        assert_eq!(one, four, "findings identical for 1 vs 4 workers");
        assert!(!one.is_empty());
        assert!(one.windows(2).all(|w| w[0].index < w[1].index));
    }
}

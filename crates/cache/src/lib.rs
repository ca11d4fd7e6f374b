//! Cache hierarchy with a real ECC-encoded data path.
//!
//! Every cache line in this crate is stored as a vector of Hsiao (72,64)
//! codewords. On each read, the SRAM failure model decides which bits are
//! observed flipped (access-time failures: the stored value is never
//! corrupted, matching the paper's §V-E retention experiment), the ECC
//! decoder corrects or rejects the word, and correctable events carry the
//! (set, way) of the failing line — exactly the feedback signal the
//! voltage-speculation system consumes.
//!
//! Beyond the basic set-associative machinery (LRU replacement, fills,
//! evictions), the crate implements the two procedures the paper's firmware
//! prototype relies on:
//!
//! * `CoreCaches::targeted_line_test` — the three-step L1
//!   bypass of Figure 7 that exercises one designated L2 line from software;
//! * [`sweep`] — the data-cache and instruction-cache calibration sweeps of
//!   Figure 6 that locate the weakest line of each structure.
//!
//! # Examples
//!
//! ```
//! use vs_cache::{Cache, CacheGeometry, NoFaults};
//! use vs_types::{CacheKind, SetWay};
//!
//! let mut l2 = Cache::new(CacheKind::L2Data, CacheGeometry::for_kind(CacheKind::L2Data));
//! let addr = 0x4_0000;
//! l2.fill(addr, &vec![0xABCD; 16]);
//! let result = l2.read(addr, &mut NoFaults).expect("line is resident");
//! assert_eq!(result.data[0], 0xABCD);
//! assert!(result.events.is_empty());
//! # let _ = SetWay::new(0, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod fault;
mod geometry;
pub mod hierarchy;
pub mod sweep;

pub use cache::{Cache, LineReadResult, WordEvent};
pub use fault::{FaultInjector, Injector, NoFaults};
pub use geometry::CacheGeometry;

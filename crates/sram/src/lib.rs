//! Process-variation-aware SRAM failure model.
//!
//! Low-voltage operation amplifies the effect of manufacturing process
//! variation on SRAM: the smallest (densest) cells are the first to fail as
//! the supply voltage is lowered, reads may not complete within the clock
//! period, and which cells fail first is a fixed property of each die
//! (§II of the reproduced paper). This crate models those physics:
//!
//! * every cell on the chip has a **critical voltage** `Vc` — the supply
//!   level below which an access to it starts to fail — composed of a
//!   structure-level mean, a per-core systematic offset, a per-line
//!   systematic offset, and a per-cell random component (all derived
//!   deterministically from the chip seed, see [`ChipVariation`]);
//! * an access at effective voltage `V` flips a cell with probability
//!   `logistic((Vc − V) / s)`, giving the gradual error-rate S-curves the
//!   controller relies on (paper Figure 13);
//! * order statistics place the few *weakest* bits of each 72-bit ECC word
//!   without sampling millions of cells, so a 32 MB L3 costs nothing until
//!   it is accessed;
//! * per-core **logic floors** model the voltage at which core logic (not
//!   SRAM) fails outright, bounding the minimum safe voltage;
//! * aging drift and a (deliberately small) temperature coefficient support
//!   the paper's recalibration and temperature-insensitivity experiments
//!   (§III-D).
//!
//! # Examples
//!
//! ```
//! use vs_sram::{ChipVariation, SramParams};
//! use vs_types::{CacheKind, CoreId, SetWay, VddMode};
//!
//! let chip = ChipVariation::new(42, SramParams::default());
//! let cells = chip.word_cells(
//!     CoreId(0), CacheKind::L2Data, SetWay::new(17, 3), 0, VddMode::LowVoltage,
//! );
//! // The weakest bit of the word fails somewhere below nominal 800 mV.
//! assert!(cells.weakest().vc_mv < 800.0);
//! // Determinism: asking again yields the identical cells.
//! let again = chip.word_cells(
//!     CoreId(0), CacheKind::L2Data, SetWay::new(17, 3), 0, VddMode::LowVoltage,
//! );
//! assert_eq!(cells.weakest().bit, again.weakest().bit);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod failure;
mod kernel;
mod params;
mod variation;

pub use failure::{line_read_probabilities, word_failure_probabilities, AccessContext};
pub use kernel::{BankLine, CellBank, FailureLut};
pub use params::{SramParams, StructureParams};
pub use variation::{ChipVariation, WeakCell, WordCells};

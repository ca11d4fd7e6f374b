//! SEC-DED error-correcting codes.
//!
//! The voltage-speculation system in the reproduced paper is driven entirely
//! by *correctable* error reports from the ECC logic that protects on-chip
//! SRAM. This crate implements that logic for real: cache lines in the
//! simulator are stored as Hsiao-encoded codewords, bit flips are physically
//! injected into the stored words by the SRAM failure model, and the decoder
//! here either corrects them (a [`DecodeOutcome::Corrected`] naming the
//! failing bit and syndrome) or flags them uncorrectable. The chip counts
//! the outcomes (`vs_platform::EccCounts`).
//!
//! Two standard geometries are provided:
//!
//! * [`SecDed::hsiao_72_64`] — 64 data bits + 8 check bits, the classic DRAM
//!   and cache-line word geometry; used for all cache data words.
//! * [`SecDed::hsiao_39_32`] — 32 data bits + 7 check bits; used for the
//!   register-file arrays.
//!
//! # Examples
//!
//! ```
//! use vs_ecc::{SecDed, DecodeOutcome};
//!
//! let code = SecDed::hsiao_72_64();
//! let word = code.encode(0xDEAD_BEEF_CAFE_F00D);
//!
//! // A clean read decodes with no error.
//! assert_eq!(code.decode(word), DecodeOutcome::Clean { data: 0xDEAD_BEEF_CAFE_F00D });
//!
//! // A single flipped bit is corrected and reported.
//! let flipped = word ^ (1u128 << 17);
//! match code.decode(flipped) {
//!     DecodeOutcome::Corrected { data, bit, .. } => {
//!         assert_eq!(data, 0xDEAD_BEEF_CAFE_F00D);
//!         assert_eq!(bit, 17);
//!     }
//!     other => panic!("expected correction, got {other:?}"),
//! }
//!
//! // Two flipped bits are detected but not corrected.
//! let double = word ^ 0b11;
//! assert!(matches!(code.decode(double), DecodeOutcome::Uncorrectable { .. }));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod code;

pub use code::{DecodeOutcome, SecDed};

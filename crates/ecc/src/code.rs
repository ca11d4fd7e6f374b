//! Hsiao SEC-DED code construction, encoding, and decoding.
//!
//! A Hsiao code is a single-error-correcting, double-error-detecting linear
//! code whose parity-check matrix uses only odd-weight columns. Odd-weight
//! columns give the key decoding property: a single-bit error produces an
//! odd-weight syndrome (equal to that bit's column), while any double-bit
//! error produces a nonzero *even*-weight syndrome, which can never be
//! mistaken for a correctable single-bit error.

use std::fmt;
use std::sync::OnceLock;
use vs_types::FlipMask;

/// Result of decoding one codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// Syndrome zero: the stored word was read back intact.
    Clean {
        /// The decoded data bits.
        data: u64,
    },
    /// Exactly one bit was flipped; it has been corrected.
    Corrected {
        /// The corrected data bits.
        data: u64,
        /// The codeword bit position that was flipped (data bits come first,
        /// then check bits).
        bit: u32,
        /// The raw syndrome that identified the failing bit.
        syndrome: u32,
    },
    /// Two or more bits were flipped; the data cannot be trusted.
    Uncorrectable {
        /// The raw (nonzero) syndrome.
        syndrome: u32,
    },
}

impl DecodeOutcome {
    /// The decoded data, if the word was clean or corrected.
    #[cfg(test)]
    pub(crate) fn data(&self) -> Option<u64> {
        match *self {
            DecodeOutcome::Clean { data } | DecodeOutcome::Corrected { data, .. } => Some(data),
            DecodeOutcome::Uncorrectable { .. } => None,
        }
    }

    /// True when a correctable (single-bit) error was observed.
    pub fn is_correctable_error(&self) -> bool {
        matches!(self, DecodeOutcome::Corrected { .. })
    }

    /// True when the error was detected but not correctable.
    pub fn is_uncorrectable(&self) -> bool {
        matches!(self, DecodeOutcome::Uncorrectable { .. })
    }
}

/// A Hsiao SEC-DED code over up to 64 data bits.
///
/// Codewords are laid out with data bits in positions `0..data_bits` and
/// check bits in positions `data_bits..data_bits + check_bits`, packed into a
/// `u128`.
///
/// Use [`SecDed::hsiao_72_64`] or [`SecDed::hsiao_39_32`] for the two
/// geometries the simulator needs; [`SecDed::new`] builds any custom
/// geometry for which enough odd-weight columns exist.
#[derive(Clone)]
pub struct SecDed {
    data_bits: u32,
    check_bits: u32,
    /// Syndrome produced by an error in each codeword bit position
    /// (`columns[i]` is the i-th column of the parity-check matrix H).
    columns: Vec<u32>,
    /// Dense inverse map from syndrome to bit position (`u8::MAX` marks an
    /// unused syndrome). Sized `1 << check_bits`.
    syndrome_to_bit: Vec<u8>,
}

impl fmt::Debug for SecDed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecDed")
            .field("data_bits", &self.data_bits)
            .field("check_bits", &self.check_bits)
            .field("codeword_bits", &self.codeword_bits())
            .finish()
    }
}

impl SecDed {
    /// Constructs a Hsiao code with the given geometry.
    ///
    /// Data-bit columns are chosen as the lexicographically smallest
    /// odd-weight (≥3) `check_bits`-bit vectors, taken weight-3 first, then
    /// weight-5, and so on — the standard minimum-weight Hsiao selection,
    /// which minimizes encoder/decoder XOR fan-in in hardware.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is 0 or greater than 64, if `check_bits`
    /// exceeds 16, or if there are not enough odd-weight columns for the
    /// requested geometry.
    pub fn new(data_bits: u32, check_bits: u32) -> SecDed {
        assert!(
            (1..=64).contains(&data_bits),
            "data_bits must be in 1..=64, got {data_bits}"
        );
        assert!(
            (2..=16).contains(&check_bits),
            "check_bits must be in 2..=16, got {check_bits}"
        );

        let mut columns = Vec::with_capacity((data_bits + check_bits) as usize);
        // Data-bit columns: odd weight >= 3, lowest weight first, then
        // numerically ascending within a weight class.
        'outer: for weight in (3..=check_bits).step_by(2) {
            for candidate in 0u32..(1 << check_bits) {
                if candidate.count_ones() == weight {
                    columns.push(candidate);
                    if columns.len() == data_bits as usize {
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            columns.len() == data_bits as usize,
            "not enough odd-weight columns: {} check bits support at most {} data bits",
            check_bits,
            columns.len()
        );
        // Check-bit columns: weight-1 identity columns.
        for j in 0..check_bits {
            columns.push(1 << j);
        }

        let mut syndrome_to_bit = vec![u8::MAX; 1 << check_bits];
        for (bit, &col) in columns.iter().enumerate() {
            debug_assert_eq!(syndrome_to_bit[col as usize], u8::MAX, "duplicate column");
            syndrome_to_bit[col as usize] = bit as u8;
        }

        SecDed {
            data_bits,
            check_bits,
            columns,
            syndrome_to_bit,
        }
    }

    /// The shared (72,64) code instance: 64 data bits, 8 check bits.
    pub fn hsiao_72_64() -> &'static SecDed {
        static CODE: OnceLock<SecDed> = OnceLock::new();
        CODE.get_or_init(|| SecDed::new(64, 8))
    }

    /// The shared (39,32) code instance: 32 data bits, 7 check bits.
    pub fn hsiao_39_32() -> &'static SecDed {
        static CODE: OnceLock<SecDed> = OnceLock::new();
        CODE.get_or_init(|| SecDed::new(32, 7))
    }

    /// Number of data bits per codeword.
    #[cfg(test)]
    pub(crate) fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Number of check bits per codeword.
    #[cfg(test)]
    pub(crate) fn check_bits(&self) -> u32 {
        self.check_bits
    }

    /// Total codeword width in bits.
    pub fn codeword_bits(&self) -> u32 {
        self.data_bits + self.check_bits
    }

    /// Extracts the data bits of a codeword without decoding.
    ///
    /// Only meaningful for words known to be valid codewords (e.g. freshly
    /// encoded storage read with no injected flips); it skips the syndrome
    /// computation that [`SecDed::decode`] would spend on them.
    #[inline]
    pub fn data_of(&self, word: u128) -> u64 {
        let data_mask: u64 = if self.data_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.data_bits) - 1
        };
        (word as u64) & data_mask
    }

    /// Encodes `data` into a codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data` has bits set above `data_bits`.
    pub fn encode(&self, data: u64) -> u128 {
        if self.data_bits < 64 {
            assert!(
                data < (1u64 << self.data_bits),
                "data 0x{data:X} exceeds {} data bits",
                self.data_bits
            );
        }
        let mut check: u32 = 0;
        let mut remaining = data;
        while remaining != 0 {
            let i = remaining.trailing_zeros();
            check ^= self.columns[i as usize];
            remaining &= remaining - 1;
        }
        u128::from(data) | (u128::from(check) << self.data_bits)
    }

    /// Computes the syndrome of a received word (zero iff the word is a
    /// valid codeword).
    pub fn syndrome(&self, word: u128) -> u32 {
        let mut syndrome = 0;
        let mut remaining = word;
        while remaining != 0 {
            let i = remaining.trailing_zeros();
            syndrome ^= self.columns[i as usize];
            remaining &= remaining - 1;
        }
        syndrome
    }

    /// Decodes a received word, correcting a single-bit error if present.
    pub fn decode(&self, word: u128) -> DecodeOutcome {
        let syndrome = self.syndrome(word);
        let data_mask: u64 = if self.data_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.data_bits) - 1
        };
        if syndrome == 0 {
            return DecodeOutcome::Clean {
                data: (word as u64) & data_mask,
            };
        }
        let bit = self.syndrome_to_bit[syndrome as usize];
        if bit == u8::MAX {
            // Nonzero syndrome matching no column: a multi-bit error. For a
            // Hsiao code every double error lands here (even weight).
            return DecodeOutcome::Uncorrectable { syndrome };
        }
        let corrected = word ^ (1u128 << bit);
        DecodeOutcome::Corrected {
            data: (corrected as u64) & data_mask,
            bit: u32::from(bit),
            syndrome,
        }
    }

    /// Flips the given codeword bits (used by fault injection).
    ///
    /// # Panics
    ///
    /// Panics if any bit index is out of range for the codeword.
    pub fn inject(&self, word: u128, bits: &[u32]) -> u128 {
        let mut out = word;
        for &b in bits {
            assert!(
                b < self.codeword_bits(),
                "bit {b} out of range for a {}-bit codeword",
                self.codeword_bits()
            );
            out ^= 1u128 << b;
        }
        out
    }

    /// Flips the codeword bits named by a [`FlipMask`]: the alloc-free
    /// fault-injection primitive (one XOR, no per-bit loop).
    ///
    /// # Panics
    ///
    /// Panics if the mask names a bit at or above the codeword width.
    #[inline]
    pub fn inject_mask(&self, word: u128, mask: FlipMask) -> u128 {
        assert!(
            mask.0 >> self.codeword_bits() == 0,
            "flip mask {mask:?} exceeds the {}-bit codeword",
            self.codeword_bits()
        );
        word ^ mask.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants() {
        let c = SecDed::hsiao_72_64();
        assert_eq!(c.data_bits(), 64);
        assert_eq!(c.check_bits(), 8);
        assert_eq!(c.codeword_bits(), 72);
        let c = SecDed::hsiao_39_32();
        assert_eq!(c.codeword_bits(), 39);
    }

    #[test]
    fn columns_are_unique_and_odd_weight() {
        for code in [SecDed::new(64, 8), SecDed::new(32, 7), SecDed::new(8, 5)] {
            let mut seen = std::collections::HashSet::new();
            for &col in &code.columns {
                assert!(col.count_ones() % 2 == 1, "column {col:b} has even weight");
                assert!(seen.insert(col), "duplicate column {col:b}");
            }
        }
    }

    #[test]
    fn clean_roundtrip() {
        let code = SecDed::hsiao_72_64();
        for data in [
            0u64,
            1,
            u64::MAX,
            0xDEAD_BEEF_0BAD_F00D,
            0x5555_5555_5555_5555,
        ] {
            let word = code.encode(data);
            assert_eq!(code.decode(word), DecodeOutcome::Clean { data });
            assert_eq!(code.syndrome(word), 0);
        }
    }

    #[test]
    fn all_single_bit_errors_corrected_72_64() {
        let code = SecDed::hsiao_72_64();
        let data = 0xA5A5_5A5A_1234_8765u64;
        let word = code.encode(data);
        for bit in 0..code.codeword_bits() {
            let outcome = code.decode(word ^ (1u128 << bit));
            match outcome {
                DecodeOutcome::Corrected {
                    data: d,
                    bit: b,
                    syndrome,
                } => {
                    assert_eq!(d, data, "bit {bit}");
                    assert_eq!(b, bit);
                    assert_ne!(syndrome, 0);
                }
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_single_bit_errors_corrected_39_32() {
        let code = SecDed::hsiao_39_32();
        let data = 0x8BAD_F00Du64 & 0xFFFF_FFFF;
        let word = code.encode(data);
        for bit in 0..code.codeword_bits() {
            let outcome = code.decode(word ^ (1u128 << bit));
            assert!(
                matches!(outcome, DecodeOutcome::Corrected { data: d, .. } if d == data),
                "bit {bit}: got {outcome:?}"
            );
        }
    }

    #[test]
    fn all_double_bit_errors_detected() {
        // Exhaustive over all C(39,2) pairs for the small code and all
        // C(72,2) pairs for the big one — both are cheap.
        for code in [SecDed::hsiao_39_32(), SecDed::hsiao_72_64()] {
            let data = 0x0123_4567u64 & ((1u64 << code.data_bits().min(63)) - 1);
            let word = code.encode(data);
            let n = code.codeword_bits();
            for a in 0..n {
                for b in (a + 1)..n {
                    let corrupted = word ^ (1u128 << a) ^ (1u128 << b);
                    let outcome = code.decode(corrupted);
                    assert!(
                        outcome.is_uncorrectable(),
                        "bits ({a},{b}) of ({},{}) code: got {outcome:?}",
                        code.codeword_bits(),
                        code.data_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn inject_helper() {
        let code = SecDed::hsiao_72_64();
        let word = code.encode(42);
        assert_eq!(code.inject(word, &[]), word);
        assert_eq!(code.inject(word, &[3, 3]), word); // double flip cancels
        let one = code.inject(word, &[5]);
        assert!(code.decode(one).is_correctable_error());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inject_out_of_range_panics() {
        let code = SecDed::hsiao_72_64();
        code.inject(0, &[72]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn encode_oversized_data_panics() {
        SecDed::hsiao_39_32().encode(1u64 << 32);
    }

    #[test]
    #[should_panic(expected = "not enough odd-weight columns")]
    fn impossible_geometry_panics() {
        // 4 check bits offer only C(4,3)=4 weight-3 columns (plus the single
        // weight-1 identity ones), far fewer than 60 data bits need.
        let _ = SecDed::new(60, 4);
    }

    #[test]
    fn outcome_accessors() {
        let clean = DecodeOutcome::Clean { data: 7 };
        assert_eq!(clean.data(), Some(7));
        assert!(!clean.is_correctable_error());
        let bad = DecodeOutcome::Uncorrectable { syndrome: 0b11 };
        assert_eq!(bad.data(), None);
        assert!(bad.is_uncorrectable());
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", SecDed::hsiao_72_64());
        assert!(s.contains("SecDed"));
        assert!(s.contains("72"));
    }
}

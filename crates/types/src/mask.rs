//! Alloc-free codeword flip masks.
//!
//! A [`FlipMask`] names the bit positions of one ECC codeword (up to 128
//! bits) that were observed flipped on a read. It replaces the historical
//! `Vec<u32>` flip lists on the hot sampling path: a mask is `Copy`, needs
//! no heap, XORs straight into a stored `u128` codeword, and popcounts in
//! one instruction.

use std::fmt;

/// A set of flipped codeword bit positions, packed into a `u128`.
///
/// Bit `i` of the inner value is set iff codeword bit `i` flipped. The
/// (72,64) Hsiao geometry uses positions `0..72`; the type itself admits
/// any position below 128.
///
/// ```
/// use vs_types::FlipMask;
///
/// let mask = FlipMask::from_bits(&[3, 70]);
/// assert_eq!(mask.count(), 2);
/// assert_eq!(mask.0, (1 << 3) | (1 << 70));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlipMask(pub u128);

impl FlipMask {
    /// The empty mask: a clean read.
    pub const EMPTY: FlipMask = FlipMask(0);

    /// Builds a mask from explicit bit positions.
    ///
    /// # Panics
    ///
    /// Panics if any position is 128 or larger.
    pub fn from_bits(bits: &[u32]) -> FlipMask {
        let mut mask = FlipMask::EMPTY;
        for &b in bits {
            mask.set(b);
        }
        mask
    }

    /// Marks one bit position as flipped.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is 128 or larger.
    #[inline]
    pub fn set(&mut self, bit: u32) {
        assert!(bit < 128, "flip position {bit} exceeds the u128 mask");
        self.0 |= 1u128 << bit;
    }

    /// Whether a bit position is flipped.
    #[inline]
    #[cfg(test)]
    pub(crate) fn contains(self, bit: u32) -> bool {
        bit < 128 && self.0 & (1u128 << bit) != 0
    }

    /// Number of flipped bits (popcount).
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True when no bit flipped.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the flipped bit positions in ascending order.
    #[inline]
    pub(crate) fn bits(self) -> FlipBits {
        FlipBits(self.0)
    }
}

impl fmt::Debug for FlipMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.bits()).finish()
    }
}

impl FromIterator<u32> for FlipMask {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> FlipMask {
        let mut mask = FlipMask::EMPTY;
        for b in iter {
            mask.set(b);
        }
        mask
    }
}

/// Iterator over the set bit positions of a [`FlipMask`], ascending.
#[derive(Clone, Copy, Debug)]
pub struct FlipBits(u128);

impl Iterator for FlipBits {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for FlipBits {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask() {
        let m = FlipMask::EMPTY;
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
        assert_eq!(m.bits().next(), None);
        assert_eq!(m, FlipMask::default());
    }

    #[test]
    fn from_bits_round_trips() {
        let bits = [0u32, 7, 63, 64, 71, 127];
        let m = FlipMask::from_bits(&bits);
        assert_eq!(m.count(), bits.len() as u32);
        assert_eq!(m.bits().collect::<Vec<_>>(), bits);
        for b in bits {
            assert!(m.contains(b));
        }
        assert!(!m.contains(1));
        assert!(!m.contains(200));
    }

    #[test]
    fn bits_iterate_ascending_regardless_of_insertion_order() {
        let m = FlipMask::from_bits(&[71, 3, 40]);
        assert_eq!(m.bits().collect::<Vec<_>>(), vec![3, 40, 71]);
        assert_eq!(m.bits().len(), 3);
    }

    #[test]
    fn duplicate_bits_collapse() {
        let m = FlipMask::from_bits(&[5, 5, 5]);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn collects_from_iterator() {
        let m: FlipMask = [2u32, 9].into_iter().collect();
        assert_eq!(m, FlipMask::from_bits(&[2, 9]));
    }

    #[test]
    #[should_panic(expected = "exceeds the u128 mask")]
    fn oversized_bit_rejected() {
        FlipMask::from_bits(&[128]);
    }

    #[test]
    fn debug_lists_positions() {
        assert_eq!(format!("{:?}", FlipMask::from_bits(&[1, 70])), "[1, 70]");
    }
}

//! Access-failure sampling and analytic failure probabilities.
//!
//! An SRAM access at effective supply voltage `V` flips a cell with critical
//! voltage `Vc` with probability `logistic((Vc − V)/s)`. This module turns
//! the per-cell model into word- and line-level outcomes:
//!
//! * [`AccessContext::sample_word_flips`] — draws which bits of a word flip
//!   on one concrete read (used by the real encoded data path);
//! * [`word_failure_probabilities`] — the exact probabilities that a word
//!   read yields zero / exactly one / two-or-more flipped bits (used by the
//!   fast analytic path and by the tests that cross-check both paths);
//! * [`line_read_probabilities`] — ditto aggregated over all words of a
//!   line, classifying the outcome the ECC hardware would report.

use crate::variation::WordCells;
use vs_types::rng::CounterRng;
use vs_types::stats::logistic;
use vs_types::{Celsius, FlipMask};

/// Conditions under which an access happens: the effective voltage at the
/// cell array and the silicon temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessContext {
    /// Effective supply voltage at the array, in millivolts (set point minus
    /// IR drop and droop).
    pub v_eff_mv: f64,
    /// Silicon temperature. The reference point is 50 °C.
    pub temperature: Celsius,
    /// Logistic slope of the failure response, in millivolts.
    pub read_noise_mv: f64,
    /// Critical-voltage shift per °C away from the reference.
    pub temp_coeff_mv_per_c: f64,
}

impl AccessContext {
    /// Reference silicon temperature for the model.
    pub const REFERENCE_TEMP: Celsius = Celsius(50.0);

    /// Creates a context at the reference temperature.
    pub fn new(v_eff_mv: f64, read_noise_mv: f64) -> AccessContext {
        AccessContext {
            v_eff_mv,
            temperature: Self::REFERENCE_TEMP,
            read_noise_mv,
            temp_coeff_mv_per_c: 0.04,
        }
    }

    /// The probability that an access flips a cell with critical voltage
    /// `vc_mv`.
    #[inline]
    pub(crate) fn flip_probability(&self, vc_mv: f64) -> f64 {
        let temp_shift = self.temp_coeff_mv_per_c * (self.temperature.0 - Self::REFERENCE_TEMP.0);
        logistic((vc_mv + temp_shift - self.v_eff_mv) / self.read_noise_mv)
    }

    /// Samples one read of a word: returns the mask of codeword bit
    /// positions that flipped (usually empty, almost always at most one
    /// bit at operating voltages) as a `Copy`, alloc-free [`FlipMask`].
    pub fn sample_word_flips(&self, cells: &WordCells, rng: &mut CounterRng) -> FlipMask {
        let mut flipped = FlipMask::EMPTY;
        for cell in cells.cells() {
            let p = self.flip_probability(cell.vc_mv);
            // Cells are sorted weakest-first; once probabilities are
            // negligible the rest are smaller still.
            if p < 1.0e-9 {
                break;
            }
            if rng.bernoulli(p) {
                flipped.set(cell.bit);
            }
        }
        flipped
    }
}

/// Probabilities that one read of a word yields `(no error, exactly one
/// flipped bit, two or more flipped bits)`.
pub fn word_failure_probabilities(cells: &WordCells, ctx: &AccessContext) -> (f64, f64, f64) {
    let ps: Vec<f64> = cells
        .cells()
        .iter()
        .map(|c| ctx.flip_probability(c.vc_mv))
        .collect();
    let p_none: f64 = ps.iter().map(|p| 1.0 - p).product();
    let p_one: f64 = ps
        .iter()
        .enumerate()
        .map(|(i, pi)| {
            pi * ps
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, pj)| 1.0 - pj)
                .product::<f64>()
        })
        .sum();
    let p_multi = (1.0 - p_none - p_one).max(0.0);
    (p_none, p_one, p_multi)
}

/// Probabilities that one read of a whole line yields `(clean, at least one
/// correctable word and no uncorrectable word, at least one uncorrectable
/// word)`.
///
/// A word with two or more flipped bits is uncorrectable under SEC-DED; a
/// line read reports "correctable" if every erring word had exactly one
/// flip.
pub fn line_read_probabilities(words: &[WordCells], ctx: &AccessContext) -> (f64, f64, f64) {
    let mut p_all_clean = 1.0;
    let mut p_no_uncorrectable = 1.0;
    for cells in words {
        let (p0, p1, _) = word_failure_probabilities(cells, ctx);
        p_all_clean *= p0;
        p_no_uncorrectable *= p0 + p1;
    }
    let p_correctable = (p_no_uncorrectable - p_all_clean).max(0.0);
    let p_uncorrectable = (1.0 - p_no_uncorrectable).max(0.0);
    (p_all_clean, p_correctable, p_uncorrectable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::WeakCell;

    fn word(vcs: &[f64]) -> WordCells {
        let mut cells: Vec<WeakCell> = vcs
            .iter()
            .enumerate()
            .map(|(i, &vc_mv)| WeakCell {
                bit: i as u32,
                vc_mv,
            })
            .collect();
        cells.sort_by(|a, b| b.vc_mv.partial_cmp(&a.vc_mv).unwrap());
        WordCells::new(cells)
    }

    #[test]
    fn flip_probability_is_half_at_vc() {
        let ctx = AccessContext::new(700.0, 4.0);
        assert!((ctx.flip_probability(700.0) - 0.5).abs() < 1e-12);
        assert!(ctx.flip_probability(750.0) > 0.999);
        assert!(ctx.flip_probability(650.0) < 0.001);
    }

    #[test]
    fn flip_probability_monotone_in_voltage() {
        let word = word(&[700.0]);
        let mut prev = 1.0;
        for v in (600..800).step_by(5) {
            let ctx = AccessContext::new(v as f64, 4.5);
            let p = ctx.flip_probability(word.weakest().vc_mv);
            assert!(p <= prev, "p must fall as voltage rises");
            prev = p;
        }
    }

    #[test]
    fn temperature_effect_is_small() {
        // +20C shifts the response by under 1 mV: "no measurable effect".
        let mut hot = AccessContext::new(700.0, 4.5);
        hot.temperature = Celsius(70.0);
        let cold = AccessContext::new(700.0, 4.5);
        let dp = (hot.flip_probability(700.0) - cold.flip_probability(700.0)).abs();
        assert!(dp < 0.06, "temperature effect too large: {dp}");
    }

    #[test]
    fn word_probabilities_sum_to_one() {
        let w = word(&[705.0, 690.0, 680.0]);
        for v in [650.0, 680.0, 700.0, 710.0, 760.0] {
            let ctx = AccessContext::new(v, 4.5);
            let (p0, p1, p2) = word_failure_probabilities(&w, &ctx);
            assert!((p0 + p1 + p2 - 1.0).abs() < 1e-9);
            assert!(p0 >= 0.0 && p1 >= 0.0 && p2 >= 0.0);
        }
    }

    #[test]
    fn single_cell_word_never_multi_fails() {
        let w = word(&[700.0]);
        let ctx = AccessContext::new(698.0, 4.5);
        let (_, p1, p2) = word_failure_probabilities(&w, &ctx);
        assert!(p1 > 0.0);
        assert_eq!(p2, 0.0);
    }

    #[test]
    fn multi_bit_probability_small_at_operating_point() {
        // At the controller's target error rate (1-5% on the weakest cell),
        // the probability of an uncorrectable double flip must be tiny: that
        // is the safety argument for speculating inside the error band.
        let w = word(&[700.0, 676.0, 670.0]);
        // Choose V so the weakest cell errs ~5% of accesses: logistic(-3)~4.7%.
        let ctx = AccessContext::new(713.0, 4.5);
        let (_, p1, p2) = word_failure_probabilities(&w, &ctx);
        assert!((0.01..0.10).contains(&p1), "p1={p1}");
        assert!(p2 < 1e-4, "p2={p2}");
    }

    #[test]
    fn sampling_matches_analytic_rate() {
        let w = word(&[700.0, 680.0]);
        let ctx = AccessContext::new(702.0, 4.5);
        let (_, p1, p2) = word_failure_probabilities(&w, &ctx);
        let mut rng = CounterRng::from_key(9, &[]);
        let trials = 200_000;
        let mut ones = 0;
        let mut multis = 0;
        for _ in 0..trials {
            match ctx.sample_word_flips(&w, &mut rng).count() {
                0 => {}
                1 => ones += 1,
                _ => multis += 1,
            }
        }
        let f1 = ones as f64 / trials as f64;
        let f2 = multis as f64 / trials as f64;
        assert!((f1 - p1).abs() < 0.01, "sampled {f1} vs analytic {p1}");
        assert!((f2 - p2).abs() < 0.005, "sampled {f2} vs analytic {p2}");
    }

    #[test]
    fn line_probabilities_consistent() {
        let words: Vec<WordCells> = (0..16).map(|i| word(&[690.0 - i as f64, 660.0])).collect();
        let ctx = AccessContext::new(690.0, 4.5);
        let (pc, pe, pu) = line_read_probabilities(&words, &ctx);
        assert!((pc + pe + pu - 1.0).abs() < 1e-9);
        assert!(pe > 0.0);
        // Line error probability exceeds any single word's.
        let (p0, _, _) = word_failure_probabilities(&words[0], &ctx);
        assert!(pc <= p0);
    }

    #[test]
    fn line_probabilities_empty_line_is_clean() {
        let ctx = AccessContext::new(700.0, 4.5);
        let (pc, pe, pu) = line_read_probabilities(&[], &ctx);
        assert_eq!((pc, pe, pu), (1.0, 0.0, 0.0));
    }

    #[test]
    fn at_set_point_constructor() {
        let ctx = AccessContext::new(736.0, 4.5);
        assert_eq!(ctx.v_eff_mv, 736.0);
        assert_eq!(ctx.temperature, AccessContext::REFERENCE_TEMP);
    }
}

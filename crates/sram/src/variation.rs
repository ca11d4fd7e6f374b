//! Deterministic per-chip variation: critical voltages for every cell.
//!
//! A [`ChipVariation`] is a pure function from coordinates to cell
//! parameters, derived from a chip seed. Nothing is stored; any cell of the
//! 32 MB L3 can be queried on demand, and the answer never changes — the
//! paper's "deterministic error distribution" (§II-D) by construction.

use crate::params::SramParams;
use vs_types::rng::{hash_key, key_extend, CounterRng};
use vs_types::stats::normal_quantile;
use vs_types::{CacheKind, CoreId, Millivolts, SetWay, VddMode};

/// Bits per ECC word over which the order statistics are taken (64 data +
/// 8 check bits of the (72,64) cache geometry).
pub const BITS_PER_WORD: u64 = 72;

/// Relative guard of the per-line weakest-cell scan: only words whose first
/// order-statistic draw `u` lies within this fraction of the line's largest
/// draw have their natural critical voltage evaluated.
///
/// `natural(u) = mu + Φ⁻¹(clamp(u^(1/72)))·σ` is non-decreasing in `u`, so
/// the line's maximum belongs to its largest draws. The guard only has to
/// absorb the places where the floating-point evaluation can disagree with
/// that order: `powf`'s sub-ulp error (relative ~1e-16) and the branch
/// joints of Acklam's probit (relative error ≤ 1.15e-9 in `z`). A relative
/// gap of 1e-6 in `u` is a gap of ~1.4e-8 in `u^(1/72)` and at least ~2e-8
/// in `z` over the clamped range `u ≥ 1e-12` — more than ten times any
/// of those errors — so every word outside the guard has a strictly lower
/// natural voltage than the line's largest draw.
pub(crate) const LINE_SCAN_GUARD: f64 = 1.0e-6;

/// One tracked weak cell of a word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakCell {
    /// Codeword bit position (0..72).
    pub bit: u32,
    /// Critical voltage of the cell, in millivolts: accesses at supply
    /// levels below this start to fail.
    pub vc_mv: f64,
}

/// The tracked weakest cells of one ECC word, strongest-first ordering is
/// *descending* critical voltage (index 0 is the weakest cell — the one
/// that fails at the highest voltage).
#[derive(Debug, Clone, PartialEq)]
pub struct WordCells {
    cells: Vec<WeakCell>,
}

impl WordCells {
    /// Creates a word from pre-sorted cells (descending `vc_mv`).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or not sorted descending by `vc_mv`.
    pub fn new(cells: Vec<WeakCell>) -> WordCells {
        assert!(!cells.is_empty(), "a word must track at least one cell");
        assert!(
            cells.windows(2).all(|w| w[0].vc_mv >= w[1].vc_mv),
            "cells must be sorted weakest (highest Vc) first"
        );
        WordCells { cells }
    }

    /// The weakest cell (highest critical voltage).
    pub fn weakest(&self) -> WeakCell {
        self.cells[0]
    }

    /// All tracked cells, weakest first.
    pub fn cells(&self) -> &[WeakCell] {
        &self.cells
    }
}

/// The full variation map of one simulated chip.
///
/// Cloning is cheap; the struct holds only the seed and parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipVariation {
    seed: u64,
    params: SramParams,
}

/// Stream-id tags used when deriving sub-streams, kept distinct so that no
/// two quantities ever share a random stream.
mod tag {
    pub const CORE_OFFSET: u64 = 0xC0;
    pub const LINE_OFFSET: u64 = 0x11;
    pub const WORD_CELLS: u64 = 0xCE;
    pub const LOGIC_FLOOR: u64 = 0xF1;
    pub const AGING: u64 = 0xA6;
    pub const LINE_NOISE: u64 = 0x1F;
}

impl ChipVariation {
    /// Creates the variation map for the chip with the given seed.
    pub fn new(seed: u64, params: SramParams) -> ChipVariation {
        ChipVariation { seed, params }
    }

    /// The chip seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The calibration parameters.
    pub fn params(&self) -> &SramParams {
        &self.params
    }

    /// The systematic critical-voltage offset of a core, in millivolts.
    ///
    /// Positive offsets make a core *weaker* (its cells fail at higher
    /// voltages). The spread is ~4× larger at the low-voltage point.
    pub fn core_offset_mv(&self, core: CoreId, mode: VddMode) -> f64 {
        let mut rng = CounterRng::from_key(self.seed, &[tag::CORE_OFFSET, core.0 as u64]);
        // A single standard draw per core, scaled per mode, so the *ranking*
        // of cores is identical in both modes (same silicon).
        let z = rng.next_gaussian();
        z * self.params.sigma_core_mv(mode)
    }

    /// The systematic per-line offset, in millivolts.
    pub fn line_offset_mv(
        &self,
        core: CoreId,
        cache: CacheKind,
        location: SetWay,
        mode: VddMode,
    ) -> f64 {
        let sp = self.params.structure(cache, mode);
        let mut rng = CounterRng::from_key(
            self.seed,
            &[
                tag::LINE_OFFSET,
                core.0 as u64,
                cache.stream_id(),
                location.set as u64,
                location.way as u64,
            ],
        );
        rng.next_gaussian() * sp.sigma_line_mv
    }

    /// The tracked weakest cells of one ECC word of one line.
    ///
    /// The weakest `weak_bits_per_word` cells of the word's
    /// [`BITS_PER_WORD`] bits are placed by Gaussian order statistics: the
    /// k-th *highest* of `n` standard normals is located via the uniform
    /// order-statistic recurrence and the probit function. The remaining
    /// bits sit far enough below to be negligible at operating voltages.
    pub fn word_cells(
        &self,
        core: CoreId,
        cache: CacheKind,
        location: SetWay,
        word: u32,
        mode: VddMode,
    ) -> WordCells {
        let mu = self.word_mu_mv(core, cache, location, mode);
        let mut cells = Vec::with_capacity(self.params.weak_bits_per_word.max(1));
        self.word_cells_into(mu, core, cache, location, word, mode, &mut cells);
        WordCells::new(cells)
    }

    /// The Gaussian mean critical voltage of one line's cells: structure
    /// mean plus the core and line systematic offsets. Hoisting this out
    /// of the per-word loop is what lets batched scans
    /// ([`CellBank::build`](crate::CellBank::build)) avoid recomputing two
    /// keyed Gaussian draws for every word of a line.
    pub fn word_mu_mv(
        &self,
        core: CoreId,
        cache: CacheKind,
        location: SetWay,
        mode: VddMode,
    ) -> f64 {
        self.structure_mu_mv(core, cache, mode) + self.line_offset_mv(core, cache, location, mode)
    }

    /// The part of [`ChipVariation::word_mu_mv`] shared by every line of
    /// one structure of one core: structure mean plus core offset. The sum
    /// is taken left to right, so adding the line offset afterwards gives
    /// the same bits as `word_mu_mv`.
    pub(crate) fn structure_mu_mv(&self, core: CoreId, cache: CacheKind, mode: VddMode) -> f64 {
        self.params.structure(cache, mode).mu_vc_mv + self.core_offset_mv(core, mode)
    }

    /// The key state shared by the word-cell streams of one line; word
    /// `w`'s stream is keyed by `key_extend(prefix, w)`.
    fn word_key_prefix(&self, core: CoreId, cache: CacheKind, location: SetWay) -> u64 {
        hash_key(
            self.seed,
            &[
                tag::WORD_CELLS,
                core.0 as u64,
                cache.stream_id(),
                location.set as u64,
                location.way as u64,
            ],
        )
    }

    fn word_rng(&self, core: CoreId, cache: CacheKind, location: SetWay, word: u32) -> CounterRng {
        CounterRng::new(key_extend(
            self.word_key_prefix(core, cache, location),
            u64::from(word),
        ))
    }

    /// Computes one word's tracked cells into a caller-provided buffer
    /// (cleared first), given the precomputed line mean `mu_mv` — the
    /// single source of truth shared by [`ChipVariation::word_cells`] and
    /// the batched bank builder, so both produce bit-identical values.
    ///
    /// The buffer ends sorted weakest (highest `vc_mv`) first.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn word_cells_into(
        &self,
        mu_mv: f64,
        core: CoreId,
        cache: CacheKind,
        location: SetWay,
        word: u32,
        mode: VddMode,
        out: &mut Vec<WeakCell>,
    ) {
        out.clear();
        let sp = self.params.structure(cache, mode);
        let mut rng = self.word_rng(core, cache, location, word);

        let k = self.params.weak_bits_per_word.max(1);
        let n = BITS_PER_WORD;
        // Descending uniform order statistics: U_(n) ~ max of n uniforms is
        // u^(1/n); conditionally, the next one down scales the previous.
        let mut u_top = 1.0_f64;
        let mut remaining = n;
        let mut used_bits: u128 = 0;
        let screen = self.params.screen_mv(mode);
        for _ in 0..k {
            if remaining == 0 {
                break;
            }
            let u = rng.next_f64().max(1.0e-12);
            u_top *= u.powf(1.0 / remaining as f64);
            remaining -= 1;
            // Clamp away from the boundaries for the probit.
            let q = u_top.clamp(1.0e-12, 1.0 - 1.0e-12);
            let z = normal_quantile(q);
            // Pick a distinct bit position for this cell.
            let bit = loop {
                let b = rng.next_below(n) as u32;
                if used_bits & (1u128 << b) == 0 {
                    used_bits |= 1u128 << b;
                    break b;
                }
            };
            let natural = mu_mv + z * sp.sigma_cell_mv;
            // Manufacturing screen: cells that would fail inside the
            // factory guardband were replaced with redundant (typical-tail)
            // cells at test. The replacement lands a little below the
            // screen, deterministically per cell.
            let vc_mv = if natural > screen {
                screen - 5.0 - rng.next_gaussian().abs() * 15.0
            } else {
                natural
            };
            out.push(WeakCell { bit, vc_mv });
        }
        out.sort_by(|a, b| b.vc_mv.partial_cmp(&a.vc_mv).expect("finite voltages"));
    }

    /// The critical voltage of one word's single weakest cell, without
    /// materializing the other tracked cells.
    ///
    /// The first order-statistic draw is the word's highest *natural*
    /// critical voltage; when it clears the manufacturing screen no cell
    /// of the word was replaced at test, so it is exactly
    /// `word_cells(..).weakest().vc_mv` at a third of the cost. When the
    /// draw lands above the screen the replacement reshuffles the
    /// ordering, so the full per-cell computation is used.
    ///
    /// Ranking scans do not call this per word: they use
    /// [`ChipVariation::line_weakest_vc_mv`], which reaches the same line
    /// maximum with one probit per line. This per-word form is that scan's
    /// fallback for lines that reach the screen, and its test oracle.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn word_weakest_vc_mv(
        &self,
        mu_mv: f64,
        core: CoreId,
        cache: CacheKind,
        location: SetWay,
        word: u32,
        mode: VddMode,
        scratch: &mut Vec<WeakCell>,
    ) -> f64 {
        let sigma = self.params.structure(cache, mode).sigma_cell_mv;
        let u = self
            .word_rng(core, cache, location, word)
            .next_f64()
            .max(1.0e-12);
        let natural = top_natural_mv(mu_mv, u, sigma);
        if natural <= self.params.screen_mv(mode) {
            // No replacement anywhere in this word: later order statistics
            // are strictly lower, so the first one is the weakest cell.
            return natural;
        }
        self.word_cells_into(mu_mv, core, cache, location, word, mode, scratch);
        scratch
            .first()
            .expect("a word tracks at least one cell")
            .vc_mv
    }

    /// The critical voltage of a line's single weakest cell — bit for bit
    /// the maximum of [`ChipVariation::word_weakest_vc_mv`] over its
    /// `words` words — given the structure's
    /// [`structure_mu_mv`](ChipVariation::structure_mu_mv).
    ///
    /// The line's key prefix is hashed once, and each word costs one
    /// key extension and one uniform draw. `powf` and the probit run only
    /// for the draws within [`LINE_SCAN_GUARD`] of the largest one (almost
    /// always a single word), which hold the line maximum. If that maximum
    /// clears the manufacturing screen, some word of the line had a cell
    /// replaced at test and the per-word loop decides. `draws` and
    /// `scratch` are reused buffers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn line_weakest_vc_mv(
        &self,
        structure_mu_mv: f64,
        core: CoreId,
        cache: CacheKind,
        location: SetWay,
        words: u32,
        mode: VddMode,
        draws: &mut Vec<f64>,
        scratch: &mut Vec<WeakCell>,
    ) -> f64 {
        let mu = structure_mu_mv + self.line_offset_mv(core, cache, location, mode);
        let prefix = self.word_key_prefix(core, cache, location);
        draws.clear();
        let mut top_draw = 0.0_f64;
        for word in 0..words {
            let u = CounterRng::new(key_extend(prefix, u64::from(word)))
                .next_f64()
                .max(1.0e-12);
            top_draw = top_draw.max(u);
            draws.push(u);
        }
        let sigma = self.params.structure(cache, mode).sigma_cell_mv;
        let floor = top_draw * (1.0 - LINE_SCAN_GUARD);
        let line_max = draws
            .iter()
            .filter(|&&u| u >= floor)
            .map(|&u| top_natural_mv(mu, u, sigma))
            .fold(f64::NEG_INFINITY, first_max);
        if line_max <= self.params.screen_mv(mode) {
            return line_max;
        }
        (0..words)
            .map(|word| self.word_weakest_vc_mv(mu, core, cache, location, word, mode, scratch))
            .fold(f64::NEG_INFINITY, first_max)
    }

    /// The voltage below which this core's *logic* (not SRAM) fails
    /// outright, crashing the core.
    pub fn logic_floor(&self, core: CoreId, mode: VddMode) -> Millivolts {
        let (mean, sigma) = self.params.logic_floor_mv(mode);
        let mut rng = CounterRng::from_key(self.seed, &[tag::LOGIC_FLOOR, core.0 as u64]);
        // Same per-core draw in both modes: a slow core is slow everywhere.
        let z = rng.next_gaussian();
        // Couple the logic floor to the core's SRAM offset so that weak
        // cores are consistently weak, plus an independent component.
        let coupled = 0.6 * self.core_offset_mv(core, mode) / self.params.sigma_core_mv(mode);
        Millivolts((mean + (z * 0.8 + coupled) * sigma).round() as i32)
    }

    /// A per-line multiplier on the read-noise (logistic slope) of the
    /// line's cells, log-normally distributed around 1 within roughly
    /// [0.5, 2.5].
    ///
    /// This is what gives different lines the differently steep
    /// error-probability ramps of the paper's Figure 13 (20 mV for the
    /// sharpest core to over 50 mV for the shallowest).
    pub fn line_noise_factor(&self, core: CoreId, cache: CacheKind, location: SetWay) -> f64 {
        let mut rng = CounterRng::from_key(
            self.seed,
            &[
                tag::LINE_NOISE,
                core.0 as u64,
                cache.stream_id(),
                location.set as u64,
                location.way as u64,
            ],
        );
        // Log-normal with sigma_ln = 0.28: median 1.0, ~95% within
        // [0.58, 1.73]. Combined with the 3.2 mV base slope this spans the
        // paper's 20-50 mV 0-100% ramp widths.
        (0.28 * rng.next_gaussian()).exp()
    }

    /// The additional critical-voltage shift from aging, in millivolts, for
    /// a given line after `age_hours` hours of operation.
    ///
    /// The shift has a per-line random weight (drawn once per line), so
    /// with enough aging the identity of the *weakest* line in a structure
    /// can change — which is what periodic recalibration (§III-D) exists to
    /// catch.
    pub fn aging_shift_mv(
        &self,
        core: CoreId,
        cache: CacheKind,
        location: SetWay,
        age_hours: f64,
    ) -> f64 {
        if age_hours <= 0.0 {
            return 0.0;
        }
        let mut rng = CounterRng::from_key(
            self.seed,
            &[
                tag::AGING,
                core.0 as u64,
                cache.stream_id(),
                location.set as u64,
                location.way as u64,
            ],
        );
        // Half-normal weight: aging only ever weakens cells.
        let weight = rng.next_gaussian().abs();
        self.params.aging_mv_per_khour * (age_hours / 1000.0) * weight
    }
}

/// A word's highest natural critical voltage from its first (clamped)
/// order-statistic draw `u`: the maximum of [`BITS_PER_WORD`] uniforms is
/// `u^(1/72)`, placed on the cell distribution by the probit. The same
/// arithmetic as the first step of `word_cells_into`.
#[inline]
fn top_natural_mv(mu_mv: f64, u: f64, sigma_cell_mv: f64) -> f64 {
    let q = u
        .powf(1.0 / BITS_PER_WORD as f64)
        .clamp(1.0e-12, 1.0 - 1.0e-12);
    mu_mv + normal_quantile(q) * sigma_cell_mv
}

/// `max` that keeps the earlier value on ties, like a strict `>` scan.
#[inline]
fn first_max(best: f64, v: f64) -> f64 {
    if v > best {
        v
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_types::stats::{mean, std_dev};

    fn chip() -> ChipVariation {
        ChipVariation::new(1234, SramParams::default())
    }

    #[test]
    fn word_cells_deterministic() {
        let c = chip();
        let a = c.word_cells(
            CoreId(2),
            CacheKind::L2Data,
            SetWay::new(100, 5),
            7,
            VddMode::LowVoltage,
        );
        let b = c.word_cells(
            CoreId(2),
            CacheKind::L2Data,
            SetWay::new(100, 5),
            7,
            VddMode::LowVoltage,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn word_cells_sorted_and_distinct_bits() {
        let c = chip();
        for set in 0..64 {
            let cells = c.word_cells(
                CoreId(0),
                CacheKind::L2Instruction,
                SetWay::new(set, 0),
                0,
                VddMode::LowVoltage,
            );
            let v: Vec<f64> = cells.cells().iter().map(|c| c.vc_mv).collect();
            assert!(v.windows(2).all(|w| w[0] >= w[1]), "not sorted: {v:?}");
            let mut bits: Vec<u32> = cells.cells().iter().map(|c| c.bit).collect();
            bits.sort_unstable();
            bits.dedup();
            assert_eq!(bits.len(), cells.cells().len());
            assert!(bits.iter().all(|&b| b < 72));
        }
    }

    #[test]
    fn weakest_cell_statistics_match_order_theory() {
        // The weakest of 72 cells should average around mu + 2.4 sigma.
        let c = chip();
        let sp = SramParams::default().structure(CacheKind::L2Data, VddMode::LowVoltage);
        let mut zs = Vec::new();
        for set in 0..512 {
            for way in 0..8 {
                let cells = c.word_cells(
                    CoreId(3),
                    CacheKind::L2Data,
                    SetWay::new(set, way),
                    0,
                    VddMode::LowVoltage,
                );
                let mu = sp.mu_vc_mv
                    + c.core_offset_mv(CoreId(3), VddMode::LowVoltage)
                    + c.line_offset_mv(
                        CoreId(3),
                        CacheKind::L2Data,
                        SetWay::new(set, way),
                        VddMode::LowVoltage,
                    );
                zs.push((cells.weakest().vc_mv - mu) / sp.sigma_cell_mv);
            }
        }
        let m = mean(&zs).unwrap();
        assert!(
            (2.2..2.7).contains(&m),
            "E[max z of 72] should be ~2.4, got {m}"
        );
    }

    #[test]
    fn core_offsets_have_expected_spread() {
        // Over many hypothetical cores the offset sigma should match params.
        let c = chip();
        let offsets: Vec<f64> = (0..4000)
            .map(|i| c.core_offset_mv(CoreId(i), VddMode::LowVoltage))
            .collect();
        let s = std_dev(&offsets).unwrap();
        assert!(
            (12.0..16.0).contains(&s),
            "sigma_core should be ~14 mV, got {s}"
        );
    }

    #[test]
    fn core_ranking_consistent_across_modes() {
        let c = chip();
        for core in 0..8 {
            let low = c.core_offset_mv(CoreId(core), VddMode::LowVoltage);
            let nom = c.core_offset_mv(CoreId(core), VddMode::Nominal);
            // Same sign, scaled magnitude.
            assert_eq!(low.signum(), nom.signum());
            assert!(low.abs() > nom.abs());
        }
    }

    #[test]
    fn logic_floor_below_first_error_band() {
        let c = chip();
        for core in 0..8 {
            let floor = c.logic_floor(CoreId(core), VddMode::LowVoltage);
            assert!(
                (540..660).contains(&floor.0),
                "core {core} floor {floor} out of plausible band"
            );
        }
    }

    #[test]
    fn logic_floor_deterministic() {
        let c = chip();
        assert_eq!(
            c.logic_floor(CoreId(5), VddMode::LowVoltage),
            c.logic_floor(CoreId(5), VddMode::LowVoltage)
        );
    }

    #[test]
    fn aging_monotone_and_zero_at_zero() {
        let c = chip();
        let loc = SetWay::new(9, 1);
        assert_eq!(
            c.aging_shift_mv(CoreId(0), CacheKind::L2Data, loc, 0.0),
            0.0
        );
        let one = c.aging_shift_mv(CoreId(0), CacheKind::L2Data, loc, 1000.0);
        let two = c.aging_shift_mv(CoreId(0), CacheKind::L2Data, loc, 2000.0);
        assert!(one >= 0.0);
        assert!(two >= one);
    }

    #[test]
    fn aging_weights_vary_by_line() {
        let c = chip();
        let a = c.aging_shift_mv(CoreId(0), CacheKind::L2Data, SetWay::new(1, 0), 5000.0);
        let b = c.aging_shift_mv(CoreId(0), CacheKind::L2Data, SetWay::new(2, 0), 5000.0);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn word_cells_ctor_validates_order() {
        let _ = WordCells::new(vec![
            WeakCell { bit: 0, vc_mv: 1.0 },
            WeakCell { bit: 1, vc_mv: 2.0 },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn word_cells_ctor_rejects_empty() {
        let _ = WordCells::new(Vec::new());
    }

    #[test]
    fn line_noise_factor_spread() {
        let c = chip();
        let factors: Vec<f64> = (0..2000)
            .map(|s| c.line_noise_factor(CoreId(0), CacheKind::L2Data, SetWay::new(s, 0)))
            .collect();
        assert!(factors.iter().all(|&f| f > 0.2 && f < 4.0));
        let below = factors.iter().filter(|&&f| f < 1.0).count();
        // Median should be near 1.0: roughly half below.
        assert!(
            (800..1200).contains(&below),
            "median off: {below}/2000 below 1.0"
        );
        // Deterministic.
        assert_eq!(
            c.line_noise_factor(CoreId(1), CacheKind::L2Data, SetWay::new(3, 2)),
            c.line_noise_factor(CoreId(1), CacheKind::L2Data, SetWay::new(3, 2))
        );
    }

    #[test]
    fn no_cell_survives_above_the_screen() {
        let c = chip();
        let screen = c.params().screen_mv(VddMode::LowVoltage);
        for set in 0..512 {
            for way in 0..8 {
                let cells = c.word_cells(
                    CoreId(0),
                    CacheKind::L2Data,
                    SetWay::new(set, way),
                    0,
                    VddMode::LowVoltage,
                );
                assert!(
                    cells.weakest().vc_mv <= screen,
                    "cell above the manufacturing screen at set {set} way {way}"
                );
            }
        }
    }

    #[test]
    fn line_scan_equals_the_per_word_maximum() {
        // With a tight screen, many lines have a word whose first draw
        // clears it, so both the guarded probit path and the per-word
        // fallback are compared against the per-word oracle.
        let params = SramParams {
            screen_margin_mv: 110.0,
            ..SramParams::default()
        };
        let (mut draws, mut scratch) = (Vec::new(), Vec::new());
        let mut screened_lines = 0;
        for (seed, params) in [(5, SramParams::default()), (6, params)] {
            let c = ChipVariation::new(seed, params);
            for mode in [VddMode::LowVoltage, VddMode::Nominal] {
                let kind = CacheKind::L2Data;
                let core = CoreId(1);
                let structure_mu = c.structure_mu_mv(core, kind, mode);
                let screen = c.params().screen_mv(mode);
                let sigma = c.params().structure(kind, mode).sigma_cell_mv;
                for set in 0..256 {
                    let loc = SetWay::new(set, set % 8);
                    let mu = c.word_mu_mv(core, kind, loc, mode);
                    assert_eq!(mu, structure_mu + c.line_offset_mv(core, kind, loc, mode));
                    let mut want = f64::NEG_INFINITY;
                    let mut screened = false;
                    for word in 0..16 {
                        let vc =
                            c.word_weakest_vc_mv(mu, core, kind, loc, word, mode, &mut scratch);
                        want = first_max(want, vc);
                        let u = c.word_rng(core, kind, loc, word).next_f64().max(1.0e-12);
                        screened |= top_natural_mv(mu, u, sigma) > screen;
                    }
                    screened_lines += usize::from(screened);
                    let got = c.line_weakest_vc_mv(
                        structure_mu,
                        core,
                        kind,
                        loc,
                        16,
                        mode,
                        &mut draws,
                        &mut scratch,
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "{mode:?} set {set}");
                }
            }
        }
        assert!(screened_lines > 0, "the fallback path never ran");
    }

    #[test]
    fn different_seeds_give_different_chips() {
        let a = ChipVariation::new(1, SramParams::default());
        let b = ChipVariation::new(2, SramParams::default());
        let loc = SetWay::new(0, 0);
        let wa = a.word_cells(CoreId(0), CacheKind::L2Data, loc, 0, VddMode::LowVoltage);
        let wb = b.word_cells(CoreId(0), CacheKind::L2Data, loc, 0, VddMode::LowVoltage);
        assert_ne!(wa.weakest().vc_mv, wb.weakest().vc_mv);
    }
}

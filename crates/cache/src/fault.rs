//! Fault injection: the bridge between the SRAM failure model and the
//! cache's encoded data path.

use std::fmt;
use vs_sram::{AccessContext, ChipVariation};
use vs_types::rng::CounterRng;
use vs_types::{CacheKind, Celsius, CoreId, FlipMask, SetWay, VddMode};

/// Decides which codeword bits are observed flipped on one word read.
///
/// Implemented by [`NoFaults`] (functional testing: a perfect array) and by
/// [`FaultInjector`] (the variation-driven physical model).
pub trait Injector {
    /// Mask of bits observed flipped when reading `word` of the line at
    /// `location` in a structure of kind `kind`.
    fn flip_mask(&mut self, kind: CacheKind, location: SetWay, word: u32) -> FlipMask;
}

/// An injector that never flips anything: an ideal SRAM array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl Injector for NoFaults {
    fn flip_mask(&mut self, _kind: CacheKind, _location: SetWay, _word: u32) -> FlipMask {
        FlipMask::EMPTY
    }
}

/// The physical fault model: consults [`ChipVariation`] for the weak cells
/// of the word being read and samples access-time failures at the current
/// effective voltage and temperature.
pub struct FaultInjector<'a> {
    chip: &'a ChipVariation,
    core: CoreId,
    mode: VddMode,
    /// Effective voltage at the array in millivolts.
    pub v_eff_mv: f64,
    /// Silicon temperature.
    pub temperature: Celsius,
    rng: &'a mut CounterRng,
    /// Extra critical-voltage shift applied to every cell (used for aging
    /// experiments); normally zero.
    pub aging_hours: f64,
}

impl fmt::Debug for FaultInjector<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("core", &self.core)
            .field("mode", &self.mode)
            .field("v_eff_mv", &self.v_eff_mv)
            .field("temperature", &self.temperature)
            .field("aging_hours", &self.aging_hours)
            .finish()
    }
}

impl<'a> FaultInjector<'a> {
    /// Creates an injector for accesses issued by `core` at the given
    /// effective voltage.
    pub fn new(
        chip: &'a ChipVariation,
        core: CoreId,
        mode: VddMode,
        v_eff_mv: f64,
        rng: &'a mut CounterRng,
    ) -> FaultInjector<'a> {
        FaultInjector {
            chip,
            core,
            mode,
            v_eff_mv,
            temperature: AccessContext::REFERENCE_TEMP,
            rng,
            aging_hours: 0.0,
        }
    }

    /// Sets the accumulated aging (builder style).
    pub fn with_aging_hours(mut self, hours: f64) -> FaultInjector<'a> {
        self.aging_hours = hours;
        self
    }

    /// The access context for a given structure kind at the current
    /// conditions. The read-noise slope carries the per-line variation
    /// factor, so different lines ramp with different steepness
    /// (Figure 13).
    pub(crate) fn context(&self, kind: CacheKind, location: SetWay) -> AccessContext {
        let sp = self.chip.params().structure(kind, self.mode);
        let factor = self.chip.line_noise_factor(self.core, kind, location);
        AccessContext {
            v_eff_mv: self.v_eff_mv,
            temperature: self.temperature,
            read_noise_mv: sp.read_noise_mv * factor,
            temp_coeff_mv_per_c: self.chip.params().temp_coeff_mv_per_c,
        }
    }
}

impl Injector for FaultInjector<'_> {
    fn flip_mask(&mut self, kind: CacheKind, location: SetWay, word: u32) -> FlipMask {
        let mut cells = self
            .chip
            .word_cells(self.core, kind, location, word, self.mode);
        if self.aging_hours > 0.0 {
            let shift = self
                .chip
                .aging_shift_mv(self.core, kind, location, self.aging_hours);
            let shifted: Vec<vs_sram::WeakCell> = cells
                .cells()
                .iter()
                .map(|c| vs_sram::WeakCell {
                    bit: c.bit,
                    vc_mv: c.vc_mv + shift,
                })
                .collect();
            cells = vs_sram::WordCells::new(shifted);
        }
        let ctx = self.context(kind, location);
        ctx.sample_word_flips(&cells, self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_sram::SramParams;

    #[test]
    fn no_faults_is_silent() {
        let mut inj = NoFaults;
        assert!(inj
            .flip_mask(CacheKind::L2Data, SetWay::new(0, 0), 0)
            .is_empty());
    }

    #[test]
    fn injector_flips_everything_at_very_low_voltage() {
        let chip = ChipVariation::new(7, SramParams::default());
        let mut rng = CounterRng::from_key(1, &[]);
        let mut inj = FaultInjector::new(&chip, CoreId(0), VddMode::LowVoltage, 300.0, &mut rng);
        // At 300 mV every tracked weak cell is far above the rail: all flip.
        let flips = inj.flip_mask(CacheKind::L2Data, SetWay::new(3, 1), 0);
        assert_eq!(
            flips.count() as usize,
            SramParams::default().weak_bits_per_word
        );
    }

    #[test]
    fn injector_is_silent_at_nominal_voltage() {
        let chip = ChipVariation::new(7, SramParams::default());
        let mut rng = CounterRng::from_key(2, &[]);
        let mut inj = FaultInjector::new(&chip, CoreId(0), VddMode::LowVoltage, 800.0, &mut rng);
        for set in 0..32 {
            assert!(
                inj.flip_mask(CacheKind::L2Data, SetWay::new(set, 0), 0)
                    .is_empty(),
                "no flips expected at nominal voltage"
            );
        }
    }

    #[test]
    fn aging_increases_flip_rate() {
        let chip = ChipVariation::new(7, SramParams::default());
        let loc = SetWay::new(11, 2);
        // Find a voltage near the weak cell's Vc for this word.
        let cells = chip.word_cells(CoreId(0), CacheKind::L2Data, loc, 0, VddMode::LowVoltage);
        let v = cells.weakest().vc_mv;

        let count_flips = |aging: f64| -> usize {
            let mut rng = CounterRng::from_key(3, &[]);
            let mut total = 0;
            for _ in 0..2000 {
                let mut inj =
                    FaultInjector::new(&chip, CoreId(0), VddMode::LowVoltage, v, &mut rng)
                        .with_aging_hours(aging);
                total += usize::from(!inj.flip_mask(CacheKind::L2Data, loc, 0).is_empty());
            }
            total
        };
        let fresh = count_flips(0.0);
        let aged = count_flips(50_000.0);
        assert!(
            aged > fresh,
            "aged part should fail more often ({aged} vs {fresh})"
        );
    }

    #[test]
    fn context_uses_structure_noise() {
        let chip = ChipVariation::new(7, SramParams::default());
        let mut rng = CounterRng::from_key(4, &[]);
        let inj = FaultInjector::new(&chip, CoreId(0), VddMode::LowVoltage, 700.0, &mut rng);
        let loc = SetWay::new(0, 0);
        let l2 = inj.context(CacheKind::L2Data, loc);
        let l1 = inj.context(CacheKind::L1Data, loc);
        assert_ne!(l2.read_noise_mv, l1.read_noise_mv);
        assert_eq!(l2.v_eff_mv, 700.0);
    }

    #[test]
    fn context_noise_varies_by_line() {
        let chip = ChipVariation::new(7, SramParams::default());
        let mut rng = CounterRng::from_key(5, &[]);
        let inj = FaultInjector::new(&chip, CoreId(0), VddMode::LowVoltage, 700.0, &mut rng);
        let a = inj
            .context(CacheKind::L2Data, SetWay::new(1, 0))
            .read_noise_mv;
        let b = inj
            .context(CacheKind::L2Data, SetWay::new(2, 0))
            .read_noise_mv;
        assert_ne!(a, b, "per-line noise factors must differ");
    }
}

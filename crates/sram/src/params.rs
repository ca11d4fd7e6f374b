//! Calibration parameters for the SRAM variation model.
//!
//! The defaults are calibrated so that the simulated chip reproduces the
//! magnitudes the paper measured on Itanium 9560 parts:
//!
//! * at the low-voltage point (340 MHz, 800 mV nominal) the first
//!   correctable errors appear ~100 mV below nominal and minimum safe
//!   voltages land in the 600–660 mV band with >10 % core-to-core spread;
//! * at the nominal point (2.53 GHz, 1.1 V) errors appear ~100 mV below
//!   nominal but the correctable-error band is ~4× *narrower*;
//! * the error-probability ramp of a single line spans 20–50 mV
//!   (Figure 13);
//! * at low voltage only L2 caches err (smallest cells); at nominal
//!   frequency, register files contribute too (timing-induced), per §II-C.
//!
//! # Why the cell distribution is long-tailed
//!
//! The paper's chips run ~120 mV *below* the first-error voltage with
//! correctable errors only — so the cells that fail in the usable band must
//! be rare outliers. The calibration works backwards from that: an L2 pair
//! holds ~7.1 M cells; placing the weakest cell (the first-error voltage,
//! ~5.1 σ) ~100 mV below nominal and wanting only ~10² cells failing at the
//! crash voltage (~4.2 σ) fixes `sigma_cell ≈ 92 mV` and `mu ≈ 230 mV` at
//! the low-voltage point. The nominal point's ~4× narrower band gives
//! `sigma_cell ≈ 22 mV` there. Structures with larger cells (L1s, register
//! files) have their tails entirely below the usable voltage range — except
//! the register files at the *nominal* (timing-limited) point, where the
//! paper observed a mix of cache and register-file errors.

use vs_types::{CacheKind, VddMode};

/// Variation parameters for one SRAM structure kind at one operating point.
///
/// All voltages are in millivolts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureParams {
    /// Mean critical voltage of a single cell of this structure.
    pub mu_vc_mv: f64,
    /// Standard deviation of the per-cell random component.
    pub sigma_cell_mv: f64,
    /// Standard deviation of the per-line systematic component.
    pub sigma_line_mv: f64,
    /// Logistic slope of the per-access failure response; the 2 %→98 % ramp
    /// of a single cell spans roughly `8 × read_noise_mv`.
    pub read_noise_mv: f64,
}

impl StructureParams {
    /// Parameters for a structure that is effectively immune in a regime
    /// (critical voltages far below any operating voltage).
    pub(crate) fn robust() -> StructureParams {
        StructureParams {
            mu_vc_mv: 100.0,
            sigma_cell_mv: 40.0,
            sigma_line_mv: 4.0,
            read_noise_mv: 3.0,
        }
    }
}

/// Full parameter set for the chip's SRAM model.
#[derive(Debug, Clone, PartialEq)]
pub struct SramParams {
    /// Core-to-core systematic sigma at the low-voltage point. The paper
    /// finds ~4× more core-to-core Vmin variability at low voltage.
    pub sigma_core_low_mv: f64,
    /// Core-to-core systematic sigma at the nominal point.
    pub sigma_core_nominal_mv: f64,
    /// Mean of the per-core logic floor (crash voltage of core logic) at the
    /// low-voltage point.
    pub logic_floor_low_mv: f64,
    /// Mean logic floor at the nominal point.
    pub logic_floor_nominal_mv: f64,
    /// Sigma of the per-core logic floor at the low-voltage point.
    pub logic_floor_sigma_low_mv: f64,
    /// Sigma of the per-core logic floor at the nominal point.
    pub logic_floor_sigma_nominal_mv: f64,
    /// Critical-voltage shift per degree Celsius away from the 50 °C
    /// reference. Deliberately small: the paper measured no effect from
    /// ±20 °C (§III-D).
    pub temp_coeff_mv_per_c: f64,
    /// Mean critical-voltage drift per 1000 hours of aging, applied with a
    /// per-line random weight so that the weak-line *ranking* can change
    /// (§III-D recalibration).
    pub aging_mv_per_khour: f64,
    /// How many of the weakest bits of each ECC word are tracked
    /// individually (the remainder are statistically negligible at
    /// operating voltages).
    pub weak_bits_per_word: usize,
    /// Manufacturing-screen margin below each mode's nominal voltage, in
    /// millivolts. Cells whose natural critical voltage lands above
    /// `nominal − screen_margin_mv` would fail inside the factory test
    /// guardband; they are repaired with redundant cells at test (as on
    /// real parts), so no shipped cell errs that close to nominal.
    pub screen_margin_mv: f64,
}

impl Default for SramParams {
    fn default() -> SramParams {
        SramParams {
            sigma_core_low_mv: 14.0,
            sigma_core_nominal_mv: 3.5,
            logic_floor_low_mv: 588.0,
            logic_floor_sigma_low_mv: 12.0,
            logic_floor_nominal_mv: 983.0,
            logic_floor_sigma_nominal_mv: 4.0,
            temp_coeff_mv_per_c: 0.04,
            aging_mv_per_khour: 0.15,
            weak_bits_per_word: 3,
            screen_margin_mv: 55.0,
        }
    }
}

impl SramParams {
    /// Core-to-core systematic sigma for a mode.
    pub(crate) fn sigma_core_mv(&self, mode: VddMode) -> f64 {
        match mode {
            VddMode::Nominal => self.sigma_core_nominal_mv,
            VddMode::LowVoltage => self.sigma_core_low_mv,
        }
    }

    /// Mean and sigma of the per-core logic floor for a mode.
    pub(crate) fn logic_floor_mv(&self, mode: VddMode) -> (f64, f64) {
        match mode {
            VddMode::Nominal => (
                self.logic_floor_nominal_mv,
                self.logic_floor_sigma_nominal_mv,
            ),
            VddMode::LowVoltage => (self.logic_floor_low_mv, self.logic_floor_sigma_low_mv),
        }
    }

    /// Per-structure parameters at an operating point.
    ///
    /// The numbers encode the paper's qualitative findings:
    ///
    /// * **L2 caches** use the smallest cells and dominate failures at low
    ///   voltage; the L2I and L2D are statistically identical (differences
    ///   in observed error counts come from traffic, not cells).
    /// * **L1 caches** use larger/more robust cells ("we never see L1
    ///   errors", §II-C) — their onset sits below the logic floor.
    /// * **Register files** have relatively *worse* margins at the nominal
    ///   high-frequency point (timing-limited paths), so a mix of cache and
    ///   register-file errors appears there, but they are safely robust at
    ///   340 MHz.
    /// * **L3** runs on the uncore domain which is not speculated; its cells
    ///   are modelled as robust at the core domains' operating range.
    pub fn structure(&self, kind: CacheKind, mode: VddMode) -> StructureParams {
        match (mode, kind) {
            (VddMode::LowVoltage, CacheKind::L2Instruction | CacheKind::L2Data) => {
                StructureParams {
                    mu_vc_mv: 230.0,
                    sigma_cell_mv: 92.0,
                    sigma_line_mv: 9.0,
                    read_noise_mv: 3.2,
                }
            }
            (VddMode::LowVoltage, CacheKind::L1Instruction | CacheKind::L1Data) => {
                StructureParams {
                    mu_vc_mv: 150.0,
                    sigma_cell_mv: 75.0,
                    sigma_line_mv: 7.0,
                    read_noise_mv: 3.5,
                }
            }
            (VddMode::LowVoltage, CacheKind::L3Unified) => StructureParams {
                mu_vc_mv: 200.0,
                sigma_cell_mv: 78.0,
                sigma_line_mv: 7.0,
                read_noise_mv: 4.0,
            },
            (VddMode::LowVoltage, CacheKind::RegisterFileInt | CacheKind::RegisterFileFp) => {
                StructureParams::robust()
            }
            (VddMode::Nominal, CacheKind::L2Instruction | CacheKind::L2Data) => StructureParams {
                mu_vc_mv: 888.0,
                sigma_cell_mv: 22.0,
                sigma_line_mv: 3.0,
                read_noise_mv: 1.6,
            },
            (VddMode::Nominal, CacheKind::L1Instruction | CacheKind::L1Data) => StructureParams {
                mu_vc_mv: 840.0,
                sigma_cell_mv: 20.0,
                sigma_line_mv: 2.5,
                read_noise_mv: 1.5,
            },
            (VddMode::Nominal, CacheKind::L3Unified) => StructureParams {
                mu_vc_mv: 850.0,
                sigma_cell_mv: 20.0,
                sigma_line_mv: 3.0,
                read_noise_mv: 1.5,
            },
            (VddMode::Nominal, CacheKind::RegisterFileInt | CacheKind::RegisterFileFp) => {
                StructureParams {
                    mu_vc_mv: 906.0,
                    sigma_cell_mv: 25.0,
                    sigma_line_mv: 2.5,
                    read_noise_mv: 1.5,
                }
            }
        }
    }

    /// The manufacturing-screen voltage for a mode: cells with a natural
    /// critical voltage above this were repaired at factory test.
    pub(crate) fn screen_mv(&self, mode: VddMode) -> f64 {
        f64::from(mode.nominal_vdd().0) - self.screen_margin_mv
    }

    /// Estimate of the highest critical voltage among `cells` cells of a
    /// structure (the structure's first-error voltage, before core/line
    /// systematic offsets): `mu + Φ⁻¹(1 − 1/cells)·sigma_cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    #[cfg(test)]
    pub(crate) fn extreme_vc_estimate_mv(&self, kind: CacheKind, mode: VddMode, cells: u64) -> f64 {
        assert!(cells > 0, "need at least one cell");
        let sp = self.structure(kind, mode);
        if cells == 1 {
            return sp.mu_vc_mv;
        }
        let q = 1.0 - 1.0 / cells as f64;
        sp.mu_vc_mv + vs_types::stats::normal_quantile(q) * sp.sigma_cell_mv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Approximate cell counts used to compare structure extremes: an L2
    /// pair (256 KB + 512 KB of 72-bit words), the two L1s, the shared L3,
    /// and one core's register files.
    const L2_CELLS: u64 = 98_304 * 72;
    const L1_CELLS: u64 = 1_536 * 8 * 72;
    const L3_CELLS: u64 = 262_144 * 16 * 72;
    const RF_CELLS: u64 = 96 * 39;

    #[test]
    fn low_voltage_l2_fails_first() {
        // At the low-voltage point the L2s' weakest cell must sit well above
        // every other structure's (the paper only ever sees L2 errors).
        let p = SramParams::default();
        let l2 = p.extreme_vc_estimate_mv(CacheKind::L2Data, VddMode::LowVoltage, L2_CELLS);
        assert!(
            (660.0..740.0).contains(&l2),
            "L2 first-error voltage should be ~100 mV below the 800 mV nominal, got {l2}"
        );
        let l1 = p.extreme_vc_estimate_mv(CacheKind::L1Data, VddMode::LowVoltage, L1_CELLS);
        let l3 = p.extreme_vc_estimate_mv(CacheKind::L3Unified, VddMode::LowVoltage, L3_CELLS);
        let rf =
            p.extreme_vc_estimate_mv(CacheKind::RegisterFileInt, VddMode::LowVoltage, RF_CELLS);
        let (floor, _) = p.logic_floor_mv(VddMode::LowVoltage);
        assert!(
            l1 < floor,
            "L1 weakest cell ({l1}) must hide below the logic floor"
        );
        assert!(
            rf < floor,
            "RF weakest cell ({rf}) must hide below the logic floor"
        );
        // The L3 runs on the fixed 800 mV uncore rail: its weakest cell must
        // stay below that rail's worst-case effective voltage.
        assert!(
            l3 < 760.0,
            "L3 weakest cell ({l3}) must be safe at the uncore rail"
        );
    }

    #[test]
    fn nominal_mode_has_register_file_exposure() {
        // At the nominal (timing-limited) point the paper sees a mix of
        // cache and register-file errors: both extremes must fall inside
        // the usable band below 1.0 V (first errors) and above the floor.
        let p = SramParams::default();
        let l2 = p.extreme_vc_estimate_mv(CacheKind::L2Data, VddMode::Nominal, L2_CELLS);
        let rf = p.extreme_vc_estimate_mv(CacheKind::RegisterFileInt, VddMode::Nominal, RF_CELLS);
        let (floor, _) = p.logic_floor_mv(VddMode::Nominal);
        assert!((985.0..1020.0).contains(&l2), "L2 nominal onset, got {l2}");
        assert!(
            rf > floor,
            "RF errors must appear above the crash floor, got {rf}"
        );
        assert!(
            (l2 - rf).abs() < 30.0,
            "RF and L2 onsets must be comparable"
        );
        // L1s stay silent even at nominal.
        let l1 = p.extreme_vc_estimate_mv(CacheKind::L1Data, VddMode::Nominal, L1_CELLS);
        assert!(
            l1 < floor,
            "L1 weakest cell ({l1}) must hide below the floor"
        );
    }

    #[test]
    fn correctable_band_is_about_4x_wider_at_low_voltage() {
        // Band width ~ the spread between the weakest cell (first error)
        // and the ~100th-weakest cell (where multi-bit trouble starts),
        // which scales with sigma_cell.
        let p = SramParams::default();
        let low = p
            .structure(CacheKind::L2Data, VddMode::LowVoltage)
            .sigma_cell_mv;
        let nom = p
            .structure(CacheKind::L2Data, VddMode::Nominal)
            .sigma_cell_mv;
        let ratio = low / nom;
        assert!((3.0..6.0).contains(&ratio), "expected ~4x, got {ratio}");
    }

    #[test]
    fn core_variation_is_amplified_at_low_voltage() {
        let p = SramParams::default();
        let ratio = p.sigma_core_mv(VddMode::LowVoltage) / p.sigma_core_mv(VddMode::Nominal);
        assert!(
            (3.0..6.0).contains(&ratio),
            "expected ~4x amplification, got {ratio}"
        );
    }

    #[test]
    fn logic_floors_ordered() {
        let p = SramParams::default();
        let (low, _) = p.logic_floor_mv(VddMode::LowVoltage);
        let (nom, _) = p.logic_floor_mv(VddMode::Nominal);
        assert!(nom > low);
        // Logic floor must sit below the first-error voltage so a usable
        // correctable-error band exists.
        assert!(low < 700.0);
    }

    #[test]
    fn clone_eq() {
        let p = SramParams::default();
        let q = p.clone();
        assert_eq!(p, q);
    }
}

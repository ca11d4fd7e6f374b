//! Ranked weak-line tables.
//!
//! A [`WeakLineTable`] scans one structure of one core and retains its `k`
//! weakest lines (highest critical voltage), with full per-word cell data.
//! Everything below the table is statistically inert at usable voltages —
//! a line outside the top few dozen needs the supply to fall past the
//! logic floor before it errs — so the analytic error path only ever
//! consults the table.
//!
//! The scan is a pure function of the chip seed, so the table — like the
//! silicon it models — never changes between runs (§II-D determinism).

#[cfg(test)]
use vs_cache::CacheGeometry;
#[cfg(test)]
use vs_sram::ChipVariation;
use vs_sram::{line_read_probabilities, AccessContext, CellBank, WordCells};
use vs_types::{CacheKind, Celsius, CoreId, SetWay, VddMode};

/// One weak line with everything needed to evaluate its error behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct WeakLine {
    /// Where the line lives.
    pub location: SetWay,
    /// Cell data for every ECC word of the line.
    pub words: Vec<WordCells>,
    /// Critical voltage of the line's single weakest cell (the voltage
    /// where errors begin), in millivolts.
    pub weakest_vc_mv: f64,
    /// The line's effective read-noise slope (structure slope × per-line
    /// factor), in millivolts.
    pub read_noise_mv: f64,
    /// Temperature coefficient (shared chip parameter, carried here so a
    /// line is self-contained).
    pub temp_coeff_mv_per_c: f64,
}

impl WeakLine {
    /// Probability split `(clean, correctable, uncorrectable)` for one read
    /// of the whole line at effective voltage `v_eff_mv`.
    pub fn read_probabilities(&self, v_eff_mv: f64, temperature: Celsius) -> (f64, f64, f64) {
        let ctx = AccessContext {
            v_eff_mv,
            temperature,
            read_noise_mv: self.read_noise_mv,
            temp_coeff_mv_per_c: self.temp_coeff_mv_per_c,
        };
        // Words whose weakest cell is far below the rail cannot contribute;
        // skip them (8 noise-widths is ~1e-8 flip probability).
        let cutoff = v_eff_mv - 8.0 * self.read_noise_mv;
        let mut relevant: Vec<&WordCells> = Vec::new();
        for w in &self.words {
            if w.weakest().vc_mv >= cutoff {
                relevant.push(w);
            }
        }
        if relevant.is_empty() {
            return (1.0, 0.0, 0.0);
        }
        let owned: Vec<WordCells> = relevant.into_iter().cloned().collect();
        line_read_probabilities(&owned, &ctx)
    }
}

/// The `k` weakest lines of one structure, strongest signal first.
#[derive(Debug, Clone, PartialEq)]
pub struct WeakLineTable {
    core: CoreId,
    kind: CacheKind,
    mode: VddMode,
    /// Total lines in the structure (for traffic-per-line computations).
    total_lines: u64,
    /// Weak lines, sorted descending by `weakest_vc_mv`.
    lines: Vec<WeakLine>,
}

impl WeakLineTable {
    /// Scans the structure and builds the table of its `k` weakest lines.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[cfg(test)]
    pub(crate) fn build(
        variation: &ChipVariation,
        core: CoreId,
        kind: CacheKind,
        geometry: &CacheGeometry,
        mode: VddMode,
        k: usize,
    ) -> WeakLineTable {
        assert!(k > 0, "table must hold at least one line");
        let words_per_line = geometry.words_per_line() as u32;
        let base_noise = variation.params().structure(kind, mode).read_noise_mv;
        let temp_coeff = variation.params().temp_coeff_mv_per_c;

        // First pass: rank lines by their weakest cell, keeping only
        // (location, vc) to stay cheap.
        let mut ranked: Vec<(SetWay, f64)> = Vec::with_capacity(geometry.sets * geometry.ways);
        for location in geometry.iter_locations() {
            let mut line_max = f64::NEG_INFINITY;
            for word in 0..words_per_line {
                let cells = variation.word_cells(core, kind, location, word, mode);
                let vc = cells.weakest().vc_mv;
                if vc > line_max {
                    line_max = vc;
                }
            }
            ranked.push((location, line_max));
        }
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite voltages"));
        ranked.truncate(k);

        // Second pass: materialize full word data for the survivors.
        let lines = ranked
            .into_iter()
            .map(|(location, weakest_vc_mv)| {
                let words: Vec<WordCells> = (0..words_per_line)
                    .map(|w| variation.word_cells(core, kind, location, w, mode))
                    .collect();
                WeakLine {
                    location,
                    words,
                    weakest_vc_mv,
                    read_noise_mv: base_noise * variation.line_noise_factor(core, kind, location),
                    temp_coeff_mv_per_c: temp_coeff,
                }
            })
            .collect();

        WeakLineTable {
            core,
            kind,
            mode,
            total_lines: (geometry.sets * geometry.ways) as u64,
            lines,
        }
    }

    /// Materializes a table from an already-built [`CellBank`], avoiding a
    /// second ranking scan over the structure.
    ///
    /// The bank stores the same cells the scalar scan would compute, so
    /// the resulting table is identical to [`WeakLineTable::build`] with
    /// matching parameters (the banked-kernel property tests assert this).
    pub(crate) fn from_bank(bank: &CellBank) -> WeakLineTable {
        let words_per_line = bank.words_per_line() as u32;
        let lines = (0..bank.lines().len())
            .map(|li| {
                let meta = &bank.lines()[li];
                WeakLine {
                    location: meta.location,
                    words: (0..words_per_line)
                        .map(|w| bank.word_cells(li, w))
                        .collect(),
                    weakest_vc_mv: meta.weakest_vc_mv,
                    read_noise_mv: meta.read_noise_mv,
                    temp_coeff_mv_per_c: bank.temp_coeff_mv_per_c(),
                }
            })
            .collect();
        WeakLineTable {
            core: bank.core(),
            kind: bank.kind(),
            mode: bank.mode(),
            total_lines: bank.total_lines(),
            lines,
        }
    }

    /// Total lines in the structure.
    #[cfg(test)]
    pub(crate) fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// The weakest line — the one calibration designates for monitoring.
    pub fn weakest(&self) -> &WeakLine {
        &self.lines[0]
    }

    /// All tracked lines, weakest first.
    pub fn lines(&self) -> &[WeakLine] {
        &self.lines
    }

    /// The voltage at which this structure's first correctable error is
    /// expected (the weakest cell's critical voltage).
    pub fn first_error_voltage_mv(&self) -> f64 {
        self.weakest().weakest_vc_mv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_sram::SramParams;

    fn small_geometry() -> CacheGeometry {
        CacheGeometry::new(64, 4, 128, 9)
    }

    fn build_table() -> WeakLineTable {
        let variation = ChipVariation::new(77, SramParams::default());
        WeakLineTable::build(
            &variation,
            CoreId(0),
            CacheKind::L2Data,
            &small_geometry(),
            VddMode::LowVoltage,
            8,
        )
    }

    #[test]
    fn table_sorted_and_sized() {
        let t = build_table();
        assert_eq!(t.lines().len(), 8);
        assert_eq!(t.total_lines(), 256);
        assert!(t
            .lines()
            .windows(2)
            .all(|w| w[0].weakest_vc_mv >= w[1].weakest_vc_mv));
        assert_eq!(t.weakest().location, t.lines()[0].location);
        assert_eq!(t.first_error_voltage_mv(), t.weakest().weakest_vc_mv);
    }

    #[test]
    fn table_is_deterministic() {
        let a = build_table();
        let b = build_table();
        assert_eq!(a, b);
    }

    #[test]
    fn probabilities_behave_with_voltage() {
        let t = build_table();
        let line = t.weakest();
        let temp = Celsius(50.0);
        // Far above the weak cell: clean.
        let (pc, pe, pu) = line.read_probabilities(line.weakest_vc_mv + 80.0, temp);
        assert!(pc > 0.999, "clean far above Vc, got {pc}");
        assert_eq!((pe, pu), (0.0, 0.0));
        // At the weak cell: ~half the reads err.
        let (_, pe, _) = line.read_probabilities(line.weakest_vc_mv, temp);
        assert!((0.3..0.7).contains(&pe), "p(correctable) at Vc, got {pe}");
        // Monotone increase as voltage falls.
        let mut prev = 0.0;
        for dv in (0..60).step_by(5) {
            let (_, pe, pu) = line.read_probabilities(line.weakest_vc_mv + 30.0 - dv as f64, temp);
            let total = pe + pu;
            assert!(total >= prev - 1e-9);
            prev = total;
        }
    }

    #[test]
    fn uncorrectable_needs_two_cells_in_one_word() {
        // At voltages just below the weakest cell, UE probability must be
        // tiny: the second-weakest cell of that word is far lower. This is
        // the physical basis of the paper's safe speculation band.
        let t = build_table();
        let line = t.weakest();
        let (_, _, pu) = line.read_probabilities(line.weakest_vc_mv - 10.0, Celsius(50.0));
        assert!(pu < 0.01, "UE probability just below first error: {pu}");
    }

    #[test]
    fn tables_differ_between_cores() {
        let variation = ChipVariation::new(77, SramParams::default());
        let g = small_geometry();
        let a = WeakLineTable::build(
            &variation,
            CoreId(0),
            CacheKind::L2Data,
            &g,
            VddMode::LowVoltage,
            4,
        );
        let b = WeakLineTable::build(
            &variation,
            CoreId(1),
            CacheKind::L2Data,
            &g,
            VddMode::LowVoltage,
            4,
        );
        assert_ne!(
            a.weakest().location,
            b.weakest().location,
            "weak lines vary from core to core (paper §II-D); if this \
             fails the seed happened to collide — pick another"
        );
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_k_rejected() {
        let variation = ChipVariation::new(1, SramParams::default());
        WeakLineTable::build(
            &variation,
            CoreId(0),
            CacheKind::L2Data,
            &small_geometry(),
            VddMode::LowVoltage,
            0,
        );
    }
}

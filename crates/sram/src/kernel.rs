//! Batched struct-of-arrays failure kernel.
//!
//! The historical sampling path recomputed each word's weak cells from the
//! chip seed on every access — two heap allocations and a handful of keyed
//! Gaussian draws per word, repeated three times per fleet job because
//! every [`ChipVariation`] consumer rebuilt the same tables. This module
//! replaces that with a build-once, sample-forever layout:
//!
//! * [`CellBank`] — the tracked weak lines of one structure of one core,
//!   flattened into struct-of-arrays `vc_mv`/`bit` slices. Building it
//!   performs the ranking scan **once**; afterwards every query is a slice
//!   walk with zero allocation. The bank is immutable and shareable
//!   (`Arc`) across the several simulator instances a fleet job creates
//!   for the same die.
//! * [`FailureLut`] — per-voltage-step lookup tables quantized on the
//!   regulator's discrete millivolt grid (and 1 °C temperature buckets):
//!   line-level `(clean, correctable, uncorrectable)` probability triples,
//!   and per-word *subset CDFs* that sample a whole word's flip outcome
//!   with a **single** RNG draw plus a short CDF walk, instead of one
//!   Bernoulli draw per tracked cell. Both live in flat per-line grids —
//!   one row per °C bucket, each a lazily grown millivolt window — so a
//!   lookup is index arithmetic, not a hash probe; a word CDF takes `2^k`
//!   floats. [`FailureLut::sample_burst`] draws a run of whole-line reads
//!   against one resolved block of word CDFs, in the order and with the
//!   draws of the per-word [`FailureLut::sample_word`] calls it replaces.
//! * an **envelope fast path** — [`FailureLut::negligible`] evaluates the
//!   line triple at the floor of the query voltage (a provable
//!   over-estimate, since failure probability is monotonically decreasing
//!   in voltage) and lets callers skip sampling entirely when the expected
//!   event count is below [`NEGLIGIBLE_EVENTS`].
//!
//! Equivalence contracts (enforced by property tests in the workspace):
//!
//! * [`CellBank::sample_word_exact`] consumes the **identical RNG draw
//!   sequence** and produces the identical flip set as the scalar
//!   [`AccessContext::sample_word_flips`] on the same cells;
//! * [`CellBank::line_probabilities`] reproduces the analytic
//!   [`line_read_probabilities`] over the line's words that clear its
//!   8-noise-width word cutoff, without allocating;
//! * the LUT path agrees with the analytic path within the quantization
//!   bound `0.5 / (4 · read_noise)` — half a millivolt of rounding times
//!   the logistic's maximum slope;
//! * [`FailureLut::sample_burst`] yields the masks, the RNG position and
//!   the cached-entry counts of the equivalent [`FailureLut::sample_word`]
//!   calls, bit for bit.

use crate::failure::AccessContext;
use crate::variation::{ChipVariation, WeakCell, WordCells, BITS_PER_WORD};
use vs_types::rng::CounterRng;
use vs_types::{CacheKind, Celsius, CoreId, FlipMask, SetWay, VddMode};

/// Largest number of tracked cells per word the batched kernel supports.
///
/// The subset CDFs enumerate `2^k` outcomes per word, so `k` is kept
/// small; the model default is 3.
pub(crate) const MAX_CELLS_PER_WORD: usize = 6;

/// Expected-event threshold under which the envelope fast path declares a
/// batch of accesses statistically invisible: below this, the probability
/// that even one error occurs over the batch is bounded by the same
/// number.
pub(crate) const NEGLIGIBLE_EVENTS: f64 = 1.0e-9;

/// Per-line metadata of one tracked weak line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankLine {
    /// Where the line lives in its structure.
    pub location: SetWay,
    /// Critical voltage of the line's single weakest cell, in millivolts.
    pub weakest_vc_mv: f64,
    /// Effective read-noise slope of the line (structure slope × per-line
    /// factor), in millivolts.
    pub read_noise_mv: f64,
}

/// The tracked weak lines of one structure of one core, in
/// struct-of-arrays layout.
///
/// Ranking and cell values are bit-identical to the scalar
/// `word_cells`-based scan: the bank is built from the same keyed RNG
/// streams, ranks lines by the same weakest-cell criterion with the same
/// stable tie order, and stores the same cells, just flattened.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBank {
    core: CoreId,
    kind: CacheKind,
    mode: VddMode,
    cells_per_word: usize,
    words_per_line: usize,
    total_lines: u64,
    temp_coeff_mv_per_c: f64,
    lines: Vec<BankLine>,
    /// Critical voltages, `[line][word][cell]`, each word sorted weakest
    /// (highest) first.
    vc_mv: Vec<f64>,
    /// Codeword bit positions, parallel to `vc_mv`.
    bit: Vec<u32>,
}

impl CellBank {
    /// Scans one `sets × ways` structure and retains its `k_lines` weakest
    /// lines with full per-cell data.
    ///
    /// The first pass ranks every line by the critical voltage of its
    /// weakest cell (`ChipVariation::line_weakest_vc_mv`: one key hash
    /// per word, one probit per line, the full per-cell computation only
    /// for lines that reach the manufacturing screen) and keeps the top
    /// `k_lines` in a bounded insertion list. The second pass materializes
    /// the survivors. Both passes reuse scratch buffers — steady-state the
    /// build performs no allocation beyond the output arrays.
    ///
    /// # Panics
    ///
    /// Panics if `k_lines` or `words_per_line` is zero, or if the
    /// variation tracks more than `MAX_CELLS_PER_WORD` cells per word.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        variation: &ChipVariation,
        core: CoreId,
        kind: CacheKind,
        mode: VddMode,
        sets: usize,
        ways: usize,
        words_per_line: usize,
        k_lines: usize,
    ) -> CellBank {
        assert!(k_lines > 0, "bank must hold at least one line");
        assert!(words_per_line > 0, "a line has at least one word");
        let k = variation.params().weak_bits_per_word.max(1);
        assert!(
            k <= MAX_CELLS_PER_WORD && k as u64 <= BITS_PER_WORD,
            "batched kernel supports at most {MAX_CELLS_PER_WORD} tracked cells per word, got {k}"
        );
        let base_noise = variation.params().structure(kind, mode).read_noise_mv;
        let temp_coeff = variation.params().temp_coeff_mv_per_c;

        // First pass: rank all lines by their weakest cell, in scan order
        // (sets outer, ways inner), keeping the first `k_lines` of a
        // stable descending sort — the reference scan's ranking, ties
        // included.
        let structure_mu = variation.structure_mu_mv(core, kind, mode);
        let mut scratch: Vec<WeakCell> = Vec::with_capacity(k);
        let mut draws: Vec<f64> = Vec::with_capacity(words_per_line);
        let mut ranked: Vec<(SetWay, f64)> = Vec::with_capacity(k_lines + 1);
        for set in 0..sets {
            for way in 0..ways {
                let location = SetWay::new(set, way);
                let line_max = variation.line_weakest_vc_mv(
                    structure_mu,
                    core,
                    kind,
                    location,
                    words_per_line as u32,
                    mode,
                    &mut draws,
                    &mut scratch,
                );
                insert_top_k(&mut ranked, k_lines, location, line_max);
            }
        }

        // Second pass: materialize full cell data for the survivors.
        let mut lines = Vec::with_capacity(ranked.len());
        let mut vc_mv = Vec::with_capacity(ranked.len() * words_per_line * k);
        let mut bit = Vec::with_capacity(vc_mv.capacity());
        for (location, weakest_vc_mv) in ranked {
            let mu = variation.word_mu_mv(core, kind, location, mode);
            for word in 0..words_per_line as u32 {
                variation.word_cells_into(mu, core, kind, location, word, mode, &mut scratch);
                debug_assert_eq!(scratch.len(), k);
                for cell in &scratch {
                    vc_mv.push(cell.vc_mv);
                    bit.push(cell.bit);
                }
            }
            lines.push(BankLine {
                location,
                weakest_vc_mv,
                read_noise_mv: base_noise * variation.line_noise_factor(core, kind, location),
            });
        }

        CellBank {
            core,
            kind,
            mode,
            cells_per_word: k,
            words_per_line,
            total_lines: (sets * ways) as u64,
            temp_coeff_mv_per_c: temp_coeff,
            lines,
            vc_mv,
            bit,
        }
    }

    /// The core this bank belongs to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The structure this bank describes.
    pub fn kind(&self) -> CacheKind {
        self.kind
    }

    /// The operating mode the cells were derived for.
    pub fn mode(&self) -> VddMode {
        self.mode
    }

    /// Tracked cells per word.
    pub(crate) fn cells_per_word(&self) -> usize {
        self.cells_per_word
    }

    /// ECC words per line.
    pub fn words_per_line(&self) -> usize {
        self.words_per_line
    }

    /// Total lines in the underlying structure (not just the tracked
    /// ones), for traffic-per-line computations.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// The tracked lines, weakest first.
    pub fn lines(&self) -> &[BankLine] {
        &self.lines
    }

    /// Index of the tracked line at `location`, if it is tracked.
    pub fn find(&self, location: SetWay) -> Option<usize> {
        self.lines.iter().position(|l| l.location == location)
    }

    /// The critical voltages of one word's tracked cells, weakest first.
    #[inline]
    pub(crate) fn word_vcs(&self, line: usize, word: u32) -> &[f64] {
        let base = (line * self.words_per_line + word as usize) * self.cells_per_word;
        &self.vc_mv[base..base + self.cells_per_word]
    }

    /// The codeword bit positions of one word's tracked cells, in the
    /// order of their critical voltages (weakest first).
    #[inline]
    pub fn word_bits(&self, line: usize, word: u32) -> &[u32] {
        let base = (line * self.words_per_line + word as usize) * self.cells_per_word;
        &self.bit[base..base + self.cells_per_word]
    }

    /// An [`AccessContext`] for reads of one tracked line.
    pub fn context(&self, line: usize, v_eff_mv: f64, temperature: Celsius) -> AccessContext {
        AccessContext {
            v_eff_mv,
            temperature,
            read_noise_mv: self.lines[line].read_noise_mv,
            temp_coeff_mv_per_c: self.temp_coeff_mv_per_c,
        }
    }

    /// Materializes one word as a [`WordCells`] (allocates), the input of
    /// the analytic reference
    /// [`line_read_probabilities`](crate::line_read_probabilities) and of
    /// the scalar sampler.
    pub fn word_cells(&self, line: usize, word: u32) -> WordCells {
        let cells = self
            .word_vcs(line, word)
            .iter()
            .zip(self.word_bits(line, word))
            .map(|(&vc_mv, &bit)| WeakCell { bit, vc_mv })
            .collect();
        WordCells::new(cells)
    }

    /// Samples one read of a tracked word, consuming the **identical RNG
    /// draw sequence** as the scalar
    /// [`AccessContext::sample_word_flips`] on the same cells: one
    /// Bernoulli draw per cell until the flip probability falls below
    /// 1e-9, weakest cell first.
    pub fn sample_word_exact(
        &self,
        line: usize,
        word: u32,
        ctx: &AccessContext,
        rng: &mut CounterRng,
    ) -> FlipMask {
        let vcs = self.word_vcs(line, word);
        let bits = self.word_bits(line, word);
        let mut flipped = FlipMask::EMPTY;
        for (vc, &bit) in vcs.iter().zip(bits) {
            let p = ctx.flip_probability(*vc);
            if p < 1.0e-9 {
                break;
            }
            if rng.bernoulli(p) {
                flipped.set(bit);
            }
        }
        flipped
    }

    /// Probabilities that one read of a tracked word yields `(no error,
    /// exactly one flip, two or more flips)` — same arithmetic as
    /// [`word_failure_probabilities`](crate::word_failure_probabilities),
    /// without allocating.
    #[cfg(test)]
    pub(crate) fn word_probabilities(
        &self,
        line: usize,
        word: u32,
        ctx: &AccessContext,
    ) -> (f64, f64, f64) {
        let vcs = self.word_vcs(line, word);
        let mut ps = [0.0_f64; MAX_CELLS_PER_WORD];
        for (slot, vc) in ps.iter_mut().zip(vcs) {
            *slot = ctx.flip_probability(*vc);
        }
        word_probabilities_from(&ps[..vcs.len()])
    }

    /// Probability split `(clean, correctable, uncorrectable)` for one
    /// read of a whole tracked line:
    /// [`line_read_probabilities`](crate::line_read_probabilities) over the
    /// words that clear an 8-noise-width cutoff, without allocating.
    pub(crate) fn line_probabilities(
        &self,
        line: usize,
        v_eff_mv: f64,
        temperature: Celsius,
    ) -> (f64, f64, f64) {
        let ctx = self.context(line, v_eff_mv, temperature);
        // Words whose weakest cell is far below the rail are skipped:
        // 8 noise widths is a logistic flip probability of e^-8 ≈ 3e-4
        // per cell, which this model treats as zero.
        let cutoff = v_eff_mv - 8.0 * self.lines[line].read_noise_mv;
        let mut any = false;
        let mut p_all_clean = 1.0;
        let mut p_no_uncorrectable = 1.0;
        let mut ps = [0.0_f64; MAX_CELLS_PER_WORD];
        for word in 0..self.words_per_line as u32 {
            let vcs = self.word_vcs(line, word);
            if vcs[0] < cutoff {
                continue;
            }
            any = true;
            for (slot, vc) in ps.iter_mut().zip(vcs) {
                *slot = ctx.flip_probability(*vc);
            }
            let (p0, p1, _) = word_probabilities_from(&ps[..vcs.len()]);
            p_all_clean *= p0;
            p_no_uncorrectable *= p0 + p1;
        }
        if !any {
            return (1.0, 0.0, 0.0);
        }
        let p_correctable = (p_no_uncorrectable - p_all_clean).max(0.0);
        let p_uncorrectable = (1.0 - p_no_uncorrectable).max(0.0);
        (p_all_clean, p_correctable, p_uncorrectable)
    }
}

/// Offers one line to a descending list of at most `k` entries. The line
/// enters only if strictly weaker than the current k-th and lands after
/// every entry it ties with, so feeding lines in scan order leaves exactly
/// the first `k` of a stable descending sort of all of them.
fn insert_top_k(ranked: &mut Vec<(SetWay, f64)>, k: usize, location: SetWay, vc_mv: f64) {
    if ranked.len() == k && vc_mv <= ranked[k - 1].1 {
        return;
    }
    let at = ranked.partition_point(|&(_, v)| v >= vc_mv);
    ranked.insert(at, (location, vc_mv));
    ranked.truncate(k);
}

/// `(no error, exactly one, two or more)` flip probabilities of one word
/// from its per-cell flip probabilities — the same operation order as the
/// allocating [`word_failure_probabilities`](crate::word_failure_probabilities).
fn word_probabilities_from(ps: &[f64]) -> (f64, f64, f64) {
    let mut p_none = 1.0;
    for p in ps {
        p_none *= 1.0 - p;
    }
    let mut p_one = 0.0;
    for (i, pi) in ps.iter().enumerate() {
        let mut prod = 1.0;
        for (j, pj) in ps.iter().enumerate() {
            if j != i {
                prod *= 1.0 - pj;
            }
        }
        p_one += pi * prod;
    }
    let p_multi = (1.0 - p_none - p_one).max(0.0);
    (p_none, p_one, p_multi)
}

/// Marks a window slot, or a line without rows, that holds nothing yet.
const EMPTY: u32 = u32::MAX;

/// A millivolt window of one row: arena slots `start..start + len` hold
/// the entry indices of the keys `base..base + len`, or [`EMPTY`].
#[derive(Debug, Default)]
struct Window {
    base: i32,
    start: u32,
    len: u32,
}

impl Window {
    /// The arena slot of `key`, growing the window to cover it. A window
    /// that must grow moves to the end of the arena with room to spare on
    /// the side it grew, keeping every cached key at its own slot; growth
    /// below `base` shifts the old slots up by the keys added beneath.
    #[inline]
    fn slot<'a>(&mut self, arena: &'a mut Vec<u32>, key: i32) -> &'a mut u32 {
        let (len, end) = (self.len as i32, self.base + self.len as i32);
        if len == 0 || key < self.base || key >= end {
            let (lo, hi) = if len == 0 {
                (key, key + 1)
            } else if key < self.base {
                (key - len, end)
            } else {
                (self.base, key + 1 + len)
            };
            let start = arena.len();
            arena.resize(start + (hi - lo) as usize, EMPTY);
            if len > 0 {
                let old = self.start as usize;
                let shift = (self.base - lo) as usize;
                arena.copy_within(old..old + len as usize, start + shift);
            }
            *self = Window {
                base: lo,
                start: start as u32,
                len: (hi - lo) as u32,
            };
        }
        &mut arena[self.start as usize + (key - self.base) as usize]
    }
}

/// The millivolt windows of one tracked line at one 1 °C bucket.
#[derive(Debug)]
struct Row {
    temp_q: i16,
    /// The line's next row, or [`EMPTY`].
    next: u32,
    /// Per mV, the index of its triple in [`FailureLut`]'s `probs`.
    probs: Window,
    /// Per mV, the index of its block of word CDFs in `cdfs`.
    cdfs: Window,
}

/// Per-voltage-step failure lookup tables for one [`CellBank`].
///
/// Queries quantize onto the regulator's discrete millivolt grid
/// (`v.round()`) and 1 °C temperature buckets; the worst-case probability
/// error of the rounding is `0.5 / (4 · read_noise_mv)` — the logistic's
/// maximum slope times half a step.
///
/// The tables are flat per-line grids indexed by those quantized points,
/// not hash maps: each tracked line has one row per °C bucket, and each
/// row holds a millivolt window over the line triples and one over the
/// word CDFs queried so far. The windows grow lazily on either side, so a
/// query below the first one queried extends the window downwards. All
/// windows share one slot arena and all entries sit in two dense arrays,
/// the word CDFs at `2^k` floats each for `k` tracked cells per word, so
/// a table set is a handful of allocations however many points it
/// caches. Entries are computed on first use and live until
/// [`FailureLut::invalidate`] drops them all (required whenever the
/// effective cell voltages shift, e.g. on aging or recalibration-epoch
/// changes).
///
/// Grids are indexed by line number, so one table set serves one bank, or
/// banks of one shape whose line numbers are meant to share entries.
#[derive(Debug, Default)]
pub struct FailureLut {
    epoch: u64,
    /// Per tracked line, the index of its newest row in `rows`, or
    /// [`EMPTY`].
    heads: Vec<u32>,
    rows: Vec<Row>,
    /// The slots of every row's windows.
    slots: Vec<u32>,
    /// `(clean, correctable, uncorrectable)` triples, one per queried
    /// point.
    probs: Vec<(f64, f64, f64)>,
    /// Blocks of `words_per_line` CDFs of `2^k` floats each, one block per
    /// queried (line, °C, mV) point. A CDF not built yet is all zeros; a
    /// built one ends at exactly 1.
    cdfs: Vec<f64>,
    /// Word CDFs built since the last invalidation.
    cdf_entries: usize,
}

impl FailureLut {
    /// Creates an empty table set.
    pub fn new() -> FailureLut {
        FailureLut::default()
    }

    /// Number of cached entries `(line triples, word CDFs)`: exactly the
    /// distinct quantized points queried since the last invalidation.
    pub fn len(&self) -> (usize, usize) {
        (self.probs.len(), self.cdf_entries)
    }

    /// True when nothing is cached.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.probs.is_empty() && self.cdf_entries == 0
    }

    /// Drops every cached entry and bumps the epoch. Call when the
    /// underlying cell voltages move (aging applied, recalibration).
    pub fn invalidate(&mut self) {
        *self = FailureLut {
            epoch: self.epoch + 1,
            ..FailureLut::default()
        };
    }

    /// Quantizes a query point onto the LUT grid.
    #[inline]
    pub(crate) fn quantize(v_eff_mv: f64, temperature: Celsius) -> (i32, i16) {
        (v_eff_mv.round() as i32, temperature.0.round() as i16)
    }

    /// The index of `line`'s row at the °C bucket `temp_q`, created if
    /// missing.
    #[inline]
    fn row(&mut self, bank: &CellBank, line: usize, temp_q: i16) -> usize {
        if line >= self.heads.len() {
            self.heads.resize(bank.lines().len().max(line + 1), EMPTY);
        }
        let mut at = self.heads[line];
        while at != EMPTY && self.rows[at as usize].temp_q != temp_q {
            at = self.rows[at as usize].next;
        }
        if at == EMPTY {
            at = self.rows.len() as u32;
            self.rows.push(Row {
                temp_q,
                next: self.heads[line],
                probs: Window::default(),
                cdfs: Window::default(),
            });
            self.heads[line] = at;
        }
        at as usize
    }

    /// The `(clean, correctable, uncorrectable)` triple for one read of a
    /// tracked line at the quantized operating point.
    pub fn line_probabilities(
        &mut self,
        bank: &CellBank,
        line: usize,
        v_eff_mv: f64,
        temperature: Celsius,
    ) -> (f64, f64, f64) {
        let (mv_q, temp_q) = Self::quantize(v_eff_mv, temperature);
        let row = self.row(bank, line, temp_q);
        let slot = self.rows[row].probs.slot(&mut self.slots, mv_q);
        if *slot == EMPTY {
            *slot = self.probs.len() as u32;
            self.probs.push(bank.line_probabilities(
                line,
                f64::from(mv_q),
                Celsius(f64::from(temp_q)),
            ));
        }
        self.probs[*slot as usize]
    }

    /// Samples one read of a tracked word with a **single RNG draw**: the
    /// word's flip-subset CDF at the quantized operating point is walked
    /// once and the chosen subset is returned as a mask.
    ///
    /// Compared with the exact path this trades the per-cell Bernoulli
    /// sequence for one draw; outcome *frequencies* agree with the
    /// analytic probabilities at the quantized point exactly.
    pub fn sample_word(
        &mut self,
        bank: &CellBank,
        line: usize,
        word: u32,
        v_eff_mv: f64,
        temperature: Celsius,
        rng: &mut CounterRng,
    ) -> FlipMask {
        let (mv_q, temp_q) = Self::quantize(v_eff_mv, temperature);
        let block = self.cdf_block(bank, line, mv_q, temp_q);
        self.draw_word(bank, line, word, block, (mv_q, temp_q), rng)
    }

    /// Samples `reads` whole-line reads of a tracked line: `visit(read,
    /// word, mask)` sees the `reads × words_per_line` masks, reads outer
    /// and words inner, exactly as that many [`FailureLut::sample_word`]
    /// calls in that order would draw them. The line's block of word CDFs
    /// is resolved once per burst instead of once per word; each word's
    /// CDF is still built on first use, so [`FailureLut::len`] and the
    /// RNG position end where the per-word calls leave them.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_burst(
        &mut self,
        bank: &CellBank,
        line: usize,
        v_eff_mv: f64,
        temperature: Celsius,
        reads: u64,
        rng: &mut CounterRng,
        mut visit: impl FnMut(u64, u32, FlipMask),
    ) {
        if reads == 0 {
            return;
        }
        let point = Self::quantize(v_eff_mv, temperature);
        let block = self.cdf_block(bank, line, point.0, point.1);
        for read in 0..reads {
            for word in 0..bank.words_per_line() as u32 {
                visit(
                    read,
                    word,
                    self.draw_word(bank, line, word, block, point, rng),
                );
            }
        }
    }

    /// The offset in `cdfs` of `line`'s block of word CDFs at the
    /// quantized point, allocated (unbuilt) if missing.
    #[inline]
    fn cdf_block(&mut self, bank: &CellBank, line: usize, mv_q: i32, temp_q: i16) -> usize {
        let block = bank.words_per_line() << bank.cells_per_word();
        let row = self.row(bank, line, temp_q);
        let slot = self.rows[row].cdfs.slot(&mut self.slots, mv_q);
        if *slot == EMPTY {
            *slot = (self.cdfs.len() / block) as u32;
            self.cdfs.resize(self.cdfs.len() + block, 0.0);
        }
        *slot as usize * block
    }

    /// One draw of `word` from the CDF block at `block` for the quantized
    /// point `(mv_q, temp_q)`, building the word's CDF on first use.
    #[inline]
    fn draw_word(
        &mut self,
        bank: &CellBank,
        line: usize,
        word: u32,
        block: usize,
        (mv_q, temp_q): (i32, i16),
        rng: &mut CounterRng,
    ) -> FlipMask {
        let outcomes = 1usize << bank.cells_per_word();
        let at = block + word as usize * outcomes;
        let cdf = &mut self.cdfs[at..at + outcomes];
        if cdf[outcomes - 1] == 0.0 {
            build_word_cdf(
                bank,
                line,
                word,
                f64::from(mv_q),
                Celsius(f64::from(temp_q)),
                cdf,
            );
            self.cdf_entries += 1;
        }
        let r = rng.next_f64();
        let mut subset = 0usize;
        while cdf[subset] <= r && subset + 1 < outcomes {
            subset += 1;
        }
        let bits = bank.word_bits(line, word);
        let mut mask = FlipMask::EMPTY;
        for (j, &bit) in bits.iter().enumerate() {
            if subset & (1 << j) != 0 {
                mask.set(bit);
            }
        }
        mask
    }

    /// Envelope fast path: true when `accesses` reads of the line are
    /// statistically invisible — the expected error count, evaluated
    /// **conservatively** at `floor(v_eff)` mV and `ceil(T)` °C (failure
    /// probability is monotone decreasing in voltage and increasing in
    /// temperature, so the rounded corner over-estimates it), stays below
    /// `NEGLIGIBLE_EVENTS`.
    ///
    /// Callers that skip sampling on this signal stay within that bound
    /// of the analytic line model (`CellBank::line_probabilities`): the
    /// probability that the skipped batch would have produced *any*
    /// event under it is itself below the threshold. That model drops
    /// words more than 8 noise widths below the rail, so against the
    /// per-cell samplers a skipped read can still carry up to ~3e-4
    /// expected flips per cell of the line.
    pub fn negligible(
        &mut self,
        bank: &CellBank,
        line: usize,
        v_eff_mv: f64,
        temperature: Celsius,
        accesses: f64,
    ) -> bool {
        // The conservative corner lands exactly on the grid, so reuse the
        // cached triples.
        let (_, p_ce, p_ue) =
            self.line_probabilities(bank, line, v_eff_mv.floor(), Celsius(temperature.0.ceil()));
        (p_ce + p_ue) * accesses < NEGLIGIBLE_EVENTS
    }
}

/// Enumerates the `2^k` flip subsets of one word at one operating point
/// and accumulates their probabilities into `cdf` (`2^k` floats).
fn build_word_cdf(
    bank: &CellBank,
    line: usize,
    word: u32,
    v_eff_mv: f64,
    temperature: Celsius,
    cdf: &mut [f64],
) {
    let ctx = bank.context(line, v_eff_mv, temperature);
    let vcs = bank.word_vcs(line, word);
    let k = vcs.len();
    let mut ps = [0.0_f64; MAX_CELLS_PER_WORD];
    for (slot, vc) in ps.iter_mut().zip(vcs) {
        *slot = ctx.flip_probability(*vc);
    }
    let outcomes = 1usize << k;
    let mut acc = 0.0;
    for (subset, slot) in cdf.iter_mut().enumerate().take(outcomes) {
        let mut p = 1.0;
        for (j, pj) in ps.iter().enumerate().take(k) {
            p *= if subset & (1 << j) != 0 {
                *pj
            } else {
                1.0 - pj
            };
        }
        acc += p;
        *slot = acc;
    }
    // Absorb floating-point residue so every draw in [0, 1) lands.
    cdf[outcomes - 1] = 1.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::line_read_probabilities;
    use crate::params::SramParams;

    const SETS: usize = 64;
    const WAYS: usize = 4;
    const WORDS: usize = 16;

    fn variation() -> ChipVariation {
        ChipVariation::new(77, SramParams::default())
    }

    fn bank() -> CellBank {
        CellBank::build(
            &variation(),
            CoreId(0),
            CacheKind::L2Data,
            VddMode::LowVoltage,
            SETS,
            WAYS,
            WORDS,
            8,
        )
    }

    #[test]
    fn bank_matches_scalar_scan() {
        let v = variation();
        let b = bank();
        assert_eq!(b.lines().len(), 8);
        assert_eq!(b.total_lines(), (SETS * WAYS) as u64);
        // Lines sorted weakest first.
        assert!(b
            .lines()
            .windows(2)
            .all(|w| w[0].weakest_vc_mv >= w[1].weakest_vc_mv));
        // Every stored word is bit-identical to the scalar computation.
        for (li, line) in b.lines().iter().enumerate() {
            for word in 0..WORDS as u32 {
                let scalar = v.word_cells(
                    CoreId(0),
                    CacheKind::L2Data,
                    line.location,
                    word,
                    VddMode::LowVoltage,
                );
                assert_eq!(b.word_cells(li, word), scalar);
            }
            let noise = v
                .params()
                .structure(CacheKind::L2Data, VddMode::LowVoltage)
                .read_noise_mv
                * v.line_noise_factor(CoreId(0), CacheKind::L2Data, line.location);
            assert_eq!(line.read_noise_mv, noise);
        }
    }

    #[test]
    fn weakest_shortcut_equals_full_computation() {
        // The ranking shortcut must return exactly the weakest cell's
        // voltage for every word, screened or not.
        let v = variation();
        let mut scratch = Vec::new();
        for set in 0..SETS {
            for way in 0..WAYS {
                let loc = SetWay::new(set, way);
                let mu = v.word_mu_mv(CoreId(1), CacheKind::L2Data, loc, VddMode::LowVoltage);
                for word in 0..WORDS as u32 {
                    let fast = v.word_weakest_vc_mv(
                        mu,
                        CoreId(1),
                        CacheKind::L2Data,
                        loc,
                        word,
                        VddMode::LowVoltage,
                        &mut scratch,
                    );
                    let full = v
                        .word_cells(CoreId(1), CacheKind::L2Data, loc, word, VddMode::LowVoltage)
                        .weakest()
                        .vc_mv;
                    assert_eq!(fast, full, "set {set} way {way} word {word}");
                }
            }
        }
    }

    /// The ranking the bank must reproduce: every word through the
    /// per-word [`ChipVariation::word_weakest_vc_mv`], a full stable
    /// descending sort, then truncation.
    #[allow(clippy::too_many_arguments)]
    fn reference_ranking(
        v: &ChipVariation,
        core: CoreId,
        kind: CacheKind,
        mode: VddMode,
        sets: usize,
        ways: usize,
        words: usize,
        k_lines: usize,
    ) -> Vec<(SetWay, u64)> {
        let mut scratch = Vec::new();
        let mut ranked = Vec::new();
        for set in 0..sets {
            for way in 0..ways {
                let loc = SetWay::new(set, way);
                let mu = v.word_mu_mv(core, kind, loc, mode);
                let mut line_max = f64::NEG_INFINITY;
                for word in 0..words as u32 {
                    let vc = v.word_weakest_vc_mv(mu, core, kind, loc, word, mode, &mut scratch);
                    if vc > line_max {
                        line_max = vc;
                    }
                }
                ranked.push((loc, line_max));
            }
        }
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        ranked.truncate(k_lines);
        ranked
            .into_iter()
            .map(|(l, vc)| (l, vc.to_bits()))
            .collect()
    }

    #[test]
    fn bank_ranking_equals_reference_scan_over_a_die_population() {
        // Table-I L2 geometry (sets, ways, 8-byte words per 128-byte
        // line) and the platform's 24-line tracking depth. The small
        // screen margin puts many line maxima above the manufacturing
        // screen, so the per-word fallback is exercised too.
        const GEOMETRY: [(CacheKind, usize, usize); 2] = [
            (CacheKind::L2Data, 256, 8),
            (CacheKind::L2Instruction, 512, 8),
        ];
        const LINE_WORDS: usize = 16;
        const TRACKED: usize = 24;
        let screened = SramParams {
            screen_margin_mv: 110.0,
            ..SramParams::default()
        };
        let mut structures = 0;
        for params in [SramParams::default(), screened] {
            for seed in 0..16u64 {
                let v = ChipVariation::new(0xD1E5 + seed, params.clone());
                for mode in [VddMode::LowVoltage, VddMode::Nominal] {
                    for (kind, sets, ways) in GEOMETRY {
                        for core in [CoreId(0), CoreId(1)] {
                            let bank = CellBank::build(
                                &v, core, kind, mode, sets, ways, LINE_WORDS, TRACKED,
                            );
                            let got: Vec<(SetWay, u64)> = bank
                                .lines()
                                .iter()
                                .map(|l| (l.location, l.weakest_vc_mv.to_bits()))
                                .collect();
                            let want = reference_ranking(
                                &v, core, kind, mode, sets, ways, LINE_WORDS, TRACKED,
                            );
                            assert_eq!(got, want, "seed {seed} {mode:?} {kind:?} {core:?}");
                            structures += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(structures, 256);
    }

    #[test]
    fn bounded_insertion_is_a_truncated_stable_sort() {
        // Few distinct voltages, so nearly every entry ties with others:
        // the order among equals must be scan order, as in a stable sort.
        let mut draw = CounterRng::from_key(17, &[]);
        for k in [1, 3, 8, 40] {
            let entries: Vec<(SetWay, f64)> = (0..200)
                .map(|i| (SetWay::new(i, 0), draw.next_below(6) as f64))
                .collect();
            let mut ranked = Vec::new();
            for &(loc, vc) in &entries {
                insert_top_k(&mut ranked, k, loc, vc);
            }
            let mut want = entries.clone();
            want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            want.truncate(k);
            assert_eq!(ranked, want, "k = {k}");
        }
    }

    #[test]
    fn exact_sampler_replays_scalar_draw_sequence() {
        let b = bank();
        let ctx = b.context(0, b.lines()[0].weakest_vc_mv - 3.0, Celsius(50.0));
        let mut rng_a = CounterRng::from_key(5, &[9]);
        let mut rng_b = CounterRng::from_key(5, &[9]);
        for word in 0..WORDS as u32 {
            for _ in 0..200 {
                let batched = b.sample_word_exact(0, word, &ctx, &mut rng_a);
                let scalar = ctx.sample_word_flips(&b.word_cells(0, word), &mut rng_b);
                assert_eq!(batched, scalar);
            }
        }
        // Streams stayed in lockstep throughout.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn line_probabilities_match_allocating_path() {
        let b = bank();
        for li in 0..b.lines().len() {
            let line = &b.lines()[li];
            for dv in [-20.0, -5.0, 0.0, 4.0, 15.0, 60.0] {
                let v_eff = line.weakest_vc_mv + dv;
                let got = b.line_probabilities(li, v_eff, Celsius(50.0));
                let ctx = b.context(li, v_eff, Celsius(50.0));
                let cutoff = v_eff - 8.0 * line.read_noise_mv;
                let words: Vec<WordCells> = (0..WORDS as u32)
                    .map(|w| b.word_cells(li, w))
                    .filter(|w| w.weakest().vc_mv >= cutoff)
                    .collect();
                let want = if words.is_empty() {
                    (1.0, 0.0, 0.0)
                } else {
                    line_read_probabilities(&words, &ctx)
                };
                assert_eq!(got, want, "line {li} dv {dv}");
            }
        }
    }

    #[test]
    fn line_probabilities_behave_with_voltage() {
        let b = bank();
        let vc = b.lines()[0].weakest_vc_mv;
        let temp = Celsius(50.0);
        // Far above the weak cell: clean.
        let (pc, pe, pu) = b.line_probabilities(0, vc + 80.0, temp);
        assert!(pc > 0.999, "clean far above Vc, got {pc}");
        assert_eq!((pe, pu), (0.0, 0.0));
        // At the weak cell: ~half the reads err.
        let (_, pe, _) = b.line_probabilities(0, vc, temp);
        assert!((0.3..0.7).contains(&pe), "p(correctable) at Vc, got {pe}");
        // Monotone increase as voltage falls.
        let mut prev = 0.0;
        for dv in (0..60).step_by(5) {
            let (_, pe, pu) = b.line_probabilities(0, vc + 30.0 - dv as f64, temp);
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
        let b = bank();
        let vc = b.lines()[0].weakest_vc_mv;
        let (_, _, pu) = b.line_probabilities(0, vc - 10.0, Celsius(50.0));
        assert!(pu < 0.01, "UE probability just below first error: {pu}");
    }

    #[test]
    fn banks_differ_between_cores() {
        let v = variation();
        let weakest = |core| {
            CellBank::build(
                &v,
                core,
                CacheKind::L2Data,
                VddMode::LowVoltage,
                SETS,
                WAYS,
                WORDS,
                4,
            )
            .lines()[0]
                .location
        };
        assert_ne!(
            weakest(CoreId(0)),
            weakest(CoreId(1)),
            "weak lines vary from core to core (paper §II-D); if this \
             fails the seed happened to collide — pick another"
        );
    }

    #[test]
    fn lut_sampling_matches_analytic_frequencies() {
        let b = bank();
        let mut lut = FailureLut::new();
        let v_eff = b.lines()[0].weakest_vc_mv - 1.0;
        let (word, _) = (0..WORDS as u32)
            .map(|w| (w, b.word_vcs(0, w)[0]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        // Analytic probabilities at the quantized point.
        let (mv_q, t_q) = FailureLut::quantize(v_eff, Celsius(50.0));
        let ctx = b.context(0, f64::from(mv_q), Celsius(f64::from(t_q)));
        let (p0, p1, p2) = b.word_probabilities(0, word, &ctx);
        let mut rng = CounterRng::from_key(123, &[]);
        let trials = 200_000;
        let (mut zeros, mut ones, mut multis) = (0, 0, 0);
        for _ in 0..trials {
            match lut
                .sample_word(&b, 0, word, v_eff, Celsius(50.0), &mut rng)
                .count()
            {
                0 => zeros += 1,
                1 => ones += 1,
                _ => multis += 1,
            }
        }
        let n = trials as f64;
        assert!((zeros as f64 / n - p0).abs() < 0.01);
        assert!((ones as f64 / n - p1).abs() < 0.01);
        assert!((multis as f64 / n - p2).abs() < 0.005);
        // One cached CDF, one draw per sample.
        assert_eq!(lut.len().1, 1);
    }

    /// One LUT read the way the hash-map tables answered it: the CDF of
    /// the quantized point built afresh, then one draw walked through it.
    fn reference_sample(
        b: &CellBank,
        line: usize,
        word: u32,
        v_eff_mv: f64,
        temperature: Celsius,
        rng: &mut CounterRng,
    ) -> FlipMask {
        let (mv_q, t_q) = FailureLut::quantize(v_eff_mv, temperature);
        let outcomes = 1usize << b.cells_per_word();
        let mut cdf = [0.0_f64; 1 << MAX_CELLS_PER_WORD];
        build_word_cdf(
            b,
            line,
            word,
            f64::from(mv_q),
            Celsius(f64::from(t_q)),
            &mut cdf[..outcomes],
        );
        let r = rng.next_f64();
        let mut subset = 0usize;
        while cdf[subset] <= r && subset + 1 < outcomes {
            subset += 1;
        }
        let mut mask = FlipMask::EMPTY;
        for (j, &bit) in b.word_bits(line, word).iter().enumerate() {
            if subset & (1 << j) != 0 {
                mask.set(bit);
            }
        }
        mask
    }

    #[test]
    fn grid_lut_matches_direct_evaluation_over_a_die_population() {
        // Per die: a seeded walk that starts at one millivolt, descends
        // below it (the windows grow downwards), jumps far above it,
        // spreads over three °C buckets, and invalidates midway.
        const QUERIES: usize = 240;
        for die in 0..8u64 {
            let v = ChipVariation::new(0x61D + die, SramParams::default());
            let b = CellBank::build(
                &v,
                CoreId(die as usize % 2),
                CacheKind::L2Data,
                VddMode::LowVoltage,
                SETS,
                WAYS,
                WORDS,
                8,
            );
            let lines = b.lines().len() as u64;
            let v0 = b.lines()[0].weakest_vc_mv;
            let mut walk = CounterRng::from_key(die, &[0x9A1D]);
            let mut sampler = CounterRng::from_key(die, &[0x5A]);
            let mut lut = FailureLut::new();
            let mut line_points = std::collections::HashSet::new();
            let mut word_points = std::collections::HashSet::new();
            for q in 0..QUERIES {
                if q == QUERIES / 2 {
                    lut.invalidate();
                    line_points.clear();
                    word_points.clear();
                }
                let jitter = walk.next_f64();
                let v_eff = match q % (QUERIES / 2) {
                    0 => v0,
                    q if q < 40 => v0 - q as f64 * 0.8 - jitter,
                    q if q < 80 => v0 + 25.0 + 30.0 * jitter,
                    _ => v0 - 35.0 + 70.0 * jitter,
                };
                let temperature = Celsius(48.6 + 2.8 * walk.next_f64());
                let line = walk.next_below(lines) as usize;
                let word = walk.next_below(WORDS as u64) as u32;
                let (mv_q, t_q) = FailureLut::quantize(v_eff, temperature);

                let got = lut.line_probabilities(&b, line, v_eff, temperature);
                let want = b.line_probabilities(line, f64::from(mv_q), Celsius(f64::from(t_q)));
                assert_eq!(
                    [got.0.to_bits(), got.1.to_bits(), got.2.to_bits()],
                    [want.0.to_bits(), want.1.to_bits(), want.2.to_bits()],
                    "die {die} query {q}: line {line} at {mv_q} mV, {t_q} °C"
                );
                line_points.insert((line, mv_q, t_q));

                let mut reference = sampler.clone();
                let got = lut.sample_word(&b, line, word, v_eff, temperature, &mut sampler);
                let want = reference_sample(&b, line, word, v_eff, temperature, &mut reference);
                assert_eq!(got, want, "die {die} query {q}: word {word} of line {line}");
                assert_eq!(sampler, reference, "one draw per sample");
                word_points.insert((line, word, mv_q, t_q));

                assert_eq!(lut.len(), (line_points.len(), word_points.len()));
            }
            let buckets: std::collections::HashSet<i16> =
                line_points.iter().map(|&(_, _, t)| t).collect();
            assert_eq!(buckets.len(), 3, "die {die} spans three °C buckets");
        }
    }

    #[test]
    fn lut_sampler_outcome_classes_pass_chi_square() {
        // Per-word outcome classes (no flip, one, two or more) of the LUT
        // sampler against `CellBank::word_probabilities` at the quantized
        // point, on a (V, T, aging shift) grid of 3 × 2 × 2 points around
        // the word whose rarest class is most common midway between its
        // two weakest cells. Aging enters as the chip applies it: a query
        // at `v − shift`.
        const DRAWS: u64 = 20_000;
        // χ² 0.999 quantile at 24 degrees of freedom (12 points × 2).
        const CRITICAL: f64 = 51.18;
        let b = bank();
        let midway = |line: usize, word: u32| {
            let vcs = b.word_vcs(line, word);
            (vcs[0] + vcs[1]) / 2.0
        };
        let rarest = |line: usize, word: u32| {
            let ctx = b.context(line, midway(line, word), Celsius(50.0));
            let (p0, p1, p2) = b.word_probabilities(line, word, &ctx);
            p0.min(p1).min(p2)
        };
        let (line, word) = (0..b.lines().len())
            .flat_map(|l| (0..WORDS as u32).map(move |w| (l, w)))
            .max_by(|&(la, wa), &(lb, wb)| rarest(la, wa).total_cmp(&rarest(lb, wb)))
            .unwrap();
        let centre = midway(line, word);
        let mut rng = CounterRng::from_key(0xC412, &[]);
        let mut lut = FailureLut::new();
        let mut chi2 = 0.0;
        let mut points = 0;
        for dv in [-2.0, 0.4, 2.0] {
            for temperature in [Celsius(45.0), Celsius(55.0)] {
                for shift in [0.0, 1.5] {
                    let v_query = centre + dv - shift;
                    let (mv_q, t_q) = FailureLut::quantize(v_query, temperature);
                    let ctx = b.context(line, f64::from(mv_q), Celsius(f64::from(t_q)));
                    let (p0, p1, p2) = b.word_probabilities(line, word, &ctx);
                    let mut counts = [0u64; 3];
                    for _ in 0..DRAWS {
                        let flips = lut
                            .sample_word(&b, line, word, v_query, temperature, &mut rng)
                            .count();
                        counts[(flips as usize).min(2)] += 1;
                    }
                    for (observed, p) in counts.into_iter().zip([p0, p1, p2]) {
                        let expected = DRAWS as f64 * p;
                        assert!(
                            expected >= 5.0,
                            "dv {dv} {temperature:?} shift {shift}: class expectation {expected}"
                        );
                        chi2 += (observed as f64 - expected).powi(2) / expected;
                    }
                    points += 1;
                }
            }
        }
        assert_eq!(points, 12);
        assert!(chi2 < CRITICAL, "χ² = {chi2} over 24 degrees of freedom");
    }

    #[test]
    fn burst_sampler_matches_per_word_calls() {
        let b = bank();
        let line = 0;
        // On the grid, so that the first two cases share a quantized point.
        let v0 = b.lines()[line].weakest_vc_mv.round();
        let (mut burst, mut per_word) = (FailureLut::new(), FailureLut::new());
        let mut rng = CounterRng::from_key(0xB0257, &[]);
        let mut reference = rng.clone();
        let mut flips = 0;
        // A fresh block, the same block cached, a block one word of which
        // was already built, a second °C row of the line, and an empty
        // burst.
        let cases = [
            (v0 - 2.0, Celsius(50.0), 6, None),
            (v0 - 2.2, Celsius(50.2), 9, None),
            (v0 + 1.0, Celsius(50.0), 4, Some(5)),
            (v0 - 2.0, Celsius(51.0), 7, None),
            (v0 - 9.0, Celsius(51.0), 0, None),
        ];
        for (case, (v_eff, temperature, reads, prebuilt)) in cases.into_iter().enumerate() {
            if let Some(word) = prebuilt {
                let got = burst.sample_word(&b, line, word, v_eff, temperature, &mut rng);
                let want = per_word.sample_word(&b, line, word, v_eff, temperature, &mut reference);
                assert_eq!(got, want);
            }
            let mut got = Vec::new();
            burst.sample_burst(&b, line, v_eff, temperature, reads, &mut rng, |r, w, m| {
                got.push((r, w, m));
            });
            let mut want = Vec::new();
            for read in 0..reads {
                for word in 0..WORDS as u32 {
                    let mask =
                        per_word.sample_word(&b, line, word, v_eff, temperature, &mut reference);
                    want.push((read, word, mask));
                }
            }
            assert_eq!(got, want, "case {case}");
            assert_eq!(rng, reference, "case {case}: RNG position");
            assert_eq!(burst.len(), per_word.len(), "case {case}: cached entries");
            flips += got.iter().filter(|(_, _, m)| !m.is_empty()).count();
        }
        assert_eq!(
            burst.len().1,
            3 * WORDS,
            "three (°C, mV) points fully built"
        );
        assert!(flips > 0, "the cases must draw some flips");
    }

    #[test]
    fn lut_sampler_consumes_one_draw() {
        let b = bank();
        let mut lut = FailureLut::new();
        let mut rng = CounterRng::from_key(4, &[]);
        let mut reference = CounterRng::from_key(4, &[]);
        let _ = lut.sample_word(&b, 0, 0, 700.0, Celsius(50.0), &mut rng);
        let _ = reference.next_f64();
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn lut_quantization_error_is_bounded() {
        let b = bank();
        let mut lut = FailureLut::new();
        for li in 0..b.lines().len() {
            let line = &b.lines()[li];
            // Worst-case slope of the logistic is 1/(4*noise) per mV; the
            // grid rounds by at most 0.5 mV. The line aggregates
            // words_per_line words, so allow the per-word bound times the
            // word count (union bound).
            let tol = 0.5 / (4.0 * line.read_noise_mv) * WORDS as f64 + 1e-12;
            for dv in [-7.3, -2.1, -0.49, 0.26, 3.7, 11.2] {
                let v_eff = line.weakest_vc_mv + dv;
                let exact = b.line_probabilities(li, v_eff, Celsius(50.0));
                let quant = lut.line_probabilities(&b, li, v_eff, Celsius(50.0));
                assert!(
                    (exact.1 - quant.1).abs() <= tol && (exact.2 - quant.2).abs() <= tol,
                    "line {li} dv {dv}: exact {exact:?} vs quantized {quant:?}"
                );
            }
        }
    }

    #[test]
    fn negligible_is_conservative() {
        let b = bank();
        let mut lut = FailureLut::new();
        let line = &b.lines()[0];
        // Far above the weakest cell: clearly negligible.
        assert!(lut.negligible(&b, 0, line.weakest_vc_mv + 80.0, Celsius(50.0), 1e6));
        // At the weakest cell: clearly not.
        assert!(!lut.negligible(&b, 0, line.weakest_vc_mv, Celsius(50.0), 1.0));
        // Over a die population (every tracked line of eight seeded
        // banks) and a (V, T, aging shift) grid with off-grid voltages
        // and temperatures, sum the expected events of every batch the
        // envelope lets a caller skip. Aging enters as the chip applies
        // it: a query at `v − shift`.
        //
        // Against the analytic line model (`line_probabilities`, at the
        // unquantized point) each skipped batch stays below
        // NEGLIGIBLE_EVENTS. That model ignores words whose weakest cell
        // is more than 8 noise widths below the rail, and the per-cell
        // samplers do not: against them a skipped read can still carry
        // the tail beyond that cutoff, up to one cutoff-cell flip
        // probability (~3e-4) per cell of the line. Both bounds are
        // asserted per batch.
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut dropped = 0.0;
        for seed in 0..8 {
            let variation = ChipVariation::new(1000 + seed, SramParams::default());
            let b = CellBank::build(
                &variation,
                CoreId(0),
                CacheKind::L2Data,
                VddMode::LowVoltage,
                SETS,
                WAYS,
                WORDS,
                8,
            );
            let mut lut = FailureLut::new();
            for (li, line) in b.lines().iter().enumerate() {
                let cells: usize = (0..WORDS as u32).map(|w| b.word_vcs(li, w).len()).sum();
                for dv in (0..160).map(f64::from) {
                    for temperature in [Celsius(44.6), Celsius(50.0), Celsius(71.3)] {
                        for shift in [0.0, 1.5, 4.0] {
                            let v_query = line.weakest_vc_mv + dv / 2.0 + 0.37 - shift;
                            let (_, p_ce, p_ue) = b.line_probabilities(li, v_query, temperature);
                            let ctx = b.context(li, v_query, temperature);
                            let p_clean: f64 = (0..WORDS as u32)
                                .map(|w| b.word_probabilities(li, w, &ctx).0)
                                .product();
                            let cutoff_cell =
                                ctx.flip_probability(v_query - 8.0 * line.read_noise_mv);
                            for accesses in [1.0, 1e3, 1e6] {
                                if !lut.negligible(&b, li, v_query, temperature, accesses) {
                                    rejected += 1;
                                    continue;
                                }
                                let at = format!(
                                    "seed {seed} line {li} v {v_query} {temperature:?} \
                                     shift {shift} x{accesses}"
                                );
                                let mass = (p_ce + p_ue) * accesses;
                                assert!(mass < NEGLIGIBLE_EVENTS, "{at}: {mass:e} events");
                                let tail = (1.0 - p_clean) * accesses;
                                assert!(
                                    tail <= cells as f64 * cutoff_cell * accesses,
                                    "{at}: {tail:e} events beyond the cutoff"
                                );
                                accepted += 1;
                                dropped += mass;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} accepted, {rejected} rejected"
        );
        assert!(
            dropped < NEGLIGIBLE_EVENTS * accepted as f64,
            "{dropped:e} events dropped over {accepted} skipped batches"
        );
    }

    #[test]
    fn invalidate_clears_and_bumps_epoch() {
        let b = bank();
        let mut lut = FailureLut::new();
        let _ = lut.line_probabilities(&b, 0, 700.0, Celsius(50.0));
        let mut rng = CounterRng::from_key(1, &[]);
        let _ = lut.sample_word(&b, 0, 0, 700.0, Celsius(50.0), &mut rng);
        assert!(!lut.is_empty());
        assert_eq!(lut.epoch, 0);
        lut.invalidate();
        assert!(lut.is_empty());
        assert_eq!(lut.epoch, 1);
    }

    #[test]
    fn find_locates_tracked_lines() {
        let b = bank();
        for (i, line) in b.lines().iter().enumerate() {
            assert_eq!(b.find(line.location), Some(i));
        }
        // A location that can't be tracked (outside the geometry).
        assert_eq!(b.find(SetWay::new(SETS + 1, 0)), None);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_rejected() {
        CellBank::build(
            &variation(),
            CoreId(0),
            CacheKind::L2Data,
            VddMode::LowVoltage,
            4,
            2,
            16,
            0,
        );
    }
}

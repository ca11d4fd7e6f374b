//! A single set-associative cache with an ECC-encoded data path.

use crate::fault::Injector;
use crate::geometry::CacheGeometry;
use std::fmt;
use vs_ecc::{DecodeOutcome, SecDed};
use vs_types::{CacheKind, SetWay};

/// What the ECC logic observed while reading one word of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordEvent {
    /// Word index within the line.
    pub word: u32,
    /// Decoder outcome for the word.
    pub outcome: DecodeOutcome,
}

/// The result of reading a full line through the ECC data path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineReadResult {
    /// The location the line was read from.
    pub location: SetWay,
    /// The decoded data words (corrected where necessary). Words that were
    /// uncorrectable carry the *stored* (true) value here, but the
    /// corresponding [`WordEvent`] marks them untrustworthy.
    pub data: Vec<u64>,
    /// ECC events: one entry per word that did not decode cleanly.
    pub events: Vec<WordEvent>,
}

impl LineReadResult {
    /// Number of corrected single-bit errors in this read.
    pub fn correctable_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.outcome.is_correctable_error())
            .count()
    }

    /// True if any word was uncorrectable.
    pub fn has_uncorrectable(&self) -> bool {
        self.events.iter().any(|e| e.outcome.is_uncorrectable())
    }
}

/// One resident line: tag plus encoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LineState {
    tag: u64,
    /// Hsiao (72,64) codewords.
    words: Vec<u128>,
    /// LRU stamp: larger is more recent.
    lru: u64,
}

/// A set-associative cache storing ECC-encoded lines.
///
/// The cache does not model timing; it models *placement* (sets, ways, LRU
/// replacement, line disable) and the *data path* (encode on fill/write,
/// decode with fault injection on read), which is what the reproduced
/// experiments depend on.
#[derive(Clone)]
pub struct Cache {
    kind: CacheKind,
    geometry: CacheGeometry,
    /// `sets × ways` slots.
    slots: Vec<Option<LineState>>,
    /// Lines removed from normal allocation (the designated self-test line
    /// is de-configured so no workload data lands there, §III-C).
    disabled: Vec<SetWay>,
    /// Monotonic access counter driving LRU stamps.
    tick: u64,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("kind", &self.kind)
            .field("geometry", &self.geometry)
            .field(
                "resident",
                &self.slots.iter().filter(|s| s.is_some()).count(),
            )
            .field("disabled", &self.disabled)
            .finish()
    }
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(kind: CacheKind, geometry: CacheGeometry) -> Cache {
        Cache {
            kind,
            geometry,
            slots: vec![None; geometry.sets * geometry.ways],
            disabled: Vec::new(),
            tick: 0,
        }
    }

    /// Creates a cache with the default geometry for its kind.
    pub fn with_default_geometry(kind: CacheKind) -> Cache {
        Cache::new(kind, CacheGeometry::for_kind(kind))
    }

    /// The structure kind.
    pub(crate) fn kind(&self) -> CacheKind {
        self.kind
    }

    /// The geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    fn slot_index(&self, location: SetWay) -> usize {
        location.set * self.geometry.ways + location.way
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Whether the line at `location` is currently resident.
    pub fn is_resident(&self, location: SetWay) -> bool {
        self.geometry.contains(location) && self.slots[self.slot_index(location)].is_some()
    }

    /// Whether an address currently hits.
    pub(crate) fn probe(&self, addr: u64) -> Option<SetWay> {
        let set = self.geometry.set_of(addr);
        let tag = self.geometry.tag_of(addr);
        for way in 0..self.geometry.ways {
            let loc = SetWay::new(set, way);
            if let Some(line) = &self.slots[self.slot_index(loc)] {
                if line.tag == tag {
                    return Some(loc);
                }
            }
        }
        None
    }

    /// Removes a line from normal allocation (used for the designated
    /// self-test line). Any resident data there is evicted.
    ///
    /// # Panics
    ///
    /// Panics if `location` is outside the geometry.
    pub fn disable_line(&mut self, location: SetWay) {
        assert!(self.geometry.contains(location), "location out of range");
        let idx = self.slot_index(location);
        self.slots[idx] = None;
        if !self.disabled.contains(&location) {
            self.disabled.push(location);
        }
    }

    /// Re-enables a previously disabled line (used when recalibration picks
    /// a new weak line).
    pub fn enable_line(&mut self, location: SetWay) {
        self.disabled.retain(|l| *l != location);
    }

    fn is_disabled(&self, location: SetWay) -> bool {
        self.disabled.contains(&location)
    }

    /// Fills the line containing `addr` with `data`, choosing a victim way
    /// by LRU among enabled ways. Returns the location filled, or `None` if
    /// every way of the set is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the geometry's words-per-line.
    pub fn fill(&mut self, addr: u64, data: &[u64]) -> Option<SetWay> {
        assert_eq!(
            data.len(),
            self.geometry.words_per_line(),
            "fill data must be exactly one line"
        );
        let set = self.geometry.set_of(addr);
        let tag = self.geometry.tag_of(addr);
        // Hit: overwrite in place.
        let victim = if let Some(loc) = self.probe(addr) {
            loc
        } else {
            // Prefer an empty enabled way, else the LRU enabled way.
            let mut victim: Option<(SetWay, u64)> = None;
            for way in 0..self.geometry.ways {
                let loc = SetWay::new(set, way);
                if self.is_disabled(loc) {
                    continue;
                }
                match &self.slots[self.slot_index(loc)] {
                    None => {
                        victim = Some((loc, 0));
                        break;
                    }
                    Some(line) => {
                        if victim.is_none_or(|(_, lru)| line.lru < lru) {
                            victim = Some((loc, line.lru));
                        }
                    }
                }
            }
            victim?.0
        };
        let code = SecDed::hsiao_72_64();
        let words: Vec<u128> = data.iter().map(|&w| code.encode(w)).collect();
        let lru = self.next_tick();
        let idx = self.slot_index(victim);
        self.slots[idx] = Some(LineState { tag, words, lru });
        Some(victim)
    }

    /// Writes one word of a resident line (encode-on-write). Returns `false`
    /// if the address misses.
    pub fn write_word(&mut self, addr: u64, word: u32, value: u64) -> bool {
        let Some(loc) = self.probe(addr) else {
            return false;
        };
        let tick = self.next_tick();
        let idx = self.slot_index(loc);
        let line = self.slots[idx].as_mut().expect("probe said resident");
        let w = word as usize;
        assert!(w < line.words.len(), "word index out of range");
        line.words[w] = SecDed::hsiao_72_64().encode(value);
        line.lru = tick;
        true
    }

    /// Reads the line containing `addr` through the ECC data path;
    /// returns `None` on a miss.
    pub fn read(&mut self, addr: u64, injector: &mut dyn Injector) -> Option<LineReadResult> {
        let loc = self.probe(addr)?;
        Some(self.read_at(loc, injector).expect("probe said resident"))
    }

    /// Reads the line at a specific location through the ECC data path
    /// (used by the ECC monitor, which addresses by set/way). Returns
    /// `None` if nothing is resident there.
    pub fn read_at(
        &mut self,
        location: SetWay,
        injector: &mut dyn Injector,
    ) -> Option<LineReadResult> {
        if !self.geometry.contains(location) {
            return None;
        }
        let tick = self.next_tick();
        let kind = self.kind;
        let idx = self.slot_index(location);
        let line = self.slots[idx].as_mut()?;
        line.lru = tick;
        let code = SecDed::hsiao_72_64();
        let mut data = Vec::with_capacity(line.words.len());
        let mut events = Vec::new();
        for (w, &stored) in line.words.iter().enumerate() {
            let flips = injector.flip_mask(kind, location, w as u32);
            if flips.is_empty() {
                // Stored words are always freshly encoded codewords, so a
                // read with no injected flips decodes clean by
                // construction — skip the syndrome computation.
                data.push(code.data_of(stored));
                continue;
            }
            let observed = code.inject_mask(stored, flips);
            let outcome = code.decode(observed);
            match outcome {
                DecodeOutcome::Clean { data: d } => data.push(d),
                DecodeOutcome::Corrected { data: d, .. } => {
                    data.push(d);
                    events.push(WordEvent {
                        word: w as u32,
                        outcome,
                    });
                }
                DecodeOutcome::Uncorrectable { .. } => {
                    // Surface the true stored value for the caller's
                    // correctness checks, but mark the word poisoned.
                    data.push(stored as u64);
                    events.push(WordEvent {
                        word: w as u32,
                        outcome,
                    });
                }
            }
        }
        Some(LineReadResult {
            location,
            data,
            events,
        })
    }

    /// Stamps `reads` reads of the line at `location` on the LRU clock
    /// without running the data path: afterwards the access counter and
    /// the line's stamp are where that many [`Cache::read_at`] calls would
    /// leave them. For a caller that samples the reads' ECC outcomes
    /// itself (the ECC monitor's burst probe). Returns `false`, stamping
    /// nothing, if nothing is resident there.
    pub fn touch_at(&mut self, location: SetWay, reads: u64) -> bool {
        if !self.is_resident(location) {
            return false;
        }
        if reads > 0 {
            self.tick += reads;
            let idx = self.slot_index(location);
            self.slots[idx].as_mut().expect("checked resident").lru = self.tick;
        }
        true
    }

    /// Stores a line directly at a location, bypassing LRU (used by the
    /// ECC monitor, which owns its de-configured line outright).
    ///
    /// # Panics
    ///
    /// Panics if `location` is outside the geometry or `data` is not a full
    /// line.
    pub fn store_at(&mut self, location: SetWay, tag: u64, data: &[u64]) {
        assert!(self.geometry.contains(location), "location out of range");
        assert_eq!(
            data.len(),
            self.geometry.words_per_line(),
            "store data must be exactly one line"
        );
        let code = SecDed::hsiao_72_64();
        let words: Vec<u128> = data.iter().map(|&w| code.encode(w)).collect();
        let lru = self.next_tick();
        let idx = self.slot_index(location);
        self.slots[idx] = Some(LineState { tag, words, lru });
    }

    /// Invalidates every resident line (power-on state).
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NoFaults;
    use vs_types::FlipMask;

    fn small_cache() -> Cache {
        Cache::new(CacheKind::L2Data, CacheGeometry::new(4, 2, 64, 9))
    }

    fn line_data(seed: u64) -> Vec<u64> {
        (0..8).map(|i| seed.wrapping_mul(0x9E37) ^ i).collect()
    }

    #[test]
    fn fill_then_read_roundtrip() {
        let mut c = small_cache();
        let data = line_data(1);
        let loc = c.fill(0x100, &data).unwrap();
        let r = c.read(0x100, &mut NoFaults).unwrap();
        assert_eq!(r.data, data);
        assert_eq!(r.location, loc);
        assert!(r.events.is_empty());
        assert_eq!(r.correctable_count(), 0);
        assert!(!r.has_uncorrectable());
    }

    #[test]
    fn miss_returns_none_until_filled() {
        let mut c = small_cache();
        assert!(c.read(0x100, &mut NoFaults).is_none());
        let loc = c.fill(0x100, &line_data(1)).unwrap();
        let r = c.read(0x100, &mut NoFaults).expect("a filled line hits");
        assert_eq!(r.location, loc);
        assert!(
            c.read(0x200, &mut NoFaults).is_none(),
            "other tags still miss"
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache();
        // Two ways per set: fill two conflicting lines, touch the first,
        // then a third fill must evict the second.
        let stride = c.geometry().same_set_stride();
        let a = 0x40;
        let b = a + stride;
        let d = a + 2 * stride;
        c.fill(a, &line_data(1));
        c.fill(b, &line_data(2));
        c.read(a, &mut NoFaults).unwrap();
        c.fill(d, &line_data(3));
        assert!(c.probe(a).is_some(), "recently used line must survive");
        assert!(c.probe(b).is_none(), "LRU line must be evicted");
        assert!(c.probe(d).is_some());
    }

    #[test]
    fn touch_stamps_like_reads() {
        let stride = small_cache().geometry().same_set_stride();
        let (a, b, d) = (0x40, 0x40 + stride, 0x40 + 2 * stride);
        let mut read = small_cache();
        read.fill(a, &line_data(1));
        read.fill(b, &line_data(2));
        let mut touched = read.clone();
        let loc = read.probe(a).unwrap();
        for _ in 0..3 {
            read.read_at(loc, &mut NoFaults).unwrap();
        }
        assert!(touched.touch_at(loc, 3));
        assert!(touched.touch_at(loc, 0));
        assert_eq!(touched.tick, read.tick);
        assert_eq!(touched.slots, read.slots);
        touched.fill(d, &line_data(3));
        assert!(touched.probe(a).is_some() && touched.probe(b).is_none());
        touched.flush();
        assert!(!touched.touch_at(loc, 1), "nothing resident to stamp");
    }

    #[test]
    fn refill_same_address_overwrites_in_place() {
        let mut c = small_cache();
        let loc1 = c.fill(0x80, &line_data(1)).unwrap();
        let loc2 = c.fill(0x80, &line_data(9)).unwrap();
        assert_eq!(loc1, loc2);
        let r = c.read(0x80, &mut NoFaults).unwrap();
        assert_eq!(r.data, line_data(9));
    }

    #[test]
    fn write_word_updates_single_word() {
        let mut c = small_cache();
        c.fill(0x80, &line_data(4));
        assert!(c.write_word(0x80, 3, 0xFFFF_0000_1234_5678));
        let r = c.read(0x80, &mut NoFaults).unwrap();
        assert_eq!(r.data[3], 0xFFFF_0000_1234_5678);
        assert_eq!(r.data[0], line_data(4)[0]);
        assert!(!c.write_word(0xDEAD_0000, 0, 1), "miss returns false");
    }

    #[test]
    fn disabled_line_not_allocated() {
        let mut c = small_cache();
        let set = c.geometry().set_of(0x40);
        c.disable_line(SetWay::new(set, 0));
        c.disable_line(SetWay::new(set, 1));
        assert!(c.fill(0x40, &line_data(1)).is_none(), "all ways disabled");
        c.enable_line(SetWay::new(set, 1));
        let loc = c.fill(0x40, &line_data(1)).unwrap();
        assert_eq!(loc.way, 1);
    }

    #[test]
    fn disable_evicts_resident_data() {
        let mut c = small_cache();
        let loc = c.fill(0x40, &line_data(1)).unwrap();
        c.disable_line(loc);
        assert!(!c.is_resident(loc));
        assert_eq!(c.disabled, &[loc]);
    }

    #[test]
    fn store_at_and_read_at() {
        let mut c = small_cache();
        let loc = SetWay::new(2, 1);
        let data = line_data(7);
        c.store_at(loc, 0xAB, &data);
        let r = c.read_at(loc, &mut NoFaults).unwrap();
        assert_eq!(r.data, data);
        assert!(c.read_at(SetWay::new(3, 0), &mut NoFaults).is_none());
        assert!(c.read_at(SetWay::new(99, 0), &mut NoFaults).is_none());
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small_cache();
        c.fill(0x40, &line_data(1));
        c.flush();
        assert!(c.probe(0x40).is_none());
    }

    /// A scripted injector for deterministic fault tests.
    struct ScriptedInjector {
        flips: FlipMask,
        on_word: u32,
    }

    impl Injector for ScriptedInjector {
        fn flip_mask(&mut self, _k: CacheKind, _l: SetWay, word: u32) -> FlipMask {
            if word == self.on_word {
                self.flips
            } else {
                FlipMask::EMPTY
            }
        }
    }

    #[test]
    fn single_flip_corrected_and_reported() {
        let mut c = small_cache();
        let data = line_data(5);
        c.fill(0x80, &data);
        let mut inj = ScriptedInjector {
            flips: FlipMask::from_bits(&[13]),
            on_word: 2,
        };
        let r = c.read(0x80, &mut inj).unwrap();
        assert_eq!(r.data, data, "corrected data must match stored data");
        assert_eq!(r.correctable_count(), 1);
        assert_eq!(r.events[0].word, 2);
        assert!(!r.has_uncorrectable());
    }

    #[test]
    fn double_flip_flagged_uncorrectable() {
        let mut c = small_cache();
        c.fill(0x80, &line_data(5));
        let mut inj = ScriptedInjector {
            flips: FlipMask::from_bits(&[3, 40]),
            on_word: 0,
        };
        let r = c.read(0x80, &mut inj).unwrap();
        assert!(r.has_uncorrectable());
        assert_eq!(r.correctable_count(), 0);
    }

    #[test]
    fn faults_are_transient_not_retention() {
        // The §V-E experiment: a faulty read does not corrupt the stored
        // value; a later clean read returns the original data.
        let mut c = small_cache();
        let data = line_data(6);
        c.fill(0x80, &data);
        let mut inj = ScriptedInjector {
            flips: FlipMask::from_bits(&[1, 2]),
            on_word: 0,
        };
        let _ = c.read(0x80, &mut inj).unwrap();
        let clean = c.read(0x80, &mut NoFaults).unwrap();
        assert_eq!(clean.data, data);
        assert!(clean.events.is_empty());
    }

    #[test]
    #[should_panic(expected = "exactly one line")]
    fn fill_validates_length() {
        let mut c = small_cache();
        c.fill(0, &[1, 2, 3]);
    }
}

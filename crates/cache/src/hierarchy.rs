//! A core's private cache hierarchy and the targeted L2 line test.
//!
//! The firmware prototype in the paper cannot address a specific L2 way
//! directly, so it performs the three-step dance of Figure 7:
//!
//! 1. **Load L2** — fetch eight lines whose addresses map to the target L2
//!    set, populating every way;
//! 2. **Evict L1** — fetch four other lines that conflict in the L1 set but
//!    map elsewhere in the L2, flushing the originals out of the L1;
//! 3. **Target L2** — re-access the original lines: they miss the L1 and
//!    hit the L2, exercising the designated line's cells.
//!
//! `CoreCaches::targeted_line_test` reproduces that procedure faithfully
//! against the simulated hierarchy (the hardware ECC monitor proper, which
//! addresses the line directly, lives in `vs-spec`).

use crate::cache::{Cache, LineReadResult};
use crate::fault::Injector;
use vs_types::CacheKind;

/// Which side of the split hierarchy an access goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Instruction fetch path (L1I → L2I).
    Instruction,
    /// Data access path (L1D → L2D).
    Data,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Satisfied by the L1.
    L1,
    /// Missed the L1, satisfied by the L2.
    L2,
    /// Missed both; modelled memory supplied the line (and both levels were
    /// filled).
    Memory,
}

/// The outcome of one access through the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessOutcome {
    /// Where the access hit.
    pub level: HitLevel,
    /// The read result at the level that satisfied the access (None for a
    /// memory fill, which is modelled as error-free DRAM).
    pub read: Option<LineReadResult>,
    /// Which cache kind the read result came from.
    pub kind: Option<CacheKind>,
}

/// A deterministic "memory image": the line contents backing any address.
///
/// Memory is modelled as error-free; its content for a line is a pure
/// function of the address so correctness checks can recompute expected
/// values anywhere.
pub(crate) fn memory_line(addr: u64, words: usize) -> Vec<u64> {
    (0..words as u64)
        .map(|w| {
            let x = addr
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(w.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            x ^ (x >> 29)
        })
        .collect()
}

/// One core's private two-level split hierarchy.
#[derive(Debug, Clone)]
pub struct CoreCaches {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// L2 instruction cache.
    pub l2i: Cache,
    /// L2 data cache.
    pub l2d: Cache,
}

impl Default for CoreCaches {
    fn default() -> CoreCaches {
        CoreCaches::new()
    }
}

impl CoreCaches {
    /// Creates the hierarchy with Table I geometries.
    pub fn new() -> CoreCaches {
        CoreCaches {
            l1i: Cache::with_default_geometry(CacheKind::L1Instruction),
            l1d: Cache::with_default_geometry(CacheKind::L1Data),
            l2i: Cache::with_default_geometry(CacheKind::L2Instruction),
            l2d: Cache::with_default_geometry(CacheKind::L2Data),
        }
    }

    /// The (L1, L2) pair for a side.
    pub(crate) fn side_mut(&mut self, side: Side) -> (&mut Cache, &mut Cache) {
        match side {
            Side::Instruction => (&mut self.l1i, &mut self.l2i),
            Side::Data => (&mut self.l1d, &mut self.l2d),
        }
    }

    /// The L2 cache of a side.
    pub(crate) fn l2(&self, side: Side) -> &Cache {
        match side {
            Side::Instruction => &self.l2i,
            Side::Data => &self.l2d,
        }
    }

    /// Performs one access (load or fetch) at `addr`, walking L1 then L2,
    /// filling on miss. L1 reads can themselves err; their events surface
    /// in the returned outcome.
    pub fn access(&mut self, side: Side, addr: u64, injector: &mut dyn Injector) -> AccessOutcome {
        let (l1, l2) = self.side_mut(side);
        if let Some(read) = l1.read(addr, injector) {
            return AccessOutcome {
                level: HitLevel::L1,
                kind: Some(l1.kind()),
                read: Some(read),
            };
        }
        if let Some(read) = l2.read(addr, injector) {
            // Fill the L1 with the (corrected) data.
            let l1_words = l1.geometry().words_per_line();
            let l1_base = l1.geometry().line_base(addr);
            let offset_words = ((l1_base - l2.geometry().line_base(addr)) / 8) as usize;
            let slice: Vec<u64> = read.data[offset_words..offset_words + l1_words].to_vec();
            l1.fill(l1_base, &slice);
            return AccessOutcome {
                level: HitLevel::L2,
                kind: Some(l2.kind()),
                read: Some(read),
            };
        }
        // Memory fill: populate L2 then L1, error-free.
        let l2_base = l2.geometry().line_base(addr);
        let l2_data = memory_line(l2_base, l2.geometry().words_per_line());
        l2.fill(l2_base, &l2_data);
        let l1_base = l1.geometry().line_base(addr);
        let offset_words = ((l1_base - l2_base) / 8) as usize;
        let l1_words = l1.geometry().words_per_line();
        let slice: Vec<u64> = l2_data[offset_words..offset_words + l1_words].to_vec();
        l1.fill(l1_base, &slice);
        AccessOutcome {
            level: HitLevel::Memory,
            kind: None,
            read: None,
        }
    }

    /// Step trace of a `CoreCaches::targeted_line_test`.
    pub fn targeted_test_addresses(&self, side: Side, set: usize) -> TargetedTestPlan {
        let l2 = self.l2(side);
        let l1_geom = match side {
            Side::Instruction => self.l1i.geometry(),
            Side::Data => self.l1d.geometry(),
        };
        let l2_geom = l2.geometry();
        // Base address mapping to the requested L2 set.
        let base = (set * l2_geom.line_bytes) as u64;
        // Step 1: 8 addresses stepping by the L2 same-set stride populate
        // every way of the target set (and alias into one L1 set).
        let load_l2: Vec<u64> = (0..l2_geom.ways as u64)
            .map(|i| base + i * l2_geom.same_set_stride())
            .collect();
        // Step 2: L1-conflicting addresses that live in *different* L2 sets:
        // step by the L1 stride, skipping multiples of the L2 stride.
        let mut evict_l1 = Vec::new();
        let mut k = 1u64;
        while evict_l1.len() < l1_geom.ways {
            let addr = base + k * l1_geom.same_set_stride();
            if !addr.is_multiple_of(l2_geom.same_set_stride()) || l2_geom.set_of(addr) != set {
                evict_l1.push(addr);
            }
            k += 1;
        }
        TargetedTestPlan {
            side,
            set,
            load_l2,
            evict_l1,
        }
    }

    /// Runs the Figure 7 three-step targeted test against one L2 set:
    /// returns the read results of the final step (one per way of the set).
    ///
    /// All reads go through the fault injector, so at low voltage this test
    /// produces exactly the correctable-error feedback the firmware
    /// prototype observed.
    pub(crate) fn targeted_line_test(
        &mut self,
        side: Side,
        set: usize,
        injector: &mut dyn Injector,
    ) -> Vec<AccessOutcome> {
        let plan = self.targeted_test_addresses(side, set);
        // Step 1: populate the L2 set (also lands in L1).
        for &addr in &plan.load_l2 {
            let _ = self.access(side, addr, injector);
        }
        // Step 2: evict the originals from the L1.
        for &addr in &plan.evict_l1 {
            let _ = self.access(side, addr, injector);
        }
        // Step 3: re-access the originals; they must now hit the L2.
        plan.load_l2
            .iter()
            .map(|&addr| self.access(side, addr, injector))
            .collect()
    }
}

/// The address plan for one targeted test (exposed for the Figure 7 trace
/// report and for tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetedTestPlan {
    /// Which side of the hierarchy is tested.
    pub side: Side,
    /// Target L2 set index.
    pub set: usize,
    /// Step-1 addresses (one per L2 way).
    pub load_l2: Vec<u64>,
    /// Step-2 addresses (L1 eviction conflicts).
    pub evict_l1: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NoFaults;

    #[test]
    fn memory_line_deterministic_and_word_sized() {
        let a = memory_line(0x1000, 16);
        let b = memory_line(0x1000, 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert_ne!(memory_line(0x1080, 16), a);
    }

    #[test]
    fn access_walks_memory_then_l2_then_l1() {
        let mut cc = CoreCaches::new();
        let addr = 0x4_2000;
        let first = cc.access(Side::Data, addr, &mut NoFaults);
        assert_eq!(first.level, HitLevel::Memory);
        let second = cc.access(Side::Data, addr, &mut NoFaults);
        assert_eq!(second.level, HitLevel::L1);
        // Evict from L1 by thrashing its set, then the access hits L2.
        let l1_stride = cc.l1d.geometry().same_set_stride();
        let l2_stride = cc.l2d.geometry().same_set_stride();
        let mut evicted = 0;
        let mut k = 1u64;
        while evicted < cc.l1d.geometry().ways {
            let conflict = addr + k * l1_stride;
            if conflict % l2_stride != addr % l2_stride {
                cc.access(Side::Data, conflict, &mut NoFaults);
                evicted += 1;
            }
            k += 1;
        }
        let third = cc.access(Side::Data, addr, &mut NoFaults);
        assert_eq!(third.level, HitLevel::L2);
    }

    #[test]
    fn l1_fill_slices_correct_half_of_l2_line() {
        // L1 lines are 64 B, L2 lines 128 B; an access to the upper half
        // must read the upper words.
        let mut cc = CoreCaches::new();
        let base = 0x8_0000u64;
        let upper = base + 64;
        cc.access(Side::Data, upper, &mut NoFaults);
        let hit = cc.access(Side::Data, upper, &mut NoFaults);
        assert_eq!(hit.level, HitLevel::L1);
        let expected = memory_line(base, 16)[8..16].to_vec();
        assert_eq!(hit.read.unwrap().data, expected);
    }

    #[test]
    fn targeted_plan_addresses_map_correctly() {
        let cc = CoreCaches::new();
        let plan = cc.targeted_test_addresses(Side::Data, 17);
        let l1 = cc.l1d.geometry();
        let l2 = cc.l2d.geometry();
        assert_eq!(plan.load_l2.len(), 8);
        assert_eq!(plan.evict_l1.len(), 4);
        let l1_set = l1.set_of(plan.load_l2[0]);
        for &a in &plan.load_l2 {
            assert_eq!(l2.set_of(a), 17, "step-1 addresses share the L2 set");
            assert_eq!(l1.set_of(a), l1_set, "step-1 addresses share the L1 set");
        }
        for &a in &plan.evict_l1 {
            assert_eq!(l1.set_of(a), l1_set, "step-2 addresses conflict in L1");
            assert_ne!(l2.set_of(a), 17, "step-2 addresses avoid the L2 set");
        }
    }

    #[test]
    fn targeted_test_final_step_hits_l2() {
        let mut cc = CoreCaches::new();
        let outcomes = cc.targeted_line_test(Side::Data, 42, &mut NoFaults);
        assert_eq!(outcomes.len(), 8);
        for o in &outcomes {
            assert_eq!(o.level, HitLevel::L2, "final accesses must hit the L2");
            assert_eq!(o.kind, Some(CacheKind::L2Data));
        }
    }

    #[test]
    fn targeted_test_works_on_instruction_side() {
        let mut cc = CoreCaches::new();
        let outcomes = cc.targeted_line_test(Side::Instruction, 100, &mut NoFaults);
        assert!(outcomes
            .iter()
            .all(|o| o.level == HitLevel::L2 && o.kind == Some(CacheKind::L2Instruction)));
    }

    #[test]
    fn targeted_test_data_integrity() {
        let mut cc = CoreCaches::new();
        let plan = cc.targeted_test_addresses(Side::Data, 7);
        let outcomes = cc.targeted_line_test(Side::Data, 7, &mut NoFaults);
        for (o, &addr) in outcomes.iter().zip(&plan.load_l2) {
            let expected = memory_line(addr, 16);
            assert_eq!(o.read.as_ref().unwrap().data, expected);
        }
    }
}

//! Cache geometry and physical-address mapping.

use vs_types::{CacheKind, SetWay};

/// The shape of one set-associative structure and the address arithmetic
/// that goes with it.
///
/// The default geometries mirror Table I of the paper (Itanium 9560):
/// 4-way 16 KB L1s, an 8-way 256 KB L2D, an 8-way 512 KB L2I, and a 32-way
/// 32 MB L3. L1 lines are 64 bytes; L2/L3 lines are 128 bytes.
///
/// ```
/// use vs_cache::CacheGeometry;
/// use vs_types::CacheKind;
///
/// let l2d = CacheGeometry::for_kind(CacheKind::L2Data);
/// assert_eq!(l2d.sets * l2d.ways * l2d.line_bytes, 256 * 1024);
/// assert_eq!(l2d.words_per_line(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: usize,
    /// Ways of associativity.
    pub ways: usize,
    /// Line size in bytes (must be a multiple of 8).
    pub line_bytes: usize,
    /// Access latency in cycles (informational; used by reports).
    pub latency_cycles: u32,
}

impl CacheGeometry {
    /// Creates a geometry, validating the shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, if `sets` or `line_bytes` is not a
    /// power of two, or if `line_bytes` is not a multiple of 8.
    pub fn new(sets: usize, ways: usize, line_bytes: usize, latency_cycles: u32) -> CacheGeometry {
        assert!(
            sets > 0 && ways > 0 && line_bytes > 0,
            "dimensions must be positive"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            line_bytes.is_multiple_of(8),
            "line size must hold whole 64-bit words"
        );
        CacheGeometry {
            sets,
            ways,
            line_bytes,
            latency_cycles,
        }
    }

    /// 4-way 16 KB L1 instruction cache, 64 B lines, 1-cycle.
    pub(crate) fn l1_instruction() -> CacheGeometry {
        CacheGeometry::new(64, 4, 64, 1)
    }

    /// 4-way 16 KB L1 data cache, 64 B lines, 1-cycle.
    pub(crate) fn l1_data() -> CacheGeometry {
        CacheGeometry::new(64, 4, 64, 1)
    }

    /// 8-way 256 KB L2 data cache, 128 B lines, 9-cycle.
    pub(crate) fn l2_data() -> CacheGeometry {
        CacheGeometry::new(256, 8, 128, 9)
    }

    /// 8-way 512 KB L2 instruction cache, 128 B lines, 9-cycle.
    pub(crate) fn l2_instruction() -> CacheGeometry {
        CacheGeometry::new(512, 8, 128, 9)
    }

    /// 32-way 32 MB unified L3, 128 B lines, 50-cycle.
    pub(crate) fn l3_unified() -> CacheGeometry {
        CacheGeometry::new(8192, 32, 128, 50)
    }

    /// The default geometry for a structure kind.
    ///
    /// Register files are modelled as direct-mapped arrays of 8-byte
    /// entries so they can share the cache machinery.
    pub fn for_kind(kind: CacheKind) -> CacheGeometry {
        match kind {
            CacheKind::L1Instruction => CacheGeometry::l1_instruction(),
            CacheKind::L1Data => CacheGeometry::l1_data(),
            CacheKind::L2Instruction => CacheGeometry::l2_instruction(),
            CacheKind::L2Data => CacheGeometry::l2_data(),
            CacheKind::L3Unified => CacheGeometry::l3_unified(),
            CacheKind::RegisterFileInt => CacheGeometry::new(64, 1, 8, 1),
            CacheKind::RegisterFileFp => CacheGeometry::new(32, 1, 8, 1),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }

    /// Number of 64-bit ECC words per line.
    pub fn words_per_line(&self) -> usize {
        self.line_bytes / 8
    }

    /// The set index an address maps to.
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes as u64) % self.sets as u64) as usize
    }

    /// The tag of an address (line address above the set bits).
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr / (self.line_bytes as u64 * self.sets as u64)
    }

    /// The base address of the line containing `addr`.
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }

    /// Reconstructs a line base address from a tag and set index.
    pub fn address_of(&self, tag: u64, set: usize) -> u64 {
        (tag * self.sets as u64 + set as u64) * self.line_bytes as u64
    }

    /// The stride between two addresses that map to the same set
    /// (`sets × line_bytes`).
    pub(crate) fn same_set_stride(&self) -> u64 {
        (self.sets * self.line_bytes) as u64
    }

    /// Iterates over every (set, way) coordinate of the structure.
    pub fn iter_locations(&self) -> impl Iterator<Item = SetWay> + '_ {
        let ways = self.ways;
        (0..self.sets).flat_map(move |set| (0..ways).map(move |way| SetWay::new(set, way)))
    }

    /// Validates that a coordinate lies inside this geometry.
    pub(crate) fn contains(&self, location: SetWay) -> bool {
        location.set < self.sets && location.way < self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_capacities() {
        assert_eq!(CacheGeometry::l1_data().capacity_bytes(), 16 * 1024);
        assert_eq!(CacheGeometry::l1_instruction().capacity_bytes(), 16 * 1024);
        assert_eq!(CacheGeometry::l2_data().capacity_bytes(), 256 * 1024);
        assert_eq!(CacheGeometry::l2_instruction().capacity_bytes(), 512 * 1024);
        assert_eq!(
            CacheGeometry::l3_unified().capacity_bytes(),
            32 * 1024 * 1024
        );
    }

    #[test]
    fn table_i_associativity() {
        assert_eq!(CacheGeometry::l1_data().ways, 4);
        assert_eq!(CacheGeometry::l2_data().ways, 8);
        assert_eq!(CacheGeometry::l2_instruction().ways, 8);
        assert_eq!(CacheGeometry::l3_unified().ways, 32);
    }

    #[test]
    fn address_mapping_roundtrip() {
        let g = CacheGeometry::l2_data();
        for addr in [0u64, 128, 4096, 0x4_0000, 0xDEAD_0000] {
            let base = g.line_base(addr);
            let set = g.set_of(addr);
            let tag = g.tag_of(addr);
            assert_eq!(g.address_of(tag, set), base);
        }
    }

    #[test]
    fn same_set_stride_conflicts() {
        let g = CacheGeometry::l1_data();
        let base = 0x1000;
        for i in 0..8 {
            let addr = base + i * g.same_set_stride();
            assert_eq!(g.set_of(addr), g.set_of(base));
        }
    }

    #[test]
    fn l1_l2_aliasing_property() {
        // Addresses that share an L2 set also share an L1 set (the L2's
        // span is a multiple of the L1's) - the property Figure 7 exploits.
        let l1 = CacheGeometry::l1_data();
        let l2 = CacheGeometry::l2_data();
        assert_eq!(l2.same_set_stride() % l1.same_set_stride(), 0);
        let base = 0x8000;
        for i in 0..8 {
            let addr = base + i * l2.same_set_stride();
            assert_eq!(l1.set_of(addr), l1.set_of(base));
            assert_eq!(l2.set_of(addr), l2.set_of(base));
        }
    }

    #[test]
    fn iter_locations_covers_all() {
        let g = CacheGeometry::new(4, 2, 64, 1);
        let locs: Vec<SetWay> = g.iter_locations().collect();
        assert_eq!(locs.len(), 8);
        assert!(locs.contains(&SetWay::new(3, 1)));
        assert!(g.contains(SetWay::new(3, 1)));
        assert!(!g.contains(SetWay::new(4, 0)));
        assert!(!g.contains(SetWay::new(0, 2)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        CacheGeometry::new(3, 2, 64, 1);
    }

    #[test]
    fn words_per_line() {
        assert_eq!(CacheGeometry::l1_data().words_per_line(), 8);
        assert_eq!(CacheGeometry::l2_data().words_per_line(), 16);
    }
}

//! Hardware identifiers: cores, voltage domains, caches, and cache-line
//! coordinates.

use std::fmt;

/// Identifies one core of the simulated chip multiprocessor.
///
/// The reference platform (Itanium 9560) has eight cores per socket; core ids
/// are small dense integers.
///
/// ```
/// use vs_types::CoreId;
/// let c = CoreId(3);
/// assert_eq!(c.to_string(), "core3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifies one supply-voltage domain.
///
/// On the reference platform each pair of cores shares a power-delivery line,
/// with separate lines for the uncore; the chip exposes six independently
/// adjustable domains (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DomainId(pub usize);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vdd{}", self.0)
    }
}

/// Which cache structure an event or address refers to.
///
/// The paper finds that at low voltage only the L2 instruction and data
/// caches produce correctable errors, while at nominal voltage register files
/// also contribute (§II-C). The simulator models all of the SRAM structures
/// so that distinction emerges rather than being hard-coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheKind {
    /// Level-1 instruction cache (4-way, 16 KB on the reference platform).
    L1Instruction,
    /// Level-1 data cache (4-way, 16 KB).
    L1Data,
    /// Level-2 instruction cache (8-way, 512 KB).
    L2Instruction,
    /// Level-2 data cache (8-way, 256 KB).
    L2Data,
    /// Shared unified L3 (32-way, 32 MB), on the uncore domain.
    L3Unified,
    /// Integer register file (modelled as a small ECC-protected array).
    RegisterFileInt,
    /// Floating-point register file.
    RegisterFileFp,
}

impl CacheKind {
    /// All modelled SRAM structures, in a stable order.
    pub const ALL: [CacheKind; 7] = [
        CacheKind::L1Instruction,
        CacheKind::L1Data,
        CacheKind::L2Instruction,
        CacheKind::L2Data,
        CacheKind::L3Unified,
        CacheKind::RegisterFileInt,
        CacheKind::RegisterFileFp,
    ];

    /// True for the L2 caches — the structures the paper's ECC monitors end
    /// up targeting.
    pub fn is_l2(self) -> bool {
        matches!(self, CacheKind::L2Instruction | CacheKind::L2Data)
    }

    /// A stable small integer used when deriving per-structure random
    /// streams.
    pub fn stream_id(self) -> u64 {
        match self {
            CacheKind::L1Instruction => 1,
            CacheKind::L1Data => 2,
            CacheKind::L2Instruction => 3,
            CacheKind::L2Data => 4,
            CacheKind::L3Unified => 5,
            CacheKind::RegisterFileInt => 6,
            CacheKind::RegisterFileFp => 7,
        }
    }

    /// Short human-readable label used in reports ("L2I", "L2D", ...).
    pub(crate) fn label(self) -> &'static str {
        match self {
            CacheKind::L1Instruction => "L1I",
            CacheKind::L1Data => "L1D",
            CacheKind::L2Instruction => "L2I",
            CacheKind::L2Data => "L2D",
            CacheKind::L3Unified => "L3",
            CacheKind::RegisterFileInt => "RF-INT",
            CacheKind::RegisterFileFp => "RF-FP",
        }
    }
}

impl fmt::Display for CacheKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The (set, way) coordinates of a cache line within one structure.
///
/// Correctable-error reports carry the set and way of the failing line
/// (§IV-A4); calibration records them to designate the weakest line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SetWay {
    /// Set index within the structure.
    pub set: usize,
    /// Way (column of associativity) within the set.
    pub way: usize,
}

impl SetWay {
    /// Creates a new coordinate pair.
    pub fn new(set: usize, way: usize) -> SetWay {
        SetWay { set, way }
    }
}

impl fmt::Display for SetWay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "set {} way {}", self.set, self.way)
    }
}

/// Fully qualified location of a cache line on the chip: which core's
/// structure, and where inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddress {
    /// The core owning the structure (for the shared L3 this is the core
    /// from whose controller the access was issued).
    pub core: CoreId,
    /// Which SRAM structure.
    pub cache: CacheKind,
    /// The coordinates within the structure.
    pub location: SetWay,
}

impl LineAddress {
    /// Creates a fully qualified line address.
    pub fn new(core: CoreId, cache: CacheKind, location: SetWay) -> LineAddress {
        LineAddress {
            core,
            cache,
            location,
        }
    }
}

impl fmt::Display for LineAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} {}", self.core, self.cache, self.location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round() {
        assert_eq!(CoreId(5).to_string(), "core5");
        assert_eq!(DomainId(2).to_string(), "vdd2");
        assert_eq!(SetWay::new(31, 7).to_string(), "set 31 way 7");
        let addr = LineAddress::new(CoreId(1), CacheKind::L2Data, SetWay::new(4, 2));
        assert_eq!(addr.to_string(), "core1/L2D set 4 way 2");
    }

    #[test]
    fn cache_kind_classification() {
        assert!(CacheKind::L2Data.is_l2());
        assert!(!CacheKind::L3Unified.is_l2());
    }

    #[test]
    fn stream_ids_unique() {
        let mut ids: Vec<u64> = CacheKind::ALL.iter().map(|k| k.stream_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CacheKind::ALL.len());
    }

    #[test]
    fn ordering_is_stable() {
        assert!(CoreId(0) < CoreId(1));
        assert!(SetWay::new(0, 5) < SetWay::new(1, 0));
    }
}

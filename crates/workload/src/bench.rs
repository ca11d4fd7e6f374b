//! Benchmark suite profiles (the paper's Table II).
//!
//! Each benchmark is a [`BenchmarkProfile`]: a hand-calibrated base
//! character (compute-bound vs memory-bound, I-side vs D-side traffic,
//! working-set size) plus deterministic multi-second phase modulation
//! derived from the benchmark's name, so runs are reproducible and two
//! benchmarks never share a phase pattern.

use crate::demand::{BackToBack, Demand, Workload};
use vs_types::rng::{hash_key, CounterRng};
use vs_types::SimTime;

/// The benchmark suites used in the evaluation (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// CoreMark kernels: list processing, matrix manipulation, state
    /// machine, CRC.
    CoreMark,
    /// SPECjbb2005, 8 warehouses.
    SpecJbb2005,
    /// SPEC CPU2000 integer benchmarks.
    SpecInt2000,
    /// SPEC CPU2000 floating-point benchmarks (wupwise and apsi excluded,
    /// as in the paper).
    SpecFp2000,
}

impl Suite {
    /// All four suites in evaluation order.
    pub const ALL: [Suite; 4] = [
        Suite::CoreMark,
        Suite::SpecJbb2005,
        Suite::SpecInt2000,
        Suite::SpecFp2000,
    ];

    /// Display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Suite::CoreMark => "CoreMark",
            Suite::SpecJbb2005 => "SPECjbb2005",
            Suite::SpecInt2000 => "SPECint",
            Suite::SpecFp2000 => "SPECfp",
        }
    }

    /// The benchmark names in this suite.
    pub fn benchmark_names(self) -> &'static [&'static str] {
        match self {
            Suite::CoreMark => &[
                "list_processing",
                "matrix_manipulation",
                "state_machine",
                "crc",
            ],
            Suite::SpecJbb2005 => &["specjbb2005"],
            Suite::SpecInt2000 => &[
                "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk", "gap", "vortex",
                "bzip2", "twolf",
            ],
            Suite::SpecFp2000 => &[
                "swim", "mgrid", "applu", "mesa", "galgel", "art", "equake", "facerec", "ammp",
                "lucas", "fma3d", "sixtrack",
            ],
        }
    }

    /// The profiles of every benchmark in the suite.
    pub(crate) fn benchmarks(self) -> Vec<BenchmarkProfile> {
        self.benchmark_names()
            .iter()
            .map(|n| benchmark(n).expect("suite names are all known"))
            .collect()
    }

    /// A back-to-back run of the whole suite, `per_benchmark` seconds each.
    pub fn back_to_back(self, per_benchmark: SimTime) -> BackToBack {
        let segments = self
            .benchmarks()
            .into_iter()
            .map(|b| {
                (
                    Box::new(b) as Box<dyn Workload + Send + Sync>,
                    per_benchmark,
                )
            })
            .collect();
        BackToBack::new(self.label(), segments)
    }
}

/// Base character of one benchmark, before phase modulation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BaseCharacter {
    activity: f64,
    l2_accesses_per_ms: f64,
    instruction_fraction: f64,
    footprint_fraction: f64,
    /// How strongly phases modulate activity (memory-bound codes swing
    /// more).
    phase_swing: f64,
}

/// Hand-calibrated characters for benchmarks with well-known behaviour;
/// anything not listed gets a derived character.
fn base_character(name: &str) -> BaseCharacter {
    match name {
        // CoreMark kernels: small-footprint, compute-heavy mobile kernels.
        "list_processing" => bc(0.78, 900.0, 0.30, 0.06, 0.10),
        "matrix_manipulation" => bc(0.92, 400.0, 0.15, 0.04, 0.06),
        "state_machine" => bc(0.85, 250.0, 0.40, 0.03, 0.08),
        "crc" => bc(0.88, 300.0, 0.20, 0.02, 0.05),
        // SPECjbb: server Java, big footprint, lots of I-side traffic.
        "specjbb2005" => bc(0.72, 2400.0, 0.45, 0.35, 0.20),
        // SPECint highlights.
        "gzip" => bc(0.80, 1100.0, 0.12, 0.10, 0.12),
        "vpr" => bc(0.75, 1400.0, 0.18, 0.14, 0.15),
        "gcc" => bc(0.70, 2000.0, 0.50, 0.30, 0.25),
        "mcf" => bc(0.45, 4200.0, 0.08, 0.45, 0.30),
        "crafty" => bc(0.93, 700.0, 0.35, 0.08, 0.08),
        "parser" => bc(0.68, 1800.0, 0.22, 0.18, 0.15),
        "eon" => bc(0.90, 500.0, 0.30, 0.05, 0.06),
        "perlbmk" => bc(0.78, 1300.0, 0.45, 0.16, 0.14),
        "gap" => bc(0.74, 1500.0, 0.25, 0.15, 0.13),
        "vortex" => bc(0.76, 1700.0, 0.40, 0.22, 0.16),
        "bzip2" => bc(0.82, 1200.0, 0.10, 0.12, 0.14),
        "twolf" => bc(0.71, 1600.0, 0.20, 0.16, 0.12),
        // SPECfp highlights.
        "swim" => bc(0.60, 3500.0, 0.05, 0.50, 0.22),
        "mgrid" => bc(0.72, 2600.0, 0.05, 0.40, 0.12),
        "applu" => bc(0.70, 2400.0, 0.06, 0.38, 0.14),
        "mesa" => bc(0.88, 800.0, 0.25, 0.10, 0.08),
        "galgel" => bc(0.78, 1900.0, 0.08, 0.25, 0.16),
        "art" => bc(0.52, 3800.0, 0.04, 0.42, 0.28),
        "equake" => bc(0.62, 3000.0, 0.06, 0.35, 0.20),
        "facerec" => bc(0.80, 1500.0, 0.10, 0.18, 0.12),
        "ammp" => bc(0.74, 2100.0, 0.08, 0.28, 0.15),
        "lucas" => bc(0.76, 2300.0, 0.04, 0.30, 0.10),
        "fma3d" => bc(0.84, 1600.0, 0.12, 0.20, 0.12),
        "sixtrack" => bc(0.95, 600.0, 0.15, 0.06, 0.05),
        // Unknown benchmarks get a character derived from the name hash so
        // custom workloads are still deterministic and plausible.
        other => {
            let mut rng = CounterRng::from_key(0xBE7C, &[hash_key(0, &[name_hash(other)])]);
            bc(
                0.5 + 0.4 * rng.next_f64(),
                300.0 + 3000.0 * rng.next_f64(),
                0.05 + 0.4 * rng.next_f64(),
                0.05 + 0.4 * rng.next_f64(),
                0.05 + 0.2 * rng.next_f64(),
            )
        }
    }
}

fn bc(
    activity: f64,
    l2_accesses_per_ms: f64,
    instruction_fraction: f64,
    footprint_fraction: f64,
    phase_swing: f64,
) -> BaseCharacter {
    BaseCharacter {
        activity,
        l2_accesses_per_ms,
        instruction_fraction,
        footprint_fraction,
        phase_swing,
    }
}

fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Convenience namespace grouping suite lookups, mirroring the paper's
/// Table II.
pub mod suites {
    pub use super::{benchmark, Suite};
}

/// A named benchmark with deterministic phase behaviour.
///
/// Phases last 1–4 s; within a phase the demand is constant, so the
/// voltage controller sees realistic multi-second workload shifts (the
/// dynamics of the paper's Figure 12).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    name: String,
    base: BaseCharacter,
    seed: u64,
}

/// Looks up a benchmark profile by name. Returns `None` only for the empty
/// string; unknown names get a derived (but deterministic) character.
pub fn benchmark(name: &str) -> Option<BenchmarkProfile> {
    if name.is_empty() {
        return None;
    }
    Some(BenchmarkProfile {
        name: name.to_owned(),
        base: base_character(name),
        seed: name_hash(name),
    })
}

impl BenchmarkProfile {
    /// Phase index and per-phase RNG at time `t`.
    fn phase_at(&self, t: SimTime) -> CounterRng {
        // Variable-length phases: walk 1-4 s phases deterministically.
        let mut phase_start_ms = 0u64;
        let mut index = 0u64;
        let t_ms = t.as_millis();
        loop {
            let mut rng = CounterRng::from_key(self.seed, &[0x9A5E, index]);
            let len_ms = 1000 + rng.next_below(3000);
            if t_ms < phase_start_ms + len_ms {
                return rng;
            }
            phase_start_ms += len_ms;
            index += 1;
        }
    }
}

impl Workload for BenchmarkProfile {
    fn name(&self) -> &str {
        &self.name
    }

    fn demand(&self, t: SimTime) -> Demand {
        let mut rng = self.phase_at(t);
        let swing = self.base.phase_swing;
        // Phase multipliers centred on 1.0.
        let m_act = 1.0 + swing * (2.0 * rng.next_f64() - 1.0);
        let m_l2 = 1.0 + 2.0 * swing * (2.0 * rng.next_f64() - 1.0);
        let m_fp = 1.0 + swing * (2.0 * rng.next_f64() - 1.0);
        Demand {
            activity: (self.base.activity * m_act).clamp(0.05, 1.2),
            // Ordinary codes have mild high-frequency activity ripple, far
            // from resonance and small in amplitude.
            activity_osc_amplitude: 0.05 * self.base.activity,
            osc_freq_hz: 1.0e5,
            activity_transient_step: 0.0,
            l2_accesses_per_ms: (self.base.l2_accesses_per_ms * m_l2).max(10.0),
            instruction_fraction: self.base.instruction_fraction.clamp(0.0, 1.0),
            footprint_fraction: (self.base.footprint_fraction * m_fp).clamp(0.005, 0.95),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_suite_membership() {
        assert_eq!(Suite::CoreMark.benchmark_names().len(), 4);
        assert_eq!(Suite::SpecInt2000.benchmark_names().len(), 12);
        assert_eq!(Suite::SpecFp2000.benchmark_names().len(), 12);
        assert!(Suite::SpecInt2000.benchmark_names().contains(&"mcf"));
        assert!(Suite::SpecInt2000.benchmark_names().contains(&"crafty"));
        // wupwise and apsi were excluded in the paper.
        assert!(!Suite::SpecFp2000.benchmark_names().contains(&"wupwise"));
        assert!(!Suite::SpecFp2000.benchmark_names().contains(&"apsi"));
    }

    #[test]
    fn profiles_are_deterministic() {
        let a = benchmark("mcf").unwrap();
        let b = benchmark("mcf").unwrap();
        for s in [0u64, 3, 17, 120] {
            assert_eq!(
                a.demand(SimTime::from_secs(s)),
                b.demand(SimTime::from_secs(s))
            );
        }
    }

    #[test]
    fn demands_are_always_valid() {
        for suite in Suite::ALL {
            for b in suite.benchmarks() {
                for s in 0..60 {
                    let d = b.demand(SimTime::from_secs(s));
                    assert!(d.is_valid(), "{} at {s}s: {d:?}", b.name());
                }
            }
        }
    }

    #[test]
    fn mcf_is_memory_bound_crafty_compute_bound() {
        let mcf = benchmark("mcf").unwrap().demand(SimTime::from_secs(1));
        let crafty = benchmark("crafty").unwrap().demand(SimTime::from_secs(1));
        assert!(mcf.l2_accesses_per_ms > 3.0 * crafty.l2_accesses_per_ms);
        assert!(crafty.activity > mcf.activity);
    }

    #[test]
    fn phases_change_over_time() {
        let b = benchmark("gcc").unwrap();
        let demands: Vec<f64> = (0..30)
            .map(|s| b.demand(SimTime::from_secs(s)).activity)
            .collect();
        let distinct: std::collections::BTreeSet<u64> =
            demands.iter().map(|a| (a * 1.0e9) as u64).collect();
        assert!(
            distinct.len() > 3,
            "expected several phases in 30 s, got {}",
            distinct.len()
        );
    }

    #[test]
    fn unknown_benchmark_gets_stable_character() {
        let a = benchmark("mystery_app").unwrap();
        let b = benchmark("mystery_app").unwrap();
        assert_eq!(
            a.demand(SimTime::from_secs(2)),
            b.demand(SimTime::from_secs(2))
        );
        assert!(benchmark("").is_none());
    }

    #[test]
    fn suite_back_to_back_runs_each_benchmark() {
        let seq = Suite::CoreMark.back_to_back(SimTime::from_secs(10));
        assert_eq!(seq.duration(), Some(SimTime::from_secs(40)));
        assert_eq!(
            seq.active_segment_name(SimTime::from_secs(5)),
            "list_processing"
        );
        assert_eq!(seq.active_segment_name(SimTime::from_secs(35)), "crc");
    }

    #[test]
    fn suite_labels() {
        assert_eq!(Suite::SpecJbb2005.label(), "SPECjbb2005");
        assert_eq!(Suite::ALL.len(), 4);
    }
}

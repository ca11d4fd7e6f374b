//! Property-based invariants across the stack.
//!
//! Hand-rolled property loops driven by the workspace's deterministic
//! [`CounterRng`] (no external fuzzing crate), so the suite builds fully
//! offline and every case is reproducible from the printed index.

use voltspec::cache::{Cache, CacheGeometry, NoFaults};
use voltspec::ecc::{DecodeOutcome, SecDed};
use voltspec::pdn::{DomainSupply, LoadCurrent};
use voltspec::platform::{Chip, ChipConfig};
use voltspec::sram::{word_failure_probabilities, AccessContext, ChipVariation, SramParams};
use voltspec::types::rng::CounterRng;
use voltspec::types::{CacheKind, CoreId, Millivolts, SetWay, SimTime, VddMode};

const CASES: usize = 256;

/// Every single-bit flip of any codeword of any data decodes back to the
/// original data.
#[test]
fn ecc_corrects_any_single_flip() {
    let mut rng = CounterRng::from_key(0x1471, &[1]);
    let code = SecDed::hsiao_72_64();
    for case in 0..CASES {
        let data = rng.next_u64();
        let bit = rng.next_below(72) as u32;
        let word = code.encode(data);
        match code.decode(code.inject(word, &[bit])) {
            DecodeOutcome::Corrected {
                data: d, bit: b, ..
            } => {
                assert_eq!(d, data, "case {case}");
                assert_eq!(b, bit, "case {case}");
            }
            other => panic!("case {case}: expected correction, got {other:?}"),
        }
    }
}

/// Any double flip is detected and never silently mis-corrected.
#[test]
fn ecc_detects_any_double_flip() {
    let mut rng = CounterRng::from_key(0x1471, &[2]);
    let code = SecDed::hsiao_72_64();
    let mut tried = 0;
    while tried < CASES {
        let data = rng.next_u64();
        let a = rng.next_below(72) as u32;
        let b = rng.next_below(72) as u32;
        if a == b {
            continue;
        }
        tried += 1;
        let word = code.encode(data);
        let outcome = code.decode(code.inject(word, &[a, b]));
        assert!(
            outcome.is_uncorrectable(),
            "flips ({a},{b}): got {outcome:?}"
        );
    }
}

/// Cache fill/read is an identity through the encoded data path for
/// arbitrary addresses and payloads.
#[test]
fn cache_roundtrip_arbitrary_lines() {
    let mut rng = CounterRng::from_key(0x1471, &[3]);
    for case in 0..CASES {
        let addr = rng.next_below(1 << 30);
        let seed = rng.next_u64();
        let mut cache = Cache::new(CacheKind::L2Data, CacheGeometry::new(64, 4, 128, 9));
        let data: Vec<u64> = (0..16).map(|i| seed.wrapping_mul(i + 1)).collect();
        cache.fill(addr, &data);
        let base = cache.geometry().line_base(addr);
        let read = cache.read(base, &mut NoFaults).expect("just filled");
        assert_eq!(read.data, data, "case {case}");
        assert!(read.events.is_empty(), "case {case}");
    }
}

/// Word failure probabilities always form a distribution and respond
/// monotonically to voltage.
#[test]
fn sram_probabilities_well_formed() {
    let mut rng = CounterRng::from_key(0x1471, &[4]);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let set = rng.next_below(256) as usize;
        let way = rng.next_below(8) as usize;
        let v = 500.0 + 400.0 * rng.next_f64();
        let chip = ChipVariation::new(seed, SramParams::default());
        let cells = chip.word_cells(
            CoreId(0),
            CacheKind::L2Data,
            SetWay::new(set, way),
            0,
            VddMode::LowVoltage,
        );
        let ctx = AccessContext::new(v, 3.2);
        let (p0, p1, p2) = word_failure_probabilities(&cells, &ctx);
        assert!((p0 + p1 + p2 - 1.0).abs() < 1e-9, "case {case}");
        assert!(p0 >= 0.0 && p1 >= 0.0 && p2 >= 0.0, "case {case}");
        let lower = AccessContext::new(v - 25.0, 3.2);
        let (q0, _, _) = word_failure_probabilities(&cells, &lower);
        assert!(
            q0 <= p0 + 1e-12,
            "case {case}: lower voltage cannot be cleaner"
        );
    }
}

/// The regulator never leaves its range or the 5 mV grid, whatever is
/// requested.
#[test]
fn regulator_respects_grid_and_range() {
    let mut rng = CounterRng::from_key(0x1471, &[5]);
    for _case in 0..CASES {
        let mut supply = DomainSupply::low_voltage_default();
        let requests = 1 + rng.next_below(39);
        for _ in 0..requests {
            let r = -2000 + rng.next_below(5000) as i32;
            supply.regulator_mut().request(Millivolts(r));
            supply.tick();
            let v = supply.regulator().output();
            assert!(v >= Millivolts(500) && v <= Millivolts(900));
            assert_eq!(v.0 % 5, 0);
        }
    }
}

/// Effective voltage never exceeds the set point (droops only pull down)
/// for any non-negative load.
#[test]
fn droop_only_lowers_voltage() {
    let mut rng = CounterRng::from_key(0x1471, &[6]);
    for case in 0..CASES {
        let supply = DomainSupply::low_voltage_default();
        let load = LoadCurrent {
            i_dc_amps: 50.0 * rng.next_f64(),
            i_ac_amps: 20.0 * rng.next_f64(),
            f_osc_hz: 1.0 + (1.0e9 - 1.0) * rng.next_f64(),
            transient_step_amps: 20.0 * rng.next_f64(),
        };
        let v = supply.effective_voltage_mv(&load);
        assert!(v <= f64::from(supply.regulator().output().0), "case {case}");
    }
}

/// Deterministic RNG substreams keyed differently never collide on their
/// first draws (collision would silently correlate models).
#[test]
fn rng_streams_distinct() {
    let mut rng = CounterRng::from_key(0x1471, &[7]);
    let mut tried = 0;
    while tried < CASES {
        let seed = rng.next_u64();
        let a = rng.next_u64();
        let b = rng.next_u64();
        if a == b {
            continue;
        }
        tried += 1;
        let x = CounterRng::from_key(seed, &[a]).next_u64();
        let y = CounterRng::from_key(seed, &[b]).next_u64();
        assert_ne!(x, y, "seed {seed}: keys {a} and {b} collided");
    }
}

/// Whatever the die, a short closed-loop run from nominal never crashes a
/// core and never sees an uncorrectable error: the safety invariant of the
/// whole system.
#[test]
fn speculation_is_safe_on_any_die() {
    let mut rng = CounterRng::from_key(0x1471, &[8]);
    for _ in 0..8 {
        let seed = rng.next_below(1_000_000);
        let config = ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 8,
            ..ChipConfig::low_voltage(seed)
        };
        let mut sys = voltspec::spec::SpeculationSystem::new(
            config,
            voltspec::spec::ControllerConfig::default(),
        );
        sys.calibrate_fast();
        sys.assign_workload(
            CoreId(0),
            Box::new(voltspec::workload::StressTest::default()),
        );
        let stats = sys.run(SimTime::from_secs(8));
        assert!(
            stats.is_safe(),
            "die {seed} crashed: {:?}",
            stats.crashed_cores
        );
        assert_eq!(sys.chip().ecc_counts().uncorrectable(), 0);
        // And it actually speculated somewhere below nominal.
        assert!(stats.mean_vdd_mv[0] < 800.0, "die {seed} never speculated");
    }
}

/// Chip ticks conserve sanity for arbitrary dies: power positive,
/// effective voltages at or below set points, time advances.
#[test]
fn chip_tick_invariants() {
    let mut rng = CounterRng::from_key(0x1471, &[9]);
    for _ in 0..8 {
        let seed = rng.next_below(1_000_000);
        let config = ChipConfig {
            num_cores: 2,
            weak_lines_tracked: 4,
            ..ChipConfig::low_voltage(seed)
        };
        let mut chip = Chip::new(config);
        chip.set_workload(
            CoreId(0),
            Box::new(voltspec::workload::StressTest::default()),
        );
        for _ in 0..50 {
            let before = chip.now();
            let report = chip.tick();
            assert!(report.power.0 > 0.0, "die {seed}");
            assert!(chip.now() > before, "die {seed}");
            for (d, v) in report.domain_v_eff_mv.iter().enumerate() {
                let set = chip.domain_set_point(voltspec::types::DomainId(d));
                assert!(*v <= f64::from(set.0) + 1e-9, "die {seed} domain {d}");
            }
        }
    }
}

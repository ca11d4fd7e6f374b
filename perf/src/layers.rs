//! Per-layer microbenchmarks, driven by the workload's own dies.
//!
//! Each metric times calls into one layer's public functions from this
//! file and reports the median of [`REPS`] repeats (with quartiles). The
//! operating points are not made up: one die of the workload is
//! characterized, calibrated and run exactly as its chip job would be,
//! with a trace point every tick, and the microbenchmarks replay that
//! run's per-tick (monitor line, effective voltage) sequence, its set
//! points and its monitor lines.

use crate::replica;
use crate::report::{Better, Metric, Report};
use crate::stats::Summary;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vs_cache::{Cache, CacheGeometry, NoFaults};
use vs_ecc::SecDed;
use vs_fleet::{save_checkpoint, ChipJournal, ChipSummary, FleetConfig};
use vs_fleetd::protocol::{decode_response, encode_response, read_frame, write_frame};
use vs_fleetd::Response;
use vs_pdn::{DomainSupply, LoadCurrent};
use vs_platform::characterize::all_analytic_core_margins;
use vs_platform::Chip;
use vs_spec::{SpecRun, SpeculationSystem};
use vs_sram::{CellBank, FailureLut};
use vs_telemetry::TelemetryEvent;
use vs_types::rng::CounterRng;
use vs_types::{CacheKind, Celsius, ChipId, CoreId, Millivolts};

/// Timed repeats per metric.
const REPS: usize = 9;

/// Minimum calls per repeat for the nanosecond-scale metrics, so one
/// repeat lasts long enough to time.
const MIN_CALLS: u64 = 200_000;

/// One tracked monitor line at one tick's effective voltage.
struct Point {
    bank: Arc<CellBank>,
    line: usize,
    v_eff_mv: f64,
}

/// What the probe die's run leaves behind for the microbenchmarks.
struct ProbeDie {
    chip_config: vs_platform::ChipConfig,
    sys: SpeculationSystem,
    points: Vec<Point>,
    set_points_mv: Vec<i32>,
    temperature: Celsius,
}

/// Characterizes, calibrates and runs `chip` of `config` as its chip job
/// would, tracing every tick.
fn probe_die(config: &FleetConfig, chip: ChipId) -> ProbeDie {
    let chip_config = config.chip_config(chip);
    let mut scratch = Chip::new(chip_config.clone());
    all_analytic_core_margins(&mut scratch);
    let banks = scratch.export_banks();
    let mut sys = SpeculationSystem::new(chip_config.clone(), config.controller);
    sys.chip_mut().preload_banks(&banks);
    sys.calibrate_fast();
    replica::assign_workloads(config, chip, sys.chip_mut());
    sys.set_trace_spacing(chip_config.tick);
    let mut session = SpecRun::new(&sys, config.run_duration);
    while session.advance(&mut sys, config.slice_ticks) > 0 {}
    let stats = session.finish(&sys);

    let lines: Vec<_> = sys
        .controllers()
        .iter()
        .map(|c| (c.monitor().core(), c.monitor().kind(), c.monitor().line()))
        .collect();
    let monitors: Vec<(Arc<CellBank>, usize)> = lines
        .into_iter()
        .filter_map(|(core, kind, location)| {
            let bank = sys.chip_mut().cell_bank(core, kind);
            let line = bank.find(location)?;
            Some((bank, line))
        })
        .collect();
    let mut points = Vec::new();
    let mut set_points_mv = Vec::new();
    for tp in &stats.trace {
        for (d, (bank, line)) in monitors.iter().enumerate() {
            points.push(Point {
                bank: Arc::clone(bank),
                line: *line,
                v_eff_mv: tp.v_eff_mv[d],
            });
        }
        set_points_mv.extend_from_slice(&tp.set_point_mv);
    }
    assert!(!points.is_empty(), "monitor lines are tracked weak lines");
    let temperature = sys.chip().temperature();
    ProbeDie {
        chip_config,
        sys,
        points,
        set_points_mv,
        temperature,
    }
}

/// Median over [`REPS`] repeats (after one warm-up) of elapsed time per
/// operation, in `unit_ns` nanoseconds; `body` returns how many
/// operations it performed.
fn per_op(unit_ns: f64, mut body: impl FnMut() -> u64) -> Summary {
    body();
    let xs: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let ops = body().max(1);
            start.elapsed().as_nanos() as f64 / ops as f64 / unit_ns
        })
        .collect();
    Summary::of(&xs).expect("REPS > 0")
}

/// A per-operation time, where lower is better.
fn timed(name: &str, unit: &'static str, s: Summary) -> Metric {
    Metric::median(name, unit, Better::Lower, s)
}

/// Runs every per-layer microbenchmark on die `chip` of `config` and
/// pushes the results. `batch` is the workload's natural checkpoint
/// batch (the summaries one save writes); `scratch` is an empty
/// directory for the store-layer files.
pub fn run(
    config: &FleetConfig,
    chip: ChipId,
    batch: &[ChipSummary],
    scratch: &Path,
    report: &mut Report,
) {
    let mut die = probe_die(config, chip);
    let ns = 1.0;
    let us = 1e3;
    let ms = 1e6;

    // --- sram: the failure kernel on the run's own operating points ---
    let words = die.points[0].bank.words_per_line() as u32;
    let calls_per_pass = die.points.len() as u64 * u64::from(words);
    let passes = MIN_CALLS.div_ceil(calls_per_pass.max(1));
    let temp = die.temperature;
    let mut rng = CounterRng::from_key(config.seed.0, &[0x5A3F]);
    let mut misses = 0u64;
    let mut lookups = 0u64;
    let lut = per_op(ns, || {
        for _ in 0..passes {
            let mut lut = FailureLut::new();
            for p in &die.points {
                for w in 0..words {
                    black_box(lut.sample_word(&p.bank, p.line, w, p.v_eff_mv, temp, &mut rng));
                }
            }
            misses += lut.len().1 as u64;
        }
        lookups += passes * calls_per_pass;
        passes * calls_per_pass
    });
    report.push(timed("sram.lut_sample_ns", "ns", lut));
    report.push(Metric::single(
        "sram.lut_miss_per_1k",
        "count",
        Better::Lower,
        1e3 * misses as f64 / lookups as f64,
    ));
    let exact = per_op(ns, || {
        for _ in 0..passes {
            for p in &die.points {
                let ctx = p.bank.context(p.line, p.v_eff_mv, temp);
                for w in 0..words {
                    black_box(p.bank.sample_word_exact(p.line, w, &ctx, &mut rng));
                }
            }
        }
        passes * calls_per_pass
    });
    report.push(timed("sram.exact_sample_ns", "ns", exact));
    let accesses = config.controller.probes_per_tick as f64;
    let point_passes = passes * u64::from(words);
    let negligible = per_op(ns, || {
        for _ in 0..point_passes {
            let mut lut = FailureLut::new();
            for p in &die.points {
                black_box(lut.negligible(&p.bank, p.line, p.v_eff_mv, temp, accesses));
            }
        }
        point_passes * die.points.len() as u64
    });
    report.push(timed("sram.negligible_ns", "ns", negligible));
    let geometry = CacheGeometry::for_kind(CacheKind::L2Data);
    let variation = die.sys.chip().variation().clone();
    let build = per_op(ms, || {
        black_box(CellBank::build(
            &variation,
            CoreId(0),
            CacheKind::L2Data,
            die.chip_config.mode,
            geometry.sets,
            geometry.ways,
            geometry.words_per_line(),
            die.chip_config.weak_lines_tracked,
        ));
        1
    });
    report.push(timed("sram.bank_build_ms", "ms", build));

    // --- ecc: SEC-DED on the die's weakest cells' bit positions ---------
    let code = SecDed::hsiao_72_64();
    let bank = &die.points[0].bank;
    let line = die.points[0].line;
    let data: Vec<u64> = (0..1024).map(|_| rng.next_u64()).collect();
    let encoded: Vec<u128> = data.iter().map(|&d| code.encode(d)).collect();
    let weak_bits: Vec<[u32; 2]> = (0..words)
        .map(|w| {
            let bits = bank.word_bits(line, w);
            [bits[0], bits[bits.len() - 1]]
        })
        .collect();
    let single: Vec<u128> = encoded
        .iter()
        .enumerate()
        .map(|(i, &c)| code.inject(c, &weak_bits[i % weak_bits.len()][..1]))
        .collect();
    let double: Vec<u128> = encoded
        .iter()
        .enumerate()
        .map(|(i, &c)| code.inject(c, &weak_bits[i % weak_bits.len()]))
        .collect();
    let rounds = MIN_CALLS / data.len() as u64;
    let ecc = |words: &[u128]| {
        per_op(ns, || {
            for _ in 0..rounds {
                for &c in words {
                    black_box(code.decode(black_box(c)));
                }
            }
            rounds * words.len() as u64
        })
    };
    let encode = per_op(ns, || {
        for _ in 0..rounds {
            for &d in &data {
                black_box(code.encode(black_box(d)));
            }
        }
        rounds * data.len() as u64
    });
    report.push(timed("ecc.encode_ns", "ns", encode));
    report.push(timed("ecc.decode_clean_ns", "ns", ecc(&encoded)));
    report.push(timed("ecc.decode_ce_ns", "ns", ecc(&single)));
    report.push(timed("ecc.decode_ue_ns", "ns", ecc(&double)));

    // --- cache: L2 data array hits and fills -----------------------------
    let mut cache = Cache::with_default_geometry(CacheKind::L2Data);
    let line_bytes = 8 * geometry.words_per_line() as u64;
    let fill_data: Vec<u64> = data[..geometry.words_per_line()].to_vec();
    let resident: Vec<u64> = (0..256).map(|i| i * line_bytes).collect();
    for &a in &resident {
        cache.fill(a, &fill_data);
    }
    let hit = per_op(ns, || {
        for _ in 0..rounds / 4 {
            for &a in &resident {
                black_box(cache.read(black_box(a), &mut NoFaults));
            }
        }
        rounds / 4 * resident.len() as u64
    });
    report.push(timed("cache.read_hit_ns", "ns", hit));
    let lines = (geometry.sets * geometry.ways) as u64;
    let mut next = 0u64;
    let fill = per_op(ns, || {
        for _ in 0..rounds {
            // Walk four times the capacity, so fills evict.
            next = (next + 1) % (4 * lines);
            black_box(cache.fill(next * line_bytes, &fill_data));
        }
        rounds
    });
    report.push(timed("cache.fill_ns", "ns", fill));

    // --- pdn: the run's set points through one domain supply ------------
    let mut supply = DomainSupply::low_voltage_default();
    let sp = &die.set_points_mv;
    let sp_passes = MIN_CALLS.div_ceil(sp.len() as u64);
    let tick = per_op(ns, || {
        for _ in 0..sp_passes {
            for &mv in sp {
                supply.regulator_mut().request(Millivolts(mv));
                black_box(supply.tick());
            }
        }
        sp_passes * sp.len() as u64
    });
    report.push(timed("pdn.supply_tick_ns", "ns", tick));
    let loads: Vec<LoadCurrent> = (0..256)
        .map(|_| {
            let dc = 2.0 + 6.0 * rng.next_f64();
            LoadCurrent::oscillating(dc, 0.3 * dc, 50e6 + 100e6 * rng.next_f64())
        })
        .collect();
    let effective = per_op(ns, || {
        for _ in 0..rounds / 4 {
            for load in &loads {
                black_box(supply.effective_voltage_mv(black_box(load)));
            }
        }
        rounds / 4 * loads.len() as u64
    });
    report.push(timed("pdn.effective_voltage_ns", "ns", effective));

    // --- platform: the die's tick and its monitor probe ------------------
    let chip_tick = per_op(us, || {
        for _ in 0..200 {
            black_box(die.sys.chip_mut().tick());
        }
        200
    });
    report.push(timed("platform.chip_tick_us", "us", chip_tick));
    let monitor = die.sys.controllers()[0].monitor();
    let (core, kind, mline) = (monitor.core(), monitor.kind(), monitor.line());
    let probes = config.controller.probes_per_tick;
    let target = die.sys.chip_mut();
    let probe = per_op(ns, || {
        for _ in 0..2_000 {
            black_box(target.monitor_probe(core, kind, mline, probes));
            // An uncorrectable read crashes the core, after which probes
            // return at once; restart it so every call does the work.
            if target.crash_info(core).is_some() {
                target.recover_core(core);
            }
        }
        2_000
    });
    report.push(timed("platform.monitor_probe_ns", "ns", probe));
    report.note(format!(
        "layer operating points: {} monitor-line ticks of chip {} (die seed {:016x}) at {:.1} C",
        die.points.len(),
        chip.0,
        die.chip_config.seed,
        temp.0,
    ));

    // --- fleet / guard: the store's durability paths, real fsync --------
    let fingerprint = config.fingerprint();
    let ckpt = scratch.join("layers.ckpt");
    let save = per_op(ms, || {
        save_checkpoint(&ckpt, fingerprint, batch).expect("scratch checkpoint save");
        1
    });
    report.push(timed("fleet.checkpoint_save_ms", "ms", save));
    let journal_path = scratch.join("layers.journal");
    let appends = 32usize;
    let append = per_op(us, || {
        let mut journal =
            ChipJournal::create(&journal_path, fingerprint).expect("scratch journal create");
        for s in batch.iter().cycle().take(appends) {
            journal.append(s).expect("scratch journal append");
        }
        appends as u64
    });
    report.push(timed("guard.journal_append_us", "us", append));
    let framed = last_line(&journal_path);
    let payload = vs_guard::unframe(&framed)
        .expect("the journal's own record unframes")
        .to_string();
    let frame = per_op(ns, || {
        for _ in 0..rounds / 8 {
            black_box(vs_guard::frame(black_box(&payload)));
        }
        rounds / 8
    });
    report.push(timed("guard.frame_ns", "ns", frame));
    let unframe = per_op(ns, || {
        for _ in 0..rounds / 8 {
            black_box(vs_guard::unframe(black_box(&framed)).is_ok());
        }
        rounds / 8
    });
    report.push(timed("guard.unframe_ns", "ns", unframe));

    // --- fleetd: one Chip frame through encode, frame, read, decode -----
    let s = &batch[0];
    let mut event = String::new();
    TelemetryEvent::JobFinished {
        chip: s.chip,
        sim_time: config.run_duration,
        correctable: s.correctable,
        emergencies: s.emergencies,
        crashes: s.crashes,
    }
    .write_json(&mut event);
    let chip_frame = Response::Chip {
        job: 1,
        chip: s.chip.0,
        completed: 1,
        total: batch.len() as u64,
        event,
    };
    let mut buf = Vec::new();
    let roundtrip = per_op(ns, || {
        for _ in 0..rounds / 16 {
            buf.clear();
            write_frame(&mut buf, &encode_response(&chip_frame)).expect("writing to memory");
            let text = read_frame(&mut buf.as_slice())
                .expect("a frame just written")
                .expect("one frame");
            black_box(decode_response(&text).expect("a frame just encoded"));
        }
        rounds / 16
    });
    report.push(timed("fleetd.frame_roundtrip_ns", "ns", roundtrip));
}

/// The last line of a text file (a journal's newest record).
fn last_line(path: &Path) -> String {
    let file = std::fs::File::open(path).expect("the journal just written");
    BufReader::new(file)
        .lines()
        .map_while(Result::ok)
        .last()
        .expect("a journal with records")
}

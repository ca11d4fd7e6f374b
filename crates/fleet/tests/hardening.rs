//! Property-style robustness of the on-disk formats: loading a damaged
//! checkpoint or journal must **never panic**, whatever the damage.
//!
//! Damage is generated with the repo's own deterministic [`CounterRng`]
//! (no external fuzzing crate): random truncations (the SIGKILL torn
//! write), random byte flips (bit rot — this is exactly what the
//! per-record CRCs exist to catch), spliced garbage lines, and whole-file
//! garbage including invalid UTF-8. Every case must come back as a value:
//! `Ok` with the surviving records and typed warnings, or a typed `Err` —
//! a panic fails the test by unwinding.

use std::fs;
use std::path::PathBuf;
use vs_fleet::{
    load_checkpoint, load_checkpoint_report, save_checkpoint, ChipJournal, ChipSummary,
    CoreMarginSummary,
};
use vs_guard::frame;
use vs_types::rng::CounterRng;
use vs_types::ChipId;

const FINGERPRINT: u64 = 0x5EED_F00D_CAFE_2014;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vs-fleet-hardening-tests");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn summary(id: u64) -> ChipSummary {
    ChipSummary {
        chip: ChipId(id),
        die_seed: 0xD1E5 ^ id.wrapping_mul(0x9E37_79B9),
        margins: vec![CoreMarginSummary {
            core: 0,
            first_error_mv: 700 + id as i32,
            min_safe_mv: 610 + id as i32,
        }],
        mean_vdd_mv: vec![741.5 + id as f64 * 0.25],
        vdd_reduction: vec![0.07 - id as f64 * 1e-4],
        energy_savings: 0.31 + id as f64 * 1e-3,
        correctable: 900 + id,
        emergencies: id % 3,
        crashes: 0,
        sw_overhead: 0.012,
        dues: 0,
        rollbacks: id % 2,
    }
}

/// Pristine checkpoint and journal bytes to mutate.
fn seed_bytes() -> (Vec<u8>, Vec<u8>) {
    let summaries: Vec<ChipSummary> = (0..8).map(summary).collect();
    let ckpt = scratch("seed.ckpt");
    save_checkpoint(&ckpt, FINGERPRINT, &summaries).unwrap();
    let jpath = scratch("seed.journal");
    let mut journal = ChipJournal::create(&jpath, FINGERPRINT).unwrap();
    for s in &summaries {
        journal.append(s).unwrap();
    }
    drop(journal);
    (fs::read(&ckpt).unwrap(), fs::read(&jpath).unwrap())
}

/// The property under test: loading any byte sequence returns a value
/// instead of panicking, and the checkpoint's lenient and strict loaders
/// agree on the surviving records.
fn must_not_panic(case: &str, ckpt_bytes: &[u8], journal_bytes: &[u8]) {
    // Tests run in parallel: the mutated files must be per-case.
    let tag: String = case
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '-' })
        .collect();
    let ckpt = scratch(&format!("{tag}.ckpt"));
    let jpath = scratch(&format!("{tag}.journal"));
    fs::write(&ckpt, ckpt_bytes).unwrap();
    fs::write(&jpath, journal_bytes).unwrap();
    if let Ok(report) = load_checkpoint_report(&ckpt, FINGERPRINT) {
        let lenient = load_checkpoint(&ckpt, FINGERPRINT)
            .unwrap_or_else(|e| panic!("{case}: report loaded but load() failed: {e}"));
        assert_eq!(report.summaries, lenient, "{case}: loaders disagree");
        for s in &report.summaries {
            // Whatever survived must be a record we actually wrote.
            assert_eq!(s, &summary(s.chip.0), "{case}: corrupted record surfaced");
        }
    }
    if let Ok(replay) = load_checkpoint_report(&jpath, FINGERPRINT) {
        for s in &replay.summaries {
            assert_eq!(s, &summary(s.chip.0), "{case}: corrupted record surfaced");
        }
    }
}

#[test]
fn random_truncations_never_panic() {
    let (ckpt, journal) = seed_bytes();
    let mut rng = CounterRng::from_key(0x7AC4_0001, &[]);
    for case in 0..48 {
        let c_cut = (rng.next_u64() as usize) % (ckpt.len() + 1);
        let j_cut = (rng.next_u64() as usize) % (journal.len() + 1);
        must_not_panic(
            &format!("truncate case {case} ({c_cut}/{j_cut})"),
            &ckpt[..c_cut],
            &journal[..j_cut],
        );
    }
}

#[test]
fn random_byte_flips_never_panic_and_never_surface_corrupt_records() {
    let (ckpt, journal) = seed_bytes();
    let mut rng = CounterRng::from_key(0x7AC4_0002, &[]);
    for case in 0..48 {
        let mut c = ckpt.clone();
        let mut j = journal.clone();
        // Flip 1..=4 bytes in each file; a flip may hit the header (hard
        // error), a record body (CRC catches it), or the CRC itself.
        for _ in 0..=(rng.next_u64() % 4) {
            let pos = (rng.next_u64() as usize) % c.len();
            c[pos] ^= (rng.next_u64() % 255 + 1) as u8;
            let pos = (rng.next_u64() as usize) % j.len();
            j[pos] ^= (rng.next_u64() % 255 + 1) as u8;
        }
        must_not_panic(&format!("flip case {case}"), &c, &j);
    }
}

#[test]
fn spliced_garbage_lines_never_panic() {
    let (ckpt, journal) = seed_bytes();
    let mut rng = CounterRng::from_key(0x7AC4_0003, &[]);
    let mut garbage: Vec<String> = [
        "chip",
        "chip X seed=nope",
        "chip 3 seed=41d58a6ff5e25946",
        "deadbeef chip 1 seed=0",
        "chip 1 seed=0 margins=0:1:2 vdd= red= es=x ce=1 em=0 cr=0 sw=0 crc=zz",
        "\u{1F980}\u{1F980}\u{1F980}",
        "chip 18446744073709551615 seed=ffffffffffffffff crc=00000000",
    ]
    .map(String::from)
    .to_vec();
    // Whole frames (valid CRCs) around payloads that must not decode.
    for payload in [
        "",
        "chip",
        "chip 1 wat=huh",
        "chip 2 seed=00000000000000d1 margins= vdd= red=",
        "not-a-record-at-all",
    ] {
        garbage.push(frame(payload));
    }
    // A retired v1 record: unframed, with a trailing ` crc=` field, and
    // the same record framed.
    let v1 = "chip 4 seed=00000000000000d1 margins= vdd= red= es=0000000000000000 \
              ce=0 em=0 cr=0 sw=0000000000000000 crc=0badc0de";
    garbage.push(v1.to_string());
    garbage.push(frame(v1));
    for case in 0..24 {
        let mut c = String::from_utf8(ckpt.clone()).unwrap();
        let mut j = String::from_utf8(journal.clone()).unwrap();
        for _ in 0..=(rng.next_u64() % 3) {
            let line = &garbage[(rng.next_u64() as usize) % garbage.len()];
            // Splice at a random line boundary below the header.
            let at = c.len() - (rng.next_u64() as usize % (c.len() / 2));
            let at = c[..at].rfind('\n').map_or(c.len(), |p| p + 1);
            c.insert_str(at, &format!("{line}\n"));
            let at = j.len() - (rng.next_u64() as usize % (j.len() / 2));
            let at = j[..at].rfind('\n').map_or(j.len(), |p| p + 1);
            j.insert_str(at, &format!("{line}\n"));
        }
        must_not_panic(&format!("splice case {case}"), c.as_bytes(), j.as_bytes());
    }
}

#[test]
fn whole_file_garbage_never_panics() {
    let mut rng = CounterRng::from_key(0x7AC4_0004, &[]);
    for case in 0..24 {
        let len = (rng.next_u64() % 512) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Raw random bytes (usually invalid UTF-8) in both roles.
        must_not_panic(&format!("garbage case {case}"), &bytes, &bytes);
    }
}

#[test]
fn damaged_records_are_reported_and_the_rest_survive() {
    let (ckpt, _) = seed_bytes();
    let mut text = String::from_utf8(ckpt).unwrap();
    // Corrupt one digit inside the *last* record's payload.
    let pos = text.rfind("seed=").unwrap() + 6;
    unsafe {
        let b = text.as_bytes_mut();
        b[pos] = if b[pos] == b'0' { b'1' } else { b'0' };
    }
    let path = scratch("one-bad-record.ckpt");
    fs::write(&path, &text).unwrap();
    let report = load_checkpoint_report(&path, FINGERPRINT).unwrap();
    assert_eq!(report.summaries.len(), 7, "only the damaged record is lost");
    assert_eq!(report.warnings.len(), 1);
}

//! `perf compare PARENT.json CHANGE.json`: per (metric, workload) verdicts
//! between two sets of runs written by `perf --out`.
//!
//! Runs pair up in file order (run the two sides alternately). A change
//! is `better` on a pair of metric and workload when it wins at least
//! nine tenths of the pairs (ties count for neither side) and its median
//! beats the parent's by more than the parent's own interquartile range.
//! It is `worse` when the parent wins by the same rule and the median
//! also worsens by more than the metric's bound in `BENCHMARK.json`; a
//! metric without a bound (one the table prints but the benchmark does
//! not gate) is never `worse`. Everything else, and any row with fewer
//! than five pairs, is `unresolved`.

use crate::json::Json;
use crate::report::Better;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs of runs a verdict rests on. A tail that only some runs
/// report (one with enough samples beyond it) can leave a row with one
/// or two pairs, which decide nothing.
const MIN_PAIRS: usize = 5;

/// The verdict on one (metric, workload) pair. `bound` is the share of
/// the parent's median by which the metric may worsen, if it is gated.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (Some(p), Some(c)) = (Summary::of(parent), Summary::of(change)) else {
        return Verdict::Unresolved;
    };
    let improves = |new: f64, old: f64| match better {
        Better::Lower => new < old,
        Better::Higher => new > old,
    };
    let wins = (0..pairs)
        .filter(|&i| improves(change[i], parent[i]))
        .count();
    let losses = (0..pairs)
        .filter(|&i| improves(parent[i], change[i]))
        .count();
    let needed = (pairs * 9).div_ceil(10);
    let gain = match better {
        Better::Lower => p.median - c.median,
        Better::Higher => c.median - p.median,
    };
    let iqr = p.q3 - p.q1;
    if wins >= needed && gain > iqr {
        Verdict::Better
    } else if bound.is_some_and(|b| losses >= needed && -gain > iqr && -gain > b * p.median.abs()) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

/// One metric of one run.
struct Sample {
    value: f64,
    unit: String,
    better: Better,
}

/// `(workload, metric)` → the samples of every run, in file order.
type Runs = BTreeMap<(String, String), Vec<Sample>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), i + 1))?;
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap_or(&[]);
        for (name, m) in metrics {
            let (Some(value), Some(unit)) = (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str),
            ) else {
                continue;
            };
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .unwrap_or(Better::Lower);
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(Sample {
                    value,
                    unit: unit.to_string(),
                    better,
                });
        }
    }
    Ok(runs)
}

/// Regression bounds of the end-to-end metrics in a `BENCHMARK.json`.
fn bounds(path: &Path) -> BTreeMap<String, f64> {
    let Some(doc) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
    else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?;
            Some((name.to_string(), m.get("bound")?.as_f64()?))
        })
        .collect()
}

/// The comparison table, one row per (metric, workload) the two files
/// share, and whether any row is `worse`.
pub fn run(parent: &Path, change: &Path, benchmark: &Path) -> Result<(String, bool), String> {
    let a = load(parent)?;
    let b = load(change)?;
    let bounds = bounds(benchmark);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<28} {:<6} {:>34} {:>34} {:>7} verdict",
        "workload",
        "metric",
        "unit",
        "parent median [q1, q3] n",
        "change median [q1, q3] n",
        "wins"
    );
    let mut any_worse = false;
    let mut keys: Vec<&(String, String)> = a.keys().filter(|k| b.contains_key(*k)).collect();
    keys.sort_by(|x, y| (&x.1, &x.0).cmp(&(&y.1, &y.0)));
    for key in keys {
        let (pa, pb) = (&a[key], &b[key]);
        let va: Vec<f64> = pa.iter().map(|s| s.value).collect();
        let vb: Vec<f64> = pb.iter().map(|s| s.value).collect();
        let better = pa[0].better;
        let bound = bounds.get(&key.1).copied();
        let v = verdict(&va, &vb, better, bound);
        any_worse |= v == Verdict::Worse;
        let pairs = va.len().min(vb.len());
        let wins = (0..pairs)
            .filter(|&i| match better {
                Better::Lower => vb[i] < va[i],
                Better::Higher => vb[i] > va[i],
            })
            .count();
        let cell = |xs: &[f64]| {
            Summary::of(xs).map_or(String::new(), |s| {
                format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n)
            })
        };
        let _ = writeln!(
            out,
            "{:<14} {:<28} {:<6} {:>34} {:>34} {:>7} {}",
            key.0,
            key.1,
            pa[0].unit,
            cell(&va),
            cell(&vb),
            format!("{wins}/{pairs}"),
            v.label()
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.8, 99.2, 100.1, 99.9,
    ];

    fn shifted(by: f64) -> Vec<f64> {
        PARENT.iter().map(|v| v + by).collect()
    }

    #[test]
    fn a_clear_win_is_better_in_either_direction() {
        assert_eq!(
            verdict(&PARENT, &shifted(-5.0), Better::Lower, Some(0.05)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&PARENT, &shifted(5.0), Better::Higher, Some(0.05)),
            Verdict::Better
        );
    }

    #[test]
    fn a_clear_loss_is_worse_only_beyond_the_bound() {
        assert_eq!(
            verdict(&PARENT, &shifted(8.0), Better::Lower, Some(0.05)),
            Verdict::Worse
        );
        // Resolved by the spread, but within the 10 % bound.
        assert_eq!(
            verdict(&PARENT, &shifted(8.0), Better::Lower, Some(0.10)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&PARENT, &shifted(-8.0), Better::Higher, Some(0.05)),
            Verdict::Worse
        );
        // A metric the benchmark does not gate is never worse.
        assert_eq!(
            verdict(&PARENT, &shifted(8.0), Better::Lower, None),
            Verdict::Unresolved
        );
    }

    #[test]
    fn noise_ties_and_too_few_wins_are_unresolved() {
        assert_eq!(
            verdict(&PARENT, &PARENT, Better::Lower, Some(0.0)),
            Verdict::Unresolved
        );
        // A shift smaller than the parent's IQR.
        assert_eq!(
            verdict(&PARENT, &shifted(-0.3), Better::Lower, Some(0.0)),
            Verdict::Unresolved
        );
        // A big median gain that wins only 8 of 10 pairs.
        let mut mostly = shifted(-5.0);
        mostly[0] = 200.0;
        mostly[1] = 200.0;
        assert_eq!(
            verdict(&PARENT, &mostly, Better::Lower, Some(0.0)),
            Verdict::Unresolved
        );
        // Too few pairs to decide, however large the shift.
        assert_eq!(
            verdict(&PARENT[..4], &shifted(50.0)[..4], Better::Lower, Some(0.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[], &PARENT, Better::Lower, Some(0.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compares_results_files_row_by_row() {
        let dir = std::env::temp_dir().join(format!("vs-perf-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |v: f64| {
            format!(
                "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"correct\": true, \
                 \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"x_ms\": {{\"value\": {v}, \
                 \"unit\": \"ms\", \"better\": \"lower\", \"samples\": 1}}}}}}\n"
            )
        };
        let write = |name: &str, values: Vec<f64>| {
            let path = dir.join(name);
            std::fs::write(&path, values.into_iter().map(line).collect::<String>()).unwrap();
            path
        };
        let a = write("a.json", PARENT.to_vec());
        let b = write("b.json", shifted(10.0));
        let bench = dir.join("BENCHMARK.json");
        std::fs::write(
            &bench,
            r#"{"end_to_end": [{"name": "x_ms", "unit": "ms", "better": "lower", "bound": 0.05}]}"#,
        )
        .unwrap();
        let (table, worse) = run(&a, &b, &bench).unwrap();
        assert!(worse, "{table}");
        assert!(table.lines().nth(1).unwrap().ends_with("worse"), "{table}");
        let (table, worse) = run(&a, &a, &bench).unwrap();
        assert!(!worse, "{table}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Metric records and the three ways a run reports them: a table for
//! people, one results line for `perf compare`, and the final JSON line
//! the benchmark contract reads.

use crate::json::quote;
use crate::stats::{self, Summary};
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Measurements behind `value` (1 for a single ratio or count).
    pub samples: usize,
    /// Quartiles of those measurements, when `value` is their median.
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    pub fn single(name: &str, unit: &'static str, better: Better, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            better,
            value,
            samples: 1,
            quartiles: None,
        }
    }

    pub fn median(name: &str, unit: &'static str, better: Better, s: Summary) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            better,
            value: s.median,
            samples: s.n,
            quartiles: Some((s.q1, s.q3)),
        }
    }
}

/// End-to-end metrics every workload reports with tracing off, in the
/// order of `BENCHMARK.json` (a test keeps the two in step).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("chips_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("chip_wall_p50_ms", "ms"),
    ("chip_wall_p75_ms", "ms"),
    ("job_first_result_p50_ms", "ms"),
    ("job_first_result_p75_ms", "ms"),
    ("job_terminal_p50_ms", "ms"),
    ("job_terminal_p75_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The tail percentile of every latency in [`END_TO_END`]. Every workload
/// reports the same names, and on a shared host p90 of `sweep-hw` (about
/// 100 chips a run, each long enough to catch the host's stalls) moved by
/// up to a quarter between runs of the same code, twice as much as its
/// median. p75 moves about as much as the median; the table still prints
/// p90 and each workload's highest percentile with ten samples beyond it.
pub const TAIL: f64 = 0.75;

/// Per-layer metrics every workload reports with tracing on, in the
/// order of `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sram.lut_sample_ns", "ns"),
    ("sram.exact_sample_ns", "ns"),
    ("sram.negligible_ns", "ns"),
    ("sram.lut_miss_per_1k", "count"),
    ("sram.bank_build_ms", "ms"),
    ("ecc.encode_ns", "ns"),
    ("ecc.decode_clean_ns", "ns"),
    ("ecc.decode_ce_ns", "ns"),
    ("ecc.decode_ue_ns", "ns"),
    ("cache.read_hit_ns", "ns"),
    ("cache.fill_ns", "ns"),
    ("pdn.supply_tick_ns", "ns"),
    ("pdn.effective_voltage_ns", "ns"),
    ("platform.chip_tick_us", "us"),
    ("platform.monitor_probe_ns", "ns"),
    ("platform.characterize_ms", "ms"),
    ("spec.step_us", "us"),
    ("spec.run_ms", "ms"),
    ("spec.calibrate_ms", "ms"),
    ("spec.baseline_ms", "ms"),
    ("fleet.chip_ms", "ms"),
    ("fleet.unattributed_pct", "%"),
    ("fleet.checkpoint_save_ms", "ms"),
    ("guard.journal_append_us", "us"),
    ("guard.frame_ns", "ns"),
    ("guard.unframe_ns", "ns"),
    ("fleetd.frame_roundtrip_ns", "ns"),
];

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Units of work attempted (chips for sweeps, jobs for daemons).
    pub attempted: u64,
    /// Attempts that failed or returned a wrong result.
    pub failed: u64,
    /// Correctness problems; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Informational lines printed above the table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn problem(&mut self, line: String) {
        self.problems.push(line);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Pushes `<prefix>_p50_ms`, `<prefix>_p75_ms` ([`TAIL`]) and
    /// `<prefix>_p90_ms`, plus the tail the percentile rule allows when
    /// that is higher (the highest percentile with at least ten samples
    /// beyond it).
    pub fn push_latencies(&mut self, prefix: &str, samples_ms: &[f64]) {
        let n = samples_ms.len();
        let mut quantiles = vec![0.5, TAIL, 0.9];
        match stats::tail_quantile(n) {
            Some(rule) if rule > 0.9 => quantiles.push(rule),
            _ => {}
        }
        for q in quantiles {
            let name = format!("{prefix}_{}_ms", stats::percentile_label(q));
            let value = stats::quantile(samples_ms, q).unwrap_or(f64::NAN);
            self.push(Metric {
                samples: n,
                ..Metric::single(&name, "ms", Better::Lower, value)
            });
            let beyond = stats::samples_beyond(n, q);
            if q > 0.5 && beyond < 10 {
                self.note(format!(
                    "{name} has {beyond} samples beyond it (fewer than 10)"
                ));
            }
        }
    }

    /// The human-readable table: every metric, declared or not, with its
    /// unit, sample count and quartiles.
    pub fn table(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>14} {:<6} {:>6} {:>14} {:>14}",
            "metric", "value", "unit", "n", "q1", "q3"
        );
        for m in &self.metrics {
            let (q1, q3) = m
                .quartiles
                .map_or((String::new(), String::new()), |(a, b)| {
                    (format!("{a:.6}"), format!("{b:.6}"))
                });
            let _ = writeln!(
                out,
                "  {:<28} {:>14.6} {:<6} {:>6} {:>14} {:>14}",
                m.name, m.value, m.unit, m.samples, q1, q3
            );
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {} ({:.4} failed_frac)",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for p in &self.problems {
            let _ = writeln!(out, "  PROBLEM: {p}");
        }
        out
    }

    /// Records a problem for every declared `(name, unit)` the run did not
    /// measure, measured in another unit, or could not measure as a
    /// finite number.
    pub fn check_declared(&mut self, declared: &[(&str, &str)]) {
        for &(name, unit) in declared {
            let found = self.get(name).map(|m| (m.unit, m.value));
            match found {
                None => self.problem(format!("declared metric {name} was not measured")),
                Some((u, _)) if u != unit => {
                    self.problem(format!("metric {name} measured in {u}, declared in {unit}"))
                }
                Some((_, v)) if !v.is_finite() => {
                    self.problem(format!("metric {name} is not a finite number"))
                }
                Some(_) => {}
            }
        }
    }

    /// The final line of a run: exactly the declared metrics of the mode.
    pub fn contract_json(&self, declared: &[(&str, &str)]) -> String {
        let metrics: Vec<&Metric> = declared.iter().filter_map(|(n, _)| self.get(n)).collect();
        self.json_line(&[], &metrics, false)
    }

    /// One line of a results file: every metric, with direction, sample
    /// count and quartiles, tagged with what was run.
    pub fn results_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let tags = [
            ("workload", quote(workload)),
            ("seed", seed.to_string()),
            ("trace", u8::from(trace).to_string()),
        ];
        let metrics: Vec<&Metric> = self.metrics.iter().collect();
        self.json_line(&tags, &metrics, true)
    }

    fn json_line(&self, tags: &[(&str, String)], metrics: &[&Metric], detail: bool) -> String {
        let mut out = String::from("{");
        for (k, v) in tags {
            let _ = write!(out, "{}: {v}, ", quote(k));
        }
        let _ = write!(
            out,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}",
                quote(&m.name),
                json_number(m.value),
                quote(m.unit)
            );
            if detail {
                let _ = write!(
                    out,
                    ", \"better\": {}, \"samples\": {}",
                    quote(m.better.label()),
                    m.samples
                );
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// A finite number in JSON syntax with every digit Rust keeps
/// (shortest round-trip form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn contract_line_carries_only_declared_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push(Metric::single("setup_s", "s", Better::Lower, 0.25));
        r.push(Metric::single("extra", "count", Better::Lower, 1.0));
        let declared = [("setup_s", "s")];
        r.check_declared(&declared);
        assert!(r.correct());
        let doc = Json::parse(&r.contract_json(&declared)).unwrap();
        let keys: Vec<&str> = doc
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["setup_s"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(3.0));

        r.check_declared(&[("setup_s", "ms"), ("missing", "s")]);
        assert_eq!(r.problems.len(), 2);
        let line = r.results_json("sweep-hw", 9, true);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("sweep-hw"));
        let extra = doc.get("metrics").unwrap().get("extra").unwrap();
        assert_eq!(extra.get("better").unwrap().as_str(), Some("lower"));
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, declared, "{key} in BENCHMARK.json");
        }
    }
}

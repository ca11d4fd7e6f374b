//! A minimal, dependency-free micro-benchmark harness.
//!
//! The workspace builds offline with no external crates, so the classic
//! Criterion harness is out; this module supplies the small slice of it
//! the `benches/` targets need: named benchmarks, warm-up, batched timing,
//! best-of-N reporting, and a CLI filter. Every bench target is a plain
//! `fn main()` (`harness = false`) that drives a [`Runner`].
//!
//! Output format (one line per benchmark):
//!
//! ```text
//! ecc_encode/hsiao_72_64            12.3 ns/iter   (81.2 M iters/s)
//! ```

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock time per measurement batch.
const BATCH_BUDGET: Duration = Duration::from_millis(200);
/// Batches per benchmark; the fastest is reported (least interference).
const BATCHES: usize = 3;

/// One benchmark's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Full benchmark name (`group/name`).
    pub name: String,
    /// Best observed nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per batch actually run.
    pub iters: u64,
}

impl Measurement {
    /// Iterations per second implied by the best batch.
    pub fn iters_per_sec(&self) -> f64 {
        if self.ns_per_iter > 0.0 {
            1e9 / self.ns_per_iter
        } else {
            f64::INFINITY
        }
    }
}

/// Collects and prints benchmark measurements.
#[derive(Debug, Default)]
pub struct Runner {
    filter: Option<String>,
    quick: bool,
    results: Vec<Measurement>,
}

impl Runner {
    /// A runner configured from `std::env::args`: any non-flag argument is
    /// a substring filter; `--quick` shrinks batch budgets (CI smoke).
    pub fn from_args() -> Runner {
        let mut runner = Runner::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => runner.quick = true,
                // Cargo's bench runner passes --bench through.
                s if s.starts_with("--") => {}
                s => runner.filter = Some(s.to_owned()),
            }
        }
        runner
    }

    fn budget(&self) -> Duration {
        if self.quick {
            Duration::from_millis(20)
        } else {
            BATCH_BUDGET
        }
    }

    /// Runs one benchmark: warm up, pick an iteration count that fills the
    /// batch budget, time `BATCHES` batches, report the best.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        // Warm-up doubles as the iteration-count estimate.
        let warmup = Instant::now();
        black_box(f());
        let mut one = warmup.elapsed();
        if one.is_zero() {
            one = Duration::from_nanos(1);
        }
        let iters = (self.budget().as_nanos() / one.as_nanos()).clamp(1, 100_000_000) as u64;

        let mut best = f64::INFINITY;
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let ns = start.elapsed().as_nanos() as f64 / iters as f64;
            best = best.min(ns);
        }
        let m = Measurement {
            name: name.to_owned(),
            ns_per_iter: best,
            iters,
        };
        println!("{}", render(&m));
        self.results.push(m);
    }

    /// All measurements taken so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

fn render(m: &Measurement) -> String {
    let (value, unit) = vs_telemetry::scale_ns(m.ns_per_iter);
    let rate = m.iters_per_sec();
    let rate = if rate >= 1e6 {
        format!("{:.1} M iters/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1} K iters/s", rate / 1e3)
    } else {
        format!("{rate:.1} iters/s")
    };
    format!("{:<44} {:>9.2} {}/iter   ({})", m.name, value, unit, rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut runner = Runner {
            quick: true,
            ..Runner::default()
        };
        let mut count = 0u64;
        runner.bench("test/increment", || {
            count += 1;
            count
        });
        assert_eq!(runner.results().len(), 1);
        let m = &runner.results()[0];
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters >= 1);
        assert!(count >= m.iters, "the closure must actually run");
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut runner = Runner {
            filter: Some("wanted".to_owned()),
            quick: true,
            ..Runner::default()
        };
        runner.bench("other/thing", || 1);
        assert!(runner.results().is_empty());
        runner.bench("group/wanted_case", || 1);
        assert_eq!(runner.results().len(), 1);
    }

    #[test]
    fn render_picks_sensible_units() {
        let m = Measurement {
            name: "x".into(),
            ns_per_iter: 2.5e6,
            iters: 10,
        };
        assert!(render(&m).contains("ms/iter"));
    }
}

//! Order statistics for every number the benchmark reports: median,
//! quartiles, and the tail-percentile rule.
//!
//! Quantiles use the workspace's single definition
//! ([`vs_types::stats::percentile_sorted`], linear interpolation between
//! order statistics), so a percentile here means the same thing as in
//! fleet reports and run traces.

use vs_types::stats::percentile_sorted;

/// Median, quartiles and sample count of one set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `xs`; `None` when it is empty.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let sorted = sorted(xs);
        Some(Summary {
            median: percentile_sorted(&sorted, 0.5)?,
            q1: percentile_sorted(&sorted, 0.25)?,
            q3: percentile_sorted(&sorted, 0.75)?,
            n: sorted.len(),
        })
    }
}

/// A copy of `xs` in ascending order.
///
/// # Panics
///
/// Panics on NaN: every measured quantity is a finite time or count.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The `q` quantile of `xs`; `None` when it is empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    percentile_sorted(&sorted(xs), q)
}

/// Tail percentiles the report may name, in per-mille, highest first.
const TAILS_PER_MILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// The highest standard tail percentile (p99.9, p99, p95, p90, p75) that
/// has at least ten of `n` samples beyond it, as a quantile in `[0, 1]`.
/// `None` when even p75 has fewer than ten samples beyond it.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .into_iter()
        .find(|&q| samples_beyond(n, q as f64 / 1000.0) >= 10)
        .map(|q| q as f64 / 1000.0)
}

/// How many of `n` samples lie beyond the `q` quantile, counted exactly
/// in per-mille so that p90 of 100 samples has ten beyond it.
pub fn samples_beyond(n: usize, q: f64) -> u64 {
    let per_mille = (q * 1000.0).round() as u64;
    n as u64 * (1000 - per_mille.min(1000)) / 1000
}

/// Label of a quantile as a percentile (`0.99` → `"p99"`, `0.999` →
/// `"p99.9"`).
pub fn percentile_label(q: f64) -> String {
    let tenths = (q * 1000.0).round() as u64;
    if tenths.is_multiple_of(10) {
        format!("p{}", tenths / 10)
    } else {
        format!("p{}.{}", tenths / 10, tenths % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computed_quartiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(120, 0.9), 12);
        assert_eq!(samples_beyond(57, 0.9), 5);
    }

    #[test]
    fn percentile_labels() {
        assert_eq!(percentile_label(0.5), "p50");
        assert_eq!(percentile_label(0.95), "p95");
        assert_eq!(percentile_label(0.999), "p99.9");
    }
}

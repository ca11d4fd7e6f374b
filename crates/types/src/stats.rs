//! Statistics helpers used by the physical models.
//!
//! The SRAM failure model needs two ingredients:
//!
//! * the inverse standard normal CDF ([`normal_quantile`]) for turning
//!   critical-voltage distributions into failure probabilities and for
//!   order statistics;
//! * a logistic response ([`logistic`]) for the per-access flip probability
//!   around a cell's critical voltage (this produces the S-curves of the
//!   paper's Figure 13).
//!
//! The forward CDF is kept for tests only, as the reference the quantile
//! is checked against.

/// The logistic sigmoid `1 / (1 + e^{-x})`.
///
/// ```
/// use vs_types::stats::logistic;
/// assert!((logistic(0.0) - 0.5).abs() < 1e-12);
/// assert!(logistic(10.0) > 0.9999);
/// assert!(logistic(-10.0) < 0.0001);
/// ```
#[inline]
pub fn logistic(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26), accurate to
/// about `1.5e-7` absolute error, which is far below the resolution of any
/// experiment in this workspace.
#[inline]
#[cfg(test)]
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
#[inline]
#[cfg(test)]
pub(crate) fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse of the standard normal CDF (the probit function), computed with
/// the Acklam rational approximation (relative error below `1.2e-9` over the
/// open unit interval).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile argument must be in (0,1), got {p}"
    );

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a slice by linear interpolation between
/// order statistics; `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over an **already sorted** slice, skipping the copy and
/// sort. This is the single quantile definition shared by every consumer
/// in the workspace (run traces, fleet distributions), so their reported
/// percentiles are comparable.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    if sorted.is_empty() {
        return None;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Mean of a slice; returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population standard deviation of a slice; `None` for an empty slice.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some((xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logistic_symmetry() {
        for x in [-3.0, -1.0, 0.0, 0.5, 2.0] {
            assert!((logistic(x) + logistic(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn logistic_monotone() {
        let mut prev = 0.0;
        let mut x = -10.0;
        while x < 10.0 {
            let y = logistic(x);
            assert!(y >= prev);
            prev = y;
            x += 0.1;
        }
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from tables.
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(2.0) - 0.995_322_26).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            let back = normal_cdf(x);
            assert!((back - p).abs() < 2e-4, "p={p}, roundtrip={back}");
        }
    }

    #[test]
    fn quantile_known_points() {
        assert!(normal_quantile(0.5).abs() < 1e-8);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "quantile argument")]
    fn quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty series: no quantile at any q.
        assert_eq!(percentile(&[], 0.0), None);
        assert_eq!(percentile(&[], 1.0), None);
        assert_eq!(percentile_sorted(&[], 0.5), None);
        // A single sample is every quantile.
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(percentile(&[7.0], q), Some(7.0));
            assert_eq!(percentile_sorted(&[7.0], q), Some(7.0));
        }
        // q = 0 and q = 1 are exactly min and max, no interpolation fuzz.
        let xs = [3.0, -1.0, 10.0];
        assert_eq!(percentile(&xs, 0.0), Some(-1.0));
        assert_eq!(percentile(&xs, 1.0), Some(10.0));
    }

    #[test]
    fn percentile_sorted_matches_unsorted() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        let sorted = [1.0, 2.0, 3.0, 4.0];
        for q in [0.0, 0.1, 0.5, 0.75, 1.0] {
            assert_eq!(percentile(&xs, q), percentile_sorted(&sorted, q));
        }
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn percentile_rejects_bad_q() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn percentile_sorted_rejects_bad_q() {
        percentile_sorted(&[1.0], -0.1);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        let s = std_dev(&[2.0, 4.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }
}

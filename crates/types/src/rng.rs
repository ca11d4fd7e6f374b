//! Deterministic counter-based random number generation.
//!
//! Every stochastic quantity in the simulator — per-cell critical voltages,
//! per-access failure draws, workload phase jitter — is derived from a
//! [`CounterRng`] seeded by a *structured key* (chip seed plus identifiers
//! like cache, set, way, word, bit). This has two properties the paper's
//! reproduction depends on:
//!
//! 1. **Determinism.** The weak-line distribution of a chip is a pure
//!    function of its seed, so "the same cache lines consistently report
//!    errors" (§II-D) holds exactly, including across process restarts.
//! 2. **Random access.** Cell parameters can be computed on demand for any
//!    coordinate without materializing multi-megabyte state for the 32 MB L3.
//!
//! The mixing function is `splitmix64`, which passes standard avalanche
//! criteria and is more than adequate for simulation (this is not a
//! cryptographic generator).

use std::f64::consts::TAU;

/// Mixes a 64-bit value with the `splitmix64` finalizer.
///
/// ```
/// use vs_types::rng::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// assert_eq!(splitmix64(42), splitmix64(42));
/// ```
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a structured key (a seed plus a slice of identifier words) into a
/// single 64-bit state.
///
/// The parts are folded in one [`key_extend`] at a time, so a caller
/// that derives many keys sharing a prefix can hash the prefix once and
/// extend it per key: `key_extend(hash_key(s, &[a, b]), c)` equals
/// `hash_key(s, &[a, b, c])` bit for bit.
#[inline]
pub fn hash_key(seed: u64, parts: &[u64]) -> u64 {
    let mut state = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    for &p in parts {
        state = key_extend(state, p);
    }
    state
}

/// Appends one identifier word to a key state produced by [`hash_key`]
/// (or by an earlier `key_extend`): one `splitmix64` round.
#[inline]
pub fn key_extend(state: u64, part: u64) -> u64 {
    splitmix64(state ^ part.wrapping_mul(0xE703_7ED1_A0B4_28DB))
}

/// A deterministic counter-based random number generator.
///
/// A `CounterRng` is constructed from a structured key and then produces an
/// arbitrary-length stream by hashing an incrementing counter. Two generators
/// built from the same key produce identical streams; generators built from
/// different keys produce statistically independent streams.
///
/// # Examples
///
/// ```
/// use vs_types::rng::CounterRng;
///
/// let mut a = CounterRng::from_key(7, &[1, 2]);
/// let mut b = CounterRng::from_key(7, &[1, 2]);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut c = CounterRng::from_key(7, &[1, 3]);
/// assert_ne!(a.next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRng {
    state: u64,
    counter: u64,
}

impl CounterRng {
    /// Creates a generator from a raw 64-bit state.
    pub fn new(state: u64) -> CounterRng {
        CounterRng { state, counter: 0 }
    }

    /// Creates a generator from a structured key: a global seed plus
    /// identifier parts (core id, cache id, set, way, ...).
    pub fn from_key(seed: u64, parts: &[u64]) -> CounterRng {
        CounterRng::new(hash_key(seed, parts))
    }

    /// Produces the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state ^ splitmix64(self.counter));
        self.counter = self.counter.wrapping_add(1);
        out
    }

    /// Produces a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a dyadic uniform in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Produces a uniform integer in `[0, bound)` using rejection-free
    /// multiply-shift (Lemire); bias is negligible for simulation bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Produces a standard normal deviate via Box–Muller.
    #[inline]
    pub fn next_gaussian(&mut self) -> f64 {
        // Guard u1 away from zero so ln() is finite.
        let u1 = self.next_f64().max(1.0e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
    }

    /// Produces a normal deviate with the given mean and standard deviation.
    #[inline]
    pub(crate) fn next_gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.next_gaussian()
    }

    /// Samples a binomial count of successes out of `n` trials each with
    /// probability `p`.
    ///
    /// Exact Bernoulli summation is used for small `n·min(p,1-p)`; a
    /// normal approximation (rounded and clamped) is used for large counts,
    /// which is accurate to well under the resolution of any experiment in
    /// this workspace.
    ///
    /// The summation counts, draw for draw, the trials whose
    /// [`CounterRng::next_f64`] falls below `p`, without converting a
    /// single draw to a float: `next_f64` is `x · 2^-53` for the top 53
    /// bits `x` of a draw, both factors exact, so `x · 2^-53 < p` holds
    /// exactly when the integer `x` is below `⌈p · 2^53⌉` (the product is
    /// exact too, being a power-of-two scaling). The counter advances by
    /// `n` either way, so the stream after the call is the one `n`
    /// [`CounterRng::bernoulli`] calls leave. A NaN `p` counts nothing
    /// (its threshold casts to 0), as `next_f64() < NaN` never holds. On
    /// x86-64 hosts with AVX-512 the count runs in a vectorised copy of
    /// the same loop (see `count_below`), picked at run time.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if p <= 0.0 || n == 0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let mean = n as f64 * p;
        let var = mean * (1.0 - p);
        // Normal approximation is sound when both np and n(1-p) are large.
        if mean > 64.0 && (n as f64 - mean) > 64.0 {
            let draw = self.next_gaussian_with(mean, var.sqrt()).round();
            return draw.clamp(0.0, n as f64) as u64;
        }
        // ⌈p·2^53⌉ by truncation and one compare: `f64::ceil` is a libm
        // call on baseline x86-64, as slow as a few trials. `p·2^53 <
        // 2^53` fits an `i64`, whose conversions are single instructions.
        let scaled = p * (1u64 << 53) as f64;
        let floor = scaled as i64;
        let threshold = (floor + i64::from((floor as f64) < scaled)) as u64;
        let successes = count_below_dispatch(self.state, self.counter, n, threshold);
        self.counter = self.counter.wrapping_add(n);
        successes
    }
}

/// How many of the `n` draws at counters `counter, counter + 1, …` of
/// the stream `state` have top 53 bits below `threshold`: the counting
/// body of [`CounterRng::binomial`].
///
/// It is compiled twice, inlined into the portable caller and into the
/// AVX-512 copy, where the 64-bit multiplies of `splitmix64` vectorise
/// (`vpmullq`). Both copies run the same integer arithmetic, so they agree
/// bit for bit.
#[inline(always)]
fn count_below(state: u64, counter: u64, n: u64, threshold: u64) -> u64 {
    let mut count = 0;
    for i in 0..n {
        let draw = splitmix64(state ^ splitmix64(counter.wrapping_add(i)));
        count += u64::from((draw >> 11) < threshold);
    }
    count
}

/// [`count_below`] compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn count_below_avx512(state: u64, counter: u64, n: u64, threshold: u64) -> u64 {
    count_below(state, counter, n, threshold)
}

/// [`count_below`] through the fastest copy the host runs: the AVX-512
/// one when the CPU reports the features it was compiled for, else the
/// portable one.
#[inline]
fn count_below_dispatch(state: u64, counter: u64, n: u64, threshold: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512dq")
        && std::is_x86_feature_detected!("avx512vl")
    {
        // SAFETY: the CPU reports every feature `count_below_avx512` is
        // compiled with, which is its only requirement.
        return unsafe { count_below_avx512(state, counter, n, threshold) };
    }
    count_below(state, counter, n, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = CounterRng::from_key(99, &[4, 5, 6]);
        let mut b = CounterRng::from_key(99, &[4, 5, 6]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn key_sensitivity() {
        // Changing any part of the key changes the stream.
        let base: Vec<u64> = (0..16)
            .map(|i| CounterRng::from_key(1, &[2, 3, i]).next_u64())
            .collect();
        let mut sorted = base.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), base.len());
    }

    #[test]
    fn extending_a_prefix_equals_hashing_the_whole_key() {
        let mut draw = CounterRng::from_key(0x5EED, &[]);
        for _ in 0..1_000 {
            let seed = draw.next_u64();
            let len = draw.next_below(8) as usize;
            let parts: Vec<u64> = (0..len).map(|_| draw.next_u64()).collect();
            let split = draw.next_below(len as u64 + 1) as usize;
            let extended = parts[split..]
                .iter()
                .fold(hash_key(seed, &parts[..split]), |s, &p| key_extend(s, p));
            assert_eq!(extended, hash_key(seed, &parts), "split {split} of {len}");
        }
    }

    #[test]
    fn uniform_range() {
        let mut rng = CounterRng::from_key(7, &[]);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = CounterRng::from_key(11, &[]);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = CounterRng::from_key(3, &[]);
        for _ in 0..10_000 {
            assert!(rng.next_below(17) < 17);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        CounterRng::from_key(3, &[]).next_below(0);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = CounterRng::from_key(5, &[]);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance was {var}");
    }

    #[test]
    fn bernoulli_edges() {
        let mut rng = CounterRng::from_key(8, &[]);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-0.5));
        assert!(rng.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = CounterRng::from_key(12, &[]);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.05)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate was {rate}");
    }

    #[test]
    fn binomial_small_and_large_paths() {
        let mut rng = CounterRng::from_key(21, &[]);
        // Small path: exact summation.
        let trials = 2_000;
        let mut total = 0;
        for _ in 0..trials {
            total += rng.binomial(20, 0.3);
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 6.0).abs() < 0.3, "small-path mean was {mean}");

        // Large path: normal approximation.
        let mut total = 0u64;
        for _ in 0..trials {
            total += rng.binomial(100_000, 0.4);
        }
        let mean = total as f64 / trials as f64;
        assert!(
            (mean - 40_000.0).abs() < 100.0,
            "large-path mean was {mean}"
        );
    }

    #[test]
    fn binomial_edges() {
        let mut rng = CounterRng::from_key(22, &[]);
        assert_eq!(rng.binomial(0, 0.5), 0);
        assert_eq!(rng.binomial(100, 0.0), 0);
        assert_eq!(rng.binomial(100, 1.0), 100);
    }

    /// `binomial` as it was written before the counting kernel: one
    /// [`CounterRng::bernoulli`] draw per trial on the summation path.
    fn reference_binomial(rng: &mut CounterRng, n: u64, p: f64) -> u64 {
        if p <= 0.0 || n == 0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let mean = n as f64 * p;
        let var = mean * (1.0 - p);
        if mean > 64.0 && (n as f64 - mean) > 64.0 {
            let draw = rng.next_gaussian_with(mean, var.sqrt()).round();
            return draw.clamp(0.0, n as f64) as u64;
        }
        (0..n).filter(|_| rng.bernoulli(p)).count() as u64
    }

    #[test]
    fn counting_binomial_matches_the_bernoulli_sum() {
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let mut ps = vec![
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            1.0e-300,
            1.0e-12,
            0.003,
            0.3,
            0.5,
            0.25,
            0.75,
            12_345.0 / (1u64 << 53) as f64,
            1.0 - f64::EPSILON,
            below_one,
            f64::NAN,
            0.0,
            -0.25,
            1.0,
            1.5,
        ];
        let mut grid = CounterRng::from_key(0xB1, &[]);
        ps.extend((0..8).map(|_| grid.next_f64()));
        let mut ns: Vec<u64> = vec![0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 100];
        ns.extend([127, 128, 129, 130, 200, 246, 255, 256, 257, 1_000, 100_000]);
        let counters = [0, 17, u64::MAX - 40, u64::MAX];
        for (case, &counter) in counters.iter().enumerate() {
            let start = CounterRng {
                state: hash_key(case as u64, &[0xB10]),
                counter,
            };
            for &n in &ns {
                let mut ps = ps.clone();
                // Dyadic thresholds landing exactly on the next draw's top
                // 53 bits, and one step above them: `x < ⌈p·2^53⌉` must
                // treat `next_f64() == p` as a failure.
                let next = start.clone().next_f64();
                ps.extend([next, next + 1.0 / (1u64 << 53) as f64]);
                for &p in &ps {
                    let (mut got, mut want) = (start.clone(), start.clone());
                    assert_eq!(
                        got.binomial(n, p),
                        reference_binomial(&mut want, n, p),
                        "n {n}, p {p:e}, counter {counter}"
                    );
                    assert_eq!(got.next_u64(), want.next_u64(), "n {n}, p {p:e}");

                    // The portable body alone, against the per-trial loop
                    // (whichever copy the dispatcher picked above).
                    if p.is_nan() || (0.0 < p && p < 1.0) {
                        let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
                        let mut trials = start.clone();
                        let want = (0..n).filter(|_| trials.bernoulli(p)).count() as u64;
                        assert_eq!(
                            count_below(start.state, start.counter, n, threshold),
                            want,
                            "portable body: n {n}, p {p:e}, counter {counter}"
                        );
                    }
                }
            }
        }
    }
}

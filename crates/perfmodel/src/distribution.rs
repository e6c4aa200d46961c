//! Empirical runtime distributions.
//!
//! Everything the multi-walk analysis needs is derived from a sample of
//! sequential runs: the mean, the spread, and — crucially — the expected
//! minimum of `p` independent draws, which *is* the expected parallel run
//! time of `p` independent walks.

use as_rng::RandomSource;
use serde::{Deserialize, Serialize};

/// A sample of non-negative measurements (iterations-to-solution or seconds)
/// treated as an empirical distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalDistribution {
    /// The measurements, sorted ascending.
    sorted: Vec<f64>,
}

impl EmpiricalDistribution {
    /// Build a distribution from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains negative / non-finite values.
    #[must_use]
    pub fn new(samples: &[f64]) -> Self {
        assert!(
            !samples.is_empty(),
            "an empirical distribution needs samples"
        );
        assert!(
            samples.iter().all(|x| x.is_finite() && *x >= 0.0),
            "samples must be finite and non-negative"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Self { sorted }
    }

    /// Build a distribution from iteration counts.
    #[must_use]
    pub fn from_counts(counts: &[u64]) -> Self {
        let as_f64: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        Self::new(&as_f64)
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true for a constructed value, but
    /// kept for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest observation.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Sample standard deviation (0 for a single observation).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        let n = self.sorted.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .sorted
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n as f64 - 1.0);
        var.sqrt()
    }

    /// Coefficient of variation (`std_dev / mean`).
    ///
    /// The multi-walk literature's rule of thumb: a CoV near 1 (exponential
    /// behaviour) yields near-linear speedups; a CoV well below 1 (a large
    /// deterministic component) yields saturating speedups.
    #[must_use]
    pub fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Empirical quantile in `[0, 1]` (nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.  [`new`](Self::new) never produces one,
    /// but a deserialized distribution can be empty; without this guard the
    /// nearest-rank index computed `clamp(1, 0)`, tripping `clamp`'s
    /// `min <= max` precondition with a message that named neither the
    /// method nor the mistake.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        assert!(n > 0, "quantile of an empty distribution");
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Median (0.5 quantile).
    ///
    /// # Panics
    ///
    /// Panics on an empty (deserialized) sample, like
    /// [`quantile`](Self::quantile).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Empirical CDF at `x`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        let below = self.sorted.partition_point(|&v| v <= x);
        below as f64 / self.sorted.len() as f64
    }

    /// Exact expectation of the minimum of `p` independent draws (with
    /// replacement) from the empirical distribution.
    ///
    /// Using the sorted samples `x₁ ≤ … ≤ x_n`, the minimum of `p` draws
    /// equals `x_i` with probability `((n−i+1)/n)ᵖ − ((n−i)/n)ᵖ`, so the
    /// expectation is a single weighted sum — no Monte Carlo needed.  This is
    /// the quantity the paper's speedup analysis calls "the parallel run
    /// time with p processes".
    #[must_use]
    pub fn expected_min_of(&self, p: usize) -> f64 {
        assert!(p >= 1, "the minimum of zero draws is undefined");
        let n = self.sorted.len() as f64;
        let p_exp = p as f64;
        let mut expectation = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            // probability that the minimum is the i-th order statistic
            let upper = ((n - i as f64) / n).powf(p_exp);
            let lower = ((n - i as f64 - 1.0) / n).powf(p_exp);
            expectation += x * (upper - lower);
        }
        expectation
    }

    /// Monte-Carlo estimate of the expected minimum of `p` draws, using
    /// `rounds` resampling rounds.  Provided as an independent cross-check of
    /// [`expected_min_of`](Self::expected_min_of).
    #[must_use]
    pub fn expected_min_of_monte_carlo<R: RandomSource + ?Sized>(
        &self,
        p: usize,
        rounds: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(p >= 1 && rounds >= 1);
        let mut total = 0.0;
        for _ in 0..rounds {
            let mut min = f64::INFINITY;
            for _ in 0..p {
                let x = self.sorted[rng.index(self.sorted.len())];
                if x < min {
                    min = x;
                }
            }
            total += min;
        }
        total / rounds as f64
    }

    /// Fit a shifted exponential `shift + Exp(scale)` by matching the minimum
    /// (shift) and the mean (`scale = mean − shift`).  Returns
    /// `(shift, scale)`.
    #[must_use]
    pub fn fit_shifted_exponential(&self) -> (f64, f64) {
        let shift = self.min();
        let scale = (self.mean() - shift).max(0.0);
        (shift, scale)
    }

    /// Kolmogorov–Smirnov distance between the sample and a shifted
    /// exponential with the given parameters (a small distance means the
    /// "linear speedup" regime of the paper applies).
    #[must_use]
    pub fn ks_distance_shifted_exponential(&self, shift: f64, scale: f64) -> f64 {
        let n = self.sorted.len() as f64;
        let mut worst: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let model = if x <= shift || scale <= 0.0 {
                0.0
            } else {
                1.0 - (-(x - shift) / scale).exp()
            };
            let emp_hi = (i as f64 + 1.0) / n;
            let emp_lo = i as f64 / n;
            worst = worst
                .max((model - emp_hi).abs())
                .max((model - emp_lo).abs());
        }
        worst
    }
}

/// An incremental collector of runtime observations.
///
/// [`EmpiricalDistribution`] is immutable (its samples are sorted once at
/// construction), which is the right shape for analysis but not for *online*
/// recording: a multi-walk run observes one iterations-to-solution sample per
/// solved walk, across many solve requests.  `DistributionAccumulator` is the
/// mutable front half: push observations as they arrive, then snapshot an
/// [`EmpiricalDistribution`] whenever the order-statistics machinery is
/// needed.
///
/// ```
/// use cbls_perfmodel::DistributionAccumulator;
///
/// let mut acc = DistributionAccumulator::new();
/// acc.record_count(120);
/// acc.record_count(80);
/// assert_eq!(acc.len(), 2);
/// let dist = acc.distribution().expect("two samples recorded");
/// assert_eq!(dist.mean(), 100.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DistributionAccumulator {
    samples: Vec<f64>,
}

impl DistributionAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one measurement (seconds, iterations, ...).
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or non-finite.
    pub fn record(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "samples must be finite and non-negative"
        );
        self.samples.push(value);
    }

    /// Record one iteration count.
    pub fn record_count(&mut self, count: u64) {
        self.samples.push(count as f64);
    }

    /// Number of observations recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw observations, in recording order.
    #[must_use]
    pub fn observations(&self) -> &[f64] {
        &self.samples
    }

    /// Snapshot the observations into an [`EmpiricalDistribution`] (`None`
    /// while the accumulator is empty, since an empirical distribution needs
    /// at least one sample).
    #[must_use]
    pub fn distribution(&self) -> Option<EmpiricalDistribution> {
        if self.samples.is_empty() {
            None
        } else {
            Some(EmpiricalDistribution::new(&self.samples))
        }
    }

    /// Quote the runtime of a `walks`-walk batch from the recorded
    /// distribution: the expected minimum of `walks` independent draws (the
    /// paper's parallel run time), a pessimistic p95, and the CoV that says
    /// how much to trust the point estimate.  `None` while the accumulator
    /// is cold — the caller (admission control in `cbls-service`) then sends
    /// no quote rather than inventing a number.
    #[must_use]
    pub fn quote(&self, walks: usize) -> Option<RuntimeQuote> {
        let dist = self.distribution()?;
        Some(RuntimeQuote {
            samples: dist.len(),
            expected: dist.expected_min_of(walks.max(1)),
            p95: dist.quantile(0.95),
            cov: dist.coefficient_of_variation(),
        })
    }
}

/// A runtime quote derived from a recorded distribution: what a batch of
/// independent walks is expected to cost, quoted at admission time.
///
/// Produced by [`DistributionAccumulator::quote`] and sent to clients in
/// the `cbls-service` `Admitted` frame, so they can size budgets and
/// deadlines.  All fields are finite for any non-empty accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeQuote {
    /// How many observations back the quote.
    pub samples: usize,
    /// Expected runtime of the batch: the expected minimum of the batch's
    /// independent draws ([`EmpiricalDistribution::expected_min_of`]).
    pub expected: f64,
    /// Pessimistic bound: the 95th percentile of a single draw.
    pub p95: f64,
    /// Coefficient of variation of the underlying distribution (near 1 ⇒
    /// the linear-speedup regime; near 0 ⇒ deterministic, parallelism buys
    /// little).
    pub cov: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rng::{default_rng, exponential};

    #[test]
    fn accumulator_snapshots_match_direct_construction() {
        let mut acc = DistributionAccumulator::new();
        assert!(acc.is_empty());
        assert!(acc.distribution().is_none());
        for c in [4u64, 1, 3, 2] {
            acc.record_count(c);
        }
        acc.record(2.5);
        assert_eq!(acc.len(), 5);
        let expected = EmpiricalDistribution::new(&[4.0, 1.0, 3.0, 2.0, 2.5]);
        assert_eq!(acc.distribution().unwrap(), expected);
        // recording order is preserved in the raw view
        assert_eq!(acc.observations(), &[4.0, 1.0, 3.0, 2.0, 2.5]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn accumulator_rejects_negative_observations() {
        DistributionAccumulator::new().record(-1.0);
    }

    #[test]
    fn basic_statistics() {
        let d = EmpiricalDistribution::new(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(d.len(), 4);
        assert_eq!(d.mean(), 2.5);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 4.0);
        assert_eq!(d.median(), 2.0);
        assert!((d.std_dev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cdf_and_quantiles_are_consistent() {
        let d = EmpiricalDistribution::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(2.0), 0.5);
        assert_eq!(d.cdf(10.0), 1.0);
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 4.0);
        assert_eq!(d.quantile(0.25), 1.0);
        assert_eq!(d.quantile(0.75), 3.0);
    }

    #[test]
    fn expected_min_of_one_is_the_mean() {
        let d = EmpiricalDistribution::new(&[5.0, 1.0, 3.0]);
        assert!((d.expected_min_of(1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn expected_min_decreases_and_converges_to_the_minimum() {
        let d = EmpiricalDistribution::new(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        let mut last = f64::INFINITY;
        for p in 1..=64 {
            let m = d.expected_min_of(p);
            assert!(m <= last + 1e-12);
            assert!(m >= d.min() - 1e-12);
            last = m;
        }
        assert!((d.expected_min_of(4096) - d.min()).abs() < 1e-3);
    }

    #[test]
    fn analytic_and_monte_carlo_minima_agree() {
        let mut rng = default_rng(42);
        let samples: Vec<f64> = (0..400).map(|_| exponential(&mut rng, 10.0)).collect();
        let d = EmpiricalDistribution::new(&samples);
        for p in [2usize, 8, 32] {
            let exact = d.expected_min_of(p);
            let mc = d.expected_min_of_monte_carlo(p, 20_000, &mut rng);
            assert!(
                (exact - mc).abs() / exact < 0.1,
                "p = {p}: exact {exact}, mc {mc}"
            );
        }
    }

    #[test]
    fn exponential_samples_have_cov_near_one() {
        let mut rng = default_rng(7);
        let samples: Vec<f64> = (0..3000).map(|_| exponential(&mut rng, 5.0)).collect();
        let d = EmpiricalDistribution::new(&samples);
        assert!((d.coefficient_of_variation() - 1.0).abs() < 0.15);
        // and the expected min of p draws is close to mean / p (linear speedup)
        for p in [2usize, 4, 16] {
            let ratio = d.mean() / d.expected_min_of(p);
            let relative_gap = (ratio - p as f64).abs() / (p as f64);
            assert!(relative_gap < 0.25, "p = {p}, ratio = {ratio}");
        }
    }

    #[test]
    fn shifted_exponential_fit_and_ks() {
        let mut rng = default_rng(9);
        let samples: Vec<f64> = (0..2000)
            .map(|_| 100.0 + exponential(&mut rng, 20.0))
            .collect();
        let d = EmpiricalDistribution::new(&samples);
        let (shift, scale) = d.fit_shifted_exponential();
        assert!((100.0..101.0).contains(&shift), "shift = {shift}");
        assert!((scale - 20.0).abs() < 3.0, "scale = {scale}");
        assert!(d.ks_distance_shifted_exponential(shift, scale) < 0.1);
        // a deliberately wrong model has a much larger distance
        assert!(d.ks_distance_shifted_exponential(0.0, 1.0) > 0.5);
    }

    #[test]
    fn from_counts_matches_new() {
        let a = EmpiricalDistribution::from_counts(&[1, 2, 3]);
        let b = EmpiricalDistribution::new(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_sample_is_rejected() {
        let _ = EmpiricalDistribution::new(&[]);
    }

    // Regression: an empty accumulator used to panic inside `quantile` —
    // the nearest-rank index computed `clamp(1, 0)`, violating `clamp`'s
    // `min <= max` precondition.  A cold accumulator now quotes nothing.
    #[test]
    fn empty_accumulator_statistics_are_none() {
        let acc = DistributionAccumulator::new();
        assert!(acc.distribution().is_none());
        assert!(acc.quote(4).is_none());
    }

    // Regression: a single sample used to yield `std_dev = sqrt(0/0) = NaN`,
    // which flowed through the CoV into the speedup predictor without ever
    // tripping an assertion.  Pin the quote at n == 1.
    #[test]
    fn single_sample_accumulator_statistics_are_finite() {
        let mut acc = DistributionAccumulator::new();
        acc.record(7.0);
        let quote = acc.quote(8).expect("one sample quotes");
        assert_eq!(quote.samples, 1);
        assert_eq!(quote.expected, 7.0);
        assert_eq!(quote.p95, 7.0);
        assert_eq!(quote.cov, 0.0);
        assert!(
            quote.expected.is_finite() && quote.cov.is_finite(),
            "quotes must never carry NaN into admission control"
        );
    }

    #[test]
    fn quotes_shrink_with_walk_count() {
        let mut acc = DistributionAccumulator::new();
        for c in [100u64, 200, 400, 800] {
            acc.record_count(c);
        }
        let one = acc.quote(1).unwrap();
        let eight = acc.quote(8).unwrap();
        assert_eq!(one.expected, acc.distribution().unwrap().mean());
        assert!(eight.expected < one.expected);
        assert_eq!(one.p95, 800.0);
        // quote(0) is clamped to a single walk rather than asserting
        assert_eq!(acc.quote(0).unwrap().expected, one.expected);
    }

    // Regression: a deserialized distribution can be empty (bypassing
    // `new`'s assert); `quantile` must fail with its own documented message,
    // not `clamp`'s precondition panic.
    #[test]
    #[should_panic(expected = "quantile of an empty distribution")]
    fn deserialized_empty_distribution_panics_cleanly_on_quantile() {
        let dist: EmpiricalDistribution =
            serde_json::from_str(r#"{"sorted": []}"#).expect("deserializes");
        assert!(dist.is_empty());
        let _ = dist.quantile(0.5);
    }

    #[test]
    fn single_sample_distribution_has_zero_spread() {
        let d = EmpiricalDistribution::new(&[7.0]);
        assert_eq!(d.std_dev(), 0.0);
        assert_eq!(d.coefficient_of_variation(), 0.0);
        assert_eq!(d.median(), 7.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_samples_are_rejected() {
        let _ = EmpiricalDistribution::new(&[1.0, -2.0]);
    }
}

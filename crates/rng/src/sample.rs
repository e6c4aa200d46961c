//! Continuous distributions used by the performance model.
//!
//! The multi-walk speedup analysis needs to *generate* synthetic runtime
//! distributions (exponential, shifted exponential, log-normal-ish) to test
//! its order statistics against, so the handful of inverse transforms live
//! here next to the generators rather than in the model crate.

use crate::source::RandomSource;

/// Sample an exponential random variable with the given `mean` (`mean > 0`).
///
/// The exponential distribution is the reference case of the paper's
/// analysis: if the sequential run time of a Las Vegas search is exponential,
/// the expected speedup of `p` independent walks is exactly `p` (linear
/// speedup), which is what the Costas Array Problem exhibits.
pub fn exponential<R: RandomSource + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    // Inverse CDF; 1 - u in (0, 1] avoids ln(0).
    let u = rng.f64();
    -mean * (1.0 - u).ln()
}

/// Sample a shifted exponential: `shift + Exp(mean)`.
///
/// A deterministic offset (initialisation, a minimum number of iterations
/// every run must perform) is what bends the speedup curve away from linear —
/// the behaviour of the CSPLib benchmarks in Figures 1 and 2.
pub fn shifted_exponential<R: RandomSource + ?Sized>(rng: &mut R, shift: f64, mean: f64) -> f64 {
    assert!(shift >= 0.0, "shift must be non-negative");
    shift + exponential(rng, mean)
}

/// Sample a standard normal variate (Box–Muller, one value per call).
pub fn standard_normal<R: RandomSource + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller transform; u1 in (0, 1] to avoid ln(0).
    let u1 = 1.0 - rng.f64();
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256PlusPlus;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::from_u64_seed(0xFEED)
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut g = rng();
        let n = 40_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| exponential(&mut g, mean)).sum();
        let m = sum / n as f64;
        assert!((m - mean).abs() < 0.1, "sample mean = {m}");
    }

    #[test]
    fn exponential_is_non_negative() {
        let mut g = rng();
        for _ in 0..10_000 {
            assert!(exponential(&mut g, 0.5) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_non_positive_mean() {
        let mut g = rng();
        let _ = exponential(&mut g, 0.0);
    }

    #[test]
    fn shifted_exponential_respects_shift() {
        let mut g = rng();
        for _ in 0..5_000 {
            assert!(shifted_exponential(&mut g, 2.5, 1.0) >= 2.5);
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut g = rng();
        let n = 60_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut g)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }
}

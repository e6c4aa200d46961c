//! Synthetic runtime distributions.
//!
//! Tests of the speedup analysis draw run lengths from the two reference
//! cases of the paper, exponential and shifted exponential, whose expected
//! minimum of `p` draws has a closed form to compare against.  The
//! exponential's inverse transform lives here, next to the generators; a
//! shifted exponential draw is a constant plus an exponential one.

use crate::source::RandomSource;

/// Sample an exponential random variable with the given `mean` (`mean > 0`).
///
/// The exponential distribution is the reference case of the paper's
/// analysis: if the sequential run time of a Las Vegas search is exponential,
/// the expected speedup of `p` independent walks is exactly `p` (linear
/// speedup), which is what the Costas Array Problem exhibits.
// lint: allow(pub-item-has-caller) — the run-length draw of the perfmodel, bench and service tests
pub fn exponential<R: RandomSource + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    // Inverse CDF; 1 - u in (0, 1] avoids ln(0).
    let u = rng.f64();
    -mean * (1.0 - u).ln()
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
}

//! Closed-form order statistics for the reference runtime distributions.
//!
//! The paper's two regimes have textbook explanations:
//!
//! * **Exponential run times** (memoryless search, e.g. the Costas Array
//!   Problem): the minimum of `p` exponentials with mean `m` is exponential
//!   with mean `m / p`, so the expected speedup is exactly `p` — the *linear
//!   speedup* of Figure 3.
//! * **Shifted exponential run times** (a deterministic part `s` plus an
//!   exponential tail `m`): the expected parallel time is `s + m / p`, so the
//!   speedup saturates at `(s + m) / s` — the bending curves of Figures 1
//!   and 2.
//!
//! The tests use these functions to validate the empirical order
//! statistics.

/// Expected minimum of `p` i.i.d. exponential variables with the given mean.
#[must_use]
pub fn expected_min_exponential(mean: f64, p: usize) -> f64 {
    assert!(mean >= 0.0 && p >= 1);
    mean / p as f64
}

/// Expected minimum of `p` i.i.d. shifted-exponential variables
/// (`shift + Exp(scale)`).
#[must_use]
pub fn expected_min_shifted_exponential(shift: f64, scale: f64, p: usize) -> f64 {
    assert!(shift >= 0.0 && scale >= 0.0 && p >= 1);
    shift + scale / p as f64
}

/// Theoretical speedup of `p` independent walks when the sequential run time
/// is exponential: exactly `p`.
#[must_use]
pub fn speedup_exponential(p: usize) -> f64 {
    p as f64
}

/// Theoretical speedup of `p` independent walks when the sequential run time
/// is `shift + Exp(scale)`.
#[must_use]
pub fn speedup_shifted_exponential(shift: f64, scale: f64, p: usize) -> f64 {
    assert!(p >= 1);
    let sequential = shift + scale;
    let parallel = expected_min_shifted_exponential(shift, scale, p);
    if parallel <= 0.0 {
        // Both shift and scale are zero: every run is instantaneous and the
        // notion of speedup degenerates to 1.
        1.0
    } else {
        sequential / parallel
    }
}

/// The asymptotic speedup bound `(shift + scale) / shift` of the shifted
/// exponential regime (infinite for a pure exponential).
#[must_use]
pub fn speedup_bound_shifted_exponential(shift: f64, scale: f64) -> f64 {
    if shift <= 0.0 {
        f64::INFINITY
    } else {
        (shift + scale) / shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmpiricalDistribution;
    use as_rng::{default_rng, exponential, shifted_exponential};

    #[test]
    fn exponential_minimum_scales_inversely() {
        assert_eq!(expected_min_exponential(100.0, 1), 100.0);
        assert_eq!(expected_min_exponential(100.0, 4), 25.0);
        assert_eq!(expected_min_exponential(100.0, 100), 1.0);
    }

    #[test]
    fn exponential_speedup_is_linear() {
        for p in [1usize, 2, 16, 256] {
            assert_eq!(speedup_exponential(p), p as f64);
        }
    }

    #[test]
    fn shifted_exponential_speedup_saturates() {
        let shift = 10.0;
        let scale = 90.0;
        assert!((speedup_shifted_exponential(shift, scale, 1) - 1.0).abs() < 1e-12);
        let s64 = speedup_shifted_exponential(shift, scale, 64);
        let s256 = speedup_shifted_exponential(shift, scale, 256);
        let bound = speedup_bound_shifted_exponential(shift, scale);
        assert!(s64 < s256);
        assert!(s256 < bound);
        assert_eq!(bound, 10.0);
        // monotone approach to the bound
        assert!(speedup_shifted_exponential(shift, scale, 100_000) > 9.9);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(speedup_shifted_exponential(0.0, 0.0, 8), 1.0);
        assert_eq!(speedup_bound_shifted_exponential(0.0, 5.0), f64::INFINITY);
    }

    #[test]
    fn closed_forms_match_empirical_order_statistics() {
        let mut rng = default_rng(2024);
        let mean = 50.0;
        let samples: Vec<f64> = (0..4000).map(|_| exponential(&mut rng, mean)).collect();
        let d = EmpiricalDistribution::new(&samples);
        for p in [2usize, 8, 64] {
            let analytic = expected_min_exponential(mean, p);
            let empirical = d.expected_min_of(p);
            assert!(
                (analytic - empirical).abs() / analytic < 0.2,
                "p = {p}: analytic {analytic}, empirical {empirical}"
            );
        }

        let samples: Vec<f64> = (0..4000)
            .map(|_| shifted_exponential(&mut rng, 30.0, 20.0))
            .collect();
        let d = EmpiricalDistribution::new(&samples);
        for p in [2usize, 16] {
            let analytic = expected_min_shifted_exponential(30.0, 20.0, p);
            let empirical = d.expected_min_of(p);
            assert!(
                (analytic - empirical).abs() / analytic < 0.1,
                "p = {p}: analytic {analytic}, empirical {empirical}"
            );
        }
    }
}

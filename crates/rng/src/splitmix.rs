//! SplitMix64: a tiny, fast generator used for seed expansion.
//!
//! SplitMix64 (Steele, Lea & Flood, 2014) walks a 64-bit counter through a
//! strong finalizer.  It is the recommended seeder for the xoshiro family and
//! is also useful as a stateless hash: `SplitMix64::mix(x)` is a bijection on
//! `u64` with good avalanche behaviour, which the multi-walk runner uses to
//! derive uncorrelated per-walk seeds.

use crate::source::RandomSource;

/// The SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator whose counter starts at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The SplitMix64 output function applied to an arbitrary value.
    ///
    /// This is a bijective mixing function (finalizer); it is what
    /// [`SeedSequence`](crate::SeedSequence) uses to turn `(master, index)`
    /// pairs into independent seeds.
    #[must_use]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RandomSource for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first output for seed 0 equals `mix` of the incremented counter,
    /// i.e. the stream and the stateless finalizer agree by construction.
    #[test]
    fn stream_agrees_with_mix() {
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), SplitMix64::mix(0));
        let mut h = SplitMix64::new(41);
        assert_eq!(h.next_u64(), SplitMix64::mix(41));
    }

    #[test]
    fn no_short_cycles() {
        let mut g = SplitMix64::new(99);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(g.next_u64()), "cycle detected far too early");
        }
    }

    #[test]
    fn mix_is_deterministic_and_spreads_bits() {
        assert_eq!(SplitMix64::mix(0), SplitMix64::mix(0));
        // Consecutive inputs should produce wildly different outputs.
        let a = SplitMix64::mix(1);
        let b = SplitMix64::mix(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn mix_of_zero_is_not_zero() {
        assert_ne!(SplitMix64::mix(0), 0);
    }

    #[test]
    fn state_advances() {
        let mut g = SplitMix64::new(7);
        assert_ne!(g.next_u64(), g.next_u64());
    }
}

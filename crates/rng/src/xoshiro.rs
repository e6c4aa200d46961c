//! Xoshiro256++: the workspace's default generator.
//!
//! Blackman & Vigna's xoshiro256++ is fast (a handful of ALU operations per
//! output), has a 256-bit state with period 2^256 − 1, and passes BigCrush.
//! Each independent search engine owns one instance seeded from a
//! [`SeedSequence`](crate::SeedSequence).

use crate::source::RandomSource;
use crate::splitmix::SplitMix64;

/// The xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Build a generator from a full 256-bit seed.
    ///
    /// The all-zero state is invalid for xoshiro; it is replaced by a state
    /// expanded from a fixed non-zero constant so the constructor is total.
    #[must_use]
    pub fn from_seed(seed: [u64; 4]) -> Self {
        if seed == [0, 0, 0, 0] {
            return Self::from_u64_seed(0xBAD5_EED0_DEAD_BEEF);
        }
        Self { s: seed }
    }

    /// Build a generator by expanding a 64-bit seed through SplitMix64, the
    /// procedure recommended by the xoshiro authors.
    #[must_use]
    pub fn from_u64_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self::from_seed(s)
    }
}

impl RandomSource for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Xoshiro256PlusPlus::from_u64_seed(7);
        let mut b = Xoshiro256PlusPlus::from_u64_seed(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_rejected_gracefully() {
        let mut g = Xoshiro256PlusPlus::from_seed([0; 4]);
        // The all-zero state outputs 0 forever, so two different outputs
        // show that it was replaced.
        let a = g.next_u64();
        let b = g.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_do_not_collide_early() {
        let mut streams: Vec<Vec<u64>> = (0..16u64)
            .map(|s| {
                let mut g = Xoshiro256PlusPlus::from_u64_seed(s);
                (0..16).map(|_| g.next_u64()).collect()
            })
            .collect();
        streams.sort();
        streams.dedup();
        assert_eq!(streams.len(), 16);
    }

    #[test]
    fn output_has_balanced_bits() {
        let mut g = Xoshiro256PlusPlus::from_u64_seed(2024);
        let n = 4096;
        let ones: u32 = (0..n).map(|_| g.next_u64().count_ones()).sum();
        let mean = ones as f64 / n as f64;
        assert!((mean - 32.0).abs() < 1.0, "mean popcount = {mean}");
    }

    #[test]
    fn uniformity_of_low_buckets() {
        let mut g = Xoshiro256PlusPlus::from_u64_seed(5150);
        let mut counts = [0usize; 10];
        let n = 50_000;
        for _ in 0..n {
            counts[g.index(10)] += 1;
        }
        let expected = n as f64 / 10.0;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "counts = {counts:?}"
            );
        }
    }
}

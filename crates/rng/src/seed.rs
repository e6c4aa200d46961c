//! Seed derivation for families of independent walks.
//!
//! The paper launches `p` search engines "starting from different initial
//! configurations and performing the computation in a purely independent
//! manner".  Reproducibility of the whole experiment therefore reduces to
//! reproducibility of the per-walk seeds.  [`SeedSequence`] derives an
//! unbounded family of 256-bit seeds from a single master seed using the
//! SplitMix64 finalizer over `(master, counter, lane)` tuples, so that:
//!
//! * walk `i` always receives the same seed for a given master seed,
//! * seeds do not depend on how many walks are launched,
//! * a walk's seed can be recomputed in isolation ([`SeedSequence::seed_for`]).

use crate::splitmix::SplitMix64;

/// Derives independent per-walk seeds from a master seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
    counter: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `master`.
    #[must_use]
    pub fn new(master: u64) -> Self {
        Self { master, counter: 0 }
    }

    /// The master seed this sequence was rooted at.
    #[must_use]
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Number of seeds handed out so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.counter
    }

    /// The 256-bit seed of walk `index`, independent of the sequence cursor.
    #[must_use]
    pub fn seed_for(master: u64, index: u64) -> [u64; 4] {
        let base = SplitMix64::mix(master ^ SplitMix64::mix(index));
        [
            SplitMix64::mix(base ^ 0x9E37_79B9_7F4A_7C15),
            SplitMix64::mix(base ^ 0xD1B5_4A32_D192_ED03),
            SplitMix64::mix(base ^ 0x8CB9_2BA7_2F3D_8DD7),
            SplitMix64::mix(base ^ 0xABCD_5803_1702_9F11),
        ]
    }

    /// A 64-bit per-walk seed (convenience for generators seeded from u64).
    #[must_use]
    pub fn u64_seed_for(master: u64, index: u64) -> u64 {
        Self::seed_for(master, index)[0]
    }

    /// Hand out the next 256-bit seed and advance the cursor.
    pub fn next_seed(&mut self) -> [u64; 4] {
        let s = Self::seed_for(self.master, self.counter);
        self.counter += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sequential_and_random_access_agree() {
        let mut seq = SeedSequence::new(42);
        for i in 0..32 {
            assert_eq!(seq.next_seed(), SeedSequence::seed_for(42, i));
        }
        assert_eq!(seq.issued(), 32);
    }

    #[test]
    fn seeds_are_distinct_across_indices() {
        let mut seen = HashSet::new();
        for i in 0..2048u64 {
            assert!(seen.insert(SeedSequence::seed_for(7, i)));
        }
    }

    #[test]
    fn seeds_are_distinct_across_masters() {
        let mut seen = HashSet::new();
        for m in 0..512u64 {
            assert!(seen.insert(SeedSequence::seed_for(m, 0)));
        }
    }

    #[test]
    fn u64_seed_matches_first_lane() {
        for i in 0..16 {
            assert_eq!(
                SeedSequence::u64_seed_for(99, i),
                SeedSequence::seed_for(99, i)[0]
            );
        }
    }

    #[test]
    fn master_is_preserved() {
        let mut seq = SeedSequence::new(123);
        let _ = seq.next_seed();
        assert_eq!(seq.master(), 123);
    }

    #[test]
    fn no_lane_is_zero_for_small_inputs() {
        // All-zero lanes would degenerate xoshiro seeding.
        for m in 0..64u64 {
            for i in 0..64u64 {
                let s = SeedSequence::seed_for(m, i);
                assert_ne!(s, [0, 0, 0, 0]);
            }
        }
    }
}

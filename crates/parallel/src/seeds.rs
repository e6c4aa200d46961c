//! Deterministic per-walk seed derivation.
//!
//! Every walk of a multi-walk run owns an independent random stream derived
//! from the run's master seed and the walk index, so that
//!
//! * the same master seed reproduces the same `p`-walk experiment exactly,
//! * walk `i`'s trajectory does not depend on how many walks run beside it,
//! * sequential replay ([`SimulatedMultiWalk`](crate::SimulatedMultiWalk))
//!   and execution on any number of workers
//!   ([`ThreadsExecutor`](crate::ThreadsExecutor)) see identical streams and
//!   therefore identical iteration counts.

use as_rng::{DefaultRng, SeedSequence, Xoshiro256PlusPlus};
use serde::{Deserialize, Serialize};

/// Seed bookkeeping for a family of independent walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkSeeds {
    master: u64,
}

impl WalkSeeds {
    /// A master seed for runs that have no reason to pick their own: runs
    /// that use it derive the same per-walk streams, so their results are
    /// comparable across entry points.
    pub const DEFAULT_MASTER_SEED: u64 = 0xC0DE_CAFE;

    /// Create a seed family rooted at `master`.
    #[must_use]
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// The master seed.
    #[must_use]
    pub fn master(&self) -> u64 {
        self.master
    }

    /// The 64-bit seed of walk `walk_id`.
    #[must_use]
    pub fn seed_of(&self, walk_id: usize) -> u64 {
        SeedSequence::u64_seed_for(self.master, walk_id as u64)
    }

    /// A ready-to-use generator for walk `walk_id`.
    #[must_use]
    pub fn rng_of(&self, walk_id: usize) -> DefaultRng {
        Xoshiro256PlusPlus::from_seed(SeedSequence::seed_for(self.master, walk_id as u64))
    }

    /// The 64-bit seed of retry `attempt` of walk `walk_id`.
    ///
    /// This is the retry determinism contract: attempt 0 *is* the original
    /// walk ([`seed_of`](Self::seed_of)); attempt `a > 0` re-roots the seed
    /// sequence at the walk's own seed and draws child `a`, so every retry
    /// stream is (a) a pure function of `(master, walk_id, attempt)`,
    /// (b) distinct from all sibling walks and other attempts, and
    /// (c) reproducible bit-for-bit on any worker count.
    #[must_use]
    pub fn seed_of_attempt(&self, walk_id: usize, attempt: u32) -> u64 {
        if attempt == 0 {
            self.seed_of(walk_id)
        } else {
            SeedSequence::u64_seed_for(self.seed_of(walk_id), u64::from(attempt))
        }
    }

    /// A ready-to-use generator for retry `attempt` of walk `walk_id`
    /// (attempt 0 matches [`rng_of`](Self::rng_of) exactly).
    #[must_use]
    pub fn rng_of_attempt(&self, walk_id: usize, attempt: u32) -> DefaultRng {
        if attempt == 0 {
            self.rng_of(walk_id)
        } else {
            Xoshiro256PlusPlus::from_seed(SeedSequence::seed_for(
                self.seed_of(walk_id),
                u64::from(attempt),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rng::RandomSource;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let s = WalkSeeds::new(99);
        assert_eq!(s.seed_of(0), s.seed_of(0));
        assert_ne!(s.seed_of(0), s.seed_of(1));
        assert_ne!(WalkSeeds::new(1).seed_of(0), WalkSeeds::new(2).seed_of(0));
    }

    #[test]
    fn rng_matches_seed_family() {
        let s = WalkSeeds::new(7);
        let mut a = s.rng_of(3);
        let mut b = s.rng_of(3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn walk_streams_differ_pairwise() {
        let s = WalkSeeds::new(5);
        let firsts: Vec<u64> = (0..8).map(|w| s.rng_of(w).next_u64()).collect();
        let mut uniq = firsts.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), firsts.len());
    }

    #[test]
    fn attempt_zero_is_the_original_walk() {
        let s = WalkSeeds::new(2012);
        assert_eq!(s.seed_of_attempt(4, 0), s.seed_of(4));
        let mut original = s.rng_of(4);
        let mut attempt0 = s.rng_of_attempt(4, 0);
        for _ in 0..16 {
            assert_eq!(original.next_u64(), attempt0.next_u64());
        }
    }

    #[test]
    fn retry_attempts_are_distinct_and_reproducible() {
        let s = WalkSeeds::new(2012);
        // Reproducible: same (walk, attempt) → same stream.
        assert_eq!(s.seed_of_attempt(1, 2), s.seed_of_attempt(1, 2));
        let (mut a, mut b) = (s.rng_of_attempt(1, 2), s.rng_of_attempt(1, 2));
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Distinct across attempts, walks, and from every sibling's
        // attempt-0 stream.
        let mut seeds: Vec<u64> = Vec::new();
        for walk in 0..4 {
            for attempt in 0..4 {
                seeds.push(s.seed_of_attempt(walk, attempt));
            }
        }
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }
}

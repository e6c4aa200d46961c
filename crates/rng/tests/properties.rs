//! Property-based tests for the RNG substrate.
//!
//! The build environment has no crates.io access, so instead of proptest the
//! properties run over a deterministic sweep: a grid of seeds (including the
//! edge seeds 0 and `u64::MAX`) crossed with characteristic parameter values.

use as_rng::{default_rng, RandomSource, SeedSequence, SplitMix64, Xoshiro256PlusPlus};

/// Seeds covering the edges plus a spread of "typical" values.
fn seed_grid() -> Vec<u64> {
    let mut seeds = vec![0, 1, u64::MAX, u64::MAX - 1, 0x9E37_79B9_7F4A_7C15];
    seeds.extend((0..96u64).map(|i| SeedSequence::u64_seed_for(0xBAD5_EED5, i)));
    seeds
}

/// `below(b)` always respects its bound, for any generator state.
#[test]
fn below_is_bounded() {
    let bounds = [
        1u64,
        2,
        3,
        5,
        255,
        256,
        1 << 32,
        (1 << 32) + 1,
        u64::MAX - 1,
    ];
    for seed in seed_grid() {
        let mut g = default_rng(seed);
        for &bound in &bounds {
            let v = g.below(bound);
            assert!(v < bound, "seed {seed:#x}, bound {bound}");
        }
    }
}

/// `range_i64` stays inside its half-open interval.
#[test]
fn range_is_bounded() {
    let cases = [
        (-1_000_000i64, 1i64),
        (-1_000_000, 999_999),
        (-1, 1),
        (0, 1),
        (999_999, 1),
        (-500, 1_000),
    ];
    for seed in seed_grid() {
        let mut g = default_rng(seed);
        for &(lo, span) in &cases {
            let hi = lo + span;
            let v = g.range_i64(lo, hi);
            assert!(v >= lo && v < hi, "seed {seed:#x}, range {lo}..{hi}");
        }
    }
}

/// Shuffling never changes the multiset of elements.
#[test]
fn shuffle_preserves_elements() {
    for seed in seed_grid() {
        let mut g = default_rng(seed);
        for len in [0usize, 1, 2, 3, 17, 255] {
            let mut v: Vec<u32> = (0..len).map(|_| g.next_u64() as u32).collect();
            let mut expected = v.clone();
            expected.sort_unstable();
            g.shuffle(&mut v);
            v.sort_unstable();
            assert_eq!(v, expected, "seed {seed:#x}, len {len}");
        }
    }
}

/// `permutation(n)` is always a bijection of `0..n`.
#[test]
fn permutation_is_bijection() {
    for seed in seed_grid() {
        for n in [0usize, 1, 2, 3, 17, 100, 299] {
            let mut g = default_rng(seed ^ n as u64);
            let p = g.permutation(n);
            let mut seen = vec![false; n];
            for &x in &p {
                assert!(x < n, "seed {seed:#x}, n {n}");
                assert!(!seen[x], "seed {seed:#x}, n {n}: duplicate {x}");
                seen[x] = true;
            }
            assert_eq!(p.len(), n);
        }
    }
}

/// Per-walk seeds are stable under re-derivation and differ across walks.
#[test]
fn seed_sequence_is_stable() {
    for master in seed_grid() {
        for i in [0u64, 1, 2, 17, 9_999] {
            let a = SeedSequence::seed_for(master, i);
            let b = SeedSequence::seed_for(master, i);
            assert_eq!(a, b, "master {master:#x}, i {i}");
            for j in [0u64, 3, 9_998] {
                if i != j {
                    assert_ne!(
                        a,
                        SeedSequence::seed_for(master, j),
                        "master {master:#x}, i {i}, j {j}"
                    );
                }
            }
        }
    }
}

/// Both generator families are deterministic given their seed.
#[test]
fn generators_are_deterministic() {
    for seed in seed_grid() {
        let mut a = Xoshiro256PlusPlus::from_u64_seed(seed);
        let mut b = Xoshiro256PlusPlus::from_u64_seed(seed);
        assert_eq!(a.next_u64(), b.next_u64());

        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

/// `f64()` stays in the unit interval.
#[test]
fn f64_in_unit_interval() {
    for seed in seed_grid() {
        let mut g = default_rng(seed);
        for _ in 0..64 {
            let x = g.f64();
            assert!((0.0..1.0).contains(&x), "seed {seed:#x}: {x}");
        }
    }
}

/// `sample_indices` returns distinct, in-range indices of the right count.
#[test]
fn sample_indices_distinct() {
    let cases = [
        (0usize, 0usize),
        (0, 5),
        (1, 1),
        (10, 0),
        (10, 10),
        (10, 249),
        (199, 50),
        (199, 199),
    ];
    for seed in seed_grid() {
        let mut g = default_rng(seed);
        for &(n, k) in &cases {
            let s = g.sample_indices(n, k);
            assert_eq!(s.len(), k.min(n), "seed {seed:#x}, n {n}, k {k}");
            let mut uniq = s.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), s.len(), "seed {seed:#x}, n {n}, k {k}");
            assert!(s.iter().all(|&i| i < n));
        }
    }
}

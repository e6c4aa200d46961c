//! Runtime enforcement of the alloc-free hot-path contract, catalog-wide.
//!
//! `cbls-lint`'s `no-alloc-hot-path` rule bans the obvious allocation shapes
//! from `cost_if_swap` / `executed_swap` / projection bodies, but a token
//! scanner cannot see *indirect* allocations — a `Vec` field growing inside
//! a callee, a format, a box.  This suite closes that gap: the binary
//! installs a counting [`GlobalAlloc`] wrapper of [`System`] as its global
//! allocator and, for every catalog [`Benchmark`] (hand-coded and modeled),
//! drives a randomized probe/swap/projection sequence through the
//! engine-facing trait-object layer under [`assert_alloc_free`] — any heap
//! allocation fails the test with the benchmark's id and the allocation
//! count.
//!
//! A warm-up sequence runs first, uncounted: the contract is *steady-state*
//! alloc-freedom, so scratch state sized lazily on the first few moves
//! (dirty-set capacity, reservoir buffers) is allowed to settle before
//! counting starts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use as_rng::{default_rng, RandomSource};
use cbls_problems::Benchmark;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Per-thread allocation tally: counting is armed only inside
/// [`measure_allocations`], so parallel test threads never observe each
/// other's allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct AllocTally {
    /// Number of heap allocations (`alloc`, `alloc_zeroed`, and growing
    /// `realloc` calls).
    allocations: u64,
    /// Total bytes requested by those allocations.
    bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct ProbeState {
    armed: bool,
    tally: AllocTally,
}

thread_local! {
    static ALLOC_PROBE: Cell<ProbeState> = const {
        Cell::new(ProbeState {
            armed: false,
            tally: AllocTally {
                allocations: 0,
                bytes: 0,
            },
        })
    };
}

fn note_allocation(bytes: usize) {
    ALLOC_PROBE.with(|probe| {
        let mut state = probe.get();
        if state.armed {
            state.tally.allocations += 1;
            state.tally.bytes += bytes as u64;
            probe.set(state);
        }
    });
}

/// A counting wrapper around the [`System`] allocator.  Outside an armed
/// measurement window it is a plain pass-through (one thread-local flag
/// read per allocation), so installing it does not perturb what the tests
/// measure.
struct CountingAllocator;

// The workspace's one unsafe impl: `GlobalAlloc` is an unsafe trait, and the
// impl upholds its contract by delegating every call to `System` unchanged.
// The only added behavior is the thread-local tally, which allocates
// nothing.  Every crate under `crates/` forbids unsafe code; this test
// binary is not one of them.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`, which
        // is passed to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block this allocator hands out comes from `System`
        // with the same layout, so `ptr` and `layout` satisfy `System`'s
        // `dealloc` contract as they satisfy ours.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        // SAFETY: as in `dealloc` for `ptr` and `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with allocation counting armed on this thread and return its
/// result together with the [`AllocTally`] of every heap allocation it
/// performed.
///
/// # Panics
///
/// Panics when the canary allocation made first is not counted, so a
/// binary without the counting allocator fails loudly instead of vacuously
/// reporting zero allocations.
fn measure_allocations<R>(f: impl FnOnce() -> R) -> (R, AllocTally) {
    // Canary: prove the counting allocator is actually installed.
    ALLOC_PROBE.with(|probe| {
        probe.set(ProbeState {
            armed: true,
            tally: AllocTally::default(),
        });
    });
    let canary = std::hint::black_box(Box::new(0xA110_CF3Eu64));
    let canary_seen = ALLOC_PROBE.with(|probe| probe.get().tally.allocations > 0);
    drop(std::hint::black_box(canary));
    assert!(
        canary_seen,
        "measure_allocations: the canary allocation was not counted"
    );

    ALLOC_PROBE.with(|probe| {
        probe.set(ProbeState {
            armed: true,
            tally: AllocTally::default(),
        });
    });
    let result = f();
    let tally = ALLOC_PROBE.with(|probe| {
        let state = probe.get();
        probe.set(ProbeState {
            armed: false,
            tally: AllocTally::default(),
        });
        state.tally
    });
    (result, tally)
}

/// Assert that `f` performs **zero** heap allocations on this thread and
/// return its result.
///
/// # Panics
///
/// Panics with `label` and the observed tally when `f` allocates.
fn assert_alloc_free<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let (result, tally) = measure_allocations(f);
    assert!(
        tally.allocations == 0,
        "{label}: {} heap allocation(s) ({} bytes) on an alloc-free hot path",
        tally.allocations,
        tally.bytes
    );
    result
}

/// Swaps driven while counting (and, separately, while warming up).
const SWAPS: usize = 120;

fn sweep(benchmark: &Benchmark) {
    let mut evaluator = benchmark.build();
    let n = evaluator.size();
    assert!(n >= 2, "{}: degenerate instance", benchmark.id());
    let mut rng = default_rng(0xA110_C000 + n as u64);

    let mut perm = rng.permutation(n);
    let mut cost = evaluator.init(&perm);

    // Engine-owned buffers, preallocated exactly like `AdaptiveSearch::run` does.
    let mut touched: Vec<usize> = Vec::with_capacity(8 * n + 64);
    let mut errors = vec![0i64; n];
    let js: Vec<usize> = (0..n).collect();
    let mut probes = vec![0i64; n];

    // Pre-draw the swap sequence: the RNG itself is out of scope here.
    let pairs: Vec<(usize, usize)> = (0..2 * SWAPS)
        .map(|_| (rng.index(n), rng.index(n)))
        .filter(|&(i, j)| i != j)
        .collect();
    let (warmup, counted) = pairs.split_at(pairs.len() / 2);

    let mut drive = |evaluator: &mut Box<dyn cbls_core::Evaluator>,
                     perm: &mut Vec<usize>,
                     cost: &mut i64,
                     pairs: &[(usize, usize)]| {
        for &(i, j) in pairs {
            // A full batched probe row first: the engine's candidate scan
            // runs `cost_if_swaps` under the same alloc-free contract, and
            // the row must agree with the scalar probe it replaces.
            evaluator.cost_if_swaps(perm, *cost, i, &js, &mut probes);
            let predicted = evaluator.cost_if_swap(perm, *cost, i, j);
            assert_eq!(probes[j], predicted);
            perm.swap(i, j);
            evaluator.executed_swap(perm, i, j);
            *cost = predicted;
            touched.clear();
            if evaluator.touched_by_swap(perm, i, j, &mut touched) {
                evaluator.project_errors(perm, &touched, &mut errors);
            } else {
                evaluator.project_errors_full(perm, &mut errors);
            }
        }
    };

    drive(&mut evaluator, &mut perm, &mut cost, warmup);
    assert_alloc_free(&benchmark.id(), || {
        drive(&mut evaluator, &mut perm, &mut cost, counted);
    });

    // The probes above trusted `cost_if_swap`; close the loop against a
    // from-scratch recompute so an alloc-free but *wrong* path cannot pass.
    assert_eq!(
        cost,
        evaluator.cost(&perm),
        "{}: probe sequence drifted from recompute",
        benchmark.id()
    );
}

macro_rules! alloc_free_sweep {
    ($($test:ident => $bench:expr;)+) => {
        $(
            #[test]
            fn $test() {
                sweep(&$bench);
            }
        )+
    };
}

// The full catalog: all seven hand-coded evaluators and all four modeled
// ones, at the sizes the catalog smoke tests use.
alloc_free_sweep! {
    magic_square_is_alloc_free => Benchmark::MagicSquare(6);
    all_interval_is_alloc_free => Benchmark::AllInterval(14);
    perfect_square_is_alloc_free => Benchmark::PerfectSquareOrder9;
    costas_is_alloc_free => Benchmark::CostasArray(9);
    queens_is_alloc_free => Benchmark::NQueens(16);
    langford_is_alloc_free => Benchmark::Langford(8);
    alpha_is_alloc_free => Benchmark::Alpha;
    magic_sequence_is_alloc_free => Benchmark::MagicSequence(10);
    golomb_is_alloc_free => Benchmark::GolombRuler(5);
    coloring_is_alloc_free => Benchmark::GraphColoring { nodes: 12, colors: 3 };
    quasigroup_is_alloc_free => Benchmark::QuasigroupCompletion(6);
}

#[test]
fn the_counting_allocator_actually_counts() {
    // Guard the guard: a deliberate allocation must be observed, so the
    // eleven sweeps above cannot pass vacuously.
    let (_, tally) = measure_allocations(|| std::hint::black_box(vec![1u8; 4096]));
    assert!(tally.allocations >= 1);
    assert!(tally.bytes >= 4096);
}

#[test]
fn assert_alloc_free_reports_the_label() {
    let err = std::panic::catch_unwind(|| {
        assert_alloc_free("guinea-pig", || std::hint::black_box(Box::new(7u32)));
    })
    .unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("guinea-pig"), "panic message: {msg}");
    assert!(msg.contains("alloc-free hot path"), "panic message: {msg}");
}

//! Machine-speed calibration for the end-to-end metrics.
//!
//! The benchmark shares its CPUs with other tenants, whose load drifts by
//! tens of percent over minutes and can take one CPU more than the other.
//! A reference kernel owned by the benchmark — a small integer
//! local-search loop that uses none of the repository's code — runs in
//! short chunks interleaved with the measured pass, on one thread and, less
//! often, on two threads at once.  The end-to-end times and rates are
//! scaled by its speed relative to [`NOMINAL_OPS_PER_S`] at the parallel
//! width the measured work ran at, so they read as on a machine running
//! the kernel at that speed whatever the neighbours are doing.  A change
//! to the repository's code moves the measured work and not the kernel.

use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

/// Reference-kernel operations per second, per thread, of the nominal
/// machine the end-to-end metrics are scaled to.
pub const NOMINAL_OPS_PER_S: f64 = 1.2e7;

/// Operations per chunk (about 0.15 ms at nominal speed).
const CHUNK_OPS: u32 = 2_000;

/// Minimum spacing between one-thread chunks taken by [`Calibration::tick`].
const SOLO_EVERY: Duration = Duration::from_millis(10);

/// Minimum spacing between two-thread chunks taken by [`Calibration::tick`].
const PAIR_EVERY: Duration = Duration::from_millis(100);

/// Kernel operations and the seconds they took.
#[derive(Debug, Default, Clone, Copy)]
struct Meter {
    ops: u64,
    seconds: f64,
}

impl Meter {
    fn add(&mut self, ops: u32, took: Duration) {
        self.ops += u64::from(ops);
        self.seconds += took.as_secs_f64();
    }

    fn speed(self) -> f64 {
        self.ops as f64 / self.seconds / NOMINAL_OPS_PER_S
    }
}

/// Accumulated reference-kernel timings of one run.
pub struct Calibration {
    state: [u32; 64],
    rng: u64,
    solo: Meter,
    pair: Meter,
    last_solo: Instant,
    last_pair: Instant,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            state: std::array::from_fn(|i| i as u32),
            rng: 0x9E37_79B9_7F4A_7C15,
            solo: Meter::default(),
            pair: Meter::default(),
            last_solo: Instant::now(),
            last_pair: Instant::now(),
        }
    }
}

impl Calibration {
    /// Time one chunk of the kernel on this thread.
    pub fn sample(&mut self) {
        let started = Instant::now();
        black_box(kernel(&mut self.state, &mut self.rng, CHUNK_OPS));
        self.last_solo = Instant::now();
        self.solo.add(CHUNK_OPS, self.last_solo - started);
    }

    /// Time one chunk of the kernel on two threads at once; each thread
    /// times its own chunk.
    pub fn sample_pair(&mut self) {
        let ops = 4 * CHUNK_OPS;
        let (state, rng) = (&mut self.state, &mut self.rng);
        let timed = |state: &mut [u32; 64], rng: &mut u64| {
            let started = Instant::now();
            black_box(kernel(state, rng, ops));
            started.elapsed()
        };
        let (mine, theirs) = thread::scope(|scope| {
            let other = scope.spawn(|| timed(&mut std::array::from_fn(|i| i as u32), &mut 1));
            let mine = timed(state, rng);
            (mine, other.join().expect("calibration thread"))
        });
        self.pair.add(ops, mine);
        self.pair.add(ops, theirs);
        self.last_pair = Instant::now();
    }

    /// Take the chunks that are due: one-thread every 10 ms, two-thread
    /// every 100 ms.
    pub fn tick(&mut self) {
        if self.last_solo.elapsed() >= SOLO_EVERY {
            self.sample();
        }
        if self.last_pair.elapsed() >= PAIR_EVERY {
            self.sample_pair();
        }
    }

    /// Measured kernel speed over nominal, per thread, with `threads` (1 or
    /// 2) running at once: 0.8 means the machine ran at 80 % of nominal
    /// speed during the run.
    #[must_use]
    pub fn speed(&self, threads: usize) -> f64 {
        if threads > 1 {
            self.pair.speed()
        } else {
            self.solo.speed()
        }
    }
}

/// The reference kernel: random swaps in a 64-slot permutation, each
/// followed by a diagonal-conflict count of the moved slot — the shape of
/// a candidate probe (small array, data-dependent branches).
fn kernel(state: &mut [u32; 64], rng: &mut u64, ops: u32) -> u64 {
    let mut conflicts = 0u64;
    for _ in 0..ops {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let i = (*rng & 63) as usize;
        let j = ((*rng >> 6) & 63) as usize;
        state.swap(i, j);
        let vi = state[i];
        for (k, &vk) in state.iter().enumerate() {
            if vk.abs_diff(vi) as usize == k.abs_diff(i) {
                conflicts += 1;
            }
        }
    }
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speeds_are_positive_and_finite_after_a_sample() {
        let mut calib = Calibration::default();
        calib.sample();
        calib.sample_pair();
        calib.tick();
        for threads in [1, 2] {
            let speed = calib.speed(threads);
            assert!(speed.is_finite() && speed > 0.0, "{speed}");
        }
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let run = || {
            let mut state = std::array::from_fn(|i| i as u32);
            let mut rng = 1;
            (kernel(&mut state, &mut rng, 500), state)
        };
        assert_eq!(run(), run());
    }
}

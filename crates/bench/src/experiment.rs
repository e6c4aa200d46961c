//! Collection of sequential runtime distributions and engine throughput.

use cbls_parallel::{SequentialExecutor, WalkBatch, WalkExecutor};
use cbls_perfmodel::EmpiricalDistribution;
use cbls_problems::Benchmark;
use serde::{Deserialize, Serialize};

/// Configuration shared by the figure experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Number of independent sequential runs per benchmark (the paper's
    /// companion study uses 50; more samples give smoother order statistics).
    pub samples: usize,
    /// Master seed of the whole experiment.
    pub master_seed: u64,
    /// Core counts to sweep (the paper uses 16..256 in powers of two; 1 is
    /// added automatically when needed as a speedup baseline).
    pub core_counts: Vec<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            samples: 100,
            master_seed: 0x5EED,
            core_counts: vec![1, 16, 32, 64, 128, 256],
        }
    }
}

impl ExperimentConfig {
    /// Read overrides from the environment: `CBLS_SAMPLES`, `CBLS_SEED`
    /// (useful to shrink the figure runs on slow machines or expand them for
    /// a full reproduction).
    #[must_use]
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Ok(samples) = std::env::var("CBLS_SAMPLES") {
            if let Ok(samples) = samples.parse::<usize>() {
                config.samples = samples.max(2);
            }
        }
        if let Ok(seed) = std::env::var("CBLS_SEED") {
            if let Ok(seed) = seed.parse::<u64>() {
                config.master_seed = seed;
            }
        }
        config
    }
}

/// One sequential run: iteration count and wall-clock throughput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SequentialSample {
    /// Run index (also the seed index).
    pub run: usize,
    /// Whether the run found a solution within its budget.
    pub solved: bool,
    /// Iterations performed.
    pub iterations: u64,
    /// Iterations per second achieved on the local machine.
    pub iterations_per_second: f64,
}

/// Collect `samples` independent sequential runs of `benchmark`, each with
/// its own derived seed (run `i` of a benchmark is always the same walk, no
/// matter how many samples are collected).
///
/// The runs are one run-to-completion batch on [`SequentialExecutor`]: one
/// walk at a time, so each walk's elapsed time — and with it the throughput
/// the figures scale by — is not inflated by sharing cores with its
/// siblings.
#[must_use]
pub fn collect_sequential_samples(
    benchmark: &Benchmark,
    config: &ExperimentConfig,
) -> Vec<SequentialSample> {
    let batch = WalkBatch::uniform(
        config.master_seed ^ fxhash(benchmark.id().as_bytes()),
        &benchmark.tuned_config(),
        config.samples,
    )
    .run_to_completion();
    SequentialExecutor
        .execute(&|| benchmark.build(), &batch)
        .records
        .into_iter()
        .map(|record| {
            let outcome = record.outcome;
            let elapsed = outcome.elapsed.as_secs_f64();
            let iterations_per_second = if elapsed > 0.0 {
                outcome.stats.iterations as f64 / elapsed
            } else {
                0.0
            };
            SequentialSample {
                run: record.walk_id,
                solved: outcome.solved(),
                iterations: outcome.stats.iterations,
                iterations_per_second,
            }
        })
        .collect()
}

/// Build the empirical distribution of iterations-to-solution from the solved
/// samples.  Returns `None` when no run solved the instance (the figure
/// binaries report this instead of fabricating a curve).
#[must_use]
pub fn iteration_distribution(samples: &[SequentialSample]) -> Option<EmpiricalDistribution> {
    let solved: Vec<u64> = samples
        .iter()
        .filter(|s| s.solved && s.iterations > 0)
        .map(|s| s.iterations)
        .collect();
    if solved.is_empty() {
        None
    } else {
        Some(EmpiricalDistribution::from_counts(&solved))
    }
}

/// Median engine throughput (iterations per second) over the samples, used
/// as the reference-core speed when converting iterations to simulated
/// seconds.
#[must_use]
pub fn median_throughput(samples: &[SequentialSample]) -> f64 {
    let mut rates: Vec<f64> = samples
        .iter()
        .map(|s| s.iterations_per_second)
        .filter(|r| *r > 0.0)
        .collect();
    if rates.is_empty() {
        return 1.0;
    }
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    rates[rates.len() / 2]
}

/// Fraction of samples that solved the instance.
#[must_use]
pub fn success_rate(samples: &[SequentialSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|s| s.solved).count() as f64 / samples.len() as f64
}

/// A tiny stable hash used to decorrelate per-benchmark seed families.
fn fxhash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            samples: 6,
            master_seed: 1,
            core_counts: vec![1, 4, 16],
        }
    }

    #[test]
    fn samples_are_collected_for_every_run() {
        let samples = collect_sequential_samples(&Benchmark::NQueens(12), &tiny_config());
        assert_eq!(samples.len(), 6);
        assert!(samples.iter().all(|s| s.solved));
        assert!(samples.iter().all(|s| s.iterations_per_second >= 0.0));
        // runs are indexed consecutively
        let mut runs: Vec<usize> = samples.iter().map(|s| s.run).collect();
        runs.sort_unstable();
        assert_eq!(runs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn collection_is_deterministic_in_iterations() {
        let a = collect_sequential_samples(&Benchmark::CostasArray(9), &tiny_config());
        let b = collect_sequential_samples(&Benchmark::CostasArray(9), &tiny_config());
        let ia: Vec<u64> = a.iter().map(|s| s.iterations).collect();
        let ib: Vec<u64> = b.iter().map(|s| s.iterations).collect();
        assert_eq!(ia, ib);
    }

    #[test]
    fn distribution_and_throughput_are_derived() {
        let samples = collect_sequential_samples(&Benchmark::Langford(7), &tiny_config());
        let dist = iteration_distribution(&samples).expect("some runs solve");
        assert!(dist.mean() > 0.0);
        assert!(median_throughput(&samples) > 0.0);
        assert!((success_rate(&samples) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unsolved_samples_produce_no_distribution() {
        let samples = vec![SequentialSample {
            run: 0,
            solved: false,
            iterations: 10,
            iterations_per_second: 1.0,
        }];
        assert!(iteration_distribution(&samples).is_none());
        assert_eq!(success_rate(&samples), 0.0);
        assert_eq!(success_rate(&[]), 0.0);
    }

    #[test]
    fn env_overrides_are_optional() {
        let config = ExperimentConfig::from_env();
        assert!(config.samples >= 2);
    }

    #[test]
    fn benchmark_seed_families_differ() {
        assert_ne!(fxhash(b"magic-square-6"), fxhash(b"all-interval-24"));
    }
}

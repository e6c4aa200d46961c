//! The paper's speedup tables, from one sample of sequential runs per
//! benchmark.
//!
//! The paper's walks never communicate, so `p` walks cost the minimum of `p`
//! draws from the sequential runtime distribution.  Every table here reads
//! the iterations-to-solution of one sample of sequential runs per
//! benchmark ([`sequential_runs`], collected once by [`Samples`]) and
//! computes each speedup as `E[min of base] / E[min of p]` with
//! [`EmpiricalDistribution::expected_min_of`]: the base is one walk for
//! Figures 1–2 and 32 walks for Figure 3.  Speedups are in iterations; no
//! platform model converts them to seconds.
//!
//! With `n` runs, `E[min of p]` puts weight `1 − (1 − 1/n)^p` on the
//! smallest run: 92 % at `n = 100, p = 256`, 16 % at `n = 1 500`.
//!
//! ```text
//! cargo run --release -p cbls-bench --bin speedup
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use cbls_parallel::{SequentialExecutor, SimulatedMultiWalk, WalkBatch};
use cbls_perfmodel::EmpiricalDistribution;
use cbls_problems::Benchmark;
use cbls_propagation::{BacktrackingSolver, CostasConstraint};

use crate::report::{fmt_f64, Table};

/// Walk counts of Figures 1–2 and the headline table.
const WALKS: [usize; 6] = [1, 16, 32, 64, 128, 256];
/// Walk counts of Figure 3, whose base is 32 walks.
const CAP_WALKS: [usize; 4] = [32, 64, 128, 256];
/// The Costas order of Figure 3 (the paper's is 22).
const CAP_ORDER: usize = 11;
/// The Costas orders of the Figure 3 trend, sampled with
/// [`Sampling::trend_samples`] runs.
const CAP_TREND_ORDERS: [usize; 3] = [9, 10, 11];
/// The Costas orders of the hardness table.
const HARDNESS_ORDERS: [usize; 6] = [8, 9, 10, 11, 12, 13];
/// The paper's Costas order, which the hardness fit extrapolates to.
const TARGET_ORDER: usize = 22;

/// How many sequential runs each benchmark gets, and their master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    /// Runs per benchmark: `CBLS_SAMPLES`, default 100.
    pub samples: usize,
    /// Runs of the Figure 3 trend orders: `CBLS_SAMPLES`, default 1 500,
    /// because `E[min of 256]` from 100 runs is mostly the smallest run.
    pub trend_samples: usize,
    /// Master seed of every sample: `CBLS_SEED`, default `0x5EED`.
    pub master_seed: u64,
}

impl Sampling {
    /// Read `CBLS_SAMPLES` and `CBLS_SEED` with [`Sampling::parse`].
    ///
    /// # Errors
    ///
    /// The message of [`Sampling::parse`].
    pub fn from_env() -> Result<Self, String> {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Self::parse(var("CBLS_SAMPLES").as_deref(), var("CBLS_SEED").as_deref())
    }

    /// The sampling that the values of `CBLS_SAMPLES` and `CBLS_SEED` ask
    /// for, `None` where a variable is unset.  An unset variable keeps its
    /// default.
    ///
    /// # Errors
    ///
    /// A set value that is not a decimal integer, or a sample count below
    /// 2 (the smallest sample with a spread).
    pub fn parse(samples: Option<&str>, seed: Option<&str>) -> Result<Self, String> {
        let samples = samples
            .map(|v| match v.parse::<usize>() {
                Ok(n) if n >= 2 => Ok(n),
                _ => Err(format!(
                    "CBLS_SAMPLES={v:?}: expected a decimal integer of at least 2"
                )),
            })
            .transpose()?;
        let master_seed = seed
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("CBLS_SEED={v:?}: expected a decimal integer"))
            })
            .transpose()?;
        Ok(Self {
            samples: samples.unwrap_or(100),
            trend_samples: samples.unwrap_or(1_500),
            master_seed: master_seed.unwrap_or(0x5EED),
        })
    }

    fn runs_for(&self, benchmark: &Benchmark) -> usize {
        match benchmark {
            Benchmark::CostasArray(n) if CAP_TREND_ORDERS.contains(n) => self.trend_samples,
            _ => self.samples,
        }
    }
}

/// Replay `n` sequential runs of `benchmark` with its tuned configuration,
/// one walk at a time on [`SequentialExecutor`], so no walk's elapsed time
/// is shared with a sibling.  Run `i` is walk `i` of the seed family
/// `master_seed ^ fxhash(id)`, so it does not depend on `n`: a smaller
/// sample is a prefix of a larger one.
#[must_use]
pub fn sequential_runs(benchmark: &Benchmark, n: usize, master_seed: u64) -> SimulatedMultiWalk {
    let batch = WalkBatch::uniform(
        master_seed ^ fxhash(benchmark.id().as_bytes()),
        &benchmark.tuned_config(),
        n,
    );
    SimulatedMultiWalk::replay(&|| benchmark.build(), &batch, &SequentialExecutor)
}

/// The sequential runs of every benchmark the tables read, each collected
/// once, on first use: [`Sampling::trend_samples`] runs of the Figure 3
/// trend orders and [`Sampling::samples`] runs of every other benchmark.
/// Every table reads a benchmark's whole sample.  Because a smaller sample
/// is a prefix of a larger one, the size and hardness tables, which read
/// Costas 9–11 at the trend count, see their 100-run sample extended, not
/// replaced.
#[derive(Debug)]
pub struct Samples {
    sampling: Sampling,
    runs: BTreeMap<String, SimulatedMultiWalk>,
}

impl Samples {
    /// An empty store.
    #[must_use]
    pub fn new(sampling: Sampling) -> Self {
        Self {
            sampling,
            runs: BTreeMap::new(),
        }
    }

    /// The sequential runs of `benchmark`.
    fn of(&mut self, benchmark: &Benchmark) -> &SimulatedMultiWalk {
        let (n, seed) = (self.sampling.runs_for(benchmark), self.sampling.master_seed);
        self.runs
            .entry(benchmark.id())
            .or_insert_with(|| sequential_runs(benchmark, n, seed))
    }

    fn distribution(&mut self, benchmark: &Benchmark) -> Option<EmpiricalDistribution> {
        self.of(benchmark).iteration_distribution()
    }
}

/// Builds one table from the samples, collecting those it reads first.
pub type TableFn = fn(&mut Samples) -> Table;

/// The six tables in print order, each with the stem of its CSV file.
pub const TABLES: [(&str, TableFn); 6] = [
    ("speedup_csplib", csplib_table),
    ("speedup_cap", cap_table),
    ("speedup_cap_trend", cap_trend_table),
    ("speedup_headline", headline_table),
    ("speedup_size", size_table),
    ("speedup_cap_hardness", hardness_table),
];

/// `E[min of base] / E[min of p]`; `None` when no run solved, or when
/// `E[min of p]` is 0 because every solved run started on a solution.
fn speedup(dist: Option<&EmpiricalDistribution>, base: usize, p: usize) -> Option<f64> {
    let dist = dist?;
    let parallel = dist.expected_min_of(p);
    (parallel > 0.0).then(|| dist.expected_min_of(base) / parallel)
}

fn cell(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), fmt_f64)
}

/// The paper's linearity criterion: "near-ideal" when every step of
/// [`CAP_WALKS`] scales the speedup over 32 walks by the step's walk ratio
/// within 25 %.
fn linearity(dist: Option<&EmpiricalDistribution>) -> &'static str {
    let speedups: Option<Vec<f64>> = CAP_WALKS.iter().map(|&p| speedup(dist, 32, p)).collect();
    let Some(speedups) = speedups else {
        return "-";
    };
    let linear = CAP_WALKS.windows(2).zip(speedups.windows(2)).all(|(p, s)| {
        let expected = s[0] * p[1] as f64 / p[0] as f64;
        (s[1] / expected - 1.0).abs() <= 0.25
    });
    if linear {
        "near-ideal"
    } else {
        "sub-ideal"
    }
}

/// Figures 1–2: the CSPLib suite's speedup over one walk.  The paper's
/// HA8000, Suno and Helios figures are one table in iterations.
fn csplib_table(samples: &mut Samples) -> Table {
    let suite = Benchmark::csplib_suite();
    let dists: Vec<_> = suite.iter().map(|b| samples.distribution(b)).collect();
    let mut header = vec!["walks".to_string()];
    header.extend(suite.iter().map(Benchmark::label));
    header.push("ideal".to_string());
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new("Figures 1-2: CSPLib speedup over 1 walk", &header);
    for p in WALKS {
        let mut row = vec![p.to_string()];
        row.extend(dists.iter().map(|d| cell(speedup(d.as_ref(), 1, p))));
        row.push(fmt_f64(p as f64));
        table.push_row(row);
    }
    table
}

/// Figure 3: the Costas speedup over 32 walks.
fn cap_table(samples: &mut Samples) -> Table {
    let dist = samples.distribution(&Benchmark::CostasArray(CAP_ORDER));
    let mut table = Table::new(
        format!("Figure 3: CAP {CAP_ORDER} speedup over 32 walks (paper: CAP 22, linear)"),
        &[
            "walks",
            "speedup_vs_32",
            "ideal",
            "efficiency",
            "log2_walks",
            "log2_speedup",
        ],
    );
    for p in CAP_WALKS {
        let s = speedup(dist.as_ref(), 32, p);
        let ideal = p as f64 / 32.0;
        table.push_row(vec![
            p.to_string(),
            cell(s),
            fmt_f64(ideal),
            cell(s.map(|s| s / ideal)),
            fmt_f64((p as f64).log2()),
            cell(s.map(f64::log2)),
        ]);
    }
    table
}

/// The Figure 3 trend: the speedup at 256 walks over 32 as the order grows.
fn cap_trend_table(samples: &mut Samples) -> Table {
    let mut table = Table::new(
        "Figure 3 trend: CAP speedup at 256 walks over 32 as the order grows",
        &[
            "order",
            "runs",
            "mean_iterations",
            "CoV",
            "speedup_256_vs_32",
            "ideal",
        ],
    );
    for order in CAP_TREND_ORDERS {
        let sim = samples.of(&Benchmark::CostasArray(order));
        let runs = sim.walks();
        let dist = sim.iteration_distribution();
        table.push_row(vec![
            order.to_string(),
            runs.to_string(),
            cell(dist.as_ref().map(EmpiricalDistribution::mean)),
            cell(
                dist.as_ref()
                    .map(EmpiricalDistribution::coefficient_of_variation),
            ),
            cell(speedup(dist.as_ref(), 32, 256)),
            fmt_f64(8.0),
        ]);
    }
    table
}

/// The headline claim: mean CSPLib speedups of "about 30 with 64 cores, 40
/// with 128 and more than 50 with 256", and a linear CAP curve, judged on
/// the Figure 3 sample.
fn headline_table(samples: &mut Samples) -> Table {
    let dists: Vec<_> = Benchmark::csplib_suite()
        .iter()
        .map(|b| samples.distribution(b))
        .collect();
    let mut table = Table::new(
        "headline: mean CSPLib speedup over 1 walk against the paper's claim",
        &["walks", "mean_speedup", "paper_claim"],
    );
    for p in WALKS.into_iter().filter(|&p| p > 1) {
        let speedups: Option<Vec<f64>> = dists.iter().map(|d| speedup(d.as_ref(), 1, p)).collect();
        let claim = match p {
            64 => "about 30",
            128 => "about 40",
            256 => "more than 50",
            _ => "-",
        };
        table.push_row(vec![
            p.to_string(),
            cell(speedups.map(|s| s.iter().sum::<f64>() / s.len() as f64)),
            claim.to_string(),
        ]);
    }
    let cap = samples.distribution(&Benchmark::CostasArray(CAP_ORDER));
    table.push_row(vec![
        format!("CAP-{CAP_ORDER} (vs 32)"),
        linearity(cap.as_ref()).to_string(),
        "linear (ideal)".to_string(),
    ]);
    table
}

/// "The bigger the benchmark, the better the speedup": two sizes of each
/// model at 256 walks.
fn size_table(samples: &mut Samples) -> Table {
    let pairs = [
        (Benchmark::MagicSquare(5), Benchmark::MagicSquare(6)),
        (Benchmark::AllInterval(14), Benchmark::AllInterval(18)),
        (Benchmark::CostasArray(10), Benchmark::CostasArray(12)),
    ];
    let mut table = Table::new(
        "speedup over 1 walk at 256 walks for two instance sizes (paper: bigger is better)",
        &[
            "model",
            "small_instance",
            "speedup_small",
            "large_instance",
            "speedup_large",
        ],
    );
    for (small, large) in pairs {
        let model = small
            .label()
            .split_whitespace()
            .next()
            .unwrap_or("?")
            .to_string();
        table.push_row(vec![
            model,
            small.label(),
            cell(speedup(samples.distribution(&small).as_ref(), 1, 256)),
            large.label(),
            cell(speedup(samples.distribution(&large).as_ref(), 1, 256)),
        ]);
    }
    table
}

/// CAP hardness: Adaptive Search's mean iterations and seconds next to the
/// backtracking solver's nodes and seconds, then the least-squares fit of
/// `ln(mean iterations)` against the order, extrapolated to the paper's
/// n = 22 at the largest measured order's iteration rate, alone and on 256
/// walks of exponential runtime (a 256th of the time).
fn hardness_table(samples: &mut Samples) -> Table {
    let mut table = Table::new(
        format!("CAP hardness: Adaptive Search against backtracking, fit extrapolated to n = {TARGET_ORDER}"),
        &[
            "order",
            "as_mean_iterations",
            "as_success_rate",
            "as_mean_seconds",
            "bt_nodes",
            "bt_seconds",
        ],
    );
    let mut log_means = Vec::new();
    let mut rate = None;
    for order in HARDNESS_ORDERS {
        let sim = samples.of(&Benchmark::CostasArray(order));
        let (iterations, seconds) = sim.records().iter().fold((0, 0.0), |(i, s), r| {
            (
                i + r.outcome.stats.iterations,
                s + r.outcome.elapsed.as_secs_f64(),
            )
        });
        rate = (seconds > 0.0).then(|| iterations as f64 / seconds);
        let mean = sim.iteration_distribution().map(|d| d.mean());
        if let Some(mean) = mean.filter(|&m| m > 0.0) {
            log_means.push((order as f64, mean.ln()));
        }
        let success = sim.success_rate();
        let started = Instant::now();
        let backtracking = BacktrackingSolver::default().solve(&CostasConstraint::new(order));
        let bt_seconds = started.elapsed().as_secs_f64();
        table.push_row(vec![
            order.to_string(),
            cell(mean),
            fmt_f64(success),
            cell(mean.zip(rate).map(|(m, r)| m / r)),
            backtracking.nodes.to_string(),
            fmt_f64(bt_seconds),
        ]);
    }
    if log_means.len() >= 2 {
        let n = log_means.len() as f64;
        let sx: f64 = log_means.iter().map(|(x, _)| x).sum();
        let sy: f64 = log_means.iter().map(|(_, y)| y).sum();
        let sxx: f64 = log_means.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = log_means.iter().map(|(x, y)| x * y).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        let intercept = (sy - slope * sx) / n;
        let iterations = (intercept + slope * TARGET_ORDER as f64).exp();
        let seconds = rate.map(|r| iterations / r);
        for (label, iterations, seconds) in [
            (
                "growth per order".to_string(),
                format!("x{:.2}", slope.exp()),
                None,
            ),
            (
                format!("{TARGET_ORDER} (fit)"),
                fmt_f64(iterations),
                seconds,
            ),
            (
                format!("{TARGET_ORDER} (fit) on 256 walks"),
                fmt_f64(iterations / 256.0),
                seconds.map(|s| s / 256.0),
            ),
        ] {
            let dash = || "-".to_string();
            table.push_row(vec![
                label,
                iterations,
                dash(),
                cell(seconds),
                dash(),
                dash(),
            ]);
        }
    }
    table
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
    use as_rng::{default_rng, exponential};
    use cbls_core::SearchConfig;
    use cbls_problems::NQueens;

    fn outcomes(sim: &SimulatedMultiWalk) -> Vec<(u64, bool, u64)> {
        sim.records()
            .iter()
            .map(|r| (r.seed, r.outcome.solved(), r.outcome.stats.iterations))
            .collect()
    }

    #[test]
    fn benchmark_seed_families_differ() {
        assert_ne!(fxhash(b"magic-square-6"), fxhash(b"all-interval-24"));
    }

    #[test]
    fn a_smaller_sample_is_a_prefix_of_a_larger_one() {
        let small = outcomes(&sequential_runs(&Benchmark::CostasArray(9), 3, 1));
        let large = outcomes(&sequential_runs(&Benchmark::CostasArray(9), 7, 1));
        assert_eq!(small[..], large[..3]);
    }

    #[test]
    fn lucky_starts_stay_in_the_distribution() {
        // Run 4 of costas-8 on the default seed starts on a solution.
        let sim = sequential_runs(&Benchmark::CostasArray(8), 5, 0x5EED);
        assert_eq!(sim.records()[4].outcome.stats.iterations, 0);
        let dist = sim.iteration_distribution().expect("costas-8 solves");
        assert_eq!(dist.min(), 0.0);
        let solved = sim.records().iter().filter(|r| r.outcome.solved());
        assert_eq!(dist.len(), solved.count());
    }

    #[test]
    fn unsolved_runs_have_no_distribution_and_print_a_dash() {
        let search = SearchConfig::builder()
            .max_iterations_per_restart(1)
            .max_restarts(0)
            .build();
        let sim = SimulatedMultiWalk::replay(
            &|| NQueens::new(30),
            &WalkBatch::uniform(1, &search, 3),
            &SequentialExecutor,
        );
        assert_eq!(sim.success_rate(), 0.0);
        let dist = sim.iteration_distribution();
        assert!(dist.is_none());
        assert_eq!(cell(speedup(dist.as_ref(), 1, 16)), "-");
        assert_eq!(linearity(dist.as_ref()), "-");
        // Every solved run a lucky start: E[min of p] is 0.
        let lucky = EmpiricalDistribution::new(&[0.0, 0.0]);
        assert_eq!(cell(speedup(Some(&lucky), 1, 16)), "-");
    }

    #[test]
    fn linearity_separates_exponential_from_shifted_exponential_runtimes() {
        let mut rng = default_rng(3);
        let linear: Vec<f64> = (0..3000).map(|_| exponential(&mut rng, 1e6)).collect();
        let bent: Vec<f64> = (0..3000)
            .map(|_| 5e5 + exponential(&mut rng, 5e5))
            .collect();
        assert_eq!(
            linearity(Some(&EmpiricalDistribution::new(&linear))),
            "near-ideal"
        );
        assert_eq!(
            linearity(Some(&EmpiricalDistribution::new(&bent))),
            "sub-ideal"
        );
    }

    #[test]
    fn every_table_has_its_rows_from_one_sample_per_benchmark() {
        let mut samples = Samples::new(Sampling {
            samples: 2,
            trend_samples: 3,
            master_seed: 1,
        });
        let tables: Vec<Table> = TABLES
            .iter()
            .map(|(_, table)| table(&mut samples))
            .collect();
        let rows: Vec<usize> = tables.iter().map(Table::len).collect();
        // csplib 6 walk counts; CAP 4; trend 3 orders; headline 5 + CAP;
        // size 3 pairs; hardness 6 orders + growth, n = 22, 256 walks.
        assert_eq!(rows, vec![6, 4, 3, 6, 3, 9]);
        // CSPLib 3, costas 8-13, magic-square 5, all-interval 14 and 18.
        assert_eq!(samples.runs.len(), 12);
        assert_eq!(samples.of(&Benchmark::CostasArray(10)).walks(), 3);
        assert_eq!(samples.of(&Benchmark::CostasArray(12)).walks(), 2);
        // Figure 3 is relative to 32 walks.
        let cap = tables[1].to_csv();
        assert!(cap
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("32,1.00,1.00,1.00,"));
        // Each measured order has a rate, and so does the n = 22 fit.
        let hardness = tables[5].to_csv();
        for row in hardness
            .lines()
            .skip(1)
            .filter(|r| !r.starts_with("growth"))
        {
            assert_ne!(row.split(',').nth(3), Some("-"), "{row}");
        }
    }

    #[test]
    fn env_overrides_are_optional() {
        let defaults = Sampling {
            samples: 100,
            trend_samples: 1_500,
            master_seed: 0x5EED,
        };
        assert_eq!(Sampling::parse(None, None), Ok(defaults));
        let sampling = Sampling::parse(Some("12"), None).unwrap();
        assert_eq!((sampling.samples, sampling.trend_samples), (12, 12));
        assert_eq!(sampling.master_seed, 0x5EED);
        assert_eq!(Sampling::parse(None, Some("7")).unwrap().master_seed, 7);
    }

    #[test]
    fn malformed_settings_are_errors_not_defaults() {
        for samples in ["1", "0", "-3", "1e3", "", " 12", "many"] {
            let error = Sampling::parse(Some(samples), None).unwrap_err();
            assert!(error.starts_with("CBLS_SAMPLES="), "{error}");
        }
        for seed in ["0x10", "-1", "1.5", "", "18446744073709551616"] {
            let error = Sampling::parse(Some("12"), Some(seed)).unwrap_err();
            assert!(error.starts_with("CBLS_SEED="), "{error}");
        }
        assert_eq!(Sampling::parse(Some("2"), None).unwrap().samples, 2);
    }
}

//! Regeneration of the paper's figures and headline tables.
//!
//! Every public function here corresponds to one artefact of the paper's
//! evaluation section and returns a [`Table`] (plus the underlying
//! predictions) that the binaries print and write to CSV.
//!
//! ## Time dilation (documented substitution)
//!
//! The paper's instances run for minutes to hours sequentially; this
//! repository's scaled-down instances run for milliseconds to seconds.  The
//! *shape* of a multi-walk speedup curve depends only on the normalized
//! runtime distribution, but the absolute run time also matters once the
//! platform's fixed job start-up overhead becomes comparable to the run
//! itself (the effect the paper reports for `perfect-square` at 128/256
//! cores).  To preserve both effects, each benchmark's measured iteration
//! distribution is mapped onto the paper's time scale: the reference
//! throughput is chosen so that the mean sequential run lasts
//! [`paper_scale_seconds`] seconds, mirroring the magnitudes reported in the
//! paper and its companion study.

use cbls_parallel::speedup::{mean_speedup_by_cores, SpeedupCurve};
use cbls_parallel::{SimulatedMultiWalk, SpeedupComparison, ThreadsExecutor};
use cbls_perfmodel::report::{fmt_f64, Table};
use cbls_perfmodel::{EmpiricalDistribution, Platform, SpeedupModel, SpeedupPrediction};
use cbls_portfolio::{Portfolio, PortfolioMember, Schedule};
use cbls_problems::{Benchmark, CostasArray};
use cbls_propagation::{BacktrackingSolver, CostasConstraint};
use std::time::Instant;

use crate::experiment::{
    collect_sequential_samples, iteration_distribution, median_throughput, success_rate,
    ExperimentConfig,
};

/// The sequential wall-clock scale (seconds) each benchmark is mapped onto,
/// matching the order of magnitude of the paper's runs: the CSPLib models run
/// for minutes, `perfect-square` only for a few seconds (which is why its
/// curve degrades at high core counts), and the Costas Array Problem for
/// about an hour at the scaled size (hours at n = 22).
#[must_use]
pub fn paper_scale_seconds(benchmark: &Benchmark) -> f64 {
    match benchmark {
        Benchmark::PerfectSquareCsplib | Benchmark::PerfectSquareOrder9 => 4.0,
        Benchmark::AllInterval(_) => 120.0,
        Benchmark::MagicSquare(_) => 240.0,
        Benchmark::CostasArray(_) => 3600.0,
        _ => 60.0,
    }
}

/// Reference throughput (iterations/second) that maps `dist`'s mean onto
/// `target_seconds` of sequential wall-clock time.
#[must_use]
pub fn paper_scale_throughput(dist: &EmpiricalDistribution, target_seconds: f64) -> f64 {
    assert!(target_seconds > 0.0);
    (dist.mean() / target_seconds).max(f64::MIN_POSITIVE)
}

/// The result of one benchmark's speedup experiment on one platform.
#[derive(Debug, Clone)]
pub struct BenchmarkSpeedup {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Success rate of the sequential sample collection.
    pub success_rate: f64,
    /// Measured sequential iteration distribution.
    pub distribution: EmpiricalDistribution,
    /// Locally measured engine throughput (iterations/second).
    pub local_throughput: f64,
    /// Prediction on the modelled platform.
    pub prediction: SpeedupPrediction,
}

/// Run the speedup experiment of Figures 1 and 2 for one benchmark on one
/// platform.  Returns `None` when no sequential sample solved the instance.
#[must_use]
pub fn benchmark_speedup(
    benchmark: &Benchmark,
    platform: &Platform,
    config: &ExperimentConfig,
    baseline_cores: usize,
) -> Option<BenchmarkSpeedup> {
    let samples = collect_sequential_samples(benchmark, config);
    let distribution = iteration_distribution(&samples)?;
    let local_throughput = median_throughput(&samples);
    let scaled_throughput = paper_scale_throughput(&distribution, paper_scale_seconds(benchmark));
    let model = SpeedupModel::new(
        benchmark.label(),
        distribution.clone(),
        scaled_throughput,
        platform.clone(),
    );
    let mut cores = config.core_counts.clone();
    if !cores.contains(&baseline_cores) {
        cores.push(baseline_cores);
    }
    let prediction = model.predict(&cores, baseline_cores);
    Some(BenchmarkSpeedup {
        benchmark: benchmark.clone(),
        success_rate: success_rate(&samples),
        distribution,
        local_throughput,
        prediction,
    })
}

/// Figure 1 / Figure 2: speedups of the three CSPLib benchmarks on a given
/// platform.  Returns the table (rows = core counts, one column per
/// benchmark, plus the ideal speedup) and the per-benchmark results.
#[must_use]
pub fn csplib_figure(
    platform: &Platform,
    config: &ExperimentConfig,
) -> (Table, Vec<BenchmarkSpeedup>) {
    let benchmarks = Benchmark::csplib_suite();
    let results: Vec<BenchmarkSpeedup> = benchmarks
        .iter()
        .filter_map(|b| benchmark_speedup(b, platform, config, 1))
        .collect();

    let mut header: Vec<String> = vec!["cores".to_string()];
    header.extend(results.iter().map(|r| r.benchmark.label()));
    header.push("ideal".to_string());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("speedups on {} (vs 1 core)", platform.name),
        &header_refs,
    );

    let mut cores = config.core_counts.clone();
    cores.sort_unstable();
    cores.dedup();
    for &c in &cores {
        let mut row = vec![c.to_string()];
        for r in &results {
            row.push(
                r.prediction
                    .speedup_at(c)
                    .map_or_else(|| "-".to_string(), fmt_f64),
            );
        }
        row.push(fmt_f64(c as f64));
        table.push_row(row);
    }
    (table, results)
}

/// Figure 3: Costas Array speedups relative to 32 cores (log-log in the
/// paper).  Returns the table and the underlying prediction.
#[must_use]
pub fn cap_figure(
    cap_order: usize,
    platform: &Platform,
    config: &ExperimentConfig,
) -> Option<(Table, BenchmarkSpeedup)> {
    let benchmark = Benchmark::CostasArray(cap_order);
    let mut cores: Vec<usize> = config
        .core_counts
        .iter()
        .copied()
        .filter(|&c| c >= 32)
        .collect();
    if cores.is_empty() {
        cores = vec![32, 64, 128, 256];
    }
    let cap_config = ExperimentConfig {
        core_counts: cores.clone(),
        ..config.clone()
    };
    let result = benchmark_speedup(&benchmark, platform, &cap_config, 32)?;

    let mut table = Table::new(
        format!(
            "CAP {cap_order} speedups w.r.t. 32 cores on {} (paper: CAP 22, ideal = cores/32)",
            platform.name
        ),
        &[
            "cores",
            "speedup_vs_32",
            "ideal",
            "efficiency",
            "log2_cores",
            "log2_speedup",
        ],
    );
    for point in &result.prediction.points {
        if point.cores < 32 {
            continue;
        }
        table.push_row(vec![
            point.cores.to_string(),
            fmt_f64(point.speedup),
            fmt_f64(point.ideal_speedup),
            fmt_f64(point.speedup / point.ideal_speedup),
            fmt_f64((point.cores as f64).log2()),
            fmt_f64(point.speedup.max(f64::MIN_POSITIVE).log2()),
        ]);
    }
    Some((table, result))
}

/// Companion to Figure 3: how the CAP speedup at 256 vs 32 cores approaches
/// the ideal factor of 8 as the order grows ("the bigger the benchmark, the
/// better the speedup").  The paper's n = 22 sits deep in this trend; the
/// scaled-down orders measured here show the approach to the ideal regime.
#[must_use]
pub fn cap_order_trend_table(
    orders: &[usize],
    platform: &Platform,
    config: &ExperimentConfig,
) -> Table {
    let mut table = Table::new(
        "CAP speedup at 256 cores (vs 32) as the order grows",
        &[
            "order",
            "mean_iterations",
            "CoV",
            "speedup_256_vs_32",
            "ideal",
        ],
    );
    for &order in orders {
        let sweep = ExperimentConfig {
            core_counts: vec![32, 64, 128, 256],
            ..config.clone()
        };
        if let Some(result) =
            benchmark_speedup(&Benchmark::CostasArray(order), platform, &sweep, 32)
        {
            table.push_row(vec![
                order.to_string(),
                fmt_f64(result.distribution.mean()),
                fmt_f64(result.distribution.coefficient_of_variation()),
                fmt_f64(result.prediction.speedup_at(256).unwrap_or(0.0)),
                fmt_f64(8.0),
            ]);
        }
    }
    table
}

/// The paper's headline claim: mean CSPLib speedups of "about 30 with 64
/// cores, 40 with 128 and more than 50 with 256", plus linearity of the CAP
/// curve.  Returns the summary table.
#[must_use]
pub fn summary_table(config: &ExperimentConfig, cap_order: usize) -> Table {
    let platform = Platform::ha8000();
    let (_, results) = csplib_figure(&platform, config);
    let curves: Vec<SpeedupCurve> = results
        .iter()
        .map(|r| {
            let measurements: Vec<(usize, f64)> = r
                .prediction
                .points
                .iter()
                .map(|p| (p.cores, p.expected_seconds))
                .collect();
            SpeedupCurve::from_measurements(r.benchmark.label(), 1, &measurements)
        })
        .collect();
    let means = mean_speedup_by_cores(&curves);

    let paper_claim = |cores: usize| -> &'static str {
        match cores {
            64 => "about 30",
            128 => "about 40",
            256 => "more than 50",
            _ => "-",
        }
    };

    let mut table = Table::new(
        "headline summary: mean CSPLib speedup vs paper claim (HA8000)",
        &["cores", "mean_speedup_measured", "paper_claim"],
    );
    for (cores, mean) in &means {
        if *cores == 1 {
            continue;
        }
        table.push_row(vec![
            cores.to_string(),
            fmt_f64(*mean),
            paper_claim(*cores).to_string(),
        ]);
    }

    // CAP linearity, appended as extra rows.
    if let Some((_, cap)) = cap_figure(cap_order, &platform, config) {
        let measurements: Vec<(usize, f64)> = cap
            .prediction
            .points
            .iter()
            .map(|p| (p.cores, p.expected_seconds))
            .collect();
        let curve = SpeedupCurve::from_measurements("cap", 32, &measurements);
        let ideal = curve.is_nearly_ideal(0.25);
        table.push_row(vec![
            format!("CAP-{cap_order} (vs 32)"),
            if ideal {
                "near-ideal".to_string()
            } else {
                "sub-ideal".to_string()
            },
            "linear (ideal)".to_string(),
        ]);
    }
    table
}

/// The "bigger benchmark ⇒ better speedup" observation: speedups at a fixed
/// core count for two sizes of the same model.
#[must_use]
pub fn size_scaling_table(config: &ExperimentConfig, cores: usize) -> Table {
    let platform = Platform::ha8000();
    let pairs: Vec<(Benchmark, Benchmark)> = vec![
        (Benchmark::MagicSquare(5), Benchmark::MagicSquare(6)),
        (Benchmark::AllInterval(14), Benchmark::AllInterval(18)),
        (Benchmark::CostasArray(10), Benchmark::CostasArray(12)),
    ];
    let mut table = Table::new(
        format!("speedup at {cores} cores for two instance sizes (bigger ⇒ better)"),
        &[
            "model",
            "small_instance",
            "speedup_small",
            "large_instance",
            "speedup_large",
        ],
    );
    for (small, large) in pairs {
        let sweep = ExperimentConfig {
            core_counts: vec![1, cores],
            ..config.clone()
        };
        let s = benchmark_speedup(&small, &platform, &sweep, 1);
        let l = benchmark_speedup(&large, &platform, &sweep, 1);
        if let (Some(s), Some(l)) = (s, l) {
            table.push_row(vec![
                small
                    .label()
                    .split_whitespace()
                    .next()
                    .unwrap_or("?")
                    .to_string(),
                small.label(),
                fmt_f64(s.prediction.speedup_at(cores).unwrap_or(0.0)),
                large.label(),
                fmt_f64(l.prediction.speedup_at(cores).unwrap_or(0.0)),
            ]);
        }
    }
    table
}

/// CAP sequential-hardness scaling (the paper: "finding big instances of
/// Costas arrays, such as n = 22, takes many hours in sequential
/// computation ... about one minute on average with 256 cores").  Measures
/// mean sequential iterations for a range of orders, fits the exponential
/// growth rate and extrapolates to the target order.
#[must_use]
pub fn cap_scaling_table(
    config: &ExperimentConfig,
    orders: &[usize],
    target_order: usize,
) -> Table {
    let mut table = Table::new(
        format!("CAP sequential hardness and extrapolation to n = {target_order}"),
        &[
            "order",
            "mean_iterations",
            "success_rate",
            "mean_seconds_local",
        ],
    );
    let mut log_means: Vec<(f64, f64)> = Vec::new();
    for &n in orders {
        let samples = collect_sequential_samples(&Benchmark::CostasArray(n), config);
        let rate = success_rate(&samples);
        if let Some(dist) = iteration_distribution(&samples) {
            let throughput = median_throughput(&samples);
            let mean_secs = dist.mean() / throughput.max(1.0);
            table.push_row(vec![
                n.to_string(),
                fmt_f64(dist.mean()),
                fmt_f64(rate),
                fmt_f64(mean_secs),
            ]);
            log_means.push((n as f64, dist.mean().ln()));
        }
    }
    // least-squares fit of ln(iterations) = a + b n
    if log_means.len() >= 2 {
        let n = log_means.len() as f64;
        let sx: f64 = log_means.iter().map(|(x, _)| x).sum();
        let sy: f64 = log_means.iter().map(|(_, y)| y).sum();
        let sxx: f64 = log_means.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = log_means.iter().map(|(x, y)| x * y).sum();
        let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        let a = (sy - b * sx) / n;
        let predicted_iters = (a + b * target_order as f64).exp();
        table.push_row(vec![
            format!("{target_order} (extrapolated)"),
            fmt_f64(predicted_iters),
            "-".to_string(),
            "-".to_string(),
        ]);
        table.push_row(vec![
            "growth rate".to_string(),
            format!("x{:.2} per +1 order", b.exp()),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    table
}

/// The introduction's claim: local search reaches instances "far beyond the
/// reach of classical propagation-based solvers".  Compares Adaptive Search
/// iterations/time against backtracking nodes/time on growing CAP orders.
#[must_use]
pub fn baseline_comparison_table(config: &ExperimentConfig, orders: &[usize]) -> Table {
    let mut table = Table::new(
        "Adaptive Search vs propagation-based backtracking on the CAP",
        &[
            "order",
            "as_mean_iterations",
            "as_mean_seconds",
            "bt_nodes_first_solution",
            "bt_seconds",
        ],
    );
    for &n in orders {
        let samples = collect_sequential_samples(&Benchmark::CostasArray(n), config);
        let (as_iters, as_secs) = match iteration_distribution(&samples) {
            Some(dist) => {
                let throughput = median_throughput(&samples);
                (dist.mean(), dist.mean() / throughput.max(1.0))
            }
            None => (f64::NAN, f64::NAN),
        };
        let solver = BacktrackingSolver::default();
        let started = Instant::now();
        let outcome = solver.solve(&CostasConstraint::new(n));
        let bt_secs = started.elapsed().as_secs_f64();
        table.push_row(vec![
            n.to_string(),
            fmt_f64(as_iters),
            fmt_f64(as_secs),
            outcome.nodes.to_string(),
            fmt_f64(bt_secs),
        ]);
    }
    table
}

/// The default heterogeneous strategy portfolio for the Costas Array
/// Problem: the paper's fixed restart policy, a Luby schedule and a
/// geometric schedule, all over the CAP-tuned engine parameters, cycled over
/// `walks` walks.
#[must_use]
pub fn costas_portfolio(order: usize, walks: usize, master_seed: u64) -> Portfolio {
    let tuned = Benchmark::CostasArray(order).tuned_config();
    let slice = tuned.max_iterations_per_restart;
    let prototypes = vec![
        PortfolioMember::new("fixed", tuned.clone(), Schedule::of_config(&tuned)),
        PortfolioMember::new("luby", tuned.clone(), Schedule::luby(slice / 8, 10_000)),
        PortfolioMember::new("geometric", tuned, Schedule::geometric(slice / 8, 2.0, 40)),
    ];
    Portfolio::cycled(&prototypes, walks).with_master_seed(master_seed)
}

/// The result of one portfolio experiment on the Costas Array Problem.
#[derive(Debug, Clone)]
pub struct PortfolioExperiment {
    /// The portfolio that was replayed.
    pub portfolio: Portfolio,
    /// The deterministic replay of every walk.
    pub simulation: SimulatedMultiWalk,
    /// Predicted-vs-observed speedup, one row per walk count.
    pub comparisons: Vec<SpeedupComparison>,
}

/// Predicted-vs-empirical portfolio speedup on the Costas Array Problem: a
/// heterogeneous portfolio (fixed / Luby / geometric restarts over the
/// CAP-tuned parameters) is replayed deterministically, its solved walks are
/// pooled into an empirical distribution, and the order-statistics
/// prediction `E[min of p draws]` is tabled against the observed prefix
/// minimum for each walk count `p`.  Returns `None` when no walk solved the
/// instance.
#[must_use]
pub fn portfolio_figure(
    order: usize,
    walks: usize,
    config: &ExperimentConfig,
) -> Option<(Table, PortfolioExperiment)> {
    let portfolio = costas_portfolio(order, walks, config.master_seed);
    let simulation = SimulatedMultiWalk::replay(
        &|| CostasArray::new(order),
        &portfolio.batch(),
        &ThreadsExecutor,
    );
    let walk_counts: Vec<usize> = (0..)
        .map(|k| 1usize << k)
        .take_while(|&p| p <= walks)
        .collect();
    let comparisons = simulation.predicted_vs_observed(&walk_counts)?;

    let mut table = Table::new(
        format!(
            "CAP {order} portfolio (fixed/luby/geometric, {walks} walks): predicted vs empirical speedup"
        ),
        &[
            "walks",
            "predicted_iters",
            "observed_iters",
            "predicted_speedup",
            "observed_speedup",
        ],
    );
    for row in &comparisons {
        table.push_row(vec![
            row.walks.to_string(),
            fmt_f64(row.predicted_iterations),
            row.observed_iterations
                .map_or_else(|| "-".to_string(), |i| i.to_string()),
            fmt_f64(row.predicted_speedup),
            row.observed_speedup
                .map_or_else(|| "-".to_string(), fmt_f64),
        ]);
    }
    Some((
        table,
        PortfolioExperiment {
            portfolio,
            simulation,
            comparisons,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            samples: 5,
            master_seed: 77,
            core_counts: vec![1, 4, 16, 64],
        }
    }

    #[test]
    fn paper_scales_are_positive_and_rank_correctly() {
        let ps = paper_scale_seconds(&Benchmark::PerfectSquareOrder9);
        let ai = paper_scale_seconds(&Benchmark::AllInterval(24));
        let cap = paper_scale_seconds(&Benchmark::CostasArray(12));
        assert!(ps > 0.0 && ps < ai && ai < cap);
    }

    #[test]
    fn benchmark_speedup_produces_a_monotone_curve() {
        let result = benchmark_speedup(
            &Benchmark::NQueens(16),
            &Platform::ha8000(),
            &tiny_config(),
            1,
        )
        .expect("queens solves");
        assert!((result.success_rate - 1.0).abs() < 1e-12);
        let speedups: Vec<f64> = result.prediction.points.iter().map(|p| p.speedup).collect();
        assert!(speedups.windows(2).all(|w| w[1] >= w[0] * 0.999));
    }

    #[test]
    fn csplib_figure_has_one_row_per_core_count() {
        // Use a cheap substitute suite by exercising the function end-to-end
        // with the tiny config (the real suite is used by the binaries).
        let (table, results) = csplib_figure(&Platform::grid5000_suno(), &tiny_config());
        assert!(!results.is_empty());
        assert_eq!(table.len(), 4); // 1, 4, 16, 64
    }

    #[test]
    fn cap_figure_is_relative_to_32_cores() {
        let cfg = ExperimentConfig {
            samples: 5,
            master_seed: 3,
            core_counts: vec![32, 64, 128],
        };
        let (_table, result) =
            cap_figure(9, &Platform::ha8000(), &cfg).expect("CAP 9 solves quickly");
        assert!((result.prediction.speedup_at(32).unwrap() - 1.0).abs() < 1e-9);
        assert!(result.prediction.speedup_at(128).unwrap() >= 1.0);
    }

    #[test]
    fn portfolio_figure_compares_prediction_and_observation() {
        let cfg = ExperimentConfig {
            samples: 4,
            master_seed: 13,
            core_counts: vec![1, 4],
        };
        let (table, experiment) = portfolio_figure(8, 8, &cfg).expect("CAP 8 solves quickly");
        assert_eq!(table.len(), 4); // walks = 1, 2, 4, 8
        assert_eq!(experiment.portfolio.walks(), 8);
        assert_eq!(experiment.comparisons.len(), 4);
        // the replay pools at least one solved walk, so a distribution exists
        assert!(experiment.simulation.iteration_distribution().is_some());
        // three distinct strategies ran
        let labels: std::collections::HashSet<&str> = experiment
            .simulation
            .records()
            .iter()
            .map(|r| r.label.as_str())
            .collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn baseline_table_has_one_row_per_order() {
        let table = baseline_comparison_table(&tiny_config(), &[6, 8]);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn cap_scaling_extrapolates() {
        let table = cap_scaling_table(&tiny_config(), &[7, 8, 9], 22);
        // measured rows + extrapolation + growth rate
        assert!(table.len() >= 4);
    }
}

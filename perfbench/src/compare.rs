//! `bench compare A.jsonl B.jsonl`: the mechanical regression flag.
//!
//! Both files hold `--out` records (one run per line).  For every
//! (workload, metric) pair `BENCHMARK.json` names and both sides measured,
//! the table shows each side's median and quartiles and a verdict:
//!
//! * `unresolved` — either side's quartile spread (as a share of its
//!   median) is wider than the metric's bound, and not every B run beats
//!   every A run;
//! * `REGRESSION` — B's median is worse than A's by more than the bound;
//! * `better` / `ok` — otherwise.
//!
//! Per-layer metrics have no bound and get no verdict.

use std::fs;
use std::path::Path;

use serde::Deserialize;

use crate::stats::{quartiles, relative_spread};

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// The workloads, in order.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics of the untraced pass.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of the traced pass.
    pub per_layer: Vec<MetricSpec>,
}

/// One workload entry.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
}

/// One metric entry.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit the metric is printed with.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of A's median by which B may be worse (end-to-end only).
    pub bound: Option<f64>,
}

impl Spec {
    /// Read and parse a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// The file cannot be read or is not a benchmark definition.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[derive(Debug, Clone, Deserialize)]
struct Record {
    workload: String,
    correct: bool,
    metrics: Vec<RecordMetric>,
}

#[derive(Debug, Clone, Deserialize)]
struct RecordMetric {
    name: String,
    value: Option<f64>,
}

fn load_records(path: &Path) -> Result<Vec<Record>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .flat_map(|r| &r.metrics)
        .filter(|m| m.name == metric)
        .filter_map(|m| m.value)
        .collect()
}

/// The verdict on one end-to-end (workload, metric) row.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let every_b_beats_every_a = b.iter().all(|&vb| a.iter().all(|&va| better(vb, va)));
    if relative_spread(a).max(relative_spread(b)) > bound {
        return if every_b_beats_every_a {
            "better"
        } else {
            "unresolved"
        };
    }
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let worse = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse > bound {
        "REGRESSION"
    } else if -worse > bound {
        "better"
    } else {
        "ok"
    }
}

/// Print the comparison table; `Ok(true)` when nothing regressed and every
/// B run was correct.
///
/// # Errors
///
/// A file cannot be read or parsed.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load_records(a)?, load_records(b)?);
    let mut clean = rb.iter().all(|r| r.correct);
    if !clean {
        println!("B has runs whose checks failed");
    }
    println!(
        "{:<14} {:<30} {:>34} {:>34}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    let fmt = |v: &[f64]| {
        let [q1, q2, q3] = quartiles(v);
        format!("{q2:.5e} [{q1:.3e}, {q3:.3e}]")
    };
    for workload in &spec.workloads {
        let metrics = spec.end_to_end.iter().chain(&spec.per_layer);
        for m in metrics {
            let (va, vb) = (
                values(&ra, &workload.name, &m.name),
                values(&rb, &workload.name, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let row_verdict = m
                .bound
                .map_or("-", |bound| verdict(&va, &vb, m.better == "lower", bound));
            clean &= row_verdict != "REGRESSION";
            println!(
                "{:<14} {:<30} {:>34} {:>34}  {row_verdict}",
                workload.name,
                format!("{} ({})", m.name, m.unit),
                fmt(&va),
                fmt(&vb),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // within the bound either way
        assert_eq!(
            verdict(&a, &[102.0, 103.0, 101.0, 102.5, 101.5], true, 0.05),
            "ok"
        );
        // a higher-is-better metric that dropped 20 %
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], false, 0.1),
            "REGRESSION"
        );
        // the same drop is an improvement when lower is better
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], true, 0.1),
            "better"
        );
        // B spreads wider than the bound: unresolved ...
        let wide = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&a, &wide, true, 0.1), "unresolved");
        // ... unless every B run beats every A run
        let wide_but_better = [10.0, 40.0, 20.0, 30.0, 25.0];
        assert_eq!(verdict(&a, &wide_but_better, true, 0.1), "better");
    }

    #[test]
    fn the_repository_benchmark_definition_parses() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Spec::load(&path).expect("BENCHMARK.json parses");
        assert!(!spec.workloads.is_empty());
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}

//! One workload run: set-up (timed, repeated), the measured pass, the
//! metrics, and the result line.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::calib::Calibration;
use crate::layers::{ladder, Instance};
use crate::service_mix::ServiceMix;
use crate::spans::SpanLog;
use crate::stats::{geomean, median, percentile, tail_percentile};
use crate::workloads::{ExecWorkload, Size, Tally};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Where traced runs write their span files, relative to the working
/// directory.
pub const SPAN_DIR: &str = ".bench_out";

/// Run options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured pass.
    pub seconds: f64,
    /// Per-layer pass instead of the end-to-end pass.
    pub trace: bool,
    /// Append the result as one JSON line to this file.
    pub out: Option<PathBuf>,
    /// Benchmark size.
    pub size: Size,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A metric named `name`.
#[must_use]
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Every check passed.
    pub correct: bool,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// The metrics of the pass.
    pub metrics: Vec<Metric>,
    /// Informational lines.
    pub notes: Vec<String>,
}

enum Loaded {
    Exec(ExecWorkload),
    Service(ServiceMix),
}

impl Loaded {
    /// The distinct instances of the workload, each with the walk count its
    /// requests use (the ladder's inputs).
    fn instances(&self) -> Vec<Instance> {
        let pairs: Vec<(String, usize)> = match self {
            Loaded::Exec(w) => w.shapes().iter().map(|s| (s.id.clone(), s.walks)).collect(),
            Loaded::Service(s) => s.shapes(),
        };
        let mut instances: Vec<Instance> = Vec::new();
        for (id, walks) in pairs {
            match instances.iter_mut().find(|i| i.id == id) {
                Some(known) => known.walks = known.walks.max(walks),
                None => instances.push(Instance { id, walks }),
            }
        }
        instances
    }
}

/// Measure `name` and assemble its report.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates it).
#[must_use]
pub fn measure(name: &str, options: &Options) -> Report {
    let mut calib = Calibration::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut loaded = None;
    for _ in 0..SETUPS {
        // The previous set-up is torn down before the clock starts.
        drop(loaded.take());
        for _ in 0..10 {
            calib.sample();
        }
        calib.sample_pair();
        let started = Instant::now();
        let fresh = if name == "service-mix" {
            Loaded::Service(ServiceMix::setup(
                options.seed,
                options.seconds,
                options.size,
            ))
        } else {
            Loaded::Exec(
                ExecWorkload::setup(name, options.seed, options.size)
                    .unwrap_or_else(|| panic!("unknown workload {name}")),
            )
        };
        setup_s.push(started.elapsed().as_secs_f64());
        loaded = Some(fresh);
    }
    let loaded = loaded.expect("at least one set-up");
    let instances = loaded.instances();
    let mut spans = SpanLog::new(Instant::now());
    let tally = match loaded {
        Loaded::Exec(mut w) => w.run(options.seconds, options.trace, &mut spans, &mut calib),
        Loaded::Service(s) => s.run(options.trace, &mut spans, &mut calib),
    };
    let metrics = if options.trace {
        let mut metrics = request_path(&tally);
        metrics.extend(ladder(&instances, options.seed, options.size));
        metrics
    } else {
        end_to_end(&tally, &setup_s, &calib)
    };
    let mut notes = tally.notes.clone();
    notes.push(format!(
        "machine speed {:.3} of nominal on one thread, {:.3} on two; raw setup {:.4} s",
        calib.speed(1),
        calib.speed(2),
        median(&setup_s)
    ));
    for (id, (_, rate)) in tally.engine_rates() {
        let work = &tally.shapes[&id];
        let n = work.critical.len();
        let iterations: u64 = work.critical.iter().map(|c| c.0).sum();
        let outside_ms = work.request_costs().map_or(f64::NAN, |c| c.1 * 1e3);
        notes.push(format!(
            "{id}: {rate:.0} iters/s raw; {n} requests, {:.1} iterations each on the critical path (nominal {:.0}), {outside_ms:.4} ms outside the search",
            iterations as f64 / n as f64,
            work.nominal,
        ));
    }
    let samples = tally.latency_ms.len();
    notes.push(format!(
        "{} requests, {samples} latency samples (highest percentile with ten beyond: {}), setup median of {SETUPS}",
        tally.attempted,
        tail_percentile(samples).map_or_else(|| "none".to_string(), |p| format!("p{p}")),
    ));
    if options.trace {
        let path = Path::new(SPAN_DIR).join(format!("{name}-seed{}.spans.jsonl", options.seed));
        match fs::create_dir_all(SPAN_DIR).and_then(|()| spans.write_jsonl(&path)) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                spans.spans().len(),
                path.display()
            )),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
    }
    let correct = tally.incorrect == 0 && metrics.iter().all(|m| m.value.is_finite());
    Report {
        workload: name.to_string(),
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// The end-to-end metrics of a pass; times and rates are scaled from the
/// measured machine speed to the nominal one (see [`crate::calib`]).
fn end_to_end(tally: &Tally, setup_s: &[f64], calib: &Calibration) -> Vec<Metric> {
    let rates: Vec<f64> = tally
        .engine_rates()
        .into_values()
        .filter(|(_, rate)| *rate > 0.0)
        .map(|(threads, rate)| rate / calib.speed(threads))
        .collect();
    vec![
        metric("setup_s", median(setup_s) * calib.speed(1), "s"),
        metric("req_per_s", nominal_request_rate(tally, calib), "1/s"),
        metric(
            "iters_per_s",
            if rates.is_empty() {
                f64::NAN
            } else {
                geomean(&rates)
            },
            "1/s",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Requests per second of the workload's request mix, each request priced
/// at its shape's nominal search: the time a request of the shape spends
/// outside the search, as measured, plus its nominal iterations at the
/// measured engine rate on the critical path, scaled to nominal machine
/// speed.  How many iterations a seed happens to need is factored out;
/// everything else a request waits for stays in.
fn nominal_request_rate(tally: &Tally, calib: &Calibration) -> f64 {
    let (mut requests, mut seconds) = (0usize, 0.0);
    for work in tally.shapes.values() {
        let Some((rate, outside_s)) = work.request_costs() else {
            continue;
        };
        let n = work.critical.len();
        requests += n;
        seconds += n as f64 * (outside_s + work.nominal * calib.speed(work.threads) / rate);
    }
    requests as f64 / seconds
}

/// The per-layer metrics of the traced pass itself: the workload's
/// request latencies and their blocking-path split, and the cost of
/// tracing them.
fn request_path(tally: &Tally) -> Vec<Metric> {
    let part = |k: usize| tally.paths.iter().map(|p| p[k]).collect::<Vec<f64>>();
    let (start, run, tail) = (part(0), part(1), part(2));
    vec![
        metric("req.p50_ms", percentile(&tally.latency_ms, 0.5), "ms"),
        metric("req.p95_ms", percentile(&tally.latency_ms, 0.95), "ms"),
        metric(
            "req.per_s",
            tally.closed.requests as f64 / tally.closed.seconds,
            "1/s",
        ),
        metric("req.start_ms", percentile(&start, 0.5), "ms"),
        metric("req.run_ms", percentile(&run, 0.5), "ms"),
        metric("req.tail_ms", percentile(&tail, 0.5), "ms"),
        metric("req.tail_p95_ms", percentile(&tail, 0.95), "ms"),
        metric(
            "obs.trace_overhead_frac",
            tally.untraced.rate() / tally.traced.rate() - 1.0,
            "frac",
        ),
    ]
}

/// Lower the process's peak resident set to its current resident set
/// (Linux `clear_refs` mode 5), so that the next workload run in the same
/// process reports its own peak and not an earlier workload's.
///
/// # Errors
///
/// The kernel does not offer the reset.
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set (`VmHWM`), in MiB; NaN where
/// `/proc/self/status` does not report it.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Measure, print the metrics and the result line, append to `--out`;
/// returns whether every check passed.
pub fn run_workload(name: &str, options: &Options) -> bool {
    let report = measure(name, options);
    for note in &report.notes {
        println!("# {}: {note}", report.workload);
    }
    for m in &report.metrics {
        println!("{:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&report));
    if let Some(out) = &options.out {
        let line = record_line(&report, options);
        let written = OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = written {
            eprintln!("bench: could not append to {}: {e}", out.display());
            return false;
        }
    }
    report.correct
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// The run's last stdout line.
#[must_use]
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The `--out` record: the result plus what `compare` groups by.
fn record_line(report: &Report, options: &Options) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":[{}]}}",
        report.workload,
        options.seed,
        options.trace,
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Spec;
    use crate::workloads::WORKLOADS;

    fn smoke(trace: bool) -> Options {
        Options {
            seed: 7,
            seconds: 0.2,
            trace,
            out: None,
            size: Size::Smoke,
        }
    }

    /// An earlier workload's peak — here 64 MiB touched and freed — is not
    /// reported as the next workload's once the peak is reset, which is
    /// what a run of several workloads does between them.
    #[test]
    fn a_reset_peak_leaves_an_earlier_allocation_out_of_the_next_workload() {
        let earlier = vec![1u8; 64 << 20];
        std::hint::black_box(&earlier);
        drop(earlier);
        assert!(peak_rss_mb() >= 64.0, "the allocation was resident");
        reset_peak_rss().expect("the kernel offers clear_refs");
        let report = measure("tiny-batches", &smoke(false));
        let peak = report
            .metrics
            .iter()
            .find(|m| m.name == "peak_rss_mb")
            .expect("reported")
            .value;
        assert!(peak < 48.0, "peak {peak} MiB includes the earlier 64 MiB");
    }

    /// Every workload at smoke size, untraced and traced: each metric
    /// `BENCHMARK.json` names is reported, with its unit and a finite
    /// value, every check passes and nothing fails.
    #[test]
    fn smoke_runs_report_every_metric_of_the_definition() {
        let spec = Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        for name in WORKLOADS {
            for (trace, expected) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
                let report = measure(name, &smoke(trace));
                assert!(report.correct, "{name} trace={trace}: {:?}", report.notes);
                assert_eq!(report.failed, 0, "{name} trace={trace}");
                assert!(report.attempted >= 2, "{name} trace={trace}");
                let got: Vec<(&str, &str)> = report
                    .metrics
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit))
                    .collect();
                let want: Vec<(&str, &str)> = expected
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str()))
                    .collect();
                assert_eq!(got, want, "{name} trace={trace}");
                let line = result_line(&report);
                assert!(
                    line.starts_with("{\"correct\": true, \"attempted\": "),
                    "{line}"
                );
                assert!(!line.contains("null"), "{line}");
            }
        }
    }
}

//! `bench`: the repository's layered benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin bench -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin bench -- compare A.jsonl B.jsonl
//! ```
//!
//! Every run prints its metrics by name with their units and ends its
//! standard output with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod audit;
mod calib;
mod compare;
mod exec;
mod layers;
mod report;
mod service_mix;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{reset_peak_rss, run_workload, Options};
use workloads::{Size, WORKLOADS};

const USAGE: &str = "usage: bench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]\n       bench compare A.jsonl B.jsonl";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Compare(a, b)) => {
            let verdict = compare::Spec::load(Path::new("BENCHMARK.json"))
                .and_then(|spec| compare::compare(&spec, &a, &b));
            match verdict {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(message) => {
                    eprintln!("bench compare: {message}");
                    ExitCode::from(2)
                }
            }
        }
        Ok(Command::Run(options, workloads)) => {
            let mut correct = true;
            for name in &workloads {
                if workloads.len() > 1 {
                    if let Err(e) = reset_peak_rss() {
                        eprintln!("bench: peak_rss_mb of {name} includes earlier workloads: {e}");
                    }
                }
                correct &= run_workload(name, &options);
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("bench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

enum Command {
    Run(Options, Vec<String>),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().is_some_and(|a| a == "compare") {
        return match &args[1..] {
            [a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("compare takes two result files".to_string()),
        };
    }
    let mut options = Options {
        seed: 2012,
        seconds: 20.0,
        trace: false,
        out: None,
        size: Size::Full,
    };
    let mut workloads: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                workloads.push(name.clone());
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                options.seconds = s;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => options.out = Some(value()?.into()),
            "--smoke" => options.size = Size::Smoke,
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| (*w).to_string()).collect();
    }
    Ok(Command::Run(options, workloads))
}

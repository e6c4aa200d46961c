//! `cbls-trace` — record and inspect Adaptive Search trace recordings.
//!
//! ```text
//! cbls-trace record --bench costas-14 [--walks N] [--seed S]
//!                   [--backend sequential|threads] [--quick]
//!                   [--no-phases] [--capacity N] [--complete]
//!                   [--timeout-ms T] [--out FILE] [--chrome FILE]
//!                   [--jsonl FILE]
//! cbls-trace summary FILE
//! cbls-trace chrome FILE [--out FILE]
//! cbls-trace jsonl FILE [--out FILE]
//! cbls-trace diff FILE_A FILE_B
//! cbls-trace validate FILE [--chrome]
//! ```
//!
//! `record` runs a benchmark batch with a [`FlightRecorder`] attached and
//! saves the [`TraceRecording`] as JSON; the other subcommands load such a
//! file back and export or render it.

use std::process::ExitCode;
use std::time::Duration;

use cbls_obs::{
    chrome_trace_json, render_diff, render_summary, validate_chrome_trace, FlightRecorder,
    RecorderConfig, TraceMeta, TraceRecording,
};
use cbls_parallel::{SequentialExecutor, ThreadsExecutor, WalkBatch, WalkExecutor};
use cbls_problems::Benchmark;

const USAGE: &str = "usage:
  cbls-trace record --bench <id> [--walks N] [--seed S]
                    [--backend sequential|threads] [--quick]
                    [--no-phases] [--capacity N] [--complete]
                    [--timeout-ms T] [--out FILE] [--chrome FILE] [--jsonl FILE]
  cbls-trace summary <recording.json>
  cbls-trace chrome <recording.json> [--out FILE]
  cbls-trace jsonl <recording.json> [--out FILE]
  cbls-trace diff <a.json> <b.json>
  cbls-trace validate <file> [--chrome]

benchmark ids follow the catalog: queens-64, costas-14, magic-square-10,
all-interval-16, langford-12, alpha, perfect-square-order9,
magic-sequence-20, golomb-8, coloring-60x4, qcp-10, ...";

fn fail(message: &str) -> ExitCode {
    eprintln!("cbls-trace: {message}");
    ExitCode::FAILURE
}

/// The `record` subcommand's parsed flags.
struct RecordArgs {
    bench: Benchmark,
    walks: usize,
    seed: u64,
    backend: String,
    phases: bool,
    capacity: usize,
    complete: bool,
    timeout_ms: Option<u64>,
    out: Option<String>,
    chrome: Option<String>,
    jsonl: Option<String>,
}

fn parse_record(args: &[String]) -> Result<RecordArgs, String> {
    let mut bench: Option<Benchmark> = None;
    let mut walks: Option<usize> = None;
    let mut seed = 42u64;
    let mut backend = "sequential".to_string();
    let mut phases = true;
    let mut capacity = 4096usize;
    let mut complete = false;
    let mut timeout_ms: Option<u64> = None;
    let mut quick = false;
    let mut out = None;
    let mut chrome = None;
    let mut jsonl = None;

    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        let flag = args[*i].clone();
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => {
                let id = value(&mut i)?;
                bench = Some(
                    Benchmark::from_id(&id).ok_or_else(|| format!("unknown benchmark {id:?}"))?,
                );
            }
            "--walks" => {
                walks = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|_| "bad --walks".to_string())?,
                );
            }
            "--seed" => {
                seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--backend" => backend = value(&mut i)?,
            "--capacity" => {
                capacity = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --capacity".to_string())?;
            }
            "--timeout-ms" => {
                timeout_ms = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|_| "bad --timeout-ms".to_string())?,
                );
            }
            "--quick" => quick = true,
            "--no-phases" => phases = false,
            "--complete" => complete = true,
            "--out" => out = Some(value(&mut i)?),
            "--chrome" => chrome = Some(value(&mut i)?),
            "--jsonl" => jsonl = Some(value(&mut i)?),
            other => return Err(format!("unknown record flag {other:?}")),
        }
        i += 1;
    }
    let bench = bench.ok_or_else(|| "record needs --bench <id>".to_string())?;
    // `--quick` is the CI smoke preset, a tiny batch with a hard wall-clock
    // cap: it fills in only what no flag gave, wherever it stands.
    let walks = walks.unwrap_or(if quick { 2 } else { 4 });
    let timeout_ms = timeout_ms.or(quick.then_some(10_000));
    if !matches!(backend.as_str(), "sequential" | "threads") {
        return Err(format!("unknown backend {backend:?}"));
    }
    // The recorder needs a walk to record and room for one event.
    if walks == 0 {
        return Err("--walks must be at least 1".to_string());
    }
    if capacity == 0 {
        return Err("--capacity must be at least 1".to_string());
    }
    Ok(RecordArgs {
        bench,
        walks,
        seed,
        backend,
        phases,
        capacity,
        complete,
        timeout_ms,
        out,
        chrome,
        jsonl,
    })
}

fn record(args: &RecordArgs) -> Result<TraceRecording, String> {
    let bench = args.bench.clone();
    let factory = || bench.build();
    let mut batch = WalkBatch::uniform(args.seed, &bench.tuned_config(), args.walks);
    if args.complete {
        batch = batch.run_to_completion();
    }
    if let Some(ms) = args.timeout_ms {
        batch = batch.with_timeout(Duration::from_millis(ms));
    }
    let config = RecorderConfig {
        capacity: args.capacity,
        phases: args.phases,
        ..RecorderConfig::default()
    };
    let recorder = FlightRecorder::new(
        TraceMeta {
            benchmark: bench.id(),
            backend: args.backend.clone(),
            master_seed: args.seed,
            walks: args.walks,
        },
        config,
    );
    let execution = match args.backend.as_str() {
        "sequential" => SequentialExecutor.execute_with_telemetry(&factory, &batch, &recorder),
        "threads" => ThreadsExecutor.execute_with_telemetry(&factory, &batch, &recorder),
        other => return Err(format!("unknown backend {other:?}")),
    };
    let recording = recorder.finish(&execution);
    recording.validate()?;
    Ok(recording)
}

fn load(path: &str) -> Result<TraceRecording, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let recording: TraceRecording =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path:?}: {e}"))?;
    recording.validate()?;
    Ok(recording)
}

fn save(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path:?}: {e}"))
}

fn emit(out: Option<&str>, contents: &str) -> Result<(), String> {
    match out {
        Some(path) => save(path, contents),
        None => {
            print!("{contents}");
            Ok(())
        }
    }
}

/// `FILE [--out FILE]`-shaped argument lists (`chrome` / `jsonl`).
fn parse_export(args: &[String]) -> Result<(String, Option<String>), String> {
    match args {
        [file] => Ok((file.clone(), None)),
        [file, flag, out] if flag == "--out" => Ok((file.clone(), Some(out.clone()))),
        _ => Err("expected FILE [--out FILE]".to_string()),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => return Err(format!("missing subcommand\n{USAGE}")),
    };
    match command {
        "record" => {
            let parsed = parse_record(rest)?;
            let recording = record(&parsed)?;
            if let Some(path) = parsed.chrome.as_deref() {
                let json = chrome_trace_json(&recording);
                validate_chrome_trace(&json)?;
                save(path, &json)?;
            }
            if let Some(path) = parsed.jsonl.as_deref() {
                save(path, &recording.to_jsonl())?;
            }
            let json = serde_json::to_string_pretty(&recording)
                .map_err(|e| format!("cannot serialize recording: {e}"))?;
            match parsed.out.as_deref() {
                Some(path) => {
                    save(path, &json)?;
                    println!("{}", render_summary(&recording));
                }
                // No --out: the recording itself goes to stdout.
                None => println!("{json}"),
            }
            Ok(())
        }
        "summary" => match rest {
            [file] => {
                print!("{}", render_summary(&load(file)?));
                Ok(())
            }
            _ => Err("summary takes exactly one file".to_string()),
        },
        "chrome" => {
            let (file, out) = parse_export(rest)?;
            let json = chrome_trace_json(&load(&file)?);
            validate_chrome_trace(&json)?;
            emit(out.as_deref(), &json)
        }
        "jsonl" => {
            let (file, out) = parse_export(rest)?;
            emit(out.as_deref(), &load(&file)?.to_jsonl())
        }
        "diff" => match rest {
            [a, b] => {
                print!("{}", render_diff(&load(a)?, &load(b)?));
                Ok(())
            }
            _ => Err("diff takes exactly two files".to_string()),
        },
        "validate" => match rest {
            [file] => {
                let recording = load(file)?;
                println!(
                    "ok: {} ({} walks, {} lifecycle events, {} samples)",
                    recording.schema,
                    recording.meta.walks,
                    recording.lifecycle.len(),
                    recording.samples.len()
                );
                Ok(())
            }
            [file, flag] if flag == "--chrome" => {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {file:?}: {e}"))?;
                let stats = validate_chrome_trace(&text)?;
                println!(
                    "ok: chrome trace with {} events, {} walk tracks, {} phase slices, {} cost samples",
                    stats.events, stats.walk_tracks, stats.phase_slices, stats.cost_samples
                );
                Ok(())
            }
            _ => Err("validate takes FILE [--chrome]".to_string()),
        },
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => fail(&message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_args(flags: &[&str]) -> Vec<String> {
        ["--bench", "queens-8"]
            .iter()
            .chain(flags)
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn record_rejects_zero_walks_and_zero_capacity() {
        for flag in ["--walks", "--capacity"] {
            let error = parse_record(&record_args(&[flag, "0"]))
                .err()
                .unwrap_or_else(|| panic!("{flag} 0 is rejected"));
            assert!(error.contains(flag), "{flag}: {error}");
        }
        let smallest = parse_record(&record_args(&["--walks", "1", "--capacity", "1"]))
            .expect("one walk and one slot are legal");
        assert_eq!((smallest.walks, smallest.capacity), (1, 1));
    }

    fn parsed(flags: &[&str]) -> RecordArgs {
        parse_record(&record_args(flags)).expect("legal flags")
    }

    #[test]
    fn quick_keeps_an_explicit_walk_count_on_either_side() {
        assert_eq!(parsed(&["--walks", "4", "--quick"]).walks, 4);
        assert_eq!(parsed(&["--quick", "--walks", "4"]).walks, 4);
    }

    #[test]
    fn quick_alone_records_two_walks_under_a_ten_second_cap() {
        let quick = parsed(&["--quick"]);
        assert_eq!((quick.walks, quick.timeout_ms), (2, Some(10_000)));
        let plain = parsed(&[]);
        assert_eq!((plain.walks, plain.timeout_ms), (4, None));
    }

    #[test]
    fn quick_keeps_an_explicit_timeout_on_either_side() {
        for flags in [
            ["--timeout-ms", "250", "--quick"],
            ["--quick", "--timeout-ms", "250"],
        ] {
            assert_eq!(parsed(&flags).timeout_ms, Some(250), "{flags:?}");
        }
    }
}

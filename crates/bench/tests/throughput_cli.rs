//! The throughput binary accepts exactly `--quick` and `--out <path>`: any
//! other command line prints the usage and exits with status 2 before it
//! measures or writes anything.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run the binary on `args` in a fresh directory; return its exit code and
/// the names of the files it left there.
fn run_in_empty_dir(case: usize, args: &[&str]) -> (Option<i32>, Vec<String>) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("throughput-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_throughput"))
        .args(args)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // A misread command line starts a measurement that runs for minutes:
    // stop it instead of waiting it out.
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if started.elapsed() > Duration::from_secs(30) {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{args:?}: still running after 30 s, so it started measuring");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let written = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    (status.code(), written)
}

#[test]
fn malformed_command_lines_exit_2_and_write_nothing() {
    let cases: [&[&str]; 6] = [
        &["--out"],
        &["--quik"],
        &["--quick", "extra"],
        &["--out", "--quick"],
        &["--quick", "--quick"],
        &["--out", "a.json", "--out", "b.json"],
    ];
    for (case, args) in cases.into_iter().enumerate() {
        let (code, written) = run_in_empty_dir(case, args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}

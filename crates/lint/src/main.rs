//! The `cbls-lint` binary: lint every `crates/*/src` file of the workspace.
//!
//! ```text
//! cargo run -p cbls-lint                  # lint the whole tree
//! cargo run -p cbls-lint -- --root DIR    # explicit workspace root
//! cargo run -p cbls-lint -- FILE...       # lint specific files
//! cargo run -p cbls-lint -- --rules       # list the rules and exit
//! ```
//!
//! Given files, it runs the five per-file rules only: `pub-item-has-caller`
//! needs the whole tree.
//!
//! Exit status is 0 when the tree is clean and 1 on any finding, so CI can
//! fail the build directly.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cbls_lint::{lint_file, lint_tree, rules};

fn workspace_root() -> PathBuf {
    // crates/lint/ -> crates/ -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mut root = workspace_root();
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules" => {
                for r in rules::RULES {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("cbls-lint: --root needs a directory");
                    return ExitCode::FAILURE;
                };
                root = PathBuf::from(dir);
            }
            other => files.push(PathBuf::from(other)),
        }
    }

    let (findings, scanned) = if files.is_empty() {
        match lint_tree(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cbls-lint: cannot walk {}: {e}", root.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        let count = files.len();
        let mut all = Vec::new();
        for path in files {
            let rel = path.to_string_lossy().replace('\\', "/");
            match lint_file(&path, &rel) {
                Ok(f) => all.extend(f),
                Err(e) => {
                    eprintln!("cbls-lint: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        (all, count)
    };

    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        eprintln!("cbls-lint: clean ({scanned} files)");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "cbls-lint: {} finding(s) across {scanned} files",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

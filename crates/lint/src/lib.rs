//! # cbls-lint — repo-specific static analysis
//!
//! The performance story of this workspace rests on contracts the compiler
//! cannot see: the engine's hot-path probe methods must be alloc-free, every
//! wall-clock read must flow through `cbls_core::stop`'s monotonic deadlines,
//! each atomic memory ordering must be deliberate, an `IncrementalProfile`
//! must never claim a hook its `impl Evaluator` does not override, and the
//! executor supervision paths must never `.unwrap()` a join or
//! channel-receive result (a faulted walk becomes a structured `WalkFault`,
//! not batch death).  A sixth rule, `pub-item-has-caller`, keeps test-only
//! code out of the library crates: every `pub` item there needs a use
//! outside tests.
//! `cbls-lint` enforces all six with a hand-rolled token scanner (no
//! `syn`/registry access — same approach as the vendored `serde_derive`):
//! see [`rules`] for the rule set and the `lint: allow(<rule>) — <reason>`
//! escape.
//!
//! Run over the whole tree (every `crates/*/src` file, plus the files whose
//! uses `pub-item-has-caller` counts) with `cargo run -p cbls-lint`; the
//! binary exits non-zero on any finding.  The static alloc rule is paired
//! with a runtime counterpart: `tests/alloc_free.rs` drives the same hot
//! paths under a counting global allocator and catches the indirect
//! allocations no token scanner can see.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod callers;
pub mod rules;
pub mod scanner;
pub mod structure;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Finding, HOT_PATH_FNS, PROFILE_CLAIMS, RULES};

/// Lint one file's source text.  `rel_path` is used both for reporting and
/// for the wall-clock exemption (`crates/core/src/stop.rs`, `crates/bench`).
#[must_use]
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    rules::lint_scanned(rel_path, &scanner::scan(source))
}

/// Lint one file from disk, reporting it under `rel_path`.
///
/// # Errors
///
/// Returns any I/O error from reading the file.
pub fn lint_file(path: &Path, rel_path: &str) -> io::Result<Vec<Finding>> {
    Ok(lint_source(rel_path, &fs::read_to_string(path)?))
}

/// Every `.rs` file under `root/crates/*/src`, sorted for deterministic
/// output.
///
/// # Errors
///
/// Returns any I/O error from traversing the tree.
pub fn collect_tree(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `crates/*/src` file under `root` and run the tree-level rule
/// `pub-item-has-caller` over the tree; returns the findings plus the number
/// of `crates/*/src` files scanned.
///
/// # Errors
///
/// Returns any I/O error from traversing or reading the tree.
pub fn lint_tree(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let files = collect_tree(root)?;
    let count = files.len();
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_file(&path, &rel)?);
    }
    findings.extend(callers::check_tree(root)?);
    Ok((findings, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_yields_no_findings() {
        let src = "impl Evaluator for Foo {\n  fn cost(&self, p: &[usize]) -> i64 { 0 }\n}";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn findings_display_with_location() {
        let f = Finding {
            rule: rules::NO_WALLCLOCK_OUTSIDE_STOP,
            file: "crates/x/src/a.rs".into(),
            line: 7,
            message: "m".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/a.rs:7: [no-wallclock-outside-stop] m"
        );
    }
}

//! The fixture suite: every rule must fire on its seeded-violation file
//! with the right rule name and line, the escape comment must suppress, and
//! malformed escapes must be rejected.

use std::path::Path;

use cbls_lint::{lint_file, rules, Finding};

fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    lint_file(&path, &format!("fixtures/{name}")).expect("fixture readable")
}

fn rule_lines(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn no_alloc_hot_path_fires_on_every_banned_shape() {
    let findings = lint_fixture("no_alloc_hot_path.rs");
    // One finding per seeded allocation, at the seeded line, nothing else.
    assert_eq!(
        rule_lines(&findings, rules::NO_ALLOC_HOT_PATH),
        vec![15, 16, 17, 22, 28, 33, 34, 68, 78, 79, 80, 81],
        "findings: {findings:#?}"
    );
    assert_eq!(findings.len(), 12, "findings: {findings:#?}");
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    for pattern in [
        ".to_vec()",
        ".clone()",
        ".collect()",
        "Vec::new()",
        "Box::new()",
        "String::from()",
        "vec![..]",
        ".to_string()",
        ".to_owned()",
        "format!(..)",
        "Vec::with_capacity()",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(pattern)),
            "no finding mentions {pattern}: {messages:?}"
        );
    }
    // The batched probe row is guarded like the scalar probe.
    assert!(
        messages.iter().any(|m| m.contains("`cost_if_swaps`")),
        "no finding inside the batched row: {messages:?}"
    );
}

#[test]
fn no_alloc_hot_path_guards_recording_methods() {
    let findings = lint_fixture("obs_recording.rs");
    // One finding per seeded allocation inside `record` / `observe_phase`,
    // nothing from the near-miss helpers (`observer`, `record_summary`),
    // the escaped impl or the trait default.
    assert_eq!(
        rule_lines(&findings, rules::NO_ALLOC_HOT_PATH),
        vec![12, 13, 18, 19],
        "findings: {findings:#?}"
    );
    assert_eq!(findings.len(), 4, "findings: {findings:#?}");
    assert!(rules::is_hot_path_fn("record"));
    assert!(rules::is_hot_path_fn("observe_phase"));
    assert!(!rules::is_hot_path_fn("observer"));
    assert!(!rules::is_hot_path_fn("record_summary"));
}

#[test]
fn no_alloc_hot_path_guards_the_service_admission_decision() {
    let findings = lint_fixture("service_admission.rs");
    // One finding per seeded allocation inside the `admit` impl method
    // (line 14 holds two: `.to_string()` and `.clone()`), nothing from the
    // near-miss helper (`admittance`), the escaped impl or the free
    // function of the same name.
    assert_eq!(
        rule_lines(&findings, rules::NO_ALLOC_HOT_PATH),
        vec![13, 14, 14],
        "findings: {findings:#?}"
    );
    assert_eq!(findings.len(), 3, "findings: {findings:#?}");
    assert!(rules::is_hot_path_fn("admit"));
    assert!(!rules::is_hot_path_fn("admittance"));
}

#[test]
fn no_alloc_hot_path_escapes_and_trait_defaults_are_clean() {
    let findings = lint_fixture("no_alloc_hot_path.rs");
    // The `Allowed` impl (escaped) and the trait default body contribute
    // nothing: all findings live in the `Fixture` impl (lines < 45) or the
    // seeded `BatchedFixture` and `OwningFixture` impls (lines >= 63).
    assert!(
        findings.iter().all(|f| f.line < 45 || f.line >= 63),
        "findings leaked past the seeded impls: {findings:#?}"
    );
}

#[test]
fn wallclock_rule_fires_outside_stop_and_bench() {
    let findings = lint_fixture("wallclock.rs");
    // A function merely *named* `monotonic_now` (line 25) gets no exemption
    // outside the stop module — the funnel is both path- and name-scoped.
    assert_eq!(
        rule_lines(&findings, rules::NO_WALLCLOCK_OUTSIDE_STOP),
        vec![6, 10, 25],
        "findings: {findings:#?}"
    );
    assert_eq!(findings.len(), 3);
}

#[test]
fn wallclock_rule_respects_the_exempt_files() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("wallclock.rs");
    let source = std::fs::read_to_string(path).unwrap();
    // The bench crate stays blanket-exempt: measurement code times things.
    let findings = cbls_lint::lint_source("crates/bench/src/throughput.rs", &source);
    assert_eq!(
        rule_lines(&findings, rules::NO_WALLCLOCK_OUTSIDE_STOP),
        Vec::<u32>::new(),
        "bench must be exempt"
    );
    // The stop module is only *structurally* exempt: the `monotonic_now`
    // body (line 25) is the single permitted call site, while the same
    // calls elsewhere in the file still fire — this is the regression shape
    // that let `deadline_passed` bypass the funnel unnoticed.
    assert!(rules::wallclock_funnel_file("crates/core/src/stop.rs"));
    assert!(!rules::wallclock_exempt("crates/core/src/stop.rs"));
    let findings = cbls_lint::lint_source("crates/core/src/stop.rs", &source);
    assert_eq!(
        rule_lines(&findings, rules::NO_WALLCLOCK_OUTSIDE_STOP),
        vec![6, 10],
        "only the funnel body is exempt under stop.rs: {findings:#?}"
    );
}

#[test]
fn atomics_rule_requires_justifications() {
    let findings = lint_fixture("atomics.rs");
    assert_eq!(
        rule_lines(&findings, rules::ATOMICS_ORDERING_JUSTIFIED),
        vec![6, 19],
        "findings: {findings:#?}"
    );
    assert_eq!(findings.len(), 2);
    // The SeqCst finding must say what a justification needs to rule out.
    let seqcst = findings.iter().find(|f| f.line == 19).unwrap();
    assert!(seqcst.message.contains("SeqCst"));
    assert!(seqcst.message.contains("Acquire/Release"));
}

#[test]
fn incremental_contract_rule_catches_overclaiming_profiles() {
    let findings = lint_fixture("incremental_contract.rs");
    let lines = rule_lines(&findings, rules::INCREMENTAL_CONTRACT_COMPLETE);
    assert_eq!(lines, vec![13, 13, 64], "findings: {findings:#?}");
    assert_eq!(findings.len(), 3);
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("`executed_swap`")));
    assert!(messages.iter().any(|m| m.contains("`touched_by_swap`")));
    // `batched_probes: true` without the row override is an overclaim too.
    assert!(messages.iter().any(|m| m.contains("`cost_if_swaps`")));
    assert!(
        messages.iter().all(|m| m.contains("Overclaiming")),
        "honest/silent/modest/batch-honest impls must stay clean: {messages:?}"
    );
}

#[test]
fn unwrap_in_supervisor_fires_on_join_and_recv_results() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("unwrap_in_supervisor.rs");
    let source = std::fs::read_to_string(path).unwrap();
    // Under a supervision path: one finding per seeded unwrap/expect, the
    // escaped call, the match-and-rethrow idiom and the non-join unwrap
    // stay clean.
    let findings = cbls_lint::lint_source("crates/resilience/src/supervisor.rs", &source);
    assert_eq!(
        rule_lines(&findings, rules::NO_UNWRAP_IN_SUPERVISOR),
        vec![5, 9, 13, 17],
        "findings: {findings:#?}"
    );
    assert_eq!(findings.len(), 4, "findings: {findings:#?}");
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("`.expect()`")));
    assert!(messages.iter().any(|m| m.contains("`recv()`")));
    assert!(messages.iter().any(|m| m.contains("`try_recv()`")));
}

#[test]
fn unwrap_in_supervisor_is_scoped_to_supervision_paths() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("unwrap_in_supervisor.rs");
    let source = std::fs::read_to_string(path).unwrap();
    for (rel, covered) in [
        ("crates/parallel/src/executor.rs", true),
        ("crates/parallel/src/supervision.rs", true),
        ("crates/resilience/src/retry.rs", true),
        ("crates/parallel/src/simulate.rs", false),
        ("crates/core/src/engine.rs", false),
    ] {
        assert_eq!(rules::supervisor_scope(rel), covered, "{rel}");
        let findings = cbls_lint::lint_source(rel, &source);
        let fired = !rule_lines(&findings, rules::NO_UNWRAP_IN_SUPERVISOR).is_empty();
        assert_eq!(fired, covered, "{rel}: scope mismatch");
    }
}

#[test]
fn malformed_escapes_are_findings_not_silence() {
    let findings = lint_fixture("malformed_allow.rs");
    assert_eq!(
        rule_lines(&findings, rules::MALFORMED_LINT_ALLOW),
        vec![4, 9, 14],
        "findings: {findings:#?}"
    );
}

#[test]
fn the_tree_itself_is_clean() {
    // The workspace must hold its own contracts: running the linter over
    // `crates/*/src` from the test keeps `cargo test -q` equivalent to the
    // CI lint job.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let (findings, scanned) = cbls_lint::lint_tree(root).expect("tree walk");
    assert!(
        findings.is_empty(),
        "cbls-lint found violations:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // All nine product crates plus the linter itself are in scope.
    assert!(scanned >= 60, "only {scanned} files scanned");
}

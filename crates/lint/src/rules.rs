//! The five repo-specific lint rules, plus the `lint: allow(...)` escape.
//!
//! Each rule reports [`Finding`]s over one scanned file.  A finding at line
//! `L` is suppressed by a comment *starting* with the marker, of the form
//! `lint: allow(<rule-name>) — <reason>`, placed on line `L` itself or on
//! the line directly above; the reason is mandatory.  A comment that starts
//! with `lint:` but does not parse, names an unknown rule or omits the
//! reason is itself reported (rule `malformed-lint-allow`), so a typo can
//! never silently disable enforcement.

use crate::scanner::{Comment, Scanned, Token, TokenKind};
use crate::structure::{analyze, Structure};

/// Rule: hot-path probe methods must not allocate.
pub const NO_ALLOC_HOT_PATH: &str = "no-alloc-hot-path";
/// Rule: `Instant::now()` only inside `cbls-core::stop` or the bench crate.
pub const NO_WALLCLOCK_OUTSIDE_STOP: &str = "no-wallclock-outside-stop";
/// Rule: every atomic `Ordering::*` use carries a justification comment.
pub const ATOMICS_ORDERING_JUSTIFIED: &str = "atomics-ordering-justified";
/// Rule: `IncrementalProfile` claims must match the methods an
/// `impl Evaluator` actually overrides.
pub const INCREMENTAL_CONTRACT_COMPLETE: &str = "incremental-contract-complete";
/// Rule: no `.unwrap()` / `.expect()` on `join` / channel-receive results
/// inside the executor supervision paths.
pub const NO_UNWRAP_IN_SUPERVISOR: &str = "no-unwrap-in-supervisor";
/// Pseudo-rule reported for unparsable `lint:` escape comments.
pub const MALFORMED_LINT_ALLOW: &str = "malformed-lint-allow";

/// All suppressible rule names (the escape comment must name one of these).
pub const RULES: [&str; 5] = [
    NO_ALLOC_HOT_PATH,
    NO_WALLCLOCK_OUTSIDE_STOP,
    ATOMICS_ORDERING_JUSTIFIED,
    INCREMENTAL_CONTRACT_COMPLETE,
    NO_UNWRAP_IN_SUPERVISOR,
];

/// The engine hot-path methods rule `no-alloc-hot-path` guards.
pub const HOT_PATH_FNS: [&str; 5] = [
    "cost_if_swap",
    "cost_if_swaps",
    "executed_swap",
    "project_errors",
    "project_errors_full",
];

/// Whether `no-alloc-hot-path` guards a method of this name.  Besides the
/// engine probes in [`HOT_PATH_FNS`], the telemetry recording surface is
/// covered: the `EventSink` entry point `record` and every `observe_*` hook
/// (e.g. `observe_phase`) run on the engine hot path, so sinks must stay
/// alloc-free too — the flight recorder's bounded-buffer contract.  The
/// service admission decision `admit` is guarded for the same reason: a
/// rejected request burst runs nothing else, so admission must not allocate
/// per request.
#[must_use]
pub fn is_hot_path_fn(name: &str) -> bool {
    HOT_PATH_FNS.contains(&name)
        || name == "record"
        || name == "admit"
        || name.starts_with("observe_")
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of the `pub const` rule names).
    pub rule: &'static str,
    /// Path as given to the linter (workspace-relative for tree runs).
    pub file: String,
    /// 1-based source line of the violation.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A successfully parsed `lint: allow(rule) — reason` comment.
struct Allow {
    rule: String,
    line: u32,
    end_line: u32,
}

/// Run every rule over one file's source and apply the escape comments.
#[must_use]
pub fn lint_scanned(rel_path: &str, scanned: &Scanned) -> Vec<Finding> {
    let structure = analyze(&scanned.tokens);
    let mut findings = Vec::new();

    check_no_alloc_hot_path(rel_path, scanned, &structure, &mut findings);
    check_no_wallclock(rel_path, scanned, &structure, &mut findings);
    check_atomics_justified(rel_path, scanned, &mut findings);
    check_incremental_contract(rel_path, scanned, &structure, &mut findings);
    check_no_unwrap_in_supervisor(rel_path, scanned, &mut findings);

    let (allows, mut malformed) = parse_allows(rel_path, &scanned.comments);
    findings.retain(|f| {
        !allows
            .iter()
            .any(|a| a.rule == f.rule && (a.line == f.line || a.end_line + 1 == f.line))
    });
    findings.append(&mut malformed);
    findings.sort_by_key(|f| f.line);
    findings
}

// ---------------------------------------------------------------------------
// Rule 1: no-alloc-hot-path
// ---------------------------------------------------------------------------

/// Allocation shapes banned inside hot-path method bodies; checked as token
/// sequences so string literals and comments never match.
fn alloc_pattern(tokens: &[Token], i: usize) -> Option<&'static str> {
    let path3 = |a: &str, b: &str| -> bool {
        tokens[i].is_ident(a)
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::PathSep)
            && tokens.get(i + 2).is_some_and(|t| t.is_ident(b))
    };
    let method = |name: &str| -> bool {
        tokens[i].is_punct('.') && tokens.get(i + 1).is_some_and(|t| t.is_ident(name))
    };
    let macro_call = |name: &str| -> bool {
        tokens[i].is_ident(name) && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
    };
    if path3("Vec", "new") {
        Some("Vec::new()")
    } else if path3("Vec", "with_capacity") {
        Some("Vec::with_capacity()")
    } else if macro_call("vec") {
        Some("vec![..]")
    } else if macro_call("format") {
        Some("format!(..)")
    } else if path3("Box", "new") {
        Some("Box::new()")
    } else if path3("String", "from") {
        Some("String::from()")
    } else if method("to_vec") {
        Some(".to_vec()")
    } else if method("clone") {
        Some(".clone()")
    } else if method("collect") {
        Some(".collect()")
    } else if method("to_string") {
        Some(".to_string()")
    } else if method("to_owned") {
        Some(".to_owned()")
    } else {
        None
    }
}

fn check_no_alloc_hot_path(
    rel_path: &str,
    scanned: &Scanned,
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for f in &structure.fns {
        // Only impl-block bodies: the `trait Evaluator` declaration documents
        // its allocate-and-recompute defaults on purpose, and free functions
        // are not engine hot paths.
        if !f.in_impl || !is_hot_path_fn(&f.name) {
            continue;
        }
        let body = &scanned.tokens[f.body.clone()];
        for i in 0..body.len() {
            if let Some(pattern) = alloc_pattern(body, i) {
                // `.clone()` matched on `. clone`: report the line of the
                // receiver-side token so trailing escapes line up naturally.
                findings.push(Finding {
                    rule: NO_ALLOC_HOT_PATH,
                    file: rel_path.to_string(),
                    line: body[i].line,
                    message: format!(
                        "`{pattern}` inside `{}` — hot-path probe methods must be alloc-free",
                        f.name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: no-wallclock-outside-stop
// ---------------------------------------------------------------------------

/// Files allowed to read the wall clock directly *anywhere*: only the
/// measurement crate, whose whole job is timing things.  The stop module is
/// no longer blanket-exempt — see [`wallclock_funnel_file`]: within it only
/// the body of `monotonic_now` may call `Instant::now()`, so the funnel has
/// exactly one entry point the linter can vouch for.
#[must_use]
pub fn wallclock_exempt(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    p.contains("crates/bench/src/")
}

/// Whether this file hosts the `monotonic_now` funnel.  Inside it the
/// exemption is *structural*, not file-wide: `StopControl::deadline_passed`
/// once read `Instant::now()` directly two screens below the funnel it was
/// supposed to use, and the old file-level exemption hid that.
#[must_use]
pub fn wallclock_funnel_file(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    p.ends_with("crates/core/src/stop.rs")
}

fn check_no_wallclock(
    rel_path: &str,
    scanned: &Scanned,
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    if wallclock_exempt(rel_path) {
        return;
    }
    let funnel = wallclock_funnel_file(rel_path);
    let toks = &scanned.tokens;
    for i in 0..toks.len() {
        if toks[i].is_ident("Instant")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::PathSep)
            && toks.get(i + 2).is_some_and(|t| t.is_ident("now"))
        {
            if funnel
                && structure
                    .fns
                    .iter()
                    .any(|f| f.name == "monotonic_now" && f.body.contains(&i))
            {
                continue;
            }
            findings.push(Finding {
                rule: NO_WALLCLOCK_OUTSIDE_STOP,
                file: rel_path.to_string(),
                line: toks[i].line,
                message: "direct `Instant::now()` — route wall-clock reads through \
                          `cbls_core::stop` (`monotonic_now()` / `StopControl` deadlines)"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: atomics-ordering-justified
// ---------------------------------------------------------------------------

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The justification attached to line `line`: a comment on the same line or
/// a comment block ending on the line directly above.
fn justification(comments: &[Comment], line: u32) -> Option<&Comment> {
    comments
        .iter()
        .find(|c| c.line == line || c.end_line + 1 == line)
        .filter(|c| !c.text.is_empty())
}

fn check_atomics_justified(rel_path: &str, scanned: &Scanned, findings: &mut Vec<Finding>) {
    let toks = &scanned.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("Ordering")
            || !toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::PathSep)
        {
            continue;
        }
        let Some(variant) = toks
            .get(i + 2)
            .filter(|t| t.kind == TokenKind::Ident && ATOMIC_ORDERINGS.contains(&t.text.as_str()))
        else {
            continue;
        };
        let line = toks[i].line;
        match justification(&scanned.comments, line) {
            None => findings.push(Finding {
                rule: ATOMICS_ORDERING_JUSTIFIED,
                file: rel_path.to_string(),
                line,
                message: format!(
                    "`Ordering::{}` without a justification comment on the same or \
                     preceding line",
                    variant.text
                ),
            }),
            Some(c) if variant.text == "SeqCst" => {
                let t = c.text.to_lowercase();
                if !t.contains("acquire") && !t.contains("release") {
                    findings.push(Finding {
                        rule: ATOMICS_ORDERING_JUSTIFIED,
                        file: rel_path.to_string(),
                        line,
                        message: "`Ordering::SeqCst` — the justification must explain why \
                                  Acquire/Release is insufficient (mention the weaker \
                                  ordering it rules out)"
                            .to_string(),
                    });
                }
            }
            Some(_) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: incremental-contract-complete
// ---------------------------------------------------------------------------

/// `IncrementalProfile` flag → the `Evaluator` method that must be overridden
/// when the flag is claimed `true`.
pub const PROFILE_CLAIMS: [(&str, &str); 6] = [
    ("scratch_cost", "cost"),
    ("incremental_cost_if_swap", "cost_if_swap"),
    ("incremental_executed_swap", "executed_swap"),
    ("tracked_dirty_sets", "touched_by_swap"),
    ("batched_projection", "project_errors_full"),
    ("batched_probes", "cost_if_swaps"),
];

fn check_incremental_contract(
    rel_path: &str,
    scanned: &Scanned,
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for (impl_id, imp) in structure.impls.iter().enumerate() {
        if !imp.is_evaluator_impl {
            continue;
        }
        let Some(profile_fn) = structure
            .fns
            .iter()
            .find(|f| f.impl_id == Some(impl_id) && f.name == "incremental_profile")
        else {
            continue; // no claims: the all-false default promises nothing
        };
        let body = &scanned.tokens[profile_fn.body.clone()];
        for (flag, required_fn) in PROFILE_CLAIMS {
            let claimed = (0..body.len()).any(|i| {
                body[i].is_ident(flag)
                    && body.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && body.get(i + 2).is_some_and(|t| t.is_ident("true"))
            });
            if claimed && !imp.fn_names.iter().any(|n| n == required_fn) {
                findings.push(Finding {
                    rule: INCREMENTAL_CONTRACT_COMPLETE,
                    file: rel_path.to_string(),
                    line: profile_fn.line,
                    message: format!(
                        "`impl Evaluator for {}` claims `{flag}: true` but does not \
                         override `{required_fn}` — the trait default would silently \
                         break the claim",
                        imp.type_name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: no-unwrap-in-supervisor
// ---------------------------------------------------------------------------

/// Files forming the supervised execution path, where a `.unwrap()` on a
/// join or channel-receive result would turn an isolated walk fault into
/// batch death: the executor layer, the supervision table and the whole
/// resilience crate.
#[must_use]
pub fn supervisor_scope(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    p.ends_with("crates/parallel/src/executor.rs")
        || p.ends_with("crates/parallel/src/supervision.rs")
        || p.contains("crates/resilience/src/")
}

/// Receiver methods whose `Result` carries a fault that supervision must
/// classify, not unwrap.
const FAULT_CARRYING_CALLS: [&str; 4] = ["join", "recv", "try_recv", "recv_timeout"];

fn check_no_unwrap_in_supervisor(rel_path: &str, scanned: &Scanned, findings: &mut Vec<Finding>) {
    if !supervisor_scope(rel_path) {
        return;
    }
    let toks = &scanned.tokens;
    let mut i = 0;
    while i < toks.len() {
        let is_call = toks[i].kind == TokenKind::Ident
            && FAULT_CARRYING_CALLS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !is_call {
            i += 1;
            continue;
        }
        let call = toks[i].text.clone();
        // skip the balanced argument list of the call
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if toks.get(j + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some(m) = toks
                .get(j + 2)
                .filter(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            {
                findings.push(Finding {
                    rule: NO_UNWRAP_IN_SUPERVISOR,
                    file: rel_path.to_string(),
                    line: m.line,
                    message: format!(
                        "`.{}()` on a `{call}()` result inside a supervision path — a \
                         faulted walk must become a structured `WalkFault`, not kill \
                         the batch (match the `Err` and classify or `resume_unwind`)",
                        m.text
                    ),
                });
            }
        }
        i = j + 1;
    }
}

// ---------------------------------------------------------------------------
// Escape comments
// ---------------------------------------------------------------------------

fn parse_allows(rel_path: &str, comments: &[Comment]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        // Only comments that *start* with the marker are escapes: prose or
        // doc comments that merely mention the syntax are not.
        let Some(rest) = c.text.strip_prefix("lint:").map(str::trim_start) else {
            continue;
        };
        let parsed = rest.strip_prefix("allow(").and_then(|r| {
            let close = r.find(')')?;
            let rule = r[..close].trim();
            let reason = r[close + 1..]
                .trim_start_matches([' ', '—', '-', '–', ':'])
                .trim();
            Some((rule.to_string(), reason.to_string()))
        });
        match parsed {
            Some((rule, reason)) if RULES.contains(&rule.as_str()) && !reason.is_empty() => {
                allows.push(Allow {
                    rule,
                    line: c.line,
                    end_line: c.end_line,
                });
            }
            Some((rule, reason)) => {
                let what = if reason.is_empty() {
                    "the reason is mandatory".to_string()
                } else {
                    format!("unknown rule `{rule}`")
                };
                malformed.push(Finding {
                    rule: MALFORMED_LINT_ALLOW,
                    file: rel_path.to_string(),
                    line: c.line,
                    message: format!(
                        "unusable escape comment ({what}); expected \
                         `lint: allow(<rule>) — <reason>`"
                    ),
                });
            }
            None => malformed.push(Finding {
                rule: MALFORMED_LINT_ALLOW,
                file: rel_path.to_string(),
                line: c.line,
                message: "unparsable `lint:` comment; expected \
                          `lint: allow(<rule>) — <reason>`"
                    .to_string(),
            }),
        }
    }
    (allows, malformed)
}

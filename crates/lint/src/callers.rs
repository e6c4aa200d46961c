//! Rule `pub-item-has-caller`: a `pub` item of a library crate must have a
//! use outside tests.
//!
//! The other rules read one file at a time; this one reads the tree.  It
//! collects the bare-`pub` functions, inherent methods, structs, enums,
//! traits, consts, statics and type aliases of the library crates' non-test
//! code (every `crates/*/src` except the linter's and the testkit's).  Then
//! it counts the identifier tokens that name each item in the non-test code
//! of `crates/*/src`, `src/`, `examples/`, `crates/*/examples`,
//! `crates/*/benches` and `perfbench/src`.  An item whose name no token uses
//! outside the item's own definition is a finding.
//!
//! These do not count as uses: `#[cfg(test)]` items, comments (doc examples
//! included), `use` declarations (a re-export alone keeps nothing alive), and
//! the code of `crates/testkit`, which only tests take.  Any other token with
//! the item's name counts, whatever it refers to: the rule can miss a dead
//! item that shares its name with a live one, but never flags an item that
//! something outside tests names.  `pub(crate)` and narrower items are left
//! to the compiler's dead-code lint.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::collect_rs;
use crate::rules::{parse_allows, Finding, PUB_ITEM_HAS_CALLER};
use crate::scanner::{scan, Token, TokenKind};

/// The item keywords the rule covers.
const ITEM_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "static", "type"];

/// A `pub` item: its name, the line of its `pub` and the token span of its
/// whole definition.
struct PubItem {
    name: String,
    line: u32,
    span: Range<usize>,
}

/// Run the rule over the tree at `root`.
///
/// # Errors
///
/// Returns any I/O error from traversing or reading the tree.
pub(crate) fn check_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut uses: HashMap<String, usize> = HashMap::new();
    let mut findings = Vec::new();
    let mut libraries = Vec::new();
    for (path, library) in tree_sources(root)? {
        let scanned = scan(&fs::read_to_string(&path)?);
        let counted = counted_tokens(&scanned.tokens);
        for (token, _) in scanned.tokens.iter().zip(&counted).filter(|(_, &c)| c) {
            if token.kind == TokenKind::Ident {
                *uses.entry(token.text.clone()).or_default() += 1;
            }
        }
        if library {
            libraries.push((path, scanned, counted));
        }
    }
    for (path, scanned, counted) in libraries {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let (allows, _) = parse_allows(&rel, &scanned.comments);
        for item in pub_items(&scanned.tokens, &counted) {
            let own = item
                .span
                .clone()
                .filter(|&k| counted[k] && scanned.tokens[k].is_ident(&item.name))
                .count();
            if uses.get(&item.name).copied().unwrap_or(0) > own {
                continue;
            }
            let finding = Finding {
                rule: PUB_ITEM_HAS_CALLER,
                file: rel.clone(),
                line: item.line,
                message: format!(
                    "`{}` is public, but no code outside tests uses it — delete it, \
                     move it next to the tests that call it, or allow it with the \
                     reason it stays",
                    item.name
                ),
            };
            if !allows.iter().any(|a| a.covers(&finding)) {
                findings.push(finding);
            }
        }
    }
    Ok(findings)
}

/// The files the rule reads, each with whether it holds library code whose
/// `pub` items are checked (`true`) or only code whose uses count.
fn tree_sources(root: &Path) -> io::Result<Vec<(PathBuf, bool)>> {
    let mut files = Vec::new();
    let mut add = |dir: PathBuf, library: bool| -> io::Result<()> {
        let mut found = Vec::new();
        if dir.is_dir() {
            collect_rs(&dir, &mut found)?;
        }
        files.extend(found.into_iter().map(|path| (path, library)));
        Ok(())
    };
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let dir = entry?.path();
            match dir.file_name().and_then(|n| n.to_str()) {
                Some("testkit") => continue,
                name => add(dir.join("src"), name != Some("lint"))?,
            }
            add(dir.join("examples"), false)?;
            add(dir.join("benches"), false)?;
        }
    }
    for dir in ["src", "examples", "perfbench/src"] {
        add(root.join(dir), false)?;
    }
    files.sort();
    Ok(files)
}

/// Which tokens count as code outside tests: every token except those of
/// `#[cfg(test)]` items and of `use` declarations.
fn counted_tokens(tokens: &[Token]) -> Vec<bool> {
    let mut counted = vec![true; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let end = if is_cfg_test(tokens, i) {
            item_end(tokens, item_keyword(tokens, i))
        } else if tokens[i].is_ident("use") && !tokens.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            // A `use` tree holds no `;`, so the declaration ends at the next.
            tokens[i..]
                .iter()
                .position(|t| t.is_punct(';'))
                .map_or(tokens.len(), |k| i + k + 1)
        } else {
            i += 1;
            continue;
        };
        counted[i..end].fill(false);
        i = end;
    }
    counted
}

/// Whether the tokens at `i` spell `#[cfg(test)]`.
fn is_cfg_test(tokens: &[Token], i: usize) -> bool {
    let shape: [fn(&Token) -> bool; 7] = [
        |t| t.is_punct('#'),
        |t| t.is_punct('['),
        |t| t.is_ident("cfg"),
        |t| t.is_punct('('),
        |t| t.is_ident("test"),
        |t| t.is_punct(')'),
        |t| t.is_punct(']'),
    ];
    tokens.len() >= i + shape.len() && shape.iter().zip(&tokens[i..]).all(|(is, t)| is(t))
}

/// One past the bracket group that opens at `open`.
fn group_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, token) in tokens.iter().enumerate().skip(open) {
        if token.kind != TokenKind::Punct {
            continue;
        }
        match token.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// The index of the keyword (`fn`, `struct`, `mod`, …) of the item that
/// starts at `start`, past its attributes, its visibility and the
/// qualifiers `unsafe`, `async`, `extern "abi"` and a `const` that
/// qualifies a function.
fn item_keyword(tokens: &[Token], start: usize) -> usize {
    let is = |k: usize, word: &str| tokens.get(k).is_some_and(|t| t.is_ident(word));
    let mut k = start;
    loop {
        let group_follows = tokens
            .get(k + 1)
            .is_some_and(|t| t.is_punct('[') || t.is_punct('('));
        if group_follows && (tokens.get(k).is_some_and(|t| t.is_punct('#')) || is(k, "pub")) {
            // An attribute, or a visibility such as `pub(crate)`.
            k = group_end(tokens, k + 1);
        } else if is(k, "pub")
            || is(k, "unsafe")
            || is(k, "async")
            || (is(k, "const") && (is(k + 1, "fn") || is(k + 1, "unsafe")))
        {
            k += 1;
        } else if is(k, "extern") {
            k += 1;
            if tokens.get(k).is_some_and(|t| t.kind == TokenKind::Literal) {
                k += 1;
            }
        } else {
            return k;
        }
    }
}

/// One past the last token of the item whose keyword is at `keyword`.  A
/// const, static or type alias ends at its `;`, whatever braces its
/// initializer holds; any other item at its first `;` outside brackets or
/// at the `}` that closes its body.
fn item_end(tokens: &[Token], keyword: usize) -> usize {
    let initialized = ["const", "static", "type"]
        .iter()
        .any(|kind| tokens.get(keyword).is_some_and(|t| t.is_ident(kind)));
    let mut depth = 0usize;
    for (k, token) in tokens.iter().enumerate().skip(keyword) {
        if token.kind != TokenKind::Punct {
            continue;
        }
        match token.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 && !initialized {
                    return k + 1;
                }
            }
            ";" if depth == 0 => return k + 1,
            _ => {}
        }
    }
    tokens.len()
}

/// Every bare-`pub` item among the counted tokens.  `pub(crate)`,
/// `pub(super)` and `pub(in …)` items are not collected.
fn pub_items(tokens: &[Token], counted: &[bool]) -> Vec<PubItem> {
    let mut items = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if !counted[i]
            || !token.is_ident("pub")
            || tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let keyword = item_keyword(tokens, i);
        let Some(kind) = tokens
            .get(keyword)
            .filter(|t| ITEM_KINDS.iter().any(|kind| t.is_ident(kind)))
        else {
            continue; // a field, a module or a re-export
        };
        let mut n = keyword + 1;
        if kind.is_ident("static") && tokens.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        let Some(name) = tokens.get(n).filter(|t| t.kind == TokenKind::Ident) else {
            continue; // e.g. `pub fn $name` inside a macro body
        };
        items.push(PubItem {
            name: name.text.clone(),
            line: token.line,
            span: i..item_end(tokens, keyword),
        });
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(src: &str) -> Vec<String> {
        let tokens = scan(src).tokens;
        let counted = counted_tokens(&tokens);
        pub_items(&tokens, &counted)
            .into_iter()
            .map(|item| item.name)
            .collect()
    }

    #[test]
    fn every_covered_kind_is_collected() {
        let src = "pub fn f() {}\npub const fn g() {}\npub struct S(pub u8);\n\
                   pub enum E { A }\npub trait T {}\npub const C: u8 = 1;\n\
                   pub static mut M: u8 = 0;\npub type A = u8;\n\
                   impl S { pub fn m(&self) {} pub const K: [u8; 2] = [0; 2]; }";
        assert_eq!(
            names(src),
            vec!["f", "g", "S", "E", "T", "C", "M", "A", "m", "K"]
        );
    }

    #[test]
    fn narrower_visibility_fields_modules_and_reexports_are_not_items() {
        let src = "pub(crate) fn f() {}\npub(super) struct S;\npub struct R { pub x: u8 }\n\
                   pub mod m {}\npub use m::x;";
        assert_eq!(names(src), vec!["R"]);
    }

    #[test]
    fn test_items_and_use_declarations_are_not_counted() {
        let src = "use a::b;\nfn live() {}\n#[cfg(test)]\n#[allow(x)]\nmod tests { fn t() { b(); } }\nfn after() {}";
        let tokens = scan(src).tokens;
        let counted: Vec<&str> = tokens
            .iter()
            .zip(counted_tokens(&tokens))
            .filter(|(t, c)| *c && t.kind == TokenKind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert_eq!(counted, vec!["fn", "live", "fn", "after"]);
    }

    #[test]
    fn an_item_span_ends_with_its_body_or_semicolon() {
        let src = "pub fn f(x: [u8; 2]) -> u8 { if true { 1 } else { 2 } } pub const C: S = S { a: 1 }; x";
        let tokens = scan(src).tokens;
        let counted = counted_tokens(&tokens);
        let items = pub_items(&tokens, &counted);
        assert_eq!(items.len(), 2);
        assert!(tokens[items[0].span.end].is_ident("pub"));
        assert!(tokens[items[1].span.end].is_ident("x"));
    }
}

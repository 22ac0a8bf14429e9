//! L017 — swallowed fallible results in the pipeline crates.
//!
//! The fault-tolerance story (PR 3) assumes every I/O error either heals
//! inside `with_retry` or propagates to the scan's error channel. A
//! workspace `Result` that is discarded — `let _ = flush(..)`, a chained
//! `.ok()` whose `Option` nobody reads, or `.unwrap_or*` silently
//! substituting a default — is a failure the operator never sees.
//!
//! The pass is intraprocedural over the existing statement trees
//! ([`crate::parser::parse_block`]). Fallibility is lexical-but-anchored:
//! a call name counts only when *every* workspace definition of that name
//! returns a workspace-error `Result` (a bare `Result<T>` alias, or an
//! explicit error type containing `Error`/`IoError`) — names that also
//! have infallible definitions are ambiguous and skipped, mirroring the
//! resolver's precision-over-recall stance. `?`, `match`, and named
//! bindings are consumption and never flagged. Silence a reviewed
//! fallback with `// lint-ok: L017 <reason>`.

use crate::lexer::{TokKind, Token};
use crate::model::{match_paren, SourceFile};
use crate::parser::{parse_block, Block};
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Crates where a lost failure is a correctness bug: the pipeline and its
/// persistence/observability layers. `bench` and the shims may discard.
const SCOPE: &[&str] = &[
    "crates/core/",
    "crates/engine/",
    "crates/storage/",
    "crates/simio/",
    "crates/rawfile/",
    "crates/obs/",
];

/// `.unwrap_or*` variants that drop the error value.
const SWALLOWERS: &[&str] = &["unwrap_or", "unwrap_or_default", "unwrap_or_else"];

/// Function names whose every workspace definition returns a
/// workspace-error `Result`.
fn fallible_names(files: &[SourceFile]) -> BTreeSet<String> {
    let mut fallible: BTreeMap<String, bool> = BTreeMap::new();
    for f in files {
        for func in &f.functions {
            let is_fallible = returns_error_result(&f.tokens[func.sig.0..func.sig.1]);
            fallible
                .entry(func.name.clone())
                .and_modify(|all| *all &= is_fallible)
                .or_insert(is_fallible);
        }
    }
    fallible
        .into_iter()
        .filter_map(|(name, all)| all.then_some(name))
        .collect()
}

/// True when the signature's return type is `Result<..>` with a
/// workspace-style error: a single-argument `Result<T>` (the crate alias)
/// or an explicit second argument mentioning `Error`/`IoError`.
fn returns_error_result(sig: &[Token]) -> bool {
    let Some(arrow) = sig.iter().position(|t| t.is_punct("->")) else {
        return false;
    };
    let Some(res) =
        (arrow..sig.len()).find(|&i| sig[i].kind == TokKind::Ident && sig[i].text == "Result")
    else {
        return false;
    };
    let Some(open) = sig.get(res + 1).filter(|t| t.is_punct("<")) else {
        // Bare `-> Result` (fully aliased): treat as fallible.
        return true;
    };
    let _ = open;
    // Split the generic list at the top-level comma, if any.
    let mut depth = 0i32;
    let mut split = None;
    let mut end = sig.len();
    for (i, t) in sig.iter().enumerate().skip(res + 1) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    end = i;
                    break;
                }
            }
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "," if depth == 1 => split = split.or(Some(i)),
            _ => {}
        }
    }
    match split {
        // `Result<T>` — the workspace alias defaults the error type.
        None => true,
        Some(c) => sig[c..end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && (t.text == "Error" || t.text == "IoError")),
    }
}

/// Runs L017 over the file set, appending findings.
pub fn check(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let fallible = fallible_names(files);
    if fallible.is_empty() {
        return;
    }
    for f in files {
        if !SCOPE.iter().any(|p| f.rel.starts_with(p)) {
            continue;
        }
        for func in &f.functions {
            let Some((bstart, bend)) = func.body else {
                continue;
            };
            if f.in_test_code(func.sig.0) {
                continue;
            }
            let block = parse_block(f, bstart, bend);
            walk(f, &block, &fallible, findings);
        }
    }
}

fn walk(f: &SourceFile, block: &Block, fallible: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    for stmt in &block.stmts {
        for b in &stmt.blocks {
            walk(f, b, fallible, findings);
        }
        // Token spans belonging to nested blocks are theirs, not this
        // statement's top level.
        let nested: Vec<(usize, usize)> = stmt
            .blocks
            .iter()
            .flat_map(|b| b.stmts.iter().map(|s| s.range))
            .collect();
        let toks = &f.tokens;
        let (start, end) = stmt.range;
        // The parser normalizes `let _` to no binding; recover the discard
        // from the statement's leading tokens.
        let let_discard = toks.get(start).is_some_and(|t| t.text == "let")
            && toks.get(start + 1).is_some_and(|t| t.text == "_")
            && toks.get(start + 2).is_some_and(|t| t.is_punct("="));
        let binding = if let_discard {
            Some("_")
        } else {
            stmt.binding.as_deref()
        };
        let mut i = start;
        while i < end {
            if let Some(&(_, ne)) = nested.iter().find(|&&(ns, ne)| ns <= i && i < ne) {
                i = ne;
                continue;
            }
            let t = &toks[i];
            let is_call = t.kind == TokKind::Ident
                && fallible.contains(&t.text)
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            if !is_call {
                i += 1;
                continue;
            }
            let name = t.text.clone();
            let line = t.line;
            let after = match_paren(toks, i + 1).min(end);
            let disposition = classify(toks, after, end, binding);
            i = after;
            let Some(how) = disposition else { continue };
            if f.has_annotation(line, "lint-ok: L017") {
                continue;
            }
            findings.push(Finding {
                rule: Rule::L017,
                file: f.rel.clone(),
                line,
                message: format!("the `Result` of `{name}(..)` is silently discarded ({how})"),
                hint: "propagate with `?` or handle the error branch explicitly (journal it, \
                       count it, degrade loudly); audit an intended fallback with \
                       `// lint-ok: L017 <reason>`"
                    .to_string(),
            });
        }
    }
}

/// How the `Result` produced just before token `after` is disposed of, when
/// that disposal swallows the error. `None` = consumed properly.
fn classify(toks: &[Token], after: usize, end: usize, binding: Option<&str>) -> Option<String> {
    if binding == Some("_") {
        return Some("bound to `_`".to_string());
    }
    // A chained `.method(` directly after the call's closing paren.
    let chained = |at: usize| -> Option<(&str, usize)> {
        let dot = toks.get(at)?;
        if !dot.is_punct(".") {
            return None;
        }
        let name = toks.get(at + 1)?;
        let open = toks.get(at + 2)?;
        (name.kind == TokKind::Ident && open.is_punct("("))
            .then(|| (name.text.as_str(), match_paren(toks, at + 2)))
    };
    if let Some((m, close)) = chained(after) {
        if SWALLOWERS.contains(&m) {
            return Some(format!("`.{m}(..)` drops the error value"));
        }
        if m == "ok" && binding.is_none() {
            // `f(..).ok();` as a bare statement — the Option is unread.
            let next = toks.get(close).map(|t| t.text.as_str());
            if close >= end || next == Some(";") {
                return Some("`.ok()` with the `Option` unread".to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFS: &str = "pub fn flush(n: u32) -> Result<()> { Ok(()) }\npub fn fetch(n: u32) -> Result<u32, IoError> { Ok(n) }\n";

    fn run(body: &str) -> Vec<Finding> {
        let files = vec![
            SourceFile::parse("crates/storage/src/api.rs".to_string(), DEFS),
            SourceFile::parse("crates/core/src/x.rs".to_string(), body),
        ];
        let mut out = Vec::new();
        check(&files, &mut out);
        out
    }

    #[test]
    fn let_underscore_is_flagged() {
        let fs = run("fn f() {\n    let _ = flush(1);\n}\n");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::L017);
        assert!(fs[0].message.contains("flush"), "{}", fs[0].message);
        assert!(fs[0].message.contains("`_`"), "{}", fs[0].message);
    }

    #[test]
    fn bare_ok_statement_is_flagged() {
        let fs = run("fn f() {\n    fetch(3).ok();\n}\n");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains(".ok()"), "{}", fs[0].message);
    }

    #[test]
    fn unwrap_or_is_flagged() {
        let fs = run("fn f() -> u32 {\n    fetch(3).unwrap_or(0)\n}\n");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("unwrap_or"), "{}", fs[0].message);
    }

    #[test]
    fn question_mark_and_named_binding_are_clean() {
        let fs = run(
            "fn f() -> Result<u32> {\n    flush(1)?;\n    let v = fetch(3)?;\n    let kept = fetch(4).ok();\n    Ok(v + kept.unwrap_or(0))\n}\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn ambiguous_names_and_out_of_scope_are_clean() {
        // `get` has both a fallible and an infallible definition: skipped.
        let files = vec![
            SourceFile::parse(
                "crates/storage/src/api.rs".to_string(),
                "pub fn get(n: u32) -> Result<u32> { Ok(n) }\npub fn noisy(n: u32) -> Result<()> { Ok(()) }\n",
            ),
            SourceFile::parse(
                "crates/types/src/alt.rs".to_string(),
                "pub fn get(n: u32) -> u32 { n }\n",
            ),
            SourceFile::parse(
                "crates/core/src/x.rs".to_string(),
                "fn f() {\n    let _ = get(1);\n}\n",
            ),
            SourceFile::parse(
                "crates/bench/src/x.rs".to_string(),
                "fn g() {\n    let _ = noisy(1);\n}\n",
            ),
        ];
        let mut out = Vec::new();
        check(&files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn annotation_silences() {
        let fs = run(
            "fn f() {\n    // lint-ok: L017 shutdown path, the journal is already sealed\n    let _ = flush(1);\n}\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn non_workspace_result_is_not_tracked() {
        // `write` here returns `Result<usize, ParseIntError>` — not a
        // workspace error type, so discarding it is out of L017's scope.
        let files = vec![
            SourceFile::parse(
                "crates/core/src/x.rs".to_string(),
                "pub fn emit(n: u32) -> Result<usize, ParseIntError> { Ok(n as usize) }\nfn f() {\n    let _ = emit(1);\n}\n",
            ),
        ];
        let mut out = Vec::new();
        check(&files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}

//! L008 — chunk/resource flow.
//!
//! A chunk pulled out of a bounded buffer, a cache slot taken, a permit
//! acquired: in this pipeline such a value must reach a `push`/`store`/
//! `release`/return on *every* path, or the resource is silently lost — a
//! cache slot leaks, backpressure accounting drifts, a chunk vanishes from
//! the pipeline. The compiler cannot see this (dropping is always legal);
//! this rule walks each function's statement tree and flags acquire bindings
//! that an early `return`/`break`/`continue`/`?` can drop before any use.
//!
//! Intraprocedural and deliberately coarse: *any* mention of the binding
//! counts as consumption (passing to a function, pushing, even `drop(x)` —
//! an explicit drop is a decision, not an accident). The rule only fires
//! when a path exits with the value provably untouched. Scope is the
//! pipeline crates (`core`, `engine`, `storage`, `simio`, `rawfile`);
//! silence sites with `// lint-ok: L008 <reason>`.

use crate::lexer::TokKind;
use crate::model::{match_paren, SourceFile};
use crate::parser::{self, Block, ExitKind, Stmt};
use crate::{Finding, Rule};

/// Methods whose zero-argument call hands the caller ownership of a pooled
/// resource. The empty-argument requirement keeps `Iterator::take(n)` and
/// `mem::take(&mut x)` out.
const ACQUIRE_METHODS: &[&str] = &["pop", "pop_front", "take", "acquire"];

const SCOPE: &[&str] = &[
    "crates/core/",
    "crates/engine/",
    "crates/storage/",
    "crates/simio/",
    "crates/rawfile/",
];

/// Bounds-tolerant [`Token::is_punct`]: false past the end of the file.
fn punct_at(f: &SourceFile, i: usize, s: &str) -> bool {
    f.tokens.get(i).is_some_and(|t| t.is_punct(s))
}

/// Does `[start, end)` contain a tail-position acquire call — `.pop()` /
/// `.take()` / … possibly followed by `.unwrap()` / `.expect("…")` / `?`?
fn is_acquire_init(f: &SourceFile, start: usize, end: usize) -> bool {
    let toks = &f.tokens;
    let mut i = start;
    while i + 2 < end {
        if punct_at(f, i, ".")
            && toks[i + 1].kind == TokKind::Ident
            && ACQUIRE_METHODS.contains(&toks[i + 1].text.as_str())
            && punct_at(f, i + 2, "(")
            && punct_at(f, i + 3, ")")
        {
            // Verify the rest of the init is only unwrap/expect/`?`.
            let mut j = i + 4;
            while j < end {
                let t = &toks[j];
                let ok = (t.kind == TokKind::Punct
                    && matches!(t.text.as_str(), "." | "?" | ";" | ")" | "("))
                    || (t.kind == TokKind::Ident
                        && matches!(t.text.as_str(), "unwrap" | "expect" | "else"))
                    || t.kind == TokKind::Str;
                if t.kind == TokKind::Punct && t.text == "{" {
                    return true; // let-else / if-let body begins
                }
                if !ok {
                    return false;
                }
                if t.kind == TokKind::Punct && t.text == "(" {
                    j = match_paren(toks, j);
                    continue;
                }
                j += 1;
            }
            return true;
        }
        i += 1;
    }
    false
}

/// Any token in `[start, end)` is the ident `needle`.
fn mentions(f: &SourceFile, start: usize, end: usize, needle: &str) -> bool {
    f.tokens[start.min(f.tokens.len())..end.min(f.tokens.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == needle)
}

/// An acquire binding extracted from a statement: the bound name and where
/// the consumption scan starts.
enum Acquired {
    /// `let x = buf.pop();` / `let Some(x) = buf.pop() else { … };` —
    /// scan continues in the *enclosing* block after this statement.
    Local(String),
    /// `if let Some(x) = buf.pop() { … }` / `while let …` — the binding
    /// lives only in the statement's first block.
    Scoped(String),
}

fn acquire_binding(f: &SourceFile, stmt: &Stmt) -> Option<Acquired> {
    let (start, end) = stmt.range;
    let first = &f.tokens[start];
    if first.kind == TokKind::Ident && first.text == "let" {
        let name = stmt.binding.clone()?;
        let init = stmt.init_start?;
        if is_acquire_init(f, init, end) {
            return Some(Acquired::Local(name));
        }
        return None;
    }
    // `if let PAT = EXPR {` / `while let PAT = EXPR {`
    if first.kind == TokKind::Ident
        && matches!(first.text.as_str(), "if" | "while")
        && f.tokens.get(start + 1).is_some_and(|t| t.text == "let")
    {
        // Binding: sole ident inside `Pat(x)` or a bare ident pattern.
        let mut eq = None;
        for i in start + 2..end {
            if punct_at(f, i, "=") {
                eq = Some(i);
                break;
            }
            if punct_at(f, i, "{") {
                break;
            }
        }
        let eq = eq?;
        let name = if punct_at(f, start + 3, "(")
            && f.tokens
                .get(start + 4)
                .is_some_and(|t| t.kind == TokKind::Ident)
            && punct_at(f, start + 5, ")")
        {
            f.tokens[start + 4].text.clone()
        } else if f.tokens[start + 2].kind == TokKind::Ident && eq == start + 3 {
            f.tokens[start + 2].text.clone()
        } else {
            return None;
        };
        if name == "_" {
            return None;
        }
        // Init: `=` to the body `{`.
        let mut body = eq + 1;
        let (mut p, mut bk) = (0i32, 0i32);
        while body < end {
            let t = &f.tokens[body];
            match t.text.as_str() {
                "(" if t.kind == TokKind::Punct => p += 1,
                ")" if t.kind == TokKind::Punct => p -= 1,
                "[" if t.kind == TokKind::Punct => bk += 1,
                "]" if t.kind == TokKind::Punct => bk -= 1,
                "{" if t.kind == TokKind::Punct && p == 0 && bk == 0 => break,
                _ => {}
            }
            body += 1;
        }
        if is_acquire_init(f, eq + 1, body) {
            return Some(Acquired::Scoped(name));
        }
    }
    None
}

/// Outcome of walking one statement sequence for `needle`.
enum Verdict {
    /// A statement touched the binding (or every exit handled it).
    Consumed,
    /// Leak found and reported.
    Leaked,
    /// Fell off the end without any mention.
    Untouched,
}

/// Scans `stmts` for the fate of `needle`; reports the first leak.
fn scan(
    f: &SourceFile,
    stmts: &[Stmt],
    needle: &str,
    bind_line: u32,
    findings: &mut Vec<Finding>,
) -> Verdict {
    for stmt in stmts {
        let (s, e) = stmt.range;
        let touched = mentions(f, s, e, needle);
        if stmt.exit != ExitKind::None {
            if touched {
                return Verdict::Consumed;
            }
            report(
                f,
                stmt.line,
                needle,
                bind_line,
                exit_name(stmt.exit),
                findings,
            );
            return Verdict::Leaked;
        }
        if touched {
            return Verdict::Consumed;
        }
        if stmt.has_question {
            report(f, stmt.line, needle, bind_line, "`?`", findings);
            return Verdict::Leaked;
        }
        // Untouched statement with nested blocks: any branch that exits the
        // function before the binding is used drops it. A `break` inside a
        // loop *statement* only exits that inner loop, so it cannot drop a
        // binding that lives outside it.
        let breaks_leak = !is_loop_stmt(f, stmt);
        for (bi, b) in stmt.blocks.iter().enumerate() {
            if stmt.else_block == Some(bi) {
                continue; // let-else else-block: binding not in scope
            }
            if let Some(line) = exit_without_mention(f, b, needle, breaks_leak) {
                report(f, line.0, needle, bind_line, line.1, findings);
                return Verdict::Leaked;
            }
        }
    }
    Verdict::Untouched
}

fn is_loop_stmt(f: &SourceFile, stmt: &Stmt) -> bool {
    let t = &f.tokens[stmt.range.0];
    t.kind == TokKind::Ident && matches!(t.text.as_str(), "loop" | "while" | "for")
}

/// Finds an exit inside `block` (recursively) that drops `needle` — a
/// `return` or top-level `?` always, a `break`/`continue` only while the
/// binding's scope is the loop being exited (`breaks_leak`). Scanning stops
/// at the first mention of `needle` on a path.
fn exit_without_mention(
    f: &SourceFile,
    block: &Block,
    needle: &str,
    breaks_leak: bool,
) -> Option<(u32, &'static str)> {
    for stmt in &block.stmts {
        let (s, e) = stmt.range;
        if mentions(f, s, e, needle) {
            return None; // this path handles the binding; stop here
        }
        match stmt.exit {
            ExitKind::Return => return Some((stmt.line, "return")),
            ExitKind::Break if breaks_leak => return Some((stmt.line, "break")),
            ExitKind::Continue if breaks_leak => return Some((stmt.line, "continue")),
            _ => {}
        }
        if stmt.has_question {
            return Some((stmt.line, "`?`"));
        }
        let inner_breaks = breaks_leak && !is_loop_stmt(f, stmt);
        for b in &stmt.blocks {
            if let Some(hit) = exit_without_mention(f, b, needle, inner_breaks) {
                return Some(hit);
            }
        }
    }
    None
}

fn exit_name(e: ExitKind) -> &'static str {
    match e {
        ExitKind::Return => "return",
        ExitKind::Break => "break",
        ExitKind::Continue => "continue",
        ExitKind::None => "fallthrough",
    }
}

fn report(
    f: &SourceFile,
    line: u32,
    needle: &str,
    bind_line: u32,
    how: &str,
    findings: &mut Vec<Finding>,
) {
    if f.has_annotation(line, "lint-ok: L008") || f.has_annotation(bind_line, "lint-ok: L008") {
        return;
    }
    let message = if how == "dropped" {
        format!("resource `{needle}` acquired on line {bind_line} is never forwarded or released")
    } else {
        format!(
            "resource `{needle}` acquired on line {bind_line} is dropped by {how} before being \
             forwarded or released"
        )
    };
    findings.push(Finding {
        rule: Rule::L008,
        file: f.rel.clone(),
        line,
        message,
        hint: format!(
            "push/store/release `{needle}` (or drop it explicitly) on this path; \
             silence with `// lint-ok: L008 <reason>` if the drop is intended"
        ),
    });
}

fn walk(f: &SourceFile, block: &Block, findings: &mut Vec<Finding>) {
    for (idx, stmt) in block.stmts.iter().enumerate() {
        for b in &stmt.blocks {
            walk(f, b, findings);
        }
        match acquire_binding(f, stmt) {
            Some(Acquired::Local(name)) => {
                // A `?` on the acquire statement itself cannot drop the
                // binding (it fails before binding), so start after it.
                match scan(f, &block.stmts[idx + 1..], &name, stmt.line, findings) {
                    Verdict::Untouched => {
                        report(f, stmt.line, &name, stmt.line, "dropped", findings)
                    }
                    Verdict::Consumed | Verdict::Leaked => {}
                }
            }
            Some(Acquired::Scoped(name)) => {
                if let Some(body) = stmt.blocks.first() {
                    match scan(f, &body.stmts, &name, stmt.line, findings) {
                        Verdict::Untouched => {
                            report(f, stmt.line, &name, stmt.line, "dropped", findings)
                        }
                        Verdict::Consumed | Verdict::Leaked => {}
                    }
                }
            }
            None => {}
        }
    }
}

/// Runs L008 over one file.
pub fn check_file(f: &SourceFile, findings: &mut Vec<Finding>) {
    if !SCOPE.iter().any(|p| f.rel.starts_with(p)) {
        return;
    }
    for func in &f.functions {
        let Some((s, e)) = func.body else { continue };
        if f.in_test_code(s) {
            continue;
        }
        let block = parser::parse_block(f, s, e);
        walk(f, &block, &mut *findings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/core/src/buf.rs", src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        out
    }

    #[test]
    fn question_mark_between_acquire_and_use_leaks() {
        let fs = run(r#"
fn f(b: &Buf, out: &Tx) -> Result<(), E> {
    let c = b.pop();
    let m = meta()?;
    out.send(c, m);
    Ok(())
}
"#);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::L008);
        assert!(fs[0].message.contains('?'), "{}", fs[0].message);
    }

    #[test]
    fn early_return_branch_leaks() {
        let fs = run(r#"
fn f(b: &Buf, out: &Tx) -> Result<(), E> {
    let c = b.pop();
    if jammed() {
        return Err(E::Jam);
    }
    out.send(c);
    Ok(())
}
"#);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("return"), "{}", fs[0].message);
    }

    #[test]
    fn branch_that_releases_is_clean() {
        let fs = run(r#"
fn f(b: &Buf, out: &Tx) -> Result<(), E> {
    let c = b.pop();
    if jammed() {
        b.push(c);
        return Err(E::Jam);
    }
    out.send(c);
    Ok(())
}
"#);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn explicit_drop_is_consumption() {
        let fs = run(r#"
fn f(b: &Buf) {
    let c = b.pop();
    drop(c);
}
"#);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn never_forwarded_flagged_at_binding() {
        let fs = run("fn f(b: &Buf) { let c = b.pop(); log(\"got one\"); }");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(
            fs[0].message.contains("never forwarded"),
            "{}",
            fs[0].message
        );
    }

    #[test]
    fn let_else_exit_does_not_count_as_leak() {
        // The else-block runs only when the binding never existed.
        let fs = run(r#"
fn f(b: &Buf, out: &Tx) -> Result<(), E> {
    let Some(c) = b.pop() else {
        return Ok(());
    };
    out.send(c);
    Ok(())
}
"#);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn while_let_body_consuming_is_clean() {
        let fs = run(r#"
fn f(b: &Buf, out: &Tx) {
    while let Some(c) = b.pop() {
        out.send(c);
    }
}
"#);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn if_let_body_break_before_use_leaks() {
        let fs = run(r#"
fn f(b: &Buf, out: &Tx) {
    loop {
        if let Some(c) = b.pop() {
            if full() {
                break;
            }
            out.send(c);
        }
    }
}
"#);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("break"), "{}", fs[0].message);
    }

    #[test]
    fn iterator_take_with_args_not_an_acquire() {
        let fs = run(r#"
fn f(v: &[u32]) -> Vec<u32> {
    let head = v.iter().take(3).copied().collect();
    maybe()?;
    head
}
"#);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn annotation_silences() {
        let fs = run(
            "fn f(b: &Buf) {\n    // lint-ok: L008 metrics probe discards sample\n    let c = b.pop();\n    log();\n}",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn out_of_scope_crates_skipped() {
        let f = SourceFile::parse("crates/obs/src/x.rs", "fn f(b: &Buf) { let c = b.pop(); }");
        let mut out = Vec::new();
        check_file(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn acquire_with_unwrap_then_leak_detected() {
        let fs = run(r#"
fn f(b: &Buf, out: &Tx) -> Result<(), E> {
    let c = b.pop().unwrap();
    guard()?;
    out.send(c);
    Ok(())
}
"#);
        assert_eq!(fs.len(), 1, "{fs:?}");
    }
}

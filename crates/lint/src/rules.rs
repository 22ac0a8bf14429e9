//! The token-stream rules.
//!
//! | rule | checks |
//! |------|--------|
//! | L001 | `Ordering::Relaxed` on an atomic touched from >1 module without a `// relaxed-ok:` audit annotation |
//! | L005 | `Condvar::wait` / `wait_timeout` not wrapped in a predicate loop |
//! | L006 | public `Result` fns / panicking fns missing `# Errors` / `# Panics` docs in `crates/types` and `crates/core` |
//! | L007 | wildcard arm in a `match` on a workspace protocol enum (see `protocol`) |
//! | L008 | buffer/cache resource leaked on an early-exit path (see `flow`) |
//!
//! L001, L005 and L006 are lexical heuristics over the token stream —
//! deliberately so: they run in milliseconds with zero dependencies, and
//! anything they get wrong is silenced in-source with `// lint-ok: <RULE>
//! <reason>`, which doubles as an audit trail. L007/L008 run over the
//! semantic layer in `parser`. Everything that needs to know which lock
//! guards are live (lock order, blocking under a guard) or what a spawned
//! thread reaches lives in the interprocedural pass (`interproc`,
//! `waitgraph`); this module only lends it the two token helpers
//! `receiver_of_call` and `acquisition_at`.

use crate::lexer::{TokKind, Token};
use crate::model::SourceFile;
use crate::{Finding, Rule};
use std::collections::BTreeMap;

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Runs every token-stream rule over the file set; the caller sorts.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(l001_relaxed_cross_module(files));
    findings.extend(l005_condvar_predicate_loop(files));
    findings.extend(l006_missing_error_panic_docs(files));
    let enums = crate::protocol::collect_protocol_enums(files);
    for f in files {
        crate::protocol::check_file(f, &enums, &mut findings);
        crate::flow::check_file(f, &mut findings);
    }
    findings
}

/// The identifier the atomic operation is called on: for
/// `counters.from_raw.fetch_add(1, Ordering::Relaxed)` this is `from_raw`;
/// indexing like `totals[i].fetch_add(..)` resolves to `totals`. Shared
/// with the interprocedural layer (channel/lock naming).
pub(crate) fn receiver_of_call(tokens: &[Token], method_idx: usize) -> Option<String> {
    // tokens[method_idx] is the method name; tokens[method_idx - 1] must be `.`.
    if method_idx < 2 || !tokens[method_idx - 1].is_punct(".") {
        return None;
    }
    let mut i = method_idx - 2;
    if tokens[i].is_punct("]") {
        // Walk back over the index expression to its `[`.
        let mut depth = 0usize;
        loop {
            if tokens[i].is_punct("]") {
                depth += 1;
            } else if tokens[i].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
    if tokens[i].is_punct(")") {
        // A call result like `x.col(i).load(..)` — walk back over the args.
        let mut depth = 0usize;
        loop {
            if tokens[i].is_punct(")") {
                depth += 1;
            } else if tokens[i].is_punct("(") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
    (tokens[i].kind == TokKind::Ident).then(|| tokens[i].text.clone())
}

/// L001: every `Ordering::Relaxed` site is grouped by the receiver of the
/// atomic call; a receiver relaxed from more than one module needs a
/// `// relaxed-ok: <reason>` audit annotation at each site.
fn l001_relaxed_cross_module(files: &[SourceFile]) -> Vec<Finding> {
    struct Sitef {
        file: usize,
        line: u32,
        annotated: bool,
    }
    // receiver -> sites
    let mut atoms: BTreeMap<String, Vec<Sitef>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let toks = &f.tokens;
        for i in 0..toks.len() {
            if !(toks[i].is_ident("Ordering")
                && i + 2 < toks.len()
                && toks[i + 1].is_punct("::")
                && toks[i + 2].is_ident("Relaxed"))
            {
                continue;
            }
            if f.in_test_code(i) {
                continue;
            }
            // Find the atomic method this ordering is an argument of.
            let mut method = None;
            let lo = i.saturating_sub(16);
            for j in (lo..i).rev() {
                if toks[j].kind == TokKind::Ident
                    && ATOMIC_METHODS.contains(&toks[j].text.as_str())
                    && j + 1 < toks.len()
                    && toks[j + 1].is_punct("(")
                {
                    method = Some(j);
                    break;
                }
            }
            let Some(m) = method else { continue };
            let recv = receiver_of_call(toks, m).unwrap_or_else(|| "<atomic>".to_string());
            let line = toks[i].line;
            atoms.entry(recv).or_default().push(Sitef {
                file: fi,
                line,
                annotated: f.has_annotation(line, "relaxed-ok:"),
            });
        }
    }
    let mut out = Vec::new();
    for (recv, sites) in atoms {
        let mut modules: Vec<usize> = sites.iter().map(|s| s.file).collect();
        modules.sort_unstable();
        modules.dedup();
        if modules.len() < 2 {
            continue;
        }
        for s in sites.iter().filter(|s| !s.annotated) {
            out.push(Finding {
                rule: Rule::L001,
                file: files[s.file].rel.clone(),
                line: s.line,
                message: format!(
                    "atomic `{recv}` uses Ordering::Relaxed and is touched from {} modules",
                    modules.len()
                ),
                hint: "audit the ordering: upgrade to Acquire/Release if it synchronizes data, \
                       or annotate the site with `// relaxed-ok: <reason>`"
                    .to_string(),
            });
        }
    }
    out
}

const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// True when the token window starting at `i` is an acquisition:
/// `recv.lock()` / `.read()` / `.write()` with zero arguments. Returns the
/// method index. Shared with the wait-graph walk.
pub(crate) fn acquisition_at(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens[i].kind == TokKind::Ident
        && GUARD_METHODS.contains(&tokens[i].text.as_str())
        && i >= 2
        && tokens[i - 1].is_punct(".")
        && i + 2 < tokens.len()
        && tokens[i + 1].is_punct("(")
        && tokens[i + 2].is_punct(")")
    {
        Some(i)
    } else {
        None
    }
}

/// L005: `condvar.wait(guard)` / `wait_timeout(..)` must sit inside a
/// `loop`/`while` so the predicate is re-checked after every (possibly
/// spurious) wakeup.
fn l005_condvar_predicate_loop(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        for func in &f.functions {
            let Some((bstart, bend)) = func.body else {
                continue;
            };
            if f.in_test_code(func.sig.0) {
                continue;
            }
            let toks = &f.tokens;
            let mut loop_stack: Vec<bool> = Vec::new();
            let mut pending_loop = false;
            let mut i = bstart;
            while i < bend {
                let t = &toks[i];
                if t.is_ident("loop") || t.is_ident("while") {
                    pending_loop = true;
                } else if t.is_punct("{") {
                    loop_stack.push(pending_loop);
                    pending_loop = false;
                } else if t.is_punct("}") {
                    loop_stack.pop();
                } else if t.kind == TokKind::Ident
                    && (t.text == "wait" || t.text == "wait_timeout")
                    && i >= 1
                    && toks[i - 1].is_punct(".")
                    && i + 1 < bend
                    && toks[i + 1].is_punct("(")
                    && i + 2 < bend
                    && !toks[i + 2].is_punct(")")
                {
                    // Zero-arg `.wait()` is not a Condvar wait (those take
                    // the guard); requiring an argument avoids unrelated
                    // APIs.
                    if !loop_stack.iter().any(|&l| l) && !f.has_annotation(t.line, "lint-ok: L005")
                    {
                        out.push(Finding {
                            rule: Rule::L005,
                            file: f.rel.clone(),
                            line: t.line,
                            message: format!(
                                "`{}` outside a predicate loop in `{}`",
                                t.text, func.name
                            ),
                            hint: "wrap the wait in `while !predicate { guard = cv.wait(guard) }` \
                                   — condition variables wake spuriously and after missed \
                                   notifications"
                                .to_string(),
                        });
                    }
                }
                i += 1;
            }
        }
    }
    out
}

/// L006: public API documentation of failure modes in `crates/types` and
/// `crates/core`: a `pub fn` returning `Result` documents `# Errors`; a
/// `pub fn` that can panic (macro panics, `unwrap`/`expect`) documents
/// `# Panics`.
fn l006_missing_error_panic_docs(files: &[SourceFile]) -> Vec<Finding> {
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    let mut out = Vec::new();
    for f in files {
        if !(f.rel.starts_with("crates/types/src") || f.rel.starts_with("crates/core/src")) {
            continue;
        }
        let toks = &f.tokens;
        for func in &f.functions {
            if !func.is_pub || f.in_test_code(func.sig.0) {
                continue;
            }
            let Some((bstart, bend)) = func.body else {
                continue;
            };
            // Return type: tokens between `->` and the body `{`.
            let mut returns_result = false;
            let mut seen_arrow = false;
            for t in &toks[func.sig.0..func.sig.1] {
                if t.is_punct("->") {
                    seen_arrow = true;
                } else if seen_arrow && t.is_ident("Result") {
                    returns_result = true;
                    break;
                }
            }
            let mut can_panic = false;
            for i in bstart..bend {
                let t = &toks[i];
                if t.kind == TokKind::Ident
                    && i + 1 < bend
                    && toks[i + 1].is_punct("!")
                    && PANIC_MACROS.contains(&t.text.as_str())
                {
                    can_panic = true;
                    break;
                }
                if t.kind == TokKind::Ident
                    && (t.text == "unwrap" || t.text == "expect")
                    && i >= 1
                    && toks[i - 1].is_punct(".")
                    && i + 1 < bend
                    && toks[i + 1].is_punct("(")
                {
                    can_panic = true;
                    break;
                }
            }
            let silenced = f.has_annotation(func.line, "lint-ok: L006");
            if returns_result && !func.doc.contains("# Errors") && !silenced {
                out.push(Finding {
                    rule: Rule::L006,
                    file: f.rel.clone(),
                    line: func.line,
                    message: format!(
                        "pub fn `{}` returns Result without `# Errors` docs",
                        func.name
                    ),
                    hint: "add a `# Errors` doc section describing when and why it fails"
                        .to_string(),
                });
            }
            if can_panic && !func.doc.contains("# Panics") && !silenced {
                out.push(Finding {
                    rule: Rule::L006,
                    file: f.rel.clone(),
                    line: func.line,
                    message: format!("pub fn `{}` can panic without `# Panics` docs", func.name),
                    hint: "add a `# Panics` doc section (or remove the panic path)".to_string(),
                });
            }
        }
    }
    out
}

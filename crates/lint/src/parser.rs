//! Lightweight recursive-descent structure on top of the token stream.
//!
//! The token-stream rules (L001–L006) get away with window matching; the
//! semantic rules need real shape. This module parses just enough of it:
//!
//! * **enum items** — name and variant list, so L007 can tell which matches
//!   scrutinize a workspace protocol enum and which variants an arm names;
//! * **match expressions** — scrutinee, arms split into pattern / guard /
//!   body token ranges, so wildcard arms are recognized structurally instead
//!   of by grepping for `_ =>`;
//! * **`cfg` gates** — every `#[cfg(...)]` / `#![cfg(...)]` mentioning
//!   `feature = "..."`, with the gated item's kind, name, and token span,
//!   for the L009 feature-consistency checks;
//! * **statement trees** — fn bodies split into statements with nested
//!   blocks, early exits (`return`/`break`/`continue`), and top-level `?`
//!   markers, the substrate for the L008 resource-flow walk.
//!
//! Everything stays heuristic and total: malformed input degrades to fewer
//! parsed structures, never to a panic — the compiler is the arbiter of
//! validity, the linter only needs a best-effort view.

use crate::lexer::{TokKind, Token};
use crate::model::{match_brace, match_paren, SourceFile};

// ---------------------------------------------------------------------------
// Enum items
// ---------------------------------------------------------------------------

/// One `enum` item: name, variants, and where it lives.
#[derive(Debug, Clone)]
pub struct EnumDef {
    pub name: String,
    pub variants: Vec<String>,
    pub line: u32,
    /// Token index of the `enum` keyword.
    pub tok: usize,
}

/// Extracts every `enum` item in the file, including ones inside modules.
pub fn enums(f: &SourceFile) -> Vec<EnumDef> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if !toks[i].is_ident("enum") {
            i += 1;
            continue;
        }
        let name_tok = &toks[i + 1];
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Find the body `{` past any generics `<...>`.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" if toks[j].kind == TokKind::Punct => angle += 1,
                ">" if toks[j].kind == TokKind::Punct => angle -= 1,
                "{" if toks[j].kind == TokKind::Punct && angle <= 0 => break,
                ";" if toks[j].kind == TokKind::Punct => break, // not an enum item
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct("{") {
            i += 1;
            continue;
        }
        let end = match_brace(toks, j);
        let mut variants = Vec::new();
        // Walk the body at depth 1: a variant is an identifier at the start
        // of an entry; its payload `(..)`/`{..}` and discriminant are
        // skipped to the next `,` at depth 1.
        let mut k = j + 1;
        while k < end.saturating_sub(1) {
            let t = &toks[k];
            if t.is_punct("#") && k + 1 < end && toks[k + 1].is_punct("[") {
                // Attribute: skip to its `]`.
                let mut depth = 0usize;
                let mut a = k + 1;
                while a < end {
                    if toks[a].is_punct("[") {
                        depth += 1;
                    } else if toks[a].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    a += 1;
                }
                k = a + 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                variants.push(t.text.clone());
                // Skip to the `,` closing this entry (payload braces/parens
                // balanced).
                let (mut p, mut br, mut bk) = (0i32, 0i32, 0i32);
                while k < end.saturating_sub(1) {
                    let e = &toks[k];
                    match e.text.as_str() {
                        "(" if e.kind == TokKind::Punct => p += 1,
                        ")" if e.kind == TokKind::Punct => p -= 1,
                        "{" if e.kind == TokKind::Punct => br += 1,
                        "}" if e.kind == TokKind::Punct => br -= 1,
                        "[" if e.kind == TokKind::Punct => bk += 1,
                        "]" if e.kind == TokKind::Punct => bk -= 1,
                        "," if e.kind == TokKind::Punct && p == 0 && br == 0 && bk == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
            k += 1;
        }
        out.push(EnumDef {
            name: name_tok.text.clone(),
            variants,
            line: toks[i].line,
            tok: i,
        });
        i = end;
    }
    out
}

// ---------------------------------------------------------------------------
// Match expressions
// ---------------------------------------------------------------------------

/// One arm of a match: token ranges for the pattern (guard excluded), the
/// optional `if` guard, and the body.
#[derive(Debug, Clone)]
pub struct MatchArm {
    pub pat: (usize, usize),
    pub guard: Option<(usize, usize)>,
    pub body: (usize, usize),
    pub line: u32,
}

/// One `match` expression with its parsed arms.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// Token range of the scrutinee (between `match` and the body `{`).
    pub scrutinee: (usize, usize),
    pub arms: Vec<MatchArm>,
    pub line: u32,
    /// Token index of the `match` keyword.
    pub tok: usize,
}

/// Extracts every `match` expression (including nested ones — the scan is
/// token-linear, so a match inside an arm body is found independently).
pub fn matches(f: &SourceFile) -> Vec<MatchExpr> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("match") {
            continue;
        }
        // `matches!` lexes as the ident `matches`, not `match`; but a macro
        // named `match` cannot exist, so any `match` ident is the keyword.
        // Scrutinee: tokens to the body `{` at zero paren/bracket depth
        // (scrutinee position forbids bare struct literals, so the first
        // such `{` opens the body).
        let mut j = i + 1;
        let (mut p, mut bk) = (0i32, 0i32);
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "(" if t.kind == TokKind::Punct => p += 1,
                ")" if t.kind == TokKind::Punct => p -= 1,
                "[" if t.kind == TokKind::Punct => bk += 1,
                "]" if t.kind == TokKind::Punct => bk -= 1,
                "{" if t.kind == TokKind::Punct && p <= 0 && bk <= 0 => break,
                // A `;` or `}` first means this wasn't a match expression
                // after all (e.g. half-parsed macro soup); bail.
                ";" | "}" if t.kind == TokKind::Punct && p <= 0 && bk <= 0 => {
                    j = toks.len();
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            continue;
        }
        let body_open = j;
        let body_end = match_brace(toks, body_open); // exclusive, past `}`
        let mut arms = Vec::new();
        let mut k = body_open + 1;
        while k < body_end.saturating_sub(1) {
            // Pattern: tokens to `=>` at zero depth; a top-level `if` starts
            // the guard.
            let pat_start = k;
            let mut guard_start = None;
            let (mut p, mut br, mut bk) = (0i32, 0i32, 0i32);
            let mut arrow = None;
            let mut m = k;
            while m < body_end - 1 {
                let t = &toks[m];
                match t.text.as_str() {
                    "(" if t.kind == TokKind::Punct => p += 1,
                    ")" if t.kind == TokKind::Punct => p -= 1,
                    "{" if t.kind == TokKind::Punct => br += 1,
                    "}" if t.kind == TokKind::Punct => br -= 1,
                    "[" if t.kind == TokKind::Punct => bk += 1,
                    "]" if t.kind == TokKind::Punct => bk -= 1,
                    "if" if t.kind == TokKind::Ident
                        && p == 0
                        && br == 0
                        && bk == 0
                        && guard_start.is_none() =>
                    {
                        guard_start = Some(m)
                    }
                    "=>" if t.kind == TokKind::Punct && p == 0 && br == 0 && bk == 0 => {
                        arrow = Some(m);
                        break;
                    }
                    _ => {}
                }
                m += 1;
            }
            let Some(arrow) = arrow else { break };
            let pat_end = guard_start.unwrap_or(arrow);
            // Body: a block, or an expression to the `,` at zero depth (or
            // the end of the match body).
            let body_start = arrow + 1;
            let body_stop;
            let next;
            if body_start < body_end - 1 && toks[body_start].is_punct("{") {
                body_stop = match_brace(toks, body_start).min(body_end - 1);
                next = if body_stop < body_end - 1 && toks[body_stop].is_punct(",") {
                    body_stop + 1
                } else {
                    body_stop
                };
            } else {
                let (mut p, mut br, mut bk) = (0i32, 0i32, 0i32);
                let mut m = body_start;
                while m < body_end - 1 {
                    let t = &toks[m];
                    match t.text.as_str() {
                        "(" if t.kind == TokKind::Punct => p += 1,
                        ")" if t.kind == TokKind::Punct => p -= 1,
                        "{" if t.kind == TokKind::Punct => br += 1,
                        "}" if t.kind == TokKind::Punct => br -= 1,
                        "[" if t.kind == TokKind::Punct => bk += 1,
                        "]" if t.kind == TokKind::Punct => bk -= 1,
                        "," if t.kind == TokKind::Punct && p == 0 && br == 0 && bk == 0 => break,
                        _ => {}
                    }
                    m += 1;
                }
                body_stop = m;
                next = (m + 1).min(body_end - 1);
            }
            arms.push(MatchArm {
                pat: (pat_start, pat_end),
                guard: guard_start.map(|g| (g, arrow)),
                body: (body_start, body_stop),
                line: toks[pat_start].line,
            });
            if next <= k {
                break; // no forward progress; malformed body
            }
            k = next;
        }
        out.push(MatchExpr {
            scrutinee: (i + 1, body_open),
            arms,
            line: toks[i].line,
            tok: i,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// cfg gates
// ---------------------------------------------------------------------------

/// What kind of thing a `#[cfg]` attribute gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatedKind {
    Fn,
    Struct,
    Enum,
    Mod,
    Trait,
    Type,
    Const,
    Static,
    Use,
    Impl,
    /// Struct field, struct-literal entry, or other expression position.
    Other,
}

/// One `#[cfg(...)]` / `#![cfg(...)]` site that mentions a feature.
#[derive(Debug, Clone)]
pub struct CfgGate {
    /// The feature name from `feature = "..."` (first one in the attribute).
    pub feature: String,
    /// True when the feature appears under `not(...)`.
    pub negated: bool,
    pub line: u32,
    /// Token span of the attribute plus the gated item (for `#![cfg]`, the
    /// rest of the file).
    pub span: (usize, usize),
    /// Gated item kind and name, when one could be extracted.
    pub item: Option<(GatedKind, String)>,
    /// Names introduced by a gated `use` re-export (leaf idents).
    pub use_names: Vec<String>,
    pub is_pub: bool,
    /// Inner attribute `#![cfg(...)]` — gates the whole enclosing scope.
    pub inner: bool,
}

/// Extracts every cfg gate mentioning `feature = "..."`. `cfg_attr` and
/// non-feature cfgs (`cfg(test)`, `cfg(unix)`) are ignored.
pub fn cfg_gates(f: &SourceFile) -> Vec<CfgGate> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 3 < toks.len() {
        if !toks[i].is_punct("#") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = j < toks.len() && toks[j].is_punct("!");
        if inner {
            j += 1;
        }
        if !(j + 1 < toks.len() && toks[j].is_punct("[") && toks[j + 1].is_ident("cfg")) {
            i += 1;
            continue;
        }
        if !(j + 2 < toks.len() && toks[j + 2].is_punct("(")) {
            i += 1;
            continue;
        }
        let args_end = match_paren(toks, j + 2); // exclusive, past `)`
                                                 // Find `feature = "name"`, tracking whether we're under `not(`.
        let mut feature = None;
        let mut negated = false;
        let mut not_depth: Vec<i32> = Vec::new(); // paren depths where not( opened
        let mut depth = 0i32;
        let mut a = j + 2;
        while a < args_end {
            let t = &toks[a];
            if t.is_punct("(") {
                depth += 1;
            } else if t.is_punct(")") {
                depth -= 1;
                not_depth.retain(|&d| d <= depth);
            } else if t.is_ident("not") && a + 1 < args_end && toks[a + 1].is_punct("(") {
                not_depth.push(depth + 1);
            } else if t.is_ident("feature")
                && a + 2 < args_end
                && toks[a + 1].is_punct("=")
                && toks[a + 2].kind == TokKind::Str
                && feature.is_none()
            {
                feature = Some(toks[a + 2].text.clone());
                negated = !not_depth.is_empty();
            }
            a += 1;
        }
        let attr_end = args_end + 1; // past the closing `]`
        let Some(feature) = feature else {
            i = attr_end;
            continue;
        };
        if inner {
            out.push(CfgGate {
                feature,
                negated,
                line: toks[i].line,
                span: (i, toks.len()),
                item: None,
                use_names: Vec::new(),
                is_pub: false,
                inner: true,
            });
            i = attr_end;
            continue;
        }
        // Identify the gated item: skip further attributes, then read the
        // item prefix.
        let mut k = attr_end;
        while k + 1 < toks.len() && toks[k].is_punct("#") && toks[k + 1].is_punct("[") {
            // skip stacked attribute
            let mut depth = 0usize;
            let mut b = k + 1;
            while b < toks.len() {
                if toks[b].is_punct("[") {
                    depth += 1;
                } else if toks[b].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                b += 1;
            }
            k = b + 1;
        }
        let mut is_pub = false;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_ident("pub") {
                is_pub = true;
                // skip optional (crate)/(super)/(in path)
                if k + 1 < toks.len() && toks[k + 1].is_punct("(") {
                    k = match_paren(toks, k + 1);
                    continue;
                }
                k += 1;
            } else if t.is_ident("async")
                || t.is_ident("unsafe")
                || t.is_ident("extern")
                || t.kind == TokKind::Str
                || t.is_ident("const") && {
                    // `const fn` prefix vs `const NAME`: peek — if the next
                    // token is `fn`, it's a qualifier.
                    k + 1 < toks.len() && toks[k + 1].is_ident("fn")
                }
            {
                k += 1;
            } else {
                break;
            }
        }
        let (kind, name, use_names) = gated_item_at(toks, k);
        let span_end = gated_span_end(toks, k);
        out.push(CfgGate {
            feature,
            negated,
            line: toks[i].line,
            span: (i, span_end),
            item: name.map(|n| (kind, n)),
            use_names,
            is_pub,
            inner: false,
        });
        i = attr_end;
    }
    out
}

/// Classifies the item starting at `k` and extracts its name.
fn gated_item_at(toks: &[Token], k: usize) -> (GatedKind, Option<String>, Vec<String>) {
    let Some(t) = toks.get(k) else {
        return (GatedKind::Other, None, Vec::new());
    };
    let name_after = |kw_idx: usize| -> Option<String> {
        toks.get(kw_idx + 1)
            .filter(|n| n.kind == TokKind::Ident)
            .map(|n| n.text.clone())
    };
    match t.text.as_str() {
        "fn" => (GatedKind::Fn, name_after(k), Vec::new()),
        "struct" => (GatedKind::Struct, name_after(k), Vec::new()),
        "enum" => (GatedKind::Enum, name_after(k), Vec::new()),
        "mod" => (GatedKind::Mod, name_after(k), Vec::new()),
        "trait" => (GatedKind::Trait, name_after(k), Vec::new()),
        "type" => (GatedKind::Type, name_after(k), Vec::new()),
        "const" => (GatedKind::Const, name_after(k), Vec::new()),
        "static" => (GatedKind::Static, name_after(k), Vec::new()),
        "impl" => (GatedKind::Impl, None, Vec::new()),
        "use" => {
            // Collect the leaf idents of the use tree: idents not followed
            // by `::` (and not the `as` keyword or crate/self/super roots).
            let mut names = Vec::new();
            let mut m = k + 1;
            while m < toks.len() && !toks[m].is_punct(";") {
                let u = &toks[m];
                if u.kind == TokKind::Ident
                    && !matches!(u.text.as_str(), "as" | "crate" | "self" | "super")
                    && !(m + 1 < toks.len() && toks[m + 1].is_punct("::"))
                {
                    names.push(u.text.clone());
                }
                m += 1;
            }
            (GatedKind::Use, None, names)
        }
        _ => {
            // Struct field / struct-literal entry: `ident :` — or anything
            // else expression-shaped.
            if t.kind == TokKind::Ident && toks.get(k + 1).is_some_and(|n| n.is_punct(":")) {
                (GatedKind::Other, Some(t.text.clone()), Vec::new())
            } else {
                (GatedKind::Other, None, Vec::new())
            }
        }
    }
}

/// The token index just past the item starting at `k`: through its brace
/// block if one opens before a `;`/`,` at depth zero, else to that
/// terminator.
fn gated_span_end(toks: &[Token], k: usize) -> usize {
    let (mut p, mut bk) = (0i32, 0i32);
    let mut m = k;
    while m < toks.len() {
        let t = &toks[m];
        match t.text.as_str() {
            "(" if t.kind == TokKind::Punct => p += 1,
            ")" if t.kind == TokKind::Punct => {
                if p == 0 {
                    return m; // closing an enclosing group (struct literal arg…)
                }
                p -= 1;
            }
            "[" if t.kind == TokKind::Punct => bk += 1,
            "]" if t.kind == TokKind::Punct => bk -= 1,
            "{" if t.kind == TokKind::Punct && p == 0 && bk == 0 => return match_brace(toks, m),
            "}" if t.kind == TokKind::Punct && p == 0 && bk == 0 => return m,
            ";" | "," if t.kind == TokKind::Punct && p == 0 && bk == 0 => return m + 1,
            _ => {}
        }
        m += 1;
    }
    toks.len()
}

// ---------------------------------------------------------------------------
// Statement trees
// ---------------------------------------------------------------------------

/// How a statement leaves the enclosing scope, if it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    None,
    Return,
    Break,
    Continue,
}

/// One statement: its token range, early-exit classification, whether a `?`
/// occurs at its top level, and its nested blocks (if/else/match/loop bodies,
/// block expressions), each parsed recursively.
#[derive(Debug)]
pub struct Stmt {
    /// Token range, inclusive of the trailing `;` when present.
    pub range: (usize, usize),
    pub line: u32,
    pub exit: ExitKind,
    /// A `?` at the statement's top level (outside nested blocks).
    pub has_question: bool,
    pub blocks: Vec<Block>,
    /// Index in `blocks` of a `let ... else { }` diverging block — the
    /// binding is *not* in scope there.
    pub else_block: Option<usize>,
    /// `let`-bound name: `let [mut] x`, `let Some(x)`, `let Ok(x)`.
    pub binding: Option<String>,
    /// For `let` statements: token index just past the `=` sign.
    pub init_start: Option<usize>,
}

/// A brace-delimited (or fn-body) sequence of statements.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

const BLOCKY_STARTERS: &[&str] = &["if", "while", "for", "loop", "match", "unsafe"];

/// Parses the token range `[start, end)` as a statement sequence.
pub fn parse_block(f: &SourceFile, start: usize, end: usize) -> Block {
    let toks = &f.tokens;
    let mut stmts = Vec::new();
    let mut i = start;
    while i < end {
        if toks[i].is_punct(";") {
            i += 1;
            continue;
        }
        let stmt_start = i;
        let line = toks[i].line;
        let first = &toks[i];
        let exit = if first.is_ident("return") {
            ExitKind::Return
        } else if first.is_ident("break") {
            ExitKind::Break
        } else if first.is_ident("continue") {
            ExitKind::Continue
        } else {
            ExitKind::None
        };
        let is_let = first.is_ident("let");
        let blocky = BLOCKY_STARTERS.contains(&first.text.as_str()) && first.kind == TokKind::Ident
            || first.is_punct("{");
        // `let` binding extraction: `let [mut] x =` / `let Some(x) =`.
        let mut binding = None;
        let mut init_start = None;
        if is_let {
            let mut b = i + 1;
            if b < end && toks[b].is_ident("mut") {
                b += 1;
            }
            if b < end && toks[b].kind == TokKind::Ident {
                if b + 1 < end && toks[b + 1].is_punct("(") {
                    // `let Some(x)` / `let Ok(x)` — one ident inside.
                    if b + 3 < end
                        && toks[b + 2].kind == TokKind::Ident
                        && toks[b + 3].is_punct(")")
                    {
                        binding = Some(toks[b + 2].text.clone());
                    }
                } else {
                    binding = Some(toks[b].text.clone());
                }
            }
        }
        // Scan to the statement end, collecting top-level blocks.
        let (mut p, mut bk) = (0i32, 0i32);
        let mut blocks = Vec::new();
        let mut else_block = None;
        let mut has_question = false;
        let mut j = i;
        let mut stmt_end = end;
        let mut prev_else = false;
        while j < end {
            let t = &toks[j];
            match t.text.as_str() {
                "(" if t.kind == TokKind::Punct => p += 1,
                ")" if t.kind == TokKind::Punct => p -= 1,
                "[" if t.kind == TokKind::Punct => bk += 1,
                "]" if t.kind == TokKind::Punct => bk -= 1,
                "=" if t.kind == TokKind::Punct
                    && is_let
                    && p == 0
                    && bk == 0
                    && init_start.is_none() =>
                {
                    init_start = Some(j + 1)
                }
                "?" if t.kind == TokKind::Punct && p == 0 && bk == 0 => has_question = true,
                "{" if t.kind == TokKind::Punct && p == 0 && bk == 0 => {
                    let bend = match_brace(toks, j); // past `}`
                    let inner_end = bend.saturating_sub(1).min(end);
                    if prev_else {
                        else_block = else_block.or(Some(blocks.len()));
                    }
                    blocks.push(parse_block(f, j + 1, inner_end));
                    j = bend.min(end);
                    // Does this block terminate the statement?
                    if j >= end {
                        stmt_end = end;
                        break;
                    }
                    let nt = &toks[j];
                    let continuation = nt.is_ident("else")
                        || nt.is_punct(".")
                        || nt.is_punct("?")
                        || nt.is_punct(",");
                    if blocky && !continuation && !is_let {
                        stmt_end = j;
                        break;
                    }
                    if nt.is_punct(";") {
                        stmt_end = j + 1;
                        break;
                    }
                    prev_else = false;
                    continue;
                }
                "}" if t.kind == TokKind::Punct && p == 0 && bk == 0 => {
                    // Enclosing block closes; statement ends here.
                    stmt_end = j;
                    break;
                }
                ";" if t.kind == TokKind::Punct && p == 0 && bk == 0 => {
                    stmt_end = j + 1;
                    break;
                }
                _ => {}
            }
            prev_else = t.is_ident("else") && is_let;
            j += 1;
        }
        if j >= end {
            stmt_end = stmt_end.min(end);
        }
        if stmt_end <= stmt_start {
            break; // closing brace of the enclosing block; done
        }
        stmts.push(Stmt {
            range: (stmt_start, stmt_end),
            line,
            exit,
            has_question,
            blocks,
            else_block,
            binding: binding.filter(|b| b != "_"),
            init_start,
        });
        i = stmt_end.max(stmt_start + 1);
    }
    Block { stmts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/a/src/lib.rs", src)
    }

    #[test]
    fn enum_variants_extracted() {
        let f = file(
            r#"
pub enum Event {
    Converted(Arc<BinaryChunk>),
    Evicted(Evicted),
    ReadBlocked,
    WriteDone(ChunkId),
    QueryDone,
}
enum Simple { A, B = 3, C { x: u32 } }
"#,
        );
        let es = enums(&f);
        assert_eq!(es.len(), 2);
        assert_eq!(es[0].name, "Event");
        assert_eq!(
            es[0].variants,
            vec![
                "Converted",
                "Evicted",
                "ReadBlocked",
                "WriteDone",
                "QueryDone"
            ]
        );
        assert_eq!(es[1].variants, vec!["A", "B", "C"]);
    }

    #[test]
    fn match_arms_with_guards_and_struct_patterns() {
        let f = file(
            r#"
fn f(e: &Event) -> u32 {
    match e {
        Event::Converted(c) if c.big() => 1,
        Event::WriteQueued { chunk, .. } => 2,
        _ => 0,
    }
}
"#,
        );
        let ms = matches(&f);
        assert_eq!(ms.len(), 1);
        let m = &ms[0];
        assert_eq!(m.arms.len(), 3);
        assert!(m.arms[0].guard.is_some());
        let pat_texts: Vec<String> = (m.arms[2].pat.0..m.arms[2].pat.1)
            .map(|i| f.tokens[i].text.clone())
            .collect();
        assert_eq!(pat_texts, vec!["_"]);
    }

    #[test]
    fn nested_matches_found_independently() {
        let f =
            file("fn f(x: A, y: B) { match x { A::P => match y { B::Q => 1, _ => 2 }, _ => 0 }; }");
        assert_eq!(matches(&f).len(), 2);
    }

    #[test]
    fn cfg_gate_on_fn_and_mod() {
        let f = file(
            r#"
#[cfg(feature = "fault-inject")]
pub fn set_fault_plan(&self, plan: FaultPlan) {
    body();
}
#[cfg(not(feature = "fault-inject"))]
fn stub() {}
#[cfg(feature = "fault-inject")]
pub use fault::{FaultConfig, FaultPlan};
#[cfg(test)]
mod tests {}
"#,
        );
        let gs = cfg_gates(&f);
        assert_eq!(gs.len(), 3);
        assert_eq!(gs[0].feature, "fault-inject");
        assert!(!gs[0].negated);
        assert!(gs[0].is_pub);
        assert_eq!(
            gs[0].item,
            Some((GatedKind::Fn, "set_fault_plan".to_string()))
        );
        assert!(gs[1].negated);
        assert_eq!(gs[2].use_names, vec!["FaultConfig", "FaultPlan"]);
    }

    #[test]
    fn inner_cfg_gates_rest_of_file() {
        let f = file("#![cfg(feature = \"fault-inject\")]\nfn f() {}\n");
        let gs = cfg_gates(&f);
        assert_eq!(gs.len(), 1);
        assert!(gs[0].inner);
        assert_eq!(gs[0].span.1, f.tokens.len());
    }

    #[test]
    fn stmt_tree_shapes() {
        let f = file(
            r#"
fn f(b: &Buf) -> Result<(), E> {
    let c = b.pop();
    let m = meta()?;
    if bad(&m) {
        return Err(E::Bad);
    }
    out.send(c);
    Ok(())
}
"#,
        );
        let func = &f.functions[0];
        let (s, e) = func.body.unwrap();
        let block = parse_block(&f, s, e);
        assert_eq!(block.stmts.len(), 5);
        assert_eq!(block.stmts[0].binding.as_deref(), Some("c"));
        assert!(block.stmts[1].has_question);
        assert_eq!(block.stmts[2].blocks.len(), 1);
        assert_eq!(block.stmts[2].blocks[0].stmts.len(), 1);
        assert_eq!(block.stmts[2].blocks[0].stmts[0].exit, ExitKind::Return);
        assert_eq!(block.stmts[4].exit, ExitKind::None);
    }

    #[test]
    fn let_else_block_marked() {
        let f = file("fn f(b: &Buf) { let Some(x) = b.pop() else { return; }; use_it(x); }");
        let (s, e) = f.functions[0].body.unwrap();
        let block = parse_block(&f, s, e);
        assert_eq!(block.stmts[0].binding.as_deref(), Some("x"));
        assert_eq!(block.stmts[0].else_block, Some(0));
        assert_eq!(block.stmts.len(), 2);
    }

    #[test]
    fn if_else_chain_is_one_statement() {
        let f = file("fn f() { if a { x() } else if b { y() } else { z() } w(); }");
        let (s, e) = f.functions[0].body.unwrap();
        let block = parse_block(&f, s, e);
        assert_eq!(block.stmts.len(), 2);
        assert_eq!(block.stmts[0].blocks.len(), 3);
    }
}

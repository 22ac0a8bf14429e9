//! Source model built on the token stream: files, items, and annotations.
//!
//! Rules operate on [`SourceFile`]s — a lexed file plus derived structure:
//! `#[cfg(test)]` spans (excluded from analysis), extracted functions with
//! body ranges and attached doc comments, and the audit-annotation lookup
//! (`// relaxed-ok: <reason>` and `// lint-ok: <RULE> <reason>` on the
//! finding line or the line above).

use crate::lexer::{lex, Comment, TokKind, Token};

/// A lexed source file with derived structure.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (display + scoping rules).
    pub rel: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// Token-index ranges (inclusive start, exclusive end) of `#[cfg(test)]`
    /// items; rules skip findings inside them.
    pub test_spans: Vec<(usize, usize)>,
    /// Extracted functions, in source order.
    pub functions: Vec<FnInfo>,
}

/// One `fn` item: enough signature/body structure for the rules.
#[derive(Debug)]
pub struct FnInfo {
    pub name: String,
    pub is_pub: bool,
    pub line: u32,
    /// Token range of the signature: from `fn` to the body `{` (exclusive).
    pub sig: (usize, usize),
    /// Token range of the body between the braces (exclusive of both), if
    /// the function has one (trait declarations do not).
    pub body: Option<(usize, usize)>,
    /// Concatenated doc-comment text attached to the item.
    pub doc: String,
}

impl SourceFile {
    /// Lexes and indexes one file.
    pub fn parse(rel: impl Into<String>, src: &str) -> SourceFile {
        let lexed = lex(src);
        let test_spans = find_test_spans(&lexed.tokens);
        let functions = find_functions(&lexed.tokens, &lexed.comments);
        SourceFile {
            rel: rel.into(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            test_spans,
            functions,
        }
    }

    /// True when the token at `idx` lies inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// True when a comment containing `needle` covers `line` or the line
    /// directly above — the audit-annotation convention.
    pub fn has_annotation(&self, line: u32, needle: &str) -> bool {
        self.comments.iter().any(|c| {
            (c.end_line + 1 == line || (c.line <= line && line <= c.end_line))
                && c.text.contains(needle)
        })
    }

    /// The innermost function whose body contains token index `idx`
    /// (functions are in source order, so the last match is the innermost).
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnInfo> {
        self.functions
            .iter()
            .rfind(|f| f.body.is_some_and(|(s, e)| idx >= s && idx < e))
    }
}

/// Returns the index just past the brace block opened at `open` (which must
/// point at a `{`), or `tokens.len()` when unbalanced.
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    debug_assert_eq!(tokens[open].text, "{");
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match (tokens[i].kind, tokens[i].text.as_str()) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Returns the index just past the paren group opened at `open` (a `(`).
pub fn match_paren(tokens: &[Token], open: usize) -> usize {
    debug_assert_eq!(tokens[open].text, "(");
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match (tokens[i].kind, tokens[i].text.as_str()) {
            (TokKind::Punct, "(") => depth += 1,
            (TokKind::Punct, ")") => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Counts the comma-separated items in the paren group opened at `open`.
/// Commas inside nested `()`/`[]`/`{}`/`<…>` do not count; a trailing comma
/// is ignored. Returns `None` when the group is unterminated (or `open` is
/// not a `(`), in which case callers should skip arity filtering. Known
/// blind spot: a multi-parameter closure argument (`sort_by(|a, b| …)`) or a
/// bare `<` comparison at depth 0 skews the count — both are rare in the
/// call/signature positions this feeds, and a skewed count only drops a
/// resolution edge (the documented unsound direction).
pub fn count_args(tokens: &[Token], open: usize) -> Option<usize> {
    if !tokens.get(open).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let close = match_paren(tokens, open).checked_sub(1)?;
    if !tokens.get(close).is_some_and(|t| t.is_punct(")")) {
        return None;
    }
    if close == open + 1 {
        return Some(0);
    }
    let (mut depth, mut angle) = (0i32, 0i32);
    let mut commas = 0usize;
    for t in &tokens[open + 1..close] {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" => angle += 1,
            // `->` is a fused token, so it never decrements angle depth.
            ">" => angle = (angle - 1).max(0),
            "," if depth == 0 && angle == 0 => commas += 1,
            _ => {}
        }
    }
    // `f(a, b,)` — the trailing comma is not another argument.
    if tokens[close - 1].is_punct(",") && commas > 0 {
        commas -= 1;
    }
    Some(commas + 1)
}

/// Finds `#[cfg(test)] <item>` spans: the attribute plus the following
/// item's brace block (e.g. `mod tests { … }`).
fn find_test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        if tokens[i].is_punct("#")
            && tokens[i + 1].is_punct("[")
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct("(")
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(")")
            && tokens[i + 6].is_punct("]")
        {
            // Find the first `{` after the attribute and swallow the block.
            let mut j = i + 7;
            while j < tokens.len() && !tokens[j].is_punct("{") {
                // An item ending in `;` before any `{` (e.g. `use` under
                // cfg(test)) has no block; span covers to the `;`.
                if tokens[j].is_punct(";") {
                    break;
                }
                j += 1;
            }
            let end = if j < tokens.len() && tokens[j].is_punct("{") {
                match_brace(tokens, j)
            } else {
                j + 1
            };
            spans.push((i, end));
            i = end;
            continue;
        }
        i += 1;
    }
    spans
}

/// Extracts `fn` items: name, pub-ness, signature and body token ranges, and
/// the doc comment attached above the item (skipping attribute lines).
fn find_functions(tokens: &[Token], comments: &[Comment]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // `fn` inside a type like `Fn(..)` or `fn(..)` pointer: the next
        // token must be an identifier (the name) for an item.
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Walk back over the item prefix (`pub`, `pub(crate)`, `const`,
        // `async`, `unsafe`, `extern "C"`) to find pub-ness and the item's
        // first line (for doc attachment).
        let mut first = i;
        let mut is_pub = false;
        let mut k = i;
        while k > 0 {
            let p = &tokens[k - 1];
            let part_of_prefix = p.is_ident("pub")
                || p.is_ident("const")
                || p.is_ident("async")
                || p.is_ident("unsafe")
                || p.is_ident("extern")
                || p.is_ident("crate")
                || p.is_ident("super")
                || p.is_ident("in")
                || p.kind == TokKind::Str // extern "C"
                || p.is_punct("(")
                || p.is_punct(")");
            if !part_of_prefix {
                break;
            }
            if p.is_ident("pub") {
                is_pub = true;
            }
            k -= 1;
            first = k;
        }
        // Attribute lines above (`#[…]`) move the doc anchor further up.
        let mut anchor_line = tokens[first].line;
        let mut a = first;
        while a >= 2 && tokens[a - 1].is_punct("]") {
            // Walk back to the matching `#[`.
            let mut depth = 0usize;
            let mut j = a - 1;
            loop {
                if tokens[j].is_punct("]") {
                    depth += 1;
                } else if tokens[j].is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            if j >= 1 && tokens[j - 1].is_punct("#") {
                a = j - 1;
                anchor_line = tokens[a].line;
            } else {
                break;
            }
        }
        // Doc comments: contiguous comment lines ending directly above.
        let mut doc = String::new();
        let mut expect_end = anchor_line.saturating_sub(1);
        for c in comments.iter().rev() {
            if c.end_line == expect_end && c.doc {
                doc = format!("{}\n{}", c.text, doc);
                expect_end = c.line.saturating_sub(1);
            } else if c.end_line < expect_end {
                break;
            }
        }
        // Scan forward for the body `{` (or a `;` for bodiless decls).
        // Inside a signature, `{` can only open the body once paren and
        // bracket depth are zero (const-generic braces are not used here).
        let mut j = i + 1;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut body = None;
        let mut sig_end = tokens.len();
        while j < tokens.len() {
            let t = &tokens[j];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "(") => paren += 1,
                (TokKind::Punct, ")") => paren -= 1,
                (TokKind::Punct, "[") => bracket += 1,
                (TokKind::Punct, "]") => bracket -= 1,
                (TokKind::Punct, "{") if paren == 0 && bracket == 0 => {
                    sig_end = j;
                    let end = match_brace(tokens, j);
                    body = Some((j + 1, end.saturating_sub(1)));
                    break;
                }
                (TokKind::Punct, ";") if paren == 0 && bracket == 0 => {
                    sig_end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        fns.push(FnInfo {
            name: name_tok.text.clone(),
            is_pub,
            line: tokens[i].line,
            sig: (i, sig_end),
            body,
            doc,
        });
        // Continue after the signature; nested fns inside the body are found
        // by continuing the scan from there (i advances token by token).
        i += 2;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_extracted_with_docs_and_pubness() {
        let src = r#"
/// Returns things.
///
/// # Errors
/// When sad.
#[inline]
pub fn get(x: u32) -> Result<u32, ()> {
    Ok(x)
}

fn private_helper() {}
"#;
        let f = SourceFile::parse("a.rs", src);
        assert_eq!(f.functions.len(), 2);
        let get = &f.functions[0];
        assert!(get.is_pub);
        assert_eq!(get.name, "get");
        assert!(get.doc.contains("# Errors"));
        assert!(get.body.is_some());
        assert!(!f.functions[1].is_pub);
    }

    #[test]
    fn cfg_test_spans_cover_mod() {
        let src = r#"
pub fn real() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        real();
    }
}
"#;
        let f = SourceFile::parse("a.rs", src);
        assert_eq!(f.test_spans.len(), 1);
        let idx = f
            .tokens
            .iter()
            .position(|t| t.text == "t")
            .expect("test fn token");
        assert!(f.in_test_code(idx));
        let idx_real = f.tokens.iter().position(|t| t.text == "real").unwrap();
        assert!(!f.in_test_code(idx_real));
    }

    #[test]
    fn annotation_lookup_same_and_previous_line() {
        let src = "// relaxed-ok: why\nlet x = 1;\nlet y = 2; // lint-ok: L005 reason\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.has_annotation(2, "relaxed-ok:"));
        assert!(f.has_annotation(3, "lint-ok: L005"));
        assert!(!f.has_annotation(2, "lint-ok:"));
    }

    #[test]
    fn bodiless_trait_fn() {
        let f = SourceFile::parse("a.rs", "trait T { fn alpha(&self) -> u32; }");
        let alpha = f.functions.iter().find(|x| x.name == "alpha").unwrap();
        assert!(alpha.body.is_none());
    }

    #[test]
    fn count_args_counts_top_level_commas() {
        let at = |src: &str| {
            let f = SourceFile::parse("a.rs", src);
            let open = f.tokens.iter().position(|t| t.text == "(").unwrap();
            count_args(&f.tokens, open)
        };
        assert_eq!(at("f()"), Some(0));
        assert_eq!(at("f(a)"), Some(1));
        assert_eq!(at("f(a, b, c)"), Some(3));
        assert_eq!(at("f(g(a, b), c)"), Some(2));
        assert_eq!(at("f(v.collect::<Vec<(u32, u32)>>(), c)"), Some(2));
        assert_eq!(at("f(a, b,)"), Some(2));
        assert_eq!(at("f(HashMap<u32, u32>::new())"), Some(1));
    }
}

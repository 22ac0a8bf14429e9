//! A small hand-rolled Rust lexer.
//!
//! The same tokenization discipline as `scanraw_rawfile::tokenize` — a single
//! forward pass that records positions — applied to Rust source instead of
//! CSV. It produces just enough structure for the rule catalog: identifiers,
//! punctuation (with `::`, `->` and `=>` fused), literals, lifetimes, and a
//! side table of comments with line ranges (the carrier for `relaxed-ok:` /
//! `lint-ok:` audit annotations).
//!
//! It is deliberately *not* a full lexer: token texts are borrowed slices of
//! the source, numeric literals are scanned coarsely, and shebangs /
//! `cfg_attr` tricks are out of scope. Every construct that appears in this
//! workspace — nested block comments, raw strings, byte strings, char
//! literals vs. lifetimes — is handled.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the rules match on text).
    Ident,
    /// Punctuation; multi-char for `::`, `->`, `=>`, single-char otherwise.
    Punct,
    /// String / raw-string / byte-string literal (text excludes quotes).
    Str,
    /// Character or byte literal.
    Char,
    /// Numeric literal (coarse: includes suffixes).
    Num,
    /// Lifetime or loop label, without the leading `'`.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    /// True for the punctuation token `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }

    /// True for the identifier or keyword `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// A comment (line or block) with its covered line range, 1-based inclusive.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub end_line: u32,
    pub text: String,
    /// `///`, `//!`, `/**` or `/*!`.
    pub doc: bool,
}

/// Lexer output: the token stream plus the comment side table.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments. Never fails: unterminated literals
/// simply run to end-of-file (the compiler is the arbiter of validity; the
/// linter only needs a best-effort stream).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push_tok {
        ($kind:expr, $text:expr, $line:expr) => {
            out.tokens.push(Token {
                kind: $kind,
                text: $text,
                line: $line,
            })
        };
    }

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            let doc = text.starts_with("///") || text.starts_with("//!");
            out.comments.push(Comment {
                line,
                end_line: line,
                text,
                doc,
            });
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let text: String = b[start..i.min(n)].iter().collect();
            let doc = text.starts_with("/**") || text.starts_with("/*!");
            out.comments.push(Comment {
                line: start_line,
                end_line: line,
                text,
                doc,
            });
            continue;
        }
        // Raw strings / raw identifiers / byte strings, before plain idents.
        if c == 'r' || c == 'b' {
            let mut j = i;
            let mut is_byte = false;
            if b[j] == 'b' {
                is_byte = true;
                j += 1;
            }
            let _ = is_byte;
            let raw = j < n && b[j] == 'r';
            if raw {
                j += 1;
            }
            if raw && j < n && (b[j] == '"' || b[j] == '#') {
                // Raw (byte) string: r"…", r#"…"#, br##"…"## …
                let mut hashes = 0usize;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    j += 1;
                    let text_start = j;
                    let tok_line = line;
                    let mut closed = false;
                    while j < n {
                        if b[j] == '\n' {
                            line += 1;
                        }
                        if b[j] == '"' {
                            let mut k = j + 1;
                            let mut seen = 0usize;
                            while k < n && b[k] == '#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                push_tok!(
                                    TokKind::Str,
                                    b[text_start..j].iter().collect(),
                                    tok_line
                                );
                                i = k;
                                closed = true;
                                break;
                            }
                        }
                        j += 1;
                    }
                    if !closed {
                        // Unterminated raw string: emit what we have and
                        // stop — without this the outer loop never advances
                        // `i` and the lexer spins forever.
                        push_tok!(TokKind::Str, b[text_start..].iter().collect(), tok_line);
                        i = n;
                    }
                    continue;
                }
                // `r#ident` raw identifier: fall through to ident lexing
                // below, skipping the `r#` prefix.
                if hashes == 1 && j < n && is_ident_start(b[j]) {
                    let start = j;
                    while j < n && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    push_tok!(TokKind::Ident, b[start..j].iter().collect(), line);
                    i = j;
                    continue;
                }
            }
            if c == 'b' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '\'') {
                // Byte string / byte char: delegate to the quote handling
                // below by skipping the `b` prefix.
                i += 1;
                // fall through to the '"' / '\'' branches on next iteration
                continue;
            }
            // Plain identifier starting with r/b.
        }
        // Plain string literal.
        if c == '"' {
            let tok_line = line;
            i += 1;
            let start = i;
            while i < n && b[i] != '"' {
                if b[i] == '\\' {
                    // A `\` line continuation escapes the newline itself;
                    // still count it or every later token's line drifts.
                    if i + 1 < n && b[i + 1] == '\n' {
                        line += 1;
                    }
                    i += 2;
                    continue;
                }
                if b[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            push_tok!(TokKind::Str, b[start..i.min(n)].iter().collect(), tok_line);
            i += 1; // closing quote
            continue;
        }
        // Char literal vs lifetime/label.
        if c == '\'' {
            if i + 1 < n && b[i + 1] == '\\' {
                // Escaped char literal: '\n', '\u{..}', '\'', …. Skip the
                // backslash *and* the escaped character before hunting the
                // closing quote, or `'\''` terminates on its own escaped
                // quote and the real closing quote leaks into the stream
                // (where it fuses with following code as a bogus lifetime).
                let tok_line = line;
                let start = i + 1;
                i += 3;
                while i < n && b[i] != '\'' {
                    i += 1;
                }
                push_tok!(TokKind::Char, b[start..i.min(n)].iter().collect(), tok_line);
                i += 1;
                continue;
            }
            if i + 2 < n && is_ident_start(b[i + 1]) && b[i + 2] == '\'' {
                // Single-char literal like 'x'.
                push_tok!(TokKind::Char, b[i + 1].to_string(), line);
                i += 3;
                continue;
            }
            if i + 1 < n && is_ident_start(b[i + 1]) {
                // Lifetime or loop label.
                let start = i + 1;
                let mut j = start;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                push_tok!(TokKind::Lifetime, b[start..j].iter().collect(), line);
                i = j;
                continue;
            }
            // Something like '(' as a char: '(' …
            if i + 2 < n && b[i + 2] == '\'' {
                push_tok!(TokKind::Char, b[i + 1].to_string(), line);
                i += 3;
                continue;
            }
            // Lone quote (invalid source); skip.
            i += 1;
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            push_tok!(TokKind::Ident, b[start..i].iter().collect(), line);
            continue;
        }
        // Number (coarse: digits, `_`, alphanumeric suffixes, and a dot when
        // followed by a digit so method calls like `1.max(x)` stay intact).
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (is_ident_continue(b[i])
                    || (b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            push_tok!(TokKind::Num, b[start..i].iter().collect(), line);
            continue;
        }
        // Punctuation; fuse the three digraphs the rules care about.
        if c == ':' && i + 1 < n && b[i + 1] == ':' {
            push_tok!(TokKind::Punct, "::".to_string(), line);
            i += 2;
            continue;
        }
        if c == '-' && i + 1 < n && b[i + 1] == '>' {
            push_tok!(TokKind::Punct, "->".to_string(), line);
            i += 2;
            continue;
        }
        if c == '=' && i + 1 < n && b[i + 1] == '>' {
            push_tok!(TokKind::Punct, "=>".to_string(), line);
            i += 2;
            continue;
        }
        push_tok!(TokKind::Punct, c.to_string(), line);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_digraphs() {
        let t = kinds("Ordering::Relaxed -> x => y");
        assert_eq!(t[0], (TokKind::Ident, "Ordering".into()));
        assert_eq!(t[1], (TokKind::Punct, "::".into()));
        assert_eq!(t[2], (TokKind::Ident, "Relaxed".into()));
        assert_eq!(t[3], (TokKind::Punct, "->".into()));
        assert_eq!(t[5], (TokKind::Punct, "=>".into()));
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let t = kinds(r#"let s = "Ordering::Relaxed unwrap()";"#);
        assert!(t
            .iter()
            .all(|(k, x)| *k != TokKind::Ident || (x != "Ordering" && x != "unwrap")));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let t = kinds("let s = r#\"a \" b\"#; let c = '\\n'; let q = \"x\\\"y\";");
        let strs: Vec<&String> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Str)
            .map(|(_, x)| x)
            .collect();
        assert_eq!(strs[0], "a \" b");
        assert_eq!(strs[1], "x\\\"y");
    }

    #[test]
    fn lifetime_vs_char() {
        let t = kinds("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(t.iter().any(|(k, x)| *k == TokKind::Lifetime && x == "a"));
        assert!(t.iter().any(|(k, x)| *k == TokKind::Char && x == "x"));
    }

    #[test]
    fn comments_collected_with_lines() {
        let l = lex("// one\nlet x = 1; // two\n/* three\nspans */\n/// doc\nfn f() {}\n");
        assert_eq!(l.comments.len(), 4);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
        assert_eq!((l.comments[2].line, l.comments[2].end_line), (3, 4));
        assert!(l.comments[3].doc);
        // Tokens still track lines past multi-line comments.
        let f = l.tokens.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(f.line, 6);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ c */ fn f() {}");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.tokens[0].text, "fn");
    }

    #[test]
    fn unterminated_raw_string_terminates_lexer() {
        // Regression: an unterminated raw string used to spin forever when
        // the opening quote was the last character.
        let l = lex("let s = r\"");
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::Str));
        let l = lex("let s = r#\"abc");
        let s = l.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, "abc");
    }

    #[test]
    fn escaped_newline_in_string_keeps_lines_aligned() {
        // Regression: the `\`-continuation newline was skipped without
        // counting, shifting every later token up a line (and with it the
        // `lint-ok:` annotation lookup).
        let l = lex("let s = \"a\\\nb\";\nfn f() {}\n");
        let f = l.tokens.iter().find(|t| t.text == "fn").unwrap();
        assert_eq!(f.line, 3);
    }

    #[test]
    fn escaped_quote_char_literal() {
        // Regression: '\'' used to stop at its own escaped quote, leaking
        // the real closing quote back into the stream where it fused with
        // following identifiers as a bogus lifetime.
        let t = kinds("let q = '\\''; let x = send;");
        assert!(t.iter().any(|(k, x)| *k == TokKind::Char && x == "\\'"));
        assert!(t.iter().any(|(k, x)| *k == TokKind::Ident && x == "send"));
        assert!(!t.iter().any(|(k, _)| *k == TokKind::Lifetime));
        // '\u{7f}' still lexes as one char token.
        let t = kinds("let c = '\\u{7f}';");
        assert!(t.iter().any(|(k, x)| *k == TokKind::Char && x == "\\u{7f}"));
    }
}

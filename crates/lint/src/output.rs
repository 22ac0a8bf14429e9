//! Machine-readable lint output.
//!
//! Two formats besides the human text dump:
//!
//! * **json** — a stable, versioned report (`{"version":1,…}`) consumed by
//!   the CI artifact upload and the golden tests;
//! * **github** — `::error file=…,line=…::…` workflow annotations.
//!
//! There is no suppression sidecar: a finding is fixed, or audited in
//! source with `// lint-ok: <RULE> <reason>` where the next reader sees the
//! reasoning; manifest- and catalog-level findings (L009/L010/L018) are
//! fixed in the Cargo.toml or DESIGN.md they point at.

use crate::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The versioned JSON report. Findings keep the (file, line, rule) sort
/// they arrive in, so the output is byte-stable for a given workspace.
pub fn to_json(findings: &[Finding]) -> String {
    let mut by_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    for f in findings {
        *by_rule.entry(f.rule.id()).or_default() += 1;
    }
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n  \"tool\": \"scanraw-lint\",\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"hint\": \"{}\"}}",
            f.rule.id(),
            esc(&f.file),
            f.line,
            esc(&f.message),
            esc(&f.hint)
        );
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"summary\": {\n    \"total\": ");
    let _ = write!(out, "{}", findings.len());
    out.push_str(",\n    \"by_rule\": {");
    for (i, (rule, n)) in by_rule.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n      \"{rule}\": {n}");
    }
    if !by_rule.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("}\n  }\n}\n");
    out
}

/// GitHub Actions workflow annotations, one `::error` line per finding.
/// `%`, CR and LF must be URL-escaped in annotation messages.
pub fn to_github(findings: &[Finding]) -> String {
    fn gh_esc(s: &str) -> String {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    }
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "::error file={},line={},title=scanraw-lint {}::[{}] {}",
            gh_esc(&f.file),
            f.line,
            f.rule.id(),
            f.rule.id(),
            gh_esc(&f.message)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                rule: Rule::L007,
                file: "crates/core/src/scheduler.rs".into(),
                line: 261,
                message: "wildcard arm in match on protocol enum `ObsEvent`".into(),
                hint: "list every variant".into(),
            },
            Finding {
                rule: Rule::L009,
                file: "crates/engine/Cargo.toml".into(),
                line: 20,
                message: "feature `deadlock-detect` is not forwarded to dependency `scanraw`"
                    .into(),
                hint: "add \"scanraw/deadlock-detect\"".into(),
            },
        ]
    }

    #[test]
    fn json_shape_and_escaping() {
        let j = to_json(&sample());
        assert!(j.contains("\"version\": 1"));
        assert!(j.contains("\"total\": 2"));
        assert!(j.contains("\"L007\": 1"));
        assert!(j.contains("\\\"scanraw/deadlock-detect\\\"") || j.contains("hint"));
        // Quotes in the hint must be escaped.
        assert!(j.contains("add \\\"scanraw/deadlock-detect\\\""), "{j}");
        let empty = to_json(&[]);
        assert!(empty.contains("\"findings\": []"), "{empty}");
        assert!(empty.contains("\"total\": 0"));
    }

    #[test]
    fn github_annotations_escape_newlines() {
        let mut fs = sample();
        fs[0].message = "line one\nline two".into();
        let g = to_github(&fs);
        assert!(g.starts_with("::error file=crates/core/src/scheduler.rs,line=261,"));
        assert!(g.contains("line one%0Aline two"));
        assert_eq!(g.lines().count(), 2);
    }
}

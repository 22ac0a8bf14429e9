//! Machine-readable lint output and the suppression baseline.
//!
//! Three formats besides the human text dump:
//!
//! * **json** — a stable, versioned report (`{"version":1,…}`) consumed by
//!   the CI artifact upload and the golden tests;
//! * **sarif** — minimal SARIF 2.1.0 for code-scanning UIs;
//! * **github** — `::error file=…,line=…::…` workflow annotations.
//!
//! The **baseline** is a checked-in text file (`lint-baseline.txt`) listing
//! findings that are accepted for now — one per line, tab-separated
//! `RULE<TAB>file<TAB>message`, `#` comments allowed. Entries are keyed on
//! (rule, file, message), *not* line numbers, so unrelated edits don't
//! invalidate them. It exists for findings that have no in-source silencing
//! channel (Cargo.toml and DESIGN.md have no `lint-ok` comments) and for
//! staged burn-down of new rules; entries that stop matching anything are
//! reported as stale so the file can only shrink.

use crate::{Finding, Rule};
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

/// Minimal SARIF 2.1.0: one run, one rule table, one result per finding.
pub fn to_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str(
        "{\n  \"version\": \"2.1.0\",\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"scanraw-lint\",\n          \"rules\": [",
    );
    for (i, rule) in Rule::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            rule.id(),
            esc(rule.description())
        );
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            f.rule.id(),
            esc(&f.message),
            esc(&f.file),
            f.line
        );
    }
    if !findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
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

/// One accepted finding in the baseline file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
    pub message: String,
}

/// Parses the baseline text. Malformed lines are skipped (the file is
/// reviewed like code; a silent skip degrades to the finding re-appearing,
/// which is the safe direction).
pub fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let mut parts = line.splitn(3, '\t');
            Some(BaselineEntry {
                rule: parts.next()?.to_string(),
                file: parts.next()?.to_string(),
                message: parts.next()?.to_string(),
            })
        })
        .collect()
}

/// Serializes findings as a baseline file, sorted and deduplicated.
pub fn write_baseline(findings: &[Finding]) -> String {
    let mut lines: Vec<String> = findings
        .iter()
        .map(|f| format!("{}\t{}\t{}", f.rule.id(), f.file, f.message))
        .collect();
    lines.sort();
    lines.dedup();
    let mut out = String::from(
        "# scanraw-lint baseline: accepted findings, one per line as RULE<TAB>file<TAB>message.\n\
         # Regenerate with `cargo xtask lint --update-baseline`; entries should only be removed.\n",
    );
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Splits `findings` against the baseline: (kept, suppressed_count,
/// stale entries that matched nothing).
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &[BaselineEntry],
) -> (Vec<Finding>, usize, Vec<BaselineEntry>) {
    let mut used = vec![false; baseline.len()];
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for f in findings {
        let hit = baseline
            .iter()
            .position(|b| b.rule == f.rule.id() && b.file == f.file && b.message == f.message);
        match hit {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => kept.push(f),
        }
    }
    let stale = baseline
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(b, _)| b.clone())
        .collect();
    (kept, suppressed, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sarif_has_rules_and_results() {
        let s = to_sarif(&sample());
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"L007\""));
        assert!(s.contains("\"startLine\": 261"));
        for rule in Rule::ALL {
            assert!(s.contains(&format!("\"id\": \"{}\"", rule.id())), "{rule}");
        }
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

    #[test]
    fn baseline_round_trip_and_staleness() {
        let fs = sample();
        let text = write_baseline(&fs);
        let parsed = parse_baseline(&text);
        assert_eq!(parsed.len(), 2);
        let (kept, suppressed, stale) = apply_baseline(fs, &parsed);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 2);
        assert!(stale.is_empty());

        // A baseline entry that matches nothing is reported stale.
        let (kept, suppressed, stale) = apply_baseline(Vec::new(), &parsed);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 0);
        assert_eq!(stale.len(), 2);
    }

    #[test]
    fn baseline_is_line_number_independent() {
        let mut fs = sample();
        let baseline = parse_baseline(&write_baseline(&fs));
        fs[0].line = 999; // file shifted; identity unchanged
        let (kept, suppressed, _) = apply_baseline(fs, &baseline);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 2);
    }

    #[test]
    fn baseline_ignores_comments_and_blanks() {
        let parsed = parse_baseline("# header\n\nL007\tsrc/a.rs\tmsg with\ttab kept\n");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].message, "msg with\ttab kept");
    }
}

//! L010 — observability-catalog drift.
//!
//! DESIGN.md §7 documents every metric name and journal event the stack
//! emits; dashboards and the EXPLAIN ANALYZE renderer are written against
//! that catalog. Nothing ties it to the code, so it rots: a renamed counter
//! strands a dashboard, an undocumented event is invisible to operators.
//! This rule closes the loop in both directions:
//!
//! * every metric name passed to a `Metrics` registry method in the
//!   pipeline crates must match a catalog entry, and every catalog entry
//!   must match at least one use;
//! * every `ObsEvent::Variant` used in code must be cataloged, every
//!   cataloged event must exist on the enum, and every enum variant must be
//!   cataloged.
//!
//! The catalog is machine-readable: fenced blocks in DESIGN.md introduced by
//! `<!-- lint-catalog:metrics -->` and `<!-- lint-catalog:events -->`
//! markers, one entry per line. Metric entries may use `{a,b}` alternation
//! and `*` segment wildcards (`disk.{read,write}.ops`,
//! `pipeline.stage.*.nanos`); runtime-formatted names (`format!` with `{}`)
//! match wildcard segments. Source findings are silenced with
//! `// lint-ok: L010 <reason>`; catalog-side findings are fixed in the
//! catalog block.

use crate::lexer::TokKind;
use crate::model::SourceFile;
use crate::parser;
use crate::{Finding, Rule};
use std::collections::BTreeMap;

/// The journal event enum the rule tracks.
const EVENT_ENUM: &str = "ObsEvent";
/// Crate owning the event enum (uses inside it are definitional, not emits).
const EVENT_HOME: &str = "crates/obs/";

/// Crates whose metric registrations must be cataloged. `bench` is excluded
/// on purpose: its `bench.*` namespace is per-experiment scratch.
const METRIC_SCOPE: &[&str] = &[
    "crates/core/",
    "crates/engine/",
    "crates/storage/",
    "crates/simio/",
    "crates/rawfile/",
    "crates/pipesim/",
    "crates/obs/",
];

/// `Metrics` registry methods whose first string argument is a metric name.
const REGISTRY_METHODS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "duration_histogram",
    "counter_value",
    "gauge_value",
    "histogram_snapshot",
];

const METRICS_MARKER: &str = "<!-- lint-catalog:metrics -->";
const EVENTS_MARKER: &str = "<!-- lint-catalog:events -->";

/// One catalog entry with its DESIGN.md line.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) text: String,
    pub(crate) line: u32,
}

/// Entries of the fenced block following `marker`, or None when the marker
/// is absent. Shared with the L018 effect-contract check.
pub(crate) fn catalog_block(doc: &str, marker: &str) -> Option<Vec<Entry>> {
    let mut entries = Vec::new();
    let mut lines = doc.lines().enumerate();
    lines.find(|(_, l)| l.trim() == marker)?;
    let mut in_fence = false;
    for (idx, line) in lines {
        let t = line.trim();
        if t.starts_with("```") {
            if in_fence {
                break;
            }
            in_fence = true;
            continue;
        }
        if !in_fence || t.is_empty() || t.starts_with('#') {
            continue;
        }
        entries.push(Entry {
            text: t.to_string(),
            line: idx as u32 + 1,
        });
    }
    Some(entries)
}

/// Expands one `{a,b}`-alternation level at a time: `d.{r,w}.{x,y}` →
/// 4 concrete patterns (each may still hold `*` wildcards).
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let Some(close) = pattern[open..].find('}').map(|c| open + c) else {
        return vec![pattern.to_string()];
    };
    let mut out = Vec::new();
    for alt in pattern[open + 1..close].split(',') {
        let candidate = format!(
            "{}{}{}",
            &pattern[..open],
            alt.trim(),
            &pattern[close + 1..]
        );
        out.extend(expand(&candidate));
    }
    out
}

/// Segment-wise match; a `*` segment on either side matches anything.
fn segments_match(a: &str, b: &str) -> bool {
    let sa: Vec<&str> = a.split('.').collect();
    let sb: Vec<&str> = b.split('.').collect();
    sa.len() == sb.len()
        && sa
            .iter()
            .zip(&sb)
            .all(|(x, y)| *x == "*" || *y == "*" || x == y)
}

fn pattern_matches(catalog: &str, used: &str) -> bool {
    expand(catalog).iter().any(|p| segments_match(p, used))
}

/// A metric name used in code: normalized pattern plus the site.
#[derive(Debug)]
struct UsedMetric {
    pattern: String,
    file: String,
    line: u32,
}

/// `format!`-style names: every `{...}` hole becomes a `*` segment.
fn normalize_used(name: &str) -> String {
    let mut out = String::new();
    let mut rest = name;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        out.push('*');
        match rest[open..].find('}') {
            Some(close) => rest = &rest[open + close + 1..],
            None => {
                rest = "";
                break;
            }
        }
    }
    out.push_str(rest);
    out
}

/// Collects `const NAME: &str = "metric.name";` definitions for resolving
/// registry calls that pass a named constant.
fn const_table(files: &[SourceFile]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for f in files {
        let toks = &f.tokens;
        for i in 0..toks.len().saturating_sub(2) {
            if toks[i].kind == TokKind::Ident
                && toks[i].text == "const"
                && toks[i + 1].kind == TokKind::Ident
            {
                // const NAME [: type] = "literal"
                for j in i + 2..(i + 10).min(toks.len()) {
                    if toks[j].kind == TokKind::Punct && toks[j].text == "=" {
                        if toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Str) {
                            out.insert(toks[i + 1].text.clone(), toks[j + 1].text.clone());
                        }
                        break;
                    }
                    if toks[j].kind == TokKind::Punct && toks[j].text == ";" {
                        break;
                    }
                }
            }
        }
    }
    out
}

/// Every metric name passed to a registry method in the scoped crates
/// (non-test code).
fn used_metrics(files: &[SourceFile], consts: &BTreeMap<String, String>) -> Vec<UsedMetric> {
    let mut out = Vec::new();
    for f in files {
        if !METRIC_SCOPE.iter().any(|p| f.rel.starts_with(p)) {
            continue;
        }
        let toks = &f.tokens;
        for i in 0..toks.len().saturating_sub(1) {
            if !(toks[i].kind == TokKind::Ident
                && REGISTRY_METHODS.contains(&toks[i].text.as_str())
                && toks[i + 1].kind == TokKind::Punct
                && toks[i + 1].text == "(")
            {
                continue;
            }
            // Require method position (`.counter(`) so free functions named
            // `histogram` etc. don't register.
            if !(i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == ".") {
                continue;
            }
            if f.in_test_code(i) {
                continue;
            }
            let end = crate::model::match_paren(toks, i + 1);
            // First string literal inside the call (covers `&format!("…")`),
            // else the first constant whose value we know.
            let mut name = None;
            for t in &toks[i + 2..end] {
                if t.kind == TokKind::Str {
                    name = Some(t.text.clone());
                    break;
                }
                if t.kind == TokKind::Ident {
                    if let Some(v) = consts.get(&t.text) {
                        name = Some(v.clone());
                        break;
                    }
                }
            }
            let Some(name) = name else { continue };
            out.push(UsedMetric {
                pattern: normalize_used(&name),
                file: f.rel.clone(),
                line: toks[i].line,
            });
        }
    }
    out
}

/// Runs L010. `docs` carries (workspace-relative path, contents) for the
/// catalog document(s); the rule is inert when none contain the markers.
pub fn check(files: &[SourceFile], docs: &[(String, String)], findings: &mut Vec<Finding>) {
    let Some((doc_rel, doc)) = docs
        .iter()
        .find(|(_, d)| d.contains(METRICS_MARKER) || d.contains(EVENTS_MARKER))
    else {
        if let Some((rel, _)) = docs.first() {
            findings.push(Finding {
                rule: Rule::L010,
                file: rel.clone(),
                line: 1,
                message: format!(
                    "no `{METRICS_MARKER}` / `{EVENTS_MARKER}` catalog markers found — \
                     the observability catalog is not machine-checkable"
                ),
                hint: "add the lint-catalog fenced blocks to the observability section".into(),
            });
        }
        return;
    };

    let metrics_catalog = catalog_block(doc, METRICS_MARKER).unwrap_or_default();
    let events_catalog = catalog_block(doc, EVENTS_MARKER).unwrap_or_default();

    // --- metrics, both directions -----------------------------------------
    let consts = const_table(files);
    let used = used_metrics(files, &consts);
    for u in &used {
        if metrics_catalog
            .iter()
            .any(|e| pattern_matches(&e.text, &u.pattern))
        {
            continue;
        }
        let src = files.iter().find(|f| f.rel == u.file);
        if src.is_some_and(|f| f.has_annotation(u.line, "lint-ok: L010")) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::L010,
            file: u.file.clone(),
            line: u.line,
            message: format!(
                "metric `{}` is not in the {doc_rel} observability catalog",
                u.pattern
            ),
            hint: format!(
                "add it to the `lint-catalog:metrics` block in {doc_rel} (or fix the name)"
            ),
        });
    }
    for e in &metrics_catalog {
        if used.iter().any(|u| pattern_matches(&e.text, &u.pattern)) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::L010,
            file: doc_rel.clone(),
            line: e.line,
            message: format!(
                "cataloged metric `{}` is never registered by any scoped crate",
                e.text
            ),
            hint: "remove the stale catalog entry or restore the metric".into(),
        });
    }

    // --- events, three directions ------------------------------------------
    let defined: Vec<(String, String, u32)> = files
        .iter()
        .filter(|f| f.rel.starts_with(EVENT_HOME))
        .flat_map(|f| {
            parser::enums(f)
                .into_iter()
                .filter(|e| e.name == EVENT_ENUM)
                .flat_map(|e| {
                    let rel = f.rel.clone();
                    let line = e.line;
                    e.variants.into_iter().map(move |v| (v, rel.clone(), line))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let cataloged: Vec<&Entry> = events_catalog.iter().collect();

    for f in files {
        if f.rel.starts_with(EVENT_HOME) {
            continue;
        }
        let toks = &f.tokens;
        for i in 0..toks.len().saturating_sub(2) {
            if !(toks[i].kind == TokKind::Ident
                && toks[i].text == EVENT_ENUM
                && toks[i + 1].text == "::"
                && toks[i + 2].kind == TokKind::Ident)
            {
                continue;
            }
            if f.in_test_code(i) {
                continue;
            }
            let variant = &toks[i + 2].text;
            if cataloged.iter().any(|e| &e.text == variant) {
                continue;
            }
            if f.has_annotation(toks[i].line, "lint-ok: L010") {
                continue;
            }
            findings.push(Finding {
                rule: Rule::L010,
                file: f.rel.clone(),
                line: toks[i].line,
                message: format!(
                    "journal event `{EVENT_ENUM}::{variant}` is not in the {doc_rel} event catalog"
                ),
                hint: format!("add `{variant}` to the `lint-catalog:events` block in {doc_rel}"),
            });
        }
    }
    for e in &cataloged {
        if defined.iter().any(|(v, _, _)| v == &e.text) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::L010,
            file: doc_rel.clone(),
            line: e.line,
            message: format!(
                "cataloged event `{}` does not exist on `{EVENT_ENUM}`",
                e.text
            ),
            hint: "remove the stale catalog entry or restore the variant".into(),
        });
    }
    for (v, rel, line) in &defined {
        if cataloged.iter().any(|e| &e.text == v) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::L010,
            file: rel.clone(),
            line: *line,
            message: format!(
                "`{EVENT_ENUM}::{v}` is defined but missing from the {doc_rel} event catalog"
            ),
            hint: format!("add `{v}` to the `lint-catalog:events` block in {doc_rel}"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(metrics: &str, events: &str) -> (String, String) {
        (
            "DESIGN.md".to_string(),
            format!(
                "# x\n\n{METRICS_MARKER}\n```text\n{metrics}\n```\n\n{EVENTS_MARKER}\n```text\n{events}\n```\n"
            ),
        )
    }

    fn run(srcs: &[(&str, &str)], d: (String, String)) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, src)| SourceFile::parse(*rel, src))
            .collect();
        let mut out = Vec::new();
        check(&files, &[d], &mut out);
        out
    }

    const EVENT_DEF: &str = "pub enum ObsEvent { CacheHit, CacheMiss }";

    #[test]
    fn undocumented_metric_flagged() {
        let fs = run(
            &[
                ("crates/obs/src/journal.rs", EVENT_DEF),
                (
                    "crates/core/src/cache.rs",
                    "fn f(m: &Metrics) { m.counter(\"cache.chunk.hit\").inc(); m.counter(\"cache.bogus\").inc(); }",
                ),
            ],
            doc("cache.chunk.hit", "CacheHit\nCacheMiss"),
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("cache.bogus"), "{}", fs[0].message);
    }

    #[test]
    fn alternation_and_wildcards_match() {
        let fs = run(
            &[
                ("crates/obs/src/journal.rs", EVENT_DEF),
                (
                    "crates/core/src/x.rs",
                    r#"fn f(m: &Metrics) {
    m.counter("disk.read.ops");
    m.counter("disk.write.ops");
    m.duration_histogram(&format!("pipeline.stage.{}.nanos", n));
}"#,
                ),
            ],
            doc(
                "disk.{read,write}.ops\npipeline.stage.*.nanos",
                "CacheHit\nCacheMiss",
            ),
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn stale_catalog_metric_flagged_at_doc_line() {
        let fs = run(
            &[("crates/obs/src/journal.rs", EVENT_DEF)],
            doc("ghost.metric", "CacheHit\nCacheMiss"),
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].file, "DESIGN.md");
        assert!(fs[0].message.contains("ghost.metric"));
    }

    #[test]
    fn const_indirection_resolved() {
        let fs = run(
            &[
                ("crates/obs/src/journal.rs", EVENT_DEF),
                (
                    "crates/core/src/retry.rs",
                    "pub(crate) const RETRY: &str = \"scanraw.io.retries\";\nfn f(m: &Metrics) { m.counter(RETRY).inc(); }",
                ),
            ],
            doc("scanraw.io.retries", "CacheHit\nCacheMiss"),
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn uncataloged_event_use_flagged() {
        let fs = run(
            &[
                ("crates/obs/src/journal.rs", EVENT_DEF),
                (
                    "crates/core/src/x.rs",
                    "fn f(j: &Journal) { j.record(ObsEvent::CacheMiss); }",
                ),
            ],
            doc("", "CacheHit"),
        );
        // CacheMiss used-but-uncataloged + defined-but-uncataloged.
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().any(|f| f.file == "crates/core/src/x.rs"));
        assert!(fs.iter().any(|f| f.file == "crates/obs/src/journal.rs"));
    }

    #[test]
    fn ghost_catalog_event_flagged() {
        let fs = run(
            &[("crates/obs/src/journal.rs", EVENT_DEF)],
            doc("", "CacheHit\nCacheMiss\nNeverHappened"),
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("NeverHappened"));
    }

    #[test]
    fn missing_markers_reported_once() {
        let fs = run(
            &[("crates/obs/src/journal.rs", EVENT_DEF)],
            ("DESIGN.md".to_string(), "# no catalog here\n".to_string()),
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("not machine-checkable"));
    }

    #[test]
    fn bench_namespace_out_of_scope() {
        let fs = run(
            &[
                ("crates/obs/src/journal.rs", EVENT_DEF),
                (
                    "crates/bench/src/bin/fig5.rs",
                    "fn f(m: &Metrics) { m.counter(\"bench.chunk.trials\").add(3); }",
                ),
            ],
            doc("", "CacheHit\nCacheMiss"),
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn expand_handles_nested_alternation() {
        let mut e = expand("d.{r,w}.{a,b}");
        e.sort();
        assert_eq!(e, vec!["d.r.a", "d.r.b", "d.w.a", "d.w.b"]);
    }
}

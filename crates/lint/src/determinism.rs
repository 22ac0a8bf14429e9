//! L014: merge determinism. The serial≡parallel differential suite (PR 5)
//! and the bit-identical-merge guarantee rest on nothing order-sensitive
//! consuming `HashMap`/`HashSet` iteration order. This pass flags, per
//! function, an iteration over a known-unordered container whose results
//! flow into an order-sensitive sink — `Accumulator::merge`, string/output
//! building (`push_str`, `write!`/`writeln!`), or journal/trace export
//! (`event`, `record`, `emit`, `export`) — with no intervening ordering
//! step (a `sort*` call, a `BTreeMap`/`BTreeSet` re-collection, or keyed
//! `entry()` insertion, which is order-insensitive by construction).
//!
//! Containers are recognized lexically: `name: HashMap<…>` /
//! `name: HashSet<…>` type ascriptions (lets, params, struct fields) and
//! `name = HashMap::new()`-style initializers in the same file. Silence a
//! false positive with `// lint-ok: L014 <reason>`.

use crate::lexer::{TokKind, Token};
use crate::model::SourceFile;
use crate::rules::receiver_of_call;
use crate::{Finding, Rule};
use std::collections::BTreeSet;

/// Iteration methods that expose container order (shared with the effect
/// seeder).
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Order-sensitive sinks (call names; `write`/`writeln` match as macros).
const SINKS: &[&str] = &["merge", "push_str", "event", "record", "emit", "export"];

/// Tokens that neutralize ordering concerns between iteration and sink.
const NEUTRALIZERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "entry",
];

/// Files the rule applies to: the product crates, not the analyzer or the
/// benchmark/test-support code.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && !rel.starts_with("crates/lint/") || rel.starts_with("src/")
}

/// Names bound to a `HashMap`/`HashSet` anywhere in the file (shared with
/// the effect seeder).
pub(crate) fn unordered_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i].text;
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        // `name : HashMap<…>` — walk back over `&`/`mut` to the ident.
        let mut j = i;
        while j >= 1 && (toks[j - 1].is_punct("&") || toks[j - 1].is_ident("mut")) {
            j -= 1;
        }
        if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
            names.insert(toks[j - 2].text.clone());
            continue;
        }
        // `name = HashMap::new()` / `with_capacity` / `from(..)`.
        if i >= 2 && toks[i - 1].is_punct("=") && toks[i - 2].kind == TokKind::Ident {
            names.insert(toks[i - 2].text.clone());
        }
    }
    names
}

/// Runs L014 over one file.
pub fn check_file(f: &SourceFile, findings: &mut Vec<Finding>) {
    if !in_scope(&f.rel) {
        return;
    }
    let toks = &f.tokens;
    let unordered = unordered_names(toks);
    if unordered.is_empty() {
        return;
    }
    for func in &f.functions {
        let Some((bstart, bend)) = func.body else {
            continue;
        };
        if f.in_test_code(func.sig.0) {
            continue;
        }
        // Iteration sites over unordered containers inside this body.
        let mut sites: Vec<(usize, String)> = Vec::new();
        let mut i = bstart;
        while i < bend {
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && ITER_METHODS.contains(&t.text.as_str())
                && i >= 1
                && toks[i - 1].is_punct(".")
                && i + 1 < bend
                && toks[i + 1].is_punct("(")
            {
                if let Some(recv) = receiver_of_call(toks, i) {
                    if unordered.contains(&recv) {
                        sites.push((i, recv));
                    }
                }
            } else if t.is_ident("for") {
                // `for pat in <expr> {` — unordered ident in the expr means
                // the loop walks container order.
                let mut j = i + 1;
                while j < bend && !toks[j].is_ident("in") {
                    j += 1;
                }
                let start = j + 1;
                let mut k = start;
                while k < bend && !toks[k].is_punct("{") {
                    if toks[k].kind == TokKind::Ident && unordered.contains(&toks[k].text) {
                        sites.push((k, toks[k].text.clone()));
                        break;
                    }
                    k += 1;
                }
            }
            i += 1;
        }
        // A `for x in hm.iter()` matches both the loop scan and the method
        // scan; one site per (line, receiver) is enough.
        sites.sort_by_key(|(idx, _)| *idx);
        sites.dedup_by_key(|(idx, recv)| (toks[*idx].line, recv.clone()));
        // For each site, look for a sink downstream with no neutralizer
        // between.
        for (site, recv) in sites {
            let mut neutralized = false;
            let mut hit: Option<(usize, String)> = None;
            for k in site + 1..bend {
                let t = &toks[k];
                if t.kind != TokKind::Ident {
                    continue;
                }
                if NEUTRALIZERS.contains(&t.text.as_str()) {
                    neutralized = true;
                    break;
                }
                let is_sink_call =
                    SINKS.contains(&t.text.as_str()) && k + 1 < bend && toks[k + 1].is_punct("(");
                let is_sink_macro = (t.text == "write" || t.text == "writeln")
                    && k + 1 < bend
                    && toks[k + 1].is_punct("!");
                if is_sink_call || is_sink_macro {
                    hit = Some((k, t.text.clone()));
                    break;
                }
            }
            if neutralized {
                continue;
            }
            let Some((_, sink)) = hit else { continue };
            let line = toks[site].line;
            if f.has_annotation(line, "lint-ok: L014") {
                continue;
            }
            findings.push(Finding {
                rule: Rule::L014,
                file: f.rel.clone(),
                line,
                message: format!(
                    "iteration over unordered `{recv}` flows into `{sink}` in `{}` without an \
                     intervening sort",
                    func.name
                ),
                hint: "sort the items (or collect into a BTreeMap) before they reach an \
                       order-sensitive sink — unordered iteration breaks the bit-identical \
                       merge/export guarantee; silence a false positive with `// lint-ok: \
                       L014 <reason>`"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(rel.to_string(), src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        out
    }

    #[test]
    fn for_loop_into_merge_is_flagged() {
        let fs = run(
            "crates/engine/src/agg.rs",
            "fn combine(groups: HashMap<u32, Acc>, total: &mut Acc) {\n    for (_, acc) in groups {\n        total.merge(acc);\n    }\n}\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::L014);
        assert!(fs[0].message.contains("groups"));
    }

    #[test]
    fn sorted_before_sink_is_clean() {
        let fs = run(
            "crates/obs/src/export.rs",
            "fn dump(lanes: HashMap<u32, Lane>, out: &mut String) {\n    let mut v: Vec<_> = lanes.into_iter().collect();\n    v.sort_by_key(|(k, _)| *k);\n    for (_, lane) in v {\n        out.push_str(&lane.name);\n    }\n}\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn keyed_entry_insertion_is_clean() {
        let fs = run(
            "crates/engine/src/agg.rs",
            "fn absorb(&mut self, other: HashMap<u32, Acc>) {\n    for (k, acc) in other {\n        self.groups.entry(k).or_default().merge(acc);\n    }\n}\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn iter_chain_into_writeln_is_flagged() {
        let fs = run(
            "crates/obs/src/export.rs",
            "fn dump(seen: HashSet<String>, out: &mut String) {\n    for name in seen.iter() {\n        writeln!(out, \"{name}\").ok();\n    }\n}\n",
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    #[test]
    fn annotation_and_scope_exemptions() {
        let annotated = run(
            "crates/obs/src/export.rs",
            "fn dump(seen: HashSet<String>, out: &mut String) {\n    // lint-ok: L014 order is cosmetic here\n    for name in seen.iter() {\n        out.push_str(name);\n    }\n}\n",
        );
        assert!(annotated.is_empty(), "{annotated:?}");
        let out_of_scope = run(
            "crates/lint/src/x.rs",
            "fn dump(seen: HashSet<String>, out: &mut String) {\n    for name in seen.iter() {\n        out.push_str(name);\n    }\n}\n",
        );
        assert!(out_of_scope.is_empty());
    }
}

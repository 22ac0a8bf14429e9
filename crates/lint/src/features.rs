//! L009 — feature-gate consistency.
//!
//! The `deadlock-detect` and `fault-inject` features thread through six
//! crates; Cargo checks none of the invariants that make them usable:
//!
//! * **(a) declaration** — a `cfg(feature = "X")` in crate C only ever
//!   fires if C's own Cargo.toml declares `X`; a typo'd or undeclared
//!   feature silently compiles the gated code out forever.
//! * **(b) forwarding** — when crate C declares feature `F` and depends on
//!   crate D which also declares `F`, C's `F` must forward `"D/F"`, or
//!   enabling the feature at the top of the stack leaves D compiled without
//!   it — precisely the half-enabled build the PR-2/3 chains rely on never
//!   happening.
//! * **(c) compiled-off story** — a feature-gated `pub` item either has a
//!   `#[cfg(not(feature = …))]` counterpart or every cross-crate use must
//!   itself sit under the same gate; otherwise the default build breaks.
//!
//! Source-level findings are silenced with `// lint-ok: L009 <reason>`;
//! manifest-level findings (Cargo.toml has no lint comments) are fixed in
//! the manifest.

use crate::lexer::TokKind;
use crate::manifest::Manifest;
use crate::model::SourceFile;
use crate::parser::{self, CfgGate};
use crate::{Finding, Rule};

/// The manifest owning `rel`: longest manifest-directory prefix wins (the
/// root manifest, dir `""`, matches everything as a fallback).
fn owner<'a>(manifests: &'a [Manifest], rel: &str) -> Option<&'a Manifest> {
    manifests
        .iter()
        .filter(|m| {
            let d = m.dir();
            d.is_empty() || rel.starts_with(&format!("{d}/"))
        })
        .max_by_key(|m| m.dir().len())
}

fn by_package<'a>(manifests: &'a [Manifest], name: &str) -> Option<&'a Manifest> {
    manifests.iter().find(|m| m.package == name)
}

/// Runs all three L009 sub-checks.
pub fn check(files: &[SourceFile], manifests: &[Manifest], findings: &mut Vec<Finding>) {
    let gates: Vec<Vec<CfgGate>> = files.iter().map(parser::cfg_gates).collect();

    // (a) every used feature is declared by the owning crate.
    for (f, fgates) in files.iter().zip(&gates) {
        let Some(m) = owner(manifests, &f.rel) else {
            continue;
        };
        for g in fgates {
            if m.declares(&g.feature) {
                continue;
            }
            if f.has_annotation(g.line, "lint-ok: L009") {
                continue;
            }
            findings.push(Finding {
                rule: Rule::L009,
                file: f.rel.clone(),
                line: g.line,
                message: format!(
                    "cfg(feature = \"{}\") but `{}` is not declared in {}",
                    g.feature, g.feature, m.rel
                ),
                hint: format!(
                    "declare `{}` under [features] in {} or fix the feature name",
                    g.feature, m.rel
                ),
            });
        }
    }

    // (b) forwarding chains are complete.
    for m in manifests {
        if m.package.is_empty() {
            continue;
        }
        for feat in &m.features {
            for dep in &m.deps {
                let Some(dm) = by_package(manifests, dep) else {
                    continue;
                };
                if !dm.declares(&feat.name) {
                    continue;
                }
                let want = format!("{dep}/{}", feat.name);
                let optional = format!("{dep}?/{}", feat.name);
                if feat.entries.iter().any(|e| e == &want || e == &optional) {
                    continue;
                }
                findings.push(Finding {
                    rule: Rule::L009,
                    file: m.rel.clone(),
                    line: feat.line,
                    message: format!(
                        "feature `{}` is not forwarded to dependency `{dep}`, which declares it \
                         — enabling it on `{}` leaves `{dep}` compiled without it",
                        feat.name, m.package
                    ),
                    hint: format!("add \"{want}\" to the `{}` feature array", feat.name),
                });
            }
        }
    }

    // (c) gated pub items have a compiled-off story.
    for (fi, (f, fgates)) in files.iter().zip(&gates).enumerate() {
        let Some(fm) = owner(manifests, &f.rel) else {
            continue;
        };
        for g in fgates {
            if !g.is_pub || g.negated || g.inner {
                continue;
            }
            let mut names: Vec<&str> = g.use_names.iter().map(|s| s.as_str()).collect();
            if let Some((_, n)) = &g.item {
                names.push(n.as_str());
            }
            for name in names {
                // Counterpart in the same file?
                let has_counterpart = fgates.iter().any(|o| {
                    o.negated
                        && o.feature == g.feature
                        && (o.item.as_ref().is_some_and(|(_, n)| n == name)
                            || o.use_names.iter().any(|n| n == name))
                });
                if has_counterpart {
                    continue;
                }
                // Otherwise every cross-crate mention must itself be gated.
                let mut offender = None;
                'files: for (oi, (of, ogates)) in files.iter().zip(&gates).enumerate() {
                    if oi == fi {
                        continue;
                    }
                    let om = owner(manifests, &of.rel);
                    if om.map(|m| m.rel.as_str()) == Some(fm.rel.as_str()) {
                        continue; // same crate: gated internally with the item
                    }
                    for (ti, t) in of.tokens.iter().enumerate() {
                        if t.kind != TokKind::Ident || t.text != name {
                            continue;
                        }
                        // Test code is exempt: dev-dependencies may enable
                        // the feature unconditionally for the test build
                        // (storage's fault regression tests do exactly this).
                        if of.in_test_code(ti) {
                            continue;
                        }
                        let covered = ogates.iter().any(|og| {
                            !og.negated
                                && og.feature == g.feature
                                && og.span.0 <= ti
                                && ti < og.span.1
                        });
                        if !covered {
                            offender = Some((of.rel.clone(), t.line));
                            break 'files;
                        }
                    }
                }
                let Some((orel, oline)) = offender else {
                    continue;
                };
                if f.has_annotation(g.line, "lint-ok: L009") {
                    continue;
                }
                findings.push(Finding {
                    rule: Rule::L009,
                    file: f.rel.clone(),
                    line: g.line,
                    message: format!(
                        "pub item `{name}` is gated on feature `{}` with no \
                         cfg(not(feature))-counterpart, but {orel}:{oline} uses it outside the gate",
                        g.feature
                    ),
                    hint: format!(
                        "add a #[cfg(not(feature = \"{}\"))] stub for `{name}` or gate the use site",
                        g.feature
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest;

    fn run(srcs: &[(&str, &str)], tomls: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, src)| SourceFile::parse(*rel, src))
            .collect();
        let manifests: Vec<Manifest> = tomls
            .iter()
            .map(|(rel, text)| manifest::parse(rel, text))
            .collect();
        let mut out = Vec::new();
        check(&files, &manifests, &mut out);
        out
    }

    const A_TOML: &str = "[package]\nname = \"a\"\n[features]\nturbo = []\n";

    #[test]
    fn undeclared_feature_flagged() {
        let fs = run(
            &[(
                "crates/a/src/lib.rs",
                "#[cfg(feature = \"tubro\")]\nfn x() {}\n",
            )],
            &[("crates/a/Cargo.toml", A_TOML)],
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("tubro"));
        assert!(run(
            &[(
                "crates/a/src/lib.rs",
                "#[cfg(feature = \"turbo\")]\nfn x() {}\n",
            )],
            &[("crates/a/Cargo.toml", A_TOML)],
        )
        .is_empty());
    }

    #[test]
    fn missing_forward_flagged() {
        let b_toml = "[package]\nname = \"b\"\n[dependencies]\na = { path = \"../a\" }\n[features]\nturbo = []\n";
        let fs = run(
            &[],
            &[
                ("crates/a/Cargo.toml", A_TOML),
                ("crates/b/Cargo.toml", b_toml),
            ],
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("not forwarded to dependency `a`"));
        assert_eq!(fs[0].file, "crates/b/Cargo.toml");

        let fixed = "[package]\nname = \"b\"\n[dependencies]\na = { path = \"../a\" }\n[features]\nturbo = [\"a/turbo\"]\n";
        assert!(run(
            &[],
            &[
                ("crates/a/Cargo.toml", A_TOML),
                ("crates/b/Cargo.toml", fixed)
            ]
        )
        .is_empty());
    }

    #[test]
    fn dev_deps_do_not_require_forwarding() {
        let b_toml = "[package]\nname = \"b\"\n[dev-dependencies]\na = { path = \"../a\" }\n[features]\nturbo = []\n";
        assert!(run(
            &[],
            &[
                ("crates/a/Cargo.toml", A_TOML),
                ("crates/b/Cargo.toml", b_toml)
            ]
        )
        .is_empty());
    }

    #[test]
    fn gated_pub_item_with_ungated_cross_crate_use_flagged() {
        let b_toml = "[package]\nname = \"b\"\n[dependencies]\na = { path = \"../a\" }\n[features]\nturbo = [\"a/turbo\"]\n";
        let fs = run(
            &[
                (
                    "crates/a/src/lib.rs",
                    "#[cfg(feature = \"turbo\")]\npub fn boost() {}\n",
                ),
                ("crates/b/src/lib.rs", "fn f() { a::boost(); }\n"),
            ],
            &[
                ("crates/a/Cargo.toml", A_TOML),
                ("crates/b/Cargo.toml", b_toml),
            ],
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("boost"), "{}", fs[0].message);
        assert!(fs[0].message.contains("crates/b/src/lib.rs:1"));
    }

    #[test]
    fn gated_use_site_is_clean() {
        let b_toml = "[package]\nname = \"b\"\n[dependencies]\na = { path = \"../a\" }\n[features]\nturbo = [\"a/turbo\"]\n";
        let fs = run(
            &[
                (
                    "crates/a/src/lib.rs",
                    "#[cfg(feature = \"turbo\")]\npub fn boost() {}\n",
                ),
                (
                    "crates/b/src/lib.rs",
                    "#[cfg(feature = \"turbo\")]\nfn f() { a::boost(); }\n",
                ),
            ],
            &[
                ("crates/a/Cargo.toml", A_TOML),
                ("crates/b/Cargo.toml", b_toml),
            ],
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn counterpart_stub_is_clean() {
        let b_toml = "[package]\nname = \"b\"\n[dependencies]\na = { path = \"../a\" }\n[features]\nturbo = [\"a/turbo\"]\n";
        let fs = run(
            &[
                (
                    "crates/a/src/lib.rs",
                    "#[cfg(feature = \"turbo\")]\npub fn boost() {}\n#[cfg(not(feature = \"turbo\"))]\npub fn boost() {}\n",
                ),
                ("crates/b/src/lib.rs", "fn f() { a::boost(); }\n"),
            ],
            &[("crates/a/Cargo.toml", A_TOML), ("crates/b/Cargo.toml", b_toml)],
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn file_level_gate_covers_uses() {
        let b_toml = "[package]\nname = \"b\"\n[dependencies]\na = { path = \"../a\" }\n[features]\nturbo = [\"a/turbo\"]\n";
        let fs = run(
            &[
                (
                    "crates/a/src/lib.rs",
                    "#[cfg(feature = \"turbo\")]\npub fn boost() {}\n",
                ),
                (
                    "crates/b/src/gated.rs",
                    "#![cfg(feature = \"turbo\")]\nfn f() { a::boost(); }\n",
                ),
            ],
            &[
                ("crates/a/Cargo.toml", A_TOML),
                ("crates/b/Cargo.toml", b_toml),
            ],
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn test_code_use_is_exempt() {
        // Dev-dependencies may force the feature on for the test build.
        let b_toml = "[package]\nname = \"b\"\n[dependencies]\na = { path = \"../a\" }\n[features]\nturbo = [\"a/turbo\"]\n";
        let fs = run(
            &[
                (
                    "crates/a/src/lib.rs",
                    "#[cfg(feature = \"turbo\")]\npub fn boost() {}\n",
                ),
                (
                    "crates/b/src/lib.rs",
                    "#[cfg(test)]\nmod tests {\n    fn f() { a::boost(); }\n}\n",
                ),
            ],
            &[
                ("crates/a/Cargo.toml", A_TOML),
                ("crates/b/Cargo.toml", b_toml),
            ],
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn same_crate_use_is_exempt() {
        let fs = run(
            &[
                (
                    "crates/a/src/lib.rs",
                    "#[cfg(feature = \"turbo\")]\npub fn boost() {}\n",
                ),
                ("crates/a/src/other.rs", "fn f() { crate::boost(); }\n"),
            ],
            &[("crates/a/Cargo.toml", A_TOML)],
        );
        assert!(fs.is_empty(), "{fs:?}");
    }
}

//! scanraw-lint: a concurrency-focused static analyzer for this workspace.
//!
//! The ScanRaw pipeline is thread-rich — a READ thread, a worker pool, a
//! scheduler, a persistent WRITE thread — and its correctness rests on a
//! handful of conventions the compiler does not check: which atomics may be
//! `Relaxed`, that worker closures never panic, that locks are taken in one
//! global order, that nobody blocks on a channel while holding a guard, that
//! every `Condvar::wait` sits in a predicate loop, and that the public API
//! documents its failure modes. This crate checks them, lexically, with zero
//! dependencies. Run it as `cargo xtask lint`.
//!
//! Each thing is said once: the rules are listed in one table
//! ([`explain`]), every entry point runs one pipeline
//! ([`lint_workspace_report`]), and one guard-tracking walk
//! ([`waitgraph`]) knows which locks are held where.
//!
//! Findings are silenced in-source with `// lint-ok: <RULE> <reason>` (or
//! `// relaxed-ok:` for L001, `// unblock-ok:` for L012, `// effect-ok:` on
//! an effect seed) on the same line or the line above; the reason is
//! mandatory by convention and reviewed like code. There is no other
//! suppression channel.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod callgraph;
pub mod determinism;
pub mod effects;
pub mod explain;
pub mod features;
pub mod flow;
pub mod interproc;
pub mod lexer;
pub mod lockgraph;
pub mod manifest;
pub mod model;
pub mod obscatalog;
pub mod output;
pub mod parser;
pub mod protocol;
pub mod resolve;
pub mod resultflow;
pub mod rules;
pub mod waitgraph;

pub use explain::Rule;
use model::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One unsilenced finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub message: String,
    /// How to fix it (or how to silence it when it is a false positive).
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    fix: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// Lints in-memory sources; `files` is `(workspace-relative path, contents)`.
/// [`lint_workspace`] over sources alone: every pass that reads manifests
/// or docs is a no-op without them, and call resolution stays same-crate.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    lint_workspace(&WorkspaceFiles {
        sources: files.to_vec(),
        ..WorkspaceFiles::default()
    })
}

/// Everything the full analyzer consumes, all as
/// `(workspace-relative path, contents)` pairs.
#[derive(Debug, Default)]
pub struct WorkspaceFiles {
    /// `.rs` sources.
    pub sources: Vec<(String, String)>,
    /// `Cargo.toml` manifests (root, crates, shims, xtask).
    pub manifests: Vec<(String, String)>,
    /// Catalog documents (DESIGN.md).
    pub docs: Vec<(String, String)>,
}

/// One timed phase of a full analyzer run (see `--timing`).
#[derive(Debug)]
pub struct PhaseTiming {
    pub name: &'static str,
    pub duration: Duration,
}

/// A full analyzer run: findings, the per-phase wall-clock breakdown, and
/// the call-graph/effect-graph DOT dumps (for the CI artifacts and the
/// golden tests).
#[derive(Debug)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    pub timing: Vec<PhaseTiming>,
    pub callgraph_dot: String,
    pub effects_dot: String,
}

/// Parses sources in parallel across std threads — the parse phase
/// dominates wall time and is embarrassingly parallel; every later phase
/// (resolution, graphs, rules over shared state) stays single-threaded.
fn parse_parallel(sources: &[(String, String)]) -> Vec<SourceFile> {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(sources.len().max(1));
    if workers <= 1 {
        return sources
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel.clone(), src))
            .collect();
    }
    let chunk = sources.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(rel, src)| SourceFile::parse(rel.clone(), src))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parse worker panicked"))
            .collect()
    })
}

/// The analyzer's one pipeline, which every entry point runs: the
/// token-stream rules, the interprocedural pass (wait-for graph, blocking
/// under a guard, panics on spawned threads), per-file determinism, effect
/// inference and Result flow, then the manifest- and catalog-level checks.
/// Reports per-phase timing plus the call-graph and effect-graph dumps.
/// Findings come back sorted by (file, line, rule), which makes every
/// output format byte-stable.
pub fn lint_workspace_report(ws: &WorkspaceFiles) -> LintReport {
    let mut timing = Vec::new();
    let mut timed = |name: &'static str, start: Instant| {
        timing.push(PhaseTiming {
            name,
            duration: start.elapsed(),
        });
    };

    let t = Instant::now();
    let parsed = parse_parallel(&ws.sources);
    timed("parse", t);

    let t = Instant::now();
    let mut findings = rules::run_all(&parsed);
    timed("rules", t);

    let t = Instant::now();
    let manifests: Vec<manifest::Manifest> = ws
        .manifests
        .iter()
        .map(|(rel, text)| manifest::parse(rel, text))
        .collect();
    let cg = interproc::check(&parsed, &manifests, &mut findings);
    let callgraph_dot = cg.to_dot();
    timed("interproc", t);

    let t = Instant::now();
    for f in &parsed {
        determinism::check_file(f, &mut findings);
    }
    timed("determinism", t);

    let t = Instant::now();
    let ea = effects::check(&parsed, &cg, &ws.docs, &mut findings);
    let effects_dot = ea.to_dot(&cg);
    resultflow::check(&parsed, &mut findings);
    timed("effects", t);

    let t = Instant::now();
    features::check(&parsed, &manifests, &mut findings);
    obscatalog::check(&parsed, &ws.docs, &mut findings);
    timed("workspace", t);

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    LintReport {
        findings,
        timing,
        callgraph_dot,
        effects_dot,
    }
}

/// [`lint_workspace_report`] when only the findings matter.
pub fn lint_workspace(ws: &WorkspaceFiles) -> Vec<Finding> {
    lint_workspace_report(ws).findings
}

/// Collects the `.rs` files under `root` that the linter analyzes: crate and
/// shim sources plus the root binary, excluding build output, integration
/// test directories, and benches (test-support code legitimately unwraps).
///
/// # Errors
///
/// Returns `Err` when a directory or file under `root` cannot be read.
pub fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = vec![
        root.join("crates"),
        root.join("shims"),
        root.join("src"),
        root.join("xtask"),
    ];
    while let Some(dir) = stack.pop() {
        if !dir.is_dir() {
            continue;
        }
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if matches!(name, "target" | "tests" | "benches" | "examples" | ".git") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push((rel, std::fs::read_to_string(&path)?));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Collects everything the full analyzer reads: the `.rs` sources plus the
/// Cargo.toml manifests (root, crates, shims, xtask) and the DESIGN.md
/// catalog document.
///
/// # Errors
///
/// Returns `Err` when a directory or file under `root` cannot be read.
pub fn collect_workspace(root: &Path) -> std::io::Result<WorkspaceFiles> {
    let mut ws = WorkspaceFiles {
        sources: collect_workspace_sources(root)?,
        ..WorkspaceFiles::default()
    };
    let mut manifest_paths: Vec<PathBuf> =
        vec![root.join("Cargo.toml"), root.join("xtask/Cargo.toml")];
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        if !dir.is_dir() {
            continue;
        }
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path().join("Cargo.toml"))
            .collect();
        entries.sort();
        manifest_paths.extend(entries);
    }
    for path in manifest_paths {
        if !path.is_file() {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        ws.manifests.push((rel, std::fs::read_to_string(&path)?));
    }
    let design = root.join("DESIGN.md");
    if design.is_file() {
        ws.docs
            .push(("DESIGN.md".to_string(), std::fs::read_to_string(&design)?));
    }
    Ok(ws)
}

/// Lints the workspace rooted at `root` with the full rule set and returns
/// the full report (findings, call-graph and effect-graph DOT, timing with
/// the workspace-collection phase included); the caller decides the exit
/// code.
///
/// # Errors
///
/// Returns `Err` when workspace sources cannot be read from disk.
pub fn run_report(root: &Path) -> std::io::Result<LintReport> {
    let t = Instant::now();
    let ws = collect_workspace(root)?;
    let collect = PhaseTiming {
        name: "collect",
        duration: t.elapsed(),
    };
    let mut report = lint_workspace_report(&ws);
    report.timing.insert(0, collect);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, src: &str) -> Vec<Finding> {
        lint_sources(&[(rel.to_string(), src.to_string())])
    }

    #[test]
    fn l001_requires_two_modules() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        // One module: no finding.
        assert!(lint_one("crates/a/src/lib.rs", src).is_empty());
        // Two modules touching the same receiver name: findings in both.
        let fs = lint_sources(&[
            ("crates/a/src/lib.rs".into(), src.into()),
            ("crates/a/src/other.rs".into(), src.into()),
        ]);
        assert_eq!(fs.len(), 2);
        assert!(fs.iter().all(|f| f.rule == Rule::L001));
    }

    #[test]
    fn l001_annotation_silences() {
        let a = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); } // relaxed-ok: stat";
        let b =
            "fn g(c: &AtomicU64) {\n    // relaxed-ok: stat\n    c.store(1, Ordering::Relaxed);\n}";
        let fs = lint_sources(&[
            ("crates/a/src/lib.rs".into(), a.into()),
            ("crates/a/src/other.rs".into(), b.into()),
        ]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn l013_unwrap_in_spawn_flagged_only_in_scoped_crates() {
        let src = r#"
fn f(rx: Receiver<u32>) {
    thread::spawn(move || {
        let v = rx.recv().unwrap();
        drop(v);
    });
}
"#;
        let fs = lint_one("crates/core/src/worker.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!((fs[0].rule, fs[0].line), (Rule::L013, 4));
        // Out of scope: shims may unwrap.
        assert!(lint_one("shims/crossbeam/src/channel.rs", src).is_empty());
    }

    #[test]
    fn l011_lock_inversion_across_functions() {
        let src = r#"
fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    drop(gb);
    drop(ga);
}
fn ba(a: &Mutex<u32>, b: &Mutex<u32>) {
    let gb = b.lock();
    let ga = a.lock();
    drop(ga);
    drop(gb);
}
"#;
        let fs = lint_one("crates/a/src/lib.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, Rule::L011);
        assert!(
            fs[0].message.starts_with("lock-order cycle"),
            "{}",
            fs[0].message
        );
        assert!(fs[0].message.contains("a -> b"));
        assert!(fs[0].message.contains("b -> a"));
    }

    #[test]
    fn l011_consistent_lock_order_is_clean() {
        let src = r#"
fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    drop(gb);
    drop(ga);
}
fn ab2(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    drop(gb);
    drop(ga);
}
"#;
        assert!(lint_one("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn l011_scope_exit_releases_guard() {
        // The inner guard dies with its block, so the second acquisition
        // does not create an edge.
        let src = r#"
fn f(a: &Mutex<u32>, b: &Mutex<u32>) {
    {
        let ga = a.lock();
        drop(ga);
    }
    let gb = b.lock();
    drop(gb);
}
fn g(b: &Mutex<u32>, a: &Mutex<u32>) {
    {
        let gb = b.lock();
        drop(gb);
    }
    let ga = a.lock();
    drop(ga);
}
"#;
        assert!(lint_one("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn l012_send_under_guard() {
        let src = r#"
fn f(m: &Mutex<u32>, tx: &Sender<u32>) {
    let g = m.lock();
    tx.send(*g);
}
"#;
        let fs = lint_one("crates/a/src/lib.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!((fs[0].rule, fs[0].line), (Rule::L012, 4));
        // Either audit channel silences the site.
        for note in ["unblock-ok: receiver never blocks", "lint-ok: L012 fixture"] {
            let audited = src.replace("tx.send(*g);", &format!("tx.send(*g); // {note}"));
            let fs = lint_one("crates/a/src/lib.rs", &audited);
            assert!(fs.is_empty(), "{note}: {fs:?}");
        }
    }

    #[test]
    fn l012_send_after_drop_is_clean() {
        let src = r#"
fn f(m: &Mutex<u32>, tx: &Sender<u32>) {
    let g = m.lock();
    let v = *g;
    drop(g);
    tx.send(v);
}
"#;
        assert!(lint_one("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn l005_wait_needs_loop() {
        let bad = r#"
fn f(cv: &Condvar, m: &Mutex<bool>) {
    let g = m.lock();
    let g = cv.wait(g);
    drop(g);
}
"#;
        let good = r#"
fn f(cv: &Condvar, m: &Mutex<bool>) {
    let mut g = m.lock();
    while !*g {
        g = cv.wait(g);
    }
}
"#;
        let fs = lint_one("crates/a/src/lib.rs", bad);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, Rule::L005);
        assert!(lint_one("crates/a/src/lib.rs", good).is_empty());
    }

    #[test]
    fn l006_result_needs_errors_section() {
        let bad = "pub fn f() -> Result<(), E> { Ok(()) }";
        let good = "/// Does f.\n///\n/// # Errors\n/// Never, actually.\npub fn f() -> Result<(), E> { Ok(()) }";
        let fs = lint_one("crates/types/src/lib.rs", bad);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, Rule::L006);
        assert!(lint_one("crates/types/src/lib.rs", good).is_empty());
        // Out of scope crates are not checked.
        assert!(lint_one("crates/obs/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn l006_panic_needs_panics_section() {
        let bad = "pub fn f(x: Option<u32>) -> u32 { x.expect(\"x\") }";
        let fs = lint_one("crates/core/src/lib.rs", bad);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("# Panics"));
        let good =
            "/// # Panics\n/// When `x` is None.\npub fn f(x: Option<u32>) -> u32 { x.expect(\"x\") }";
        assert!(lint_one("crates/core/src/lib.rs", good).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn f(rx: Receiver<u32>) {
        thread::spawn(move || {
            rx.recv().unwrap();
        });
    }
    pub fn g() -> Result<(), E> { Ok(()) }
}
"#;
        assert!(lint_one("crates/core/src/worker.rs", src).is_empty());
    }

    #[test]
    fn findings_are_sorted_and_display_well() {
        let src = r#"
fn f(m: &Mutex<u32>, tx: &Sender<u32>) {
    let g = m.lock();
    tx.send(*g);
}
"#;
        let fs = lint_one("crates/a/src/lib.rs", src);
        let shown = fs[0].to_string();
        assert!(shown.contains("crates/a/src/lib.rs:4"));
        assert!(shown.contains("[L012]"));
        assert!(shown.contains("fix:"));
    }
}

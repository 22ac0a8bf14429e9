//! Golden-file tests for the machine-readable outputs.
//!
//! One fixture workspace with a violation from each semantic rule family is
//! linted; its JSON report and its call-graph and effect-graph dumps are
//! compared byte-for-byte against checked-in golden files — which pins both
//! the report schema and the (file, line, rule) finding order. Regenerate
//! deliberately with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p scanraw-lint --test golden
//! ```
//!
//! Shape assertions go through `scanraw-obs`'s JSON parser, so "the report
//! is valid JSON with the documented fields" is checked by an actual parse,
//! not substring luck.

use scanraw_lint::{lint_workspace, output, Finding, WorkspaceFiles};
use scanraw_obs::json;
use std::path::PathBuf;

/// A fixture with one finding from each semantic rule family — L007–L010,
/// the interprocedural L011–L014, and the effect rules L015–L018 — at fixed
/// lines. Kept small so golden diffs stay reviewable.
fn fixture_ws() -> WorkspaceFiles {
    let sources = [
        (
            "crates/core/src/proto.rs",
            r#"pub enum CtrlMsg { Start, Stop }

fn dispatch(m: &CtrlMsg) -> u32 {
    match m {
        CtrlMsg::Start => 1,
        _ => 0,
    }
}

fn forward(buf: &Buffer, out: &Sender) -> Result<(), Error> {
    let chunk = buf.pop();
    let meta = lookup()?;
    out.send(chunk, meta);
    Ok(())
}

fn wire(m: &Metrics) {
    m.counter("cache.chunk.bogus").inc();
}
"#,
        ),
        (
            "crates/obs/src/journal.rs",
            "pub enum ObsEvent { CacheHit }",
        ),
        (
            "crates/storage/src/zone.rs",
            r#"pub fn flush(n: u32) -> Result<()> {
    Ok(())
}

// lint-zone: deterministic
fn merge_rows(a: u32) -> u32 {
    stamp(a)
}

fn stamp(a: u32) -> u32 {
    let t = Instant::now();
    drop(t);
    a
}

fn load_block(disk: &SimDisk) -> Vec<u8> {
    disk.read("f", 0, 16)
}

fn seal(n: u32) {
    let _ = flush(n);
}
"#,
        ),
        (
            "crates/core/src/pipeline.rs",
            r#"fn consumer(state: &Mutex<u32>, jobs_rx: &Receiver<u32>) {
    let g = state.lock();
    let v = jobs_rx.recv();
    drop(v);
    drop(g);
}

fn producer(state: &Mutex<u32>, jobs_tx: &Sender<u32>) {
    let g = state.lock();
    jobs_tx.send(1);
    drop(g);
}

fn drain(state: &Mutex<u32>, done_rx: &Receiver<u32>) {
    let g = state.lock();
    wait_done(done_rx);
    drop(g);
}

fn wait_done(done_rx: &Receiver<u32>) {
    let v = done_rx.recv();
    drop(v);
}

fn spawn_worker() {
    thread::spawn(move || {
        decode(None);
    });
}

fn decode(x: Option<u32>) -> u32 {
    x.unwrap()
}

fn export(seen: HashSet<String>, out: &mut String) {
    for name in seen.iter() {
        out.push_str(name);
    }
}
"#,
        ),
    ];
    let manifests = [
        (
            "crates/core/Cargo.toml",
            "[package]\nname = \"scanraw\"\n[dependencies]\nscanraw-obs = { path = \"../obs\" }\n[features]\nturbo = []\n",
        ),
        (
            "crates/obs/Cargo.toml",
            "[package]\nname = \"scanraw-obs\"\n[features]\nturbo = []\n",
        ),
        (
            "crates/storage/Cargo.toml",
            "[package]\nname = \"scanraw-storage\"\n",
        ),
    ];
    // The effects contract covers what `zone.rs` exhibits, plus one stale
    // declaration (`crates/obs: EnvRead`) planted for L018.
    let docs = [(
        "DESIGN.md",
        "# fixture\n\n<!-- lint-catalog:metrics -->\n```text\ncache.chunk.hit\n```\n\n<!-- lint-catalog:events -->\n```text\nCacheHit\n```\n\n<!-- lint-catalog:effects -->\n```text\ncrates/core: UnorderedIter\ncrates/storage: WallClock, DeviceIo\ncrates/obs: EnvRead\n```\n",
    )];
    WorkspaceFiles {
        sources: sources
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect(),
        manifests: manifests
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect(),
        docs: docs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect(),
    }
}

fn fixture_findings() -> Vec<Finding> {
    lint_workspace(&fixture_ws())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its golden file; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fixture_produces_stable_finding_set() {
    let findings = fixture_findings();
    // The fixture plants exactly these, in (file, line, rule) order.
    let got: Vec<(String, u32, String)> = findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule.id().to_string()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("DESIGN.md".to_string(), 5, "L010".to_string()),
            ("DESIGN.md".to_string(), 17, "L018".to_string()),
            ("crates/core/Cargo.toml".to_string(), 6, "L009".to_string()),
            (
                "crates/core/src/pipeline.rs".to_string(),
                3,
                "L011".to_string()
            ),
            (
                "crates/core/src/pipeline.rs".to_string(),
                3,
                "L012".to_string()
            ),
            (
                "crates/core/src/pipeline.rs".to_string(),
                10,
                "L012".to_string()
            ),
            (
                "crates/core/src/pipeline.rs".to_string(),
                16,
                "L012".to_string()
            ),
            (
                "crates/core/src/pipeline.rs".to_string(),
                32,
                "L013".to_string()
            ),
            (
                "crates/core/src/pipeline.rs".to_string(),
                36,
                "L014".to_string()
            ),
            (
                "crates/core/src/proto.rs".to_string(),
                6,
                "L007".to_string()
            ),
            (
                "crates/core/src/proto.rs".to_string(),
                12,
                "L008".to_string()
            ),
            (
                "crates/core/src/proto.rs".to_string(),
                18,
                "L010".to_string()
            ),
            (
                "crates/storage/src/zone.rs".to_string(),
                6,
                "L015".to_string()
            ),
            (
                "crates/storage/src/zone.rs".to_string(),
                17,
                "L016".to_string()
            ),
            (
                "crates/storage/src/zone.rs".to_string(),
                21,
                "L017".to_string()
            ),
        ],
        "{findings:?}"
    );
}

#[test]
fn json_output_matches_golden_and_parses() {
    let findings = fixture_findings();
    let out = output::to_json(&findings);
    check_golden("report.json", &out);

    let doc = json::parse(&out).expect("report must be valid JSON");
    assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        doc.get("tool").and_then(|v| v.as_str()),
        Some("scanraw-lint")
    );
    let items = doc
        .get("findings")
        .and_then(|v| v.as_array())
        .expect("findings array");
    assert_eq!(items.len(), findings.len());
    for item in items {
        for key in ["rule", "file", "message", "hint"] {
            assert!(
                item.get(key).and_then(|v| v.as_str()).is_some(),
                "finding missing string field `{key}`"
            );
        }
        assert!(item.get("line").and_then(|v| v.as_u64()).is_some());
    }
    let summary = doc.get("summary").expect("summary object");
    assert_eq!(
        summary.get("total").and_then(|v| v.as_u64()),
        Some(findings.len() as u64)
    );
    let by_rule = summary
        .get("by_rule")
        .and_then(|v| v.as_object())
        .expect("by_rule object");
    assert_eq!(by_rule.get("L010").and_then(|v| v.as_u64()), Some(2));
}

#[test]
fn callgraph_dot_matches_golden() {
    let report = scanraw_lint::lint_workspace_report(&fixture_ws());
    let dot = &report.callgraph_dot;
    check_golden("callgraph.dot", dot);

    // Structural invariants independent of the byte-exact golden: the spawn
    // root is boxed, the blocking receiver is red, and the resolved
    // `drain -> wait_done` edge is present.
    assert!(dot.starts_with("digraph callgraph {"));
    assert!(dot.contains("pipeline.rs:spawn_worker@26\" shape=box"));
    assert!(dot.contains("color=red"));
    let node_of = |needle: &str| {
        dot.lines()
            .find(|l| l.contains(needle))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no node labeled {needle} in:\n{dot}"))
    };
    let drain = node_of("pipeline.rs:drain");
    let wait_done = node_of("pipeline.rs:wait_done");
    assert!(dot.contains(&format!("{drain} -> {wait_done};")));
}

#[test]
fn effects_dot_matches_golden() {
    let report = scanraw_lint::lint_workspace_report(&fixture_ws());
    let dot = &report.effects_dot;
    check_golden("effects.dot", dot);

    // Structural invariants independent of the byte-exact golden: the clean
    // zone root is blue, the unaudited clock seed is red, effect sets appear
    // in node labels, and the zone -> seed edge is present.
    assert!(dot.starts_with("digraph effects {"));
    let node_of = |needle: &str| {
        dot.lines()
            .find(|l| l.contains(needle))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no node labeled {needle} in:\n{dot}"))
    };
    let merge = node_of("zone.rs:merge_rows");
    let stamp = node_of("zone.rs:stamp");
    let merge_line = dot
        .lines()
        .find(|l| l.contains("zone.rs:merge_rows"))
        .unwrap();
    let stamp_line = dot.lines().find(|l| l.contains("zone.rs:stamp")).unwrap();
    assert!(merge_line.contains("color=blue"), "{merge_line}");
    assert!(merge_line.contains("[WallClock]"), "{merge_line}");
    assert!(stamp_line.contains("color=red"), "{stamp_line}");
    assert!(dot.contains(&format!("{merge} -> {stamp};")));
}

#[test]
fn empty_report_is_valid_json() {
    let j = json::parse(&output::to_json(&[])).expect("empty JSON report parses");
    assert_eq!(
        j.get("summary")
            .and_then(|s| s.get("total"))
            .and_then(|v| v.as_u64()),
        Some(0)
    );
}

//! Seeded-violation self-tests: every semantic rule (L007–L018) must catch
//! a deliberately planted bug in a miniature fixture workspace, end-to-end
//! through the public [`scanraw_lint::lint_workspace`] API. If a rule ever
//! stops firing on its canonical bug, these fail before the real workspace
//! quietly rots.

use scanraw_lint::{lint_workspace, Rule, WorkspaceFiles};

fn ws(
    sources: &[(&str, &str)],
    manifests: &[(&str, &str)],
    docs: &[(&str, &str)],
) -> WorkspaceFiles {
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

const CORE_TOML: &str = "[package]\nname = \"scanraw\"\n[features]\nturbo = []\n";

/// A catalog document with one metrics block and one events block.
fn design(metrics: &str, events: &str) -> String {
    format!(
        "# fixture\n\n<!-- lint-catalog:metrics -->\n```text\n{metrics}\n```\n\n<!-- lint-catalog:events -->\n```text\n{events}\n```\n"
    )
}

#[test]
fn l007_catches_planted_wildcard_arm() {
    let fixture = ws(
        &[(
            "crates/core/src/proto.rs",
            r#"
pub enum CtrlMsg { Start, Stop, Tick }

pub fn dispatch(m: &CtrlMsg) -> u32 {
    match m {
        CtrlMsg::Start => 1,
        _ => 0, // planted: swallows Stop and Tick
    }
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l007: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L007).collect();
    assert_eq!(l007.len(), 1, "{findings:?}");
    assert_eq!(l007[0].file, "crates/core/src/proto.rs");
    assert!(l007[0].message.contains("CtrlMsg"));
    assert!(
        l007[0].message.contains("Stop") && l007[0].message.contains("Tick"),
        "must name the swallowed variants: {}",
        l007[0].message
    );
}

#[test]
fn l008_catches_planted_chunk_leak_on_early_return() {
    let fixture = ws(
        &[(
            "crates/core/src/stage.rs",
            r#"
pub fn forward(buf: &Buffer, out: &Sender) -> Result<(), Error> {
    let chunk = buf.pop();
    let meta = catalog_lookup()?; // planted: error path drops `chunk`
    out.send(chunk, meta);
    Ok(())
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l008: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L008).collect();
    assert_eq!(l008.len(), 1, "{findings:?}");
    assert!(l008[0].message.contains("chunk"), "{}", l008[0].message);
    assert!(l008[0].message.contains('?'), "{}", l008[0].message);
}

#[test]
fn l009_catches_planted_undeclared_feature() {
    let fixture = ws(
        &[(
            "crates/core/src/lib.rs",
            "#[cfg(feature = \"trubo\")] // planted typo\npub fn fast() {}\n",
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l009: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L009).collect();
    assert_eq!(l009.len(), 1, "{findings:?}");
    assert!(l009[0].message.contains("trubo"), "{}", l009[0].message);
}

#[test]
fn l009_catches_planted_missing_feature_forward() {
    let engine_toml = "[package]\nname = \"scanraw-engine\"\n[dependencies]\nscanraw = { path = \"../core\" }\n[features]\nturbo = [] # planted: does not forward scanraw/turbo\n";
    let fixture = ws(
        &[],
        &[
            ("crates/core/Cargo.toml", CORE_TOML),
            ("crates/engine/Cargo.toml", engine_toml),
        ],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l009: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L009).collect();
    assert_eq!(l009.len(), 1, "{findings:?}");
    assert_eq!(l009[0].file, "crates/engine/Cargo.toml");
    assert!(
        l009[0]
            .message
            .contains("not forwarded to dependency `scanraw`"),
        "{}",
        l009[0].message
    );
}

#[test]
fn l009_catches_planted_ungated_use_of_gated_pub_item() {
    let engine_toml = "[package]\nname = \"scanraw-engine\"\n[dependencies]\nscanraw = { path = \"../core\" }\n[features]\nturbo = [\"scanraw/turbo\"]\n";
    let fixture = ws(
        &[
            (
                "crates/core/src/lib.rs",
                "#[cfg(feature = \"turbo\")]\npub fn boost() {}\n",
            ),
            (
                "crates/engine/src/lib.rs",
                "pub fn go() { scanraw::boost(); } // planted: breaks default build\n",
            ),
        ],
        &[
            ("crates/core/Cargo.toml", CORE_TOML),
            ("crates/engine/Cargo.toml", engine_toml),
        ],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l009: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L009).collect();
    assert_eq!(l009.len(), 1, "{findings:?}");
    assert!(l009[0].message.contains("boost"), "{}", l009[0].message);
    assert!(
        l009[0].message.contains("crates/engine/src/lib.rs"),
        "{}",
        l009[0].message
    );
}

#[test]
fn l010_catches_planted_undocumented_metric() {
    let fixture = ws(
        &[
            (
                "crates/obs/src/journal.rs",
                "pub enum ObsEvent { CacheHit }",
            ),
            (
                "crates/core/src/cache.rs",
                "fn wire(m: &Metrics) { m.counter(\"cache.chunk.bogus\").inc(); } // planted",
            ),
        ],
        &[
            ("crates/core/Cargo.toml", CORE_TOML),
            (
                "crates/obs/Cargo.toml",
                "[package]\nname = \"scanraw-obs\"\n",
            ),
        ],
        &[("DESIGN.md", &design("cache.chunk.hit", "CacheHit"))],
    );
    let findings = lint_workspace(&fixture);
    let l010: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L010).collect();
    // Planted metric is undocumented AND the cataloged one is now unused.
    assert_eq!(l010.len(), 2, "{findings:?}");
    assert!(l010
        .iter()
        .any(|f| f.file == "crates/core/src/cache.rs" && f.message.contains("cache.chunk.bogus")));
    assert!(l010
        .iter()
        .any(|f| f.file == "DESIGN.md" && f.message.contains("cache.chunk.hit")));
}

#[test]
fn l010_catches_planted_uncataloged_event() {
    let fixture = ws(
        &[
            (
                "crates/obs/src/journal.rs",
                "pub enum ObsEvent { CacheHit, ChunkSkipped }",
            ),
            (
                "crates/core/src/sched.rs",
                "fn f(j: &Journal) { j.record(ObsEvent::ChunkSkipped); } // planted: not cataloged",
            ),
        ],
        &[
            ("crates/core/Cargo.toml", CORE_TOML),
            (
                "crates/obs/Cargo.toml",
                "[package]\nname = \"scanraw-obs\"\n",
            ),
        ],
        &[("DESIGN.md", &design("", "CacheHit"))],
    );
    let findings = lint_workspace(&fixture);
    let l010: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L010).collect();
    // Use site + definition site both flagged.
    assert_eq!(l010.len(), 2, "{findings:?}");
    assert!(l010.iter().all(|f| f.message.contains("ChunkSkipped")));
}

#[test]
fn clean_fixture_stays_clean() {
    // The inverse control: a fixture with none of the planted bugs produces
    // zero findings, so the self-tests above isolate exactly one cause each.
    let engine_toml = "[package]\nname = \"scanraw-engine\"\n[dependencies]\nscanraw = { path = \"../core\" }\n[features]\nturbo = [\"scanraw/turbo\"]\n";
    let fixture = ws(
        &[
            (
                "crates/core/src/proto.rs",
                r#"
pub enum CtrlMsg { Start, Stop }
pub fn dispatch(m: &CtrlMsg) -> u32 {
    match m {
        CtrlMsg::Start => 1,
        CtrlMsg::Stop => 0,
    }
}
fn forward(buf: &Buffer, out: &Sender) -> Result<(), Error> {
    let chunk = buf.pop();
    out.send(chunk);
    Ok(())
}
"#,
            ),
            (
                "crates/obs/src/journal.rs",
                "pub enum ObsEvent { CacheHit }",
            ),
            (
                "crates/core/src/cache.rs",
                "fn wire(m: &Metrics, j: &Journal) { m.counter(\"cache.chunk.hit\").inc(); j.record(ObsEvent::CacheHit); }",
            ),
        ],
        &[
            ("crates/core/Cargo.toml", CORE_TOML),
            ("crates/engine/Cargo.toml", engine_toml),
            ("crates/obs/Cargo.toml", "[package]\nname = \"scanraw-obs\"\n"),
        ],
        &[(
            "DESIGN.md",
            &design_with_effects("cache.chunk.hit", "CacheHit", "crates/core:\ncrates/obs:"),
        )],
    );
    let findings = lint_workspace(&fixture);
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// L011: wait-for cycles through channels and condvars
// ---------------------------------------------------------------------------

#[test]
fn l011_catches_lock_channel_cycle() {
    let fixture = ws(
        &[(
            "crates/core/src/pump.rs",
            r#"fn consumer(state: &Mutex<u32>, work_rx: &Receiver<u32>) {
    let g = state.lock();
    let v = work_rx.recv();
    drop(v);
    drop(g);
}

fn producer(state: &Mutex<u32>, work_tx: &Sender<u32>) {
    let g = state.lock();
    work_tx.send(1);
    drop(g);
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l011: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L011).collect();
    assert_eq!(l011.len(), 1, "{findings:?}");
    assert!(l011[0].message.contains("cycle"), "{}", l011[0].message);
    // Each guarded endpoint is also an L012 site of its own.
    let l012: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == Rule::L012)
        .map(|f| f.line)
        .collect();
    assert_eq!(l012, [3, 10], "{findings:?}");
}

#[test]
fn l011_catches_condvar_cycle() {
    let fixture = ws(
        &[(
            "crates/core/src/gate.rs",
            r#"fn waiter(outer: &Mutex<u32>, inner: &Mutex<u32>, ready: &Condvar) {
    let g = outer.lock();
    let slot = inner.lock();
    let slot = ready.wait(slot);
    drop(slot);
    drop(g);
}

fn notifier(outer: &Mutex<u32>, ready: &Condvar) {
    let g = outer.lock();
    ready.notify_one();
    drop(g);
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l011: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L011).collect();
    assert_eq!(l011.len(), 1, "{findings:?}");
    assert!(l011[0].message.contains("ready"), "{}", l011[0].message);
}

#[test]
fn l011_clean_when_producer_sends_outside_lock() {
    let fixture = ws(
        &[(
            "crates/core/src/pump.rs",
            r#"fn consumer(state: &Mutex<u32>, work_rx: &Receiver<u32>) {
    let g = state.lock();
    let v = work_rx.recv();
    drop(v);
    drop(g);
}

fn producer(state: &Mutex<u32>, work_tx: &Sender<u32>) {
    let g = state.lock();
    drop(g);
    work_tx.send(1);
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    // No cycle; what remains is the consumer's guarded `recv`.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!((findings[0].rule, findings[0].line), (Rule::L012, 3));
}

// ---------------------------------------------------------------------------
// L012: blocking call reachable while a lock guard is held
// ---------------------------------------------------------------------------

#[test]
fn l012_catches_recv_one_call_deep_under_guard() {
    let fixture = ws(
        &[(
            "crates/core/src/drainer.rs",
            r#"fn drain(state: &Mutex<u32>, done_rx: &Receiver<u32>) {
    let g = state.lock();
    wait_done(done_rx);
    drop(g);
}

fn wait_done(done_rx: &Receiver<u32>) {
    let v = done_rx.recv();
    drop(v);
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l012: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L012).collect();
    assert_eq!(l012.len(), 1, "{findings:?}");
    assert!(l012[0].message.contains("recv"), "{}", l012[0].message);
}

#[test]
fn l012_catches_sleep_two_calls_deep_under_guard() {
    let fixture = ws(
        &[(
            "crates/core/src/retry.rs",
            r#"fn flush(state: &Mutex<u32>) {
    let g = state.lock();
    step(1);
    drop(g);
}

fn step(n: u32) {
    pause(n);
}

fn pause(n: u32) {
    thread::sleep(Duration::from_millis(n as u64));
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l012: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L012).collect();
    assert_eq!(l012.len(), 1, "{findings:?}");
    assert!(l012[0].message.contains("sleep"), "{}", l012[0].message);
}

#[test]
fn l012_clean_when_guard_dropped_before_blocking_call() {
    let fixture = ws(
        &[(
            "crates/core/src/drainer.rs",
            r#"fn drain(state: &Mutex<u32>, done_rx: &Receiver<u32>) {
    let g = state.lock();
    drop(g);
    wait_done(done_rx);
}

fn wait_done(done_rx: &Receiver<u32>) {
    let v = done_rx.recv();
    drop(v);
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l012: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L012).collect();
    assert!(l012.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// L013: panic sites reachable from spawned-thread roots
// ---------------------------------------------------------------------------

#[test]
fn l013_catches_unwrap_reachable_from_spawn() {
    let fixture = ws(
        &[(
            "crates/core/src/worker.rs",
            r#"fn spawn_worker() {
    thread::spawn(move || {
        decode(None);
    });
}

fn decode(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l013: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L013).collect();
    assert_eq!(l013.len(), 1, "{findings:?}");
    assert!(l013[0].message.contains("unwrap"), "{}", l013[0].message);
}

#[test]
fn l013_catches_panic_macro_two_calls_deep_from_spawn() {
    let fixture = ws(
        &[(
            "crates/core/src/pumploop.rs",
            r#"fn spawn_pump() {
    thread::spawn(move || {
        pump(1);
    });
}

fn pump(n: u32) {
    check(n);
}

fn check(n: u32) {
    if n > 0 {
        panic!("bad frame");
    }
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l013: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L013).collect();
    assert_eq!(l013.len(), 1, "{findings:?}");
    assert!(l013[0].message.contains("panic"), "{}", l013[0].message);
}

#[test]
fn l013_catches_unwrap_in_the_spawn_closure_itself_in_every_pipeline_crate() {
    let src = "fn run(rx: Receiver<u32>) {\n    thread::spawn(move || {\n        let v = rx.recv().unwrap();\n        drop(v);\n    });\n}\n";
    for rel in [
        "crates/engine/src/serve.rs",
        "crates/storage/src/x.rs",
        "crates/obs/src/x.rs",
        "crates/core/src/x.rs",
    ] {
        let findings = lint_workspace(&ws(&[(rel, src)], &[], &[]));
        assert_eq!(findings.len(), 1, "{rel}: {findings:?}");
        assert_eq!((findings[0].rule, findings[0].line), (Rule::L013, 3));
    }
    // Out of scope: shims may unwrap.
    let findings = lint_workspace(&ws(&[("shims/crossbeam/src/channel.rs", src)], &[], &[]));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l013_clean_when_panicky_fn_is_not_reachable_from_any_spawn() {
    let fixture = ws(
        &[(
            "crates/core/src/worker.rs",
            r#"fn spawn_worker() {
    thread::spawn(move || {
        tick(1);
    });
}

fn tick(n: u32) -> u32 {
    n + 1
}

fn decode(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l013: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L013).collect();
    assert!(l013.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// L014: unordered-iteration flow into order-sensitive sinks
// ---------------------------------------------------------------------------

#[test]
fn l014_catches_hashset_iteration_into_push_str() {
    let fixture = ws(
        &[(
            "crates/core/src/export.rs",
            r#"fn export(seen: HashSet<String>, out: &mut String) {
    for name in seen.iter() {
        out.push_str(name);
    }
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l014: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L014).collect();
    assert_eq!(l014.len(), 1, "{findings:?}");
    assert!(l014[0].message.contains("push_str"), "{}", l014[0].message);
}

#[test]
fn l014_catches_hashmap_iteration_into_writeln_macro() {
    let fixture = ws(
        &[(
            "crates/core/src/dump.rs",
            r#"fn dump(lanes: HashMap<u32, Lane>, out: &mut String) {
    for (id, lane) in lanes.iter() {
        writeln!(out, "{id} {}", lane.name).ok();
    }
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l014: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L014).collect();
    assert_eq!(l014.len(), 1, "{findings:?}");
    assert!(l014[0].message.contains("writeln"), "{}", l014[0].message);
}

#[test]
fn l014_clean_when_entries_are_sorted_before_the_sink() {
    let fixture = ws(
        &[(
            "crates/core/src/dump.rs",
            r#"fn dump(lanes: HashMap<u32, Lane>, out: &mut String) {
    let mut rows: Vec<_> = lanes.into_iter().collect();
    rows.sort_by_key(|(k, _)| *k);
    for (_, lane) in rows {
        out.push_str(&lane.name);
    }
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l014: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L014).collect();
    assert!(l014.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// L015: banned effects reachable inside deterministic zones
// ---------------------------------------------------------------------------

#[test]
fn l015_catches_wall_clock_directly_in_zone() {
    let fixture = ws(
        &[(
            "crates/core/src/merge.rs",
            r#"// lint-zone: deterministic
fn merge_kernel(a: u32) -> u32 {
    let t = Instant::now(); // planted
    drop(t);
    a
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l015: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L015).collect();
    assert_eq!(l015.len(), 1, "{findings:?}");
    assert!(
        l015[0].message.contains("merge_kernel"),
        "{}",
        l015[0].message
    );
    assert!(l015[0].message.contains("WallClock"), "{}", l015[0].message);
}

#[test]
fn l015_catches_effect_two_calls_deep_with_witness_path() {
    let fixture = ws(
        &[(
            "crates/core/src/merge.rs",
            r#"// lint-zone: deterministic
fn merge_kernel(a: u32) -> u32 {
    stamp(a)
}

fn stamp(a: u32) -> u32 {
    note(a)
}

fn note(a: u32) -> u32 {
    let t = SystemTime::now(); // planted, two calls below the zone
    drop(t);
    a
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l015: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L015).collect();
    assert_eq!(l015.len(), 1, "{findings:?}");
    // The finding must carry the concrete call chain to the seed.
    assert!(l015[0].message.contains("via"), "{}", l015[0].message);
    assert!(l015[0].message.contains("stamp"), "{}", l015[0].message);
    assert!(
        l015[0].message.contains("SystemTime"),
        "{}",
        l015[0].message
    );
}

#[test]
fn l015_clean_when_the_seed_is_audited() {
    let fixture = ws(
        &[(
            "crates/core/src/merge.rs",
            r#"// lint-zone: deterministic
fn merge_kernel(a: u32) -> u32 {
    stamp(a)
}

fn stamp(a: u32) -> u32 {
    // effect-ok: metrics timestamp on a side channel, never in zone output
    let t = Instant::now();
    drop(t);
    a
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l015: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L015).collect();
    assert!(l015.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// L016: device I/O not dominated by the retry layer
// ---------------------------------------------------------------------------

#[test]
fn l016_catches_bare_device_read() {
    let fixture = ws(
        &[(
            "crates/storage/src/store.rs",
            r#"pub fn load_block(disk: &SimDisk) -> Vec<u8> {
    disk.read("f", 0, 16) // planted: no retry anywhere above
}
"#,
        )],
        &[(
            "crates/storage/Cargo.toml",
            "[package]\nname = \"scanraw-storage\"\n",
        )],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l016: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L016).collect();
    assert_eq!(l016.len(), 1, "{findings:?}");
    assert!(
        l016[0].message.contains("load_block"),
        "{}",
        l016[0].message
    );
    assert!(
        l016[0].message.contains("with_retry"),
        "{}",
        l016[0].message
    );
}

#[test]
fn l016_catches_one_unretried_caller_among_retried_ones() {
    let fixture = ws(
        &[(
            "crates/core/src/io.rs",
            r#"fn scan_path(disk: &SimDisk, p: &Policy) {
    with_retry(p, || load(disk));
}

fn fallback_path(disk: &SimDisk) {
    load(disk); // planted: bypasses the retry layer
}

fn load(disk: &SimDisk) -> Vec<u8> {
    disk.read("f", 0, 16)
}

fn with_retry<T>(p: &Policy, mut op: impl FnMut() -> T) -> T {
    op()
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l016: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L016).collect();
    assert_eq!(l016.len(), 1, "{findings:?}");
    assert!(
        l016[0].message.contains("fallback_path"),
        "must name the unretried caller: {}",
        l016[0].message
    );
}

#[test]
fn l016_clean_when_every_path_is_retried() {
    let fixture = ws(
        &[(
            "crates/core/src/io.rs",
            r#"fn scan_path(disk: &SimDisk, p: &Policy) {
    with_retry(p, || load(disk));
}

fn other_path(disk: &SimDisk, p: &Policy) {
    io_retry(p, || load(disk));
}

fn load(disk: &SimDisk) -> Vec<u8> {
    disk.read("f", 0, 16)
}

fn io_retry<T>(p: &Policy, op: impl FnMut() -> T) -> T {
    with_retry(p, op)
}

fn with_retry<T>(p: &Policy, mut op: impl FnMut() -> T) -> T {
    op()
}
"#,
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l016: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L016).collect();
    assert!(l016.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// L017: workspace Results silently discarded
// ---------------------------------------------------------------------------

#[test]
fn l017_catches_let_underscore_discard() {
    let fixture = ws(
        &[
            (
                "crates/storage/src/api.rs",
                "pub fn flush(n: u32) -> Result<()> { Ok(()) }\n",
            ),
            (
                "crates/core/src/writer.rs",
                "fn seal(n: u32) {\n    let _ = flush(n); // planted\n}\n",
            ),
        ],
        &[
            ("crates/core/Cargo.toml", CORE_TOML),
            (
                "crates/storage/Cargo.toml",
                "[package]\nname = \"scanraw-storage\"\n",
            ),
        ],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l017: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L017).collect();
    assert_eq!(l017.len(), 1, "{findings:?}");
    assert!(l017[0].message.contains("flush"), "{}", l017[0].message);
    assert!(l017[0].message.contains("`_`"), "{}", l017[0].message);
}

#[test]
fn l017_catches_unwrap_or_swallowing_the_error() {
    let fixture = ws(
        &[
            (
                "crates/storage/src/api.rs",
                "pub fn fetch(n: u32) -> Result<u32, IoError> { Ok(n) }\n",
            ),
            (
                "crates/core/src/reader.rs",
                "fn peek(n: u32) -> u32 {\n    fetch(n).unwrap_or(0) // planted\n}\n",
            ),
        ],
        &[
            ("crates/core/Cargo.toml", CORE_TOML),
            (
                "crates/storage/Cargo.toml",
                "[package]\nname = \"scanraw-storage\"\n",
            ),
        ],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l017: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L017).collect();
    assert_eq!(l017.len(), 1, "{findings:?}");
    assert!(l017[0].message.contains("unwrap_or"), "{}", l017[0].message);
}

#[test]
fn l017_clean_when_results_are_consumed() {
    let fixture = ws(
        &[
            (
                "crates/storage/src/api.rs",
                "pub fn flush(n: u32) -> Result<()> { Ok(()) }\npub fn fetch(n: u32) -> Result<u32, IoError> { Ok(n) }\n",
            ),
            (
                "crates/core/src/writer.rs",
                "fn seal(n: u32) -> Result<u32> {\n    flush(n)?;\n    let v = fetch(n)?;\n    Ok(v)\n}\n",
            ),
        ],
        &[
            ("crates/core/Cargo.toml", CORE_TOML),
            (
                "crates/storage/Cargo.toml",
                "[package]\nname = \"scanraw-storage\"\n",
            ),
        ],
        &[],
    );
    let findings = lint_workspace(&fixture);
    let l017: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L017).collect();
    assert!(l017.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// L018: per-crate effect-contract drift
// ---------------------------------------------------------------------------

/// A catalog document with metrics, events, and effects blocks.
fn design_with_effects(metrics: &str, events: &str, effects: &str) -> String {
    format!(
        "{}\n<!-- lint-catalog:effects -->\n```text\n{effects}\n```\n",
        design(metrics, events)
    )
}

#[test]
fn l018_catches_exhibited_but_undeclared_effect() {
    let fixture = ws(
        &[(
            "crates/core/src/timing.rs",
            "fn stamp() -> Instant {\n    Instant::now() // planted: contract says effect-free\n}\n",
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[("DESIGN.md", &design_with_effects("", "", "crates/core:"))],
    );
    let findings = lint_workspace(&fixture);
    let l018: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L018).collect();
    assert_eq!(l018.len(), 1, "{findings:?}");
    assert_eq!(l018[0].file, "crates/core/src/timing.rs");
    assert!(l018[0].message.contains("WallClock"), "{}", l018[0].message);
}

#[test]
fn l018_catches_declared_effect_no_code_exhibits() {
    let fixture = ws(
        &[(
            "crates/core/src/pure.rs",
            "fn add(a: u32, b: u32) -> u32 {\n    a + b\n}\n",
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[(
            "DESIGN.md",
            &design_with_effects("", "", "crates/core: EnvRead"),
        )],
    );
    let findings = lint_workspace(&fixture);
    let l018: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L018).collect();
    assert_eq!(l018.len(), 1, "{findings:?}");
    assert_eq!(l018[0].file, "DESIGN.md");
    assert!(l018[0].message.contains("EnvRead"), "{}", l018[0].message);
    assert!(
        l018[0].message.contains("no code exhibits"),
        "{}",
        l018[0].message
    );
}

#[test]
fn l018_clean_when_contract_matches_inferred_effects() {
    let fixture = ws(
        &[(
            "crates/core/src/timing.rs",
            "fn stamp() -> Instant {\n    Instant::now()\n}\n",
        )],
        &[("crates/core/Cargo.toml", CORE_TOML)],
        &[(
            "DESIGN.md",
            &design_with_effects("", "", "crates/core: WallClock"),
        )],
    );
    let findings = lint_workspace(&fixture);
    let l018: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L018).collect();
    assert!(l018.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// Rule catalog exhaustiveness
// ---------------------------------------------------------------------------

#[test]
fn every_rule_has_explain_text_and_round_trips() {
    for rule in Rule::ALL {
        let id = rule.id();
        assert_eq!(Rule::from_id(id), Some(rule), "{id} must round-trip");
        assert!(!rule.description().is_empty(), "{id} needs a description");
        let text = rule.explain();
        assert!(
            text.lines().next().is_some_and(|l| l.contains(id)),
            "{id}: explain text must lead with the rule id:\n{text}"
        );
        assert!(
            text.contains("Why:"),
            "{id}: explain text needs a Why section"
        );
        assert!(
            text.contains("Escape:"),
            "{id}: explain text needs an Escape section"
        );
    }
    // One row per rule, in id order.
    assert!(Rule::ALL.windows(2).all(|w| w[0].id() < w[1].id()));
    // Retired ids stay retired: their checks live on in L013/L011/L012, and
    // nothing was renumbered into the gap.
    for id in ["L002", "L003", "L004"] {
        assert_eq!(Rule::from_id(id), None, "{id} is retired");
    }
}

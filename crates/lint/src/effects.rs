//! Effect inference over the call graph, and the three rules built on it.
//!
//! Every function gets an *effect set* — which ambient capabilities its
//! body (or anything it transitively calls) touches. Seeds are lexical:
//! `Instant::now`/`SystemTime::now` (wall clock), `RandomState` and the
//! default-hashed `HashMap`/`HashSet` constructors (per-process hasher
//! entropy), `std::env` reads, `std::fs`/`File` access (real filesystem,
//! as opposed to the simulated device), iteration over a known-unordered
//! container, and `Disk`-receiver `read`/`write_at`/`append` calls (the
//! simulated device). Seeds propagate to a fixed point through the resolved
//! call graph — including the synthetic spawn-closure roots `callgraph`
//! carves out — so an effect three helpers deep is attributed to every
//! caller, with one concrete source path kept per (node, effect) for
//! messages.
//!
//! The rules:
//!
//! * **L015** — a function under a `// lint-zone: deterministic` marker
//!   (the exec/merge kernels, journal/trace content paths) transitively
//!   reaches a wall-clock, entropy, or environment effect. A seed audited
//!   with `// effect-ok: <reason>` is excluded from inference entirely.
//! * **L016** — a device I/O seed on the READ/WRITE-path crates that is
//!   neither lexically inside a retry-wrapper call (`with_retry`, or a
//!   forwarding wrapper like `io_retry` detected by fixed point) nor in a
//!   function whose every caller reaches it under such a wrapper. This is
//!   the PR 3 fault-tolerance contract, made static.
//! * **L018** — per-crate effect contracts: DESIGN.md declares each
//!   crate's allowed effect set in a `<!-- lint-catalog:effects -->`
//!   fenced block; an undeclared effect *and* a stale declaration both
//!   fail. Contracts count audited seeds too — the audit is a zone escape,
//!   not a contract escape.
//!
//! Known unsoundness, shared with the call graph: integration tests and
//! benches are not collected, so zones declared there (e.g. the
//! schedule-stress oracles) are invisible; name-resolution cutoffs drop
//! edges, which can under-propagate effects.

use crate::callgraph::CallGraph;
use crate::lexer::TokKind;
use crate::model::{count_args, match_paren, SourceFile};
use crate::obscatalog::catalog_block;
use crate::resolve::CrateMap;
use crate::rules::receiver_of_call;
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// The effect lattice: a function's set is the union of its seeds and its
/// callees' sets (monotone, so the fixed point exists and is reached).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Reads the real clock (`Instant::now`, `SystemTime::now`).
    WallClock,
    /// Observes per-process randomness (`RandomState`, default-hashed
    /// `HashMap`/`HashSet` construction).
    OsEntropy,
    /// Reads the process environment (`std::env::var`/`args`/…).
    EnvRead,
    /// Touches the real filesystem (`std::fs`, `File::open`/`create`).
    RealIo,
    /// Iterates a container with no defined order.
    UnorderedIter,
    /// Talks to the simulated device (`Disk::read`/`write_at`/`append`).
    DeviceIo,
}

impl Effect {
    pub const ALL: [Effect; 6] = [
        Effect::WallClock,
        Effect::OsEntropy,
        Effect::EnvRead,
        Effect::RealIo,
        Effect::UnorderedIter,
        Effect::DeviceIo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Effect::WallClock => "WallClock",
            Effect::OsEntropy => "OsEntropy",
            Effect::EnvRead => "EnvRead",
            Effect::RealIo => "RealIo",
            Effect::UnorderedIter => "UnorderedIter",
            Effect::DeviceIo => "DeviceIo",
        }
    }

    pub fn from_name(s: &str) -> Option<Effect> {
        Effect::ALL.iter().copied().find(|e| e.name() == s)
    }
}

/// One lexical effect source in a node's own body.
#[derive(Debug, Clone)]
pub struct Seed {
    pub effect: Effect,
    /// Token index of the seed site (retry-region containment for L016).
    pub tok: usize,
    pub line: u32,
    /// Human description, e.g. "`Instant::now()`".
    pub what: String,
    /// Carries an `// effect-ok: <reason>` audit: excluded from inference
    /// (zones never see it) but still counted by the crate contract.
    pub audited: bool,
}

/// One concrete way a node reaches an effect, for messages.
#[derive(Debug, Clone)]
pub struct EffectSource {
    /// Display names of the call chain below the node ([] = own body).
    pub via: Vec<String>,
    /// Workspace-relative file of the seed.
    pub file: String,
    pub line: u32,
    pub what: String,
}

/// The inference result, kept around for the DOT export.
#[derive(Debug)]
pub struct EffectAnalysis {
    /// Per call-graph node: every lexical seed in its own body.
    pub seeds: Vec<Vec<Seed>>,
    /// Per node: transitive effects (audited seeds excluded), one concrete
    /// source path each.
    pub inferred: Vec<BTreeMap<Effect, EffectSource>>,
    /// Nodes that are declared deterministic-zone roots.
    pub zone_nodes: BTreeSet<usize>,
}

/// Zone marker comment: attaches to the `fn` starting on the next line, or
/// to every function in the file when no function follows it directly.
pub const ZONE_MARKER: &str = "lint-zone: deterministic";

/// DESIGN.md marker introducing the per-crate effect-contract block.
pub const EFFECTS_MARKER: &str = "<!-- lint-catalog:effects -->";

/// Effects a deterministic zone must not reach (L015). Device and real
/// file I/O are the retry layer's concern (L016), not determinism's;
/// unordered iteration is L014's.
const ZONE_BANNED: [Effect; 3] = [Effect::WallClock, Effect::OsEntropy, Effect::EnvRead];

/// Crates whose device I/O must flow through the retry layer (L016): the
/// READ/WRITE paths. `simio` is the device layer itself — below retry.
const L016_SCOPE: &[&str] = &["crates/core/", "crates/storage/", "crates/rawfile/"];

/// `Disk` methods that move data (metadata probes like `len`/`exists` are
/// not retried and not effects).
const DEVICE_METHODS: &[&str] = &["read", "write_at", "append"];

/// Files whose bodies are seeded and whose crates carry contracts: the
/// product crates and the root binary — not the analyzer, the shims
/// (vendored stand-ins), or xtask.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && !rel.starts_with("crates/lint/") || rel.starts_with("src/")
}

/// Runs inference plus L015/L016/L018, appending findings. `docs` feeds the
/// L018 contract check and may be empty (the check is then inert, matching
/// L010's convention).
pub fn check(
    files: &[SourceFile],
    cg: &CallGraph,
    docs: &[(String, String)],
    findings: &mut Vec<Finding>,
) -> EffectAnalysis {
    let seeds: Vec<Vec<Seed>> = (0..cg.nodes.len())
        .map(|id| seed_node(files, cg, id))
        .collect();
    let inferred = propagate(files, cg, &seeds);
    let zone_nodes = zone_roots(files, cg);
    let ea = EffectAnalysis {
        seeds,
        inferred,
        zone_nodes,
    };
    l015_zone_purity(files, cg, &ea, findings);
    l016_retry_coverage(files, cg, &ea, findings);
    l018_effect_contracts(files, cg, &ea, docs, findings);
    ea
}

/// Lexical seed scan over one node's (holed) token range.
fn seed_node(files: &[SourceFile], cg: &CallGraph, id: usize) -> Vec<Seed> {
    let node = &cg.nodes[id];
    let f = &files[node.file];
    if !in_scope(&f.rel) {
        return Vec::new();
    }
    let toks = &f.tokens;
    let unordered = crate::determinism::unordered_names(toks);
    let mut out = Vec::new();
    let mut push = |tok: usize, effect: Effect, what: String| {
        let line = toks[tok].line;
        out.push(Seed {
            effect,
            tok,
            line,
            what,
            audited: f.has_annotation(line, "effect-ok:"),
        });
    };
    let (bstart, bend) = node.body;
    let mut i = bstart;
    while i < bend {
        if let Some(&(hs, he)) = node.holes.iter().find(|&&(hs, _)| i == hs) {
            i = he.max(hs + 1);
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let path2 = |a: usize| -> Option<&str> {
            (toks.get(a + 1)?.is_punct("::") && toks[a + 2].kind == TokKind::Ident)
                .then(|| toks[a + 2].text.as_str())
        };
        match t.text.as_str() {
            "Instant" | "SystemTime" if path2(i) == Some("now") => {
                push(i, Effect::WallClock, format!("`{}::now()`", t.text));
            }
            "RandomState" => {
                push(
                    i,
                    Effect::OsEntropy,
                    "`RandomState` (randomized hasher)".into(),
                );
            }
            "HashMap" | "HashSet" => {
                if let Some(ctor) = path2(i) {
                    if matches!(ctor, "new" | "with_capacity" | "default") {
                        push(
                            i,
                            Effect::OsEntropy,
                            format!("`{}::{ctor}()` (randomized default hasher)", t.text),
                        );
                    }
                }
            }
            "env" => {
                if let Some(m) = path2(i) {
                    if matches!(
                        m,
                        "var" | "var_os" | "vars" | "vars_os" | "args" | "args_os"
                    ) {
                        push(i, Effect::EnvRead, format!("`env::{m}(..)`"));
                    }
                }
            }
            "fs" => {
                if let Some(m) = path2(i) {
                    push(i, Effect::RealIo, format!("`fs::{m}(..)`"));
                }
            }
            "File" => {
                if let Some(m) = path2(i) {
                    if matches!(m, "open" | "create" | "create_new" | "options") {
                        push(i, Effect::RealIo, format!("`File::{m}(..)`"));
                    }
                }
            }
            "for" => {
                // `for pat in <unordered> {` — the loop walks hasher order.
                let mut j = i + 1;
                while j < bend && !toks[j].is_ident("in") {
                    j += 1;
                }
                let mut k = j + 1;
                while k < bend && !toks[k].is_punct("{") {
                    if toks[k].kind == TokKind::Ident && unordered.contains(&toks[k].text) {
                        push(
                            k,
                            Effect::UnorderedIter,
                            format!("iteration over unordered `{}`", toks[k].text),
                        );
                        break;
                    }
                    k += 1;
                }
            }
            name if crate::determinism::ITER_METHODS.contains(&name)
                && i >= 1
                && toks[i - 1].is_punct(".")
                && i + 1 < bend
                && toks[i + 1].is_punct("(") =>
            {
                if let Some(recv) = receiver_of_call(toks, i) {
                    if unordered.contains(&recv) {
                        push(
                            i,
                            Effect::UnorderedIter,
                            format!("iteration over unordered `{recv}`"),
                        );
                    }
                }
            }
            name if DEVICE_METHODS.contains(&name)
                && i >= 1
                && toks[i - 1].is_punct(".")
                && i + 1 < bend
                && toks[i + 1].is_punct("(") =>
            {
                // Receiver must be disk-named, and `.read(` needs a real
                // argument list — `RwLock::read()` takes none.
                let recv = receiver_of_call(toks, i).unwrap_or_default();
                let argc = count_args(toks, i + 1);
                let is_device = recv.to_ascii_lowercase().contains("disk")
                    && (name != "read" || argc.is_some_and(|c| c >= 2));
                if is_device {
                    push(i, Effect::DeviceIo, format!("`{recv}.{name}(..)`"));
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Fixed-point propagation through resolved calls, mirroring the blocking
/// closure in `callgraph`: audited seeds do not enter.
fn propagate(
    files: &[SourceFile],
    cg: &CallGraph,
    seeds: &[Vec<Seed>],
) -> Vec<BTreeMap<Effect, EffectSource>> {
    let mut inferred: Vec<BTreeMap<Effect, EffectSource>> = vec![BTreeMap::new(); cg.nodes.len()];
    for (id, own) in seeds.iter().enumerate() {
        for s in own.iter().filter(|s| !s.audited) {
            inferred[id]
                .entry(s.effect)
                .or_insert_with(|| EffectSource {
                    via: Vec::new(),
                    file: files[cg.nodes[id].file].rel.clone(),
                    line: s.line,
                    what: s.what.clone(),
                });
        }
    }
    loop {
        let mut changed = false;
        for id in 0..cg.nodes.len() {
            for (callee, _) in cg.nodes[id].calls.clone() {
                let add: Vec<(Effect, EffectSource)> = inferred[callee]
                    .iter()
                    .filter(|(e, _)| !inferred[id].contains_key(*e))
                    .map(|(e, src)| {
                        let mut via = vec![cg.nodes[callee].display.clone()];
                        via.extend(src.via.iter().take(3).cloned());
                        (
                            *e,
                            EffectSource {
                                via,
                                file: src.file.clone(),
                                line: src.line,
                                what: src.what.clone(),
                            },
                        )
                    })
                    .collect();
                if !add.is_empty() {
                    inferred[id].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            return inferred;
        }
    }
}

/// Nodes declared deterministic: a `lint-zone: deterministic` comment
/// directly above a `fn` zones that fn; a marker attached to no fn zones
/// every fn in its file.
fn zone_roots(files: &[SourceFile], cg: &CallGraph) -> BTreeSet<usize> {
    let mut zoned: Vec<(usize, u32)> = Vec::new(); // (file, fn line), 0 = whole file
    for (fi, f) in files.iter().enumerate() {
        for c in f.comments.iter().filter(|c| c.text.contains(ZONE_MARKER)) {
            let attached = f
                .functions
                .iter()
                .find(|func| func.line == c.end_line + 1)
                .map(|func| func.line);
            zoned.push((fi, attached.unwrap_or(0)));
        }
    }
    let mut out = BTreeSet::new();
    for (id, node) in cg.nodes.iter().enumerate() {
        if node.spawn_line.is_some() {
            continue;
        }
        let func = &files[node.file].functions[node.func];
        if zoned
            .iter()
            .any(|&(fi, line)| fi == node.file && (line == 0 || line == func.line))
        {
            out.insert(id);
        }
    }
    out
}

fn l015_zone_purity(
    files: &[SourceFile],
    cg: &CallGraph,
    ea: &EffectAnalysis,
    findings: &mut Vec<Finding>,
) {
    for &id in &ea.zone_nodes {
        let node = &cg.nodes[id];
        let f = &files[node.file];
        let func = &f.functions[node.func];
        for effect in ZONE_BANNED {
            let Some(src) = ea.inferred[id].get(&effect) else {
                continue;
            };
            if f.has_annotation(func.line, "lint-ok: L015") {
                continue;
            }
            let via = if src.via.is_empty() {
                String::new()
            } else {
                format!(" (via {})", src.via.join(" -> "))
            };
            findings.push(Finding {
                rule: Rule::L015,
                file: f.rel.clone(),
                line: func.line,
                message: format!(
                    "deterministic zone `{}` reaches a {} effect: {} at {}:{}{via}",
                    func.name,
                    effect.name(),
                    src.what,
                    src.file,
                    src.line
                ),
                hint: "route the effect through an injectable source (SharedClock, a seeded \
                       RNG, explicit config) or keep it out of the zone; audit the seed with \
                       `// effect-ok: <reason>` when it provably cannot influence zone output"
                    .to_string(),
            });
        }
    }
}

/// Retry-wrapper function names: `with_retry` itself plus, to a fixed
/// point, any function that takes a closure parameter and calls a known
/// wrapper (e.g. `io_retry`) — its call sites' argument lists are retry
/// regions too.
fn retry_wrappers(files: &[SourceFile]) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = BTreeSet::from(["with_retry".to_string()]);
    loop {
        let mut changed = false;
        for f in files {
            for func in &f.functions {
                if names.contains(&func.name) {
                    continue;
                }
                let Some((bstart, bend)) = func.body else {
                    continue;
                };
                let takes_closure = f.tokens[func.sig.0..func.sig.1].iter().any(|t| {
                    t.kind == TokKind::Ident && matches!(t.text.as_str(), "FnMut" | "FnOnce")
                });
                if !takes_closure {
                    continue;
                }
                let forwards = (bstart..bend).any(|i| {
                    f.tokens[i].kind == TokKind::Ident
                        && names.contains(&f.tokens[i].text)
                        && f.tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
                });
                if forwards {
                    names.insert(func.name.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            return names;
        }
    }
}

fn l016_retry_coverage(
    files: &[SourceFile],
    cg: &CallGraph,
    ea: &EffectAnalysis,
    findings: &mut Vec<Finding>,
) {
    let wrappers = retry_wrappers(files);
    // Per node: retry regions as token spans and line spans.
    let mut tok_regions: Vec<Vec<(usize, usize)>> = vec![Vec::new(); cg.nodes.len()];
    let mut line_regions: Vec<Vec<(u32, u32)>> = vec![Vec::new(); cg.nodes.len()];
    for (id, node) in cg.nodes.iter().enumerate() {
        let toks = &files[node.file].tokens;
        let (bstart, bend) = node.body;
        for i in bstart..bend {
            if toks[i].kind == TokKind::Ident
                && wrappers.contains(&toks[i].text)
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            {
                let end = match_paren(toks, i + 1).min(bend.max(i + 2));
                tok_regions[id].push((i, end));
                line_regions[id].push((toks[i].line, toks[end.saturating_sub(1)].line));
            }
        }
    }
    // Incoming edges with a retried flag: the call site sits inside one of
    // the caller's retry regions (by line — closures span lines).
    let mut incoming: Vec<Vec<(usize, bool)>> = vec![Vec::new(); cg.nodes.len()];
    for (id, node) in cg.nodes.iter().enumerate() {
        for &(callee, line) in &node.calls {
            let retried = line_regions[id]
                .iter()
                .any(|&(a, b)| a <= line && line <= b);
            incoming[callee].push((id, retried));
        }
    }
    // Greatest fixed point: a node is covered when every caller reaches it
    // inside a retry region or is itself covered. Entry points (no
    // callers) are uncovered — nothing dominates them.
    let mut covered: Vec<bool> = incoming.iter().map(|edges| !edges.is_empty()).collect();
    loop {
        let mut changed = false;
        for id in 0..cg.nodes.len() {
            if covered[id]
                && incoming[id]
                    .iter()
                    .any(|&(caller, retried)| !retried && !covered[caller])
            {
                covered[id] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (id, node) in cg.nodes.iter().enumerate() {
        let f = &files[node.file];
        if !L016_SCOPE.iter().any(|p| f.rel.starts_with(p)) {
            continue;
        }
        for seed in ea.seeds[id].iter().filter(|s| s.effect == Effect::DeviceIo) {
            let in_region = tok_regions[id]
                .iter()
                .any(|&(a, b)| a <= seed.tok && seed.tok < b);
            if in_region || covered[id] {
                continue;
            }
            if f.has_annotation(seed.line, "lint-ok: L016") {
                continue;
            }
            let bare: Vec<String> = incoming[id]
                .iter()
                .filter(|&&(caller, retried)| !retried && !covered[caller])
                .map(|&(caller, _)| cg.nodes[caller].display.clone())
                .take(2)
                .collect();
            let why = if incoming[id].is_empty() {
                "no caller routes it through the retry layer".to_string()
            } else {
                format!("reached without retry from {}", bare.join(", "))
            };
            findings.push(Finding {
                rule: Rule::L016,
                file: f.rel.clone(),
                line: seed.line,
                message: format!(
                    "device I/O {} in `{}` is not covered by `with_retry` ({why})",
                    seed.what, node.display
                ),
                hint: "wrap the operation in `with_retry` (or a forwarding wrapper like \
                       `io_retry`) so transient device faults are absorbed, or audit with \
                       `// lint-ok: L016 <reason>`"
                    .to_string(),
            });
        }
    }
}

fn l018_effect_contracts(
    files: &[SourceFile],
    cg: &CallGraph,
    ea: &EffectAnalysis,
    docs: &[(String, String)],
    findings: &mut Vec<Finding>,
) {
    let Some((doc_rel, doc)) = docs.iter().find(|(_, d)| d.contains(EFFECTS_MARKER)) else {
        if let Some((rel, _)) = docs.first() {
            findings.push(Finding {
                rule: Rule::L018,
                file: rel.clone(),
                line: 1,
                message: format!(
                    "no `{EFFECTS_MARKER}` catalog marker found — per-crate effect \
                     contracts are not machine-checkable"
                ),
                hint: "add the lint-catalog:effects fenced block to the effect-system section"
                    .into(),
            });
        }
        return;
    };
    // Inferred per crate: union of the crate's own seeds, audited included
    // (declaring the effect is the contract-level allowance; the audit only
    // escapes zone inference). Deliberately not transitive — a crate does
    // not inherit its dependencies' contracts.
    let mut inferred: BTreeMap<String, BTreeMap<Effect, (String, u32)>> = BTreeMap::new();
    for (id, own) in ea.seeds.iter().enumerate() {
        let rel = &files[cg.nodes[id].file].rel;
        if !in_scope(rel) {
            continue;
        }
        let dir = CrateMap::crate_of(rel);
        for s in own {
            inferred
                .entry(dir.clone())
                .or_default()
                .entry(s.effect)
                .or_insert_with(|| (rel.clone(), s.line));
        }
    }
    // Declared per crate, from `dir: Effect, Effect` lines.
    let mut declared: BTreeMap<String, BTreeMap<Effect, u32>> = BTreeMap::new();
    for entry in catalog_block(doc, EFFECTS_MARKER).unwrap_or_default() {
        let Some((dir, rest)) = entry.text.split_once(':') else {
            findings.push(Finding {
                rule: Rule::L018,
                file: doc_rel.clone(),
                line: entry.line,
                message: format!("malformed effect-contract line `{}`", entry.text),
                hint: "use `crates/<name>: Effect, Effect` (or a bare `crates/<name>:` for \
                       an effect-free crate)"
                    .into(),
            });
            continue;
        };
        let crate_decl = declared.entry(dir.trim().to_string()).or_default();
        for name in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Effect::from_name(name) {
                Some(e) => {
                    crate_decl.insert(e, entry.line);
                }
                None => findings.push(Finding {
                    rule: Rule::L018,
                    file: doc_rel.clone(),
                    line: entry.line,
                    message: format!("unknown effect `{name}` in the contract for `{dir}`"),
                    hint: format!(
                        "valid effects: {}",
                        Effect::ALL.map(Effect::name).join(", ")
                    ),
                }),
            }
        }
    }
    for (dir, effects) in &inferred {
        for (effect, (file, line)) in effects {
            if declared.get(dir).is_some_and(|d| d.contains_key(effect)) {
                continue;
            }
            let src = files.iter().find(|f| &f.rel == file);
            if src.is_some_and(|f| f.has_annotation(*line, "lint-ok: L018")) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::L018,
                file: file.clone(),
                line: *line,
                message: format!(
                    "`{dir}` has a {} effect but its {doc_rel} contract does not declare it",
                    effect.name()
                ),
                hint: format!(
                    "add `{}` to the `{dir}:` line in the lint-catalog:effects block of \
                     {doc_rel} (or remove the effect)",
                    effect.name()
                ),
            });
        }
    }
    for (dir, effects) in &declared {
        for (effect, line) in effects {
            if inferred.get(dir).is_some_and(|i| i.contains_key(effect)) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::L018,
                file: doc_rel.clone(),
                line: *line,
                message: format!(
                    "contract declares a {} effect for `{dir}` that no code exhibits",
                    effect.name()
                ),
                hint: "remove the stale effect from the contract line".into(),
            });
        }
    }
}

impl EffectAnalysis {
    /// Stable DOT rendering of the effect-annotated call graph: node order
    /// and styling mirror `CallGraph::to_dot` (spawn roots boxed), with the
    /// transitive effect set in the label, seed-bearing nodes red, and
    /// deterministic-zone roots blue.
    pub fn to_dot(&self, cg: &CallGraph) -> String {
        use std::fmt::Write as _;
        let mut order: Vec<usize> = (0..cg.nodes.len()).collect();
        order.sort_by(|&a, &b| cg.nodes[a].display.cmp(&cg.nodes[b].display));
        let rank: BTreeMap<usize, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut out = String::from("digraph effects {\n  rankdir=LR;\n");
        for &id in &order {
            let n = &cg.nodes[id];
            let effects: Vec<&str> = self.inferred[id].keys().map(|e| e.name()).collect();
            let label = if effects.is_empty() {
                n.display.clone()
            } else {
                format!("{}\\n[{}]", n.display, effects.join(", "))
            };
            let shape = if n.spawn_line.is_some() {
                " shape=box style=bold"
            } else {
                ""
            };
            let color = if self.seeds[id].iter().any(|s| !s.audited) {
                " color=red"
            } else if self.zone_nodes.contains(&id) {
                " color=blue"
            } else {
                ""
            };
            let _ = writeln!(out, "  n{} [label=\"{label}\"{shape}{color}];", rank[&id]);
        }
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (id, n) in cg.nodes.iter().enumerate() {
            for (callee, _) in &n.calls {
                edges.insert((rank[&id], rank[callee]));
            }
        }
        for (a, b) in edges {
            let _ = writeln!(out, "  n{a} -> n{b};");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::Resolver;

    fn analyze(srcs: &[(&str, &str)], docs: &[(&str, &str)]) -> (Vec<Finding>, String) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, src)| SourceFile::parse((*rel).to_string(), src))
            .collect();
        let resolver = Resolver::build(&files, &[]);
        let cg = CallGraph::build(&files, &resolver);
        let docs: Vec<(String, String)> = docs
            .iter()
            .map(|(a, b)| ((*a).to_string(), (*b).to_string()))
            .collect();
        let mut findings = Vec::new();
        let ea = check(&files, &cg, &docs, &mut findings);
        (findings, ea.to_dot(&cg))
    }

    #[test]
    fn effects_propagate_through_calls() {
        let (fs, dot) = analyze(
            &[(
                "crates/core/src/x.rs",
                "// lint-zone: deterministic\nfn kernel(xs: &[u64]) -> u64 { helper() }\nfn helper() -> u64 { mid() }\nfn mid() -> u64 { Instant::now(); 4 }\n",
            )],
            &[],
        );
        let l015: Vec<_> = fs.iter().filter(|f| f.rule == Rule::L015).collect();
        assert_eq!(l015.len(), 1, "{fs:?}");
        assert!(l015[0].message.contains("WallClock"), "{}", l015[0].message);
        assert!(l015[0].message.contains("via"), "{}", l015[0].message);
        assert!(dot.contains("[WallClock]"), "{dot}");
    }

    #[test]
    fn effect_ok_audit_removes_seed_from_inference() {
        let (fs, _) = analyze(
            &[(
                "crates/core/src/x.rs",
                "// lint-zone: deterministic\nfn kernel() -> u64 {\n    // effect-ok: calibration constant, not observable in output\n    Instant::now();\n    4\n}\n",
            )],
            &[],
        );
        assert!(fs.iter().all(|f| f.rule != Rule::L015), "{fs:?}");
    }

    #[test]
    fn device_read_under_with_retry_is_covered() {
        let (fs, _) = analyze(
            &[(
                "crates/storage/src/x.rs",
                "fn store(disk: &SimDisk, p: &Policy) {\n    with_retry(p, || disk.append(\"f\", b\"x\"));\n}\nfn with_retry<T>(p: &Policy, mut op: impl FnMut() -> T) -> T { op() }\n",
            )],
            &[],
        );
        assert!(fs.iter().all(|f| f.rule != Rule::L016), "{fs:?}");
    }

    #[test]
    fn bare_device_read_is_flagged() {
        let (fs, _) = analyze(
            &[(
                "crates/storage/src/x.rs",
                "fn load(disk: &SimDisk) -> Vec<u8> {\n    disk.read(\"f\", 0, 16)\n}\n",
            )],
            &[],
        );
        let l016: Vec<_> = fs.iter().filter(|f| f.rule == Rule::L016).collect();
        assert_eq!(l016.len(), 1, "{fs:?}");
        assert!(l016[0].message.contains("disk.read"), "{}", l016[0].message);
    }

    #[test]
    fn coverage_flows_through_forwarding_wrapper_callers() {
        // The seed-bearing fn has no region of its own, but its only caller
        // reaches it inside `io_retry(..)`, which forwards to with_retry.
        let (fs, _) = analyze(
            &[(
                "crates/core/src/x.rs",
                "fn read_path(disk: &SimDisk, p: &Policy) {\n    io_retry(p, || load(disk));\n}\nfn load(disk: &SimDisk) -> Vec<u8> { disk.read(\"f\", 0, 16) }\nfn io_retry<T>(p: &Policy, op: impl FnMut() -> T) -> T { with_retry(p, op) }\nfn with_retry<T>(p: &Policy, mut op: impl FnMut() -> T) -> T { op() }\n",
            )],
            &[],
        );
        assert!(fs.iter().all(|f| f.rule != Rule::L016), "{fs:?}");
    }

    #[test]
    fn zero_arg_rwlock_read_is_not_device_io() {
        let (fs, _) = analyze(
            &[(
                "crates/storage/src/x.rs",
                "fn peek(runs: &RwLock<u32>) -> u32 { *runs.read() }\n",
            )],
            &[],
        );
        assert!(fs.iter().all(|f| f.rule != Rule::L016), "{fs:?}");
    }

    #[test]
    fn contract_drift_both_directions() {
        let doc = "# d\n\n<!-- lint-catalog:effects -->\n```text\ncrates/core: WallClock, DeviceIo\n```\n";
        let (fs, _) = analyze(
            &[(
                "crates/core/src/x.rs",
                "fn f() { Instant::now(); std::env::var(\"X\"); }\n",
            )],
            &[("DESIGN.md", doc)],
        );
        let l018: Vec<_> = fs.iter().filter(|f| f.rule == Rule::L018).collect();
        // EnvRead undeclared (source side) + DeviceIo stale (doc side).
        assert_eq!(l018.len(), 2, "{fs:?}");
        assert!(l018
            .iter()
            .any(|f| f.file == "crates/core/src/x.rs" && f.message.contains("EnvRead")));
        assert!(l018
            .iter()
            .any(|f| f.file == "DESIGN.md" && f.message.contains("DeviceIo")));
    }

    #[test]
    fn audited_seed_still_counts_toward_contract() {
        let doc = "# d\n\n<!-- lint-catalog:effects -->\n```text\ncrates/core:\n```\n";
        let (fs, _) = analyze(
            &[(
                "crates/core/src/x.rs",
                "fn f() {\n    // effect-ok: wall time for a log line only\n    Instant::now();\n}\n",
            )],
            &[("DESIGN.md", doc)],
        );
        let l018: Vec<_> = fs.iter().filter(|f| f.rule == Rule::L018).collect();
        assert_eq!(l018.len(), 1, "{fs:?}");
        assert!(l018[0].message.contains("WallClock"));
    }

    #[test]
    fn file_level_zone_marker_covers_every_fn() {
        let (fs, _) = analyze(
            &[(
                "crates/engine/src/merge.rs",
                "// lint-zone: deterministic\n\nfn a() { Instant::now(); }\nfn b() {}\n",
            )],
            &[],
        );
        let l015: Vec<_> = fs.iter().filter(|f| f.rule == Rule::L015).collect();
        assert_eq!(l015.len(), 1, "{fs:?}");
        assert!(l015[0].message.contains('a'));
    }

    #[test]
    fn dot_is_stable_and_marks_zones() {
        let (_, dot) = analyze(
            &[(
                "crates/core/src/x.rs",
                "// lint-zone: deterministic\nfn kernel() -> u64 { 4 }\nfn other() { Instant::now(); }\n",
            )],
            &[],
        );
        assert!(dot.starts_with("digraph effects {"), "{dot}");
        assert!(dot.contains("color=blue"), "{dot}");
        assert!(dot.contains("color=red"), "{dot}");
    }
}

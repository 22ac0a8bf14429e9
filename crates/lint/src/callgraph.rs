//! The workspace call graph: one node per function (plus one per spawned
//! closure), resolved `fn → callee` edges, spawn-site roots, and the
//! per-node summaries (blocking operations, panic sites) the
//! interprocedural rules L011–L013 consume.
//!
//! Spawned closures are split out of their enclosing function into
//! *synthetic nodes*: the closure body runs on another thread, so its
//! blocking ops and panics must not be attributed to the spawning function.
//! Synthetic nodes are the reachability roots — they are where new threads
//! begin executing.

use crate::lexer::{TokKind, Token};
use crate::model::{match_brace, match_paren, SourceFile};
use crate::resolve::{FnRef, Resolver};
use std::collections::{BTreeMap, BTreeSet};

/// A blocking operation kind, with the channel/condvar name where relevant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Blocking send on the named channel.
    Send(String),
    /// Blocking recv on the named channel.
    Recv(String),
    /// `Condvar::wait` on the named condvar.
    CvWait(String),
    /// `thread::sleep` or equivalent.
    Sleep,
    /// `JoinHandle::join`.
    Join,
    /// Blocking file/device I/O.
    Io(String),
}

impl Op {
    pub fn describe(&self) -> String {
        match self {
            Op::Send(c) => format!("blocking `send` on channel `{c}`"),
            Op::Recv(c) => format!("blocking `recv` on channel `{c}`"),
            Op::CvWait(c) => format!("`Condvar::wait` on `{c}`"),
            Op::Sleep => "`thread::sleep`".to_string(),
            Op::Join => "`JoinHandle::join`".to_string(),
            Op::Io(m) => format!("blocking I/O (`{m}`)"),
        }
    }
}

/// A panic site inside a node's own body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub line: u32,
    /// `unwrap`, `expect`, `panic!`, …
    pub what: String,
}

/// A blocking site inside a node's own body.
#[derive(Debug, Clone)]
pub struct BlockSite {
    pub line: u32,
    pub op: Op,
}

/// One call-graph node: a function body, or a spawned-closure body carved
/// out of one.
#[derive(Debug)]
pub struct Node {
    /// Index into the file set.
    pub file: usize,
    /// Index into that file's `functions`; the enclosing fn for spawn nodes.
    pub func: usize,
    /// Line of the `spawn(` call for synthetic nodes.
    pub spawn_line: Option<u32>,
    /// Token range scanned (inclusive start, exclusive end).
    pub body: (usize, usize),
    /// Sub-ranges excluded from this node (spawned closures carved out).
    pub holes: Vec<(usize, usize)>,
    /// Display name: `path.rs:fn` or `path.rs:fn@spawnline`.
    pub display: String,
    pub panics: Vec<PanicSite>,
    pub blocking: Vec<BlockSite>,
    /// Resolved outgoing calls: (callee node, call-site line), sorted.
    pub calls: Vec<(usize, u32)>,
}

/// How a node first reaches a blocking op, for L012 messages.
#[derive(Debug, Clone)]
pub struct BlockPath {
    pub op: Op,
    /// Display names of the call chain below this node ([] = direct).
    pub via: Vec<String>,
}

/// The assembled graph plus derived closures.
#[derive(Debug)]
pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// Synthetic spawn nodes — the reachability roots.
    pub roots: Vec<usize>,
    /// node -> transitive blocking-op set (own + all callees').
    pub ops: Vec<BTreeSet<Op>>,
    /// node -> one concrete path to a blocking op, if any.
    pub block_path: Vec<Option<BlockPath>>,
    /// node -> (root node, predecessor on a path from that root), for every
    /// node reachable from a spawn root.
    pub from_root: BTreeMap<usize, (usize, Option<usize>)>,
    /// fn definition -> node id (fn nodes only, not synthetic ones).
    fn_node: BTreeMap<(usize, usize), usize>,
}

/// Rust keywords and control forms that look like `ident (` but are not
/// calls.
const NON_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "move", "in", "as", "ref", "mut",
    "else", "impl", "where", "dyn", "box", "unsafe", "async", "await", "use", "pub", "crate",
    "super", "self", "Self", "Some", "None", "Ok", "Err", "Box", "Vec", "String", "Arc", "Rc",
];

/// Methods treated as blocking file/device I/O when called with `.`.
const IO_METHODS: &[&str] = &[
    "read_exact",
    "read_to_string",
    "read_to_end",
    "write_all",
    "sync_all",
    "sync_data",
    "flush",
];

/// Canonical channel name: `events_tx` / `events_rx` → `events`, bare
/// `tx`/`rx` → `chan`. Pairs both endpoints of one channel onto one node.
pub fn channel_name(recv: &str) -> String {
    for suffix in ["_tx", "_rx"] {
        if let Some(stripped) = recv.strip_suffix(suffix) {
            if !stripped.is_empty() {
                return stripped.to_string();
            }
        }
    }
    if matches!(recv, "tx" | "rx" | "sender" | "receiver") {
        "chan".to_string()
    } else {
        recv.to_string()
    }
}

impl CallGraph {
    /// Builds the graph over the parsed file set, resolving call names with
    /// `resolver`. Test code is excluded entirely.
    pub fn build(files: &[SourceFile], resolver: &Resolver) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        let mut roots: Vec<usize> = Vec::new();
        let mut fn_node: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        // Pass 1: nodes. Spawn regions are carved out of fn bodies.
        for (fi, f) in files.iter().enumerate() {
            for (ni, func) in f.functions.iter().enumerate() {
                let Some((bstart, bend)) = func.body else {
                    continue;
                };
                if f.in_test_code(func.sig.0) {
                    continue;
                }
                let spawns = spawn_regions(&f.tokens, bstart, bend);
                let id = nodes.len();
                fn_node.insert((fi, ni), id);
                nodes.push(Node {
                    file: fi,
                    func: ni,
                    spawn_line: None,
                    body: (bstart, bend),
                    holes: spawns.iter().map(|s| (s.1, s.2)).collect(),
                    display: format!("{}:{}", f.rel, func.name),
                    panics: Vec::new(),
                    blocking: Vec::new(),
                    calls: Vec::new(),
                });
                for (line, s, e) in spawns {
                    let sid = nodes.len();
                    roots.push(sid);
                    nodes.push(Node {
                        file: fi,
                        func: ni,
                        spawn_line: Some(line),
                        body: (s, e),
                        holes: Vec::new(),
                        display: format!("{}:{}@{}", f.rel, func.name, line),
                        panics: Vec::new(),
                        blocking: Vec::new(),
                        calls: Vec::new(),
                    });
                }
            }
        }
        // Pass 2: per-node scan for calls, panic sites, and blocking sites.
        let mut raw_calls: Vec<Vec<RawCall>> = vec![Vec::new(); nodes.len()];
        for (id, node) in nodes.iter_mut().enumerate() {
            scan_node(files, node, &mut raw_calls[id]);
        }
        // Pass 3: resolve call names to nodes.
        for id in 0..nodes.len() {
            let file = nodes[id].file;
            let mut resolved: BTreeSet<(usize, u32)> = BTreeSet::new();
            for (name, line, argc) in &raw_calls[id] {
                for r in resolver.resolve(files, name, file, *argc) {
                    if let Some(&callee) = fn_node.get(&(r.file, r.func)) {
                        if callee != id {
                            resolved.insert((callee, *line));
                        }
                    }
                }
            }
            nodes[id].calls = resolved.into_iter().collect();
        }
        let mut g = CallGraph {
            ops: vec![BTreeSet::new(); nodes.len()],
            block_path: vec![None; nodes.len()],
            from_root: BTreeMap::new(),
            nodes,
            roots,
            fn_node,
        };
        g.close_ops();
        g.close_roots();
        g
    }

    /// Node id for a function definition, if it produced a node.
    pub fn node_of(&self, r: FnRef) -> Option<usize> {
        self.fn_node.get(&(r.file, r.func)).copied()
    }

    /// Fixed-point transitive blocking-op closure + one concrete path each.
    fn close_ops(&mut self) {
        for (id, node) in self.nodes.iter().enumerate() {
            for b in &node.blocking {
                self.ops[id].insert(b.op.clone());
            }
            if let Some(b) = node.blocking.first() {
                self.block_path[id] = Some(BlockPath {
                    op: b.op.clone(),
                    via: Vec::new(),
                });
            }
        }
        loop {
            let mut changed = false;
            for id in 0..self.nodes.len() {
                for (callee, _) in self.nodes[id].calls.clone() {
                    let add: Vec<Op> = self.ops[callee]
                        .iter()
                        .filter(|op| !self.ops[id].contains(*op))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        self.ops[id].extend(add);
                        changed = true;
                    }
                    if self.block_path[id].is_none() {
                        if let Some(bp) = &self.block_path[callee] {
                            let mut via = vec![self.nodes[callee].display.clone()];
                            via.extend(bp.via.iter().take(3).cloned());
                            self.block_path[id] = Some(BlockPath {
                                op: bp.op.clone(),
                                via,
                            });
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// BFS from each spawn root; first root to reach a node claims it.
    fn close_roots(&mut self) {
        for &root in &self.roots {
            let mut queue = vec![root];
            self.from_root.entry(root).or_insert((root, None));
            while let Some(at) = queue.pop() {
                for (callee, _) in self.nodes[at].calls.clone() {
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        self.from_root.entry(callee)
                    {
                        e.insert((root, Some(at)));
                        queue.push(callee);
                    }
                }
            }
        }
    }

    /// Stable DOT rendering: nodes sorted by display name, spawn roots
    /// boxed, edge per resolved call.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| self.nodes[a].display.cmp(&self.nodes[b].display));
        let rank: BTreeMap<usize, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut out = String::from("digraph callgraph {\n  rankdir=LR;\n");
        for &id in &order {
            let n = &self.nodes[id];
            let shape = if n.spawn_line.is_some() {
                " shape=box style=bold"
            } else {
                ""
            };
            let badge = if !n.blocking.is_empty() {
                " color=red"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\"{}{}];",
                rank[&id], n.display, shape, badge
            );
        }
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (id, n) in self.nodes.iter().enumerate() {
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

/// Finds spawned-closure body token ranges inside `[bstart, bend)`:
/// `spawn(move || { … })` and builder forms. Returns `(line, start, end)`
/// per closure body.
fn spawn_regions(toks: &[Token], bstart: usize, bend: usize) -> Vec<(u32, usize, usize)> {
    let mut out = Vec::new();
    let mut i = bstart;
    while i < bend {
        if toks[i].is_ident("spawn") && i + 1 < bend && toks[i + 1].is_punct("(") {
            let call_end = match_paren(toks, i + 1).min(bend);
            let mut j = i + 2;
            while j < call_end && !toks[j].is_punct("|") {
                j += 1;
            }
            if j < call_end {
                j += 1;
                while j < call_end && !toks[j].is_punct("|") {
                    j += 1;
                }
                j += 1;
                while j < call_end && !toks[j].is_punct("{") {
                    j += 1;
                }
                if j < call_end {
                    let body_end = match_brace(toks, j).min(call_end);
                    out.push((toks[i].line, j + 1, body_end.saturating_sub(1)));
                    i = body_end;
                    continue;
                }
            }
            i = call_end;
            continue;
        }
        i += 1;
    }
    out
}

/// A call name seen in a node body: name, line, argument count (`None`
/// when the argument list could not be counted).
type RawCall = (String, u32, Option<usize>);

/// True when the `unwrap`/`expect` at `i` hangs directly off a zero-arg
/// `.lock()`/`.read()`/`.write()`: panic-on-poison re-raises a panic another
/// thread already hit while holding the lock — it is not an independent
/// panic path, so L013 skips it.
fn is_poison_propagation(toks: &[Token], i: usize) -> bool {
    i >= 5
        && toks[i - 1].is_punct(".")
        && toks[i - 2].is_punct(")")
        && toks[i - 3].is_punct("(")
        && matches!(toks[i - 4].text.as_str(), "lock" | "read" | "write")
        && toks[i - 4].kind == TokKind::Ident
        && toks[i - 5].is_punct(".")
}

/// One pass over a node's (holed) token range: raw call names, panic sites,
/// blocking sites.
fn scan_node(files: &[SourceFile], node: &mut Node, raw_calls: &mut Vec<RawCall>) {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let f = &files[node.file];
    let toks = &f.tokens;
    let (bstart, bend) = node.body;
    let mut i = bstart;
    while i < bend {
        if let Some(&(hs, he)) = node.holes.iter().find(|&&(hs, _)| i == hs) {
            i = he.max(hs + 1);
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident && i + 1 < bend {
            let next = &toks[i + 1];
            // Macro panics: `panic!(…)`.
            if next.is_punct("!") && PANIC_MACROS.contains(&t.text.as_str()) {
                node.panics.push(PanicSite {
                    line: t.line,
                    what: format!("{}!", t.text),
                });
                i += 2;
                continue;
            }
            if next.is_punct("(") {
                let method = i >= 1 && toks[i - 1].is_punct(".");
                let name = t.text.as_str();
                if method && (name == "unwrap" || name == "expect") {
                    if !is_poison_propagation(toks, i) {
                        node.panics.push(PanicSite {
                            line: t.line,
                            what: format!("{name}()"),
                        });
                    }
                } else if method && (name == "send" || name == "recv") {
                    let chan = crate::rules::receiver_of_call(toks, i)
                        .map(|r| channel_name(&r))
                        .unwrap_or_else(|| "chan".to_string());
                    let op = if name == "send" {
                        Op::Send(chan)
                    } else {
                        Op::Recv(chan)
                    };
                    node.blocking.push(BlockSite { line: t.line, op });
                } else if method
                    && (name == "wait" || name == "wait_timeout")
                    && i + 2 < bend
                    && !toks[i + 2].is_punct(")")
                {
                    // Condvar waits take the guard; zero-arg `.wait()` is
                    // some other API.
                    let cv = crate::rules::receiver_of_call(toks, i)
                        .unwrap_or_else(|| "condvar".to_string());
                    node.blocking.push(BlockSite {
                        line: t.line,
                        op: Op::CvWait(cv),
                    });
                } else if method && name == "join" && i + 2 < bend && toks[i + 2].is_punct(")") {
                    node.blocking.push(BlockSite {
                        line: t.line,
                        op: Op::Join,
                    });
                } else if name == "sleep" {
                    node.blocking.push(BlockSite {
                        line: t.line,
                        op: Op::Sleep,
                    });
                } else if method && IO_METHODS.contains(&name) {
                    node.blocking.push(BlockSite {
                        line: t.line,
                        op: Op::Io(name.to_string()),
                    });
                } else if !NON_CALLS.contains(&name) {
                    // A plain or method call candidate for resolution.
                    raw_calls.push((
                        t.text.clone(),
                        t.line,
                        crate::model::count_args(toks, i + 1),
                    ));
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::Resolver;

    fn graph(src: &str) -> (Vec<SourceFile>, CallGraph) {
        let files = vec![SourceFile::parse("crates/a/src/lib.rs", src)];
        let resolver = Resolver::build(&files, &[]);
        let g = CallGraph::build(&files, &resolver);
        (files, g)
    }

    #[test]
    fn spawn_body_becomes_root_node() {
        let (_, g) = graph(
            "fn run(rx: Receiver<u32>) {\n    thread::spawn(move || {\n        helper();\n    });\n    tail();\n}\nfn helper() { x.recv(); }\nfn tail() {}\n",
        );
        assert_eq!(g.roots.len(), 1);
        let root = g.roots[0];
        assert!(g.nodes[root].display.contains("@2"));
        // The spawn body calls helper; the enclosing fn calls only tail.
        let helper = g
            .nodes
            .iter()
            .position(|n| n.display.ends_with(":helper"))
            .unwrap();
        assert!(g.nodes[root].calls.iter().any(|&(c, _)| c == helper));
        let run = g
            .nodes
            .iter()
            .position(|n| n.display.ends_with(":run"))
            .unwrap();
        assert!(!g.nodes[run].calls.iter().any(|&(c, _)| c == helper));
        // Reachability from the root includes helper.
        assert!(g.from_root.contains_key(&helper));
        assert!(!g.from_root.contains_key(&run));
    }

    #[test]
    fn blocking_ops_close_transitively() {
        let (_, g) = graph(
            "fn a(rx: &Receiver<u32>) { b(rx); }\nfn b(rx: &Receiver<u32>) { c(rx); }\nfn c(rx: &Receiver<u32>) { rx.recv(); }\n",
        );
        let a = g
            .nodes
            .iter()
            .position(|n| n.display.ends_with(":a"))
            .unwrap();
        assert!(g.ops[a].contains(&Op::Recv("chan".into())));
        let bp = g.block_path[a].clone().unwrap();
        assert_eq!(bp.via.len(), 2);
        assert!(bp.via[0].ends_with(":b"));
    }

    #[test]
    fn poisoned_lock_expect_is_not_a_panic_site() {
        let (_, g) = graph(
            "fn f(m: &Mutex<u32>, x: Option<u32>) {\n    let g = m.lock().expect(\"poisoned\");\n    let h = m.read().unwrap();\n    let v = x.unwrap();\n}\n",
        );
        let n = &g.nodes[0];
        // Only the `Option::unwrap` counts; panic-on-poison re-raises a
        // panic that already happened on another thread.
        assert_eq!(n.panics.len(), 1, "{:?}", n.panics);
        assert_eq!(n.panics[0].line, 4);
    }

    #[test]
    fn channel_names_pair_endpoints() {
        assert_eq!(channel_name("events_tx"), "events");
        assert_eq!(channel_name("events_rx"), "events");
        assert_eq!(channel_name("tx"), "chan");
        assert_eq!(channel_name("out"), "out");
    }

    #[test]
    fn dot_is_stable_and_marks_roots() {
        let (_, g) = graph(
            "fn run(rx: Receiver<u32>) { thread::spawn(move || { work(&rx); }); }\nfn work(rx: &Receiver<u32>) { rx.recv(); }\n",
        );
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph callgraph {"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("->"));
        assert_eq!(dot, g.to_dot());
    }
}

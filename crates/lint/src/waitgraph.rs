//! The static wait-for model behind L011/L012: one directed graph whose
//! nodes are locks (`lock:x`), channel facets (`chan:c.data`,
//! `chan:c.cap`), and condvars (`cv:c`), built from guard-tracked walks of
//! every call-graph node and closed over resolved calls.
//!
//! Channel semantics use **two nodes per channel** so that a send and a
//! recv at the same site do not fabricate a 2-cycle:
//!
//! * `recv(c)` while holding `L` — the receiver waits for data:
//!   `lock:L → chan:c.data`; and freeing capacity requires this receiver,
//!   so `chan:c.cap → lock:L`.
//! * `send(c)` while holding `M` — producing data requires `M`:
//!   `chan:c.data → lock:M`; and a bounded send waits for capacity:
//!   `lock:M → chan:c.cap`.
//! * `cv.wait(g)` releases the waited lock, so only *other* held guards
//!   edge into `cv:c`; `notify_*` under `M` adds `cv:c → lock:M`.
//!
//! Every cycle is an L011 finding — over locks alone it is a lock-order
//! inversion, through a `chan:`/`cv:` node a lock/message deadlock.
//! Unguarded sends/recvs add no edges — if *any* producer needs the lock the
//! cycle appears; a lock-free alternative producer is a documented source of
//! false positives, silenced with `// lint-ok: L011 <reason>`.
//!
//! `walk_node` is the analyzer's only live-guard tracker: whatever it sees
//! block under a guard — `send`/`recv`/`sleep`/`join`/`cv.wait` on the spot,
//! or a call whose callee summary blocks — is an L012 finding.

use crate::callgraph::{channel_name, CallGraph, Op};
use crate::lexer::{TokKind, Token};
use crate::lockgraph::{LockGraph, Site};
use crate::model::{match_paren, SourceFile};
use crate::resolve::Resolver;
use crate::rules::{acquisition_at, receiver_of_call};
use crate::{Finding, Rule};

/// Result of the unified walk: the wait-for graph plus the L012 findings
/// collected along the way (the walk already knows guard liveness, so the
/// rule falls out of it).
pub struct WaitAnalysis {
    pub graph: LockGraph,
    pub l012: Vec<Finding>,
}

struct Guard {
    bound: String,
    lock: String,
    depth: i32,
}

/// Walks every call-graph node and assembles the wait-for graph + L012.
pub fn build(files: &[SourceFile], resolver: &Resolver, cg: &CallGraph) -> WaitAnalysis {
    let mut graph = LockGraph::default();
    let mut l012 = Vec::new();
    for node in &cg.nodes {
        walk_node(files, resolver, cg, node, &mut graph, &mut l012);
    }
    WaitAnalysis { graph, l012 }
}

/// Adds the wait-for edges implied by `op` occurring while `locks` are held.
fn op_edges(graph: &mut LockGraph, op: &Op, locks: &[&str], site: &Site) {
    for l in locks {
        let lock = format!("lock:{l}");
        match op {
            Op::Recv(c) => {
                graph.add_edge(lock.clone(), format!("chan:{c}.data"), site.clone());
                graph.add_edge(format!("chan:{c}.cap"), lock, site.clone());
            }
            Op::Send(c) => {
                graph.add_edge(format!("chan:{c}.data"), lock.clone(), site.clone());
                graph.add_edge(lock, format!("chan:{c}.cap"), site.clone());
            }
            Op::CvWait(c) => {
                graph.add_edge(lock, format!("cv:{c}"), site.clone());
            }
            Op::Sleep | Op::Join | Op::Io(_) => {}
        }
    }
}

#[allow(clippy::too_many_lines)]
fn walk_node(
    files: &[SourceFile],
    resolver: &Resolver,
    cg: &CallGraph,
    node: &crate::callgraph::Node,
    graph: &mut LockGraph,
    l012: &mut Vec<Finding>,
) {
    let f = &files[node.file];
    let toks = &f.tokens;
    let fn_name = &f.functions[node.func].name;
    let (bstart, bend) = node.body;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // Guard whose binding statement is still being scanned: pushed when the
    // statement ends so mid-initializer ops are not "under" it yet.
    let mut pending: Option<(Guard, usize)> = None;
    let mut i = bstart;
    while i < bend {
        if let Some(&(hs, he)) = node.holes.iter().find(|&&(hs, _)| i == hs) {
            i = he.max(hs + 1);
            continue;
        }
        if let Some((_, end)) = &pending {
            if i >= *end {
                let (g, _) = pending.take().unwrap();
                guards.push(g);
            }
        }
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
        } else if t.is_ident("drop")
            && i + 3 < bend
            && toks[i + 1].is_punct("(")
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 3].is_punct(")")
        {
            let name = &toks[i + 2].text;
            guards.retain(|g| &g.bound != name);
            i += 4;
            continue;
        } else if t.is_ident("let") && pending.is_none() {
            if let Some((g, end)) = guard_binding(toks, i, bend, depth) {
                pending = Some((g, end));
            }
        } else if let Some(m) = acquisition_at(toks, i) {
            // Lock-under-lock: edges into the unified graph (typed nodes).
            if let Some(new_lock) = receiver_of_call(toks, m) {
                let site = Site {
                    file: f.rel.clone(),
                    line: toks[m].line,
                    func: fn_name.clone(),
                };
                for g in &guards {
                    graph.add_edge(
                        format!("lock:{}", g.lock),
                        format!("lock:{new_lock}"),
                        site.clone(),
                    );
                }
            }
        } else if t.kind == TokKind::Ident && i + 1 < bend && toks[i + 1].is_punct("(") {
            let method = i >= 1 && toks[i - 1].is_punct(".");
            let name = t.text.as_str();
            let site = Site {
                file: f.rel.clone(),
                line: t.line,
                func: fn_name.clone(),
            };
            let held: Vec<&str> = guards.iter().map(|g| g.lock.as_str()).collect();
            if method && (name == "send" || name == "recv") {
                let chan = receiver_of_call(toks, i)
                    .map(|r| channel_name(&r))
                    .unwrap_or_else(|| "chan".to_string());
                let op = if name == "send" {
                    Op::Send(chan)
                } else {
                    Op::Recv(chan)
                };
                op_edges(graph, &op, &held, &site);
                if !held.is_empty() {
                    push_l012(
                        l012,
                        f,
                        t.line,
                        format!(
                            "blocking channel `{name}` while holding lock guard(s) [{}]",
                            held.join(", ")
                        ),
                    );
                }
            } else if method && (name == "notify_one" || name == "notify_all") {
                if let Some(cv) = receiver_of_call(toks, i) {
                    for l in &held {
                        graph.add_edge(format!("cv:{cv}"), format!("lock:{l}"), site.clone());
                    }
                }
            } else if method
                && (name == "wait" || name == "wait_timeout")
                && i + 2 < bend
                && !toks[i + 2].is_punct(")")
            {
                let cv = receiver_of_call(toks, i).unwrap_or_else(|| "condvar".to_string());
                // The waited guard is the first argument; it is released by
                // the wait itself. Only *other* held guards block.
                let arg = toks.get(i + 2).map(|a| a.text.clone()).unwrap_or_default();
                let others: Vec<&str> = guards
                    .iter()
                    .filter(|g| g.bound != arg)
                    .map(|g| g.lock.as_str())
                    .collect();
                op_edges(graph, &Op::CvWait(cv.clone()), &others, &site);
                if !others.is_empty() {
                    push_l012(
                        l012,
                        f,
                        t.line,
                        format!(
                            "`{cv}.wait()` while also holding lock guard(s) [{}]",
                            others.join(", ")
                        ),
                    );
                }
            } else if !held.is_empty() && (name == "sleep" || (method && name == "join")) {
                let what = if name == "sleep" {
                    "`thread::sleep`"
                } else {
                    "`join()`"
                };
                push_l012(
                    l012,
                    f,
                    t.line,
                    format!("{what} while holding lock guard(s) [{}]", held.join(", ")),
                );
            } else {
                let argc = crate::model::count_args(toks, i + 1);
                // `guard.lock()`-family acquisitions and `unwrap`/`expect`
                // are not calls to workspace functions; `disk.read(a, b, c)`
                // and friends still resolve thanks to arity matching.
                let acquisition_like = method
                    && argc == Some(0)
                    && matches!(name, "lock" | "read" | "write" | "try_lock");
                if method && matches!(name, "unwrap" | "expect") || acquisition_like {
                    i += 1;
                    continue;
                }
                // A call: consult callee summaries when guards are live.
                let callees = resolver.resolve(files, name, node.file, argc);
                let mut reported = false;
                for r in callees {
                    // A same-name candidate that is this very function is
                    // either recursion (already covered by the direct sites
                    // above) or delegation misresolved to self; skip it.
                    if (r.file, r.func) == (node.file, node.func) && node.spawn_line.is_none() {
                        continue;
                    }
                    let Some(id) = cg.node_of(r) else { continue };
                    if !held.is_empty() {
                        for op in &cg.ops[id] {
                            op_edges(graph, op, &held, &site);
                        }
                        if !reported {
                            if let Some(bp) = &cg.block_path[id] {
                                let mut chain = vec![cg.nodes[id].display.clone()];
                                chain.extend(bp.via.iter().cloned());
                                push_l012(
                                    l012,
                                    f,
                                    t.line,
                                    format!(
                                        "call to `{name}` may block ({}) while holding lock \
                                         guard(s) [{}]; path: {}",
                                        bp.op.describe(),
                                        held.join(", "),
                                        chain.join(" -> ")
                                    ),
                                );
                                reported = true;
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

fn push_l012(out: &mut Vec<Finding>, f: &SourceFile, line: u32, message: String) {
    if f.has_annotation(line, "unblock-ok:") || f.has_annotation(line, "lint-ok: L012") {
        return;
    }
    out.push(Finding {
        rule: Rule::L012,
        file: f.rel.clone(),
        line,
        message,
        hint: "drop the guard before the blocking operation (narrow the scope or \
               `drop(guard)`) or use a try_/timeout variant; audit the site with \
               `// unblock-ok: <reason>` if it cannot actually block here"
            .to_string(),
    });
}

/// If the `let` at `i` binds a guard (initializer tail is a zero-arg
/// `.lock()`/`.read()`/`.write()`, optionally `.unwrap()`/`.expect(..)`),
/// returns the guard plus the statement-end token index.
fn guard_binding(toks: &[Token], i: usize, bend: usize, depth: i32) -> Option<(Guard, usize)> {
    let mut j = i + 1;
    if j < bend && toks[j].is_ident("mut") {
        j += 1;
    }
    let bound = (j < bend && toks[j].kind == TokKind::Ident).then(|| toks[j].text.clone())?;
    let mut k = j;
    let (mut p, mut br, mut bk) = (0i32, 0i32, 0i32);
    let mut last_acq: Option<(usize, usize)> = None;
    while k < bend {
        let tk = &toks[k];
        match tk.text.as_str() {
            "(" if tk.kind == TokKind::Punct => p += 1,
            ")" if tk.kind == TokKind::Punct => p -= 1,
            "{" if tk.kind == TokKind::Punct => br += 1,
            "}" if tk.kind == TokKind::Punct => br -= 1,
            "[" if tk.kind == TokKind::Punct => bk += 1,
            "]" if tk.kind == TokKind::Punct => bk -= 1,
            ";" if tk.kind == TokKind::Punct && p == 0 && br == 0 && bk == 0 => break,
            _ => {}
        }
        if let Some(m) = acquisition_at(toks, k) {
            last_acq = Some((m, m + 3));
        }
        k += 1;
    }
    let (m, acq_end) = last_acq?;
    let mut tail = acq_end;
    if tail + 1 < bend
        && toks[tail].is_punct(".")
        && (toks[tail + 1].is_ident("expect") || toks[tail + 1].is_ident("unwrap"))
    {
        if let Some(open) = (tail + 2 < bend && toks[tail + 2].is_punct("(")).then_some(tail + 2) {
            tail = match_paren(toks, open);
        }
    }
    if tail != k {
        return None;
    }
    let lock = receiver_of_call(toks, m).unwrap_or_else(|| "<lock>".to_string());
    Some((Guard { bound, lock, depth }, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> WaitAnalysis {
        let files = vec![SourceFile::parse("crates/a/src/lib.rs", src)];
        let resolver = Resolver::build(&files, &[]);
        let cg = CallGraph::build(&files, &resolver);
        build(&files, &resolver, &cg)
    }

    #[test]
    fn recv_and_send_under_same_lock_cycle_through_data_node() {
        let wa = analyze(
            "fn consumer(m: &Mutex<u32>, work_rx: &Receiver<u32>) {\n    let g = m.lock();\n    let v = work_rx.recv();\n    drop(v); drop(g);\n}\nfn producer(m: &Mutex<u32>, work_tx: &Sender<u32>) {\n    let g = m.lock();\n    work_tx.send(1);\n    drop(g);\n}\n",
        );
        let cycles = wa.graph.cycles();
        assert!(
            cycles
                .iter()
                .any(|c| c.iter().any(|(a, _, _)| a.starts_with("chan:"))),
            "{cycles:?}"
        );
        // Both endpoints block under the guard on the spot.
        let lines: Vec<u32> = wa.l012.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 8], "{:?}", wa.l012);
    }

    #[test]
    fn send_and_recv_same_site_is_not_a_cycle() {
        // One function both sends and receives under the lock: the data and
        // cap facets keep the edges from closing on themselves spuriously
        // into a single-channel 2-cycle of the same facet.
        let wa = analyze(
            "fn pump(m: &Mutex<u32>, a_tx: &Sender<u32>, b_rx: &Receiver<u32>) {\n    let g = m.lock();\n    a_tx.send(1);\n    drop(g);\n}\n",
        );
        assert!(wa.graph.cycles().is_empty());
        assert_eq!(wa.l012.len(), 1, "{:?}", wa.l012);
        assert!(wa.l012[0].message.contains("`send`"));
    }

    #[test]
    fn interprocedural_block_under_guard_is_l012() {
        let wa = analyze(
            "fn outer(m: &Mutex<u32>, rx: &Receiver<u32>) {\n    let g = m.lock();\n    helper(rx);\n    drop(g);\n}\nfn helper(rx: &Receiver<u32>) { flush(rx); }\nfn flush(done_rx: &Receiver<u32>) { done_rx.recv(); }\n",
        );
        assert_eq!(wa.l012.len(), 1, "{:?}", wa.l012);
        assert!(wa.l012[0].message.contains("helper"));
        assert!(wa.l012[0].message.contains("recv"));
        assert!(wa.l012[0].message.contains("path:"));
    }

    #[test]
    fn unblock_ok_audits_the_site() {
        let wa = analyze(
            "fn outer(m: &Mutex<u32>, rx: &Receiver<u32>) {\n    let g = m.lock();\n    helper(rx); // unblock-ok: helper only blocks at shutdown\n    drop(g);\n}\nfn helper(done_rx: &Receiver<u32>) { done_rx.recv(); }\n",
        );
        assert!(wa.l012.is_empty(), "{:?}", wa.l012);
    }

    #[test]
    fn call_after_drop_is_clean() {
        let wa = analyze(
            "fn outer(m: &Mutex<u32>, rx: &Receiver<u32>) {\n    let g = m.lock();\n    drop(g);\n    helper(rx);\n}\nfn helper(done_rx: &Receiver<u32>) { done_rx.recv(); }\n",
        );
        assert!(wa.l012.is_empty(), "{:?}", wa.l012);
    }
}

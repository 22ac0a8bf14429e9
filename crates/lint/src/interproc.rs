//! The interprocedural rule pass: builds the resolver, the call graph, and
//! the unified wait-for graph once, then derives
//!
//! * **L011** — every cycle of the wait-for graph: lock-order inversions
//!   and cycles that pass through a channel or condvar node alike;
//! * **L012** — blocking while a lock guard is live, directly or through any
//!   number of calls (collected during the wait-graph walk);
//! * **L013** — panic sites (`unwrap`/`expect`/panic-family macros) in a
//!   spawned closure's own body and in every function reachable from it.
//!   `assert!`-family macros are deliberate invariant checks and exempt.

use crate::callgraph::CallGraph;
use crate::manifest::Manifest;
use crate::model::SourceFile;
use crate::resolve::Resolver;
use crate::{waitgraph, Finding, Rule};

/// Crates whose panic sites L013 reports — the pipeline crates where a
/// worker panic silently kills a thread.
const L013_SCOPE: &[&str] = &[
    "crates/core/",
    "crates/engine/",
    "crates/storage/",
    "crates/simio/",
    "crates/obs/",
];

/// Runs the interprocedural rules, appending to `findings`. Also returns
/// the call graph so callers (the DOT dump, timing) can reuse it.
pub fn check(
    files: &[SourceFile],
    manifests: &[Manifest],
    findings: &mut Vec<Finding>,
) -> CallGraph {
    let resolver = Resolver::build(files, manifests);
    let cg = CallGraph::build(files, &resolver);
    let wa = waitgraph::build(files, &resolver, &cg);
    l011_wait_cycles(files, &wa, findings);
    findings.extend(wa.l012);
    l013_panic_reachability(files, &cg, findings);
    cg
}

fn l011_wait_cycles(
    files: &[SourceFile],
    wa: &waitgraph::WaitAnalysis,
    findings: &mut Vec<Finding>,
) {
    // A channel whose both endpoints sit under the same lock produces the
    // same deadlock twice — once through the data facet, once through the
    // capacity facet. Normalize facets away and report each shape once.
    let mut seen: std::collections::BTreeSet<Vec<String>> = std::collections::BTreeSet::new();
    for cycle in wa.graph.cycles() {
        let mut key: Vec<String> = cycle
            .iter()
            .map(|(a, _, _)| {
                a.strip_suffix(".data")
                    .or_else(|| a.strip_suffix(".cap"))
                    .unwrap_or(a)
                    .to_string()
            })
            .collect();
        key.sort();
        if !seen.insert(key) {
            continue;
        }
        let silenced = cycle.iter().any(|(_, _, site)| {
            files
                .iter()
                .find(|f| f.rel == site.file)
                .is_some_and(|f| f.has_annotation(site.line, "lint-ok: L011"))
        });
        if silenced {
            continue;
        }
        // A cycle over locks alone is a lock-order inversion and names the
        // bare locks; one through a `chan:`/`cv:` node keeps the typed names.
        let lock_only = cycle.iter().all(|(a, _, _)| a.starts_with("lock:"));
        let show = |n: &str| {
            let bare = n.strip_prefix("lock:").filter(|_| lock_only);
            bare.unwrap_or(n).to_string()
        };
        let path: Vec<String> = cycle
            .iter()
            .map(|(a, b, s)| {
                let (a, b) = (show(a), show(b));
                format!("{a} -> {b} ({}:{} in {})", s.file, s.line, s.func)
            })
            .collect();
        let kind = if lock_only {
            "lock-order cycle"
        } else {
            "wait-for cycle through a channel/condvar"
        };
        let first = &cycle[0].2;
        findings.push(Finding {
            rule: Rule::L011,
            file: first.file.clone(),
            line: first.line,
            message: format!("{kind}: {}", path.join(", ")),
            hint: "break the cycle: acquire the locks in one global order everywhere (see \
                   DESIGN.md 'Concurrency invariants'), drop the guard before the channel op, \
                   or route the counterparty's lock acquisition outside the send/recv; \
                   annotate an edge with `// lint-ok: L011 <reason>` only if the orders are \
                   never concurrent or an unguarded producer keeps the channel live"
                .to_string(),
        });
    }
}

fn l013_panic_reachability(files: &[SourceFile], cg: &CallGraph, findings: &mut Vec<Finding>) {
    for (&id, &(root, _)) in &cg.from_root {
        let node = &cg.nodes[id];
        let f = &files[node.file];
        if !L013_SCOPE.iter().any(|p| f.rel.starts_with(p)) {
            continue;
        }
        // Reconstruct one call path root -> … -> node for the message.
        let mut chain = vec![node.display.clone()];
        let mut at = id;
        while let Some(&(_, Some(prev))) = cg.from_root.get(&at) {
            chain.push(cg.nodes[prev].display.clone());
            at = prev;
            if chain.len() >= 5 {
                break;
            }
        }
        chain.reverse();
        let root_disp = &cg.nodes[root].display;
        for p in &node.panics {
            if f.has_annotation(p.line, "lint-ok: L013") {
                continue;
            }
            findings.push(Finding {
                rule: Rule::L013,
                file: f.rel.clone(),
                line: p.line,
                message: format!(
                    "`{}` is reachable from the thread spawned at {root_disp} (path: {})",
                    p.what,
                    chain.join(" -> ")
                ),
                hint: "a panic here kills a pipeline worker silently: propagate the error to \
                       the scan's error channel instead, or audit with `// lint-ok: L013 \
                       <reason>` if the invariant provably holds"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, src)| SourceFile::parse((*rel).to_string(), src))
            .collect();
        let mut findings = Vec::new();
        check(&files, &[], &mut findings);
        findings
    }

    #[test]
    fn l013_reports_panic_in_called_fn() {
        let fs = run(&[(
            "crates/core/src/worker.rs",
            "fn run(rx: Receiver<u32>) {\n    thread::spawn(move || {\n        step(None);\n    });\n}\nfn step(x: Option<u32>) {\n    let v = x.unwrap();\n    drop(v);\n}\n",
        )]);
        let l013: Vec<_> = fs.iter().filter(|f| f.rule == Rule::L013).collect();
        assert_eq!(l013.len(), 1, "{fs:?}");
        assert_eq!(l013[0].line, 7);
        assert!(l013[0].message.contains("worker.rs:run@2"));
    }

    #[test]
    fn l013_out_of_scope_crate_is_clean() {
        let fs = run(&[(
            "crates/bench/src/lib.rs",
            "fn run() { thread::spawn(move || { step(None); }); }\nfn step(x: Option<u32>) { x.unwrap(); }\n",
        )]);
        assert!(fs.iter().all(|f| f.rule != Rule::L013), "{fs:?}");
    }

    #[test]
    fn l013_unreached_panic_is_clean() {
        let fs = run(&[(
            "crates/core/src/worker.rs",
            "fn run() { thread::spawn(move || { safe(); }); }\nfn safe() {}\nfn risky(x: Option<u32>) { x.unwrap(); }\n",
        )]);
        assert!(fs.iter().all(|f| f.rule != Rule::L013), "{fs:?}");
    }

    #[test]
    fn l011_cross_function_channel_lock_cycle() {
        let fs = run(&[(
            "crates/core/src/sched.rs",
            "fn consumer(state: &Mutex<u32>, work_rx: &Receiver<u32>) {\n    let g = state.lock();\n    let v = work_rx.recv();\n    drop(v); drop(g);\n}\nfn producer(state: &Mutex<u32>, work_tx: &Sender<u32>) {\n    let g = state.lock();\n    work_tx.send(1);\n    drop(g);\n}\n",
        )]);
        let l011: Vec<_> = fs.iter().filter(|f| f.rule == Rule::L011).collect();
        assert_eq!(l011.len(), 1, "{fs:?}");
        assert!(
            l011[0].message.contains("chan:work."),
            "{}",
            l011[0].message
        );
        assert!(l011[0].message.contains("lock:state"));
        // The two guarded endpoints are also L012 sites in their own right.
        let l012: Vec<u32> = fs
            .iter()
            .filter(|f| f.rule == Rule::L012)
            .map(|f| f.line)
            .collect();
        assert_eq!(l012, [3, 8], "{fs:?}");
    }

    #[test]
    fn l011_silenced_by_annotation() {
        let fs = run(&[(
            "crates/core/src/sched.rs",
            "fn consumer(state: &Mutex<u32>, work_rx: &Receiver<u32>) {\n    let g = state.lock();\n    // lint-ok: L011 shutdown-only path, producer never holds state\n    let v = work_rx.recv();\n    drop(v); drop(g);\n}\nfn producer(state: &Mutex<u32>, work_tx: &Sender<u32>) {\n    let g = state.lock();\n    work_tx.send(1);\n    drop(g);\n}\n",
        )]);
        // The cycle is audited; blocking under the guard is a separate audit.
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == Rule::L012), "{fs:?}");
    }
}

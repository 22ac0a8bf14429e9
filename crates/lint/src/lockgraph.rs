//! The directed graph with cycle enumeration behind L011.
//!
//! `waitgraph` fills it with typed nodes: locks (the receiver identifier of
//! a `.lock()` / `.read()` / `.write()` call), channel facets and condvars.
//! A directed edge `A -> B` records that somewhere in the workspace a thread
//! holding `A` waits for `B`. A cycle in this graph is a potential deadlock:
//! over locks alone, two threads can take them in opposite orders.

use std::collections::BTreeMap;

/// Where an acquisition edge was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    pub file: String,
    pub line: u32,
    pub func: String,
}

/// Directed graph of observed lock-acquisition orders.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// from -> (to -> first site observed).
    edges: BTreeMap<String, BTreeMap<String, Site>>,
}

impl LockGraph {
    /// Records that `to` is acquired while `from` is held, at `site`.
    /// The first site observed for an edge wins (it anchors the report).
    pub fn add_edge(&mut self, from: String, to: String, site: Site) {
        self.edges
            .entry(from)
            .or_default()
            .entry(to)
            .or_insert(site);
    }

    /// All distinct elementary cycles, each as a list of
    /// `(from, to, site)` edges. Cycles are deduplicated by their node set
    /// rotated to start at the lexicographically smallest node, so `a->b->a`
    /// and `b->a->b` report once.
    pub fn cycles(&self) -> Vec<Vec<(String, String, Site)>> {
        let mut found: Vec<Vec<String>> = Vec::new();
        for start in self.edges.keys() {
            let mut path = vec![start.clone()];
            self.dfs(start, start, &mut path, &mut found);
        }
        // Canonicalize: rotate each cycle to start at its smallest node,
        // then dedup.
        let mut canon: Vec<Vec<String>> = found
            .into_iter()
            .map(|cyc| {
                let min = cyc
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.as_str())
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let mut rot = cyc[min..].to_vec();
                rot.extend_from_slice(&cyc[..min]);
                rot
            })
            .collect();
        canon.sort();
        canon.dedup();

        canon
            .into_iter()
            .map(|nodes| {
                let k = nodes.len();
                (0..k)
                    .map(|i| {
                        let from = nodes[i].clone();
                        let to = nodes[(i + 1) % k].clone();
                        let site = self.edges[&from][&to].clone();
                        (from, to, site)
                    })
                    .collect()
            })
            .collect()
    }

    fn dfs(&self, start: &str, at: &str, path: &mut Vec<String>, found: &mut Vec<Vec<String>>) {
        let Some(nexts) = self.edges.get(at) else {
            return;
        };
        for next in nexts.keys() {
            if next == start {
                found.push(path.clone());
                continue;
            }
            // Only explore nodes > start to avoid re-finding rotations, and
            // skip nodes already on the path (elementary cycles only).
            if next.as_str() < start || path.iter().any(|p| p == next) {
                continue;
            }
            path.push(next.clone());
            self.dfs(start, next, path, found);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(line: u32) -> Site {
        Site {
            file: "f.rs".into(),
            line,
            func: "f".into(),
        }
    }

    #[test]
    fn no_cycle_in_dag() {
        let mut g = LockGraph::default();
        g.add_edge("a".into(), "b".into(), site(1));
        g.add_edge("b".into(), "c".into(), site(2));
        g.add_edge("a".into(), "c".into(), site(3));
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn two_node_cycle_reported_once() {
        let mut g = LockGraph::default();
        g.add_edge("a".into(), "b".into(), site(1));
        g.add_edge("b".into(), "a".into(), site(2));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
        assert_eq!(cycles[0][0].0, "a");
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let mut g = LockGraph::default();
        g.add_edge("a".into(), "a".into(), site(7));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 1);
        assert_eq!(cycles[0][0].2.line, 7);
    }

    #[test]
    fn three_node_cycle() {
        let mut g = LockGraph::default();
        g.add_edge("x".into(), "y".into(), site(1));
        g.add_edge("y".into(), "z".into(), site(2));
        g.add_edge("z".into(), "x".into(), site(3));
        assert_eq!(g.cycles().len(), 1);
        assert_eq!(g.cycles()[0].len(), 3);
    }

    #[test]
    fn first_site_wins() {
        let mut g = LockGraph::default();
        g.add_edge("a".into(), "b".into(), site(1));
        g.add_edge("a".into(), "b".into(), site(99));
        g.add_edge("b".into(), "a".into(), site(2));
        let cycles = g.cycles();
        assert_eq!(cycles[0][0].2.line, 1);
    }
}

//! The clone-based minor search over `BTreeMap` quotients that the packed
//! `frr_graph::minors::MinorEngine` replaced, kept as the differential-testing
//! and benchmarking baseline; test and bench targets include it with
//! `#[path = "…/support/minor_reference.rs"] mod reference;`.

use frr_graph::minors::MinorAnswer;
use frr_graph::ops::induced_subgraph;
use frr_graph::{Graph, Node};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Clone-based minor search (the pre-packed-engine implementation).
pub fn has_minor_with_budget(g: &Graph, h: &Graph, budget: u64) -> MinorAnswer {
    let h_nodes_needed = h.node_count();
    if h.edge_count() == 0 {
        return if g.node_count() >= h_nodes_needed {
            MinorAnswer::Yes
        } else {
            MinorAnswer::No
        };
    }
    if g.node_count() < h.node_count() || g.edge_count() < h.edge_count() {
        return MinorAnswer::No;
    }
    let h_core_nodes: Vec<Node> = h.nodes().filter(|&v| h.degree(v) > 0).collect();
    let spare_needed = h.node_count() - h_core_nodes.len();
    let (h_core, _) = induced_subgraph(h, &h_core_nodes);

    let mut searcher = MinorSearch {
        h: h_core,
        spare_needed,
        budget,
        seen: HashSet::new(),
        exhausted: false,
    };
    let q = Quotient::from_graph(g);
    let found = searcher.search(q);
    if found {
        MinorAnswer::Yes
    } else if searcher.exhausted {
        MinorAnswer::Unknown
    } else {
        MinorAnswer::No
    }
}

#[derive(Clone, PartialEq, Eq)]
struct Quotient {
    adj: BTreeMap<usize, BTreeSet<usize>>,
    weight: BTreeMap<usize, usize>,
    free: usize,
    original_nodes: usize,
}

impl Quotient {
    fn from_graph(g: &Graph) -> Self {
        let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        let mut weight = BTreeMap::new();
        for v in g.nodes() {
            adj.insert(v.index(), g.neighbors(v).map(|u| u.index()).collect());
            weight.insert(v.index(), 1);
        }
        Quotient {
            adj,
            weight,
            free: 0,
            original_nodes: g.node_count(),
        }
    }

    fn node_count(&self) -> usize {
        self.adj.len()
    }

    fn edge_count(&self) -> usize {
        self.adj.values().map(|s| s.len()).sum::<usize>() / 2
    }

    fn degree(&self, v: usize) -> usize {
        self.adj.get(&v).map_or(0, |s| s.len())
    }

    fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (&v, ns) in &self.adj {
            for &u in ns {
                if v < u {
                    out.push((v, u));
                }
            }
        }
        out
    }

    fn delete_vertex(&mut self, v: usize) {
        if let Some(ns) = self.adj.remove(&v) {
            for u in ns {
                if let Some(s) = self.adj.get_mut(&u) {
                    s.remove(&v);
                }
            }
            self.free += self.weight.remove(&v).unwrap_or(1);
        }
    }

    fn contract(&mut self, a: usize, b: usize) {
        let (keep, gone) = if a < b { (a, b) } else { (b, a) };
        let gone_weight = self.weight.remove(&gone).unwrap_or(1);
        *self.weight.entry(keep).or_insert(1) += gone_weight;
        let gone_neighbors = self.adj.remove(&gone).unwrap_or_default();
        for u in gone_neighbors {
            if let Some(s) = self.adj.get_mut(&u) {
                s.remove(&gone);
            }
            if u != keep {
                self.adj.entry(keep).or_default().insert(u);
                self.adj.entry(u).or_default().insert(keep);
            }
        }
        if let Some(s) = self.adj.get_mut(&keep) {
            s.remove(&gone);
            s.remove(&keep);
        }
    }

    fn to_graph(&self) -> Graph {
        let ids: Vec<usize> = self.adj.keys().copied().collect();
        let index: BTreeMap<usize, usize> = ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut g = Graph::new(ids.len());
        for (v, u) in self.edges() {
            g.add_edge(Node(index[&v]), Node(index[&u]));
        }
        g
    }

    fn key(&self) -> Vec<(usize, usize)> {
        let mut k = self.edges();
        for (&v, ns) in &self.adj {
            if ns.is_empty() {
                k.push((v, v));
            }
        }
        k.sort_unstable();
        k
    }
}

struct MinorSearch {
    h: Graph,
    spare_needed: usize,
    budget: u64,
    seen: HashSet<Vec<(usize, usize)>>,
    exhausted: bool,
}

impl MinorSearch {
    fn search(&mut self, mut q: Quotient) -> bool {
        if self.budget == 0 {
            self.exhausted = true;
            return false;
        }
        self.budget -= 1;

        self.reduce(&mut q);

        let hn = self.h.node_count();
        let hm = self.h.edge_count();
        if q.node_count() < hn || q.edge_count() < hm {
            return false;
        }
        if q.original_nodes < hn + self.spare_needed {
            return false;
        }

        if self.spare_needed == 0 {
            let key = q.key();
            if self.seen.contains(&key) {
                return false;
            }
            self.seen.insert(key);
        }

        let compact = q.to_graph();
        let mut sub_budget = 20_000u64;
        match subgraph_isomorphic(&compact, &self.h, &mut sub_budget) {
            Some(true) => {
                if self.spare_needed == 0 {
                    return true;
                }
                let mut weights: Vec<usize> = q.weight.values().copied().collect();
                weights.sort_unstable_by(|a, b| b.cmp(a));
                let heaviest: usize = weights.iter().take(hn).sum();
                let total: usize = weights.iter().sum();
                let guaranteed_spares = q.free + (total - heaviest);
                if guaranteed_spares >= self.spare_needed {
                    return true;
                }
                self.exhausted = true;
            }
            Some(false) => {}
            None => self.exhausted = true,
        }

        let mut edges = q.edges();
        edges.sort_by_key(|&(a, b)| q.degree(a) + q.degree(b));
        for (a, b) in edges {
            if self.budget == 0 {
                self.exhausted = true;
                return false;
            }
            let mut next = q.clone();
            next.contract(a, b);
            if self.search(next) {
                return true;
            }
        }
        false
    }

    fn reduce(&self, q: &mut Quotient) {
        let h_min = self.h.min_degree();
        let del_low = h_min >= 2 && self.spare_needed == 0;
        let suppress = h_min >= 3 && self.spare_needed == 0;
        if !del_low && !suppress {
            return;
        }
        loop {
            let mut changed = false;
            if del_low {
                let low: Vec<usize> = q
                    .adj
                    .iter()
                    .filter(|(_, ns)| ns.len() <= 1)
                    .map(|(&v, _)| v)
                    .collect();
                for v in low {
                    q.delete_vertex(v);
                    changed = true;
                }
            }
            if suppress {
                if let Some((&v, ns)) = q.adj.iter().find(|(_, ns)| ns.len() == 2) {
                    let ns: Vec<usize> = ns.iter().copied().collect();
                    let (a, b) = (ns[0], ns[1]);
                    if q.adj[&a].contains(&b) {
                        q.delete_vertex(v);
                    } else {
                        q.contract(v, a);
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Decides whether `h` is isomorphic to a subgraph of `g` (not necessarily
/// induced), via backtracking with degree pruning.
///
/// Intended for small pattern graphs `h` (≤ 10 nodes); the host graph `g` can
/// be larger.  `budget` bounds the number of recursive extension steps; when
/// it is exhausted the function returns `None` (undecided), otherwise
/// `Some(true)` / `Some(false)`.
pub fn subgraph_isomorphic(g: &Graph, h: &Graph, budget: &mut u64) -> Option<bool> {
    if h.node_count() > g.node_count() || h.edge_count() > g.edge_count() {
        return Some(false);
    }
    // Order pattern nodes by decreasing degree with a connectivity preference:
    // after the first node, prefer nodes adjacent to already-placed ones.
    let hn = h.node_count();
    let mut order: Vec<Node> = Vec::with_capacity(hn);
    let mut placed = vec![false; hn];
    while order.len() < hn {
        let next = h
            .nodes()
            .filter(|v| !placed[v.index()])
            .max_by_key(|&v| {
                let adj_placed = h.neighbors(v).filter(|u| placed[u.index()]).count();
                (adj_placed, h.degree(v))
            })
            .expect("an unplaced node exists");
        placed[next.index()] = true;
        order.push(next);
    }

    // Backtracking state bundled so the recursion carries one context instead
    // of eight loose arguments.
    struct Embedding<'a> {
        g: &'a Graph,
        h: &'a Graph,
        order: &'a [Node],
        g_nodes: Vec<Node>,
        assignment: Vec<Option<Node>>,
        used: Vec<bool>,
    }

    impl Embedding<'_> {
        fn extend(&mut self, depth: usize, budget: &mut u64) -> Option<bool> {
            if depth == self.order.len() {
                return Some(true);
            }
            if *budget == 0 {
                return None;
            }
            let hv = self.order[depth];
            let needed_degree = self.h.degree(hv);
            for i in 0..self.g_nodes.len() {
                let gv = self.g_nodes[i];
                if self.used[gv.index()] || self.g.degree(gv) < needed_degree {
                    continue;
                }
                // All already-assigned pattern neighbors must map to host neighbors.
                let ok = self
                    .h
                    .neighbors(hv)
                    .all(|hu| match self.assignment[hu.index()] {
                        Some(gu) => self.g.has_edge(gv, gu),
                        None => true,
                    });
                if !ok {
                    continue;
                }
                *budget = budget.saturating_sub(1);
                self.assignment[hv.index()] = Some(gv);
                self.used[gv.index()] = true;
                match self.extend(depth + 1, budget) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => {
                        self.assignment[hv.index()] = None;
                        self.used[gv.index()] = false;
                        return None;
                    }
                }
                self.assignment[hv.index()] = None;
                self.used[gv.index()] = false;
            }
            Some(false)
        }
    }

    let mut state = Embedding {
        g,
        h,
        order: &order,
        g_nodes: g.nodes().collect(),
        assignment: vec![None; hn],
        used: vec![false; g.node_count()],
    };
    state.extend(0, budget)
}

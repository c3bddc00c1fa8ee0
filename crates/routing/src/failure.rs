//! Failure sets `F ⊆ E` and their enumeration / sampling.
//!
//! The adversary of the paper chooses an arbitrary set of links to fail; the
//! only promise is that source and destination (or, for `r`-tolerance, `r`
//! link-disjoint paths between them) survive.  This module provides the
//! container, the one exhaustive enumeration order ([`GrayMasks`]:
//! weight-ordered Gray code, smallest failure sets first) and reproducible
//! random sampling (for larger networks).
//!
//! A failure **mask** is a plain little-endian word slice: bit `i` of word
//! `i / 64` set ⇒ edge `i` of the ascending [`Graph::edges`] order failed.
//! Masks are borrowed as `&[u64]` and owned as `Vec<u64>` of
//! `⌈m / 64⌉` words (at least one) — the row layout of
//! [`frr_graph::bitgraph::BitGraph`], so the overlays in [`crate::sweep`]
//! combine mask words and adjacency rows directly.

use frr_graph::bitgraph::BitIter;
use frr_graph::connectivity::{same_component_filtered, st_edge_connectivity_filtered};
use frr_graph::{Edge, Graph, Node};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// Words in a failure mask over `edge_count` links (`⌈m / 64⌉`, at least 1).
pub(crate) fn mask_words(edge_count: usize) -> usize {
    edge_count.div_ceil(64).max(1)
}

/// The set bit indices of `mask`, ascending.
pub(crate) fn mask_ones(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter()
        .enumerate()
        .flat_map(|(wi, &w)| BitIter::new(w).map(move |b| wi * 64 + b))
}

/// A set of failed (undirected) links.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSet {
    failed: BTreeSet<Edge>,
}

impl FailureSet {
    /// The empty failure set.
    pub fn new() -> Self {
        FailureSet::default()
    }

    /// A failure set from explicit edges.
    pub fn from_edges<I: IntoIterator<Item = Edge>>(edges: I) -> Self {
        FailureSet {
            failed: edges.into_iter().collect(),
        }
    }

    /// The failure set a mask denotes over an ascending edge list (bit `i`
    /// set ⇒ `edges[i]` failed; see the module docs for the word layout).
    /// A single-word mask is `&[mask]`.
    pub fn from_mask(edges: &[Edge], mask: &[u64]) -> Self {
        FailureSet::from_edges(
            mask_ones(mask)
                .filter(|&i| i < edges.len())
                .map(|i| edges[i]),
        )
    }

    /// A failure set from `(u, v)` index pairs.
    pub fn from_pairs(pairs: &[(usize, usize)]) -> Self {
        FailureSet {
            failed: pairs
                .iter()
                .map(|&(u, v)| Edge::new(Node(u), Node(v)))
                .collect(),
        }
    }

    /// Number of failed links.
    pub fn len(&self) -> usize {
        self.failed.len()
    }

    /// `true` if no link failed.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }

    /// `true` if the link `{u, v}` failed.
    pub fn contains(&self, u: Node, v: Node) -> bool {
        if u == v {
            return false;
        }
        self.failed.contains(&Edge::new(u, v))
    }

    /// `true` if the edge failed.
    pub fn contains_edge(&self, e: Edge) -> bool {
        self.failed.contains(&e)
    }

    /// Adds a failed link; returns `true` if newly inserted.
    pub fn insert(&mut self, e: Edge) -> bool {
        self.failed.insert(e)
    }

    /// Iterates over the failed links in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.failed.iter()
    }

    /// The far endpoints of failed links incident to `v` — the local view
    /// `F ∩ E(v)` a node is allowed to condition on — sorted ascending.
    pub fn failed_neighbors_of(&self, v: Node) -> Vec<Node> {
        let mut out = Vec::new();
        self.failed_neighbors_into(v, &mut out);
        out
    }

    /// Like [`FailureSet::failed_neighbors_of`], but reuses `out` (cleared
    /// first) so the simulator's per-hop loop allocates nothing in steady
    /// state.  The result is sorted ascending.
    pub fn failed_neighbors_into(&self, v: Node, out: &mut Vec<Node>) {
        out.clear();
        // Edges are stored in normalized ascending order, so the far
        // endpoints of the links incident to `v` come out ascending too:
        // (x, v) entries (x < v, ascending x) precede (v, y) entries
        // (ascending y).
        out.extend(self.failed.iter().filter_map(|e| e.other(v)));
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    /// The surviving graph `G \ F`.
    ///
    /// This materializes a full graph clone; the sweep machinery in
    /// [`crate::sweep`] and the promise checks below deliberately avoid it.
    pub fn surviving_graph(&self, g: &Graph) -> Graph {
        g.without_edges(self.failed.iter())
    }

    /// `true` if `s` and `t` are still connected in `G \ F` (BFS over `G`
    /// skipping failed links; no graph clone).
    pub fn keeps_connected(&self, g: &Graph, s: Node, t: Node) -> bool {
        same_component_filtered(g, s, t, |u, v| !self.contains(u, v))
    }

    /// `true` if `s` and `t` are still `r`-connected (link-disjoint paths) in
    /// `G \ F` — the paper's `r`-tolerance promise (max-flow over `G` skipping
    /// failed links; no graph clone).
    pub fn keeps_r_connected(&self, g: &Graph, s: Node, t: Node, r: usize) -> bool {
        if r == 0 || s == t {
            return true;
        }
        st_edge_connectivity_filtered(g, s, t, |u, v| !self.contains(u, v)) >= r
    }
}

impl fmt::Display for FailureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.failed.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Edge> for FailureSet {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        FailureSet::from_edges(iter)
    }
}

impl Extend<Edge> for FailureSet {
    fn extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) {
        self.failed.extend(iter);
    }
}

/// Enumerates failure masks in **Gray-code order**: consecutive masks
/// differ by at most two flipped edges (exactly one across weight
/// boundaries), and [`GrayMasks::last_flips`] names the flipped edge
/// indices — which is what lets `SweepEngine::toggle_edge` patch its
/// overlay incrementally instead of rebuilding it per mask.
///
/// The order is the weight-ordered *revolving-door* combination Gray code:
/// all masks of popcount 0, then popcount 1, …, up to the cap (or `m`),
/// with each weight block ordered by the classic recursion
/// `A(n, k) = A(n-1, k) ++ reverse(A(n-1, k-1)) × {n-1}` and odd-weight
/// blocks reversed so weight boundaries are single flips.  Weight-ordered
/// enumeration also means bounded sweeps spend their budget on the
/// smallest failure sets first — the paper's regime of interest.
///
/// This is the one sweep order of `sweep_find_first_budgeted` (and
/// therefore of every "first counterexample" result); set-wise it visits
/// every mask of popcount at most the cap exactly once (asserted against
/// that definition by the unit and differential suites).
///
/// Implemented as an explicit stack machine (no recursion, no
/// materialization): amortized `O(W)` words per mask, stack depth `O(m)`.
#[derive(Debug, Clone)]
pub struct GrayMasks {
    /// The working subset the machine mutates via `Set`/`Clear` ops.
    base: Vec<u64>,
    /// The most recently emitted mask.
    cur: Vec<u64>,
    /// Emission scratch (`base` plus base-case bits).
    scratch: Vec<u64>,
    ops: Vec<GrayOp>,
    /// Edge indices flipped by the last `advance` (`cur XOR previous`).
    flips: Vec<u32>,
    edge_count: usize,
}

#[derive(Debug, Clone, Copy)]
enum GrayOp {
    /// Emit the revolving-door listing of `k`-subsets of `{0..n}`
    /// (reversed if `rev`), offset by the current `base` set.
    Gen {
        n: u32,
        k: u32,
        rev: bool,
    },
    Set(u32),
    Clear(u32),
}

impl GrayMasks {
    /// Gray-code enumeration of every failure mask over `edge_count` links.
    pub fn all(edge_count: usize) -> Self {
        Self::with_max_failures(edge_count, None)
    }

    /// Gray-code enumeration capped at `max` failed links.
    pub fn with_max_failures(edge_count: usize, max: Option<usize>) -> Self {
        let kmax = max.map_or(edge_count, |k| k.min(edge_count)) as u32;
        // Weight blocks 0..=kmax, popped in ascending order; odd blocks
        // run reversed so each weight boundary is a single added edge.
        let ops = (0..=kmax)
            .rev()
            .map(|w| GrayOp::Gen {
                n: edge_count as u32,
                k: w,
                rev: w % 2 == 1,
            })
            .collect();
        GrayMasks {
            base: vec![0; mask_words(edge_count)],
            cur: vec![0; mask_words(edge_count)],
            scratch: vec![0; mask_words(edge_count)],
            ops,
            flips: Vec::new(),
            edge_count,
        }
    }

    /// Number of links (mask width).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Steps to the next mask; `false` when the enumeration is exhausted.
    /// After a `true` return, [`GrayMasks::current`] is the new mask and
    /// [`GrayMasks::last_flips`] the edges it differs from its predecessor
    /// by (empty only for the very first mask, the all-alive `∅`).
    pub fn advance(&mut self) -> bool {
        loop {
            let Some(op) = self.ops.pop() else {
                return false;
            };
            match op {
                GrayOp::Set(b) => self.base[b as usize / 64] |= 1 << (b % 64),
                GrayOp::Clear(b) => self.base[b as usize / 64] &= !(1 << (b % 64)),
                GrayOp::Gen { k: 0, .. } => {
                    self.emit(0);
                    return true;
                }
                GrayOp::Gen { n, k, .. } if k >= n => {
                    self.emit(n);
                    return true;
                }
                GrayOp::Gen { n, k, rev: false } => {
                    // A(n,k) = A(n-1,k) ++ reverse(A(n-1,k-1)) × {n-1}.
                    self.ops.push(GrayOp::Clear(n - 1));
                    self.ops.push(GrayOp::Gen {
                        n: n - 1,
                        k: k - 1,
                        rev: true,
                    });
                    self.ops.push(GrayOp::Set(n - 1));
                    self.ops.push(GrayOp::Gen {
                        n: n - 1,
                        k,
                        rev: false,
                    });
                }
                GrayOp::Gen { n, k, rev: true } => {
                    // reverse(A(n,k)) = A(n-1,k-1) × {n-1} ++ reverse(A(n-1,k)).
                    self.ops.push(GrayOp::Gen {
                        n: n - 1,
                        k,
                        rev: true,
                    });
                    self.ops.push(GrayOp::Clear(n - 1));
                    self.ops.push(GrayOp::Gen {
                        n: n - 1,
                        k: k - 1,
                        rev: false,
                    });
                    self.ops.push(GrayOp::Set(n - 1));
                }
            }
        }
    }

    /// Emits `base`, with bits `0..full_below` additionally set (the
    /// `k == n` base case), computing the flip list against the previous
    /// mask.
    fn emit(&mut self, full_below: u32) {
        self.scratch.copy_from_slice(&self.base);
        for b in 0..full_below as usize {
            self.scratch[b / 64] |= 1 << (b % 64);
        }
        self.flips.clear();
        for (wi, (&new, &old)) in self.scratch.iter().zip(&self.cur).enumerate() {
            for b in BitIter::new(new ^ old) {
                self.flips.push((wi * 64 + b) as u32);
            }
        }
        std::mem::swap(&mut self.cur, &mut self.scratch);
    }

    /// The mask of the most recent [`GrayMasks::advance`].
    pub fn current(&self) -> &[u64] {
        &self.cur
    }

    /// The edge indices the current mask differs from its predecessor by.
    pub fn last_flips(&self) -> &[u32] {
        &self.flips
    }
}

/// `Σ_{i≤k} C(m, i)` — the number of masks [`GrayMasks`] capped at `k`
/// visits — saturating at `u64::MAX`, the most positions a sweep can count.
pub fn capped_mask_count(m: usize, k: usize) -> u64 {
    let mut total: u128 = 1;
    let mut binomial: u128 = 1;
    for i in 1..=k.min(m) {
        // `binomial ≤ total ≤ u64::MAX`, so the product fits `u128`, and it
        // is exactly divisible by `i`.
        binomial = binomial * (m - i + 1) as u128 / i as u128;
        total += binomial;
        if total > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    total as u64
}

/// Iterator over all failure sets of a graph in the **Gray-code** sweep
/// order of [`GrayMasks`] (starting at `∅`) — the materializing reference
/// the differential tests pin sweep results against.  Works at any width.
pub struct GrayFailureSets {
    edges: Vec<Edge>,
    masks: GrayMasks,
}

impl GrayFailureSets {
    /// Enumerates every failure set of `g` in Gray order.
    pub fn new(g: &Graph) -> Self {
        Self::with_max_failures(g, None)
    }

    /// Enumerates every failure set of `g` with at most `max` failed links,
    /// in Gray order.
    pub fn with_max_failures(g: &Graph, max: Option<usize>) -> Self {
        let edges = g.edges();
        GrayFailureSets {
            masks: GrayMasks::with_max_failures(edges.len(), max),
            edges,
        }
    }
}

impl Iterator for GrayFailureSets {
    type Item = FailureSet;

    fn next(&mut self) -> Option<FailureSet> {
        if !self.masks.advance() {
            return None;
        }
        Some(FailureSet::from_mask(&self.edges, self.masks.current()))
    }
}

/// Samples a uniformly random failure set of exactly `k` links (or all links
/// if `k ≥ m`).
pub fn random_failure_set<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> FailureSet {
    let mut edges = g.edges();
    edges.shuffle(rng);
    FailureSet::from_edges(edges.into_iter().take(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_container_behaviour() {
        let mut f = FailureSet::new();
        assert!(f.is_empty());
        assert!(f.insert(Edge::new(Node(0), Node(1))));
        assert!(!f.insert(Edge::new(Node(1), Node(0))));
        assert_eq!(f.len(), 1);
        assert!(f.contains(Node(0), Node(1)));
        assert!(!f.contains(Node(0), Node(2)));
        assert!(!f.contains(Node(1), Node(1)));
        assert_eq!(format!("{f}"), "{v0-v1}");
        let g = FailureSet::from_pairs(&[(0, 1)]);
        assert_eq!(f, g);
    }

    #[test]
    fn local_view_extraction() {
        let f = FailureSet::from_pairs(&[(0, 1), (0, 2), (3, 4)]);
        let local = f.failed_neighbors_of(Node(0));
        assert_eq!(local, vec![Node(1), Node(2)]);
        assert!(f.failed_neighbors_of(Node(5)).is_empty());
        // The reusable variant clears its buffer and produces sorted output.
        let mut buf = vec![Node(9)];
        f.failed_neighbors_into(Node(4), &mut buf);
        assert_eq!(buf, vec![Node(3)]);
        let f2 = FailureSet::from_pairs(&[(2, 5), (0, 5), (5, 7), (5, 6)]);
        f2.failed_neighbors_into(Node(5), &mut buf);
        assert_eq!(buf, vec![Node(0), Node(2), Node(6), Node(7)]);
    }

    #[test]
    fn surviving_graph_and_connectivity_promises() {
        let g = generators::cycle(5);
        let f = FailureSet::from_pairs(&[(0, 1)]);
        let gs = f.surviving_graph(&g);
        assert_eq!(gs.edge_count(), 4);
        assert!(f.keeps_connected(&g, Node(0), Node(1)));
        let f2 = FailureSet::from_pairs(&[(0, 1), (1, 2)]);
        assert!(!f2.keeps_connected(&g, Node(1), Node(3)));
        // r-connectivity promise on K5.
        let k5 = generators::complete(5);
        let f3 = FailureSet::from_pairs(&[(0, 1)]);
        assert!(f3.keeps_r_connected(&k5, Node(0), Node(1), 3));
        assert!(!f3.keeps_r_connected(&k5, Node(0), Node(1), 4));
    }

    #[test]
    fn capped_mask_count_matches_binomial_sums() {
        assert_eq!(capped_mask_count(0, 0), 1);
        assert_eq!(capped_mask_count(10, 0), 1);
        assert_eq!(capped_mask_count(10, 1), 11);
        assert_eq!(capped_mask_count(10, 2), 56);
        assert_eq!(capped_mask_count(10, 10), 1024);
        assert_eq!(capped_mask_count(10, 99), 1024);
        assert_eq!(capped_mask_count(40, 2), 1 + 40 + 780);
        assert_eq!(capped_mask_count(62, 62), 1 << 62);
        assert_eq!(capped_mask_count(63, 63), 1 << 63);
        assert_eq!(capped_mask_count(100, 2), 1 + 100 + 4950);
        // Counts above u64 saturate.
        assert_eq!(capped_mask_count(64, 64), u64::MAX);
        assert_eq!(capped_mask_count(80, 80), u64::MAX);
        assert_eq!(capped_mask_count(300, 150), u64::MAX);
        for m in 0..=16usize {
            for k in 0..=m {
                let naive = (0..1u64 << m)
                    .filter(|x| x.count_ones() as usize <= k)
                    .count() as u64;
                assert_eq!(capped_mask_count(m, k), naive, "m={m}, k={k}");
            }
        }
    }

    /// Materializes a Gray enumeration as `u64` masks (test widths ≤ 64),
    /// checking the flip lists along the way.
    fn gray_sequence(m: usize, k: Option<usize>) -> Vec<u64> {
        let mut gray = GrayMasks::with_max_failures(m, k);
        let mut out: Vec<u64> = Vec::new();
        while gray.advance() {
            let [mask] = *gray.current() else {
                panic!("test widths fit one word")
            };
            let prev = out.last().copied().unwrap_or(0);
            let flips = gray
                .last_flips()
                .iter()
                .fold(0u64, |acc, &b| acc | 1u64 << b);
            assert_eq!(prev ^ flips, mask, "flip list must be the exact delta");
            assert!(
                gray.last_flips().len() <= 2,
                "revolving door: at most two flips per step (m={m}, k={k:?})"
            );
            out.push(mask);
        }
        out
    }

    #[test]
    fn gray_enumeration_visits_the_same_sets_as_ascending() {
        // Sorted, the Gray order is the definition: every mask of popcount
        // at most the cap, each exactly once.
        for m in [0usize, 1, 2, 5, 9, 13] {
            for k in (0..=m).map(Some).chain([None]) {
                let mut gray = gray_sequence(m, k);
                let cap = k.unwrap_or(m) as u32;
                let ascending: Vec<u64> = (0..1u64 << m)
                    .filter(|mask| mask.count_ones() <= cap)
                    .collect();
                assert_eq!(gray.len(), ascending.len(), "m={m}, k={k:?}");
                gray.sort_unstable();
                gray.dedup();
                assert_eq!(gray, ascending, "m={m}, k={k:?}");
            }
        }
    }

    #[test]
    fn gray_enumeration_is_weight_ordered_with_single_flip_boundaries() {
        for (m, k) in [(6usize, None), (9, Some(3)), (13, Some(2))] {
            let seq = gray_sequence(m, k);
            let weights: Vec<u32> = seq.iter().map(|mask| mask.count_ones()).collect();
            assert!(
                weights.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1),
                "weights ascend one block at a time (m={m}, k={k:?})"
            );
            for w in seq.windows(2) {
                let flips = (w[0] ^ w[1]).count_ones();
                if w[1].count_ones() != w[0].count_ones() {
                    assert_eq!(flips, 1, "weight boundary is a single added edge");
                } else {
                    assert_eq!(flips, 2, "within a weight block steps are swaps");
                }
            }
            assert_eq!(seq.len() as u64, capped_mask_count(m, k.unwrap_or(m)));
        }
    }

    #[test]
    fn gray_enumeration_beyond_64_links() {
        let m = 100;
        let mut gray = GrayMasks::with_max_failures(m, Some(2));
        let mut prev = vec![0u64; 2];
        let mut seen = std::collections::BTreeSet::new();
        let mut count = 0u64;
        while gray.advance() {
            let mask = gray.current();
            assert_eq!(mask.len(), 2);
            assert!(mask_ones(mask).count() <= 2);
            assert!(mask_ones(mask).all(|i| i < m));
            // Flip list is the exact delta, here across word boundaries too.
            let mut delta = Vec::new();
            for (wi, (&new, &old)) in mask.iter().zip(&prev).enumerate() {
                delta.extend(BitIter::new(new ^ old).map(|b| (wi * 64 + b) as u32));
            }
            assert_eq!(delta, gray.last_flips());
            assert!(delta.len() <= 2);
            prev.copy_from_slice(mask);
            assert!(seen.insert(mask.to_vec()), "masks must be distinct");
            count += 1;
        }
        assert_eq!(count, capped_mask_count(m, 2));
        assert_eq!(count, 1 + 100 + 4950);
    }

    #[test]
    fn gray_failure_sets_materialize_the_gray_order() {
        let g = generators::cycle(5);
        let edges = g.edges();
        let mut gray = GrayMasks::all(5);
        let mut expected = Vec::new();
        while gray.advance() {
            expected.push(FailureSet::from_mask(&edges, gray.current()));
        }
        let via_iter: Vec<FailureSet> = GrayFailureSets::new(&g).collect();
        assert_eq!(via_iter, expected);
        assert_eq!(
            GrayFailureSets::with_max_failures(&g, Some(2)).count(),
            1 + 5 + 10
        );
    }

    #[test]
    fn from_mask_accepts_every_mask_shape() {
        let g = generators::cycle(4);
        let edges = g.edges();
        let f = FailureSet::from_mask(&edges, &[0b101]);
        assert_eq!(f, FailureSet::from_edges([edges[0], edges[2]]));
        // Extra zero words change nothing.
        assert_eq!(FailureSet::from_mask(&edges, &[0b101, 0, 0]), f);
    }

    #[test]
    fn masks_materialize_to_the_right_sets() {
        let g = generators::cycle(4);
        let edges = g.edges();
        assert_eq!(FailureSet::from_mask(&edges, &[0]), FailureSet::new());
        let f = FailureSet::from_mask(&edges, &[0b101]);
        assert_eq!(f.len(), 2);
        assert!(f.contains_edge(edges[0]));
        assert!(f.contains_edge(edges[2]));
        // The sorted Gray masks materialize to the ≤ 2-failure sets of the
        // definition, mask by mask.
        let mut gray = gray_sequence(edges.len(), Some(2));
        gray.sort_unstable();
        let via_gray: Vec<FailureSet> = gray
            .iter()
            .map(|&m| FailureSet::from_mask(&edges, &[m]))
            .collect();
        let via_definition: Vec<FailureSet> = (0..1u64 << edges.len())
            .filter(|m| m.count_ones() <= 2)
            .map(|m| FailureSet::from_mask(&edges, &[m]))
            .collect();
        assert_eq!(via_gray, via_definition);
        for (set, mask) in via_gray.iter().zip(&gray) {
            assert_eq!(set.len(), mask.count_ones() as usize);
        }
    }

    #[test]
    fn random_failure_sets_are_reproducible() {
        let g = generators::complete(6);
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        assert_eq!(
            random_failure_set(&g, 4, &mut rng1),
            random_failure_set(&g, 4, &mut rng2)
        );
        let f = random_failure_set(&g, 100, &mut rng1);
        assert_eq!(f.len(), g.edge_count());
    }

    #[test]
    fn from_iterator_and_extend() {
        let edges = vec![Edge::new(Node(0), Node(1)), Edge::new(Node(1), Node(2))];
        let f: FailureSet = edges.clone().into_iter().collect();
        assert_eq!(f.len(), 2);
        let mut f2 = FailureSet::new();
        f2.extend(edges);
        assert_eq!(f, f2);
    }
}

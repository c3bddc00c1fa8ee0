//! Exact minor-containment search with a work budget.
//!
//! The paper's classification (§IV.A.1, §V.A.1, §VIII) hinges on whether a
//! network contains one of a handful of small *forbidden minors*:
//! `K4` / `K2,3` (touring), `K5^{-1}` / `K3,3^{-1}` (destination-based
//! routing) and `K7^{-1}` / `K4,4^{-1}` (source–destination routing).  The
//! original study used the `minorminer` heuristic and reported an *Unknown*
//! class when it was inconclusive; we use an exact bounded search with the
//! same three-way outcome: [`MinorAnswer::Yes`] and [`MinorAnswer::No`] are
//! certain, [`MinorAnswer::Unknown`] means the work budget ran out.
//!
//! The search uses the complete recursion
//! `H ≼ G  ⇔  H ⊆_sub G  ∨  ∃ e ∈ E(G): H ≼ G/e`
//! (a minor model either has all-singleton branch sets — then it is a
//! subgraph — or some branch set contains an edge, which can be contracted).
//! Two reductions shrink every state: deleting degree-≤1 nodes when the
//! pattern has minimum degree ≥ 2, and suppressing degree-2 nodes when it has
//! minimum degree ≥ 3.  Two exact bounds then cut whole subtrees:
//!
//! - **Cycle rank.** `β = m − n + c` never grows under taking minors, so a
//!   state with `m' − n' + c_root < β(H)` has no `H` minor, nor does anything
//!   below it.  `c_root` is the host's component count at the root; later
//!   states never have more, because contracting, deleting a degree-≤1 node
//!   and suppressing a degree-2 node never add a component.  Holds for every
//!   pattern.
//! - **Degree dominance.** When the pattern's maximum degree is ≤ 3 (`K4`,
//!   `K2,3`, `K3,3^{-1}`), `H` is a minor iff the host contains a subdivision
//!   of `H` (Diestel, *Graph Theory*, Prop. 1.7.3), which needs a distinct
//!   host node of degree ≥ `deg_H(v)` for every pattern node `v`.  A state
//!   whose top-`|H|` degrees fail to dominate the pattern's is therefore "No"
//!   with its whole subtree.  For denser patterns the same test only skips
//!   that state's subgraph check.
//!
//! # The packed engine
//!
//! [`MinorEngine`] runs the search on packed `u64` adjacency rows (the
//! [`BitGraph`] layout): every branch-and-bound state is a bitset quotient —
//! one row per node id, an active-representative bitmask, and a
//! small per-representative weight array.  Contraction keeps the smaller
//! identifier as representative (so identical quotients reached via different
//! contraction orders coincide), and reduces to a handful of word OR/ANDNOT
//! operations; vertex deletion, degree counting, edge iteration and the
//! degree-sequence filter in front of the subgraph check are all word-parallel
//! popcount loops.  States live in per-depth scratch buffers that are reused
//! across the whole search (and across searches when the engine is reused),
//! so the steady state performs **no allocations** besides the one boxed
//! `u64`-tuple key each *newly seen* state contributes to the memo table —
//! the packed replacement for the old `BTreeMap`-quotient clone per state.
//!
//! When the pattern has no isolated nodes, the root is reduced once and its
//! surviving nodes are relabelled `0..n'` in ascending original-id order
//! before the search starts.  The relabel preserves id order, so the
//! representative choice, the branch order, `reduce`'s picks and every
//! ascending scan are unchanged: the search tree and the contraction count
//! are identical, only the rows, state copies and memo keys get shorter.
//!
//! The work budget counts **contractions actually performed** (one per
//! explored non-root state), so a given budget bounds the real branching work
//! and [`MinorAnswer::Unknown`] marks a meaningful search frontier.

use crate::bitgraph::{BitGraph, BitIter};
use crate::budget::StopSignal;
use crate::connectivity::connected_components;
use crate::graph::{Graph, Node};
use std::collections::HashSet;

/// Outcome of a (budgeted) minor search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinorAnswer {
    /// `H` is certainly a minor of `G`.
    Yes,
    /// `H` is certainly not a minor of `G`.
    No,
    /// The work budget was exhausted before the search could decide.
    Unknown,
}

impl MinorAnswer {
    /// `true` for [`MinorAnswer::Yes`].
    pub fn is_yes(self) -> bool {
        self == MinorAnswer::Yes
    }
    /// `true` for [`MinorAnswer::No`].
    pub fn is_no(self) -> bool {
        self == MinorAnswer::No
    }
    /// `true` for [`MinorAnswer::Unknown`].
    pub fn is_unknown(self) -> bool {
        self == MinorAnswer::Unknown
    }
}

/// Default work budget (number of contractions performed by the search).
pub const DEFAULT_BUDGET: u64 = 200_000;

/// Per-state budget for the embedded subgraph-isomorphism check.
const SUBISO_BUDGET: u64 = 20_000;

/// Decides whether `h` is a minor of `g`, with the default work budget.
pub fn has_minor(g: &Graph, h: &Graph) -> MinorAnswer {
    has_minor_with_budget(g, h, DEFAULT_BUDGET)
}

/// Decides whether `h` is a minor of `g` using at most `budget` contractions.
pub fn has_minor_with_budget(g: &Graph, h: &Graph, budget: u64) -> MinorAnswer {
    MinorEngine::new().solve_bit(&BitGraph::from_graph(g), h, budget)
}

/// Number of bits per adjacency word.
const WORD_BITS: usize = u64::BITS as usize;

/// One branch-and-bound state: a quotient of the host graph in packed form.
///
/// Rows are indexed by node id (the host's, or the compacted root's); a node
/// that was merged away or deleted has a zeroed row and a cleared bit in
/// `active`.  Because the representative of a contraction is always the
/// smaller id, the packed rows plus the active mask are a canonical labelling
/// of the quotient.
#[derive(Default)]
struct StateBuf {
    /// `n_slots * words` adjacency words.
    rows: Vec<u64>,
    /// `words` active-representative mask words.
    active: Vec<u64>,
    /// `weight[v]` = number of original nodes merged into representative `v`.
    weight: Vec<u32>,
    /// `deg[v]` = current quotient degree of `v`, maintained incrementally by
    /// every contraction / deletion so the reduction loop, the branch-order
    /// sort and the degree filters never re-popcount rows.
    deg: Vec<u32>,
    /// Number of original nodes whose representative has been deleted.
    free: u32,
    /// Active representative count, maintained incrementally.
    n_active: u32,
    /// Quotient edge count, maintained incrementally.
    m_edges: u32,
    /// Scratch copy of one row (used during contraction).
    row_tmp: Vec<u64>,
    /// Scratch node-id list (used by the reduction loop).
    node_tmp: Vec<u32>,
    words: usize,
}

impl StateBuf {
    fn reset(&mut self, g: &BitGraph) {
        let n = g.node_count();
        let w = g.words_per_row();
        self.words = w;
        self.rows.clear();
        self.rows.extend_from_slice(g.words());
        self.active.clear();
        self.active.resize(w, 0);
        for v in 0..n {
            self.active[v / WORD_BITS] |= 1u64 << (v % WORD_BITS);
        }
        self.weight.clear();
        self.weight.resize(n, 1);
        self.deg.clear();
        self.deg.extend((0..n).map(|v| {
            self.rows[v * w..(v + 1) * w]
                .iter()
                .map(|x| x.count_ones())
                .sum::<u32>()
        }));
        self.free = 0;
        self.n_active = n as u32;
        self.m_edges = g.edge_count() as u32;
        self.row_tmp.clear();
        self.row_tmp.resize(w, 0);
    }

    fn copy_from(&mut self, other: &StateBuf) {
        self.words = other.words;
        self.rows.clear();
        self.rows.extend_from_slice(&other.rows);
        self.active.clear();
        self.active.extend_from_slice(&other.active);
        self.weight.clear();
        self.weight.extend_from_slice(&other.weight);
        self.deg.clear();
        self.deg.extend_from_slice(&other.deg);
        self.free = other.free;
        self.n_active = other.n_active;
        self.m_edges = other.m_edges;
        self.row_tmp.clear();
        self.row_tmp.resize(other.words, 0);
    }

    /// Copies `src` with its active nodes relabelled `0..n'` in ascending
    /// id order (rows shrink to `⌈n'/64⌉` words).  Deleted and merged-away
    /// nodes drop out; `free` and the weights carry over.
    fn compact_from(&mut self, src: &StateBuf) {
        let n = src.active_count();
        let w = n.div_ceil(WORD_BITS);
        // `map[old] = new`, reusing the destination's node scratch.
        let mut map = std::mem::take(&mut self.node_tmp);
        map.clear();
        map.resize(src.weight.len(), u32::MAX);
        for (new, old) in src.active_nodes().enumerate() {
            map[old] = new as u32;
        }
        // The search tree stays identical only if the relabel keeps id order.
        debug_assert!(src
            .active_nodes()
            .zip(src.active_nodes().skip(1))
            .all(|(a, b)| map[a] < map[b]));
        self.words = w;
        self.rows.clear();
        self.rows.resize(n * w, 0);
        self.active.clear();
        self.active.resize(w, 0);
        self.weight.clear();
        self.deg.clear();
        for (new, old) in src.active_nodes().enumerate() {
            self.active[new / WORD_BITS] |= 1u64 << (new % WORD_BITS);
            for u in src.row_nodes(old) {
                let u = map[u] as usize;
                self.rows[new * w + u / WORD_BITS] |= 1u64 << (u % WORD_BITS);
            }
            self.weight.push(src.weight[old]);
            self.deg.push(src.deg[old]);
        }
        self.free = src.free;
        self.n_active = src.n_active;
        self.m_edges = src.m_edges;
        self.row_tmp.clear();
        self.row_tmp.resize(w, 0);
        self.node_tmp = map;
    }

    /// Number of connected components among the active nodes.
    fn component_count(&self) -> usize {
        let mut unseen = self.active.clone();
        let mut stack = Vec::new();
        let mut count = 0;
        while let Some(wi) = unseen.iter().position(|&word| word != 0) {
            let start = wi * WORD_BITS + unseen[wi].trailing_zeros() as usize;
            unseen[wi] &= !(1u64 << (start % WORD_BITS));
            stack.push(start);
            count += 1;
            while let Some(v) = stack.pop() {
                for (wi, &word) in self.row(v).iter().enumerate() {
                    let fresh = word & unseen[wi];
                    unseen[wi] &= !fresh;
                    stack.extend(BitIter::new(fresh).map(|b| wi * WORD_BITS + b));
                }
            }
        }
        count
    }

    #[inline]
    fn row(&self, v: usize) -> &[u64] {
        &self.rows[v * self.words..(v + 1) * self.words]
    }

    #[inline]
    fn degree(&self, v: usize) -> usize {
        self.deg[v] as usize
    }

    #[inline]
    fn is_active(&self, v: usize) -> bool {
        self.active[v / WORD_BITS] & (1u64 << (v % WORD_BITS)) != 0
    }

    #[inline]
    fn has_edge(&self, u: usize, v: usize) -> bool {
        self.rows[u * self.words + v / WORD_BITS] & (1u64 << (v % WORD_BITS)) != 0
    }

    #[inline]
    fn active_count(&self) -> usize {
        self.n_active as usize
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.m_edges as usize
    }

    /// Iterates active node ids in ascending order.
    fn active_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.active
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| BitIter::new(word).map(move |b| wi * WORD_BITS + b))
    }

    /// Iterates the neighbors of `v` in ascending order.
    fn row_nodes(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(v)
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| BitIter::new(word).map(move |b| wi * WORD_BITS + b))
    }

    /// Deletes representative `v` (its original nodes become free spares).
    fn delete_vertex(&mut self, v: usize) {
        if !self.is_active(v) {
            return;
        }
        let w = self.words;
        for wi in 0..w {
            let word = self.rows[v * w + wi];
            for b in BitIter::new(word) {
                let u = wi * WORD_BITS + b;
                self.rows[u * w + v / WORD_BITS] &= !(1u64 << (v % WORD_BITS));
                self.deg[u] -= 1;
            }
        }
        self.rows[v * w..(v + 1) * w].fill(0);
        self.active[v / WORD_BITS] &= !(1u64 << (v % WORD_BITS));
        self.free += self.weight[v];
        self.weight[v] = 0;
        self.m_edges -= self.deg[v];
        self.deg[v] = 0;
        self.n_active -= 1;
    }

    /// Contracts the edge `{a, b}`; the representative is `min(a, b)`.
    fn contract(&mut self, a: usize, b: usize) {
        let (keep, gone) = if a < b { (a, b) } else { (b, a) };
        let w = self.words;
        self.weight[keep] += self.weight[gone];
        self.weight[gone] = 0;
        // Save and clear the disappearing row, then merge it into `keep`.
        for wi in 0..w {
            self.row_tmp[wi] = self.rows[gone * w + wi];
            self.rows[gone * w + wi] = 0;
        }
        let (keep_bit_w, keep_bit) = (keep / WORD_BITS, 1u64 << (keep % WORD_BITS));
        let (gone_bit_w, gone_bit) = (gone / WORD_BITS, 1u64 << (gone % WORD_BITS));
        for wi in 0..w {
            self.rows[keep * w + wi] |= self.row_tmp[wi];
        }
        self.rows[keep * w + keep_bit_w] &= !keep_bit;
        self.rows[keep * w + gone_bit_w] &= !gone_bit;
        // Rewire the neighbors of `gone` to point at `keep`.  A neighbor
        // shared with `keep` loses one incident edge (the parallel edges
        // merge); an exclusive neighbor keeps its degree.
        for wi in 0..w {
            for b in BitIter::new(self.row_tmp[wi]) {
                let u = wi * WORD_BITS + b;
                self.rows[u * w + gone_bit_w] &= !gone_bit;
                if u != keep {
                    let had_keep = self.rows[u * w + keep_bit_w] & keep_bit != 0;
                    if had_keep {
                        self.deg[u] -= 1;
                    }
                    self.rows[u * w + keep_bit_w] |= keep_bit;
                }
            }
        }
        self.active[gone_bit_w] &= !gone_bit;
        let (old_keep, old_gone) = (self.deg[keep], self.deg[gone]);
        self.deg[gone] = 0;
        self.deg[keep] = self.rows[keep * w..(keep + 1) * w]
            .iter()
            .map(|x| x.count_ones())
            .sum();
        // The edges incident to the pair were `old_keep + old_gone - 1` (the
        // contracted edge is counted by both endpoints); they collapse into
        // the merged representative's `deg[keep]` survivors.
        self.m_edges -= old_keep + old_gone - 1;
        self.m_edges += self.deg[keep];
        self.n_active -= 1;
    }

    /// Safe reductions: delete degree-0/1 nodes when the pattern has minimum
    /// degree ≥ 2; suppress degree-2 nodes when the pattern has minimum
    /// degree ≥ 3 (a pattern without degree-≤2 nodes never needs a host node
    /// of degree 2 as a branch vertex, and interior path nodes can always be
    /// bypassed).
    fn reduce(&mut self, del_low: bool, suppress: bool) {
        if !del_low && !suppress {
            return;
        }
        loop {
            let mut changed = false;
            if del_low {
                let mut low = std::mem::take(&mut self.node_tmp);
                low.clear();
                low.extend(
                    self.active_nodes()
                        .filter(|&v| self.degree(v) <= 1)
                        .map(|v| v as u32),
                );
                for &v in &low {
                    self.delete_vertex(v as usize);
                    changed = true;
                }
                self.node_tmp = low;
            }
            if suppress {
                let deg2 = self.active_nodes().find(|&v| self.degree(v) == 2);
                if let Some(v) = deg2 {
                    let (a, b) = {
                        let mut it = self.row_nodes(v);
                        let a = it.next().expect("degree-2 node has a neighbor");
                        let b = it.next().expect("degree-2 node has two neighbors");
                        (a, b)
                    };
                    if self.has_edge(a, b) {
                        // The neighbors are already adjacent: v is redundant.
                        self.delete_vertex(v);
                    } else {
                        self.contract(v, a);
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

/// The pattern graph in packed form (patterns have at most 64 nodes; the
/// paper's forbidden minors have at most 8).
struct PatternData {
    n: usize,
    m: usize,
    min_degree: usize,
    max_degree: usize,
    /// Cycle rank `m − n + c` over the pattern's real components.
    cycle_rank: usize,
    /// Per-pattern-node degree.
    deg: Vec<u32>,
    /// Per-pattern-node adjacency bitmask over pattern indices.
    adj: Vec<u64>,
    /// Match order for the subgraph check (most-constrained first, mirroring
    /// the reference search's check in `tests/support/minor_reference.rs`).
    order: Vec<u32>,
    /// Degrees sorted descending, for the degree-sequence filter.
    deg_sorted: Vec<u32>,
}

impl PatternData {
    fn from_core(h: &Graph, core: &[Node]) -> Self {
        let n = core.len();
        assert!(n <= 64, "pattern graphs are limited to 64 nodes");
        let mut index = vec![usize::MAX; h.node_count()];
        for (i, &v) in core.iter().enumerate() {
            index[v.index()] = i;
        }
        let mut deg = vec![0u32; n];
        let mut adj = vec![0u64; n];
        let mut m = 0usize;
        for (i, &v) in core.iter().enumerate() {
            for u in h.neighbors(v) {
                let j = index[u.index()];
                adj[i] |= 1u64 << j;
                deg[i] += 1;
                if j > i {
                    m += 1;
                }
            }
        }
        // Same placement order as `tests/support/minor_reference.rs`: repeatedly
        // take the unplaced node maximizing (placed neighbors, degree),
        // resolving ties like `Iterator::max_by_key` (the last maximum wins).
        let mut order = Vec::with_capacity(n);
        let mut placed = 0u64;
        while order.len() < n {
            let mut best: Option<(usize, (u32, u32))> = None;
            for i in 0..n {
                if placed & (1u64 << i) != 0 {
                    continue;
                }
                let key = ((adj[i] & placed).count_ones(), deg[i]);
                if best.is_none_or(|(_, bk)| key >= bk) {
                    best = Some((i, key));
                }
            }
            let (i, _) = best.expect("an unplaced node exists");
            placed |= 1u64 << i;
            order.push(i as u32);
        }
        let mut deg_sorted = deg.clone();
        deg_sorted.sort_unstable_by(|a, b| b.cmp(a));
        let min_degree = deg.iter().copied().min().unwrap_or(0) as usize;
        let max_degree = deg.iter().copied().max().unwrap_or(0) as usize;
        // Each isolated node of `h` adds one node and one component, so this
        // is the core's cycle rank.
        let cycle_rank = h.edge_count() + connected_components(h).len() - h.node_count();
        PatternData {
            n,
            m,
            min_degree,
            max_degree,
            cycle_rank,
            deg,
            adj,
            order,
            deg_sorted,
        }
    }
}

/// What a [`MinorEngine`] did: memo-table traffic and search work.
///
/// Plain `u64` fields incremented inline on the search hot path (an atomic
/// here would tax every explored state); this crate takes no telemetry
/// dependency, so callers that want these in a registry read them via
/// [`MinorEngine::take_memo_stats`] on their own cold paths (see
/// `frr-core`'s `classify::batch`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Memo-table lookups (one per memoizable explored state).
    pub probes: u64,
    /// Lookups that hit — the whole subtree was skipped.
    pub hits: u64,
    /// Fresh encodings inserted (= probes − hits).
    pub inserts: u64,
    /// Edge contractions performed (budget units actually spent).
    pub contractions: u64,
    /// Subgraph-isomorphism checks that ran their backtracking search
    /// (states surviving the degree-sequence filter).
    pub subiso_checks: u64,
    /// States cut with their whole subtree by the cycle-rank or the
    /// degree-dominance bound.
    pub pruned: u64,
}

impl MemoStats {
    /// Folds `other` into `self` (plain addition; used by shard merges).
    pub fn accumulate(&mut self, other: &MemoStats) {
        self.probes += other.probes;
        self.hits += other.hits;
        self.inserts += other.inserts;
        self.contractions += other.contractions;
        self.subiso_checks += other.subiso_checks;
        self.pruned += other.pruned;
    }
}

/// A reusable packed minor-search engine.
///
/// All scratch (per-depth state buffers, the memo table, subgraph-check
/// arrays) is owned by the engine and reused across calls, so a worker that
/// classifies many graphs performs no per-search setup allocations beyond
/// the first call at each size.
///
/// ```
/// use frr_graph::minors::MinorEngine;
/// use frr_graph::{generators, BitGraph};
///
/// let mut engine = MinorEngine::new();
/// let host = BitGraph::from_graph(&generators::petersen());
/// assert!(engine.solve_bit(&host, &generators::complete(5), 100_000).is_yes());
/// assert!(engine.solve_bit(&host, &generators::complete(6), 100_000).is_no());
/// ```
pub struct MinorEngine {
    states: Vec<StateBuf>,
    /// Per-depth branch edge lists, packed `degsum << 32 | a << 16 | b` with
    /// `a < b` so one unstable `u64` sort yields the degree-sum order with
    /// lexicographic ties — the same order a stable sort of the ascending
    /// edge list would produce, without the stable sort's temp allocation.
    edge_bufs: Vec<Vec<u64>>,
    /// Memoized canonical state encodings (active mask ++ active rows).
    seen: HashSet<Box<[u64]>, FnvBuildHasher>,
    key_buf: Vec<u64>,
    /// Host degree scratch for the degree-sequence filter.
    host_deg_sorted: Vec<u32>,
    /// Subgraph-check assignment (pattern index → host slot) and used-mask.
    sub_assign: Vec<u32>,
    sub_used: Vec<u64>,
    budget: u64,
    exhausted: bool,
    /// Memo/search work tallies — plain `u64`s (this crate stays
    /// dependency-free; callers flush them into their telemetry).
    memo_stats: MemoStats,
    /// Cooperative stop condition polled once per contraction; idle (and
    /// skipped) for the plain [`MinorEngine::solve_bit`] entry point.
    stop: StopSignal,
}

/// FNV-1a hashing for the memo table: the keys are long `u64` tuples hashed
/// on every explored state, where SipHash's per-word cost dominates; state
/// keys are not attacker-controlled, so the cheap word-wise fold is safe.
#[derive(Default, Clone)]
struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // `[u64]::hash` routes the whole key through one `write` call, so
        // fold 8-byte words here; a byte-at-a-time loop would undo the point
        // of the custom hasher.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
            self.0 = (self.0 ^ word).wrapping_mul(0x100_0000_01b3);
        }
        for &b in chunks.remainder() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x100_0000_01b3);
    }
    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for MinorEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MinorEngine {
    /// Creates an engine with empty scratch.
    pub fn new() -> Self {
        MinorEngine {
            states: Vec::new(),
            edge_bufs: Vec::new(),
            seen: HashSet::default(),
            key_buf: Vec::new(),
            host_deg_sorted: Vec::new(),
            sub_assign: Vec::new(),
            sub_used: Vec::new(),
            budget: 0,
            exhausted: false,
            memo_stats: MemoStats::default(),
            stop: StopSignal::none(),
        }
    }

    /// The engine's memo/search work tallies since construction (or the last
    /// [`MinorEngine::take_memo_stats`]).  Tallies accumulate across
    /// `solve_bit` calls — one engine classifies many graphs.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo_stats
    }

    /// Returns the work tallies and resets them to zero — the flush
    /// handshake for callers that forward them into a telemetry registry.
    pub fn take_memo_stats(&mut self) -> MemoStats {
        std::mem::take(&mut self.memo_stats)
    }

    /// Decides whether `h` is a minor of `g` using at most `budget`
    /// contractions.
    pub fn solve_bit(&mut self, g: &BitGraph, h: &Graph, budget: u64) -> MinorAnswer {
        self.solve_bit_with_stop(g, h, budget, &StopSignal::none())
    }

    /// [`MinorEngine::solve_bit`] with a cooperative stop condition: the
    /// search polls `stop` once per contraction and winds down with an honest
    /// [`MinorAnswer::Unknown`] when it fires (a cancelled search is treated
    /// exactly like an exhausted work budget — the frontier was not fully
    /// explored, so neither `Yes` nor `No` can be claimed).
    ///
    /// With an idle signal this is byte-identical to [`MinorEngine::solve_bit`].
    pub fn solve_bit_with_stop(
        &mut self,
        g: &BitGraph,
        h: &Graph,
        budget: u64,
        stop: &StopSignal,
    ) -> MinorAnswer {
        self.stop = stop.clone();
        // Trivial patterns.
        if h.edge_count() == 0 {
            return if g.node_count() >= h.node_count() {
                MinorAnswer::Yes
            } else {
                MinorAnswer::No
            };
        }
        if g.node_count() < h.node_count() || g.edge_count() < h.edge_count() {
            return MinorAnswer::No;
        }
        assert!(
            g.node_count() <= u16::MAX as usize,
            "the packed minor engine supports hosts up to {} nodes",
            u16::MAX
        );
        // Isolated pattern nodes only require spare host nodes; search for the
        // non-trivial part of the pattern and account for spares at the end.
        let core: Vec<Node> = h.nodes().filter(|&v| h.degree(v) > 0).collect();
        let spare_needed = h.node_count() - core.len();
        let pattern = PatternData::from_core(h, &core);

        self.budget = budget;
        self.exhausted = false;
        self.seen.clear();
        self.ensure_depth(1);
        self.states[0].reset(g);
        let del_low = pattern.min_degree >= 2 && spare_needed == 0;
        let suppress = pattern.min_degree >= 3 && spare_needed == 0;
        if spare_needed == 0 {
            // Reduce once and search from the compacted survivors: an
            // order-preserving relabel, so the search tree is unchanged.
            self.states[0].reduce(del_low, suppress);
            let (root, compact) = self.states.split_at_mut(1);
            compact[0].compact_from(&root[0]);
            self.states.swap(0, 1);
        }
        let search = SearchCtx {
            host_components: self.states[0].component_count(),
            pattern,
            spare_needed,
            del_low,
            suppress,
        };
        let found = self.search(&search, 0);
        if found {
            MinorAnswer::Yes
        } else if self.exhausted {
            MinorAnswer::Unknown
        } else {
            MinorAnswer::No
        }
    }

    fn ensure_depth(&mut self, depth: usize) {
        while self.states.len() <= depth {
            self.states.push(StateBuf::default());
        }
        while self.edge_bufs.len() <= depth {
            self.edge_bufs.push(Vec::new());
        }
    }

    fn search(&mut self, ctx: &SearchCtx, depth: usize) -> bool {
        self.ensure_depth(depth);
        let hn = ctx.pattern.n;
        {
            let st = &mut self.states[depth];
            st.reduce(ctx.del_low, ctx.suppress);
            if st.active_count() < hn || st.edge_count() < ctx.pattern.m {
                return false;
            }
            // Cycle-rank bound: no state below can regain the missing rank.
            if st.edge_count() + ctx.host_components < st.active_count() + ctx.pattern.cycle_rank {
                self.memo_stats.pruned += 1;
                return false;
            }
        }
        // Degree filter.  For a pattern of maximum degree ≤ 3 a failed filter
        // rules out a subdivision, hence a minor, in every state below as
        // well; otherwise it only skips this state's subgraph check.
        let dominated = self.degrees_dominate(&ctx.pattern, depth);
        if !dominated && ctx.pattern.max_degree <= 3 {
            self.memo_stats.pruned += 1;
            return false;
        }

        // Memoize on the canonical packed encoding (only when the pattern has
        // no isolated nodes: otherwise identical quotients can differ in spare
        // capacity through their branch-set weights).  The key is the active
        // mask followed by the active rows — because contraction keeps the
        // smaller id, equal quotients produce equal keys regardless of the
        // contraction order that reached them.
        if ctx.spare_needed == 0 {
            let MinorEngine {
                states,
                key_buf,
                seen,
                memo_stats,
                ..
            } = self;
            let st = &states[depth];
            key_buf.clear();
            key_buf.extend_from_slice(&st.active);
            for v in st.active_nodes() {
                key_buf.extend_from_slice(st.row(v));
            }
            memo_stats.probes += 1;
            if seen.contains(key_buf.as_slice()) {
                memo_stats.hits += 1;
                return false;
            }
            memo_stats.inserts += 1;
            seen.insert(key_buf.as_slice().into());
        }

        // Direct subgraph check on the packed quotient.
        let subiso = if dominated {
            self.packed_subiso(ctx, depth)
        } else {
            Some(false)
        };
        match subiso {
            Some(true) => {
                if ctx.spare_needed == 0 {
                    return true;
                }
                // The pattern has isolated nodes: any original node not merged
                // into one of the `hn` branch sets can serve as a spare.  The
                // subgraph match does not tell us which quotient nodes it used,
                // so only claim success when even the heaviest possible choice
                // of branch sets leaves enough spares (sound, possibly
                // incomplete; inconclusive cases surface as `Unknown`).
                let MinorEngine {
                    states,
                    host_deg_sorted,
                    ..
                } = self;
                let st = &states[depth];
                host_deg_sorted.clear();
                host_deg_sorted.extend(st.active_nodes().map(|v| st.weight[v]));
                host_deg_sorted.sort_unstable_by(|a, b| b.cmp(a));
                let heaviest: u32 = host_deg_sorted.iter().take(hn).sum();
                let total: u32 = host_deg_sorted.iter().sum();
                let guaranteed_spares = st.free + (total - heaviest);
                if guaranteed_spares as usize >= ctx.spare_needed {
                    return true;
                }
                self.exhausted = true;
            }
            Some(false) => {}
            None => self.exhausted = true,
        }

        // Branch over contractions, preferring edges between low-degree nodes
        // (accumulates degree fastest, which finds dense minors early).
        let mut edges = std::mem::take(&mut self.edge_bufs[depth]);
        edges.clear();
        {
            let st = &self.states[depth];
            for v in st.active_nodes() {
                for wi in 0..st.words {
                    for b in BitIter::new(st.row(v)[wi]) {
                        let u = wi * WORD_BITS + b;
                        if v < u {
                            let degsum = (st.deg[v] + st.deg[u]) as u64;
                            edges.push(degsum << 32 | (v as u64) << 16 | u as u64);
                        }
                    }
                }
            }
            edges.sort_unstable();
        }
        let mut found = false;
        for &packed in edges.iter() {
            if self.budget == 0 {
                self.exhausted = true;
                break;
            }
            // Cooperative cancellation/deadline poll: one check per
            // contraction (each contraction copies and reduces a full state,
            // so the poll is noise).  A fired signal is an unexplored
            // frontier, same as a spent budget.
            if !self.stop.is_idle() && self.stop.should_stop() {
                self.exhausted = true;
                break;
            }
            self.budget -= 1;
            self.memo_stats.contractions += 1;
            let (a, b) = ((packed >> 16 & 0xFFFF) as usize, (packed & 0xFFFF) as usize);
            self.ensure_depth(depth + 1);
            let (parents, children) = self.states.split_at_mut(depth + 1);
            children[0].copy_from(&parents[depth]);
            children[0].contract(a, b);
            if self.search(ctx, depth + 1) {
                found = true;
                break;
            }
        }
        self.edge_bufs[depth] = edges;
        found
    }

    /// Degree-sequence filter: whether the top `pat.n` degrees of the
    /// quotient at `depth` dominate the pattern's descending degrees.  If not,
    /// no subgraph embedding (and no subdivision) of the pattern exists.
    fn degrees_dominate(&mut self, pat: &PatternData, depth: usize) -> bool {
        let MinorEngine {
            states,
            host_deg_sorted,
            ..
        } = self;
        let st = &states[depth];
        host_deg_sorted.clear();
        host_deg_sorted.extend(st.active_nodes().map(|v| st.deg[v]));
        if host_deg_sorted.len() < pat.n {
            return false;
        }
        // Only the top `pat.n` host degrees matter for dominance: an O(n)
        // selection beats a full sort in the per-state hot path.
        if host_deg_sorted.len() > pat.n {
            host_deg_sorted.select_nth_unstable_by(pat.n - 1, |a, b| b.cmp(a));
        }
        host_deg_sorted[..pat.n].sort_unstable_by(|a, b| b.cmp(a));
        host_deg_sorted[..pat.n]
            .iter()
            .zip(pat.deg_sorted.iter())
            .all(|(hd, pd)| hd >= pd)
    }

    /// Budgeted subgraph-isomorphism check of the pattern against the packed
    /// quotient at `depth`; callers run `degrees_dominate` first.
    fn packed_subiso(&mut self, ctx: &SearchCtx, depth: usize) -> Option<bool> {
        let pat = &ctx.pattern;
        let words = self.states[depth].words;
        self.memo_stats.subiso_checks += 1;

        self.sub_assign.clear();
        self.sub_assign.resize(pat.n, u32::MAX);
        self.sub_used.clear();
        self.sub_used.resize(words, 0);
        let mut budget = SUBISO_BUDGET;
        self.subiso_extend(ctx, depth, 0, &mut budget)
    }

    fn subiso_extend(
        &mut self,
        ctx: &SearchCtx,
        depth: usize,
        placed: usize,
        budget: &mut u64,
    ) -> Option<bool> {
        let pat = &ctx.pattern;
        if placed == pat.n {
            return Some(true);
        }
        if *budget == 0 {
            return None;
        }
        let hv = pat.order[placed] as usize;
        let needed = pat.deg[hv];
        // Every valid image of `hv` must be a host neighbor of each placed
        // pattern-neighbor's image, so when one exists, iterating its image's
        // adjacency row visits exactly the viable candidates — in the same
        // ascending order a full slot scan would, shrinking the scan from
        // `O(n)` to `O(deg)` without changing the explored search tree.
        let anchor = BitIter::new(pat.adj[hv])
            .map(|hu| self.sub_assign[hu])
            .find(|&gu| gu != u32::MAX);
        let (words, n_slots) = {
            let st = &self.states[depth];
            (st.words, st.weight.len())
        };
        for wi in 0..words {
            let base = {
                let st = &self.states[depth];
                match anchor {
                    Some(gu) => st.row(gu as usize)[wi],
                    None => st.active[wi],
                }
            };
            // Placements deeper in the recursion are fully unwound before the
            // scan resumes, so this word snapshot stays valid for the loop.
            let mut word = base & !self.sub_used[wi];
            while word != 0 {
                let gv = wi * WORD_BITS + (word.trailing_zeros() as usize);
                word &= word - 1;
                if gv >= n_slots {
                    break;
                }
                let st = &self.states[depth];
                if !st.is_active(gv) || st.deg[gv] < needed {
                    continue;
                }
                // All already-assigned pattern neighbors must map to host
                // neighbors.
                let ok = BitIter::new(pat.adj[hv]).all(|hu| {
                    let gu = self.sub_assign[hu];
                    gu == u32::MAX || st.has_edge(gv, gu as usize)
                });
                if !ok {
                    continue;
                }
                *budget = budget.saturating_sub(1);
                self.sub_assign[hv] = gv as u32;
                self.sub_used[gv / WORD_BITS] |= 1u64 << (gv % WORD_BITS);
                match self.subiso_extend(ctx, depth, placed + 1, budget) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => {
                        self.sub_assign[hv] = u32::MAX;
                        self.sub_used[gv / WORD_BITS] &= !(1u64 << (gv % WORD_BITS));
                        return None;
                    }
                }
                self.sub_assign[hv] = u32::MAX;
                self.sub_used[gv / WORD_BITS] &= !(1u64 << (gv % WORD_BITS));
            }
        }
        Some(false)
    }
}

/// Immutable per-search context.
struct SearchCtx {
    pattern: PatternData,
    spare_needed: usize,
    /// Delete degree-≤1 nodes in every state (pattern minimum degree ≥ 2).
    del_low: bool,
    /// Suppress degree-2 nodes in every state (pattern minimum degree ≥ 3).
    suppress: bool,
    /// Component count of the root state: an upper bound for every state.
    host_components: usize,
}

/// The forbidden minors featured in the paper, as ready-made graphs.
pub mod forbidden {
    use crate::generators;
    use crate::graph::Graph;

    /// `K4` — forbidden minor for perfectly resilient touring (Lemma 3).
    pub fn k4() -> Graph {
        generators::complete(4)
    }
    /// `K2,3` — forbidden minor for perfectly resilient touring (Lemma 4).
    pub fn k2_3() -> Graph {
        generators::complete_bipartite(2, 3)
    }
    /// `K5^{-1}` — forbidden minor for destination-based routing (Theorem 10).
    pub fn k5_minus1() -> Graph {
        generators::complete_minus(5, 1)
    }
    /// `K3,3^{-1}` — forbidden minor for destination-based routing (Theorem 11).
    pub fn k33_minus1() -> Graph {
        generators::complete_bipartite_minus(3, 3, 1)
    }
    /// `K7^{-1}` — forbidden minor for source–destination routing (Theorem 6).
    pub fn k7_minus1() -> Graph {
        generators::complete_minus(7, 1)
    }
    /// `K4,4^{-1}` — forbidden minor for source–destination routing (Theorem 7).
    pub fn k44_minus1() -> Graph {
        generators::complete_bipartite_minus(4, 4, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{CancelToken, StopSignal};
    use crate::generators;

    #[test]
    fn cancelled_minor_search_returns_unknown_not_a_fabricated_verdict() {
        // Petersen has a K5 minor, but finding it needs contractions; with a
        // pre-cancelled token the engine must wind down with Unknown instead
        // of claiming Yes or No.
        let token = CancelToken::new();
        token.cancel();
        let stop = StopSignal::none().with_cancel(token);
        let mut engine = MinorEngine::new();
        let host = BitGraph::from_graph(&generators::petersen());
        let ans = engine.solve_bit_with_stop(&host, &generators::complete(5), 100_000, &stop);
        assert!(ans.is_unknown());
        // Idle signal: byte-identical to the plain entry point.
        assert!(engine
            .solve_bit_with_stop(
                &host,
                &generators::complete(5),
                100_000,
                &StopSignal::none()
            )
            .is_yes());
    }

    #[test]
    fn subgraph_patterns_are_minors() {
        assert!(has_minor(&generators::complete(5), &generators::complete(4)).is_yes());
        assert!(has_minor(&generators::complete(5), &generators::complete(5)).is_yes());
        assert!(has_minor(&generators::cycle(7), &generators::cycle(7)).is_yes());
        assert!(has_minor(
            &generators::complete_bipartite(3, 3),
            &generators::complete_bipartite(2, 3)
        )
        .is_yes());
    }

    #[test]
    fn contraction_only_minors() {
        // C6 contracts to C3.
        assert!(has_minor(&generators::cycle(6), &generators::complete(3)).is_yes());
        // The Petersen graph famously contains a K5 minor (contract the spokes).
        assert!(has_minor(&generators::petersen(), &generators::complete(5)).is_yes());
        // A 3x3 grid contains K4 as a minor but not as a subgraph: no edge of
        // it lies on a triangle.
        let grid = generators::grid(3, 3);
        let in_triangle = |e: &crate::Edge| grid.neighbors(e.u()).any(|w| grid.has_edge(w, e.v()));
        assert!(!grid.edges().iter().any(in_triangle));
        assert!(has_minor(&grid, &generators::complete(4)).is_yes());
    }

    #[test]
    fn negative_answers_are_exact() {
        // A tree has no cycle minor at all.
        assert!(has_minor(&generators::path(8), &generators::complete(3)).is_no());
        // Outerplanar graphs have no K4 and no K2,3 minors.
        let mop = generators::maximal_outerplanar(8);
        assert!(has_minor(&mop, &forbidden::k4()).is_no());
        assert!(has_minor(&mop, &forbidden::k2_3()).is_no());
        // Planar graphs have no K5 or K3,3 minors.
        let grid = generators::grid(3, 4);
        assert!(has_minor(&grid, &generators::complete(5)).is_no());
        assert!(has_minor(&grid, &generators::complete_bipartite(3, 3)).is_no());
        // C5 has no K4 minor.
        assert!(has_minor(&generators::cycle(5), &forbidden::k4()).is_no());
    }

    #[test]
    fn size_pruning() {
        assert!(has_minor(&generators::complete(3), &generators::complete(4)).is_no());
        assert!(has_minor(&generators::path(3), &generators::path(5)).is_no());
    }

    #[test]
    fn isolated_pattern_nodes_need_spare_host_nodes() {
        // Pattern: a triangle plus an isolated node (4 nodes, 3 edges).
        let mut h = generators::complete(3);
        h.add_node();
        assert!(has_minor(&generators::complete(4), &h).is_yes());
        assert!(has_minor(&generators::complete(3), &h).is_no());
        // Edgeless pattern.
        let h = Graph::new(3);
        assert!(has_minor(&generators::path(3), &h).is_yes());
        assert!(has_minor(&generators::path(2), &h).is_no());
    }

    #[test]
    fn wheel_contains_k4_minor_but_not_k5() {
        let w = generators::wheel(5);
        assert!(has_minor(&w, &forbidden::k4()).is_yes());
        assert!(has_minor(&w, &generators::complete(5)).is_no());
        assert!(has_minor(&w, &forbidden::k2_3()).is_yes());
    }

    #[test]
    fn paper_forbidden_minor_relations() {
        // K7 minus one edge contains K5 minus one edge, and K5 itself.
        let k7m1 = forbidden::k7_minus1();
        assert!(has_minor(&k7m1, &forbidden::k5_minus1()).is_yes());
        assert!(has_minor(&k7m1, &generators::complete(5)).is_yes());
        // K4,4 minus an edge contains K3,3.
        assert!(has_minor(
            &forbidden::k44_minus1(),
            &generators::complete_bipartite(3, 3)
        )
        .is_yes());
        // K5 does not contain K7^{-1} (too few nodes/edges).
        assert!(has_minor(&generators::complete(5), &forbidden::k7_minus1()).is_no());
        // K5 contains K5^{-1} but K5^{-1} does not contain K5.
        assert!(has_minor(&generators::complete(5), &forbidden::k5_minus1()).is_yes());
        assert!(has_minor(&forbidden::k5_minus1(), &generators::complete(5)).is_no());
    }

    #[test]
    fn tiny_budget_yields_unknown_not_wrong_answer() {
        let g = generators::grid(4, 4);
        let ans = has_minor_with_budget(&g, &generators::complete(5), 3);
        assert!(ans.is_unknown() || ans.is_no());
        let ans = has_minor_with_budget(&generators::petersen(), &generators::complete(5), 2);
        assert!(ans.is_unknown() || ans.is_yes());
    }

    #[test]
    fn answer_helpers() {
        assert!(MinorAnswer::Yes.is_yes());
        assert!(MinorAnswer::No.is_no());
        assert!(MinorAnswer::Unknown.is_unknown());
        assert!(!MinorAnswer::Yes.is_no());
    }

    #[test]
    fn engine_is_reusable_across_hosts_and_patterns() {
        let mut engine = MinorEngine::new();
        let hosts = [
            generators::petersen(),
            generators::grid(4, 4),
            generators::complete(7),
            generators::cycle(70),
        ];
        let patterns = [
            forbidden::k4(),
            forbidden::k2_3(),
            forbidden::k5_minus1(),
            generators::complete(5),
        ];
        for g in &hosts {
            let b = BitGraph::from_graph(g);
            for h in &patterns {
                let reused = engine.solve_bit(&b, h, DEFAULT_BUDGET);
                let fresh = MinorEngine::new().solve_bit(&b, h, DEFAULT_BUDGET);
                assert_eq!(reused, fresh, "engine reuse changed a verdict");
            }
        }
    }

    #[test]
    fn memo_stats_track_search_work() {
        let mut engine = MinorEngine::new();
        assert_eq!(engine.memo_stats(), MemoStats::default());
        // Petersen has a K5 minor but no K5 subgraph: the search must
        // contract edges and probe the memo table before succeeding.
        let g = BitGraph::from_graph(&generators::petersen());
        let k5 = generators::complete(5);
        assert!(engine.solve_bit(&g, &k5, 100_000).is_yes());
        let stats = engine.take_memo_stats();
        assert!(stats.contractions > 0);
        assert!(stats.probes > 0);
        assert_eq!(stats.probes, stats.hits + stats.inserts);
        assert!(stats.subiso_checks > 0);
        // take resets; tallies accumulate across solves otherwise.
        assert_eq!(engine.memo_stats(), MemoStats::default());
        assert!(engine.solve_bit(&g, &k5, 100_000).is_yes());
        assert!(engine.solve_bit(&g, &k5, 100_000).is_yes());
        let twice = engine.memo_stats();
        assert_eq!(twice.contractions, 2 * stats.contractions);
        let mut folded = MemoStats::default();
        folded.accumulate(&stats);
        folded.accumulate(&stats);
        assert_eq!(folded.contractions, twice.contractions);
    }

    /// `hubs` pairwise-adjacent hubs; access node `i` is homed to hubs
    /// `i % hubs` and `(i + 1) % hubs`.
    fn hub_and_spoke(hubs: usize, access: usize) -> Graph {
        let mut g = generators::complete(hubs);
        for i in 0..access {
            let a = g.add_node();
            g.add_edge(a, Node(i % hubs));
            g.add_edge(a, Node((i + 1) % hubs));
        }
        g
    }

    #[test]
    fn exact_bounds_settle_searches_without_contracting() {
        // Hub-and-spoke hosts have at most 3 nodes of degree ≥ 3, fewer than
        // the 4 that a K3,3^{-1} subdivision needs; the other hosts have cycle
        // rank below the pattern's (grid 12, wheel 13 < 14 = β(K7^{-1});
        // Petersen 6 < 8 = β(K4,4^{-1})).
        let cases = [
            (
                "hub-and-spoke(3, 30)",
                hub_and_spoke(3, 30),
                forbidden::k33_minus1(),
            ),
            (
                "hub-and-spoke(2, 30)",
                hub_and_spoke(2, 30),
                forbidden::k33_minus1(),
            ),
            ("grid(4, 5)", generators::grid(4, 5), forbidden::k7_minus1()),
            ("wheel(13)", generators::wheel(13), forbidden::k7_minus1()),
            ("petersen", generators::petersen(), forbidden::k44_minus1()),
        ];
        for (name, g, h) in &cases {
            let mut engine = MinorEngine::new();
            let g = BitGraph::from_graph(g);
            assert_eq!(engine.solve_bit(&g, h, 50_000), MinorAnswer::No, "{name}");
            let stats = engine.take_memo_stats();
            assert_eq!(stats.contractions, 0, "{name}");
            assert_eq!(stats.pruned, 1, "{name}");
            assert_eq!(stats.probes, stats.hits + stats.inserts, "{name}");
        }
    }

    #[test]
    fn multi_word_hosts_work() {
        // 70 nodes forces two words per adjacency row.
        let g = generators::cycle(70);
        assert!(has_minor(&g, &generators::complete(3)).is_yes());
        assert!(has_minor(&g, &forbidden::k4()).is_no());
        let mut g = generators::cycle(70);
        // Add chords to create a K4 minor across word boundaries.
        g.add_edge(Node(0), Node(35));
        g.add_edge(Node(17), Node(52));
        assert!(has_minor(&g, &forbidden::k4()).is_yes());
    }
}

//! The allocation-free failure-sweep engine.
//!
//! The paper's verification oracles quantify over all `2^m` failure sets of a
//! graph.  The pre-bitset implementation materialized a fresh `Graph` clone
//! per failure set and a fresh `BTreeSet` of failed neighbors per hop; this
//! module replaces both with a [`SweepEngine`] that holds a [`BitGraph`] of
//! the network plus reusable scratch buffers, and interprets each failure set
//! as a width-generic bitmask overlay (bit `i` ⇒ edge `i` of the ascending
//! [`Graph::edges`] order failed, in the [`crate::mask`] word layout — one
//! `u64` word per 64 links, so ≤ 64-link graphs keep the historical
//! single-word fast path bit for bit):
//!
//! * [`SweepEngine::load_mask`] installs an overlay in `O(|F| + n·w)` word
//!   operations (`w` = words per adjacency row): per-node failed-neighbor
//!   bits/lists and a connected-component decomposition of `G \ F`, all into
//!   scratch reused across masks — no allocation in steady state.  It accepts
//!   any mask shape via [`IntoMaskRef`] (`&u64`, `&[u64]`, [`MaskBuf`]).
//! * [`SweepEngine::toggle_edge`] is the **incremental** path: it patches the
//!   failed-adjacency rows, failed-port words and failed lists of the two
//!   endpoints in `O(w)` and re-derives the component decomposition only as
//!   far as the flipped edge demands — an early-exit alive-BFS bridge test on
//!   removal (components split only if the edge was a bridge), an `O(n)`
//!   relabel on revival (only if the endpoints were in different components).
//!   Driving consecutive Gray-code masks through `toggle_edge` replaces the
//!   per-mask overlay rebuild with one or two edge patches.
//! * [`SweepEngine::route_outcome`] / [`SweepEngine::tour_covers`] run the
//!   exact simulator semantics (same `(node, in-port)` state space, same
//!   fault rules) against the overlay, tracking seen states in a packed
//!   bitset instead of a `HashSet`.
//! * [`SweepEngine::first_undelivered`] is the all-pairs delivery check of
//!   the routing sweeps.  On compiled tables the forwarding for a fixed
//!   `(F, t)` is one function over the `2m + n` `(node, in-port)` states, so
//!   every source's fate is a walk in one shared functional graph: each walk
//!   stops at the first state an earlier source already labelled, and all
//!   states it walked take its outcome.  One labelling pass per destination
//!   replaces `n − 1` independent walks.
//! * [`sweep_find_first`] drives a whole sweep over the canonical
//!   **Gray-code enumeration order** of [`GrayMasks`] (weight-ordered:
//!   smaller failure sets first), sharding the enumeration positions across
//!   `std::thread::scope` workers that claim blocks of positions from a
//!   shared counter.  Each worker loads its engine at the start of a block
//!   that does not continue its last one and otherwise advances by
//!   [`SweepEngine::toggle_edge`] per position.  Workers publish the
//!   smallest hit position through an atomic so later blocks are skipped,
//!   and the merge picks the smallest
//!   position — results are byte-identical to a sequential scan of the Gray
//!   order no matter the thread count.
//!
//! Counterexample *paths* are reconstructed by re-running the plain
//! simulator on the materialized failure set: reconstruction happens at most
//! once per sweep, so the hot loop never builds a path vector.
//!
//! The per-overlay word loops (`alive`-row accumulation, frontier masking)
//! are manually 4-wide unrolled over the word chunks; on one-word graphs the
//! chunked loop body never runs and only the scalar remainder executes, so
//! the `W = 1` path stays as tight as the historical single-`u64` code.

use crate::budget::StopCause;
use crate::compiled::{CompiledPattern, RuleTable};
use crate::failure::{capped_mask_count, FailureSet, GrayMasks};
use crate::mask::{mask_words, IntoMaskRef, MaskBuf, MaskRef};
use crate::model::LocalContext;
use crate::pattern::ForwardingPattern;
use crate::simulator::{state_space_bound, Outcome};
use frr_graph::bitgraph::{BitGraph, BitIter};
use frr_graph::budget::StopSignal;
use frr_graph::{Edge, Graph, Node};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

const WORD_BITS: usize = u64::BITS as usize;

/// `dst[w] |= row[w] & !failed[w]` — the alive-neighbor accumulation of the
/// overlay BFS, manually 4-wide unrolled.  All slices must share a length.
#[inline]
fn or_alive_into(dst: &mut [u64], row: &[u64], failed: &[u64]) {
    debug_assert!(dst.len() == row.len() && dst.len() == failed.len());
    let mut d = dst.chunks_exact_mut(4);
    let mut r = row.chunks_exact(4);
    let mut f = failed.chunks_exact(4);
    for ((d, r), f) in (&mut d).zip(&mut r).zip(&mut f) {
        d[0] |= r[0] & !f[0];
        d[1] |= r[1] & !f[1];
        d[2] |= r[2] & !f[2];
        d[3] |= r[3] & !f[3];
    }
    for ((d, &r), &f) in d
        .into_remainder()
        .iter_mut()
        .zip(r.remainder())
        .zip(f.remainder())
    {
        *d |= r & !f;
    }
}

/// `next &= !visited; visited |= next` — the frontier step of the overlay
/// BFS, manually 4-wide unrolled.  Returns the number of fresh nodes.
#[inline]
fn mask_fresh_and_mark(next: &mut [u64], visited: &mut [u64]) -> u32 {
    debug_assert_eq!(next.len(), visited.len());
    let mut fresh = 0u32;
    let mut n = next.chunks_exact_mut(4);
    let mut v = visited.chunks_exact_mut(4);
    for (n, v) in (&mut n).zip(&mut v) {
        n[0] &= !v[0];
        n[1] &= !v[1];
        n[2] &= !v[2];
        n[3] &= !v[3];
        v[0] |= n[0];
        v[1] |= n[1];
        v[2] |= n[2];
        v[3] |= n[3];
        fresh += n[0].count_ones() + n[1].count_ones() + n[2].count_ones() + n[3].count_ones();
    }
    for (n, v) in n.into_remainder().iter_mut().zip(v.into_remainder()) {
        *n &= !*v;
        *v |= *n;
        fresh += n.count_ones();
    }
    fresh
}

/// Reusable machinery for sweeping failure masks over one graph.
///
/// One engine serves one graph; the parallel driver creates one engine per
/// worker thread.  All mask-dependent queries refer to the most recently
/// installed overlay ([`SweepEngine::load_mask`] or a chain of
/// [`SweepEngine::toggle_edge`] patches).
pub struct SweepEngine<'g> {
    graph: &'g Graph,
    bits: BitGraph,
    edges: Vec<Edge>,
    n: usize,
    /// Words per adjacency row (shared with `bits`).
    words: usize,
    /// Words per failed-port row (`⌈max-degree / 64⌉`).
    port_words: usize,
    /// Words per failure mask (`⌈m / 64⌉`).
    mask_words: usize,
    /// Per edge `i` of the canonical order: the **local port indices** of the
    /// far endpoint at each end (`v`'s rank among `u`'s ascending neighbors
    /// and vice versa) — the bit positions the compiled tables test.
    edge_local: Vec<(u32, u32)>,
    // ---- per-mask scratch (maintained by `load_mask` / `toggle_edge`) ----
    /// The currently installed failure mask.
    cur_mask: MaskBuf,
    /// `n * words` words; bit `u` of node `v`'s row set iff `{u, v}` failed.
    failed_adj: Vec<u64>,
    /// Per-node failed-**port** rows, `port_words` words each (bit `p` ⇒ the
    /// node's `p`-th incident link failed) — word 0 is the aliveness word
    /// the compiled hot loops consume (compilation refuses degree ≥ 64).
    failed_ports: Vec<u64>,
    /// Per-node failed neighbors, sorted ascending (the `LocalContext` view).
    failed_list: Vec<Vec<Node>>,
    /// Nodes whose scratch entries are dirty (bounded by `2·|F|`).
    touched: Vec<usize>,
    /// Component id of each node in `G \ F`.  Ids are **not canonical**: a
    /// toggle-maintained decomposition may label the same partition
    /// differently than a fresh `load_mask` — only id *equality* (see
    /// [`SweepEngine::same_component`]) and [`SweepEngine::component_size`]
    /// are meaningful.
    comp_id: Vec<u32>,
    /// Component size by id (0 for retired ids awaiting reuse).
    comp_size: Vec<u32>,
    /// Retired component ids, reused by splits.
    free_comp: Vec<u32>,
    // ---- per-simulation scratch ----
    /// Packed bitset over the `n · (n + 1)` distinct `(node, in-port)` states.
    seen_states: Vec<u64>,
    /// One label per compiled `(node, in-port-index)` state (the `2m + n`
    /// CSR state ids of [`crate::compiled`]).  A label written in an earlier
    /// epoch reads as unset, so starting a walk or a destination costs one
    /// epoch increment instead of a fill.
    labels: Vec<StateLabel>,
    /// The current labelling epoch (see [`SweepEngine::next_epoch`]).
    epoch: u32,
    /// The compiled state ids of the walk in progress.
    walk: Vec<u32>,
    /// Packed node bitsets for component BFS / tour coverage.
    visit_a: Vec<u64>,
    visit_b: Vec<u64>,
    visit_c: Vec<u64>,
    /// Hot-loop work counters — plain `u64`s, not atomics, so the sweep
    /// loops pay one register increment; flushed to a registry only on cold
    /// paths (see [`SweepStats`]).
    stats: SweepStats,
}

/// A compiled state's label: the epoch that wrote it and the outcome of
/// every walk through it, or `None` while the walk that reached it is still
/// running (meeting such a state again is a forwarding loop).
#[derive(Debug, Clone, Copy, Default)]
struct StateLabel {
    epoch: u32,
    fate: Option<Outcome>,
}

/// What one [`SweepEngine`] did: overlay installs, incremental patches and
/// the simulator queries run against them.
///
/// Counters are plain `u64` fields incremented inline — telemetry here must
/// not put atomics in loops that examine millions of masks per second.  The
/// sweep drivers flush per-worker tallies to the process-wide
/// [`frr_obs::global`] registry when a worker retires (cold), under these
/// names: `sweep.masks_loaded`, `sweep.edges_toggled`, `sweep.bridge_tests`,
/// `sweep.bridges_found`, `sweep.component_merges`, `sweep.routes`,
/// `sweep.hops`, `sweep.tours`, plus the sweep-level `sweep.masks_swept`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Full overlay installs ([`SweepEngine::load_mask`]).
    pub masks_loaded: u64,
    /// Incremental overlay patches ([`SweepEngine::toggle_edge`]).
    pub edges_toggled: u64,
    /// Early-exit alive-BFS bridge tests run by edge-failure toggles.
    pub bridge_tests: u64,
    /// Bridge tests that found a bridge (component actually split).
    pub bridges_found: u64,
    /// Edge revivals that merged two components.
    pub component_merges: u64,
    /// `(source, destination)` pairs decided (`route_outcome`,
    /// `route_outcome_compiled` and each pair `first_undelivered` checks).
    pub routes: u64,
    /// Forwarding decisions those routing queries took.  Labelled walks stop
    /// at states an earlier source already decided, so `hops / routes` is
    /// the walking the labelling leaves.
    pub hops: u64,
    /// Touring simulations (`tour_covers` + `tour_covers_compiled`).
    pub tours: u64,
}

impl SweepStats {
    /// Folds `other` into `self` (plain addition; used by worker merges).
    pub fn accumulate(&mut self, other: &SweepStats) {
        self.masks_loaded += other.masks_loaded;
        self.edges_toggled += other.edges_toggled;
        self.bridge_tests += other.bridge_tests;
        self.bridges_found += other.bridges_found;
        self.component_merges += other.component_merges;
        self.routes += other.routes;
        self.hops += other.hops;
        self.tours += other.tours;
    }

    /// Adds the tallies to `registry` under the `sweep.*` counter names.
    /// One registry interaction per flush — call from cold paths only.
    pub fn flush_to(&self, registry: &frr_obs::Registry) {
        registry.add_counts([
            ("sweep.masks_loaded", self.masks_loaded),
            ("sweep.edges_toggled", self.edges_toggled),
            ("sweep.bridge_tests", self.bridge_tests),
            ("sweep.bridges_found", self.bridges_found),
            ("sweep.component_merges", self.component_merges),
            ("sweep.routes", self.routes),
            ("sweep.hops", self.hops),
            ("sweep.tours", self.tours),
        ]);
    }
}

impl<'g> SweepEngine<'g> {
    /// Builds an engine for `g`.  Any link count is supported; masks are
    /// `⌈m / 64⌉` words wide.
    pub fn new(g: &'g Graph) -> Self {
        let bits = BitGraph::from_graph(g);
        let edges = g.edges();
        let n = g.node_count();
        let words = bits.words_per_row();
        let max_degree = (0..n).map(|v| g.neighbors(Node(v)).count()).max();
        let port_words = max_degree.unwrap_or(0).div_ceil(WORD_BITS).max(1);
        let state_words = (n * (n + 1)).div_ceil(WORD_BITS).max(1);
        let compiled_states = 2 * edges.len() + n;
        let rank =
            |v: Node, u: Node| g.neighbors(v).position(|x| x == u).expect("incident edge") as u32;
        let edge_local = edges
            .iter()
            .map(|e| (rank(e.u(), e.v()), rank(e.v(), e.u())))
            .collect();
        SweepEngine {
            graph: g,
            n,
            words,
            port_words,
            mask_words: mask_words(edges.len()),
            edge_local,
            cur_mask: MaskBuf::for_edges(edges.len()),
            failed_adj: vec![0; n * words],
            failed_ports: vec![0; n * port_words],
            failed_list: vec![Vec::new(); n],
            touched: Vec::with_capacity(n),
            comp_id: vec![0; n],
            comp_size: Vec::with_capacity(n),
            free_comp: Vec::new(),
            seen_states: vec![0; state_words],
            labels: vec![StateLabel::default(); compiled_states],
            epoch: 0,
            walk: Vec::with_capacity(compiled_states),
            visit_a: vec![0; words],
            visit_b: vec![0; words],
            visit_c: vec![0; words],
            stats: SweepStats::default(),
            bits,
            edges,
        }
    }

    /// The engine's work counters since construction (or the last
    /// [`SweepEngine::take_stats`]).
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// Returns the work counters and resets them to zero — the flush
    /// handshake for drivers that tally per-worker engines.
    pub fn take_stats(&mut self) -> SweepStats {
        std::mem::take(&mut self.stats)
    }

    /// The graph the engine sweeps.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The canonical ascending edge order the mask bits index.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of links (mask width in bits).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Mask width in words (`⌈m / 64⌉`, at least 1).
    pub fn mask_width_words(&self) -> usize {
        self.mask_words
    }

    /// The currently installed failure mask.
    pub fn current_mask(&self) -> MaskRef<'_> {
        self.cur_mask.as_mask()
    }

    /// Materializes the [`FailureSet`] of the currently installed overlay.
    pub fn current_failure_set(&self) -> FailureSet {
        FailureSet::from_mask(&self.edges, self.cur_mask.as_mask())
    }

    /// Materializes the [`FailureSet`] a mask denotes.
    ///
    /// Thin wrapper kept for the historical call sites; prefer the canonical
    /// [`FailureSet::from_mask`].
    pub fn failure_set<'m>(&self, mask: impl IntoMaskRef<'m>) -> FailureSet {
        FailureSet::from_mask(&self.edges, mask)
    }

    /// Installs the failure overlay `mask` from scratch and recomputes the
    /// component decomposition of `G \ F`.  Reuses all scratch;
    /// allocation-free in steady state.  Accepts any mask shape via
    /// [`IntoMaskRef`] — pass `&mask` for a historical `u64` mask.
    pub fn load_mask<'m>(&mut self, mask: impl IntoMaskRef<'m>) {
        self.stats.masks_loaded += 1;
        let mask = mask.into_mask_ref();
        // Reset the scratch of the previous mask.
        for &v in &self.touched {
            self.failed_adj[v * self.words..(v + 1) * self.words].fill(0);
            self.failed_ports[v * self.port_words..(v + 1) * self.port_words].fill(0);
            self.failed_list[v].clear();
        }
        self.touched.clear();
        self.cur_mask.clear_all();
        // Install the new overlay; mask bits ascend, so each node's failed
        // list comes out sorted (normalized edges ascend lexicographically).
        for i in mask.iter_ones() {
            debug_assert!(i < self.edges.len(), "mask bit beyond edge count");
            self.cur_mask.set(i);
            let e = self.edges[i];
            let (u, v) = (e.u().index(), e.v().index());
            let (pu, pv) = self.edge_local[i];
            for (a, b, p) in [(u, v, pu as usize), (v, u, pv as usize)] {
                // The bit rows, port words and lists are dirtied together, so
                // an empty list is an exact "node untouched so far" test.
                if self.failed_list[a].is_empty() {
                    self.touched.push(a);
                }
                self.failed_adj[a * self.words + b / WORD_BITS] |= 1u64 << (b % WORD_BITS);
                self.failed_ports[a * self.port_words + p / WORD_BITS] |= 1u64 << (p % WORD_BITS);
                self.failed_list[a].push(Node(b));
            }
        }
        self.recompute_components();
    }

    /// Flips the failure state of edge `edge_index` **incrementally**: the
    /// endpoints' failed-adjacency rows, failed-port words and failed lists
    /// are patched in `O(w)`, and the component decomposition is re-derived
    /// only as far as the flip demands — an early-exit alive-BFS bridge test
    /// when the edge fails (splitting only if it was a bridge of `G \ F`),
    /// an `O(n)` id relabel when it revives across two components.
    ///
    /// Equivalent to reloading the current mask with that bit flipped
    /// (asserted by the differential suite), at a fraction of the cost for
    /// Gray-code mask sequences.
    pub fn toggle_edge(&mut self, edge_index: usize) {
        self.stats.edges_toggled += 1;
        let e = self.edges[edge_index];
        let (u, v) = (e.u().index(), e.v().index());
        let (pu, pv) = self.edge_local[edge_index];
        let now_failed = !self.cur_mask.bit(edge_index);
        self.cur_mask.toggle(edge_index);
        for (a, b, p) in [(u, v, pu as usize), (v, u, pv as usize)] {
            self.failed_adj[a * self.words + b / WORD_BITS] ^= 1u64 << (b % WORD_BITS);
            self.failed_ports[a * self.port_words + p / WORD_BITS] ^= 1u64 << (p % WORD_BITS);
            let list = &mut self.failed_list[a];
            let pos = list.partition_point(|&x| x < Node(b));
            if now_failed {
                if list.is_empty() {
                    self.touched.push(a);
                }
                list.insert(pos, Node(b));
            } else {
                debug_assert_eq!(list.get(pos), Some(&Node(b)));
                list.remove(pos);
                if list.is_empty() {
                    if let Some(t) = self.touched.iter().position(|&x| x == a) {
                        self.touched.swap_remove(t);
                    }
                }
            }
        }
        if now_failed {
            // The edge was alive, so its endpoints share a component; it
            // splits only if the edge was a bridge of G \ F.
            self.split_components(u, v);
        } else {
            self.merge_components(u, v);
        }
    }

    /// `true` if the loaded overlay fails `{u, v}`.
    #[inline]
    pub fn link_failed(&self, u: Node, v: Node) -> bool {
        self.failed_adj[u.index() * self.words + v.index() / WORD_BITS]
            & (1u64 << (v.index() % WORD_BITS))
            != 0
    }

    /// Component id of `v` in `G \ F` (for the loaded overlay).  Ids are
    /// only meaningful for equality against other ids of the **same**
    /// overlay state; a toggle-maintained decomposition may label the same
    /// partition differently than a fresh [`SweepEngine::load_mask`].
    #[inline]
    pub fn component_of(&self, v: Node) -> u32 {
        self.comp_id[v.index()]
    }

    /// Size of `v`'s component in `G \ F`.
    #[inline]
    pub fn component_size(&self, v: Node) -> u32 {
        self.comp_size[self.comp_id[v.index()] as usize]
    }

    /// `true` if `s` and `t` are connected in `G \ F` (O(1) after
    /// [`SweepEngine::load_mask`]).
    #[inline]
    pub fn same_component(&self, s: Node, t: Node) -> bool {
        self.comp_id[s.index()] == self.comp_id[t.index()]
    }

    fn recompute_components(&mut self) {
        let n = self.n;
        self.comp_size.clear();
        self.free_comp.clear();
        if n == 0 {
            return;
        }
        self.comp_id.fill(u32::MAX);
        let words = self.words;
        for start in 0..n {
            if self.comp_id[start] != u32::MAX {
                continue;
            }
            let id = self.comp_size.len() as u32;
            let mut size = 0u32;
            // Word-parallel BFS: visit_a = visited, visit_b = frontier.
            self.visit_a.fill(0);
            self.visit_b.fill(0);
            self.visit_b[start / WORD_BITS] |= 1u64 << (start % WORD_BITS);
            self.visit_a[start / WORD_BITS] |= 1u64 << (start % WORD_BITS);
            loop {
                self.visit_c.fill(0);
                for wi in 0..words {
                    let fw = self.visit_b[wi];
                    for b in BitIter::new(fw) {
                        let v = wi * WORD_BITS + b;
                        self.comp_id[v] = id;
                        size += 1;
                        or_alive_into(
                            &mut self.visit_c,
                            self.bits.row(Node(v)),
                            &self.failed_adj[v * words..(v + 1) * words],
                        );
                    }
                }
                if mask_fresh_and_mark(&mut self.visit_c, &mut self.visit_a) == 0 {
                    break;
                }
                std::mem::swap(&mut self.visit_b, &mut self.visit_c);
            }
            self.comp_size.push(size);
        }
    }

    /// Component maintenance for a newly failed edge `{u, v}` (same
    /// component beforehand): early-exit alive-BFS from `u` towards `v`; if
    /// `v` is unreachable, `u`'s side becomes a fresh component.
    fn split_components(&mut self, u: usize, v: usize) {
        self.stats.bridge_tests += 1;
        debug_assert_eq!(self.comp_id[u], self.comp_id[v]);
        let words = self.words;
        self.visit_a.fill(0);
        self.visit_b.fill(0);
        self.visit_a[u / WORD_BITS] |= 1u64 << (u % WORD_BITS);
        self.visit_b[u / WORD_BITS] |= 1u64 << (u % WORD_BITS);
        let (tw, tb) = (v / WORD_BITS, 1u64 << (v % WORD_BITS));
        let mut size = 1u32;
        loop {
            self.visit_c.fill(0);
            for wi in 0..words {
                let fw = self.visit_b[wi];
                for b in BitIter::new(fw) {
                    let x = wi * WORD_BITS + b;
                    or_alive_into(
                        &mut self.visit_c,
                        self.bits.row(Node(x)),
                        &self.failed_adj[x * words..(x + 1) * words],
                    );
                }
            }
            if self.visit_c[tw] & tb != 0 {
                // Reached the far endpoint: the edge was no bridge, the
                // decomposition stands.
                return;
            }
            let fresh = mask_fresh_and_mark(&mut self.visit_c, &mut self.visit_a);
            if fresh == 0 {
                break;
            }
            size += fresh;
            std::mem::swap(&mut self.visit_b, &mut self.visit_c);
        }
        // Bridge: visit_a holds u's side.  Give it a fresh (possibly
        // recycled) id and shrink the old component.
        self.stats.bridges_found += 1;
        let old = self.comp_id[u] as usize;
        let id = match self.free_comp.pop() {
            Some(id) => id,
            None => {
                self.comp_size.push(0);
                (self.comp_size.len() - 1) as u32
            }
        };
        for wi in 0..words {
            for b in BitIter::new(self.visit_a[wi]) {
                self.comp_id[wi * WORD_BITS + b] = id;
            }
        }
        self.comp_size[id as usize] = size;
        self.comp_size[old] -= size;
    }

    /// Component maintenance for a revived edge `{u, v}`: if the endpoints
    /// were in different components, relabel one side onto the other.
    fn merge_components(&mut self, u: usize, v: usize) {
        let (keep, dead) = (self.comp_id[u], self.comp_id[v]);
        if keep == dead {
            return;
        }
        self.stats.component_merges += 1;
        for id in self.comp_id.iter_mut() {
            if *id == dead {
                *id = keep;
            }
        }
        self.comp_size[keep as usize] += self.comp_size[dead as usize];
        self.comp_size[dead as usize] = 0;
        self.free_comp.push(dead);
    }

    #[inline]
    fn state_index(&self, node: Node, inport: Option<Node>) -> usize {
        node.index() * (self.n + 1) + inport.map_or(0, |u| u.index() + 1)
    }

    /// Inserts a `(node, in-port)` state; `true` if it was new.
    #[inline]
    fn insert_state(&mut self, node: Node, inport: Option<Node>) -> bool {
        let i = self.state_index(node, inport);
        let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        let fresh = self.seen_states[w] & b == 0;
        self.seen_states[w] |= b;
        fresh
    }

    /// Routes one packet under the loaded overlay and returns only the
    /// [`Outcome`] — no path vector, no per-hop allocation.  Semantics are
    /// identical to [`crate::simulator::route`] on the materialized failure
    /// set (asserted by the differential test-suite).
    pub fn route_outcome<P: ForwardingPattern + ?Sized>(
        &mut self,
        pattern: &P,
        source: Node,
        destination: Node,
        max_hops: usize,
    ) -> Outcome {
        self.stats.routes += 1;
        if source == destination {
            return Outcome::Delivered;
        }
        self.seen_states.fill(0);
        let mut current = source;
        let mut inport: Option<Node> = None;
        self.insert_state(current, inport);
        let mut hops = 0usize;
        loop {
            if hops >= max_hops {
                return Outcome::HopLimit;
            }
            self.stats.hops += 1;
            let ctx = LocalContext {
                node: current,
                inport,
                source,
                destination,
                failed_neighbors: &self.failed_list[current.index()],
                graph: self.graph,
            };
            let next = match pattern.next_hop(&ctx) {
                Some(n) => n,
                None => return Outcome::Stuck,
            };
            if !self.bits.has_edge(current, next) || self.link_failed(current, next) {
                return Outcome::Stuck;
            }
            inport = Some(current);
            current = next;
            hops += 1;
            if current == destination {
                return Outcome::Delivered;
            }
            if !self.insert_state(current, inport) {
                return Outcome::Loop;
            }
        }
    }

    /// Simulates the touring model under the loaded overlay and returns
    /// whether the walk covered `start`'s entire component in `G \ F`
    /// (the `covered_component` field of [`crate::simulator::tour`]).
    pub fn tour_covers<P: ForwardingPattern + ?Sized>(
        &mut self,
        pattern: &P,
        start: Node,
        max_hops: usize,
    ) -> bool {
        self.stats.tours += 1;
        // Track how many component members remain unvisited; visit_a doubles
        // as the visited-node bitset.
        let mut remaining = self.component_size(start) - 1;
        if remaining == 0 {
            return true;
        }
        self.seen_states.fill(0);
        self.visit_a.fill(0);
        self.visit_a[start.index() / WORD_BITS] |= 1u64 << (start.index() % WORD_BITS);
        let mut current = start;
        let mut inport: Option<Node> = None;
        self.insert_state(current, inport);
        let mut hops = 0usize;
        loop {
            if hops >= max_hops {
                return false;
            }
            let ctx = LocalContext {
                node: current,
                inport,
                // The touring model has no header; see `simulator::tour`.
                source: start,
                destination: start,
                failed_neighbors: &self.failed_list[current.index()],
                graph: self.graph,
            };
            let next = match pattern.next_hop(&ctx) {
                Some(n) => n,
                None => return false,
            };
            if !self.bits.has_edge(current, next) || self.link_failed(current, next) {
                return false;
            }
            inport = Some(current);
            current = next;
            hops += 1;
            let (w, b) = (
                current.index() / WORD_BITS,
                1u64 << (current.index() % WORD_BITS),
            );
            if self.visit_a[w] & b == 0 {
                self.visit_a[w] |= b;
                if self.same_component(current, start) {
                    remaining -= 1;
                    if remaining == 0 {
                        return true;
                    }
                }
            }
            if !self.insert_state(current, inport) {
                return false;
            }
        }
    }

    /// Starts a fresh labelling epoch: every compiled-state label written
    /// before now reads as unset.  The stamps are reset only when the `u32`
    /// counter wraps.
    #[inline]
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.labels.fill(StateLabel::default());
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks compiled state `state` as on the walk in progress; `false` if
    /// the current epoch already marked it.
    #[inline]
    fn mark_state(&mut self, state: usize) -> bool {
        let epoch = self.epoch;
        let label = &mut self.labels[state];
        let fresh = label.epoch != epoch;
        *label = StateLabel { epoch, fate: None };
        fresh
    }

    /// The single failed-port word of node `v` the compiled tables test.
    /// Compilation refuses nodes of degree ≥ 64, so word 0 of the node's
    /// failed-port row is the complete picture on every compiled path.
    #[inline]
    fn failed_port_word(&self, v: usize) -> u64 {
        self.failed_ports[v * self.port_words]
    }

    /// Walks a packet from `source` towards `destination` on compiled
    /// `table`, within the current epoch, and labels every state it walked
    /// with the outcome.  The walk ends on delivery, a drop, the hop limit,
    /// a state of its own walk (a loop), or a state an earlier walk of the
    /// same epoch labelled — whose outcome it then shares, because the
    /// forwarding from a state does not depend on how the packet got there.
    ///
    /// `source != destination`.
    fn labelled_walk(
        &mut self,
        cp: &CompiledPattern,
        table: &RuleTable,
        source: usize,
        destination: usize,
        max_hops: usize,
    ) -> Outcome {
        let csr = cp.csr();
        let epoch = self.epoch;
        let mut v = source;
        let mut inport_idx = csr.degree(v);
        self.walk.clear();
        let outcome = loop {
            let state = (csr.state_base(v) + inport_idx) as usize;
            let label = self.labels[state];
            if label.epoch == epoch {
                break label.fate.unwrap_or(Outcome::Loop);
            }
            // Every walked state took one hop onwards.
            if self.walk.len() >= max_hops {
                break Outcome::HopLimit;
            }
            self.labels[state] = StateLabel { epoch, fate: None };
            self.walk.push(state as u32);
            let port = match cp.decide(table, v, inport_idx, self.failed_port_word(v)) {
                Some(p) => p as usize,
                None => break Outcome::Stuck,
            };
            v = csr.port_target(port);
            inport_idx = csr.reverse_port(port);
            if v == destination {
                break Outcome::Delivered;
            }
        };
        self.stats.hops += self.walk.len() as u64;
        for &state in &self.walk {
            self.labels[state as usize].fate = Some(outcome);
        }
        outcome
    }

    /// [`SweepEngine::route_outcome`] on compiled rule tables: the hot loop
    /// is a state-id lookup, a first-alive scan against the node's failed-
    /// port mask and two array reads per hop — no dynamic dispatch, no
    /// neighbor re-derivation, no allocation.  Byte-identical outcomes to the
    /// interpreted path (the compiled tables replicate `next_hop` exactly).
    ///
    /// `cp` must be compiled for this engine's graph.
    pub fn route_outcome_compiled(
        &mut self,
        cp: &CompiledPattern,
        source: Node,
        destination: Node,
        max_hops: usize,
    ) -> Outcome {
        self.stats.routes += 1;
        debug_assert!(cp.matches_shape(self.n, self.edges.len()));
        if source == destination {
            return Outcome::Delivered;
        }
        self.next_epoch();
        let table = cp.table(source, destination);
        self.labelled_walk(cp, table, source.index(), destination.index(), max_hops)
    }

    /// The earliest pair `(s, t)`, in source-major, destination-minor order
    /// with `t` drawn from `destinations`, that is connected in `G \ F` but
    /// whose packet is not delivered under the loaded overlay — `None` if
    /// every connected pair delivers.  This is the all-pairs check of the
    /// routing sweeps; the outcome of a pair is exactly that of
    /// [`SweepEngine::route_outcome`] with the state-space hop bound.
    ///
    /// On compiled tables each destination gets one labelling epoch: the
    /// sources walk in ascending order and each stops at the first state an
    /// earlier source already decided (see the module docs), so a
    /// destination costs `O(2m + n)` forwarding decisions, not one walk per
    /// source.  Source–destination tables differ per source, so there every
    /// pair gets its own epoch — plain loop detection on the same walk.
    /// Once a failing pair `(s*, t*)` is known, later destinations only
    /// check sources below `s*`.  Without tables (`compiled` is `None`)
    /// each pair runs the interpreted [`SweepEngine::route_outcome`].
    pub fn first_undelivered<P: ForwardingPattern + ?Sized>(
        &mut self,
        compiled: Option<&CompiledPattern>,
        pattern: &P,
        destinations: Range<usize>,
    ) -> Option<(Node, Node)> {
        let n = self.n;
        let max_hops = state_space_bound(self.graph);
        let Some(cp) = compiled else {
            for s in (0..n).map(Node) {
                for t in destinations.clone().map(Node) {
                    if s != t
                        && self.same_component(s, t)
                        && !self.route_outcome(pattern, s, t, max_hops).is_delivered()
                    {
                        return Some((s, t));
                    }
                }
            }
            return None;
        };
        debug_assert!(cp.matches_shape(n, self.edges.len()));
        // A walk revisits a state before it can exceed the hop bound, so no
        // labelled walk ends in `HopLimit`.
        debug_assert!(cp.csr().state_count() < max_hops);
        let per_pair = cp.tables_per_pair();
        let mut first: Option<(Node, Node)> = None;
        for t in destinations {
            // Later destinations come after `first` for every source but
            // the ones below it.
            let sources = first.map_or(n, |(s, _)| s.index());
            if !per_pair {
                self.next_epoch();
            }
            for s in 0..sources {
                if s == t || !self.same_component(Node(s), Node(t)) {
                    continue;
                }
                self.stats.routes += 1;
                if per_pair {
                    self.next_epoch();
                }
                let table = cp.table(Node(s), Node(t));
                if self.labelled_walk(cp, table, s, t, max_hops) != Outcome::Delivered {
                    first = Some((Node(s), Node(t)));
                    break;
                }
            }
        }
        first
    }

    /// [`SweepEngine::tour_covers`] on compiled rule tables.
    pub fn tour_covers_compiled(
        &mut self,
        cp: &CompiledPattern,
        start: Node,
        max_hops: usize,
    ) -> bool {
        self.stats.tours += 1;
        debug_assert!(cp.matches_shape(self.n, self.edges.len()));
        let mut remaining = self.component_size(start) - 1;
        if remaining == 0 {
            return true;
        }
        self.next_epoch();
        self.visit_a.fill(0);
        self.visit_a[start.index() / WORD_BITS] |= 1u64 << (start.index() % WORD_BITS);
        let csr = cp.csr();
        let table = cp.table(start, start);
        let mut v = start.index();
        let mut inport_idx = csr.degree(v);
        self.mark_state((csr.state_base(v) + inport_idx) as usize);
        let mut hops = 0usize;
        loop {
            if hops >= max_hops {
                return false;
            }
            let port = match cp.decide(table, v, inport_idx, self.failed_port_word(v)) {
                Some(p) => p as usize,
                None => return false,
            };
            v = csr.port_target(port);
            inport_idx = csr.reverse_port(port);
            hops += 1;
            let (w, b) = (v / WORD_BITS, 1u64 << (v % WORD_BITS));
            if self.visit_a[w] & b == 0 {
                self.visit_a[w] |= b;
                if self.same_component(Node(v), start) {
                    remaining -= 1;
                    if remaining == 0 {
                        return true;
                    }
                }
            }
            if !self.mark_state((csr.state_base(v) + inport_idx) as usize) {
                return false;
            }
        }
    }
}

/// The terminal event of one sharded search: the earliest probe that hit
/// (`Hit`) or panicked (`Panic`).  Panics participate in the same
/// earliest-position merge as hits — a sequential scan would have reached
/// the earlier event first, whichever kind it is.
#[derive(Debug)]
pub(crate) enum ShardEvent<T> {
    /// The probe returned `Some`.
    Hit(T),
    /// The probe panicked; the payload message is preserved.
    Panic(String),
}

/// What a controlled sharded search observed.
#[derive(Debug)]
pub(crate) struct ShardOutcome<T> {
    /// The earliest-position event, if any probe hit or panicked.
    pub event: Option<(u64, ShardEvent<T>)>,
    /// Total probe invocations across all workers (masks/trials examined).
    pub probes: u64,
    /// Whether any worker wound down because the stop signal fired.
    pub stopped: bool,
}

/// Extracts a printable message from a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The machine's core count, read once: `available_parallelism` reads the
/// cgroup quota files on every call, and a sweep of a small graph is short
/// enough for that I/O to show.
fn cores() -> u64 {
    static CORES: OnceLock<u64> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
}

/// Deterministic sharded first-hit search over the index range `0..total`,
/// with cooperative stopping and panic isolation.
///
/// The workers — the calling thread plus `std::thread::scope` threads, each
/// with its own worker-local state from `init` (a sweep engine, a scratch
/// buffer, …) — claim blocks of `poll_interval` consecutive indices from a
/// shared counter until the range runs out, so a worker on a busier core
/// simply claims fewer blocks.  A worker's indices therefore ascend, with
/// gaps where others worked.  Each worker reports its first `Some` as
/// `(index, value)`; the merge keeps the smallest index, so the result is
/// byte-identical to a sequential ascending scan at any thread count —
/// **provided `probe` is a pure function of `(state-as-initialized,
/// index)`** up to observable results, i.e. any state the probe result
/// depends on is a deterministic function of the index (the sweep states
/// below advance monotonically through enumeration positions and reload
/// after a gap, which satisfies this).  A shared atomic of the best index
/// lets workers skip blocks past it (checked at every claim); that is an
/// optimization, never a correctness input.
///
/// Robustness properties layered on top of the deterministic merge:
///
/// * **Cooperative stopping** — `stop` is polled at every claim, i.e.
///   every `poll_interval` indices (same cadence as the best-index check).
///   When it fires, every worker winds down at its next claim and the
///   outcome records
///   `stopped`; an idle signal is checked once up front and costs the hot
///   loop nothing, keeping unbudgeted runs byte- and cycle-identical.
/// * **Panic isolation** — every probe runs under `catch_unwind`.  A
///   panicking probe becomes a [`ShardEvent::Panic`] at its index,
///   participates in the earliest-position merge exactly like a hit (so the
///   reported panic is the one a sequential scan would have tripped first),
///   and makes sibling workers stop early through the shared best index.
///   The worker's state is dropped without reuse after a panic — a
///   half-updated engine overlay is never probed again.
///
/// Runs sequentially when the machine has one core or the range is smaller
/// than `min_chunk` per worker; the sequential path performs the identical
/// stop checks and panic capture.
pub(crate) fn sharded_first_controlled<S, T, I, F>(
    total: u64,
    min_chunk: u64,
    poll_interval: u64,
    stop: &StopSignal,
    init: I,
    probe: F,
) -> ShardOutcome<T>
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> Option<T> + Sync,
{
    let stop_active = !stop.is_idle();
    let workers = cores().min(total / min_chunk.max(1)).max(1);
    if workers <= 1 {
        let mut state = init();
        let mut probes = 0u64;
        for i in 0..total {
            if stop_active && i % poll_interval == 0 && stop.should_stop() {
                return ShardOutcome {
                    event: None,
                    probes,
                    stopped: true,
                };
            }
            probes += 1;
            match catch_unwind(AssertUnwindSafe(|| probe(&mut state, i))) {
                Ok(None) => {}
                Ok(Some(t)) => {
                    return ShardOutcome {
                        event: Some((i, ShardEvent::Hit(t))),
                        probes,
                        stopped: false,
                    }
                }
                Err(payload) => {
                    return ShardOutcome {
                        event: Some((i, ShardEvent::Panic(panic_message(payload)))),
                        probes,
                        stopped: false,
                    }
                }
            }
        }
        return ShardOutcome {
            event: None,
            probes,
            stopped: false,
        };
    }

    let best = AtomicU64::new(u64::MAX);
    let total_probes = AtomicU64::new(0);
    let any_stopped = AtomicBool::new(false);
    let next = AtomicU64::new(0);
    let run = || {
        let mut state = init();
        let mut probes = 0u64;
        let mut event = None;
        'claims: loop {
            let lo = next.fetch_add(poll_interval, Ordering::Relaxed);
            // Past the range, or a strictly smaller index already has an
            // event: no index of this block can win the merge.
            if lo >= total || best.load(Ordering::Relaxed) < lo {
                break;
            }
            if stop_active && (any_stopped.load(Ordering::Relaxed) || stop.should_stop()) {
                any_stopped.store(true, Ordering::Relaxed);
                break;
            }
            for i in lo..lo.saturating_add(poll_interval).min(total) {
                probes += 1;
                match catch_unwind(AssertUnwindSafe(|| probe(&mut state, i))) {
                    Ok(None) => {}
                    Ok(Some(t)) => {
                        best.fetch_min(i, Ordering::Relaxed);
                        event = Some((i, ShardEvent::Hit(t)));
                        break 'claims;
                    }
                    Err(payload) => {
                        best.fetch_min(i, Ordering::Relaxed);
                        event = Some((i, ShardEvent::Panic(panic_message(payload))));
                        break 'claims;
                    }
                }
            }
        }
        total_probes.fetch_add(probes, Ordering::Relaxed);
        event
    };
    // The calling thread is one of the workers: one thread fewer to start
    // and wake per search.
    let events: Vec<Option<(u64, ShardEvent<T>)>> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run)).collect();
        let first = run();
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            }))
            .collect()
    });
    ShardOutcome {
        event: events.into_iter().flatten().min_by_key(|&(i, _)| i),
        probes: total_probes.load(Ordering::Relaxed),
        stopped: any_stopped.load(Ordering::Relaxed),
    }
}

/// [`sharded_first_controlled`] without stopping or panic recovery: the
/// historical interface.  A probe panic is re-raised on the calling thread
/// (after sibling shards have wound down cleanly) so unbudgeted callers keep
/// their fail-fast semantics.
pub(crate) fn sharded_first<S, T, I, F>(
    total: u64,
    min_chunk: u64,
    poll_interval: u64,
    init: I,
    probe: F,
) -> Option<T>
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> Option<T> + Sync,
{
    let outcome = sharded_first_controlled(
        total,
        min_chunk,
        poll_interval,
        &StopSignal::none(),
        init,
        probe,
    );
    match outcome.event {
        Some((_, ShardEvent::Hit(t))) => Some(t),
        Some((i, ShardEvent::Panic(msg))) => {
            panic!("sharded worker panicked at index {i}: {msg}")
        }
        None => None,
    }
}

/// Probe work, in `(source, destination)` pairs, that one sweep worker must
/// carry before a second worker pays for its start-up.  On 2 cores the zoo's
/// r = 1 audit ran fastest at `2^14` of `2^12`, `2^14` and `2^16`; `2^12`
/// also splits sweeps as small as the 21-node, 26-mask Arpanet1972 one.
const SHARD_WORK_PAIRS: u64 = 1 << 14;

/// Probe work, in pairs, between two polls of the shared best index and the
/// stop signal.
const POLL_WORK_PAIRS: u64 = 1 << 10;

/// `(min_chunk, poll_interval)` in masks for sweeping an `n`-node graph.
///
/// A mask's probe decides up to `n²` pairs, so the masks a worker needs
/// shrink as the graph grows: tiny graphs keep thousands of masks per
/// worker, while an r = 1 sweep of a zoo network — at most `m + 1` masks,
/// each routing every connected pair — still splits across the cores.
/// Once a single mask carries [`POLL_WORK_PAIRS`] of work, workers poll
/// after every mask, so a sibling's early hit stops them quickly.
fn shard_sizes(n: usize) -> (u64, u64) {
    let per_mask = (n as u64 * n as u64).max(1);
    (
        (SHARD_WORK_PAIRS / per_mask).max(1),
        (POLL_WORK_PAIRS / per_mask).max(1),
    )
}

/// Runs `check` over every failure mask of `g` (optionally popcount-capped)
/// in the canonical **Gray-code enumeration order** of [`GrayMasks`]
/// (weight-ordered: smaller failure sets first) and returns the result for
/// the **earliest** position for which it returns `Some` — byte-identical
/// to a sequential scan of that order at any thread count.
///
/// The driver owns the engine's overlay: before each `check` call the
/// engine holds the position's mask, installed either by a one-time
/// [`SweepEngine::load_mask`] at the worker's range start or by
/// [`SweepEngine::toggle_edge`] patches along the Gray sequence.  `check`
/// reads the overlay (via `current_mask` / `current_failure_set` and the
/// routing queries) and must not reload it.
///
/// Sharding across `std::thread::scope` workers (each with its own
/// [`SweepEngine`] and enumerator) splits the enumeration *positions*
/// contiguously; each worker advances its enumerator lazily to its range.
/// Small ranges and single-core machines degrade to a plain sequential
/// scan.
pub fn sweep_find_first<T, F>(g: &Graph, max_failures: Option<usize>, check: F) -> Option<T>
where
    T: Send,
    F: Fn(&mut SweepEngine<'_>) -> Option<T> + Sync,
{
    match sweep_find_first_budgeted(g, max_failures, None, &StopSignal::none(), check).end {
        SweepEnd::Found(t) => Some(t),
        SweepEnd::Exhausted => None,
        SweepEnd::Stopped(cause) => unreachable!("unbudgeted sweep stopped: {cause}"),
        SweepEnd::Panicked { position, message } => {
            panic!("sweep worker panicked at enumeration position {position}: {message}")
        }
    }
}

/// How a budgeted sweep ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepEnd<T> {
    /// The earliest position whose `check` returned `Some`.
    Found(T),
    /// Every mask in the (possibly popcount-capped) space was examined and
    /// none hit — the only end that proves anything.
    Exhausted,
    /// The sweep stopped early: deadline, cancellation, or mask budget.
    Stopped(StopCause),
    /// A `check` call panicked at this enumeration position; sibling shards
    /// wound down cleanly.  Recover the mask with [`failure_set_at`].
    Panicked {
        /// Gray enumeration position of the panicking probe.
        position: u64,
        /// The panic payload, when it was a string.
        message: String,
    },
}

/// The outcome of a budgeted sweep plus how far it got.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport<T> {
    /// How the sweep ended.
    pub end: SweepEnd<T>,
    /// Probe invocations across all workers.  Sharded workers each examine
    /// their own range, so after an early end this can exceed the earliest
    /// event's position (work beyond it ran concurrently, then aborted).
    pub masks_examined: u64,
    /// Largest failure-set weight any worker's enumerator reached.
    pub max_weight: usize,
}

/// The failure set at a Gray enumeration `position` of `g`'s sweep space
/// (popcount-capped by `max_failures`), or `None` past the end.  Used to
/// reconstruct the offending mask of a [`SweepEnd::Panicked`] report;
/// costs one enumerator replay to `position`.
pub fn failure_set_at(g: &Graph, max_failures: Option<usize>, position: u64) -> Option<FailureSet> {
    let m = g.edge_count();
    let cap = max_failures.map(|k| k.min(m));
    let mut masks = GrayMasks::with_max_failures(m, cap);
    for _ in 0..=position {
        if !masks.advance() {
            return None;
        }
    }
    Some(FailureSet::from_mask(&g.edges(), masks.current()))
}

/// The fully controlled sweep: [`sweep_find_first`]'s enumeration plus an
/// optional budget on the number of enumerated masks (only the first
/// `mask_budget` masks in Gray order, so smallest failure sets first),
/// cooperative stopping and panic isolation, reporting *how* the sweep
/// ended and how far it got instead of a bare `Option`.
///
/// * `stop` is polled at the sharded search's poll cadence (about every
///   `POLL_WORK_PAIRS` pairs of probe work, at least once per mask); an
///   idle signal is checked once and adds nothing to the hot loop, so
///   unbudgeted callers get byte-identical results to [`sweep_find_first`].
/// * A `check` panic surfaces as [`SweepEnd::Panicked`] with the earliest
///   panicking position (deterministic merge, same rule as hits) while
///   sibling shards abort early.
/// * `masks_examined` / `max_weight` feed the `Progress` report of
///   [`crate::resilience::check`].
pub fn sweep_find_first_budgeted<T, F>(
    g: &Graph,
    max_failures: Option<usize>,
    mask_budget: Option<u64>,
    stop: &StopSignal,
    check: F,
) -> SweepReport<T>
where
    T: Send,
    F: Fn(&mut SweepEngine<'_>) -> Option<T> + Sync,
{
    let m = g.edge_count();
    let cap = max_failures.map(|k| k.min(m));
    let full = capped_mask_count(m, cap.unwrap_or(m)).clamp_u64();
    let total = full.min(mask_budget.unwrap_or(u64::MAX));
    let clipped = total < full;
    let (min_chunk, poll) = shard_sizes(g.node_count());
    struct SweepState<'g> {
        engine: SweepEngine<'g>,
        masks: GrayMasks,
        /// Where this worker's engine tallies land when it retires.
        stats_sink: &'g frr_obs::Registry,
        /// Number of masks emitted so far (the enumerator sits on position
        /// `pos - 1`).
        pos: u64,
        /// Whether the engine overlay tracks the enumerator (true from the
        /// worker's first in-range position on).
        synced: bool,
        /// Popcount of the enumerator's current mask (weight blocks ascend,
        /// so this is also the largest weight this worker has reached).
        weight: usize,
    }
    impl Drop for SweepState<'_> {
        // Flush on drop so every exit — hit, exhaustion, early abort, probe
        // panic — still accounts the worker's sweep work.  One registry
        // interaction per worker lifetime: cold by construction.
        fn drop(&mut self) {
            self.engine.take_stats().flush_to(self.stats_sink);
        }
    }
    let max_weight = AtomicU64::new(0);
    let registry = frr_obs::global();
    let outcome = sharded_first_controlled(
        total,
        min_chunk,
        poll,
        stop,
        || SweepState {
            engine: SweepEngine::new(g),
            masks: GrayMasks::with_max_failures(m, cap),
            stats_sink: registry,
            pos: 0,
            synced: false,
            weight: 0,
        },
        |state, i| {
            if i != state.pos {
                // Other workers swept the positions in between: the engine
                // reloads at `i` instead of replaying their flips.
                state.synced = false;
            }
            while state.pos <= i {
                if !state.masks.advance() {
                    return None;
                }
                state.pos += 1;
                if state.pos == i + 1 {
                    // This emission is position `i`: bring the engine up to
                    // date — incrementally when it already tracks the
                    // sequence, by a full load at the worker's range start.
                    if state.synced {
                        let flips = state.masks.last_flips();
                        if flips.len() == 1 {
                            // Weight-boundary step: one added edge.
                            state.weight += 1;
                            max_weight.fetch_max(state.weight as u64, Ordering::Relaxed);
                        }
                        for &f in flips {
                            state.engine.toggle_edge(f as usize);
                        }
                    } else {
                        state.engine.load_mask(state.masks.current());
                        state.synced = true;
                        state.weight = state.masks.current().count_ones() as usize;
                        max_weight.fetch_max(state.weight as u64, Ordering::Relaxed);
                    }
                }
            }
            check(&mut state.engine)
        },
    );
    let end = match outcome.event {
        Some((_, ShardEvent::Hit(t))) => SweepEnd::Found(t),
        Some((position, ShardEvent::Panic(message))) => SweepEnd::Panicked { position, message },
        None if outcome.stopped => SweepEnd::Stopped(if stop.cancelled() {
            StopCause::Cancelled
        } else {
            StopCause::Deadline
        }),
        None if clipped => SweepEnd::Stopped(StopCause::WorkBudget),
        None => SweepEnd::Exhausted,
    };
    registry.counter("sweep.masks_swept").add(outcome.probes);
    SweepReport {
        end,
        masks_examined: outcome.probes,
        max_weight: max_weight.load(Ordering::Relaxed) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureMasks;
    use crate::pattern::{RotorPattern, ShortestPathPattern};
    use crate::simulator::{route, state_space_bound, tour};
    use frr_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Gray enumeration materialized as `u64` masks (test widths ≤ 64).
    fn gray_order(m: usize, k: Option<usize>) -> Vec<u64> {
        let mut gray = GrayMasks::with_max_failures(m, k);
        let mut out = Vec::new();
        while gray.advance() {
            out.push(gray.current().as_u64().expect("test widths fit u64"));
        }
        out
    }

    #[test]
    fn overlay_matches_materialized_failure_sets() {
        let g = generators::complete(5);
        let mut engine = SweepEngine::new(&g);
        let edges = engine.edges().to_vec();
        assert_eq!(edges, g.edges());
        for mask in [0u64, 0b1, 0b1010, 0b1111111111] {
            engine.load_mask(&mask);
            assert_eq!(engine.current_mask().as_u64(), Some(mask));
            let failures = engine.current_failure_set();
            assert_eq!(failures, engine.failure_set(&mask));
            for e in &edges {
                assert_eq!(engine.link_failed(e.u(), e.v()), failures.contains_edge(*e));
                assert_eq!(engine.link_failed(e.v(), e.u()), failures.contains_edge(*e));
            }
            let surviving = failures.surviving_graph(&g);
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        engine.same_component(s, t),
                        frr_graph::connectivity::same_component(&surviving, s, t),
                        "mask {mask:#b}, pair {s}-{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn component_sizes_are_consistent() {
        let g = generators::cycle(6);
        let mut engine = SweepEngine::new(&g);
        // Fail links {0,1} and {3,4}: components {1,2,3} and {4,5,0}.
        let edges = engine.edges().to_vec();
        let mask = edges
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                [(0usize, 1usize), (3, 4)]
                    .iter()
                    .any(|&(a, b)| **e == Edge::new(Node(a), Node(b)))
            })
            .fold(0u64, |m, (i, _)| m | 1 << i);
        engine.load_mask(&mask);
        assert!(engine.same_component(Node(1), Node(3)));
        assert!(!engine.same_component(Node(1), Node(4)));
        assert_eq!(engine.component_size(Node(1)), 3);
        assert_eq!(engine.component_size(Node(0)), 3);
    }

    #[test]
    fn sweep_stats_count_engine_work() {
        // cycle(5) edges ascend: {0,1},{0,4},{1,2},{2,3},{3,4}.
        let g = generators::cycle(5);
        let mut engine = SweepEngine::new(&g);
        assert_eq!(engine.stats(), SweepStats::default());
        engine.load_mask(&0u64);
        // Failing {0,1} leaves the cycle connected: a bridge test, no split.
        engine.toggle_edge(0);
        // Failing {0,4} too isolates node 0: this one splits.
        engine.toggle_edge(1);
        // Reviving {0,1} merges the components back.
        engine.toggle_edge(0);
        let stats = engine.take_stats();
        assert_eq!(stats.masks_loaded, 1);
        assert_eq!(stats.edges_toggled, 3);
        assert_eq!(stats.bridge_tests, 2);
        assert_eq!(stats.bridges_found, 1);
        assert_eq!(stats.component_merges, 1);
        // take_stats resets; accumulate folds.
        assert_eq!(engine.stats(), SweepStats::default());
        let mut total = SweepStats::default();
        total.accumulate(&stats);
        total.accumulate(&stats);
        assert_eq!(total.edges_toggled, 6);
        // Flushing lands under the sweep.* counter names.
        let reg = frr_obs::Registry::new();
        stats.flush_to(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sweep.edges_toggled"), Some(3));
        assert_eq!(snap.counter("sweep.bridge_tests"), Some(2));
    }

    #[test]
    fn budgeted_sweep_flushes_worker_stats_globally() {
        let g = generators::cycle(6);
        let before = frr_obs::global()
            .snapshot()
            .counter("sweep.masks_swept")
            .unwrap_or(0);
        let report = sweep_find_first_budgeted(&g, Some(2), None, &StopSignal::none(), |_| {
            Option::<()>::None
        });
        assert_eq!(report.end, SweepEnd::Exhausted);
        let after = frr_obs::global()
            .snapshot()
            .counter("sweep.masks_swept")
            .unwrap_or(0);
        // Sibling tests may sweep concurrently (shared global registry), so
        // only a lower bound is assertable.
        assert!(report.masks_examined > 0);
        assert!(after - before >= report.masks_examined);
    }

    #[test]
    fn toggle_edge_matches_full_reload() {
        // Random toggle walks: after every toggle, the engine must be
        // observationally identical to a fresh engine loading the same mask.
        let mut rng = StdRng::seed_from_u64(0x7061);
        for (gi, g) in [
            generators::cycle(6),
            generators::complete(5),
            generators::petersen(),
            generators::random_connected(8, 4, &mut StdRng::seed_from_u64(3)),
        ]
        .iter()
        .enumerate()
        {
            let m = g.edge_count();
            let mut inc = SweepEngine::new(g);
            let mut reference = SweepEngine::new(g);
            inc.load_mask(&0u64);
            let mut mask = 0u64;
            for step in 0..200 {
                let bit = rng.gen_range(0..m);
                mask ^= 1u64 << bit;
                inc.toggle_edge(bit);
                reference.load_mask(&mask);
                assert_eq!(inc.current_mask().as_u64(), Some(mask));
                for e in inc.edges().to_vec() {
                    assert_eq!(
                        inc.link_failed(e.u(), e.v()),
                        reference.link_failed(e.u(), e.v())
                    );
                }
                for s in g.nodes() {
                    assert_eq!(
                        inc.component_size(s),
                        reference.component_size(s),
                        "graph {gi}, step {step}, mask {mask:#b}, node {s}"
                    );
                    for t in g.nodes() {
                        assert_eq!(
                            inc.same_component(s, t),
                            reference.same_component(s, t),
                            "graph {gi}, step {step}, mask {mask:#b}, pair {s}-{t}"
                        );
                    }
                }
                assert_eq!(inc.current_failure_set(), reference.current_failure_set());
            }
        }
    }

    #[test]
    fn toggle_driven_routing_matches_loaded_routing() {
        // Drive the Gray sequence by toggles and compare every routing
        // observable against a load_mask engine.
        let g = generators::complete(4);
        let p = ShortestPathPattern::new(&g);
        let rotor = RotorPattern::clockwise(&g);
        let max_hops = state_space_bound(&g);
        let m = g.edge_count();
        let mut inc = SweepEngine::new(&g);
        let mut loaded = SweepEngine::new(&g);
        let mut gray = GrayMasks::all(m);
        let mut first = true;
        while gray.advance() {
            if first {
                inc.load_mask(gray.current());
                first = false;
            } else {
                for &f in gray.last_flips() {
                    inc.toggle_edge(f as usize);
                }
            }
            loaded.load_mask(gray.current());
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        inc.route_outcome(&p, s, t, max_hops),
                        loaded.route_outcome(&p, s, t, max_hops)
                    );
                }
                assert_eq!(
                    inc.tour_covers(&rotor, s, max_hops),
                    loaded.tour_covers(&rotor, s, max_hops)
                );
            }
        }
    }

    #[test]
    fn route_outcome_agrees_with_simulator() {
        let g = generators::complete(4);
        let p = ShortestPathPattern::new(&g);
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        for mask in 0..(1u64 << g.edge_count()) {
            engine.load_mask(&mask);
            let failures = engine.failure_set(&mask);
            for s in g.nodes() {
                for t in g.nodes() {
                    let expected = route(&g, &failures, &p, s, t, max_hops).outcome;
                    assert_eq!(
                        engine.route_outcome(&p, s, t, max_hops),
                        expected,
                        "mask {mask:#b}, {s}->{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn tour_covers_agrees_with_simulator() {
        let g = generators::complete(4);
        let p = RotorPattern::clockwise(&g);
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        for mask in 0..(1u64 << g.edge_count()) {
            engine.load_mask(&mask);
            let failures = engine.failure_set(&mask);
            for start in g.nodes() {
                let expected = tour(&g, &failures, &p, start, max_hops).covered_component;
                assert_eq!(
                    engine.tour_covers(&p, start, max_hops),
                    expected,
                    "mask {mask:#b}, start {start}"
                );
            }
        }
    }

    #[test]
    fn sweep_find_first_returns_first_in_gray_order() {
        let g = generators::cycle(5);
        // Flag masks by value; the first qualifying mask in the canonical
        // Gray order must win regardless of sharding.
        let expected = gray_order(5, None).into_iter().find(|&mask| mask >= 7);
        let hit = sweep_find_first(&g, None, |engine| {
            let mask = engine.current_mask().as_u64().unwrap();
            (mask >= 7).then_some(mask)
        });
        assert_eq!(hit, expected);
        assert!(hit.is_some());
        let none: Option<u64> = sweep_find_first(&g, None, |_| None);
        assert_eq!(none, None);
        // Bounded path: weight-ordered enumeration reaches the single-failure
        // masks right after the empty mask.
        let expected = gray_order(5, Some(1))
            .into_iter()
            .find(|&mask| mask.count_ones() == 1);
        let hit = sweep_find_first(&g, Some(1), |engine| {
            let mask = engine.current_mask().as_u64().unwrap();
            (mask.count_ones() == 1).then_some(mask)
        });
        assert_eq!(hit, expected);
        assert!(hit.is_some());
    }

    #[test]
    fn bounded_sweep_visits_masks_in_order_and_respects_budget() {
        use std::sync::Mutex;
        let g = generators::complete(5); // m = 10
        let seen = Mutex::new(Vec::new());
        let report: SweepReport<()> =
            sweep_find_first_budgeted(&g, Some(2), None, &StopSignal::none(), |engine| {
                seen.lock()
                    .unwrap()
                    .push(engine.current_mask().as_u64().unwrap());
                None
            });
        assert_eq!(report.end, SweepEnd::Exhausted);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let mut expected: Vec<u64> = FailureMasks::with_max_failures(10, Some(2)).collect();
        expected.sort_unstable();
        assert_eq!(seen, expected, "Gray sweep visits the same mask sets");
        assert_eq!(
            seen.len() as u128,
            capped_mask_count(10, 2).exact().unwrap()
        );
        // A budget of b examines exactly the first b Gray-enumerated masks.
        let seen = Mutex::new(Vec::new());
        let report: SweepReport<()> =
            sweep_find_first_budgeted(&g, Some(2), Some(7), &StopSignal::none(), |engine| {
                seen.lock()
                    .unwrap()
                    .push(engine.current_mask().as_u64().unwrap());
                None
            });
        assert_eq!(report.end, SweepEnd::Stopped(StopCause::WorkBudget));
        assert_eq!(report.masks_examined, 7);
        let mut seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 7);
        seen.sort_unstable();
        let mut expected: Vec<u64> = gray_order(10, Some(2)).into_iter().take(7).collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn sweep_runs_beyond_64_links() {
        // A 72-link ring: far past the old single-word wall.  With a rotor
        // pattern the k=1 bounded sweep passes; flagging a specific
        // two-failure set finds it.
        let g = generators::cycle(72);
        assert!(g.edge_count() > 64);
        let p = RotorPattern::clockwise(&g);
        let max_hops = state_space_bound(&g);
        let miss: Option<()> = sweep_find_first(&g, Some(1), |engine| {
            let start = Node(0);
            (!engine.tour_covers(&p, start, max_hops) && engine.component_size(start) > 1)
                .then_some(())
        });
        assert_eq!(miss, None, "one ring failure never strands the tour");
        // Flag the mask failing edges 3 and 70 (different words).
        let hit = sweep_find_first(&g, Some(2), |engine| {
            let mask = engine.current_mask();
            (mask.bit(3) && mask.bit(70) && mask.count_ones() == 2)
                .then(|| engine.current_failure_set())
        });
        let hit = hit.expect("the flagged mask is enumerated");
        assert_eq!(hit.len(), 2);
        assert!(hit.contains_edge(g.edges()[3]));
        assert!(hit.contains_edge(g.edges()[70]));
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g = frr_graph::Graph::new(1);
        let mut engine = SweepEngine::new(&g);
        engine.load_mask(&0u64);
        assert_eq!(engine.component_size(Node(0)), 1);
        let p = RotorPattern::clockwise(&g);
        assert!(engine.tour_covers(&p, Node(0), 10));
        assert_eq!(
            engine.route_outcome(&p, Node(0), Node(0), 10),
            Outcome::Delivered
        );
        // A routed packet with no ports is stuck, matching the simulator.
        let g2 = frr_graph::Graph::new(2);
        let p2 = RotorPattern::clockwise(&g2);
        let mut engine2 = SweepEngine::new(&g2);
        engine2.load_mask(&0u64);
        assert_eq!(
            engine2.route_outcome(&p2, Node(0), Node(1), 10),
            route(&g2, &FailureSet::new(), &p2, Node(0), Node(1), 10).outcome
        );
    }
}

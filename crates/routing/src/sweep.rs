//! The allocation-free failure-sweep engine.
//!
//! The paper's verification oracles quantify over all `2^m` failure sets of a
//! graph.  The pre-bitset implementation materialized a fresh `Graph` clone
//! per failure set and a fresh `BTreeSet` of failed neighbors per hop; this
//! module replaces both with a [`SweepEngine`] that holds a [`BitGraph`] of
//! the network plus reusable scratch buffers, and interprets each failure set
//! as a bitmask overlay (a `&[u64]` word slice, bit `i` ⇒ edge `i` of the
//! ascending [`Graph::edges`] order failed; see [`crate::failure`]):
//!
//! * [`SweepEngine::load_mask`] installs an overlay in `O(|F| + n·w)` word
//!   operations (`w` = words per adjacency row): per-node failed-neighbor
//!   bits, one failed-port word per node and a connected-component
//!   decomposition of `G \ F`, all into scratch reused across masks — no
//!   allocation in steady state.
//! * [`SweepEngine::toggle_edge`] is the **incremental** path: it patches the
//!   failed-adjacency rows and failed-port words of the two endpoints in
//!   `O(w)` and re-derives the component decomposition only as
//!   far as the flipped edge demands — an early-exit alive-BFS bridge test on
//!   removal (components split only if the edge was a bridge), an `O(n)`
//!   relabel on revival (only if the endpoints were in different components).
//!   Driving consecutive Gray-code masks through `toggle_edge` replaces the
//!   per-mask overlay rebuild with one or two edge patches.
//! * The engine forwards only on compiled tables, reading each node's
//!   failed-port word.  Without tables, [`SweepEngine::outcome`] and
//!   [`SweepEngine::covers`] run the one interpreter, [`crate::simulator`],
//!   on the materialized failure set.
//! * [`SweepEngine::first_undelivered`] is the all-pairs delivery check of
//!   the routing sweeps.  On compiled tables the forwarding for a fixed
//!   `(F, t)` is one function over the `2m + n` `(node, in-port)` states, so
//!   every source's fate is a walk in one shared functional graph: each walk
//!   stops at the first state an earlier source already labelled, and all
//!   states it walked take its outcome.  One labelling pass per destination
//!   replaces `n − 1` independent walks.
//! * **Delta probes.**  With per-destination tables, most masks are decided
//!   against the failure-free (∅) delivery forests (`DeliveryForests`,
//!   built once per [`Forwarder`]) instead.  A compiled decision at
//!   `(v, in-port)` reads only `v`'s failed-port word, so under `F` only the
//!   states of nodes with a failed link can decide differently than under
//!   ∅; a source whose ∅ walk meets none of those *changed* states keeps its
//!   ∅ outcome, delivery.  The sources whose ∅ walk does meet one are the
//!   changed states' forest subtrees — one pre-order interval each — and
//!   only they are re-walked, each walk ending delivered at the first forest
//!   state outside those intervals.  A mask whose failed-link nodes hold
//!   more than a quarter of the compiled states takes the full labelled
//!   pass, so large failure sets (most of a perfect-resilience sweep) keep
//!   the full pass's cost.
//! * [`sweep_find_first_budgeted`] drives a whole sweep over the
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
//! chunked loop body never runs and only the scalar remainder executes.

use crate::budget::{sharded_first_controlled, ShardEvent, StopCause};
use crate::compiled::{CompiledPattern, Forwarder, RuleTable};
use crate::failure::{capped_mask_count, mask_ones, mask_words, FailureSet, GrayMasks};
use crate::pattern::ForwardingPattern;
use crate::simulator::{route, tour, Outcome};
use frr_graph::bitgraph::{BitGraph, BitIter};
use frr_graph::budget::StopSignal;
use frr_graph::{Edge, Graph, Node};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Per edge `i` of the canonical order: the failed-port bit of the far
    /// endpoint at each end (`1 << p` for `v`'s rank `p` among `u`'s
    /// ascending neighbors and vice versa) — the bits the compiled tables
    /// test.  Zero for ranks ≥ 64: compilation refuses those nodes.
    edge_port_bits: Vec<(u64, u64)>,
    // ---- per-mask scratch (maintained by `load_mask` / `toggle_edge`) ----
    /// The currently installed failure mask (`⌈m / 64⌉` words).
    cur_mask: Vec<u64>,
    /// `n * words` words; bit `u` of node `v`'s row set iff `{u, v}` failed.
    failed_adj: Vec<u64>,
    /// Per-node failed-**port** word (bit `p` ⇒ the node's `p`-th incident
    /// link failed) — the aliveness word the compiled hot loops consume.
    failed_ports: Vec<u64>,
    /// Per-node failed-link count.
    failed_links: Vec<u32>,
    /// Nodes with a failed link: their scratch entries are dirty (≤ `2·|F|`).
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
    /// One label per compiled `(node, in-port-index)` state (the `2m + n`
    /// CSR state ids of [`crate::compiled`]).  A label written in an earlier
    /// epoch reads as unset, so starting a walk or a destination costs one
    /// epoch increment instead of a fill.
    labels: Vec<StateLabel>,
    /// The current labelling epoch (see [`SweepEngine::next_epoch`]).
    epoch: u32,
    /// The compiled state ids of the walk in progress.
    walk: Vec<u32>,
    /// A forest probe's changed subtrees, as disjoint ascending pre-order
    /// rank intervals.
    changed: Vec<(u32, u32)>,
    /// A forest probe's sources to re-walk.
    rewalk: Vec<u32>,
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
/// `sweep.hops`, `sweep.tours`, `sweep.forest_probes`, plus the sweep-level
/// `sweep.masks_swept`.
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
    /// Forwarding decisions those routing queries took (links crossed, on
    /// the interpreter).  Labelled walks stop at states an earlier source
    /// already decided, so `hops / routes` is the walking the labelling
    /// leaves.
    pub hops: u64,
    /// Touring simulations (`covers` and `tour_covers_compiled`).
    pub tours: u64,
    /// Destinations `first_undelivered` decided against the failure-free
    /// delivery forests; `routes` and `hops` count only the sources those
    /// probes re-walked.
    pub forest_probes: u64,
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
        self.forest_probes += other.forest_probes;
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
            ("sweep.forest_probes", self.forest_probes),
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
        let compiled_states = 2 * edges.len() + n;
        let port_bit = |v: Node, u: Node| {
            let rank = g.neighbors(v).position(|x| x == u).expect("incident edge");
            1u64.checked_shl(rank as u32).unwrap_or(0)
        };
        let edge_port_bits = edges
            .iter()
            .map(|e| (port_bit(e.u(), e.v()), port_bit(e.v(), e.u())))
            .collect();
        SweepEngine {
            graph: g,
            n,
            words,
            edge_port_bits,
            cur_mask: vec![0; mask_words(edges.len())],
            failed_adj: vec![0; n * words],
            failed_ports: vec![0; n],
            failed_links: vec![0; n],
            touched: Vec::with_capacity(n),
            comp_id: vec![0; n],
            comp_size: Vec::with_capacity(n),
            free_comp: Vec::new(),
            labels: vec![StateLabel::default(); compiled_states],
            epoch: 0,
            walk: Vec::with_capacity(compiled_states),
            changed: Vec::new(),
            rewalk: Vec::with_capacity(n),
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

    /// The currently installed failure mask, `⌈m / 64⌉` words (at least 1).
    pub fn current_mask(&self) -> &[u64] {
        &self.cur_mask
    }

    /// Materializes the [`FailureSet`] of the currently installed overlay.
    pub fn current_failure_set(&self) -> FailureSet {
        FailureSet::from_mask(&self.edges, &self.cur_mask)
    }

    /// Installs the failure overlay `mask` from scratch and recomputes the
    /// component decomposition of `G \ F`.  Reuses all scratch;
    /// allocation-free in steady state.  `mask` may be narrower or wider
    /// than [`SweepEngine::current_mask`]; missing words read as zero, and
    /// every set bit must name an edge.
    pub fn load_mask(&mut self, mask: &[u64]) {
        self.stats.masks_loaded += 1;
        // Reset the scratch of the previous mask.
        for &v in &self.touched {
            self.failed_adj[v * self.words..(v + 1) * self.words].fill(0);
            self.failed_ports[v] = 0;
            self.failed_links[v] = 0;
        }
        self.touched.clear();
        self.cur_mask.fill(0);
        for i in mask_ones(mask) {
            debug_assert!(i < self.edges.len(), "mask bit beyond edge count");
            self.flip_link(i);
        }
        self.recompute_components();
    }

    /// Flips edge `i` in the mask, in both endpoints' failed-adjacency rows
    /// and failed-port words, and in their failed-link counts (keeping
    /// `touched` in step); `true` if the edge is failed now.
    fn flip_link(&mut self, i: usize) -> bool {
        let bit = 1 << (i % WORD_BITS);
        let word = &mut self.cur_mask[i / WORD_BITS];
        let now_failed = *word & bit == 0;
        *word ^= bit;
        let e = self.edges[i];
        let (u, v) = (e.u().index(), e.v().index());
        let (pu, pv) = self.edge_port_bits[i];
        for (a, b, p) in [(u, v, pu), (v, u, pv)] {
            self.failed_adj[a * self.words + b / WORD_BITS] ^= 1u64 << (b % WORD_BITS);
            self.failed_ports[a] ^= p;
            if now_failed {
                if self.failed_links[a] == 0 {
                    self.touched.push(a);
                }
                self.failed_links[a] += 1;
            } else {
                self.failed_links[a] -= 1;
                if self.failed_links[a] == 0 {
                    if let Some(t) = self.touched.iter().position(|&x| x == a) {
                        self.touched.swap_remove(t);
                    }
                }
            }
        }
        now_failed
    }

    /// Flips the failure state of edge `edge_index` **incrementally**: the
    /// endpoints' failed-adjacency rows and failed-port words are patched in
    /// `O(w)`, and the component decomposition is re-derived only as far as
    /// the flip demands — an early-exit alive-BFS bridge test when the edge
    /// fails (splitting only if it was a bridge of `G \ F`), an `O(n)` id
    /// relabel when it revives across two components.
    ///
    /// Equivalent to reloading the current mask with that bit flipped
    /// (asserted by the differential suite), at a fraction of the cost for
    /// Gray-code mask sequences.
    pub fn toggle_edge(&mut self, edge_index: usize) {
        self.stats.edges_toggled += 1;
        let e = self.edges[edge_index];
        let (u, v) = (e.u().index(), e.v().index());
        if self.flip_link(edge_index) {
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

    /// The [`Outcome`] of [`crate::simulator::route`] on the loaded
    /// overlay's materialized failure set.  Kept public only because the
    /// frozen benchmark (`perfbench/`) calls it, like
    /// [`crate::resilience::check_bounded_r_resilience`].
    pub fn route_outcome<P: ForwardingPattern + ?Sized>(
        &mut self,
        pattern: &P,
        source: Node,
        destination: Node,
        max_hops: usize,
    ) -> Outcome {
        self.stats.routes += 1;
        let failures = self.current_failure_set();
        let result = route(
            self.graph,
            &failures,
            pattern,
            source,
            destination,
            max_hops,
        );
        self.stats.hops += result.hops as u64;
        result.outcome
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

    /// Walks a packet from `source` towards `destination` on compiled
    /// `table`, within the current epoch, and labels every state it walked
    /// with the outcome.  The walk ends on delivery, a drop, the hop limit,
    /// a state of its own walk (a loop), or a state an earlier walk of the
    /// same epoch labelled — whose outcome it then shares, because the
    /// forwarding from a state does not depend on how the packet got there.
    /// It also ends, delivered, at any state `settled` accepts: the caller
    /// vouches that every packet in such a state is delivered.
    ///
    /// `source != destination`.
    fn labelled_walk(
        &mut self,
        cp: &CompiledPattern,
        table: &RuleTable,
        source: usize,
        destination: usize,
        max_hops: usize,
        settled: impl Fn(usize) -> bool,
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
            if settled(state) {
                break Outcome::Delivered;
            }
            // Every walked state took one hop onwards.
            if self.walk.len() >= max_hops {
                break Outcome::HopLimit;
            }
            self.labels[state] = StateLabel { epoch, fate: None };
            self.walk.push(state as u32);
            let port = match cp.decide(table, v, inport_idx, self.failed_ports[v]) {
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

    /// Routes one packet under the loaded overlay on compiled rule tables and
    /// returns only the [`Outcome`]: the hot loop is a state-id lookup, a
    /// first-alive scan against the node's failed-port word and two array
    /// reads per hop — no dynamic dispatch, no neighbor re-derivation, no
    /// allocation.  Identical outcomes to [`crate::simulator::route`] with
    /// the source pattern (the compiled tables replicate `next_hop`
    /// exactly).
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
        self.labelled_walk(
            cp,
            table,
            source.index(),
            destination.index(),
            max_hops,
            |_| false,
        )
    }

    /// The outcome of one packet from `source` to `destination` under the
    /// loaded overlay: on `fwd`'s compiled tables when it has some
    /// ([`SweepEngine::route_outcome_compiled`]), otherwise by
    /// [`crate::simulator::route`] on the materialized failure set, with
    /// `fwd`'s hop bound.
    pub fn outcome<P: ForwardingPattern + ?Sized>(
        &mut self,
        fwd: &Forwarder<'_, P>,
        source: Node,
        destination: Node,
    ) -> Outcome {
        match fwd.tables() {
            Some(cp) => self.route_outcome_compiled(cp, source, destination, fwd.max_hops()),
            None => self.route_outcome(fwd.pattern(), source, destination, fwd.max_hops()),
        }
    }

    /// Whether the tour from `start` covers its component under the loaded
    /// overlay: on `fwd`'s compiled tables when it has some
    /// ([`SweepEngine::tour_covers_compiled`]), otherwise by
    /// [`crate::simulator::tour`] on the materialized failure set, with
    /// `fwd`'s hop bound.
    pub fn covers<P: ForwardingPattern + ?Sized>(
        &mut self,
        fwd: &Forwarder<'_, P>,
        start: Node,
    ) -> bool {
        match fwd.tables() {
            Some(cp) => self.tour_covers_compiled(cp, start, fwd.max_hops()),
            None => {
                self.stats.tours += 1;
                let failures = self.current_failure_set();
                tour(self.graph, &failures, fwd.pattern(), start, fwd.max_hops()).covered_component
            }
        }
    }

    /// The earliest pair `(s, t)`, in source-major, destination-minor order
    /// with `t` drawn from `destinations`, that is connected in `G \ F` but
    /// whose packet is not delivered under the loaded overlay — `None` if
    /// every connected pair delivers.  This is the all-pairs check of the
    /// routing sweeps; the outcome of a pair is exactly that of
    /// [`SweepEngine::outcome`].
    ///
    /// On compiled tables each destination gets one labelling epoch: the
    /// sources walk in ascending order and each stops at the first state an
    /// earlier source already decided (see the module docs), so a
    /// destination costs `O(2m + n)` forwarding decisions, not one walk per
    /// source.  Source–destination tables differ per source, so there every
    /// pair gets its own epoch — plain loop detection on the same walk.
    /// Once a failing pair `(s*, t*)` is known, later destinations only
    /// check sources below `s*`.  Without tables each pair runs
    /// [`crate::simulator::route`] on the failure set, materialized once per
    /// call.
    ///
    /// **Delta probes.**  With per-destination tables whose failure-free
    /// (∅) forwarding delivers every connected pair, each destination is
    /// decided against its ∅ delivery forest instead.
    /// A decision at state `(v, in-port)` reads only `v`'s failed-port
    /// word, so under `F` only the states of the nodes with a failed link
    /// can decide differently than under ∅.  A source whose ∅ walk meets no
    /// such *changed* state walks the same path and is delivered; the
    /// sources whose ∅ walk does are exactly those in the changed states'
    /// forest subtrees.  Only they are re-walked, in ascending order, and
    /// a re-walk ends delivered at any forest state outside those subtrees.
    /// Changed states at nodes cut off from `t` are skipped: a connected
    /// source rerouted there crossed a failed link on the way, and the
    /// state that chose that link is a changed state at a node connected
    /// to `t`.  A destination with no changed state is decided without a
    /// walk.  The result is the same pair as the full pass.  Cost rule: a
    /// mask whose failed-link nodes hold more than a quarter of the
    /// compiled states (`Σ (deg + 1)` over them) runs the full labelled
    /// pass.
    pub fn first_undelivered<P: ForwardingPattern + ?Sized>(
        &mut self,
        fwd: &Forwarder<'_, P>,
        destinations: Range<usize>,
    ) -> Option<(Node, Node)> {
        let n = self.n;
        let max_hops = fwd.max_hops();
        let Some(cp) = fwd.tables() else {
            let failures = self.current_failure_set();
            for s in (0..n).map(Node) {
                for t in destinations.clone().map(Node) {
                    if s == t || !self.same_component(s, t) {
                        continue;
                    }
                    self.stats.routes += 1;
                    let result = route(self.graph, &failures, fwd.pattern(), s, t, max_hops);
                    self.stats.hops += result.hops as u64;
                    if !result.outcome.is_delivered() {
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
        let touched_states: usize = self
            .touched
            .iter()
            .map(|&v| cp.csr().degree(v) as usize + 1)
            .sum();
        let forests = if 4 * touched_states <= cp.csr().state_count() {
            fwd.forests()
        } else {
            None
        };
        let mut first: Option<(Node, Node)> = None;
        for t in destinations {
            // Later destinations come after `first` for every source but
            // the ones below it.
            let sources = first.map_or(n, |(s, _)| s.index());
            let hit = match forests {
                Some(forests) => self.forest_probe(cp, forests.of(t), t, sources, max_hops),
                None => self.labelled_probe(cp, t, sources, max_hops),
            };
            if let Some(s) = hit {
                first = Some((Node(s), Node(t)));
            }
        }
        first
    }

    /// The smallest source below `sources` that is connected to `t` in
    /// `G \ F` but not delivered, by labelled walks from every such source.
    fn labelled_probe(
        &mut self,
        cp: &CompiledPattern,
        t: usize,
        sources: usize,
        max_hops: usize,
    ) -> Option<usize> {
        let per_pair = cp.tables_per_pair();
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
            if self.labelled_walk(cp, table, s, t, max_hops, |_| false) != Outcome::Delivered {
                return Some(s);
            }
        }
        None
    }

    /// [`SweepEngine::labelled_probe`] decided against `t`'s ∅ delivery
    /// forest (see [`SweepEngine::first_undelivered`]): only the sources in
    /// the subtrees of changed states are re-walked.
    fn forest_probe(
        &mut self,
        cp: &CompiledPattern,
        forest: Forest<'_>,
        t: usize,
        sources: usize,
        max_hops: usize,
    ) -> Option<usize> {
        self.stats.forest_probes += 1;
        let csr = cp.csr();
        let table = cp.table(Node(t), Node(t));
        let mut changed = std::mem::take(&mut self.changed);
        changed.clear();
        for &v in &self.touched {
            if !self.same_component(Node(v), Node(t)) {
                // A source rerouted here is cut off from `t` too, or meets
                // a changed state at a node still connected to `t` first.
                continue;
            }
            let failed = self.failed_ports[v];
            let base = csr.state_base(v);
            for inport_idx in 0..=csr.degree(v) {
                let rank = forest.pre[(base + inport_idx) as usize];
                if rank != NOT_IN_FOREST
                    && cp.decide(table, v, inport_idx, failed) != cp.decide(table, v, inport_idx, 0)
                {
                    changed.push((rank, forest.end[rank as usize]));
                }
            }
        }
        let mut hit = None;
        if !changed.is_empty() {
            // Subtrees nest or are disjoint: merging sorted intervals keeps
            // the outermost ones.
            changed.sort_unstable();
            let mut kept = 0;
            for i in 1..changed.len() {
                if changed[i].0 >= changed[kept].1 {
                    kept += 1;
                    changed[kept] = changed[i];
                }
            }
            changed.truncate(kept + 1);
            let mut rewalk = std::mem::take(&mut self.rewalk);
            rewalk.clear();
            for &(lo, hi) in &changed {
                let from = forest.sources.partition_point(|&(rank, _)| rank < lo);
                rewalk.extend(
                    forest.sources[from..]
                        .iter()
                        .take_while(|&&(rank, _)| rank < hi)
                        .map(|&(_, s)| s)
                        .filter(|&s| (s as usize) < sources),
                );
            }
            rewalk.sort_unstable();
            let inside = |rank: u32| {
                let i = changed.partition_point(|&(lo, _)| lo <= rank);
                i > 0 && rank < changed[i - 1].1
            };
            let settled = |state: usize| {
                let rank = forest.pre[state];
                rank != NOT_IN_FOREST && !inside(rank)
            };
            self.next_epoch();
            for &s in &rewalk {
                let s = s as usize;
                if !self.same_component(Node(s), Node(t)) {
                    continue;
                }
                self.stats.routes += 1;
                if self.labelled_walk(cp, table, s, t, max_hops, settled) != Outcome::Delivered {
                    hit = Some(s);
                    break;
                }
            }
            self.rewalk = rewalk;
        }
        self.changed = changed;
        #[cfg(debug_assertions)]
        {
            // The delta probe must find exactly the full pass's source.
            let stats = self.stats;
            debug_assert_eq!(
                hit,
                self.labelled_probe(cp, t, sources, max_hops),
                "forest probe disagrees with the full pass for destination {t}"
            );
            self.stats = stats;
        }
        hit
    }

    /// Simulates the touring model under the loaded overlay on compiled rule
    /// tables and returns whether the walk covered `start`'s entire
    /// component in `G \ F` (the `covered_component` field of
    /// [`crate::simulator::tour`]).
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
            let port = match cp.decide(table, v, inport_idx, self.failed_ports[v]) {
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

/// Pre-order rank of a compiled state that no source's ∅ walk reaches.
const NOT_IN_FOREST: u32 = u32::MAX;

/// Largest `n · (2m + n)` (destinations × compiled states) the delivery
/// forests are built for: their rank array holds one `u32` per pair, so
/// this caps it at 16 MiB.  The zoo's largest audited network (120 nodes,
/// 123 links) needs about 1% of it.
const FOREST_STATE_LIMIT: usize = 1 << 22;

/// The failure-free (∅) delivery forests of a destination-only compiled
/// pattern, one per destination `t`.
///
/// Under ∅ every compiled state that some source's walk to `t` reaches has
/// one successor state (or delivers), and since every such walk delivers
/// these successor links form a forest rooted at delivery.  Its pre-order
/// numbering makes each state's subtree — the states whose ∅ walk passes
/// through it — one rank interval, so the sources a changed decision can
/// reroute are those whose start state ranks inside the interval.
pub(crate) struct DeliveryForests {
    /// Compiled states per destination (`2m + n`).
    states: usize,
    /// `pre[t · states + x]`: the pre-order rank of state `x` in `t`'s
    /// forest, or [`NOT_IN_FOREST`].
    pre: Vec<u32>,
    /// Per destination, indexed by rank: one past the last rank of the
    /// rank's subtree.  `t`'s slice starts at `end_offset[t]`.
    end: Vec<u32>,
    end_offset: Vec<u32>,
    /// Per destination: `(rank of the source's start state, source)` for
    /// every source connected to `t`, sorted by rank.  `t`'s slice starts
    /// at `source_offset[t]`.
    sources: Vec<(u32, u32)>,
    source_offset: Vec<u32>,
}

/// One destination's slice of [`DeliveryForests`].
#[derive(Clone, Copy)]
struct Forest<'a> {
    pre: &'a [u32],
    end: &'a [u32],
    sources: &'a [(u32, u32)],
}

impl DeliveryForests {
    /// Walks every connected pair of `cp` (compiled for `g`) without
    /// failures and builds the forests; `None` unless `cp` has
    /// per-destination tables over the whole graph, every connected pair is
    /// delivered, and the forests fit [`FOREST_STATE_LIMIT`].  Costs about
    /// one full labelled pass.
    pub(crate) fn build(g: &Graph, cp: &CompiledPattern) -> Option<Self> {
        let csr = cp.csr();
        let (n, states) = (csr.node_count(), csr.state_count());
        if !cp.tables_per_destination() || n.checked_mul(states)? > FOREST_STATE_LIMIT {
            return None;
        }
        let mut component = vec![0; n];
        for (id, nodes) in frr_graph::connectivity::connected_components(g)
            .iter()
            .enumerate()
        {
            for v in nodes {
                component[v.index()] = id;
            }
        }
        let mut forests = DeliveryForests {
            states,
            pre: vec![NOT_IN_FOREST; n * states],
            end: Vec::new(),
            end_offset: vec![0],
            sources: Vec::new(),
            source_offset: vec![0],
        };
        // Per-destination scratch: each state's ∅ successor (`DELIVERS`
        // when its hop reaches `t`), the source whose walk labelled it, the
        // children in CSR form, and the pre-order.
        const DELIVERS: u32 = u32::MAX - 1;
        let mut succ = vec![NOT_IN_FOREST; states];
        let mut walker = vec![u32::MAX; states];
        let mut child_offset = vec![0u32; states + 1];
        let mut cursor = vec![0u32; states + 1];
        let mut children = Vec::new();
        let mut order: Vec<u32> = Vec::new();
        let mut size: Vec<u32> = Vec::new();
        let mut stack = Vec::new();
        let start_state = |s: usize| (csr.state_base(s) + csr.degree(s)) as usize;
        for t in 0..n {
            let table = cp.table(Node(t), Node(t));
            succ.fill(NOT_IN_FOREST);
            walker.fill(u32::MAX);
            let connected = (0..n).filter(|&s| s != t && component[s] == component[t]);
            for s in connected.clone() {
                let (mut v, mut inport_idx) = (s, csr.degree(s));
                let mut state = start_state(s);
                while walker[state] != s as u32 {
                    if succ[state] != NOT_IN_FOREST {
                        // An earlier walk, which was delivered.
                        break;
                    }
                    walker[state] = s as u32;
                    // A drop: this pair is not delivered even without
                    // failures.
                    let port = cp.decide(table, v, inport_idx, 0)? as usize;
                    v = csr.port_target(port);
                    inport_idx = csr.reverse_port(port);
                    if v == t {
                        succ[state] = DELIVERS;
                        break;
                    }
                    let next = (csr.state_base(v) + inport_idx) as usize;
                    succ[state] = next as u32;
                    state = next;
                }
                if walker[state] == s as u32 && succ[state] != DELIVERS {
                    // The walk came back to one of its own states: a loop.
                    return None;
                }
            }
            // Children lists, then an iterative pre-order from the roots
            // (the states whose hop delivers).
            child_offset.fill(0);
            for &p in &succ {
                if p < DELIVERS {
                    child_offset[p as usize + 1] += 1;
                }
            }
            for x in 0..states {
                child_offset[x + 1] += child_offset[x];
            }
            children.resize(child_offset[states] as usize, 0u32);
            cursor.copy_from_slice(&child_offset);
            for (x, &p) in succ.iter().enumerate() {
                if p < DELIVERS {
                    children[cursor[p as usize] as usize] = x as u32;
                    cursor[p as usize] += 1;
                }
            }
            let pre = &mut forests.pre[t * states..(t + 1) * states];
            order.clear();
            stack.clear();
            stack.extend(
                (0..states as u32)
                    .rev()
                    .filter(|&x| succ[x as usize] == DELIVERS),
            );
            while let Some(x) = stack.pop() {
                let x = x as usize;
                pre[x] = order.len() as u32;
                order.push(x as u32);
                let kids = child_offset[x] as usize..child_offset[x + 1] as usize;
                stack.extend(children[kids].iter().rev());
            }
            // Subtree sizes, children before parents (reverse pre-order).
            size.clear();
            size.resize(order.len(), 1);
            for rank in (1..order.len()).rev() {
                let parent = succ[order[rank] as usize];
                if parent != DELIVERS {
                    size[pre[parent as usize] as usize] += size[rank];
                }
            }
            forests
                .end
                .extend(size.iter().enumerate().map(|(rank, &sz)| rank as u32 + sz));
            forests.end_offset.push(forests.end.len() as u32);
            let from = forests.sources.len();
            forests
                .sources
                .extend(connected.map(|s| (pre[start_state(s)], s as u32)));
            forests.sources[from..].sort_unstable();
            forests.source_offset.push(forests.sources.len() as u32);
        }
        Some(forests)
    }

    /// Destination `t`'s forest.
    fn of(&self, t: usize) -> Forest<'_> {
        let ends = self.end_offset[t] as usize..self.end_offset[t + 1] as usize;
        let srcs = self.source_offset[t] as usize..self.source_offset[t + 1] as usize;
        Forest {
            pre: &self.pre[t * self.states..(t + 1) * self.states],
            end: &self.end[ends],
            sources: &self.sources[srcs],
        }
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

/// Runs `check` over every failure mask of `g` (optionally popcount-capped)
/// in the **Gray-code enumeration order** of [`GrayMasks`] (weight-ordered:
/// smaller failure sets first) and reports the result for the **earliest**
/// position for which it returns `Some` — byte-identical to a sequential
/// scan of that order at any thread count — plus how the sweep ended and
/// how far it got.  `mask_budget` limits the sweep to the first
/// `mask_budget` masks in that order (so smallest failure sets first).
///
/// The driver owns the engine's overlay: before each `check` call the
/// engine holds the position's mask, installed either by a one-time
/// [`SweepEngine::load_mask`] at the worker's range start or by
/// [`SweepEngine::toggle_edge`] patches along the Gray sequence.  `check`
/// reads the overlay (via `current_mask` / `current_failure_set` and the
/// routing queries) and must not reload it.
///
/// Sharding across [`sharded_first_controlled`] workers (each with its own
/// [`SweepEngine`] and enumerator) has workers claim blocks of enumeration
/// *positions* from a shared counter; each worker advances its enumerator
/// lazily to the block it claimed.  Small ranges and single-core machines
/// run one worker, on the calling thread.
///
/// * `stop` is polled at the sharded search's poll cadence (about every
///   `POLL_WORK_PAIRS` pairs of probe work, at least once per mask); an
///   idle signal is checked once and adds nothing to the hot loop.
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
    let full = capped_mask_count(m, cap.unwrap_or(m));
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
        0,
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
                        state.weight = mask_ones(state.masks.current()).count();
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
    use crate::compiled::CompilePattern;
    use crate::model::LocalContext;
    use crate::pattern::{RotorPattern, ShortestPathPattern};
    use crate::simulator::state_space_bound;
    use frr_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Gray enumeration materialized as `u64` masks (test widths ≤ 64).
    fn gray_order(m: usize, k: Option<usize>) -> Vec<u64> {
        let mut gray = GrayMasks::with_max_failures(m, k);
        let mut out = Vec::new();
        while gray.advance() {
            let [mask] = *gray.current() else {
                panic!("test widths fit one word")
            };
            out.push(mask);
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
            engine.load_mask(&[mask]);
            assert_eq!(engine.current_mask(), [mask]);
            let failures = engine.current_failure_set();
            assert_eq!(failures, FailureSet::from_mask(&edges, &[mask]));
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
        engine.load_mask(&[mask]);
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
        engine.load_mask(&[0]);
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

    /// Every destination of every mask of weight ≤ 1, through
    /// `first_undelivered`; returns the engine's tallies.
    fn r1_probe_stats<P: crate::compiled::CompilePattern + ?Sized>(
        g: &Graph,
        pattern: &P,
    ) -> SweepStats {
        let fwd = Forwarder::new(g, pattern);
        let mut engine = SweepEngine::new(g);
        let mut gray = GrayMasks::with_max_failures(g.edge_count(), Some(1));
        while gray.advance() {
            engine.load_mask(gray.current());
            engine.first_undelivered(&fwd, 0..g.node_count());
        }
        engine.take_stats()
    }

    #[test]
    fn forest_probes_count_destinations_decided_against_the_forests() {
        // Petersen: 40 compiled states, and one failure touches two nodes
        // holding 8 of them, so all 16 masks take the delta path.
        let g = generators::petersen();
        let n = g.node_count() as u64;
        let stats = r1_probe_stats(&g, &ShortestPathPattern::new(&g));
        assert_eq!(stats.forest_probes, 16 * n);
        // Only re-walked sources count as routes: far fewer than the
        // n·(n−1) pairs of every mask.
        assert!(stats.routes < 16 * n * (n - 1) / 2, "{stats:?}");
        let reg = frr_obs::Registry::new();
        stats.flush_to(&reg);
        assert_eq!(reg.snapshot().counter("sweep.forest_probes"), Some(16 * n));
        // Per-pair tables have no forests: every pair is walked.
        let per_pair = crate::pattern::FnPattern::new(
            crate::model::RoutingModel::SourceDestination,
            "smallest-alive",
            |ctx: &LocalContext<'_>| {
                if ctx.destination_is_alive_neighbor() {
                    return Some(ctx.destination);
                }
                ctx.alive_neighbors().first().copied()
            },
        );
        let stats = r1_probe_stats(&g, &per_pair);
        assert_eq!(stats.forest_probes, 0);
        assert!(stats.routes > 0);
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
        // Random toggle walks, then every link once: after every toggle, the
        // engine must be observationally identical to a fresh engine loading
        // the same mask, and bit `p` of a node's failed-port word must say
        // whether its `p`-th link failed.  The wheel's hub has degree 64, so
        // its last link sits on port 63.
        let mut rng = StdRng::seed_from_u64(0x7061);
        for (gi, g) in [
            generators::cycle(6),
            generators::complete(5),
            generators::petersen(),
            generators::random_connected(8, 4, &mut StdRng::seed_from_u64(3)),
            generators::wheel(64),
        ]
        .iter()
        .enumerate()
        {
            let m = g.edge_count();
            let mut inc = SweepEngine::new(g);
            let mut reference = SweepEngine::new(g);
            let mut mask = vec![0u64; mask_words(m)];
            inc.load_mask(&mask);
            let walk: Vec<usize> = (0..200).map(|_| rng.gen_range(0..m)).chain(0..m).collect();
            for (step, bit) in walk.into_iter().enumerate() {
                mask[bit / WORD_BITS] ^= 1u64 << (bit % WORD_BITS);
                inc.toggle_edge(bit);
                reference.load_mask(&mask);
                assert_eq!(inc.current_mask(), mask);
                assert_eq!(
                    inc.failed_ports, reference.failed_ports,
                    "graph {gi}, step {step}"
                );
                for v in g.nodes() {
                    for (p, u) in g.neighbors(v).enumerate() {
                        let failed = inc.failed_ports[v.index()] >> p & 1 == 1;
                        assert_eq!(inc.link_failed(v, u), failed, "graph {gi}, step {step}");
                        assert_eq!(reference.link_failed(v, u), failed);
                    }
                }
                // Toggles and reloads list the dirty nodes in different
                // orders.
                let mut touched = [inc.touched.clone(), reference.touched.clone()];
                touched.iter_mut().for_each(|t| t.sort_unstable());
                assert_eq!(touched[0], touched[1], "graph {gi}, step {step}");
                for s in g.nodes() {
                    assert_eq!(
                        inc.component_size(s),
                        reference.component_size(s),
                        "graph {gi}, step {step}, mask {mask:?}, node {s}"
                    );
                    for t in g.nodes() {
                        assert_eq!(
                            inc.same_component(s, t),
                            reference.same_component(s, t),
                            "graph {gi}, step {step}, mask {mask:?}, pair {s}-{t}"
                        );
                    }
                }
                assert_eq!(inc.current_failure_set(), reference.current_failure_set());
            }
        }
    }

    #[test]
    fn toggle_driven_routing_matches_loaded_routing() {
        // Drive the Gray sequence by toggles and compare every compiled
        // routing observable against a load_mask engine.
        let g = generators::complete(4);
        let cp = ShortestPathPattern::new(&g).compile(&g).unwrap();
        let rotor_cp = RotorPattern::clockwise(&g).compile(&g).unwrap();
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
                        inc.route_outcome_compiled(&cp, s, t, max_hops),
                        loaded.route_outcome_compiled(&cp, s, t, max_hops)
                    );
                }
                assert_eq!(
                    inc.tour_covers_compiled(&rotor_cp, s, max_hops),
                    loaded.tour_covers_compiled(&rotor_cp, s, max_hops)
                );
            }
        }
    }

    #[test]
    fn route_outcome_agrees_with_simulator() {
        // The overlay's failed-port words drive the compiled walks exactly
        // like the materialized failure set drives the interpreter.
        let g = generators::complete(4);
        let p = ShortestPathPattern::new(&g);
        let cp = p.compile(&g).unwrap();
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        for mask in 0..(1u64 << g.edge_count()) {
            engine.load_mask(&[mask]);
            let failures = engine.current_failure_set();
            for s in g.nodes() {
                for t in g.nodes() {
                    let expected = route(&g, &failures, &p, s, t, max_hops).outcome;
                    assert_eq!(
                        engine.route_outcome_compiled(&cp, s, t, max_hops),
                        expected,
                        "mask {mask:#b}, {s}->{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn tour_covers_agrees_with_simulator() {
        // Coverage on the overlay counts the component partition, which
        // must match the materialized failure set's components.
        let g = generators::complete(4);
        let p = RotorPattern::clockwise(&g);
        let cp = p.compile(&g).unwrap();
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        for mask in 0..(1u64 << g.edge_count()) {
            engine.load_mask(&[mask]);
            let failures = engine.current_failure_set();
            for start in g.nodes() {
                let expected = tour(&g, &failures, &p, start, max_hops).covered_component;
                assert_eq!(
                    engine.tour_covers_compiled(&cp, start, max_hops),
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
        let expected = gray_order(5, None)
            .into_iter()
            .find(|&mask| mask >= 7)
            .expect("some mask qualifies");
        let hit = sweep_find_first_budgeted(&g, None, None, &StopSignal::none(), |engine| {
            let mask = engine.current_mask()[0];
            (mask >= 7).then_some(mask)
        });
        assert_eq!(hit.end, SweepEnd::Found(expected));
        let none =
            sweep_find_first_budgeted(&g, None, None, &StopSignal::none(), |_| Option::<u64>::None);
        assert_eq!(none.end, SweepEnd::Exhausted);
        // Bounded path: weight-ordered enumeration reaches the single-failure
        // masks right after the empty mask.
        let expected = gray_order(5, Some(1))
            .into_iter()
            .find(|&mask| mask.count_ones() == 1)
            .expect("some mask qualifies");
        let hit = sweep_find_first_budgeted(&g, Some(1), None, &StopSignal::none(), |engine| {
            let mask = engine.current_mask()[0];
            (mask.count_ones() == 1).then_some(mask)
        });
        assert_eq!(hit.end, SweepEnd::Found(expected));
    }

    #[test]
    fn bounded_sweep_visits_masks_in_order_and_respects_budget() {
        use std::sync::Mutex;
        let g = generators::complete(5); // m = 10
        let seen = Mutex::new(Vec::new());
        let report: SweepReport<()> =
            sweep_find_first_budgeted(&g, Some(2), None, &StopSignal::none(), |engine| {
                seen.lock().unwrap().push(engine.current_mask()[0]);
                None
            });
        assert_eq!(report.end, SweepEnd::Exhausted);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let expected: Vec<u64> = (0..1u64 << 10).filter(|m| m.count_ones() <= 2).collect();
        assert_eq!(seen, expected, "Gray sweep visits every ≤ 2-failure mask");
        assert_eq!(seen.len() as u64, capped_mask_count(10, 2));
        // A budget of b examines exactly the first b Gray-enumerated masks.
        let seen = Mutex::new(Vec::new());
        let report: SweepReport<()> =
            sweep_find_first_budgeted(&g, Some(2), Some(7), &StopSignal::none(), |engine| {
                seen.lock().unwrap().push(engine.current_mask()[0]);
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
        let cp = RotorPattern::clockwise(&g).compile(&g).unwrap();
        let max_hops = state_space_bound(&g);
        let miss = sweep_find_first_budgeted(&g, Some(1), None, &StopSignal::none(), |engine| {
            let start = Node(0);
            (!engine.tour_covers_compiled(&cp, start, max_hops) && engine.component_size(start) > 1)
                .then_some(())
        });
        assert_eq!(
            miss.end,
            SweepEnd::Exhausted,
            "one ring failure never strands the tour"
        );
        // Flag the mask failing edges 3 and 70 (different words).
        let flagged = [1 << 3, 1 << (70 - 64)];
        let hit = sweep_find_first_budgeted(&g, Some(2), None, &StopSignal::none(), |engine| {
            (engine.current_mask() == flagged).then(|| engine.current_failure_set())
        });
        let SweepEnd::Found(hit) = hit.end else {
            panic!("the flagged mask is enumerated")
        };
        assert_eq!(hit.len(), 2);
        assert!(hit.contains_edge(g.edges()[3]));
        assert!(hit.contains_edge(g.edges()[70]));
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g = frr_graph::Graph::new(1);
        let mut engine = SweepEngine::new(&g);
        engine.load_mask(&[0]);
        assert_eq!(engine.component_size(Node(0)), 1);
        let cp = RotorPattern::clockwise(&g).compile(&g).unwrap();
        assert!(engine.tour_covers_compiled(&cp, Node(0), 10));
        assert_eq!(
            engine.route_outcome_compiled(&cp, Node(0), Node(0), 10),
            Outcome::Delivered
        );
        // A routed packet with no ports is stuck, matching the simulator.
        let g2 = frr_graph::Graph::new(2);
        let p2 = RotorPattern::clockwise(&g2);
        let cp2 = p2.compile(&g2).unwrap();
        let mut engine2 = SweepEngine::new(&g2);
        engine2.load_mask(&[0]);
        assert_eq!(
            engine2.route_outcome_compiled(&cp2, Node(0), Node(1), 10),
            route(&g2, &FailureSet::new(), &p2, Node(0), Node(1), 10).outcome
        );
    }
}

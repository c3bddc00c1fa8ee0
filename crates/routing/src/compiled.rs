//! Compiled forwarding patterns: dense per-destination rule tables the
//! simulator hot paths consume branch-free.
//!
//! The trait-object path (`ForwardingPattern::next_hop` behind dynamic
//! dispatch, `BTreeMap` rule lookups, `Vec` scans) dominated the per-packet
//! cost of the exhaustive failure sweeps.  This module compiles a pattern
//! **once per `(graph, destination)`** — mirroring how the Chiesa-style
//! arborescence baseline is already precompiled into `parent[v]` arrays —
//! into flat arrays:
//!
//! * [`PortGraph`] — a CSR view of the network: `ports` concatenates every
//!   node's neighbor list (ascending), `port_offset[v]` indexes node `v`'s
//!   slice, and `reverse_port[p]` is the in-port index the hop over global
//!   port `p` produces at the far end.  Local port indices also index the
//!   per-node *failed-port* bitmask the simulators maintain, so an aliveness
//!   test is one shift-and-mask.
//! * [`CompiledPattern`] — per destination (or per `(source, destination)`
//!   pair in the source–destination model; one shared table in the touring
//!   model), a rule table indexed by the `(node, in-port-index)` **state id**
//!   `port_offset[v] + v + p` (the in-port `⊥` gets index `deg(v)`).  Each
//!   state holds a priority list of out-port indices in one flat `Vec<u32>`
//!   arena; the forwarding decision is "first out-port whose link is alive".
//!   States whose decision function is *not* expressible as a fixed priority
//!   list (the Algorithm 1 source rules, for example) fall back to an exact
//!   dense map indexed by the node's failed-port mask — both encodings live
//!   in the same arena, discriminated by a marker word.
//! * [`CompilePattern`] — the compilation trait.  Concrete patterns override
//!   [`CompilePattern::compile`] with a direct translation of their rule
//!   structure; the provided default, [`tabulate`], compiles **any**
//!   [`ForwardingPattern`] by enumerating every local context
//!   `(node, in-port, failed subset, header)` and verifying the resulting
//!   lists exhaustively, so compiled and interpreted forwarding are
//!   *provably* identical on every reachable context (the differential
//!   test-suite asserts this end to end).
//! * [`CompiledSim`] — reusable scratch (failed-port masks, packed
//!   visited-state bitset) that routes on compiled tables against a
//!   materialized [`FailureSet`], allocating only the reported path.
//! * [`Forwarder`] — the one place that chooses between these tables and the
//!   reference interpreter, [`crate::simulator`].  It compiles once, under a
//!   panic guard, and routes on the tables when that succeeds.  A refused
//!   compile (degree ≥ 64 or tabulation over budget) or a panicking one
//!   keeps the interpreter, with identical outcomes.  The resilience
//!   checkers, the sampler ([`crate::adversary::RandomAdversary`]), the
//!   generic adversaries and the delivery statistics all route through it; on the sweep engine's overlays,
//!   [`crate::sweep::SweepEngine::outcome`],
//!   [`crate::sweep::SweepEngine::covers`] and
//!   [`crate::sweep::SweepEngine::first_undelivered`] make the same choice
//!   from it.

use crate::failure::FailureSet;
use crate::model::{LocalContext, RoutingModel};
use crate::pattern::ForwardingPattern;
use crate::simulator::{route, state_space_bound, Outcome, RouteResult};
use crate::sweep::DeliveryForests;
use frr_graph::{Graph, Node};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

const WORD_BITS: usize = u64::BITS as usize;

/// Minimal FNV-1a 64 accumulator for the stable table and snapshot digests.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Folds one 64-bit word, byte by byte (little-endian).
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a `u32` slice (length-prefixed, so `[1][]` ≠ `[][1]`).
    ///
    /// The bulk is folded over eight independent lanes (one xor-multiply per
    /// word per lane) that are combined into the accumulator at the end: a
    /// single FNV chain is a serial multiply dependency at ~4 cycles/word,
    /// and the control plane digests every table it rebuilds on each serve
    /// tick (once per table; `Snapshot::digest` folds the cached words).
    /// The lanes keep every bit of every word in the digest; only the
    /// mixing order differs from byte-serial FNV-1a.
    /// The pinned replay digests depend on this exact mixing order.
    pub fn words_u32(&mut self, words: &[u32]) {
        self.word(words.len() as u64);
        let mut lanes = [
            Self::OFFSET ^ 0x9e37_79b9_7f4a_7c15,
            Self::OFFSET ^ 0xc2b2_ae3d_27d4_eb4f,
            Self::OFFSET ^ 0x1656_67b1_9e37_79f9,
            Self::OFFSET ^ 0x2545_f491_4f6c_dd1d,
            Self::OFFSET ^ 0x27d4_eb2f_1656_67c5,
            Self::OFFSET ^ 0x9e37_79f9_2545_f493,
            Self::OFFSET ^ 0x7f4a_7c15_c2b2_ae3f,
            Self::OFFSET ^ 0x4f6c_dd1d_27d4_eb4f,
        ];
        let mut chunks = words.chunks_exact(8);
        for octet in &mut chunks {
            for (lane, &w) in lanes.iter_mut().zip(octet) {
                *lane = (*lane ^ u64::from(w)).wrapping_mul(Self::PRIME);
            }
        }
        for (lane, &w) in lanes.iter_mut().zip(chunks.remainder()) {
            *lane = (*lane ^ u64::from(w)).wrapping_mul(Self::PRIME);
        }
        for lane in lanes {
            self.word(lane);
        }
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Marker word: the state's rule slice is a dense failed-mask-indexed map
/// (`2^deg` entries follow) instead of a priority list.
const DENSE: u32 = u32::MAX;
/// Dense-map entry (and internal tabulation value) for "drop the packet".
const DROP: u32 = u32::MAX - 1;

/// Total local contexts the generic tabulator may enumerate before refusing
/// to compile (`Σ_states 2^deg` summed over all tables).  Keeps compilation
/// a negligible fraction of any sweep it accelerates.
pub const TABULATE_CONTEXT_BUDGET: u64 = 1 << 22;

/// CSR (compressed sparse row) view of a graph's ports.
///
/// Global port `p` is the directed slot "`ports[p]` as seen from the node
/// owning the slice containing `p`"; there are `2m` global ports.  The state
/// space of the simulators — `(node, in-port)` with `⊥` allowed — has exactly
/// `2m + n` states, one per global port plus one `⊥` state per node, indexed
/// by `state_base(v) + in-port-index`.
///
/// The arrays here and in the rule tables are shared `Arc<[u32]>`, so
/// cloning a `PortGraph` or a [`CompiledPattern`] is `O(1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortGraph {
    n: usize,
    /// `n + 1` offsets into `ports`.
    port_offset: Arc<[u32]>,
    /// Concatenated ascending neighbor lists (`2m` entries).
    ports: Arc<[u32]>,
    /// For global port `p` carrying a hop `v → u`: the in-port index of `v`
    /// at `u` (the state the packet lands in).
    reverse_port: Arc<[u32]>,
}

impl PortGraph {
    /// Builds the CSR view of `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.node_count();
        let mut port_offset = Vec::with_capacity(n + 1);
        let mut ports = Vec::with_capacity(2 * g.edge_count());
        port_offset.push(0u32);
        for v in g.nodes() {
            ports.extend(g.neighbors(v).map(|u| u.index() as u32));
            port_offset.push(ports.len() as u32);
        }
        let slice_of = |v: usize| &ports[port_offset[v] as usize..port_offset[v + 1] as usize];
        let mut reverse_port = Vec::with_capacity(ports.len());
        for v in 0..n {
            for &u in slice_of(v) {
                let back = slice_of(u as usize)
                    .binary_search(&(v as u32))
                    .expect("symmetric adjacency");
                reverse_port.push(back as u32);
            }
        }
        PortGraph {
            n,
            port_offset: port_offset.into(),
            ports: ports.into(),
            reverse_port: reverse_port.into(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of global ports (`2m`).
    #[inline]
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Number of `(node, in-port)` states (`2m + n`).
    #[inline]
    pub fn state_count(&self) -> usize {
        self.ports.len() + self.n
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> u32 {
        self.port_offset[v + 1] - self.port_offset[v]
    }

    /// The ascending neighbor slice of node `v`.
    #[inline]
    pub fn ports_of(&self, v: usize) -> &[u32] {
        &self.ports[self.port_offset[v] as usize..self.port_offset[v + 1] as usize]
    }

    /// First state id of node `v` (its CSR offset plus one `⊥` slot per
    /// preceding node); `state_base(v) + p` is the state "at `v`, arrived via
    /// local port `p`", and `p = deg(v)` is the `⊥` state.
    #[inline]
    pub fn state_base(&self, v: usize) -> u32 {
        self.port_offset[v] + v as u32
    }

    /// Local port index of neighbor `u` at node `v`, if adjacent (binary
    /// search over the ascending neighbor slice).
    #[inline]
    pub fn port_of(&self, v: usize, u: usize) -> Option<u32> {
        self.ports_of(v)
            .binary_search(&(u as u32))
            .ok()
            .map(|p| p as u32)
    }

    /// The node a hop over global port `p` lands on.
    #[inline]
    pub fn port_target(&self, p: usize) -> usize {
        self.ports[p] as usize
    }

    /// The in-port index produced at the far end of global port `p`.
    #[inline]
    pub fn reverse_port(&self, p: usize) -> u32 {
        self.reverse_port[p]
    }
}

/// One destination's (or header's) rule table: per state, a slice of the
/// shared `rules` arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RuleTable {
    /// `state_count + 1` offsets into `rules`.
    offsets: Arc<[u32]>,
    /// Flat arena: priority lists of local out-port indices, or
    /// `DENSE`-marked failed-mask-indexed maps.
    rules: Arc<[u32]>,
}

impl RuleTable {
    /// Resolves the decision for `state` under the node's failed-port mask:
    /// the chosen local out-port, or `None` to drop.
    #[inline]
    fn decide(&self, state: usize, failed_mask: u64) -> Option<u32> {
        let slice = &self.rules[self.offsets[state] as usize..self.offsets[state + 1] as usize];
        match slice.first() {
            None => None,
            Some(&DENSE) => {
                let entry = slice[1 + failed_mask as usize];
                (entry != DROP).then_some(entry)
            }
            Some(_) => slice
                .iter()
                .copied()
                .find(|&p| failed_mask & (1u64 << p) == 0),
        }
    }
}

/// How a compiled pattern's tables are keyed by the packet header.
#[derive(Debug, Clone)]
enum Tables {
    /// Touring model: one header-independent table.
    Uniform(RuleTable),
    /// Destination-only model: `tables[t]`.
    PerDestination(Vec<RuleTable>),
    /// Source–destination model: `tables[s * n + t]`.
    PerPair(Vec<RuleTable>),
    /// Destination-only model, a single destination's table — the
    /// control-plane rebuild unit (see [`CompilePattern::compile_destination`]).
    /// Only valid for packets addressed to exactly that destination.
    SingleDestination { destination: u32, table: RuleTable },
}

/// A forwarding pattern compiled to dense rule tables over a [`PortGraph`].
///
/// Built by [`CompilePattern::compile`] (or the generic [`tabulate`]); the
/// simulators in [`CompiledSim`] and [`crate::sweep::SweepEngine`] consume it
/// branch-free.  Also implements [`ForwardingPattern`] itself, so a compiled
/// pattern can stand in anywhere the interpreted trait object could.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    model: RoutingModel,
    name: Cow<'static, str>,
    csr: PortGraph,
    tables: Tables,
    /// [`CompiledPattern::digest`], computed on first use.  Sound because a
    /// compiled pattern is never mutated after construction.
    digest: OnceLock<u64>,
}

impl CompiledPattern {
    fn new(model: RoutingModel, name: Cow<'static, str>, csr: PortGraph, tables: Tables) -> Self {
        CompiledPattern {
            model,
            name,
            csr,
            tables,
            digest: OnceLock::new(),
        }
    }

    /// The routing model the tables are keyed for.
    pub fn model(&self) -> RoutingModel {
        self.model
    }

    /// The compiled pattern's reported name (the source pattern's name).
    pub fn name(&self) -> Cow<'static, str> {
        self.name.clone()
    }

    /// The CSR port view the tables index.
    pub fn csr(&self) -> &PortGraph {
        &self.csr
    }

    /// Total rule-arena words across all tables (size diagnostics).
    pub fn rule_words(&self) -> usize {
        match &self.tables {
            Tables::Uniform(t) => t.rules.len(),
            Tables::PerDestination(ts) | Tables::PerPair(ts) => {
                ts.iter().map(|t| t.rules.len()).sum()
            }
            Tables::SingleDestination { table, .. } => table.rules.len(),
        }
    }

    /// For a single-destination compile
    /// ([`CompilePattern::compile_destination`]): the one destination this
    /// pattern can serve.  `None` for whole-graph compiles.
    pub fn destination(&self) -> Option<Node> {
        match &self.tables {
            Tables::SingleDestination { destination, .. } => Some(Node(*destination as usize)),
            _ => None,
        }
    }

    /// A stable 64-bit FNV-1a digest of the compiled artifact: the CSR port
    /// layout plus every rule table (including which destination a
    /// single-destination compile serves).  Two compiles of the same pattern
    /// on the same graph digest identically; any rule, shape or destination
    /// difference changes the digest.  Used by the control plane's epoch
    /// digests and by determinism tests.  Hashed once per pattern and cached.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.fresh_digest())
    }

    fn fresh_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(match self.model {
            RoutingModel::Touring => 1,
            RoutingModel::DestinationOnly => 2,
            RoutingModel::SourceDestination => 3,
        });
        h.word(self.csr.n as u64);
        h.words_u32(&self.csr.port_offset);
        h.words_u32(&self.csr.ports);
        fn fold_table(h: &mut Fnv, t: &RuleTable) {
            h.words_u32(&t.offsets);
            h.words_u32(&t.rules);
        }
        match &self.tables {
            Tables::Uniform(t) => fold_table(&mut h, t),
            Tables::PerDestination(ts) | Tables::PerPair(ts) => {
                ts.iter().for_each(|t| fold_table(&mut h, t))
            }
            Tables::SingleDestination {
                destination,
                table: t,
            } => {
                fold_table(&mut h, t);
                h.word(u64::from(*destination) | 1 << 63);
            }
        }
        h.finish()
    }

    /// The rule table serving a packet with header `(source, destination)`.
    #[inline]
    pub(crate) fn table(&self, source: Node, destination: Node) -> &RuleTable {
        match &self.tables {
            Tables::Uniform(t) => t,
            Tables::PerDestination(ts) => &ts[destination.index()],
            Tables::PerPair(ts) => &ts[source.index() * self.csr.n + destination.index()],
            Tables::SingleDestination {
                destination: built_for,
                table,
            } => {
                debug_assert_eq!(
                    *built_for as usize,
                    destination.index(),
                    "single-destination table for v{built_for} asked to serve v{destination}"
                );
                table
            }
        }
    }

    /// `true` if the table serving a packet depends on its source (the
    /// source–destination model): walks of different sources towards one
    /// destination then follow different forwarding functions.
    #[inline]
    pub(crate) fn tables_per_pair(&self) -> bool {
        matches!(self.tables, Tables::PerPair(_))
    }

    /// `true` if the pattern has one table per destination over the whole
    /// graph (a destination-only whole-graph compile).
    #[inline]
    pub(crate) fn tables_per_destination(&self) -> bool {
        matches!(self.tables, Tables::PerDestination(_))
    }

    /// One forwarding decision on the compiled tables: the **global port**
    /// taken out of `v` given its in-port index and failed-port mask, or
    /// `None` to drop.  The next node is `csr.ports[p]` and the next in-port
    /// index `csr.reverse_port[p]`.
    #[inline]
    pub(crate) fn decide(
        &self,
        table: &RuleTable,
        v: usize,
        inport_idx: u32,
        failed_mask: u64,
    ) -> Option<u32> {
        let state = (self.csr.state_base(v) + inport_idx) as usize;
        table
            .decide(state, failed_mask)
            .map(|p| self.csr.port_offset[v] + p)
    }

    /// `true` if the compiled tables were built for a graph shaped like `n`
    /// nodes / `m` edges (cheap consistency check for the engines).
    #[inline]
    pub fn matches_shape(&self, n: usize, m: usize) -> bool {
        self.csr.n == n && self.csr.ports.len() == 2 * m
    }
}

impl ForwardingPattern for CompiledPattern {
    fn model(&self) -> RoutingModel {
        self.model
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        let v = ctx.node.index();
        let deg = self.csr.degree(v);
        let inport_idx = match ctx.inport {
            // An in-port that is not a configured neighbor cannot occur in a
            // simulation; treat it as ⊥ like the tabulator does.
            Some(u) => self.csr.port_of(v, u.index()).unwrap_or(deg),
            None => deg,
        };
        let failed_mask = ctx
            .failed_neighbors
            .iter()
            .filter_map(|u| self.csr.port_of(v, u.index()))
            .fold(0u64, |m, p| m | 1u64 << p);
        let table = self.table(ctx.source, ctx.destination);
        self.decide(table, v, inport_idx, failed_mask)
            .map(|p| Node(self.csr.ports[p as usize] as usize))
    }

    fn name(&self) -> Cow<'static, str> {
        self.name.clone()
    }
}

/// Patterns that can be compiled to [`CompiledPattern`] tables.
///
/// The provided default is the generic exact tabulator ([`tabulate`]);
/// concrete patterns whose rules already *are* priority lists override it
/// with a direct translation (cheaper to build, no degree/budget limits from
/// context enumeration).  `compile` returns `None` when the pattern cannot be
/// compiled for `g` (a node of degree ≥ 64, or generic tabulation over
/// budget); callers then keep the interpreted trait-object path.
pub trait CompilePattern: ForwardingPattern {
    /// Compiles the pattern's forwarding function on `g` into dense tables.
    ///
    /// `g` must be the graph the pattern was configured for; the compiled
    /// tables replicate `next_hop` exactly on every context the simulators
    /// can present (same outcomes, paths and counterexamples).
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        tabulate(g, self)
    }

    /// Compiles **only the table serving destination `t`** — the
    /// control-plane rebuild unit: a long-running service recompiles one
    /// `(graph, destination)` table at a time and swaps it in without
    /// touching the other destinations' tables.
    ///
    /// Only destination-only patterns support this (the touring model has a
    /// single shared table and the source–destination model would need a
    /// table per source); others return `None`, as do the same refusal cases
    /// as [`CompilePattern::compile`].  The returned pattern answers
    /// [`CompiledPattern::destination`] with `Some(t)` and must only be asked
    /// to serve packets addressed to `t`.
    ///
    /// The provided default tabulates `t`'s table exactly like [`tabulate`];
    /// patterns with direct compilers (the rotor and shortest-path
    /// patterns) override it.  For any destination `t`, routing on
    /// `compile_destination(g, t)` is identical to routing on the `t` slice
    /// of `compile(g)` (pinned by the differential tests).
    fn compile_destination(&self, g: &Graph, t: Node) -> Option<CompiledPattern> {
        tabulate_destination(g, self, t)
    }
}

impl<P: CompilePattern + ?Sized> CompilePattern for &P {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        (**self).compile(g)
    }

    fn compile_destination(&self, g: &Graph, t: Node) -> Option<CompiledPattern> {
        (**self).compile_destination(g, t)
    }
}

impl<P: CompilePattern + ?Sized> CompilePattern for Box<P> {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        (**self).compile(g)
    }

    fn compile_destination(&self, g: &Graph, t: Node) -> Option<CompiledPattern> {
        (**self).compile_destination(g, t)
    }
}

impl CompilePattern for CompiledPattern {
    fn compile(&self, _g: &Graph) -> Option<CompiledPattern> {
        Some(self.clone())
    }

    fn compile_destination(&self, _g: &Graph, t: Node) -> Option<CompiledPattern> {
        match &self.tables {
            Tables::PerDestination(ts) if t.index() < ts.len() => Some(CompiledPattern::new(
                self.model,
                self.name.clone(),
                self.csr.clone(),
                Tables::SingleDestination {
                    destination: t.index() as u32,
                    table: ts[t.index()].clone(),
                },
            )),
            Tables::SingleDestination { destination, .. } if *destination as usize == t.index() => {
                Some(self.clone())
            }
            _ => None,
        }
    }
}

/// The header pairs a model's tables are built for, in build order.
fn header_pairs(model: RoutingModel, n: usize) -> Vec<(Node, Node)> {
    match model {
        // The touring model has no header; the table is built with the
        // placeholder header honest touring patterns never read.
        RoutingModel::Touring => vec![(Node(0), Node(0))],
        // Destination-only patterns must not read the source; the builder
        // passes `source = t`, which is also exactly what the touring
        // simulation presents (`source = destination = start`).
        RoutingModel::DestinationOnly => (0..n).map(|t| (Node(t), Node(t))).collect(),
        RoutingModel::SourceDestination => (0..n)
            .flat_map(|s| (0..n).map(move |t| (Node(s), Node(t))))
            .collect(),
    }
}

fn wrap_tables(model: RoutingModel, mut tables: Vec<RuleTable>) -> Tables {
    match model {
        RoutingModel::Touring => Tables::Uniform(tables.pop().expect("one uniform table")),
        RoutingModel::DestinationOnly => Tables::PerDestination(tables),
        RoutingModel::SourceDestination => Tables::PerPair(tables),
    }
}

/// Compiles any [`ForwardingPattern`] by exhaustive local-context
/// enumeration: for every state `(v, in-port)` of every header table, the
/// pattern is evaluated on **all** `2^deg(v)` incident-failure subsets, the
/// answers are normalized (drops, forwards onto failed or non-existent links
/// and forwards that the simulator would fault on all become "drop" — the
/// simulators render every one of them as the same `Stuck`/break), and the
/// per-state decision function is stored as a priority list when one
/// reproduces it on every reachable context (verified exhaustively), or as a
/// dense failed-mask-indexed map otherwise.
///
/// Returns `None` if some node has degree ≥ 64 or the total enumeration
/// exceeds [`TABULATE_CONTEXT_BUDGET`].
pub fn tabulate<P: ForwardingPattern + ?Sized>(g: &Graph, pattern: &P) -> Option<CompiledPattern> {
    let model = pattern.model();
    let n = g.node_count();
    let csr = PortGraph::new(g);
    let per_table = tabulate_cost_per_table(&csr)?;
    let headers = header_pairs(model, n);
    if per_table.checked_mul(headers.len().max(1) as u64)? > TABULATE_CONTEXT_BUDGET {
        return None;
    }

    let mut decisions: Vec<u32> = Vec::new();
    let mut failed_buf: Vec<Node> = Vec::new();
    let mut tables = Vec::with_capacity(headers.len());
    for &(source, destination) in &headers {
        tables.push(tabulate_table(
            g,
            &csr,
            pattern,
            source,
            destination,
            &mut decisions,
            &mut failed_buf,
        ));
    }
    Some(CompiledPattern::new(
        model,
        pattern.name(),
        csr,
        wrap_tables(model, tables),
    ))
}

/// Tabulates only destination `t`'s table of a **destination-only** pattern
/// — the default implementation of [`CompilePattern::compile_destination`].
///
/// Refuses (`None`) for other routing models, out-of-range `t`, a node of
/// degree ≥ 64, or a per-table context count above
/// [`TABULATE_CONTEXT_BUDGET`] (note: the budget gates one table here, not
/// the whole per-destination family, so a graph whose full [`tabulate`] is
/// over budget can still compile destination by destination).
pub fn tabulate_destination<P: ForwardingPattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    t: Node,
) -> Option<CompiledPattern> {
    if pattern.model() != RoutingModel::DestinationOnly || t.index() >= g.node_count() {
        return None;
    }
    let csr = PortGraph::new(g);
    let per_table = tabulate_cost_per_table(&csr)?;
    if per_table > TABULATE_CONTEXT_BUDGET {
        return None;
    }
    let mut decisions: Vec<u32> = Vec::new();
    let mut failed_buf: Vec<Node> = Vec::new();
    // Destination-only headers pass `source = t`, exactly like `tabulate`.
    let table = tabulate_table(g, &csr, pattern, t, t, &mut decisions, &mut failed_buf);
    Some(CompiledPattern::new(
        RoutingModel::DestinationOnly,
        pattern.name(),
        csr,
        Tables::SingleDestination {
            destination: t.index() as u32,
            table,
        },
    ))
}

/// Total local contexts one header table costs to tabulate
/// (`Σ_v (deg(v)+1)·2^deg(v)`); `None` on a degree ≥ 64 or overflow.
fn tabulate_cost_per_table(csr: &PortGraph) -> Option<u64> {
    let mut per_table: u64 = 0;
    for v in 0..csr.n {
        let deg = csr.degree(v) as u64;
        if deg >= 64 {
            return None;
        }
        per_table = per_table.checked_add((deg + 1).checked_mul(1u64 << deg)?)?;
    }
    Some(per_table)
}

/// Tabulates one header's rule table by exhaustive local-context enumeration
/// (the shared body of [`tabulate`] and [`tabulate_destination`]).
fn tabulate_table<P: ForwardingPattern + ?Sized>(
    g: &Graph,
    csr: &PortGraph,
    pattern: &P,
    source: Node,
    destination: Node,
    decisions: &mut Vec<u32>,
    failed_buf: &mut Vec<Node>,
) -> RuleTable {
    let n = csr.n;
    let mut offsets: Vec<u32> = vec![0];
    let mut rules: Vec<u32> = Vec::new();
    for v in 0..n {
        let neighbors = csr.ports_of(v).to_vec();
        let deg = neighbors.len() as u32;
        for inport_idx in 0..=deg {
            let inport = (inport_idx < deg).then(|| Node(neighbors[inport_idx as usize] as usize));
            decisions.clear();
            for mask in 0..(1u64 << deg) {
                // Contexts failing the in-port link are unreachable (the
                // packet arrived over it); never evaluated, never read.
                if inport_idx < deg && mask & (1u64 << inport_idx) != 0 {
                    decisions.push(DROP);
                    continue;
                }
                failed_buf.clear();
                failed_buf.extend(
                    neighbors
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| mask & (1u64 << i) != 0)
                        .map(|(_, &u)| Node(u as usize)),
                );
                let ctx = LocalContext {
                    node: Node(v),
                    inport,
                    source,
                    destination,
                    failed_neighbors: failed_buf,
                    graph: g,
                };
                let decision = match pattern.next_hop(&ctx) {
                    None => DROP,
                    Some(h) => match csr.port_of(v, h.index()) {
                        // Non-neighbor or failed link: the simulator
                        // faults (Stuck / tour break) exactly as on a
                        // drop, at the same hop with the same path.
                        None => DROP,
                        Some(p) if mask & (1u64 << p) != 0 => DROP,
                        Some(p) => p,
                    },
                };
                decisions.push(decision);
            }
            push_state_rules(
                &mut rules,
                decisions,
                deg,
                (inport_idx < deg).then_some(inport_idx),
            );
            offsets.push(rules.len() as u32);
        }
    }
    RuleTable {
        offsets: offsets.into(),
        rules: rules.into(),
    }
}

/// Appends one state's rules to the arena: a verified priority list if the
/// decision function admits one, otherwise the dense map.
fn push_state_rules(rules: &mut Vec<u32>, decisions: &[u32], deg: u32, inport_idx: Option<u32>) {
    if let Some(list) = as_priority_list(decisions, deg, inport_idx) {
        rules.extend(list);
    } else {
        rules.push(DENSE);
        rules.extend_from_slice(decisions);
    }
}

/// Tries to express a state's decision function (`decisions[mask]` over all
/// `2^deg` failed-port masks) as a fixed priority list under first-alive
/// semantics.  The candidate is built greedily — fail the chosen port,
/// re-evaluate, repeat — and then verified against every reachable mask.
fn as_priority_list(decisions: &[u32], deg: u32, inport_idx: Option<u32>) -> Option<Vec<u32>> {
    let reachable = |mask: u64| inport_idx.is_none_or(|p| mask & (1u64 << p) == 0);
    let mut list = Vec::new();
    let mut failed = 0u64;
    loop {
        if !reachable(failed) {
            // The greedy prefix killed the in-port link: every context that
            // would read deeper entries is unreachable.
            break;
        }
        let d = decisions[failed as usize];
        if d == DROP {
            break;
        }
        list.push(d);
        failed |= 1u64 << d;
        if list.len() as u32 == deg {
            break;
        }
    }
    for mask in 0..(1u64 << deg) {
        if !reachable(mask) {
            continue;
        }
        let expected = decisions[mask as usize];
        let got = list
            .iter()
            .copied()
            .find(|&p| mask & (1u64 << p) == 0)
            .unwrap_or(DROP);
        if got != expected {
            return None;
        }
    }
    Some(list)
}

/// Compiles a pattern whose rules are priority lists of neighbor nodes.
///
/// `rule(source, destination, node, inport, out)` fills `out` (cleared by the
/// caller) with the node's priority order for that state; entries that are
/// not neighbors of `node` are skipped (they can never be alive — matching
/// the `is_alive` scan semantics every list-shaped interpreter uses), and
/// duplicate ports keep their first position.  The header pairs follow the
/// model exactly like [`tabulate`] (touring: one placeholder header;
/// destination-only: `source = t`).
///
/// Returns `None` if some node has degree ≥ 64.
pub fn compile_lists<F>(
    g: &Graph,
    model: RoutingModel,
    name: Cow<'static, str>,
    rule: F,
) -> Option<CompiledPattern>
where
    F: FnMut(Node, Node, Node, Option<Node>, &mut Vec<Node>),
{
    compile_port_lists(
        PortGraph::new(g),
        model,
        name,
        node_lists(g.node_count(), rule),
    )
}

/// [`node_lists`]' entry for a node that is not a neighbor of the current
/// node.
const NO_PORT: u32 = u32::MAX;

/// Adapts a node-level list rule of [`compile_lists`] to the port-level
/// builder.  Each node's entries are translated through a `node → port` map
/// that is filled in `O(deg)` before the node's states and cleared after
/// them, so a rule entry costs one bounds-checked lookup; non-neighbors and
/// ids past the last node map to nothing and are skipped.
fn node_lists<F>(n: usize, mut rule: F) -> impl FnMut(Node, Node, &mut NodeStates<'_>)
where
    F: FnMut(Node, Node, Node, Option<Node>, &mut Vec<Node>),
{
    let mut port_at = vec![NO_PORT; n];
    let mut out: Vec<Node> = Vec::new();
    move |source: Node, destination: Node, states: &mut NodeStates<'_>| {
        let (v, ports) = (Node(states.node()), states.ports());
        for (p, &u) in ports.iter().enumerate() {
            port_at[u as usize] = p as u32;
        }
        for inport_idx in 0..=ports.len() {
            let inport = ports.get(inport_idx).map(|&u| Node(u as usize));
            out.clear();
            rule(source, destination, v, inport, &mut out);
            for u in &out {
                match port_at.get(u.index()) {
                    Some(&p) if p != NO_PORT => states.push(p),
                    _ => {}
                }
            }
            states.end_state();
        }
        for &u in ports {
            port_at[u as usize] = NO_PORT;
        }
        debug_assert!(
            port_at.iter().all(|&p| p == NO_PORT),
            "port map entry left over from {v}"
        );
    }
}

/// One node's states while its rules are written into a table.  A
/// port-level rule emits the priority list of every state of the node in
/// state order — in-ports `0..deg`, then `⊥` — pushing local out-ports and
/// closing each state with [`NodeStates::end_state`].  Duplicate ports keep
/// their first position.
pub(crate) struct NodeStates<'a> {
    csr: &'a PortGraph,
    v: usize,
    rules: &'a mut Vec<u32>,
    offsets: &'a mut Vec<u32>,
    /// Ports already in the open state's list.
    seen: u64,
}

impl<'a> NodeStates<'a> {
    /// The node whose states are being written.
    #[inline]
    pub(crate) fn node(&self) -> usize {
        self.v
    }

    /// The node's ascending neighbor slice (local port `p` leads to
    /// `ports()[p]`).
    #[inline]
    pub(crate) fn ports(&self) -> &'a [u32] {
        self.csr.ports_of(self.v)
    }

    /// The node's degree; in-port index `degree()` is the `⊥` state.
    #[inline]
    pub(crate) fn degree(&self) -> u32 {
        self.csr.degree(self.v)
    }

    /// The node's first state id ([`PortGraph::state_base`]).
    #[inline]
    pub(crate) fn state_base(&self) -> usize {
        self.csr.state_base(self.v) as usize
    }

    /// The local port leading to `u`, if `u` is a neighbor.
    #[inline]
    pub(crate) fn port_of(&self, u: Node) -> Option<u32> {
        self.csr.port_of(self.v, u.index())
    }

    /// Appends local port `p` to the open state's list unless it is already
    /// there.
    #[inline]
    pub(crate) fn push(&mut self, p: u32) {
        debug_assert!(p < self.degree(), "port {p} out of range at {}", self.v);
        if self.seen & (1u64 << p) == 0 {
            self.seen |= 1u64 << p;
            self.rules.push(p);
        }
    }

    /// Closes the open state's list; the next push opens the next state.
    #[inline]
    pub(crate) fn end_state(&mut self) {
        self.offsets.push(self.rules.len() as u32);
        self.seen = 0;
    }
}

/// Compiles a pattern whose rules are priority lists of local ports over
/// `csr` — the builder behind [`compile_lists`] and the port-level compilers
/// of [`crate::pattern`].  `rule(source, destination, states)` writes every
/// state of `states.node()` (see [`NodeStates`]); the header pairs follow
/// the model exactly like [`compile_lists`].
///
/// Returns `None` if some node has degree ≥ 64.
pub(crate) fn compile_port_lists<F>(
    csr: PortGraph,
    model: RoutingModel,
    name: Cow<'static, str>,
    mut rule: F,
) -> Option<CompiledPattern>
where
    F: FnMut(Node, Node, &mut NodeStates<'_>),
{
    let rule_bound = max_list_words(&csr)?;
    let tables = header_pairs(model, csr.n)
        .into_iter()
        .map(|(source, destination)| lists_table(&csr, source, destination, &mut rule, rule_bound))
        .collect();
    Some(CompiledPattern::new(
        model,
        name,
        csr,
        wrap_tables(model, tables),
    ))
}

/// [`compile_port_lists`] for only destination `t`'s table of a
/// destination-only pattern.
///
/// Returns `None` if some node has degree ≥ 64 or `t` is out of range.
pub(crate) fn compile_port_lists_destination<F>(
    csr: PortGraph,
    name: Cow<'static, str>,
    t: Node,
    mut rule: F,
) -> Option<CompiledPattern>
where
    F: FnMut(Node, Node, &mut NodeStates<'_>),
{
    if t.index() >= csr.n {
        return None;
    }
    let rule_bound = max_list_words(&csr)?;
    // Destination-only headers pass `source = t`, exactly like the full
    // compile.
    let table = lists_table(&csr, t, t, &mut rule, rule_bound);
    Some(CompiledPattern::new(
        RoutingModel::DestinationOnly,
        name,
        csr,
        Tables::SingleDestination {
            destination: t.index() as u32,
            table,
        },
    ))
}

/// The most rule words one list table can hold (every state's list has at
/// most `deg` distinct ports); `None` if some node has degree ≥ 64.
fn max_list_words(csr: &PortGraph) -> Option<usize> {
    (0..csr.n)
        .map(|v| csr.degree(v) as usize)
        .try_fold(0, |sum, deg| (deg < 64).then_some(sum + (deg + 1) * deg))
}

/// Builds one header's rule table from port-level priority lists (the one
/// list-table builder, shared by every list compile).
fn lists_table<F>(
    csr: &PortGraph,
    source: Node,
    destination: Node,
    rule: &mut F,
    rule_bound: usize,
) -> RuleTable
where
    F: FnMut(Node, Node, &mut NodeStates<'_>),
{
    let mut offsets: Vec<u32> = Vec::with_capacity(csr.state_count() + 1);
    offsets.push(0);
    let mut rules: Vec<u32> = Vec::with_capacity(rule_bound);
    for v in 0..csr.n {
        let mut states = NodeStates {
            csr,
            v,
            rules: &mut rules,
            offsets: &mut offsets,
            seen: 0,
        };
        rule(source, destination, &mut states);
        debug_assert_eq!(
            offsets.len(),
            csr.state_base(v) as usize + csr.degree(v) as usize + 2,
            "node {v} must close exactly deg + 1 states"
        );
    }
    RuleTable {
        offsets: offsets.into(),
        rules: rules.into(),
    }
}

/// Reusable scratch for routing on compiled patterns against materialized
/// [`FailureSet`]s: per-node failed-port masks and the packed
/// `(node, in-port)` visited-state bitset.  Both are sized once per pattern
/// shape and reused — a route allocates only its reported path.
#[derive(Debug, Clone)]
pub struct CompiledSim {
    failed_ports: Vec<u64>,
    seen: Vec<u64>,
}

impl CompiledSim {
    /// Scratch sized for `cp`'s graph shape.
    pub fn new(cp: &CompiledPattern) -> Self {
        CompiledSim {
            failed_ports: vec![0; cp.csr.n],
            seen: vec![0; cp.csr.state_count().div_ceil(WORD_BITS).max(1)],
        }
    }

    /// Installs `failures` as per-node failed-port masks (links absent from
    /// the compiled graph are ignored, exactly as `is_alive` would).
    pub fn load_failures(&mut self, cp: &CompiledPattern, failures: &FailureSet) {
        self.failed_ports.fill(0);
        for e in failures.iter() {
            let (u, v) = (e.u().index(), e.v().index());
            if u >= cp.csr.n || v >= cp.csr.n {
                continue;
            }
            if let (Some(pu), Some(pv)) = (cp.csr.port_of(u, v), cp.csr.port_of(v, u)) {
                self.failed_ports[u] |= 1u64 << pu;
                self.failed_ports[v] |= 1u64 << pv;
            }
        }
    }

    #[inline]
    fn insert_state(&mut self, cp: &CompiledPattern, v: usize, inport_idx: u32) -> bool {
        let i = (cp.csr.state_base(v) + inport_idx) as usize;
        let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        let fresh = self.seen[w] & b == 0;
        self.seen[w] |= b;
        fresh
    }

    /// Routes one packet on the loaded failures; semantics (outcome, path,
    /// hop count) are identical to [`crate::simulator::route`] with the
    /// interpreted source pattern.
    pub fn route(
        &mut self,
        cp: &CompiledPattern,
        source: Node,
        destination: Node,
        max_hops: usize,
    ) -> RouteResult {
        let mut path = vec![source];
        if source == destination {
            return RouteResult {
                outcome: Outcome::Delivered,
                path,
                hops: 0,
            };
        }
        self.seen.fill(0);
        let table = cp.table(source, destination);
        let mut v = source.index();
        let mut inport_idx = cp.csr.degree(v);
        self.insert_state(cp, v, inport_idx);
        let mut hops = 0usize;
        loop {
            if hops >= max_hops {
                return RouteResult {
                    outcome: Outcome::HopLimit,
                    path,
                    hops,
                };
            }
            let port = match cp.decide(table, v, inport_idx, self.failed_ports[v]) {
                Some(p) => p as usize,
                None => {
                    return RouteResult {
                        outcome: Outcome::Stuck,
                        path,
                        hops,
                    }
                }
            };
            v = cp.csr.ports[port] as usize;
            inport_idx = cp.csr.reverse_port[port];
            hops += 1;
            path.push(Node(v));
            if v == destination.index() {
                return RouteResult {
                    outcome: Outcome::Delivered,
                    path,
                    hops,
                };
            }
            if !self.insert_state(cp, v, inport_idx) {
                return RouteResult {
                    outcome: Outcome::Loop,
                    path,
                    hops,
                };
            }
        }
    }
}

/// A pattern on a graph, forwarding on its compiled tables when it has them
/// and through the reference interpreter ([`crate::simulator`]) otherwise.
///
/// [`Forwarder::new`] compiles once and catches a panicking `compile`: a
/// compile that panics is treated like one that refuses, so the pattern
/// keeps the interpreter.  If the pattern also misbehaves at forwarding
/// time, the caller's probe isolation reports that where it happens.  Both
/// engines give the same outcomes, paths and hop counts, with the
/// state-space hop bound [`state_space_bound`].
///
/// The sweep engine's all-pairs check also asks it, once, for the
/// failure-free delivery forests of the tables
/// ([`crate::sweep::SweepEngine::first_undelivered`]); they are built on
/// that first request and shared by every worker.
pub struct Forwarder<'a, P: ?Sized> {
    graph: &'a Graph,
    pattern: &'a P,
    tables: Option<CompiledPattern>,
    max_hops: usize,
    forests: OnceLock<Option<DeliveryForests>>,
}

impl<'a, P: CompilePattern + ?Sized> Forwarder<'a, P> {
    /// Compiles `pattern` for `g`, keeping the interpreter if compilation is
    /// refused or panics.
    pub fn new(g: &'a Graph, pattern: &'a P) -> Self {
        let tables = catch_unwind(AssertUnwindSafe(|| pattern.compile(g)))
            .ok()
            .flatten();
        Forwarder {
            tables,
            ..Forwarder::interpreted(g, pattern)
        }
    }

    /// A forwarder that never compiles: the interpreter forwards every
    /// packet.
    pub(crate) fn interpreted(g: &'a Graph, pattern: &'a P) -> Self {
        Forwarder {
            graph: g,
            pattern,
            tables: None,
            max_hops: state_space_bound(g),
            forests: OnceLock::new(),
        }
    }
}

impl<P: ForwardingPattern + ?Sized> Forwarder<'_, P> {
    /// The compiled tables, or `None` when the interpreter forwards.
    pub fn tables(&self) -> Option<&CompiledPattern> {
        self.tables.as_ref()
    }

    /// The source pattern.
    pub fn pattern(&self) -> &P {
        self.pattern
    }

    /// The hop bound every route and tour runs under.
    pub(crate) fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// The failure-free delivery forests of the compiled tables, built on
    /// the first call; `None` without per-destination tables or when some
    /// connected pair is not delivered even without failures (see
    /// [`DeliveryForests::build`]).
    pub(crate) fn forests(&self) -> Option<&DeliveryForests> {
        self.forests
            .get_or_init(|| {
                let cp = self.tables.as_ref()?;
                DeliveryForests::build(self.graph, cp)
            })
            .as_ref()
    }

    /// Fresh per-worker scratch for [`Forwarder::route`]: the compiled
    /// simulator's buffers, or `None` when the interpreter forwards.
    pub fn scratch(&self) -> Option<CompiledSim> {
        self.tables.as_ref().map(CompiledSim::new)
    }

    /// Routes one packet from `source` to `destination` under `failures`,
    /// exactly like [`crate::simulator::route`].
    pub fn route(
        &self,
        scratch: &mut Option<CompiledSim>,
        failures: &FailureSet,
        source: Node,
        destination: Node,
    ) -> RouteResult {
        match (&self.tables, scratch) {
            (Some(cp), Some(sim)) => {
                sim.load_failures(cp, failures);
                sim.route(cp, source, destination, self.max_hops)
            }
            _ => route(
                self.graph,
                failures,
                self.pattern,
                source,
                destination,
                self.max_hops,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{FnPattern, RotorPattern, ShortestPathPattern};
    use crate::simulator::{route, state_space_bound, tour};
    use frr_graph::generators;

    #[test]
    fn port_graph_csr_layout() {
        let g = generators::path(3);
        let pg = PortGraph::new(&g);
        assert_eq!(pg.node_count(), 3);
        assert_eq!(pg.port_count(), 4);
        assert_eq!(pg.state_count(), 7);
        assert_eq!(pg.ports_of(1), &[0, 2]);
        assert_eq!(pg.degree(0), 1);
        assert_eq!(pg.port_of(1, 2), Some(1));
        assert_eq!(pg.port_of(0, 2), None);
        // Reverse ports round-trip: following port p out of v lands at a
        // state whose in-port slot names v again.
        for v in 0..3usize {
            for (p, &u) in pg.ports_of(v).iter().enumerate() {
                let gp = pg.port_offset[v] as usize + p;
                let back = pg.reverse_port[gp] as usize;
                assert_eq!(pg.ports_of(u as usize)[back] as usize, v);
            }
        }
    }

    #[test]
    fn single_destination_compile_matches_the_full_compile_slice() {
        // Direct compilers (rotor, shortest-path) and the generic tabulator:
        // routing on `compile_destination(g, t)` must be identical to routing
        // on the `t` slice of `compile(g)` for every source and failure set.
        let graphs = [
            generators::cycle(6),
            generators::complete(5),
            generators::petersen(),
        ];
        for g in &graphs {
            let patterns: Vec<Box<dyn CompilePattern>> = vec![
                Box::new(RotorPattern::clockwise_with_shortcut(g)),
                Box::new(ShortestPathPattern::new(g)),
                Box::new(FnPattern::new(
                    RoutingModel::DestinationOnly,
                    "first-alive",
                    |ctx: &LocalContext<'_>| ctx.alive_neighbors().first().copied(),
                )),
            ];
            let max_hops = state_space_bound(g);
            for pattern in &patterns {
                let full = pattern.compile(g).expect("within budget");
                for t in g.nodes() {
                    let single = pattern
                        .compile_destination(g, t)
                        .expect("destination-only pattern");
                    assert_eq!(single.destination(), Some(t));
                    assert_eq!(single.model(), RoutingModel::DestinationOnly);
                    let mut sim_full = CompiledSim::new(&full);
                    let mut sim_single = CompiledSim::new(&single);
                    // Sample the failure sets: empty, every single link.
                    let mut masks = vec![0u64];
                    masks.extend((0..g.edge_count()).map(|i| 1u64 << i));
                    for mask in masks {
                        let failures = crate::failure::FailureSet::from_mask(&g.edges(), &[mask]);
                        sim_full.load_failures(&full, &failures);
                        sim_single.load_failures(&single, &failures);
                        for s in g.nodes() {
                            let a = sim_full.route(&full, s, t, max_hops);
                            let b = sim_single.route(&single, s, t, max_hops);
                            assert_eq!(a.outcome, b.outcome, "{} {s}->{t} F={mask:b}", full.name());
                            assert_eq!(a.path, b.path);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_destination_compile_refuses_other_models() {
        let g = generators::cycle(5);
        let touring = RotorPattern::clockwise(&g);
        assert!(touring.compile_destination(&g, Node(0)).is_none());
        assert!(tabulate_destination(&g, &touring, Node(0)).is_none());
        let sp = ShortestPathPattern::new(&g);
        assert!(
            sp.compile_destination(&g, Node(9)).is_none(),
            "out of range"
        );
    }

    #[test]
    fn compiled_pattern_extracts_its_own_destination_slice() {
        let g = generators::complete(4);
        let full = ShortestPathPattern::new(&g).compile(&g).expect("compiles");
        let slice = full
            .compile_destination(&g, Node(2))
            .expect("per-destination slice");
        assert_eq!(slice.destination(), Some(Node(2)));
        // Re-slicing the slice for the same destination is the identity; a
        // different destination is refused.
        assert!(slice.compile_destination(&g, Node(2)).is_some());
        assert!(slice.compile_destination(&g, Node(1)).is_none());
    }

    #[test]
    fn digests_are_stable_and_destination_sensitive() {
        let g = generators::petersen();
        let p = ShortestPathPattern::new(&g);
        let a = p.compile_destination(&g, Node(3)).expect("compiles");
        let b = p.compile_destination(&g, Node(3)).expect("compiles");
        assert_eq!(a.digest(), b.digest(), "same build, same digest");
        let c = p.compile_destination(&g, Node(4)).expect("compiles");
        assert_ne!(a.digest(), c.digest(), "different destination");
        let full = p.compile(&g).expect("compiles");
        assert_ne!(a.digest(), full.digest(), "slice differs from full");
    }

    #[test]
    fn cached_digest_always_equals_a_fresh_hash() {
        let g = generators::wheel(7);
        let p = ShortestPathPattern::new(&g);
        let full = p.compile(&g).expect("compiles");
        // Cloned before and after the cache is filled.
        let early = full.clone();
        assert_eq!(full.digest(), full.fresh_digest());
        let late = full.clone();
        assert_eq!(early.digest(), full.fresh_digest());
        assert_eq!(late.digest(), full.fresh_digest());
        for t in g.nodes() {
            // A slice of a (cached) whole-graph compile hashes its own tables.
            let slice = full
                .compile_destination(&g, t)
                .expect("per-destination slice");
            assert_eq!(slice.digest(), slice.fresh_digest(), "slice {t}");
            assert_ne!(slice.digest(), full.digest(), "slice {t}");
            let direct = p.compile_destination(&g, t).expect("compiles");
            assert_eq!(direct.digest(), direct.fresh_digest(), "direct {t}");
        }
    }

    #[test]
    fn tabulated_rotor_matches_interpreter_everywhere() {
        let g = generators::complete(4);
        let p = RotorPattern::clockwise_with_shortcut(&g);
        let cp = tabulate(&g, &p).expect("within budget");
        assert_eq!(cp.model(), RoutingModel::DestinationOnly);
        assert_eq!(cp.name(), p.name());
        let max_hops = state_space_bound(&g);
        let mut sim = CompiledSim::new(&cp);
        for mask in 0..(1u64 << g.edge_count()) {
            let failures = crate::failure::FailureSet::from_mask(&g.edges(), &[mask]);
            sim.load_failures(&cp, &failures);
            for s in g.nodes() {
                for t in g.nodes() {
                    let expected = route(&g, &failures, &p, s, t, max_hops);
                    assert_eq!(sim.route(&cp, s, t, max_hops), expected, "mask {mask:#b}");
                }
            }
        }
    }

    #[test]
    fn dense_fallback_is_exact_for_non_list_patterns() {
        // A decision function that is provably not a priority list: forward
        // to the *largest* alive neighbor when ≥ 2 are alive, else to the
        // single alive one.  (First-alive lists cannot express "the answer
        // changes when a later entry dies".)
        let g = generators::complete(4);
        let p = FnPattern::new(RoutingModel::Touring, "largest-unless-lonely", |ctx| {
            let alive = ctx.alive_neighbors();
            match alive.len() {
                0 => None,
                1 => Some(alive[0]),
                _ => alive.last().copied(),
            }
        });
        let cp = tabulate(&g, &p).expect("within budget");
        // At least one state must have needed the dense encoding.
        assert!(cp.rule_words() > 0);
        let max_hops = state_space_bound(&g);
        for mask in 0..(1u64 << g.edge_count()) {
            let failures = crate::failure::FailureSet::from_mask(&g.edges(), &[mask]);
            for s in g.nodes() {
                assert_eq!(
                    tour(&g, &failures, &cp, s, max_hops),
                    tour(&g, &failures, &p, s, max_hops),
                    "mask {mask:#b}, start {s}"
                );
            }
        }
    }

    #[test]
    fn compiled_pattern_is_a_forwarding_pattern() {
        let g = generators::cycle(5);
        let p = ShortestPathPattern::new(&g);
        let cp = tabulate(&g, &p).expect("within budget");
        let max_hops = state_space_bound(&g);
        for mask in 0..(1u64 << g.edge_count()) {
            let failures = crate::failure::FailureSet::from_mask(&g.edges(), &[mask]);
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        route(&g, &failures, &cp, s, t, max_hops),
                        route(&g, &failures, &p, s, t, max_hops),
                    );
                }
            }
        }
        // Re-compiling a compiled pattern is the identity.
        let again = cp.compile(&g).expect("clone");
        assert_eq!(again.rule_words(), cp.rule_words());
    }

    #[test]
    fn tabulate_refuses_oversized_enumerations() {
        // Source–destination model on a 20-node star: 400 tables × 2^19
        // hub contexts blows the budget.
        let g = generators::star(19);
        let p = FnPattern::new(RoutingModel::SourceDestination, "any", |ctx| {
            ctx.alive_neighbors().first().copied()
        });
        assert!(tabulate(&g, &p).is_none());
    }

    /// Every state's priority list of `table`, in state order.
    fn state_lists(table: &RuleTable) -> Vec<Vec<u32>> {
        table
            .offsets
            .windows(2)
            .map(|w| table.rules[w[0] as usize..w[1] as usize].to_vec())
            .collect()
    }

    #[test]
    fn compile_lists_skips_non_neighbors_and_duplicates() {
        let g = generators::path(3);
        let cp = compile_lists(
            &g,
            RoutingModel::Touring,
            Cow::Borrowed("listy"),
            |_, _, _v, _, out| {
                out.push(Node(2)); // not a neighbor of node 0: skipped there
                out.push(Node(1));
                out.push(Node(1)); // duplicate: kept once
            },
        )
        .expect("degrees below 64");
        let failures = FailureSet::new();
        let mut sim = CompiledSim::new(&cp);
        sim.load_failures(&cp, &failures);
        let r = sim.route(&cp, Node(0), Node(1), 10);
        assert_eq!(r.outcome, Outcome::Delivered);
        assert_eq!(r.path, vec![Node(0), Node(1)]);

        // Entry by entry on K4 (every node has three ports): ids past the
        // last node (a table row may name any node), the node itself, the
        // in-port (a legal entry), and a head entry moved up front and
        // repeated later, as the shortest-path lists do with `t`.
        let g = generators::complete(4);
        let cp = compile_lists(
            &g,
            RoutingModel::Touring,
            Cow::Borrowed("edgy"),
            |_, _, v, inport, out| {
                let neighbors = g.neighbors_vec(v);
                let head = *neighbors.last().expect("degree 3");
                out.extend([Node(usize::MAX), Node(4), Node(4 + 64), v]);
                out.extend(inport);
                out.push(head);
                out.extend(&neighbors);
                out.extend(inport);
            },
        )
        .expect("degrees below 64");
        let lists = state_lists(cp.table(Node(0), Node(0)));
        assert_eq!(lists.len(), cp.csr().state_count());
        for v in 0..4 {
            let base = cp.csr().state_base(v) as usize;
            for inport_idx in 0..=3u32 {
                // Port 2 is the moved head; the in-port leads when present.
                let mut expected: Vec<u32> = Vec::new();
                for p in [inport_idx, 2, 0, 1, 2] {
                    if p < 3 && !expected.contains(&p) {
                        expected.push(p);
                    }
                }
                assert_eq!(
                    lists[base + inport_idx as usize],
                    expected,
                    "node {v}, in-port {inport_idx}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_compiles() {
        let g = Graph::new(0);
        let p = RotorPattern::clockwise(&g);
        let cp = tabulate(&g, &p).expect("trivially within budget");
        assert_eq!(cp.csr().state_count(), 0);
    }
}

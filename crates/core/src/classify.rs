//! The §VIII classification engine: given a network, decide for each routing
//! model whether perfect resilience is possible, impossible, possible for some
//! destinations only ("sometimes"), or unknown.
//!
//! The decision procedure mirrors the paper's methodology:
//!
//! * **Touring** — possible iff the graph is outerplanar (Corollary 6, an
//!   exact characterization).
//! * **Destination-only** — impossible if a `K5^{-1}` or `K3,3^{-1}` minor is
//!   found (Theorems 10/11; any non-planar graph qualifies immediately),
//!   possible if the graph is outerplanar, *sometimes* if some destination's
//!   removal leaves an outerplanar remainder (Corollary 5), otherwise unknown.
//! * **Source–destination** — impossible if a `K7^{-1}` or `K4,4^{-1}` minor
//!   is found (Theorems 6/7), possible if the graph is outerplanar or has at
//!   most five nodes (Theorem 8) or is bipartite within `K3,3` (Theorem 9),
//!   *sometimes* / unknown as above.
//!
//! The whole pipeline runs on the packed [`BitGraph`] substrate: planarity
//! and outerplanarity take the bitset entry points, destination probes are
//! vertex-deletion overlays (no `g.clone()` per probe), and the forbidden
//! minor searches run on the reusable packed [`MinorEngine`].  [`batch`]
//! classifies a whole topology list on the workspace's sharded runner
//! ([`frr_routing::budget::sharded_first_controlled`]) with a deterministic
//! index-keyed merge and a run-wide minor-verdict cache.

use frr_graph::budget::StopSignal;
use frr_graph::minors::{forbidden, MinorAnswer, MinorEngine};
use frr_graph::outerplanar::{is_outerplanar_without, OuterplanarScratch};
use frr_graph::planarity::is_planar_bit;
use frr_graph::{BitGraph, Graph, Node};
use frr_routing::budget::{sharded_first_controlled, RunBudget, ShardEvent};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Feasibility of perfect resilience in one routing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Feasibility {
    /// Perfect resilience is possible for every destination.
    Possible,
    /// Perfect resilience is possible for the given fraction of destinations
    /// (the paper's "sometimes" class); the fraction is in `(0, 1]`.
    Sometimes(f64),
    /// Perfect resilience is impossible (a forbidden minor was found, or the
    /// touring characterization rules it out).
    Impossible,
    /// The analysis could not decide within its budget.
    Unknown,
}

impl Feasibility {
    /// The class label used in the paper's Fig. 7 legend.
    pub fn label(&self) -> &'static str {
        match self {
            Feasibility::Possible => "Possible",
            Feasibility::Sometimes(_) => "Sometimes",
            Feasibility::Impossible => "Impossible",
            Feasibility::Unknown => "Unknown",
        }
    }
}

impl fmt::Display for Feasibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Feasibility::Sometimes(frac) => write!(f, "Sometimes({:.1}%)", frac * 100.0),
            other => write!(f, "{}", other.label()),
        }
    }
}

/// Work budgets for the (NP-hard) minor searches and the per-destination
/// outerplanarity sweep.
#[derive(Debug, Clone, Copy)]
pub struct ClassifyBudget {
    /// Budget per minor search (see [`frr_graph::minors::has_minor_with_budget`]).
    pub minor_budget: u64,
    /// Maximum number of destinations probed for the "sometimes" fraction;
    /// larger graphs are sampled deterministically (every `ceil(n/k)`-th node).
    pub max_destination_probes: usize,
}

impl Default for ClassifyBudget {
    fn default() -> Self {
        ClassifyBudget {
            minor_budget: 50_000,
            max_destination_probes: 150,
        }
    }
}

/// The classification of one network.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of links.
    pub edges: usize,
    /// Density `|E| / |V|` (the x/y measure of the paper's Fig. 8).
    pub density: f64,
    /// Whether the network is planar.
    pub planar: bool,
    /// Whether the network is outerplanar.
    pub outerplanar: bool,
    /// Feasibility of perfectly resilient touring (§VII).
    pub touring: Feasibility,
    /// Feasibility of destination-only perfect resilience (§V).
    pub destination_only: Feasibility,
    /// Feasibility of source–destination perfect resilience (§IV).
    pub source_destination: Feasibility,
}

/// Classifies a network with the default budget.
pub fn classify(g: &Graph) -> Classification {
    classify_with_budget(g, ClassifyBudget::default())
}

/// Classifies a network with an explicit budget.
pub fn classify_with_budget(g: &Graph, budget: ClassifyBudget) -> Classification {
    let b = BitGraph::from_graph(g);
    classify_impl(
        g,
        &b,
        budget,
        &mut Scratch::new(),
        None,
        &StopSignal::none(),
    )
}

/// Classifies every graph in `graphs`, sharding the list across the
/// workers of [`frr_routing::budget::sharded_first_controlled`].
///
/// Each worker owns its packed scratch (minor engine, outerplanarity
/// overlay buffers) and claims the next unclassified index from the
/// runner's shared counter; results land in per-index slots, so the output
/// is **byte-identical to the sequential path at any thread count**.
/// Forbidden-minor verdicts are cached across the whole run, keyed
/// by the canonical packed encoding of the graph and the pattern, so
/// repeated (sub)topologies pay for each search once.
pub fn batch(graphs: &[&Graph], budget: ClassifyBudget) -> Vec<Classification> {
    match batch_with_budget(graphs, budget, &RunBudget::unlimited()) {
        Ok(slots) => slots
            .into_iter()
            .map(|c| c.expect("unlimited batch classified every index"))
            .collect(),
        Err(p) => panic!("classification worker panicked: {p}"),
    }
}

/// A classification worker panicked while classifying one input graph.
///
/// Surfaced as a typed error by [`batch_with_budget`]; siblings wind down
/// cleanly instead of the whole batch aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyPanicked {
    /// Index into the input slice of the graph whose classification panicked.
    pub index: usize,
    /// The panic payload, when it carried a string.
    pub message: String,
}

impl fmt::Display for ClassifyPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "classification of graph {} panicked: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for ClassifyPanicked {}

/// [`batch`] under a [`RunBudget`]: deadline/cancellation-aware and
/// panic-isolated.
///
/// * Completed indices come back as `Some(classification)`; once the budget's
///   deadline expires or its [`frr_routing::budget::CancelToken`] fires, no
///   *new* graph is started and untouched slots stay `None`.  The stop signal
///   is also threaded into the in-flight minor searches, which wind down at
///   their next contraction poll and report an honest
///   [`Feasibility::Unknown`] rather than a fabricated verdict.
/// * A work budget of `w` classifies at most the first `w` graphs (one work
///   unit per graph), deterministically.
/// * A panic inside one graph's classification halts the batch: siblings
///   finish their current graph and stop, and the earliest-index panic is
///   returned as a typed [`ClassifyPanicked`] — the runner's merge makes it
///   the same panic at any worker count.
///
/// Under [`RunBudget::unlimited`] the output is byte-identical to [`batch`]
/// at any thread count.
pub fn batch_with_budget(
    graphs: &[&Graph],
    budget: ClassifyBudget,
    run: &RunBudget,
) -> Result<Vec<Option<Classification>>, ClassifyPanicked> {
    batch_with_budget_and_workers(graphs, budget, run, 0)
}

/// [`batch_with_budget`] with an explicit worker-thread count.
///
/// `workers = 0` sizes the pool to the available parallelism (the
/// [`batch_with_budget`] default); any other value pins the pool, which the
/// experiment bins expose as `--threads N`.  The output is byte-identical at
/// every worker count, so the flag trades wall-clock for core pressure
/// without touching results.
pub fn batch_with_budget_and_workers(
    graphs: &[&Graph],
    budget: ClassifyBudget,
    run: &RunBudget,
    workers: usize,
) -> Result<Vec<Option<Classification>>, ClassifyPanicked> {
    let cache = MinorCache::default();
    let stop = run.stop_signal();
    let quota = run
        .work_limit()
        .map_or(graphs.len(), |w| w.min(graphs.len() as u64) as usize);
    let slots: Vec<OnceLock<Classification>> = graphs.iter().map(|_| OnceLock::new()).collect();
    // Telemetry handles are created once per batch (cold); the per-graph
    // cost is one histogram record and one counter increment.  Wall-clock
    // readings stay inside the registry — classifications are pure functions
    // of their inputs either way.
    let registry = frr_obs::global();
    let graphs_done = registry.counter("classify.graphs");
    let graph_ns = registry.histogram("classify.graph_ns");
    let shard_ns = registry.histogram("classify.shard_ns");
    struct Worker<'a> {
        scratch: Scratch,
        started: Instant,
        shard_ns: &'a frr_obs::Histogram,
    }
    impl Drop for Worker<'_> {
        // Flush on drop so every exit — range exhausted, stop signal, probe
        // panic — still accounts the worker's minor-search work and shard
        // time, once per worker: the cold half of the "plain counters on the
        // hot path" contract (`frr-graph` itself takes no telemetry
        // dependency).
        fn drop(&mut self) {
            let stats = self.scratch.engine.take_memo_stats();
            frr_obs::global().add_counts([
                ("minors.memo_probes", stats.probes),
                ("minors.memo_hits", stats.hits),
                ("minors.memo_inserts", stats.inserts),
                ("minors.contractions", stats.contractions),
                ("minors.subiso_checks", stats.subiso_checks),
                ("minors.pruned", stats.pruned),
            ]);
            self.shard_ns.record_duration(self.started.elapsed());
        }
    }
    // One graph per claim and per stop poll: a classification is long
    // enough that finer-grained sharing never shows.
    let outcome = sharded_first_controlled(
        quota as u64,
        1,
        1,
        workers,
        &stop,
        || Worker {
            scratch: Scratch::new(),
            started: Instant::now(),
            shard_ns: &shard_ns,
        },
        |worker, i| {
            let g = graphs[i as usize];
            let b = BitGraph::from_graph(g);
            let started = Instant::now();
            let c = classify_impl(g, &b, budget, &mut worker.scratch, Some(&cache), &stop);
            graph_ns.record_duration(started.elapsed());
            graphs_done.inc();
            // Each index is claimed exactly once, so the slot is empty.
            let _ = slots[i as usize].set(c);
            None::<Infallible>
        },
    );
    registry.add_counts([
        ("classify.cache_hits", cache.hits.load(Ordering::Relaxed)),
        (
            "classify.cache_misses",
            cache.misses.load(Ordering::Relaxed),
        ),
    ]);
    match outcome.event {
        Some((index, ShardEvent::Panic(message))) => Err(ClassifyPanicked {
            index: index as usize,
            message,
        }),
        Some((_, ShardEvent::Hit(never))) => match never {},
        None => Ok(slots.into_iter().map(OnceLock::into_inner).collect()),
    }
}

/// Indices into [`Scratch::patterns`].
const P_K5M1: usize = 0;
const P_K33M1: usize = 1;
const P_K7M1: usize = 2;
const P_K44M1: usize = 3;

/// Reusable per-worker classification scratch.
struct Scratch {
    engine: MinorEngine,
    outer: OuterplanarScratch,
    patterns: [Graph; 4],
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            engine: MinorEngine::new(),
            outer: OuterplanarScratch::default(),
            patterns: [
                forbidden::k5_minus1(),
                forbidden::k33_minus1(),
                forbidden::k7_minus1(),
                forbidden::k44_minus1(),
            ],
        }
    }
}

/// Run-wide forbidden-minor verdict cache, keyed by the canonical packed
/// graph encoding with one verdict slot per pattern.  Verdicts are pure
/// functions of the key at a fixed budget, so cache hits cannot change
/// results — only skip repeated searches.  Lookups borrow the key as
/// `&[u64]`; the boxed key is cloned only on the first insert per graph.
type VerdictSlots = [Option<MinorAnswer>; 4];

#[derive(Default)]
struct MinorCache {
    map: Mutex<HashMap<Box<[u64]>, VerdictSlots>>,
    /// Verdicts answered from the cache / by a fresh search.  Atomics rather
    /// than plain fields because the cache is shared across workers; one
    /// relaxed increment per *verdict* (not per explored state) is noise
    /// next to the minor search it accounts for.
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Canonical labelled encoding of a graph: node count followed by the packed
/// adjacency words — the key the classification minor cache memoizes on.
pub fn canonical_key(b: &BitGraph) -> Box<[u64]> {
    let mut key = Vec::with_capacity(1 + b.words().len());
    key.push(b.node_count() as u64);
    key.extend_from_slice(b.words());
    key.into_boxed_slice()
}

fn minor_verdict(
    b: &BitGraph,
    which: usize,
    minor_budget: u64,
    scratch: &mut Scratch,
    cache: Option<&MinorCache>,
    graph_key: &mut Option<Box<[u64]>>,
    stop: &StopSignal,
) -> MinorAnswer {
    let Some(cache) = cache else {
        return scratch
            .engine
            .solve_bit_with_stop(b, &scratch.patterns[which], minor_budget, stop);
    };
    // A worker that panicked while holding the cache lock poisons it; the
    // cache only ever gains complete verdict slots, so the map is still
    // well-formed and siblings may keep using it.
    let key = graph_key.get_or_insert_with(|| canonical_key(b));
    if let Some(ans) = cache
        .map
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(key.as_ref())
        .and_then(|slots| slots[which])
    {
        cache.hits.fetch_add(1, Ordering::Relaxed);
        return ans;
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);
    let ans = scratch
        .engine
        .solve_bit_with_stop(b, &scratch.patterns[which], minor_budget, stop);
    // A stop-truncated Unknown is budget-honest but not a fixed point of the
    // key; caching it would leak this run's deadline into later lookups.
    if !stop.should_stop() {
        cache
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key.clone())
            .or_default()[which] = Some(ans);
    }
    ans
}

fn classify_impl(
    g: &Graph,
    b: &BitGraph,
    budget: ClassifyBudget,
    scratch: &mut Scratch,
    cache: Option<&MinorCache>,
    stop: &StopSignal,
) -> Classification {
    let planar = is_planar_bit(b);
    let outerplanar = planar && is_outerplanar_without(b, None, &mut scratch.outer);

    let touring = if outerplanar {
        Feasibility::Possible
    } else {
        Feasibility::Impossible
    };

    // The "sometimes" fraction is shared by both header-based models and is
    // only needed when the graph is not outerplanar, and only consulted when
    // no forbidden minor settles the class.
    let mut sometimes_fraction: Option<f64> = None;
    let mut graph_key: Option<Box<[u64]>> = None;

    let destination_only = if outerplanar {
        Feasibility::Possible
    } else if !planar {
        // Non-planar ⇒ K5 or K3,3 minor ⇒ K5^{-1} or K3,3^{-1} minor.
        Feasibility::Impossible
    } else {
        let k5m1 = minor_verdict(
            b,
            P_K5M1,
            budget.minor_budget,
            scratch,
            cache,
            &mut graph_key,
            stop,
        );
        let k33m1 = minor_verdict(
            b,
            P_K33M1,
            budget.minor_budget,
            scratch,
            cache,
            &mut graph_key,
            stop,
        );
        if k5m1.is_yes() || k33m1.is_yes() {
            Feasibility::Impossible
        } else {
            let frac = sometimes(b, budget, scratch, &mut sometimes_fraction);
            if frac > 0.0 {
                Feasibility::Sometimes(frac)
            } else {
                // Not outerplanar, no good destination — whether or not the
                // minor searches were exhaustive, the paper's methodology
                // cannot decide this case.
                Feasibility::Unknown
            }
        }
    };

    let source_destination = if outerplanar || g.node_count() <= 5 {
        // Outerplanar graphs and all graphs on at most five nodes are possible
        // (Corollary 6 ⊆ Theorem 8's minors, respectively Theorem 8 itself).
        Feasibility::Possible
    } else if fits_in_k33(g) {
        // Theorem 9: K3,3 and its subgraphs.
        Feasibility::Possible
    } else {
        let forbidden_found = if planar {
            // K7^{-1} and K4,4^{-1} are non-planar, so planar graphs never
            // contain them.
            false
        } else {
            minor_verdict(
                b,
                P_K7M1,
                budget.minor_budget,
                scratch,
                cache,
                &mut graph_key,
                stop,
            )
            .is_yes()
                || minor_verdict(
                    b,
                    P_K44M1,
                    budget.minor_budget,
                    scratch,
                    cache,
                    &mut graph_key,
                    stop,
                )
                .is_yes()
        };
        if forbidden_found {
            Feasibility::Impossible
        } else {
            let frac = sometimes(b, budget, scratch, &mut sometimes_fraction);
            if frac > 0.0 {
                Feasibility::Sometimes(frac)
            } else {
                Feasibility::Unknown
            }
        }
    };

    Classification {
        nodes: g.node_count(),
        edges: g.edge_count(),
        density: g.density(),
        planar,
        outerplanar,
        touring,
        destination_only,
        source_destination,
    }
}

/// Lazily computed [`tourable_fraction`], shared by both header-based models.
fn sometimes(
    b: &BitGraph,
    budget: ClassifyBudget,
    scratch: &mut Scratch,
    slot: &mut Option<f64>,
) -> f64 {
    *slot.get_or_insert_with(|| {
        tourable_fraction(b, budget.max_destination_probes, &mut scratch.outer)
    })
}

/// Fraction of probed destinations `t` such that `G − t` is outerplanar,
/// probing at most `max_probes` destinations (deterministic stride sampling).
/// Each probe is a vertex-deletion overlay on the bitset graph — no clone.
fn tourable_fraction(b: &BitGraph, max_probes: usize, scratch: &mut OuterplanarScratch) -> f64 {
    let n = b.node_count();
    if n == 0 || max_probes == 0 {
        return 0.0;
    }
    let stride = n.div_ceil(max_probes).max(1);
    let mut probed = 0usize;
    let mut good = 0usize;
    for t in (0..n).step_by(stride) {
        probed += 1;
        if is_outerplanar_without(b, Some(Node(t)), scratch) {
            good += 1;
        }
    }
    good as f64 / probed as f64
}

/// Empirically cross-checks a classification's `Possible` verdicts: for each
/// model classified as [`Feasibility::Possible`], the paper's matching
/// constructive pattern is instantiated and the exhaustive resilience checker
/// is run against **every** failure set — on the compiled-rule-table fast
/// path, which is what makes this affordable as a routine sanity pass.
///
/// Returns the models that were verified (graphs too large for the unbounded
/// sweep, or without a shipped construction for their verdict, are skipped),
/// or the first counterexample — which would witness a classification bug.
pub fn spot_check_possible(
    g: &Graph,
    classification: &Classification,
) -> Result<Vec<frr_routing::model::RoutingModel>, Box<frr_routing::adversary::Counterexample>> {
    use crate::algorithms::{
        K33SourcePattern, K5SourcePattern, OuterplanarDestinationPattern, OuterplanarTouringPattern,
    };
    use frr_routing::compiled::CompilePattern;
    use frr_routing::model::RoutingModel;
    use frr_routing::resilience::Property;

    let mut checked = Vec::new();
    if !Property::PERFECT.fits_sweep(g) {
        return Ok(checked);
    }
    let verify = |pattern: &dyn CompilePattern, property| match crate::refute(g, pattern, property)
    {
        Some(ce) => Err(Box::new(ce)),
        None => Ok(()),
    };
    if classification.touring == Feasibility::Possible {
        if let Some(pattern) = OuterplanarTouringPattern::new(g) {
            verify(&pattern, Property::PERFECT_TOURING)?;
            checked.push(RoutingModel::Touring);
        }
    }
    if classification.destination_only == Feasibility::Possible && classification.outerplanar {
        let pattern = OuterplanarDestinationPattern::new(g);
        verify(&pattern, Property::PERFECT)?;
        checked.push(RoutingModel::DestinationOnly);
    }
    if classification.source_destination == Feasibility::Possible {
        // The Theorem 9 tables assume the canonical `{0,1,2}/{3,4,5}` layout;
        // a graph that only fits `K3,3` under a *relabelled* bipartition
        // (`fits_in_k33` checks all of them) must use another construction.
        let canonical_k33 = g.node_count() <= 6
            && g.edges()
                .iter()
                .all(|e| (e.u().index() < 3) != (e.v().index() < 3));
        if g.node_count() <= 5 {
            verify(&K5SourcePattern::new(g), Property::PERFECT)?;
            checked.push(RoutingModel::SourceDestination);
        } else if canonical_k33 {
            verify(&K33SourcePattern::new(g), Property::PERFECT)?;
            checked.push(RoutingModel::SourceDestination);
        } else if classification.outerplanar {
            // An outerplanar graph's destination-only scheme is a fortiori a
            // source–destination scheme.
            let pattern = OuterplanarDestinationPattern::new(g);
            verify(&pattern, Property::PERFECT)?;
            checked.push(RoutingModel::SourceDestination);
        }
    }
    Ok(checked)
}

/// `true` if `g` is a subgraph of `K3,3` under *some* bipartition of at most
/// 3 + 3 nodes (cheap check used by the source–destination classification).
/// Public-but-hidden so the benchmark baseline shares the live logic instead
/// of duplicating it.
#[doc(hidden)]
pub fn fits_in_k33(g: &Graph) -> bool {
    if g.node_count() > 6 || g.edge_count() > 9 {
        return false;
    }
    // Try all 2-colorings of the (≤ 6) nodes with parts of size ≤ 3.
    let n = g.node_count();
    'outer: for mask in 0u32..(1 << n) {
        let part_a = mask.count_ones() as usize;
        if part_a > 3 || n - part_a > 3 {
            continue;
        }
        for e in g.edges() {
            let ua = mask & (1 << e.u().index()) != 0;
            let va = mask & (1 << e.v().index()) != 0;
            if ua == va {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;

    #[test]
    fn canonical_key_is_label_sensitive() {
        let a = canonical_key(&BitGraph::from_graph(&generators::path(3)));
        let b = canonical_key(&BitGraph::from_graph(&generators::cycle(3)));
        assert_ne!(a, b);
        let again = canonical_key(&BitGraph::from_graph(&generators::path(3)));
        assert_eq!(a, again);
    }

    #[test]
    fn outerplanar_graphs_are_possible_everywhere() {
        for g in [
            generators::cycle(8),
            generators::path(10),
            generators::maximal_outerplanar(9),
            generators::star(6),
        ] {
            let c = classify(&g);
            assert!(c.outerplanar);
            assert_eq!(c.touring, Feasibility::Possible);
            assert_eq!(c.destination_only, Feasibility::Possible);
            assert_eq!(c.source_destination, Feasibility::Possible);
        }
    }

    #[test]
    fn k5_and_k33_are_possible_with_source_but_not_without() {
        let k5 = generators::complete(5);
        let c = classify(&k5);
        assert_eq!(c.source_destination, Feasibility::Possible, "Theorem 8");
        assert_eq!(
            c.destination_only,
            Feasibility::Impossible,
            "Theorem 10 domain"
        );
        assert_eq!(c.touring, Feasibility::Impossible);

        let k33 = generators::complete_bipartite(3, 3);
        let c = classify(&k33);
        assert_eq!(c.source_destination, Feasibility::Possible, "Theorem 9");
        assert_eq!(
            c.destination_only,
            Feasibility::Impossible,
            "Theorem 11 domain"
        );
    }

    #[test]
    fn k7_and_k44_are_impossible_even_with_source() {
        for g in [
            generators::complete(7),
            generators::complete_minus(7, 1),
            generators::complete_bipartite(4, 4),
            generators::complete_bipartite_minus(4, 4, 1),
        ] {
            let c = classify(&g);
            assert_eq!(c.source_destination, Feasibility::Impossible);
            assert_eq!(c.destination_only, Feasibility::Impossible);
            assert_eq!(c.touring, Feasibility::Impossible);
        }
    }

    #[test]
    fn wheel_is_sometimes_for_destination_routing() {
        // The wheel W5 is planar, not outerplanar, contains no K5^-1 / K3,3^-1
        // minor, and removing any node leaves an outerplanar remainder.
        let g = generators::wheel(5);
        let c = classify(&g);
        assert!(c.planar && !c.outerplanar);
        assert_eq!(c.touring, Feasibility::Impossible);
        match c.destination_only {
            Feasibility::Sometimes(frac) => assert!((frac - 1.0).abs() < 1e-9),
            other => panic!("expected Sometimes, got {other}"),
        }
    }

    #[test]
    fn k4_is_sometimes_for_destination_but_possible_with_source() {
        let g = generators::complete(4);
        let c = classify(&g);
        assert_eq!(c.touring, Feasibility::Impossible, "Lemma 3");
        assert_eq!(c.source_destination, Feasibility::Possible, "Theorem 8");
        match c.destination_only {
            // K4 has no K5^-1 / K3,3^-1 minor and every node removal leaves a
            // triangle: every destination is servable (Theorem 12 territory).
            Feasibility::Sometimes(frac) => assert!((frac - 1.0).abs() < 1e-9),
            other => panic!("expected Sometimes for K4, got {other}"),
        }
    }

    #[test]
    fn grid_is_planar_sometimes_or_unknown() {
        let g = generators::grid(3, 3);
        let c = classify(&g);
        assert!(c.planar && !c.outerplanar);
        assert_ne!(c.touring, Feasibility::Possible);
        // The 3x3 grid contains no K5^-1 (needs a degree-3 core of 5 nodes
        // with 9 links) — the classifier must not call it Impossible for the
        // source-destination model (it is planar).
        assert_ne!(c.source_destination, Feasibility::Impossible);
    }

    #[test]
    fn density_and_counts_are_reported() {
        let g = generators::complete(6);
        let c = classify(&g);
        assert_eq!(c.nodes, 6);
        assert_eq!(c.edges, 15);
        assert!((c.density - 2.5).abs() < 1e-12);
        assert!(!c.planar);
    }

    #[test]
    fn feasibility_labels() {
        assert_eq!(Feasibility::Possible.label(), "Possible");
        assert_eq!(Feasibility::Sometimes(0.5).label(), "Sometimes");
        assert_eq!(Feasibility::Impossible.label(), "Impossible");
        assert_eq!(Feasibility::Unknown.label(), "Unknown");
        assert_eq!(
            format!("{}", Feasibility::Sometimes(0.25)),
            "Sometimes(25.0%)"
        );
        assert_eq!(format!("{}", Feasibility::Unknown), "Unknown");
    }

    #[test]
    fn fits_in_k33_detection() {
        assert!(fits_in_k33(&generators::complete_bipartite(3, 3)));
        assert!(fits_in_k33(&generators::complete_bipartite(2, 3)));
        assert!(fits_in_k33(&generators::cycle(6)));
        assert!(!fits_in_k33(&generators::complete(4)));
        assert!(!fits_in_k33(&generators::complete_bipartite(3, 4)));
    }

    #[test]
    fn spot_check_verifies_possible_verdicts() {
        use frr_routing::model::RoutingModel;
        // Outerplanar graph: all three models Possible, all three verified.
        let g = generators::maximal_outerplanar(6);
        let c = classify(&g);
        let checked = spot_check_possible(&g, &c).expect("no counterexample");
        assert_eq!(
            checked,
            vec![
                RoutingModel::Touring,
                RoutingModel::DestinationOnly,
                RoutingModel::SourceDestination
            ]
        );
        // C6 fits K3,3 only under a relabelled (alternating) bipartition, so
        // the check must route it through the outerplanar construction, not
        // the canonically-labelled Theorem 9 tables.
        let g = generators::cycle(6);
        assert!(fits_in_k33(&g));
        let c = classify(&g);
        let checked = spot_check_possible(&g, &c).expect("no counterexample");
        assert_eq!(checked.len(), 3);
        // K5: source-destination Possible via Algorithm 1.
        let g = generators::complete(5);
        let c = classify(&g);
        let checked = spot_check_possible(&g, &c).expect("no counterexample");
        assert_eq!(checked, vec![RoutingModel::SourceDestination]);
        // K3,3: source-destination Possible via the Theorem 9 tables.
        let g = generators::complete_bipartite(3, 3);
        let c = classify(&g);
        let checked = spot_check_possible(&g, &c).expect("no counterexample");
        assert_eq!(checked, vec![RoutingModel::SourceDestination]);
    }

    #[test]
    fn budgeted_batch_respects_work_and_cancellation() {
        use frr_routing::budget::CancelToken;
        let graphs = [
            generators::wheel(5),
            generators::complete(5),
            generators::grid(3, 3),
        ];
        let refs: Vec<&Graph> = graphs.iter().collect();
        let budget = ClassifyBudget::default();
        // Work budget: exactly the first two graphs are classified.
        let run = RunBudget::unlimited().with_work_budget(2);
        let slots = batch_with_budget(&refs, budget, &run).expect("no worker panicked");
        assert_eq!(
            slots[0].as_ref(),
            Some(&classify_with_budget(&graphs[0], budget))
        );
        assert_eq!(
            slots[1].as_ref(),
            Some(&classify_with_budget(&graphs[1], budget))
        );
        assert!(slots[2].is_none());
        // Pre-cancelled: nothing is started, nothing is fabricated.
        let token = CancelToken::new();
        token.cancel();
        let run = RunBudget::unlimited().with_cancel_token(token);
        let slots = batch_with_budget(&refs, budget, &run).expect("no worker panicked");
        assert!(slots.iter().all(|s| s.is_none()));
        // Unlimited: identical to the legacy entry point.
        let slots =
            batch_with_budget(&refs, budget, &RunBudget::unlimited()).expect("no worker panicked");
        let full: Vec<Classification> = slots.into_iter().flatten().collect();
        assert_eq!(full, batch(&refs, budget));
    }

    #[test]
    fn batch_flushes_classification_telemetry() {
        let before = frr_obs::global().snapshot();
        let count = |snap: &frr_obs::MetricsSnapshot, name: &str| snap.counter(name).unwrap_or(0);
        // wheel(5) is planar but not outerplanar, so classification must run
        // minor searches — the cache sees misses and the engines contract.
        let graphs = [generators::wheel(5), generators::wheel(5)];
        let refs: Vec<&Graph> = graphs.iter().collect();
        batch(&refs, ClassifyBudget::default());
        let after = frr_obs::global().snapshot();
        // The global registry is shared with sibling tests, so only lower
        // bounds are assertable.
        assert!(count(&after, "classify.graphs") >= count(&before, "classify.graphs") + 2);
        assert!(count(&after, "classify.cache_misses") > count(&before, "classify.cache_misses"));
        assert!(count(&after, "minors.memo_probes") > count(&before, "minors.memo_probes"));
        let timed = after.histogram("classify.graph_ns").map_or(0, |v| v.count);
        assert!(timed >= before.histogram("classify.graph_ns").map_or(0, |v| v.count) + 2);
    }

    #[test]
    fn batch_matches_sequential_classification() {
        let graphs = [
            generators::complete(5),
            generators::wheel(5),
            generators::grid(3, 3),
            generators::petersen(),
            generators::maximal_outerplanar(9),
            generators::complete(7),
            generators::wheel(5), // duplicate: exercises the verdict cache
            generators::complete_bipartite(3, 4),
        ];
        let refs: Vec<&Graph> = graphs.iter().collect();
        let budget = ClassifyBudget::default();
        let sequential: Vec<Classification> = graphs
            .iter()
            .map(|g| classify_with_budget(g, budget))
            .collect();
        let batched = batch(&refs, budget);
        assert_eq!(batched, sequential);
    }
}

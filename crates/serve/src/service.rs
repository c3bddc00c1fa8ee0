//! The control-plane service: validated event application, the
//! Fresh → Rebuilding → Degraded → Fresh table state machine, and
//! epoch-snapshot queries.
//!
//! # The state machine of one destination's table
//!
//! ```text
//!            batch ingested                rebuild succeeded
//!   Fresh ──────────────────► Rebuilding ───────────────────► Fresh
//!     ▲                           │
//!     │ rebuild succeeded         │ rebuild panicked / refused / expired
//!     │ (next batch)              ▼ (after max_attempts, with backoff)
//!     └─────────────────────── Degraded
//! ```
//!
//! Every batch of events publishes **two** snapshots: one the moment the
//! batch is applied (entries marked [`TableState::Rebuilding`], the new
//! down-set already in force) and one when the supervised rebuild settles
//! (entries [`TableState::Fresh`] or [`TableState::Degraded`]).  Queries
//! between the two are served from the last good tables with the *delta*
//! failures overlaid, and every answer carries a [`Staleness`] tag so
//! degradation is visible rather than silent.
//!
//! # Stale-table query semantics
//!
//! A table built at epoch `b` compiled the surviving graph
//! `G_b = base ∖ down_b`.  A query at epoch `e ≥ b` with extra failures `F`
//! is answered by routing on that table with the failure overlay
//! `F ∪ (down_e ∖ down_b)`: links that failed since the build are masked
//! (the pattern's local failover rules handle them — exactly the paper's
//! model), links that *recovered* since the build simply go unused (they are
//! absent from the compiled graph).  The answer is the faithful behavior of
//! the installed table under the real failure state — what a router with
//! those rules would actually do — not the re-optimized route, which is why
//! it is tagged [`Staleness::Stale`] until the rebuild lands.

use crate::epoch::EpochCell;
use crate::event::{Event, EventError, HostileKind};
use crate::queue::{Admission, IngestQueue, QueueStats};
use crate::supervisor::{rebuild_tables, RebuildFailure, RebuildOutcome, SupervisorConfig};
use frr_graph::budget::{CancelToken, StopSignal};
use frr_graph::{Edge, Graph, Node};
use frr_obs::{Counter, Gauge, Histogram, Registry};
use frr_routing::budget::{panic_message, RunBudget, Verdict};
use frr_routing::compiled::{CompilePattern, CompiledPattern, CompiledSim, Fnv};
use frr_routing::failure::FailureSet;
use frr_routing::hostile::{NoCompile, NondeterministicPattern, PanicOnCompile};
use frr_routing::pattern::{ForwardingPattern, RotorPattern, ShortestPathPattern};
use frr_routing::resilience::{check, Property};
use frr_routing::simulator::{route as interpreted_route, state_space_bound, Outcome};
use frr_topologies::Topology;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// How the service constructs the forwarding pattern for a given graph —
/// the rebuild recipe carried by every snapshot and swapped by fault
/// injections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSpec {
    /// Per-destination shortest-path trees with failover priority lists.
    ShortestPath,
    /// The rotor-router baseline with the destination shortcut.
    Rotor,
    /// A deliberately misbehaving pattern from `frr_routing::hostile`.
    Hostile(HostileKind),
}

impl PatternSpec {
    /// Builds the pattern for `g`.  `Box<dyn CompilePattern>` so hostile and
    /// well-behaved specs flow through one rebuild path; `Send` so one
    /// rebuild's workers can share a single pattern.
    pub fn pattern(&self, g: &Graph) -> Box<dyn CompilePattern + Send> {
        match self {
            PatternSpec::ShortestPath | PatternSpec::Hostile(HostileKind::WellBehaved) => {
                Box::new(ShortestPathPattern::new(g))
            }
            PatternSpec::Rotor => Box::new(RotorPattern::clockwise_with_shortcut(g)),
            PatternSpec::Hostile(HostileKind::PanicOnCompile) => Box::new(PanicOnCompile),
            PatternSpec::Hostile(HostileKind::RefuseCompile) => {
                Box::new(NoCompile(ShortestPathPattern::new(g)))
            }
            PatternSpec::Hostile(HostileKind::Nondeterministic) => {
                Box::new(NondeterministicPattern::new())
            }
        }
    }

    /// `true` when interpreted routing under this spec is deterministic
    /// (replay's post-hoc verification only checks those answers for path
    /// equality).
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, PatternSpec::Hostile(HostileKind::Nondeterministic))
    }

    fn digest_tag(&self) -> u64 {
        match self {
            PatternSpec::ShortestPath | PatternSpec::Hostile(HostileKind::WellBehaved) => 1,
            PatternSpec::Rotor => 2,
            PatternSpec::Hostile(HostileKind::PanicOnCompile) => 3,
            PatternSpec::Hostile(HostileKind::RefuseCompile) => 4,
            PatternSpec::Hostile(HostileKind::Nondeterministic) => 5,
        }
    }
}

/// Where one destination's table sits in the rebuild state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableState {
    /// The table reflects this snapshot's graph and down-set.
    Fresh,
    /// A batch landed and the supervised rebuild has not settled yet.
    Rebuilding,
    /// The last rebuild failed after all retries; serving the last good
    /// table (or the interpreted fallback if none was ever built).
    Degraded,
}

impl TableState {
    fn digest_tag(self) -> u64 {
        match self {
            TableState::Fresh => 0,
            TableState::Rebuilding => 1,
            TableState::Degraded => 2,
        }
    }
}

/// The freshness tag every query answer carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staleness {
    /// Answered from a table built for exactly this snapshot's state.
    Fresh,
    /// Answered from a last-good table `epochs_behind` publications old,
    /// with the delta failures overlaid.
    Stale {
        /// How many epochs ago the serving table was built.
        epochs_behind: u64,
    },
    /// The destination is degraded (rebuilds failing) or has no compiled
    /// table at all.
    Degraded {
        /// How many epochs ago the serving table was built (the current
        /// epoch when no table was ever built).
        epochs_behind: u64,
    },
}

impl fmt::Display for Staleness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Staleness::Fresh => f.write_str("fresh"),
            Staleness::Stale { epochs_behind } => {
                write!(f, "stale ({epochs_behind} epochs behind)")
            }
            Staleness::Degraded { epochs_behind } => {
                write!(f, "degraded ({epochs_behind} epochs behind)")
            }
        }
    }
}

/// Which machinery produced a route answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// The destination's compiled rule table.
    Compiled,
    /// The interpreted simulator on the current surviving graph (no table).
    Interpreted,
}

/// One destination's serving state inside a snapshot.
#[derive(Debug, Clone)]
pub struct DestEntry {
    /// Rebuild state-machine position.
    pub state: TableState,
    /// Epoch whose graph the serving table was built for (0 = never built).
    pub epoch_built: u64,
    /// Consecutive failed rebuild attempts since the last success.
    pub attempts: u32,
    /// The last good compiled table.
    pub table: Option<Arc<CompiledPattern>>,
    /// The down-set the serving table was built around.
    pub down_at_build: Arc<BTreeSet<Edge>>,
    /// The spec the serving table was built with (injections may have
    /// swapped the snapshot spec since).
    pub built_with: PatternSpec,
}

impl DestEntry {
    fn empty(spec: PatternSpec) -> Self {
        DestEntry {
            state: TableState::Rebuilding,
            epoch_built: 0,
            attempts: 0,
            table: None,
            down_at_build: Arc::new(BTreeSet::new()),
            built_with: spec,
        }
    }
}

/// Which half of a batch's two publications a snapshot is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The batch was applied; tables are rebuilding.
    Ingested,
    /// The supervised rebuild settled.
    Settled,
}

/// Query-latency histograms split by the answer's staleness, carried by
/// every snapshot as cloned handles to shared cells.  Detached (noop) when
/// the service is unwired, and **never** part of [`Snapshot::digest`] — that
/// digest enumerates its hashed fields, so telemetry cannot perturb it.
#[derive(Debug, Clone, Default)]
struct QueryMetrics {
    fresh: Histogram,
    stale: Histogram,
    degraded: Histogram,
}

impl QueryMetrics {
    fn from_registry(registry: &Registry) -> Self {
        QueryMetrics {
            fresh: registry.histogram("serve.query.fresh_ns"),
            stale: registry.histogram("serve.query.stale_ns"),
            degraded: registry.histogram("serve.query.degraded_ns"),
        }
    }

    fn record(&self, staleness: Staleness, started: Instant) {
        let hist = match staleness {
            Staleness::Fresh => &self.fresh,
            Staleness::Stale { .. } => &self.stale,
            Staleness::Degraded { .. } => &self.degraded,
        };
        hist.record_duration(started.elapsed());
    }
}

/// The service's live control-plane telemetry: epoch publish counters and
/// age, per-state destination gauges, and rebuild outcome counters.  All
/// handles are detached when constructed via [`Service::new`]; wire a real
/// registry with [`Service::with_registry`].  Wall-clock time feeds *only*
/// these cells — never a digest, ledger or published snapshot field.
#[derive(Debug, Clone, Default)]
struct ServiceMetrics {
    epoch_published: Counter,
    epoch: Gauge,
    epoch_age_ns: Histogram,
    dest_fresh: Gauge,
    dest_rebuilding: Gauge,
    dest_degraded: Gauge,
    rebuilt: Counter,
    refused: Counter,
    panicked: Counter,
    expired: Counter,
    cancelled: Counter,
    query: QueryMetrics,
}

impl ServiceMetrics {
    fn from_registry(registry: &Registry) -> Self {
        ServiceMetrics {
            epoch_published: registry.counter("serve.epoch.published"),
            epoch: registry.gauge("serve.epoch"),
            epoch_age_ns: registry.histogram("serve.epoch.age_ns"),
            dest_fresh: registry.gauge("serve.dest.fresh"),
            dest_rebuilding: registry.gauge("serve.dest.rebuilding"),
            dest_degraded: registry.gauge("serve.dest.degraded"),
            rebuilt: registry.counter("serve.rebuild.ok"),
            refused: registry.counter("serve.rebuild.refused"),
            panicked: registry.counter("serve.rebuild.panicked"),
            expired: registry.counter("serve.rebuild.expired"),
            cancelled: registry.counter("serve.rebuild.cancelled"),
            query: QueryMetrics::from_registry(registry),
        }
    }

    /// Accounts one publication: bumps the publish counter, tracks the
    /// epoch gauge, records how long the superseded epoch lived, and counts
    /// destinations per state-machine position.
    fn note_publish(&self, snapshot: &Snapshot, superseded_at: Instant) {
        self.epoch_published.inc();
        self.epoch.set(snapshot.epoch as i64);
        self.epoch_age_ns.record_duration(superseded_at.elapsed());
        let (mut fresh, mut rebuilding, mut degraded) = (0i64, 0i64, 0i64);
        for entry in &snapshot.entries {
            match entry.state {
                TableState::Fresh => fresh += 1,
                TableState::Rebuilding => rebuilding += 1,
                TableState::Degraded => degraded += 1,
            }
        }
        self.dest_fresh.set(fresh);
        self.dest_rebuilding.set(rebuilding);
        self.dest_degraded.set(degraded);
    }

    fn note_rebuilds(&self, summary: &RebuildSummary) {
        self.rebuilt.add(summary.rebuilt as u64);
        self.refused.add(summary.refused as u64);
        self.panicked.add(summary.panicked as u64);
        self.expired.add(summary.expired as u64);
        self.cancelled.add(summary.cancelled as u64);
    }
}

/// One immutable published epoch: everything a query needs, behind one `Arc`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotone publication counter (each batch publishes two epochs).
    pub epoch: u64,
    /// Which half of the batch this publication is.
    pub phase: Phase,
    /// Name of the loaded topology.
    pub topology: String,
    /// The loaded topology's full graph.
    pub base: Graph,
    /// Links currently down (canonically ordered).
    pub down: BTreeSet<Edge>,
    /// `base ∖ down` — the graph fresh tables are built for.
    pub survivor: Graph,
    /// The rebuild recipe in force.
    pub spec: PatternSpec,
    /// Per-destination serving state, indexed by node.
    pub entries: Vec<DestEntry>,
    /// Events quarantined since the service started.
    pub quarantined: u64,
    /// Ingest-queue health counters at publication time.
    pub queue: QueueStats,
    /// Query-latency handles (cloned cells, not hashed by the digest).
    metrics: QueryMetrics,
}

/// A route query failed before any routing happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An endpoint outside the loaded topology.
    NodeOutOfRange {
        /// The offending endpoint.
        node: usize,
        /// The topology's node count.
        nodes: usize,
    },
    /// The interpreted fallback probe panicked (hostile pattern); the panic
    /// was contained and surfaced as this typed error.
    ProbePanicked(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (topology has {nodes} nodes)")
            }
            QueryError::ProbePanicked(msg) => write!(f, "route probe panicked: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A `route(s, t, failed_set)` answer with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAnswer {
    /// The forwarding outcome (delivered / stuck / loop / hop limit).
    pub outcome: Outcome,
    /// The node path the packet took.
    pub path: Vec<Node>,
    /// Hops taken.
    pub hops: usize,
    /// Freshness of the serving table.
    pub staleness: Staleness,
    /// Compiled table or interpreted fallback.
    pub source: AnswerSource,
    /// The destination's state-machine position at answer time.
    pub state: TableState,
    /// The snapshot epoch that answered.
    pub epoch: u64,
    /// The epoch the serving table was built at (0 = interpreted fallback).
    pub epoch_built: u64,
    /// The hop bound used (recorded so post-hoc replays use the same one).
    pub max_hops: usize,
}

/// The answer to an `r`-bounded resilience query.
#[derive(Debug, Clone)]
pub struct ResilienceAnswer {
    /// The snapshot epoch that answered.
    pub epoch: u64,
    /// The budgeted verdict, or the contained panic message if the check's
    /// own isolation was bypassed by a hostile compile.
    pub verdict: Result<Verdict, String>,
    /// How many destinations were degraded when the answer was computed.
    pub degraded_destinations: usize,
}

impl Snapshot {
    /// Destinations currently in [`TableState::Degraded`].
    pub fn degraded(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state == TableState::Degraded)
            .map(|(t, _)| t)
            .collect()
    }

    fn staleness_of(&self, entry: &DestEntry) -> Staleness {
        let epochs_behind = self.epoch.saturating_sub(entry.epoch_built);
        if entry.table.is_none() || entry.state == TableState::Degraded {
            Staleness::Degraded { epochs_behind }
        } else if epochs_behind == 0 {
            Staleness::Fresh
        } else {
            Staleness::Stale { epochs_behind }
        }
    }

    /// Answers `route(s, t, failures)` from this snapshot (see the module
    /// docs for the stale-table semantics).  Never blocks, never panics:
    /// hostile interpreted probes surface as [`QueryError::ProbePanicked`].
    pub fn route(
        &self,
        s: Node,
        t: Node,
        failures: &FailureSet,
    ) -> Result<RouteAnswer, QueryError> {
        let started = Instant::now();
        let nodes = self.base.node_count();
        for node in [s, t] {
            if node.index() >= nodes {
                return Err(QueryError::NodeOutOfRange {
                    node: node.index(),
                    nodes,
                });
            }
        }
        let entry = &self.entries[t.index()];
        if let Some(table) = &entry.table {
            // Overlay: query failures plus links that went down since the
            // build.  Links that recovered since the build are simply absent
            // from the compiled graph and go unused.  Copied only when there
            // is such a link, i.e. only for stale answers.
            let mut overlay = Cow::Borrowed(failures);
            for e in &self.down {
                if !entry.down_at_build.contains(e) {
                    overlay.to_mut().insert(*e);
                }
            }
            let max_hops = table.csr().state_count() + 1;
            let mut sim = CompiledSim::new(table);
            sim.load_failures(table, &overlay);
            let result = sim.route(table, s, t, max_hops);
            let staleness = self.staleness_of(entry);
            self.metrics.record(staleness, started);
            return Ok(RouteAnswer {
                outcome: result.outcome,
                path: result.path,
                hops: result.hops,
                staleness,
                source: AnswerSource::Compiled,
                state: entry.state,
                epoch: self.epoch,
                epoch_built: entry.epoch_built,
                max_hops,
            });
        }
        // No table was ever built for this destination: interpreted fallback
        // on the *current* surviving graph.  Contained by catch_unwind so a
        // hostile pattern cannot take the query thread down.
        let max_hops = state_space_bound(&self.survivor);
        let spec = self.spec;
        let survivor = &self.survivor;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let pattern = spec.pattern(survivor);
            let pattern: &dyn ForwardingPattern = pattern.as_ref();
            interpreted_route(survivor, failures, pattern, s, t, max_hops)
        }))
        .map_err(|payload| QueryError::ProbePanicked(panic_message(&*payload)))?;
        let staleness = self.staleness_of(entry);
        self.metrics.record(staleness, started);
        Ok(RouteAnswer {
            outcome: result.outcome,
            path: result.path,
            hops: result.hops,
            staleness,
            source: AnswerSource::Interpreted,
            state: entry.state,
            epoch: self.epoch,
            epoch_built: entry.epoch_built,
            max_hops,
        })
    }

    /// Checks `r`-bounded resilience ([`Property::bounded`]) of the
    /// snapshot's spec on its current surviving graph, under `budget`.
    /// Panics from hostile compiles are contained and surfaced in the
    /// answer.
    pub fn resilience(&self, r: usize, budget: &RunBudget) -> ResilienceAnswer {
        let spec = self.spec;
        let survivor = &self.survivor;
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            let pattern = spec.pattern(survivor);
            check(survivor, pattern.as_ref(), Property::bounded(r), budget)
        }));
        let verdict = match verdict {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(panicked)) => Err(panicked.to_string()),
            Err(payload) => Err(panic_message(&*payload)),
        };
        ResilienceAnswer {
            epoch: self.epoch,
            verdict,
            degraded_destinations: self.degraded().len(),
        }
    }

    /// A stable FNV-1a digest of everything deterministic in the snapshot:
    /// epoch, phase, topology, graph, down-set, spec and the full
    /// per-destination serving state (including each compiled table's own
    /// digest).  The replay suites pin that this is byte-identical at any
    /// worker-thread count.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.epoch);
        h.word(match self.phase {
            Phase::Ingested => 0,
            Phase::Settled => 1,
        });
        h.word(self.topology.len() as u64);
        for b in self.topology.bytes() {
            h.word(u64::from(b));
        }
        h.word(self.base.node_count() as u64);
        let edges = self.base.edges();
        h.word(edges.len() as u64);
        for e in &edges {
            h.word(e.u().index() as u64 | (e.v().index() as u64) << 32);
        }
        h.word(self.down.len() as u64);
        for e in &self.down {
            h.word(e.u().index() as u64 | (e.v().index() as u64) << 32);
        }
        h.word(self.spec.digest_tag());
        h.word(self.quarantined);
        for entry in &self.entries {
            h.word(entry.state.digest_tag());
            h.word(entry.epoch_built);
            h.word(u64::from(entry.attempts));
            h.word(entry.table.as_ref().map_or(0, |t| t.digest()));
            h.word(entry.down_at_build.len() as u64);
            for e in entry.down_at_build.iter() {
                h.word(e.u().index() as u64 | (e.v().index() as u64) << 32);
            }
            h.word(entry.built_with.digest_tag());
        }
        h.finish()
    }
}

/// A cloneable read-side handle: query threads hold one of these and never
/// touch the service's mutable half.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    cell: Arc<EpochCell<Snapshot>>,
}

impl SnapshotReader {
    /// The current snapshot (never blocks on rebuilds).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.snapshot()
    }
}

/// What one call to [`Service::tick`] did.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Events applied to the topology state.
    pub applied: usize,
    /// Events quarantined by apply-time validation.
    pub quarantined: usize,
    /// Epoch of the `Ingested` publication (0 when the batch was entirely
    /// quarantined and no rebuild ran).
    pub epoch_ingested: u64,
    /// Epoch of the `Settled` publication.
    pub epoch_settled: u64,
    /// Digest of the `Ingested` snapshot (0 when no rebuild ran).
    pub digest_ingested: u64,
    /// Digest of the `Settled` snapshot.
    pub digest_settled: u64,
    /// Destinations whose rebuild produced a fresh table.
    pub rebuilt: usize,
    /// Rebuilds that ended refused / panicked / deadline-expired / cancelled.
    pub refused: usize,
    /// See `refused`.
    pub panicked: usize,
    /// See `refused`.
    pub expired: usize,
    /// See `refused`.
    pub cancelled: usize,
    /// Destinations degraded after this batch settled.
    pub degraded: Vec<usize>,
}

/// The control-plane service (see module docs).
///
/// The mutable half (event queue, batch application, rebuild orchestration)
/// lives here and is driven single-threaded; the read side is the cloneable
/// [`SnapshotReader`] and scales to any number of query threads.
#[derive(Debug)]
pub struct Service {
    catalog: Vec<Topology>,
    default_spec: PatternSpec,
    cfg: SupervisorConfig,
    cell: Arc<EpochCell<Snapshot>>,
    queue: IngestQueue,
    cancel: CancelToken,
    quarantined: u64,
    quarantine_log: Vec<EventError>,
    epoch: u64,
    metrics: ServiceMetrics,
    last_publish: Instant,
}

/// Cap on the retained quarantine log (the counter is unbounded).
const QUARANTINE_LOG_CAP: usize = 64;

impl Service {
    /// Stands the service up on the named topology from `catalog`, builds
    /// every destination's table under supervision and publishes epoch 1.
    /// Telemetry is detached; see [`Service::with_registry`] to wire it.
    pub fn new(
        catalog: Vec<Topology>,
        initial_topology: &str,
        spec: PatternSpec,
        cfg: SupervisorConfig,
        queue_capacity: usize,
    ) -> Result<Self, EventError> {
        Service::with_registry(
            catalog,
            initial_topology,
            spec,
            cfg,
            queue_capacity,
            &Registry::noop(),
        )
    }

    /// [`Service::new`] with live telemetry in `registry`: `serve.queue.*`
    /// ingest counters, `serve.epoch.*` publication tracking, `serve.dest.*`
    /// state gauges, `serve.rebuild.*` outcome counters and the
    /// `serve.query.*_ns` latency histograms.  Pass [`Registry::noop`] to
    /// get exactly [`Service::new`] — the differential replay test pins that
    /// the two produce byte-identical digests and ledgers.
    pub fn with_registry(
        catalog: Vec<Topology>,
        initial_topology: &str,
        spec: PatternSpec,
        cfg: SupervisorConfig,
        queue_capacity: usize,
        registry: &Registry,
    ) -> Result<Self, EventError> {
        let topo = catalog
            .iter()
            .find(|t| t.name == initial_topology)
            .ok_or_else(|| EventError::UnknownTopology {
                name: initial_topology.to_string(),
            })?;
        let base = topo.graph.clone();
        let name = topo.name.clone();
        let cancel = CancelToken::new();
        let down = BTreeSet::new();
        let n = base.node_count();
        let dests: Vec<usize> = (0..n).collect();
        let started = Instant::now();
        let metrics = ServiceMetrics::from_registry(registry);
        let outcomes = rebuild_tables(&base, &spec, &dests, &cfg, &StopSignal::none());
        let down_arc = Arc::new(down.clone());
        let prev: Vec<DestEntry> = (0..n).map(|_| DestEntry::empty(spec)).collect();
        let (entries, summary) = merge_outcomes(&prev, &outcomes, 1, &down_arc, spec);
        metrics.note_rebuilds(&summary);
        let snapshot = Snapshot {
            epoch: 1,
            phase: Phase::Settled,
            topology: name,
            base: base.clone(),
            down,
            survivor: base,
            spec,
            entries,
            quarantined: 0,
            queue: QueueStats::default(),
            metrics: metrics.query.clone(),
        };
        metrics.note_publish(&snapshot, started);
        Ok(Service {
            catalog,
            default_spec: spec,
            cfg,
            cell: Arc::new(EpochCell::new(snapshot)),
            queue: IngestQueue::with_registry(queue_capacity, registry),
            cancel,
            quarantined: 0,
            quarantine_log: Vec::new(),
            epoch: 1,
            metrics,
            last_publish: Instant::now(),
        })
    }

    /// The cloneable read-side handle.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
        }
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.snapshot()
    }

    /// The shutdown token: cancel it from any thread and [`Service::drain`]
    /// stops between batches (a rebuild in flight winds down by reporting
    /// its remaining destinations cancelled).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Events quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// The most recent quarantined errors (capped log).
    pub fn quarantine_log(&self) -> &[EventError] {
        &self.quarantine_log
    }

    /// Ingest-queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Queues one event (bounded; see [`IngestQueue`] for the overflow
    /// policy).
    pub fn submit(&mut self, event: Event) -> Admission {
        self.queue.push(event)
    }

    /// Parses trace text and queues the good lines; malformed lines are
    /// quarantined.  Returns `(queued, quarantined)`.
    pub fn ingest_trace_text(&mut self, text: &str) -> (usize, usize) {
        let (events, errors) = crate::event::parse_trace(text);
        let queued = events.len();
        let bad = errors.len();
        for err in errors {
            self.note_quarantine(err);
        }
        for ev in events {
            self.submit(ev);
        }
        (queued, bad)
    }

    /// Publishes `snapshot` and accounts it in the live telemetry (publish
    /// count, epoch gauge, superseded-epoch age, per-state gauges).
    fn publish(&mut self, snapshot: Snapshot) {
        self.metrics.note_publish(&snapshot, self.last_publish);
        self.last_publish = Instant::now();
        self.cell.publish(snapshot);
    }

    fn note_quarantine(&mut self, err: EventError) {
        self.quarantined += 1;
        if self.quarantine_log.len() == QUARANTINE_LOG_CAP {
            self.quarantine_log.remove(0);
        }
        self.quarantine_log.push(err);
    }

    /// Drains up to `max_events` queued events as one batch: validates and
    /// applies them, publishes the `Ingested` snapshot, runs the supervised
    /// rebuild, publishes the `Settled` snapshot.  `None` when the queue is
    /// empty.
    pub fn tick(&mut self, max_events: usize) -> Option<BatchReport> {
        let events = self.queue.drain_batch(max_events.max(1));
        if events.is_empty() {
            return None;
        }
        let prev = self.cell.snapshot();
        let mut base = prev.base.clone();
        let mut topology = prev.topology.clone();
        let mut down = prev.down.clone();
        let mut spec = prev.spec;
        let mut reset_entries = false;
        let mut applied = 0usize;
        let mut quarantined_now = 0usize;
        for ev in events {
            match self.apply_event(
                &ev,
                &mut base,
                &mut topology,
                &mut down,
                &mut spec,
                &mut reset_entries,
            ) {
                Ok(()) => applied += 1,
                Err(err) => {
                    quarantined_now += 1;
                    self.note_quarantine(err);
                }
            }
        }
        if applied == 0 {
            // Nothing changed; publish one Settled snapshot so the bumped
            // quarantine counter is visible, and skip the rebuild.
            self.epoch += 1;
            let snapshot = Snapshot {
                epoch: self.epoch,
                quarantined: self.quarantined,
                queue: self.queue.stats(),
                ..(*prev).clone()
            };
            let digest = snapshot.digest();
            self.publish(snapshot);
            return Some(BatchReport {
                applied,
                quarantined: quarantined_now,
                epoch_ingested: 0,
                epoch_settled: self.epoch,
                digest_ingested: 0,
                digest_settled: digest,
                rebuilt: 0,
                refused: 0,
                panicked: 0,
                expired: 0,
                cancelled: 0,
                degraded: self.cell.snapshot().degraded(),
            });
        }

        let n = base.node_count();
        let survivor = base.without_edges(down.iter());
        let marked: Vec<DestEntry> = if reset_entries {
            (0..n).map(|_| DestEntry::empty(spec)).collect()
        } else {
            prev.entries
                .iter()
                .map(|e| DestEntry {
                    state: TableState::Rebuilding,
                    ..e.clone()
                })
                .collect()
        };
        self.epoch += 1;
        let epoch_ingested = self.epoch;
        let ingested = Snapshot {
            epoch: epoch_ingested,
            phase: Phase::Ingested,
            topology: topology.clone(),
            base: base.clone(),
            down: down.clone(),
            survivor: survivor.clone(),
            spec,
            entries: marked.clone(),
            quarantined: self.quarantined,
            queue: self.queue.stats(),
            metrics: self.metrics.query.clone(),
        };
        let digest_ingested = ingested.digest();
        self.publish(ingested);

        let dests: Vec<usize> = (0..n).collect();
        let stop = StopSignal::none().with_cancel(self.cancel.clone());
        let outcomes = rebuild_tables(&survivor, &spec, &dests, &self.cfg, &stop);
        self.epoch += 1;
        let epoch_settled = self.epoch;
        let down_arc = Arc::new(down.clone());
        let (entries, summary) = merge_outcomes(&marked, &outcomes, epoch_settled, &down_arc, spec);
        self.metrics.note_rebuilds(&summary);
        let settled = Snapshot {
            epoch: epoch_settled,
            phase: Phase::Settled,
            topology,
            base,
            down,
            survivor,
            spec,
            entries,
            quarantined: self.quarantined,
            queue: self.queue.stats(),
            metrics: self.metrics.query.clone(),
        };
        let digest_settled = settled.digest();
        let degraded = settled.degraded();
        self.publish(settled);
        Some(BatchReport {
            applied,
            quarantined: quarantined_now,
            epoch_ingested,
            epoch_settled,
            digest_ingested,
            digest_settled,
            rebuilt: summary.rebuilt,
            refused: summary.refused,
            panicked: summary.panicked,
            expired: summary.expired,
            cancelled: summary.cancelled,
            degraded,
        })
    }

    /// Drains the whole queue in batches of `batch_size`, stopping early if
    /// the shutdown token fires between batches.  Returns the reports in
    /// order.
    pub fn drain(&mut self, batch_size: usize) -> Vec<BatchReport> {
        let mut reports = Vec::new();
        while !self.queue.is_empty() && !self.cancel.is_cancelled() {
            if let Some(report) = self.tick(batch_size) {
                reports.push(report);
            }
        }
        reports
    }

    fn apply_event(
        &self,
        ev: &Event,
        base: &mut Graph,
        topology: &mut String,
        down: &mut BTreeSet<Edge>,
        spec: &mut PatternSpec,
        reset_entries: &mut bool,
    ) -> Result<(), EventError> {
        let check_link = |u: usize, v: usize, base: &Graph| -> Result<Edge, EventError> {
            let nodes = base.node_count();
            for node in [u, v] {
                if node >= nodes {
                    return Err(EventError::NodeOutOfRange { node, nodes });
                }
            }
            if !base.has_edge(Node(u), Node(v)) {
                return Err(EventError::UnknownLink { u, v });
            }
            Ok(Edge::new(Node(u), Node(v)))
        };
        match ev {
            Event::LinkDown { u, v } => {
                let e = check_link(*u, *v, base)?;
                if !down.insert(e) {
                    return Err(EventError::AlreadyDown { u: *u, v: *v });
                }
                Ok(())
            }
            Event::LinkUp { u, v } => {
                let e = check_link(*u, *v, base)?;
                if !down.remove(&e) {
                    return Err(EventError::AlreadyUp { u: *u, v: *v });
                }
                Ok(())
            }
            Event::Load { name } => {
                let topo = self
                    .catalog
                    .iter()
                    .find(|t| &t.name == name)
                    .ok_or_else(|| EventError::UnknownTopology { name: name.clone() })?;
                *base = topo.graph.clone();
                *topology = topo.name.clone();
                down.clear();
                *reset_entries = true;
                Ok(())
            }
            Event::Inject { kind } => {
                *spec = match kind {
                    HostileKind::WellBehaved => self.default_spec,
                    other => PatternSpec::Hostile(*other),
                };
                Ok(())
            }
        }
    }
}

#[derive(Debug, Default)]
struct RebuildSummary {
    rebuilt: usize,
    refused: usize,
    panicked: usize,
    expired: usize,
    cancelled: usize,
}

/// Folds supervised rebuild outcomes into the next entry vector: a success
/// lands Fresh with the new table, any failure degrades the destination but
/// keeps its last good table (and that table's provenance).
fn merge_outcomes(
    prev: &[DestEntry],
    outcomes: &[RebuildOutcome],
    epoch_settled: u64,
    down_at_build: &Arc<BTreeSet<Edge>>,
    spec: PatternSpec,
) -> (Vec<DestEntry>, RebuildSummary) {
    let mut summary = RebuildSummary::default();
    let entries = outcomes
        .iter()
        .map(|o| {
            let carried = &prev[o.destination];
            match (&o.table, &o.failure) {
                (Some(table), _) => {
                    summary.rebuilt += 1;
                    DestEntry {
                        state: TableState::Fresh,
                        epoch_built: epoch_settled,
                        attempts: 0,
                        table: Some(Arc::clone(table)),
                        down_at_build: Arc::clone(down_at_build),
                        built_with: spec,
                    }
                }
                (None, failure) => {
                    match failure {
                        Some(RebuildFailure::Refused) => summary.refused += 1,
                        Some(RebuildFailure::Panicked(_)) => summary.panicked += 1,
                        Some(RebuildFailure::DeadlineExpired) => summary.expired += 1,
                        Some(RebuildFailure::Cancelled) | None => summary.cancelled += 1,
                    }
                    DestEntry {
                        state: TableState::Degraded,
                        attempts: carried.attempts.saturating_add(o.attempts),
                        ..carried.clone()
                    }
                }
            }
        })
        .collect();
    (entries, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;

    fn tiny_catalog() -> Vec<Topology> {
        vec![
            Topology {
                name: "cycle6".to_string(),
                graph: generators::cycle(6),
                real: false,
            },
            Topology {
                name: "complete5".to_string(),
                graph: generators::complete(5),
                real: false,
            },
        ]
    }

    fn service() -> Service {
        Service::new(
            tiny_catalog(),
            "cycle6",
            PatternSpec::ShortestPath,
            SupervisorConfig {
                threads: 1,
                backoff_base: std::time::Duration::ZERO,
                ..SupervisorConfig::default()
            },
            32,
        )
        .expect("catalog has cycle6")
    }

    #[test]
    fn initial_snapshot_is_fresh_everywhere() {
        let s = service();
        let snap = s.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.phase, Phase::Settled);
        assert!(snap.degraded().is_empty());
        for entry in &snap.entries {
            assert_eq!(entry.state, TableState::Fresh);
            assert!(entry.table.is_some());
        }
        let answer = snap
            .route(Node(0), Node(3), &FailureSet::new())
            .expect("in range");
        assert_eq!(answer.outcome, Outcome::Delivered);
        assert_eq!(answer.staleness, Staleness::Fresh);
        assert_eq!(answer.source, AnswerSource::Compiled);
    }

    #[test]
    fn link_down_publishes_two_epochs_and_fresh_tables_route_around() {
        let mut s = service();
        s.submit(Event::down(0, 1));
        let report = s.tick(usize::MAX).expect("one batch");
        assert_eq!(report.applied, 1);
        assert_eq!(report.epoch_ingested, 2);
        assert_eq!(report.epoch_settled, 3);
        assert_eq!(report.rebuilt, 6);
        let snap = s.snapshot();
        assert_eq!(snap.down.len(), 1);
        // Fresh tables were built for the survivor: 0 → 1 routes the long way.
        let answer = snap
            .route(Node(0), Node(1), &FailureSet::new())
            .expect("in range");
        assert_eq!(answer.outcome, Outcome::Delivered);
        assert_eq!(answer.staleness, Staleness::Fresh);
        assert_eq!(answer.hops, 5);
    }

    #[test]
    fn stale_snapshot_serves_old_table_with_delta_overlay() {
        let mut s = service();
        let before = s.snapshot();
        s.submit(Event::down(0, 1));
        s.tick(usize::MAX);
        let after = s.snapshot();
        // The pre-batch snapshot still answers coherently from its epoch.
        let old = before
            .route(Node(0), Node(1), &FailureSet::new())
            .expect("in range");
        assert_eq!(old.staleness, Staleness::Fresh);
        assert_eq!(old.hops, 1);
        // A query against the Ingested-phase view would see the overlay; the
        // settled snapshot's tables are fresh again.
        assert_eq!(
            after
                .route(Node(0), Node(1), &FailureSet::new())
                .expect("in range")
                .hops,
            5
        );
    }

    #[test]
    fn out_of_order_and_alien_events_quarantine_without_state_damage() {
        let mut s = service();
        s.submit(Event::down(0, 1));
        s.submit(Event::down(0, 1)); // already down
        s.submit(Event::up(2, 4)); // not an edge of cycle6
        s.submit(Event::down(0, 99)); // out of range
        let report = s.tick(usize::MAX).expect("one batch");
        assert_eq!(report.applied, 1);
        assert_eq!(report.quarantined, 3);
        assert_eq!(s.quarantined(), 3);
        let snap = s.snapshot();
        assert_eq!(snap.down.len(), 1);
        assert_eq!(snap.quarantined, 3);
        assert!(s
            .quarantine_log()
            .iter()
            .any(|e| matches!(e, EventError::AlreadyDown { u: 0, v: 1 })));
    }

    #[test]
    fn panic_injection_degrades_then_recovery_refreshes() {
        let mut s = service();
        s.submit(Event::Inject {
            kind: HostileKind::PanicOnCompile,
        });
        let report = s.tick(usize::MAX).expect("one batch");
        assert_eq!(report.panicked, 6);
        let degraded = s.snapshot();
        assert_eq!(degraded.degraded().len(), 6);
        // Degraded destinations keep serving their last good tables.
        let answer = degraded
            .route(Node(0), Node(3), &FailureSet::new())
            .expect("in range");
        assert_eq!(answer.outcome, Outcome::Delivered);
        assert!(matches!(answer.staleness, Staleness::Degraded { .. }));
        assert_eq!(answer.source, AnswerSource::Compiled);
        // Recovery: inject well-behaved, rebuild, everything Fresh again.
        s.submit(Event::Inject {
            kind: HostileKind::WellBehaved,
        });
        s.tick(usize::MAX);
        let recovered = s.snapshot();
        assert!(recovered.degraded().is_empty());
        assert_eq!(
            recovered
                .route(Node(0), Node(3), &FailureSet::new())
                .expect("in range")
                .staleness,
            Staleness::Fresh
        );
    }

    #[test]
    fn refusal_injection_falls_back_to_interpreted_when_no_table_exists() {
        // Start the service already hostile: no table is ever built.
        let s = Service::new(
            tiny_catalog(),
            "cycle6",
            PatternSpec::Hostile(HostileKind::RefuseCompile),
            SupervisorConfig {
                threads: 1,
                ..SupervisorConfig::default()
            },
            32,
        )
        .expect("catalog has cycle6");
        let snap = s.snapshot();
        assert_eq!(snap.degraded().len(), 6);
        let answer = snap
            .route(Node(0), Node(3), &FailureSet::new())
            .expect("in range");
        assert_eq!(answer.source, AnswerSource::Interpreted);
        assert_eq!(answer.outcome, Outcome::Delivered);
        assert!(matches!(answer.staleness, Staleness::Degraded { .. }));
    }

    #[test]
    fn load_swaps_topologies_and_resets_entries() {
        let mut s = service();
        s.submit(Event::Load {
            name: "complete5".to_string(),
        });
        let report = s.tick(usize::MAX).expect("one batch");
        assert_eq!(report.rebuilt, 5);
        let snap = s.snapshot();
        assert_eq!(snap.topology, "complete5");
        assert_eq!(snap.entries.len(), 5);
        assert!(snap.degraded().is_empty());
        // The old 6-node index space is gone.
        assert!(snap.route(Node(5), Node(0), &FailureSet::new()).is_err());
    }

    #[test]
    fn resilience_answers_carry_degradation_visibility() {
        let s = service();
        let answer = s
            .snapshot()
            .resilience(1, &RunBudget::unlimited().with_work_budget(512));
        assert_eq!(answer.degraded_destinations, 0);
        assert!(answer.verdict.is_ok());
        // Hostile panic spec: the panic is contained, not propagated.
        let hostile = Service::new(
            tiny_catalog(),
            "cycle6",
            PatternSpec::Hostile(HostileKind::PanicOnCompile),
            SupervisorConfig {
                threads: 1,
                max_attempts: 1,
                ..SupervisorConfig::default()
            },
            32,
        )
        .expect("catalog has cycle6");
        let answer = hostile
            .snapshot()
            .resilience(1, &RunBudget::unlimited().with_work_budget(64));
        assert_eq!(answer.degraded_destinations, 6);
    }

    #[test]
    fn digests_are_stable_and_state_sensitive() {
        let s1 = service();
        let s2 = service();
        assert_eq!(s1.snapshot().digest(), s2.snapshot().digest());
        let mut s3 = service();
        s3.submit(Event::down(0, 1));
        s3.tick(usize::MAX);
        assert_ne!(s1.snapshot().digest(), s3.snapshot().digest());
    }

    #[test]
    fn wired_service_streams_epoch_state_and_query_telemetry() {
        let reg = Registry::new();
        let mut s = Service::with_registry(
            tiny_catalog(),
            "cycle6",
            PatternSpec::ShortestPath,
            SupervisorConfig {
                threads: 1,
                backoff_base: std::time::Duration::ZERO,
                ..SupervisorConfig::default()
            },
            32,
            &reg,
        )
        .expect("catalog has cycle6");
        let snap = reg.snapshot();
        // Epoch 1 published with all six destinations fresh.
        assert_eq!(snap.counter("serve.epoch.published"), Some(1));
        assert_eq!(snap.gauge("serve.epoch"), Some(1));
        assert_eq!(snap.gauge("serve.dest.fresh"), Some(6));
        assert_eq!(snap.counter("serve.rebuild.ok"), Some(6));
        // One batch = two more publications; a panic injection degrades all.
        s.submit(Event::Inject {
            kind: HostileKind::PanicOnCompile,
        });
        s.tick(usize::MAX);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.epoch.published"), Some(3));
        assert_eq!(snap.gauge("serve.epoch"), Some(3));
        assert_eq!(snap.gauge("serve.dest.degraded"), Some(6));
        assert_eq!(snap.counter("serve.rebuild.panicked"), Some(6));
        // Queries record into the staleness-split latency histograms.
        let view = s.snapshot();
        view.route(Node(0), Node(3), &FailureSet::new())
            .expect("in range");
        let snap = reg.snapshot();
        let degraded = snap
            .histogram("serve.query.degraded_ns")
            .expect("histogram registered");
        assert_eq!(degraded.count, 1);
        assert_eq!(
            snap.histogram("serve.query.fresh_ns").map(|h| h.count),
            Some(0)
        );
        // The epoch-age histogram saw both superseded epochs.
        assert_eq!(
            snap.histogram("serve.epoch.age_ns").map(|h| h.count),
            Some(3)
        );
        // An unwired service leaves a fresh registry empty.
        let noop = Registry::noop();
        let _ = Service::with_registry(
            tiny_catalog(),
            "cycle6",
            PatternSpec::ShortestPath,
            SupervisorConfig {
                threads: 1,
                ..SupervisorConfig::default()
            },
            32,
            &noop,
        )
        .expect("catalog has cycle6");
        assert!(noop.snapshot().counters.is_empty());
    }

    #[test]
    fn shutdown_token_stops_the_drain_between_batches() {
        let mut s = service();
        s.submit(Event::down(0, 1));
        s.submit(Event::up(0, 1));
        s.cancel_token().cancel();
        let reports = s.drain(1);
        assert!(reports.is_empty());
    }
}

//! The deterministic seeded churn-replay driver.
//!
//! One engine, three jobs:
//!
//! * **Load benchmark** — drives a seeded link up/down trace through the
//!   service, measures p50/p99 query latency and epochs/sec, and emits the
//!   CI-style JSON result next to the Criterion bench artifacts.
//! * **Chaos harness** — the trace can be interleaved with injected hostile
//!   patterns (`inject` events); the replay records every published snapshot
//!   digest and a per-query provenance ledger the chaos suite verifies
//!   post hoc against batch recomputation.
//! * **Determinism witness** — with the wall clock out of the state machine
//!   (no rebuild deadline by default, backoff affecting timing only), the
//!   digest sequence, the degraded sets and every deterministic answer are
//!   byte-identical at any worker-thread count.
//!
//! Determinism boundary: everything that flows into digests or the ledger is
//! derived from the seed and the trace; wall-clock time only ever lands in
//! the latency statistics.

use crate::event::{Event, EventError, HostileKind};
use crate::queue::QueueStats;
use crate::service::{AnswerSource, PatternSpec, QueryError, RouteAnswer, Service, TableState};
use crate::supervisor::SupervisorConfig;
use frr_graph::{Edge, Graph, Node};
use frr_obs::{MetricsSnapshot, Registry};
use frr_routing::budget::RunBudget;
use frr_routing::failure::FailureSet;
use frr_topologies::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Replay parameters (see [`ReplayConfig::default`] for the smoke-size
/// defaults).
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Catalog name of the topology to churn.
    pub topology: String,
    /// Generated link up/down events.
    pub events: usize,
    /// Events applied per batch (each batch publishes two epochs).
    pub batch: usize,
    /// Seed for trace generation and query sampling.
    pub seed: u64,
    /// Supervisor worker threads (0 = one per core).
    pub threads: usize,
    /// Driver queries measured after each batch settles.
    pub queries_per_epoch: usize,
    /// Max extra failed links per query overlay.
    pub max_query_failures: usize,
    /// Fault injections: `(trace position, kind)` — the injection event is
    /// spliced in before that position.
    pub injections: Vec<(usize, HostileKind)>,
    /// Emit a duplicate of every k-th link event so the out-of-order
    /// quarantine path is exercised (None = clean trace).
    pub malformed_every: Option<usize>,
    /// Per-attempt rebuild deadline in seconds (None = deterministic
    /// default: the wall clock stays out of the state machine).
    pub deadline_secs: Option<f64>,
    /// Retry backoff base in milliseconds (0 = no sleeping, the replay
    /// default; backoff only ever affects wall-clock, never results).
    pub backoff_base_ms: u64,
    /// Concurrent query-hammer threads exercising the lock-free read path
    /// while rebuilds run (their answers are not part of the deterministic
    /// record).
    pub hammer_threads: usize,
    /// Record the per-query provenance ledger (the chaos suite needs it;
    /// benchmarks leave it off).
    pub keep_ledger: bool,
    /// `r` for the periodic budgeted resilience query (issued every fourth
    /// batch).
    pub resilience_r: usize,
    /// Work budget (failure masks) for each resilience query.
    pub resilience_work: u64,
    /// Wire the service to the process-wide metrics registry and attach the
    /// registry snapshot to the outcome.  The differential replay test pins
    /// that flipping this changes *only* telemetry — digests and ledgers
    /// stay byte-identical.
    pub metrics: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            topology: "Abilene".to_string(),
            events: 40,
            batch: 4,
            seed: 1,
            threads: 0,
            queries_per_epoch: 8,
            max_query_failures: 2,
            injections: Vec::new(),
            malformed_every: None,
            deadline_secs: None,
            backoff_base_ms: 0,
            hammer_threads: 0,
            keep_ledger: false,
            resilience_r: 1,
            resilience_work: 256,
            metrics: false,
        }
    }
}

/// One driver query with everything the post-hoc verifier needs to replay
/// it against a batch recomputation.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Epoch of the answering snapshot.
    pub epoch: u64,
    /// Query source.
    pub s: usize,
    /// Query destination.
    pub t: usize,
    /// Extra failed links the query asked about.
    pub failures: Vec<(usize, usize)>,
    /// Links down at the answering snapshot.
    pub down_now: Vec<(usize, usize)>,
    /// Links down when the serving table was built (compiled answers).
    pub down_at_build: Vec<(usize, usize)>,
    /// Spec the serving table was built with (compiled answers).
    pub built_with: PatternSpec,
    /// The snapshot's spec at answer time (interpreted answers used it).
    pub spec: PatternSpec,
    /// The destination's state-machine position.
    pub state: TableState,
    /// The answer (or the typed error it degraded to).
    pub answer: Result<RouteAnswer, QueryError>,
}

impl LedgerEntry {
    /// `true` when the recorded answer is a deterministic function of the
    /// seed and trace (what cross-thread-count equality may compare).
    pub fn is_deterministic(&self) -> bool {
        match &self.answer {
            Ok(a) => a.source == AnswerSource::Compiled || self.spec.is_deterministic(),
            Err(_) => true,
        }
    }
}

/// Everything one replay run produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The churned topology.
    pub topology: String,
    /// Resolved supervisor thread count setting.
    pub threads: usize,
    /// The seed.
    pub seed: u64,
    /// Trace length actually driven (incl. injections and duplicates).
    pub events: usize,
    /// Snapshot digests in publication order (epoch 1 first).
    pub digests: Vec<u64>,
    /// The last digest.
    pub final_digest: u64,
    /// Destinations degraded in the final snapshot.
    pub degraded_final: Vec<usize>,
    /// Driver queries issued.
    pub queries: usize,
    /// Driver queries answered (value or typed error — always all of them
    /// unless the process aborted, which is the point).
    pub answered: usize,
    /// Queries issued by the hammer threads (load only, not deterministic).
    pub hammer_queries: u64,
    /// Budgeted resilience queries issued.
    pub resilience_queries: usize,
    /// Median driver-query latency (log₂-bucket upper bound, exact max).
    pub p50_ns: u64,
    /// 90th-percentile driver-query latency.
    pub p90_ns: u64,
    /// 99th-percentile driver-query latency.
    pub p99_ns: u64,
    /// Slowest driver query (exact, from the histogram's atomic max).
    pub max_ns: u64,
    /// Published snapshots per wall-clock second.
    pub epochs_per_sec: f64,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Events quarantined.
    pub quarantined: u64,
    /// Ingest-queue counters.
    pub queue: QueueStats,
    /// The process-wide registry snapshot at the end of the run (only when
    /// [`ReplayConfig::metrics`] was set).
    pub metrics: Option<MetricsSnapshot>,
    /// The per-query provenance ledger (empty unless `keep_ledger`).
    pub ledger: Vec<LedgerEntry>,
}

/// Generates the seeded churn trace for `base`: a random walk over the
/// down-set keeping at most `MAX_DOWN` links down, emitting only events that
/// are valid in order (the duplicates requested by `malformed_every` are the
/// deliberate exception, exercising the quarantine path).
pub fn generate_trace(
    base: &Graph,
    events: usize,
    seed: u64,
    malformed_every: Option<usize>,
) -> Vec<Event> {
    const MAX_DOWN: usize = 3;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_706c_6179_5f31);
    let all: Vec<Edge> = base.edges();
    let mut down: Vec<Edge> = Vec::new();
    let mut trace = Vec::with_capacity(events);
    for i in 0..events {
        let repair = !down.is_empty() && (down.len() >= MAX_DOWN || rng.gen_bool(0.4));
        let event = if repair {
            let e = down.remove(rng.gen_range(0..down.len()));
            Event::up(e.u().index(), e.v().index())
        } else {
            let alive: Vec<Edge> = all.iter().filter(|e| !down.contains(e)).copied().collect();
            let e = alive[rng.gen_range(0..alive.len())];
            down.push(e);
            Event::down(e.u().index(), e.v().index())
        };
        trace.push(event.clone());
        if malformed_every.is_some_and(|k| k > 0 && (i + 1) % k == 0) {
            // An exact duplicate is out-of-order by construction: the second
            // copy must quarantine as AlreadyDown/AlreadyUp.
            trace.push(event);
        }
    }
    trace
}

/// Splices the configured injections into a generated trace.
fn splice_injections(mut trace: Vec<Event>, injections: &[(usize, HostileKind)]) -> Vec<Event> {
    let mut sorted: Vec<&(usize, HostileKind)> = injections.iter().collect();
    sorted.sort_by_key(|(pos, _)| *pos);
    // Insert back to front so earlier positions stay valid.
    for (pos, kind) in sorted.into_iter().rev() {
        let at = (*pos).min(trace.len());
        trace.insert(at, Event::Inject { kind: *kind });
    }
    trace
}

fn pairs(edges: impl IntoIterator<Item = Edge>) -> Vec<(usize, usize)> {
    edges
        .into_iter()
        .map(|e| (e.u().index(), e.v().index()))
        .collect()
}

/// Batches between two metrics-observer invocations (metrics runs only).
const OBSERVE_EVERY_BATCHES: usize = 8;

/// Runs one replay (see module docs).  Fails only on a config error (unknown
/// topology); everything the trace throws at the service is survived by
/// design.
pub fn replay(catalog: &[Topology], cfg: &ReplayConfig) -> Result<ReplayOutcome, EventError> {
    replay_with_observer(catalog, cfg, |_, _| {})
}

/// [`replay`] with a periodic metrics observer: when
/// [`ReplayConfig::metrics`] is set, `observer(batches_done, &snapshot)` is
/// called every `OBSERVE_EVERY_BATCHES` batches with a fresh registry
/// snapshot (the CLI prints a live table off this).  The observer is never
/// called on an unwired run, and observation cannot perturb the
/// deterministic record — it only reads telemetry cells.
pub fn replay_with_observer(
    catalog: &[Topology],
    cfg: &ReplayConfig,
    mut observer: impl FnMut(usize, &MetricsSnapshot),
) -> Result<ReplayOutcome, EventError> {
    let base = catalog
        .iter()
        .find(|t| t.name == cfg.topology)
        .ok_or_else(|| EventError::UnknownTopology {
            name: cfg.topology.clone(),
        })?
        .graph
        .clone();
    let trace = splice_injections(
        generate_trace(&base, cfg.events, cfg.seed, cfg.malformed_every),
        &cfg.injections,
    );
    // The whole difference between a wired and an unwired replay is which
    // registry the handles point at; a detached histogram still records, so
    // the latency summary below works identically either way.
    let noop = Registry::noop();
    let registry: &Registry = if cfg.metrics {
        frr_obs::global()
    } else {
        &noop
    };
    let sup = SupervisorConfig {
        threads: cfg.threads,
        deadline: cfg.deadline_secs.map(Duration::from_secs_f64),
        backoff_base: Duration::from_millis(cfg.backoff_base_ms),
        ..SupervisorConfig::default()
    };
    let mut service = Service::with_registry(
        catalog.to_vec(),
        &cfg.topology,
        PatternSpec::ShortestPath,
        sup,
        (cfg.batch.max(1)) * 4,
        registry,
    )?;
    let mut digests = vec![service.snapshot().digest()];
    let mut query_rng = StdRng::seed_from_u64(cfg.seed ^ 0x7175_6572_795f_3332);
    let query_ns = registry.histogram("serve.replay.query_ns");
    let mut ledger: Vec<LedgerEntry> = Vec::new();
    let mut queries = 0usize;
    let mut answered = 0usize;
    let mut resilience_queries = 0usize;
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let hammered = AtomicU64::new(0);
    let reader = service.reader();
    std::thread::scope(|scope| {
        // The hammer: concurrent readers exercising the epoch cell while
        // rebuilds run.  Pure load — their answers never enter the record.
        let hammers: Vec<_> = (0..cfg.hammer_threads)
            .map(|i| {
                let reader = reader.clone();
                let (stop, hammered) = (&stop, &hammered);
                let seed = cfg.seed ^ (0xbeef << 8) ^ i as u64;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    while !stop.load(Ordering::Relaxed) {
                        let snap = reader.snapshot();
                        let n = snap.base.node_count();
                        if n < 2 {
                            continue;
                        }
                        let s = rng.gen_range(0..n);
                        let mut t = rng.gen_range(0..n);
                        if t == s {
                            t = (t + 1) % n;
                        }
                        // Any Ok or typed Err counts as answered; a panic
                        // here would fail the replay via the scope join.
                        let _ = snap.route(Node(s), Node(t), &FailureSet::new());
                        hammered.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        for (batch_idx, chunk) in trace.chunks(cfg.batch.max(1)).enumerate() {
            for ev in chunk {
                service.submit(ev.clone());
            }
            while let Some(report) = service.tick(usize::MAX) {
                if report.epoch_ingested != 0 {
                    digests.push(report.digest_ingested);
                }
                digests.push(report.digest_settled);
            }
            // Driver queries at the quiesce point: deterministic record.
            let snap = service.snapshot();
            let n = snap.base.node_count();
            let survivor_edges = snap.survivor.edges();
            for _ in 0..cfg.queries_per_epoch {
                let s = query_rng.gen_range(0..n);
                let mut t = query_rng.gen_range(0..n);
                if t == s {
                    t = (t + 1) % n;
                }
                let mut failures = FailureSet::new();
                if !survivor_edges.is_empty() && cfg.max_query_failures > 0 {
                    let k = query_rng.gen_range(0..=cfg.max_query_failures);
                    for _ in 0..k {
                        failures
                            .insert(survivor_edges[query_rng.gen_range(0..survivor_edges.len())]);
                    }
                }
                queries += 1;
                let t0 = Instant::now();
                let answer = snap.route(Node(s), Node(t), &failures);
                query_ns.record_duration(t0.elapsed());
                answered += 1;
                if cfg.keep_ledger {
                    let entry = &snap.entries[t];
                    ledger.push(LedgerEntry {
                        epoch: snap.epoch,
                        s,
                        t,
                        failures: pairs(failures.iter().copied()),
                        down_now: pairs(snap.down.iter().copied()),
                        down_at_build: pairs(entry.down_at_build.iter().copied()),
                        built_with: entry.built_with,
                        spec: snap.spec,
                        state: entry.state,
                        answer,
                    });
                }
            }
            if cfg.resilience_r > 0 && batch_idx % 4 == 0 {
                resilience_queries += 1;
                let budget = RunBudget::unlimited().with_work_budget(cfg.resilience_work);
                let _ = snap.resilience(cfg.resilience_r, &budget);
            }
            if cfg.metrics && (batch_idx + 1) % OBSERVE_EVERY_BATCHES == 0 {
                observer(batch_idx + 1, &registry.snapshot());
            }
        }
        stop.store(true, Ordering::Relaxed);
        for h in hammers {
            h.join()
                .expect("hammer thread must survive the whole replay");
        }
    });
    let elapsed = started.elapsed();
    let final_snapshot = service.snapshot();
    let latency = query_ns.view();
    Ok(ReplayOutcome {
        topology: cfg.topology.clone(),
        threads: cfg.threads,
        seed: cfg.seed,
        events: trace.len(),
        final_digest: *digests.last().unwrap_or(&0),
        degraded_final: final_snapshot.degraded(),
        queries,
        answered,
        hammer_queries: hammered.load(Ordering::Relaxed),
        resilience_queries,
        p50_ns: latency.quantile(0.50),
        p90_ns: latency.quantile(0.90),
        p99_ns: latency.quantile(0.99),
        max_ns: latency.max,
        epochs_per_sec: digests.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        elapsed,
        quarantined: service.quarantined(),
        queue: service.queue_stats(),
        metrics: cfg.metrics.then(|| registry.snapshot()),
        digests,
        ledger,
    })
}

/// `$BENCH_RESULTS_DIR`, else `$CARGO_TARGET_DIR/bench-results`, else the
/// workspace `target/bench-results` — the same resolution the vendored
/// Criterion harness uses, so replay artifacts land next to the bench JSON.
pub fn bench_results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BENCH_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(target).join("bench-results");
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .map(|workspace| workspace.join("target").join("bench-results"))
        .unwrap_or_else(|| PathBuf::from("target/bench-results"))
}

impl ReplayOutcome {
    /// The one-object JSON document (schema documented in EXPERIMENTS.md).
    /// The `metrics` key is present exactly when the run was wired
    /// ([`ReplayConfig::metrics`]) and holds the registry snapshot in the
    /// stable [`MetricsSnapshot::to_json`] schema.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .as_ref()
            .map(|m| format!(",\"metrics\":{}", m.to_json()))
            .unwrap_or_default();
        format!(
            concat!(
                "{{\"name\":\"frr_serve_replay\",\"topology\":\"{}\",\"threads\":{},",
                "\"seed\":{},\"events\":{},\"epochs\":{},\"queries\":{},\"answered\":{},",
                "\"hammer_queries\":{},\"resilience_queries\":{},",
                "\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{},",
                "\"epochs_per_sec\":{:.2},\"elapsed_ms\":{},\"degraded\":{},\"quarantined\":{},",
                "\"queue_coalesced\":{},\"queue_dropped\":{},\"queue_dropped_link\":{},",
                "\"queue_dropped_control\":{},\"final_digest\":\"{:#018x}\"{}}}\n"
            ),
            self.topology.replace('\\', "\\\\").replace('"', "\\\""),
            self.threads,
            self.seed,
            self.events,
            self.digests.len(),
            self.queries,
            self.answered,
            self.hammer_queries,
            self.resilience_queries,
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.max_ns,
            self.epochs_per_sec,
            self.elapsed.as_millis(),
            self.degraded_final.len(),
            self.quarantined,
            self.queue.coalesced,
            self.queue.dropped,
            self.queue.dropped_link,
            self.queue.dropped_control,
            self.final_digest,
            metrics,
        )
    }

    /// Writes the JSON document as `<name>.json` under
    /// [`bench_results_dir`], returning the path.
    pub fn write_json(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = bench_results_dir();
        std::fs::create_dir_all(&dir)?;
        let file_name: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{file_name}.json"));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_topologies::builtin_topologies;

    #[test]
    fn generated_traces_are_seed_deterministic_and_orderly() {
        let base = builtin_topologies()
            .into_iter()
            .find(|t| t.name == "Abilene")
            .expect("Abilene is bundled")
            .graph;
        let a = generate_trace(&base, 30, 7, None);
        let b = generate_trace(&base, 30, 7, None);
        assert_eq!(a, b);
        let c = generate_trace(&base, 30, 8, None);
        assert_ne!(a, c);
        // Replaying the events against a down-set never sees disorder.
        let mut down: Vec<(usize, usize)> = Vec::new();
        for ev in &a {
            match ev {
                Event::LinkDown { u, v } => {
                    assert!(!down.contains(&(*u, *v)));
                    down.push((*u, *v));
                }
                Event::LinkUp { u, v } => {
                    let at = down.iter().position(|p| p == &(*u, *v)).expect("was down");
                    down.remove(at);
                }
                _ => unreachable!("generated traces only churn links"),
            }
        }
    }

    #[test]
    fn malformed_every_duplicates_events() {
        let base = builtin_topologies()
            .into_iter()
            .find(|t| t.name == "Abilene")
            .expect("Abilene is bundled")
            .graph;
        let clean = generate_trace(&base, 10, 3, None);
        let dirty = generate_trace(&base, 10, 3, Some(5));
        assert_eq!(clean.len(), 10);
        assert_eq!(dirty.len(), 12);
        assert_eq!(dirty[4], dirty[5]);
    }

    #[test]
    fn injections_splice_at_their_positions() {
        let trace = vec![Event::down(0, 1), Event::down(1, 2), Event::up(0, 1)];
        let spliced = splice_injections(
            trace,
            &[
                (1, HostileKind::PanicOnCompile),
                (99, HostileKind::WellBehaved),
            ],
        );
        assert_eq!(spliced.len(), 5);
        assert_eq!(
            spliced[1],
            Event::Inject {
                kind: HostileKind::PanicOnCompile
            }
        );
        assert_eq!(
            spliced[4],
            Event::Inject {
                kind: HostileKind::WellBehaved
            }
        );
    }

    #[test]
    fn a_small_replay_answers_everything_and_reports() {
        let cfg = ReplayConfig {
            events: 12,
            queries_per_epoch: 4,
            threads: 1,
            seed: 5,
            ..ReplayConfig::default()
        };
        let out = replay(&builtin_topologies(), &cfg).expect("Abilene exists");
        assert_eq!(out.queries, out.answered);
        assert!(out.queries > 0);
        assert!(out.digests.len() >= 3);
        assert_eq!(out.final_digest, *out.digests.last().expect("nonempty"));
        assert!(out.degraded_final.is_empty());
        let json = out.to_json();
        assert!(json.contains("\"name\":\"frr_serve_replay\""));
        assert!(json.contains("\"p50_ns\""));
        assert!(json.contains("\"epochs_per_sec\""));
        // Unwired run: latency summary present, metrics section absent.
        assert!(out.metrics.is_none());
        assert!(!json.contains("\"metrics\""));
        assert!(out.max_ns >= out.p99_ns);
        assert!(out.p99_ns >= out.p90_ns && out.p90_ns >= out.p50_ns);
        assert!(out.max_ns > 0, "queries ran, so the max latency is real");
    }

    #[test]
    fn a_wired_replay_attaches_and_emits_the_metrics_snapshot() {
        let cfg = ReplayConfig {
            events: 20,
            batch: 2,
            queries_per_epoch: 2,
            threads: 1,
            seed: 9,
            metrics: true,
            ..ReplayConfig::default()
        };
        let mut observations = 0usize;
        let out = replay_with_observer(&builtin_topologies(), &cfg, |batches, snap| {
            observations += 1;
            assert!(batches > 0);
            assert!(snap.counter("serve.epoch.published").is_some());
        })
        .expect("Abilene exists");
        // 10 batches at OBSERVE_EVERY_BATCHES=8 → exactly one observation.
        assert_eq!(observations, 1);
        let metrics = out.metrics.as_ref().expect("wired run keeps a snapshot");
        // Lower bounds only: the global registry is shared with sibling
        // tests in this process.
        assert!(metrics.counter("serve.epoch.published").unwrap_or(0) >= 21);
        assert!(metrics.counter("serve.queue.enqueued").unwrap_or(0) >= 20);
        assert!(metrics.counter("serve.rebuild.attempts").unwrap_or(0) > 0);
        assert!(metrics
            .histogram("serve.replay.query_ns")
            .is_some_and(|h| h.count > 0));
        let json = out.to_json();
        assert!(json.contains(",\"metrics\":{\"counters\":{"));
        assert!(json.contains("serve.epoch.published"));
    }

    #[test]
    fn unknown_topology_is_a_typed_error() {
        let cfg = ReplayConfig {
            topology: "atlantis".to_string(),
            ..ReplayConfig::default()
        };
        assert!(matches!(
            replay(&builtin_topologies(), &cfg),
            Err(EventError::UnknownTopology { .. })
        ));
    }
}

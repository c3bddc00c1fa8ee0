//! The `serve_churn` workload: the `frr-serve` control plane keeping
//! per-destination tables fresh on Arpanet1972 while links fail and recover.
//!
//! A closed loop with one client: submit a batch of 4 link events, tick the
//! service until the batch's `Settled` snapshot is published (2 supervisor
//! workers), then send 64 `Snapshot::route` queries with 0–2 extra failed
//! links each, plus a budgeted r = 1 `Snapshot::resilience` query every 4th
//! batch.  The service is wired to `frr_obs::global()`.  The churn comes
//! from `generate_trace` in episodes of 4096 events; between episodes the
//! links still down are brought back up, so every event is valid.

use crate::stats::{median, LatencyHist, SplitMix};
use crate::trace::{timed, Tracer};
use crate::{trace_summary, Config, Gate, Report, Size};
use frr_graph::budget::StopSignal;
use frr_graph::{Graph, Node};
use frr_obs::Histogram;
use frr_routing::budget::{RunBudget, Verdict};
use frr_routing::compiled::{CompilePattern, CompiledSim};
use frr_routing::failure::FailureSet;
use frr_routing::pattern::ShortestPathPattern;
use frr_routing::resilience::check_bounded_r_resilience_with_budget;
use frr_routing::simulator::{route, Outcome};
use frr_serve::event::Event;
use frr_serve::replay::generate_trace;
use frr_serve::service::{
    AnswerSource, PatternSpec, Phase, Service, Snapshot, Staleness, TableState,
};
use frr_serve::supervisor::{rebuild_tables, SupervisorConfig};
use frr_topologies::builtin_topologies;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const TOPOLOGY: &str = "Arpanet1972";
const BATCH: usize = 4;
const QUERIES_PER_BATCH: usize = 64;
const MAX_QUERY_FAILURES: usize = 2;
const RESILIENCE_EVERY: usize = 4;
/// Failure masks a resilience query may examine (Arpanet1972 has 27 masks
/// of at most one failed link, so the query always completes).
const RESILIENCE_WORK: u64 = 256;
const SUPERVISOR_WORKERS: usize = 2;
/// Set-ups before the first window (each window adds one): a set-up is
/// under a millisecond and mostly thread start-up, so it needs many
/// samples across the run for a steady median.
const SETUP_REPEATS: usize = 5;
const WARMUP_BATCHES: usize = 64;
/// Every this-many-th query is re-answered by the interpreted simulator,
/// up to `MAX_SAMPLES` answers (a fixed count, so the benchmark's own
/// memory does not depend on how fast the service is).
const VERIFY_EVERY: usize = 97;
const MAX_SAMPLES: usize = 512;

fn supervisor() -> SupervisorConfig {
    SupervisorConfig {
        threads: SUPERVISOR_WORKERS,
        ..SupervisorConfig::default()
    }
}

/// Stands the service up: the catalog, then every destination's table.
fn stand_up() -> Gate<Service> {
    Service::with_registry(
        builtin_topologies(),
        TOPOLOGY,
        PatternSpec::ShortestPath,
        supervisor(),
        BATCH * 4,
        frr_obs::global(),
    )
    .map_err(|e| format!("service set-up: {e}"))
}

/// Set-up repeated [`SETUP_REPEATS`] times; the first service is kept.
fn setup() -> Gate<(Service, Vec<f64>)> {
    let (service, ns) = timed(stand_up);
    let service = service?;
    let mut times = vec![ns as f64 / 1e9];
    let first = service.snapshot().digest();
    for _ in 1..SETUP_REPEATS {
        resetup(first, &mut times)?;
    }
    Ok((service, times))
}

/// One more set-up sample, gated to publish the same first snapshot (digest
/// `first`).
fn resetup(first: u64, times: &mut Vec<f64>) -> Gate<()> {
    let (again, ns) = timed(stand_up);
    if again?.snapshot().digest() != first {
        return Err("a repeated set-up published a different snapshot".into());
    }
    times.push(ns as f64 / 1e9);
    Ok(())
}

/// The seeded event stream and query generator.
struct Client {
    base: Graph,
    seed: u64,
    episode_events: usize,
    episode: u64,
    pending: std::vec::IntoIter<Event>,
    rng: SplitMix,
}

impl Client {
    fn new(base: Graph, cfg: &Config) -> Self {
        Client {
            base,
            seed: cfg.seed,
            episode_events: if cfg.size == Size::Tiny { 200 } else { 4096 },
            episode: 0,
            pending: Vec::new().into_iter(),
            rng: SplitMix::new(cfg.seed ^ 0x7175_6572_795f_3634),
        }
    }

    /// The next batch of link events.  A new episode first repairs the
    /// links the service still has down.
    fn next_batch(&mut self, snap: &Snapshot) -> Vec<Event> {
        if self.pending.len() == 0 {
            let mut events: Vec<Event> = snap
                .down
                .iter()
                .map(|e| Event::up(e.u().index(), e.v().index()))
                .collect();
            let seed = self
                .seed
                .wrapping_add(self.episode.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            events.extend(generate_trace(&self.base, self.episode_events, seed, None));
            self.episode += 1;
            self.pending = events.into_iter();
        }
        self.pending.by_ref().take(BATCH).collect()
    }

    /// A query `(s, t, extra failed links)` against `snap`.
    fn query(&mut self, snap: &Snapshot) -> (Node, Node, FailureSet) {
        let n = snap.base.node_count();
        let s = self.rng.below(n);
        let mut t = self.rng.below(n);
        if t == s {
            t = (t + 1) % n;
        }
        let survivors = snap.survivor.edges();
        let mut failures = FailureSet::new();
        if !survivors.is_empty() {
            for _ in 0..self.rng.below(MAX_QUERY_FAILURES + 1) {
                failures.insert(survivors[self.rng.below(survivors.len())]);
            }
        }
        (Node(s), Node(t), failures)
    }
}

/// A query answer kept for the post-run check against the interpreted
/// simulator.
struct Sample {
    survivor: Graph,
    s: Node,
    t: Node,
    failures: FailureSet,
    outcome: Outcome,
    path: Vec<Node>,
    max_hops: usize,
}

/// Ticks one submitted batch to its `Settled` snapshot and gates it: every
/// event applied, every destination rebuilt and fresh.
fn settle(service: &mut Service, submitted: usize) -> Gate<Arc<Snapshot>> {
    let report = service
        .tick(usize::MAX)
        .ok_or("tick found an empty queue")?;
    let snap = service.snapshot();
    let n = snap.base.node_count();
    if report.applied != submitted || report.quarantined != 0 {
        return Err(format!(
            "epoch {}: {} of {submitted} events applied, {} quarantined",
            report.epoch_settled, report.applied, report.quarantined
        ));
    }
    if report.rebuilt != n || !report.degraded.is_empty() || snap.phase != Phase::Settled {
        return Err(format!(
            "epoch {}: {} of {n} tables rebuilt, degraded {:?}",
            report.epoch_settled, report.rebuilt, report.degraded
        ));
    }
    if snap
        .entries
        .iter()
        .any(|e| e.state != TableState::Fresh || e.table.is_none())
    {
        return Err(format!("epoch {}: a destination is not fresh", snap.epoch));
    }
    Ok(snap)
}

/// Gates one answer: served from a fresh compiled table of this epoch.
fn check_answer(
    snap: &Snapshot,
    answer: &Result<frr_serve::service::RouteAnswer, frr_serve::service::QueryError>,
) -> Gate<()> {
    match answer {
        Ok(a)
            if a.staleness == Staleness::Fresh
                && a.source == AnswerSource::Compiled
                && a.state == TableState::Fresh
                && a.epoch == snap.epoch =>
        {
            Ok(())
        }
        Ok(a) => Err(format!(
            "epoch {}: answer {:?} from {:?} ({:?})",
            snap.epoch, a.staleness, a.source, a.state
        )),
        Err(e) => Err(format!("epoch {}: query failed: {e}", snap.epoch)),
    }
}

fn resilience_query(snap: &Snapshot) -> Gate<()> {
    let budget = RunBudget::unlimited().with_work_budget(RESILIENCE_WORK);
    match snap.resilience(1, &budget).verdict {
        Ok(Verdict::Proven | Verdict::Refuted(_)) => Ok(()),
        Ok(other) => Err(format!(
            "epoch {}: resilience query undecided: {other:?}",
            snap.epoch
        )),
        Err(e) => Err(format!(
            "epoch {}: resilience query failed: {e}",
            snap.epoch
        )),
    }
}

/// Re-answers the sampled queries with `simulator::route` and the pattern
/// built on the snapshot's survivor graph.
fn verify_samples(samples: &[Sample]) -> Gate<()> {
    for (i, q) in samples.iter().enumerate() {
        let pattern = ShortestPathPattern::new(&q.survivor);
        let r = route(&q.survivor, &q.failures, &pattern, q.s, q.t, q.max_hops);
        if r.outcome != q.outcome || r.path != q.path {
            return Err(format!(
                "sample {i} ({} -> {}): served {:?} {:?}, simulator {:?} {:?}",
                q.s, q.t, q.outcome, q.path, r.outcome, r.path
            ));
        }
    }
    Ok(())
}

/// Events the run consumes: bounded by time at full size, by one
/// 200-event episode in the self-test.
fn keep_going(cfg: &Config, started: Instant, events: usize) -> bool {
    match cfg.size {
        Size::Full => started.elapsed().as_secs_f64() < cfg.seconds,
        Size::Tiny => events < 200,
    }
}

/// One untraced batch of the closed loop; returns the tick time and pushes
/// per-query times.
fn batch(
    service: &mut Service,
    client: &mut Client,
    batch_idx: usize,
    query_ns: &mut LatencyHist,
    samples: &mut Vec<Sample>,
    queries: &mut usize,
) -> Gate<(usize, u64)> {
    let events = client.next_batch(&service.snapshot());
    let submitted = events.len();
    for ev in events {
        service.submit(ev);
    }
    let (snap, tick_ns) = timed(|| settle(service, submitted));
    let snap = snap?;
    for _ in 0..QUERIES_PER_BATCH {
        let (s, t, failures) = client.query(&snap);
        let (answer, ns) = timed(|| snap.route(s, t, &failures));
        check_answer(&snap, &answer)?;
        query_ns.record(ns);
        *queries += 1;
        if queries.is_multiple_of(VERIFY_EVERY) && samples.len() < MAX_SAMPLES {
            let a = answer.expect("checked above");
            samples.push(Sample {
                survivor: snap.survivor.clone(),
                s,
                t,
                failures,
                outcome: a.outcome,
                path: a.path,
                max_hops: a.max_hops,
            });
        }
    }
    if batch_idx.is_multiple_of(RESILIENCE_EVERY) {
        resilience_query(&snap)?;
    }
    Ok((submitted, tick_ns))
}

/// Length of one measurement window.  The machine's speed changes from
/// one tenth of a second to the next, so the run is cut into windows and
/// reports its quietest quarter of them (those with the highest batch
/// throughput): rates over their summed time, latency quantiles over their
/// pooled samples.  Windows are short so that one stall of a few
/// milliseconds costs its window enough throughput to drop it.
const WINDOW_S: f64 = 0.05;

/// The window being filled.
struct Window {
    started: Instant,
    batches: usize,
    events: usize,
    tick_ns: LatencyHist,
    query_ns: LatencyHist,
}

/// A closed window, its histograms kept compact.
struct Closed {
    secs: f64,
    batches: usize,
    events: usize,
    tick_ns: Vec<(u16, u32)>,
    query_ns: Vec<(u16, u32)>,
}

impl Window {
    fn new() -> Self {
        Window {
            started: Instant::now(),
            batches: 0,
            events: 0,
            tick_ns: LatencyHist::new(),
            query_ns: LatencyHist::new(),
        }
    }

    fn close(&self) -> Closed {
        Closed {
            secs: self.started.elapsed().as_secs_f64(),
            batches: self.batches,
            events: self.events,
            tick_ns: self.tick_ns.buckets(),
            query_ns: self.query_ns.buckets(),
        }
    }
}

/// The pooled samples of the quietest quarter of the windows.
struct Quiet {
    secs: f64,
    batches: usize,
    events: usize,
    tick_ns: LatencyHist,
    query_ns: LatencyHist,
}

fn quietest_quarter(mut windows: Vec<Closed>) -> Quiet {
    let rate = |w: &Closed| w.batches as f64 / w.secs;
    windows.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    windows.truncate(windows.len().div_ceil(4));
    let mut quiet = Quiet {
        secs: 0.0,
        batches: 0,
        events: 0,
        tick_ns: LatencyHist::new(),
        query_ns: LatencyHist::new(),
    };
    for w in &windows {
        quiet.secs += w.secs;
        quiet.batches += w.batches;
        quiet.events += w.events;
        quiet.tick_ns.merge(&w.tick_ns);
        quiet.query_ns.merge(&w.query_ns);
    }
    quiet
}

pub fn run(cfg: &Config) -> Gate<Report> {
    let mut report = Report::default();
    let (mut service, mut setup_s) = setup()?;
    let first_digest = service.snapshot().digest();
    let mut client = Client::new(service.snapshot().base.clone(), cfg);
    let (mut samples, mut queries) = (Vec::new(), 0usize);
    let warmup = if cfg.size == Size::Tiny {
        2
    } else {
        WARMUP_BATCHES
    };
    for i in 0..warmup {
        batch(
            &mut service,
            &mut client,
            i,
            &mut LatencyHist::new(),
            &mut samples,
            &mut queries,
        )?;
    }
    let (mut windows, mut window) = (Vec::new(), Window::new());
    let (mut events, mut batches, mut timed_queries) = (0usize, 0usize, 0usize);
    let started = Instant::now();
    while batches == 0 || keep_going(cfg, started, events) {
        let before = window.query_ns.len();
        let (submitted, ns) = batch(
            &mut service,
            &mut client,
            batches,
            &mut window.query_ns,
            &mut samples,
            &mut queries,
        )?;
        window.tick_ns.record(ns);
        window.batches += 1;
        window.events += submitted;
        timed_queries += window.query_ns.len() - before;
        events += submitted;
        batches += 1;
        if window.started.elapsed().as_secs_f64() >= WINDOW_S {
            windows.push(window.close());
            resetup(first_digest, &mut setup_s)?;
            window = Window::new();
        }
    }
    // A run too short for one whole window (the self-test) reports its
    // partial window.
    if windows.is_empty() {
        windows.push(window.close());
    }
    let closed = windows.len();
    let quiet = quietest_quarter(windows);
    verify_samples(&samples)?;
    report.metric("setup_s", median(&setup_s), setup_s.len());
    report.metric(
        "graphs_per_s",
        quiet.batches as f64 / quiet.secs,
        quiet.batches,
    );
    report.metric(
        "events_per_s",
        quiet.events as f64 / quiet.secs,
        quiet.events,
    );
    for (name, q) in [("reconverge_us_p50", 0.5), ("reconverge_us_p99", 0.99)] {
        report.metric(name, quiet.tick_ns.quantile(q) / 1e3, quiet.tick_ns.len());
    }
    for (name, q) in [("query_ns_p50", 0.5), ("query_ns_p99", 0.99)] {
        report.metric(name, quiet.query_ns.quantile(q), quiet.query_ns.len());
    }
    report.attempted = (events + timed_queries + batches.div_ceil(RESILIENCE_EVERY)) as u64;
    report.notes.push(("windows", closed.to_string()));
    report
        .notes
        .push(("verified_samples", samples.len().to_string()));
    Ok(report)
}

/// Per-layer tallies of the traced loop (sums; divided at the end).
#[derive(Default)]
struct Layers {
    submit_ns: u64,
    submits: u64,
    tick_ns: u64,
    rebuild_ns: u64,
    compile_ns: u64,
    tables: u64,
    digest_ns: u64,
    digests: u64,
    query_ns: u64,
    compiled_ns: u64,
    record_ns: u64,
    queries: u64,
    resilience_ns: u64,
    resilience_queries: u64,
    /// Rebuild attempts made by the split's own `rebuild_tables` calls.
    split_attempts: u64,
}

pub fn traced(cfg: &Config) -> Gate<Report> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let registry = frr_obs::global();
    let (mut service, _) = setup()?;
    let mut client = Client::new(service.snapshot().base.clone(), cfg);
    let (mut discarded_ns, mut samples, mut queries) = (LatencyHist::new(), Vec::new(), 0usize);
    let warmup = if cfg.size == Size::Tiny {
        2
    } else {
        WARMUP_BATCHES
    };
    for i in 0..warmup {
        batch(
            &mut service,
            &mut client,
            i,
            &mut discarded_ns,
            &mut samples,
            &mut queries,
        )?;
    }
    let hist = Histogram::new();
    let before = registry.snapshot();
    let mut l = Layers::default();
    let (mut untraced_tick, mut traced_tick) = (Vec::new(), Vec::new());
    let (mut traced_wall_ns, mut events, mut batches) = (0u64, 0usize, 0usize);
    let started = Instant::now();
    // Untraced and traced batches alternate; each half sends a resilience
    // query every other round, so every 4th batch carries one.
    let mut round = 0usize;
    while round == 0 || keep_going(cfg, started, events) {
        let (submitted, ns) = batch(
            &mut service,
            &mut client,
            2 * round,
            &mut discarded_ns,
            &mut samples,
            &mut queries,
        )?;
        events += submitted;
        batches += 1;
        untraced_tick.push(ns as f64);

        let section = Instant::now();
        let evs = client.next_batch(&service.snapshot());
        let submitted = evs.len();
        let (_, submit_id) = tracer.span("serve.queue", |_| {
            for ev in evs {
                service.submit(ev);
            }
        });
        let (snap, tick_id) =
            tracer.span("serve.service.tick", |_| settle(&mut service, submitted));
        let snap = snap?;
        let inputs: Vec<(Node, Node, FailureSet)> = (0..QUERIES_PER_BATCH)
            .map(|_| client.query(&snap))
            .collect();
        let (answers, query_id) = tracer.span("serve.query", |_| {
            inputs
                .iter()
                .map(|(s, t, f)| snap.route(*s, *t, f))
                .collect::<Vec<_>>()
        });
        let resilience =
            (round % 2 == 1).then(|| tracer.span("serve.resilience", |_| resilience_query(&snap)));
        traced_tick.push(tracer.duration_ns(tick_id) as f64);
        for a in &answers {
            check_answer(&snap, a)?;
        }
        if let Some((gate, _)) = &resilience {
            gate.clone()?;
        }

        // The split: the inner layers' public functions on the same inputs.
        let (
            (rebuild_ns, split_attempts, compile_ns, digest_ns, compiled_ns, record_ns, check_ns),
            _,
        ) = tracer.span("bench.split", |_| {
            let n = snap.base.node_count();
            let dests: Vec<usize> = (0..n).collect();
            let (outcomes, rebuild_ns) = timed(|| {
                rebuild_tables(
                    &snap.survivor,
                    &snap.spec,
                    &dests,
                    &supervisor(),
                    &StopSignal::none(),
                )
            });
            let compile_ns: u64 = (0..n)
                .map(|t| {
                    timed(|| {
                        snap.spec
                            .pattern(&snap.survivor)
                            .compile_destination(&snap.survivor, Node(t))
                    })
                    .1
                })
                .sum();
            let same_tables = outcomes.iter().zip(&snap.entries).all(|(o, e)| {
                o.table.as_ref().map(|t| t.digest()) == e.table.as_ref().map(|t| t.digest())
            });
            let (_, digest_ns) = timed(|| black_box(snap.digest()));
            let (_, compiled_ns) = timed(|| {
                for (s, t, failures) in &inputs {
                    let table = snap.entries[t.index()]
                        .table
                        .as_ref()
                        .expect("fresh entries have tables");
                    let mut overlay = failures.clone();
                    for e in &snap.down {
                        if !snap.entries[t.index()].down_at_build.contains(e) {
                            overlay.insert(*e);
                        }
                    }
                    let mut sim = CompiledSim::new(table);
                    sim.load_failures(table, &overlay);
                    black_box(sim.route(table, *s, *t, table.csr().state_count() + 1));
                }
            });
            let (_, record_ns) = timed(|| {
                for i in 0..QUERIES_PER_BATCH as u64 {
                    hist.record(black_box(500 + i));
                }
            });
            let check_ns = resilience.as_ref().map(|_| {
                let budget = RunBudget::unlimited().with_work_budget(RESILIENCE_WORK);
                let pattern = ShortestPathPattern::new(&snap.survivor);
                timed(|| {
                    check_bounded_r_resilience_with_budget(&snap.survivor, &pattern, 1, &budget)
                })
                .1
            });
            (
                same_tables.then_some(rebuild_ns),
                outcomes.iter().map(|o| u64::from(o.attempts)).sum::<u64>(),
                compile_ns,
                digest_ns,
                compiled_ns,
                record_ns,
                check_ns,
            )
        });
        let rebuild_ns = rebuild_ns.ok_or("a repeated rebuild produced different tables")?;
        let tables = snap.base.node_count() as u64;
        // The tick rebuilds on 2 workers and digests two snapshots.
        let compile_share = rebuild_ns.min(compile_ns / SUPERVISOR_WORKERS as u64);
        tracer.attribute(tick_id, "routing.compile", compile_share);
        tracer.attribute(tick_id, "serve.supervisor", rebuild_ns - compile_share);
        tracer.attribute(tick_id, "serve.snapshot", 2 * digest_ns);
        tracer.attribute(query_id, "routing.route", compiled_ns);
        tracer.attribute(query_id, "obs.hist", record_ns);
        if let (Some((_, id)), Some(ns)) = (&resilience, check_ns) {
            tracer.attribute(*id, "routing.resilience", ns);
            l.resilience_ns += tracer.duration_ns(*id);
            l.resilience_queries += 1;
        }
        l.split_attempts += split_attempts;
        l.submit_ns += tracer.duration_ns(submit_id);
        l.submits += submitted as u64;
        l.tick_ns += tracer.duration_ns(tick_id);
        l.rebuild_ns += rebuild_ns;
        l.compile_ns += compile_ns;
        l.tables += tables;
        l.digest_ns += digest_ns;
        l.digests += 1;
        l.query_ns += tracer.duration_ns(query_id);
        l.compiled_ns += compiled_ns;
        l.record_ns += record_ns;
        l.queries += QUERIES_PER_BATCH as u64;
        events += submitted;
        batches += 1;
        round += 1;
        traced_wall_ns += section.elapsed().as_nanos() as u64;
    }
    verify_samples(&samples)?;
    let after = registry.snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let settled = batches as f64;
    let traced_batches = l.digests.max(1) as f64;
    report.metric(
        "routing.compile.us_per_table",
        l.compile_ns as f64 / 1e3 / l.tables.max(1) as f64,
        l.tables as usize,
    );
    report.metric(
        "serve.supervisor.rebuild_us",
        l.rebuild_ns as f64 / 1e3 / traced_batches,
        l.digests as usize,
    );
    report.metric(
        "serve.service.publish_us",
        l.tick_ns.saturating_sub(l.rebuild_ns) as f64 / 1e3 / traced_batches,
        l.digests as usize,
    );
    report.metric(
        "serve.snapshot.digest_us",
        l.digest_ns as f64 / 1e3 / traced_batches,
        l.digests as usize,
    );
    report.metric(
        "serve.rebuild.attempts",
        (delta("serve.rebuild.attempts") - l.split_attempts) as f64 / settled,
        batches,
    );
    report.metric(
        "serve.epoch.published",
        delta("serve.epoch.published") as f64 / settled,
        batches,
    );
    report.metric(
        "routing.route.ns_per_route",
        l.compiled_ns as f64 / l.queries.max(1) as f64,
        l.queries as usize,
    );
    report.metric(
        "serve.query.overlay_ns",
        l.query_ns.saturating_sub(l.compiled_ns) as f64 / l.queries.max(1) as f64,
        l.queries as usize,
    );
    report.metric(
        "obs.hist.record_ns",
        l.record_ns as f64 / l.queries.max(1) as f64,
        l.queries as usize,
    );
    report.metric(
        "serve.queue.submit_ns",
        l.submit_ns as f64 / l.submits.max(1) as f64,
        l.submits as usize,
    );
    report.metric(
        "serve.resilience.us_per_query",
        l.resilience_ns as f64 / 1e3 / l.resilience_queries.max(1) as f64,
        l.resilience_queries as usize,
    );
    report.metric("failed_share", 0.0, events + queries);
    report.attempted = (events + queries) as u64 + l.queries;
    trace_summary(
        cfg,
        &mut report,
        &tracer,
        traced_wall_ns,
        median(&traced_tick) / median(&untraced_tick) - 1.0,
    );
    Ok(report)
}

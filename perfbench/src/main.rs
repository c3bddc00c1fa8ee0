//! The repository benchmark: three seeded workloads driven through the
//! public APIs of the workspace crates, with correctness gates, end-to-end
//! metrics (untraced runs) and per-layer metrics (traced runs).
//!
//! ```text
//! frr-perfbench --workload <zoo_classify|zoo_resilience|serve_churn>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               [--zoo-seed <n>] [--size <full|tiny>]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it holds
//! the run's provenance.  A failed correctness gate prints no numbers and
//! exits with status 1; a usage error exits with status 2.  See
//! `perfbench/README.md` for what each workload and metric means.

mod churn;
mod stats;
mod trace;
mod zoo;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("graphs_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("reconverge_us_p50", "us"),
    ("reconverge_us_p99", "us"),
    ("query_ns_p50", "ns"),
    ("query_ns_p99", "ns"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units.  A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topologies.zoo.gen_ms", "ms"),
    ("graph.planarity.ns_per_graph", "ns"),
    ("graph.outerplanar.ns_per_call", "ns"),
    ("graph.minors.ms_per_search", "ms"),
    ("graph.minors.contractions", "count"),
    ("graph.minors.contractions_per_s", "1/s"),
    ("graph.minors.memo_hit_ratio", "ratio"),
    ("graph.minors.unknown_ratio", "ratio"),
    ("core.classify.ms_per_graph_p50", "ms"),
    ("core.classify.ms_per_graph_max", "ms"),
    ("core.classify.cache_hit_ratio", "ratio"),
    ("core.classify.speedup_2w", "x"),
    ("routing.route.ns_per_route", "ns"),
    ("routing.route.routes", "count"),
    ("routing.sweep.masks", "count"),
    ("routing.sweep.toggle_ns", "ns"),
    ("routing.sweep.masks_examined_ratio", "ratio"),
    ("routing.compile.us_per_table", "us"),
    ("routing.resilience.ms_per_graph_max", "ms"),
    ("serve.supervisor.rebuild_us", "us"),
    ("serve.service.publish_us", "us"),
    ("serve.snapshot.digest_us", "us"),
    ("serve.rebuild.attempts", "count"),
    ("serve.epoch.published", "count"),
    ("serve.query.overlay_ns", "ns"),
    ("obs.hist.record_ns", "ns"),
    ("serve.queue.submit_ns", "ns"),
    ("serve.resilience.us_per_query", "us"),
    ("failed_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("topologies.self_share", "ratio"),
    ("graph.self_share", "ratio"),
    ("core.self_share", "ratio"),
    ("routing.self_share", "ratio"),
    ("serve.self_share", "ratio"),
    ("obs.self_share", "ratio"),
];

/// The default `--seed`; `perfbench/README.md` records it with the
/// held-out seeds the gates were confirmed on.
pub const DEFAULT_SEED: u64 = 1;

/// How large the workloads are: `Full` is the benchmark, `Tiny` the
/// self-test (10 zoo graphs, a 200-event churn trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One run's settings, all from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub zoo_seed: u64,
    pub size: Size,
}

impl Config {
    /// `true` when the zoo gates' recorded values apply to this run: the
    /// default zoo at full size.
    pub fn is_default_input(&self) -> bool {
        self.zoo_seed == frr_topologies::ZooConfig::default().seed && self.size == Size::Full
    }
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// What a workload hands back: its metrics, the operations it attempted and
/// notes for the provenance line.  There is no failure count: a failed
/// operation fails a gate, which stops the run before anything is printed.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }
}

/// A correctness gate failed: the message is printed and no number is.
pub type Gate<T> = Result<T, String>;

const USAGE: &str = "usage: frr-perfbench --workload <zoo_classify|zoo_resilience|serve_churn> \
--seed <n> --seconds <s> --trace <0|1> [--zoo-seed <n>] [--size <full|tiny>]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        zoo_seed: frr_topologies::ZooConfig::default().seed,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad {what} value {value:?}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("--seconds"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) {
                    return Err(bad("--seconds"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--zoo-seed" => cfg.zoo_seed = value.parse().map_err(|_| bad("--zoo-seed"))?,
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("--size")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["zoo_classify", "zoo_resilience", "serve_churn"].contains(&cfg.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", cfg.workload));
    }
    Ok(cfg)
}

/// The checkout's git revision, read from `.git` without running git; the
/// benchmark may run in an exported tree that has none.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| {
                read(".git/packed-refs")
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next().map(str::to_string))
                    })
                    .unwrap_or_else(|| "unknown".to_string())
            }),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// Where the traced runs write their span files: under the cargo target
/// directory, which is inside the checkout.
fn trace_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(target).join("perfbench")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(cfg: &Config) -> Gate<Report> {
    let mut report = match (cfg.workload.as_str(), cfg.trace) {
        ("zoo_classify", false) => zoo::classify_run(cfg)?,
        ("zoo_classify", true) => zoo::classify_traced(cfg)?,
        ("zoo_resilience", false) => zoo::resilience_run(cfg)?,
        ("zoo_resilience", true) => zoo::resilience_traced(cfg)?,
        ("serve_churn", false) => churn::run(cfg)?,
        _ => churn::traced(cfg)?,
    };
    if !cfg.trace {
        report.metric("peak_rss_mb", stats::peak_rss_mb(), 1);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("frr-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(gate) => {
            eprintln!("frr-perfbench: correctness gate failed: {gate}");
            return ExitCode::from(1);
        }
    };
    let expected = if cfg.trace { PER_LAYER } else { END_TO_END };
    let measured: BTreeMap<&str, &Metric> = report.metrics.iter().map(|m| (m.name, m)).collect();
    if let Some(extra) = report
        .metrics
        .iter()
        .find(|m| !expected.iter().any(|e| e.0 == m.name))
    {
        eprintln!(
            "frr-perfbench: internal error: unlisted metric {}",
            extra.name
        );
        return ExitCode::from(1);
    }
    let mut metrics_json = Vec::new();
    let mut samples_json = Vec::new();
    eprintln!(
        "{:<40} {:>18} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for &(name, unit) in expected {
        // Traced runs report 0 for layers the workload never calls; an
        // untraced run must measure every end-to-end metric.
        let (value, samples) = match measured.get(name) {
            Some(m) => (m.value, m.samples),
            None if cfg.trace => (0.0, 0),
            None => {
                eprintln!("frr-perfbench: internal error: {name} was not measured");
                return ExitCode::from(1);
            }
        };
        if !value.is_finite() {
            eprintln!("frr-perfbench: internal error: {name} = {value}");
            return ExitCode::from(1);
        }
        eprintln!("{name:<40} {value:>18.6} {unit:<6} {samples:>8}");
        metrics_json.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
        samples_json.push(format!("{}: {samples}", json_str(name)));
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut notes: Vec<String> = vec![
        format!("\"workload\": {}", json_str(&cfg.workload)),
        format!("\"seed\": {}", cfg.seed),
        format!("\"zoo_seed\": {}", cfg.zoo_seed),
        format!("\"seconds\": {}", cfg.seconds),
        format!("\"trace\": {}", cfg.trace),
        format!(
            "\"size\": {}",
            json_str(&format!("{:?}", cfg.size).to_lowercase())
        ),
        format!("\"cores\": {cores}"),
        format!("\"git_rev\": {}", json_str(&git_rev())),
        format!("\"build_profile\": {}", json_str(profile)),
        "\"warm_up\": \"one untimed warm-up pass ran before measuring\"".to_string(),
        format!("\"samples\": {{{}}}", samples_json.join(", ")),
    ];
    for (k, v) in &report.notes {
        notes.push(format!("{}: {}", json_str(k), json_str(v)));
    }
    println!("{{\"provenance\": {{{}}}}}", notes.join(", "));
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        metrics_json.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes a traced run's spans to `<target>/perfbench/trace-<workload>-<seed>.jsonl`
/// and returns the path written (best effort: a write error is reported in
/// the provenance, never fatal).
fn write_trace(cfg: &Config, tracer: &trace::Tracer) -> String {
    let dir = trace_dir();
    let path = dir.join(format!("trace-{}-{}.jsonl", cfg.workload, cfg.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

/// Fills the metrics every traced run reports: layer self-time shares over
/// the workload's spans (the benchmark's own `bench.*` spans excluded),
/// span coverage of the traced wall time, and the tracing overhead.
pub fn trace_summary(
    cfg: &Config,
    report: &mut Report,
    tracer: &trace::Tracer,
    traced_wall_ns: u64,
    overhead_share: f64,
) {
    let layers = tracer.self_ns_by_layer();
    let workload_ns: u64 = layers
        .iter()
        .filter(|(l, _)| **l != "bench")
        .map(|(_, ns)| ns)
        .sum();
    let share =
        |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 / workload_ns.max(1) as f64;
    report.metric("topologies.self_share", share("topologies"), 1);
    report.metric("graph.self_share", share("graph"), 1);
    report.metric("core.self_share", share("core"), 1);
    report.metric("routing.self_share", share("routing"), 1);
    report.metric("serve.self_share", share("serve"), 1);
    report.metric("obs.self_share", share("obs"), 1);
    report.metric(
        "trace.coverage",
        tracer.root_ns() as f64 / traced_wall_ns.max(1) as f64,
        1,
    );
    report.metric("trace.overhead_share", overhead_share, 1);
    eprintln!("self time by span (ms):");
    for (name, ns) in tracer.self_ns_by_name() {
        eprintln!("  {name:<36} {:>12.3}", ns as f64 / 1e6);
    }
    report.notes.push(("trace_file", write_trace(cfg, tracer)));
}

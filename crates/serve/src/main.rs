//! `frr-serve` — the command-line front end of the resilience control plane.
//!
//! The only subcommand so far is `replay`: the seeded churn-replay driver
//! that doubles as load benchmark and chaos harness (see
//! [`frr_serve::replay`]).  Shared experiment flags (`--count`,
//! `--deadline-secs`, `--work-budget`, `--threads`) are parsed by
//! [`frr_bench::parse_experiment_args_with_extras`], exactly as the
//! experiment bins parse them; replay-specific flags ride in the extras.
//!
//! ```text
//! frr-serve replay [--count N] [--threads T] [--deadline-secs S] [--work-budget W]
//!                  [--metrics] [--topology NAME] [--seed S] [--batch B]
//!                  [--queries-per-epoch Q] [--inject KIND@POS]...
//!                  [--malformed-every K] [--hammer N] [--resilience-r R]
//!                  [--json-name NAME] [--no-json]
//! frr-serve metrics [--count N] [--threads T] [--topology NAME] [--seed S] [--json]
//! ```
//!
//! `--count` is the number of churn events (the bin's natural instance
//! count); `--deadline-secs` becomes the per-attempt rebuild deadline;
//! `--work-budget` caps each `is_r_resilient` probe; `--threads` pins the
//! recompile pool.  `--metrics` wires the service to the process-wide
//! telemetry registry: the replay prints a live metrics table every few
//! batches, embeds the snapshot in the JSON artifact and renders the final
//! table.  The `metrics` subcommand runs a short wired replay and prints
//! just the registry (table by default, stable JSON with `--json`).  An
//! unknown flag or malformed value prints a one-line usage error to stderr
//! and exits with status 2.

use frr_serve::event::HostileKind;
use frr_serve::replay::{bench_results_dir, replay_with_observer, ReplayConfig};
use frr_topologies::builtin_topologies;

fn usage() -> String {
    format!(
        "{} [--topology NAME] [--seed S] [--batch B] [--queries-per-epoch Q] \
         [--inject KIND@POS] [--malformed-every K] [--hammer N] [--resilience-r R] \
         [--json-name NAME] [--no-json]\n\
         usage: frr-serve metrics [--count N] [--threads T] [--topology NAME] \
         [--seed S] [--json]",
        frr_bench::experiment_usage("frr-serve replay")
    )
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses `KIND@POS` (e.g. `panic-compile@5`) for `--inject`.
fn parse_injection(text: &str) -> Option<(usize, HostileKind)> {
    let (kind, position) = text.split_once('@')?;
    Some((position.parse().ok()?, HostileKind::parse(kind)?))
}

fn run_replay(args: impl Iterator<Item = String>) {
    let (shared, extras) =
        match frr_bench::parse_experiment_args_with_extras("frr-serve replay", 40, args) {
            Ok(parsed) => parsed,
            Err(message) => fail(format_args!("{message}\n{}", usage())),
        };
    let mut cfg = ReplayConfig {
        events: shared.count,
        threads: shared.threads,
        deadline_secs: shared.deadline_secs,
        metrics: shared.metrics,
        ..ReplayConfig::default()
    };
    if let Some(work) = shared.work_budget {
        cfg.resilience_work = work;
    }
    let mut json_name = String::from("serve_replay");
    let mut write_json = true;

    let mut extras = extras.into_iter();
    while let Some(arg) = extras.next() {
        let mut value = |flag: &str, what: &str| -> String {
            extras.next().unwrap_or_else(|| {
                fail(format_args!(
                    "frr-serve replay: {flag} needs {what}\n{}",
                    usage()
                ))
            })
        };
        match arg.as_str() {
            "--topology" => cfg.topology = value("--topology", "a topology name"),
            "--seed" => {
                let v = value("--seed", "a number");
                cfg.seed = v.parse().unwrap_or_else(|_| {
                    fail(format_args!(
                        "frr-serve replay: --seed needs a number, got {v:?}\n{}",
                        usage()
                    ))
                });
            }
            "--batch" => {
                let v = value("--batch", "a batch size");
                cfg.batch = v.parse().unwrap_or_else(|_| {
                    fail(format_args!(
                        "frr-serve replay: --batch needs a batch size, got {v:?}\n{}",
                        usage()
                    ))
                });
            }
            "--queries-per-epoch" => {
                let v = value("--queries-per-epoch", "a number");
                cfg.queries_per_epoch = v.parse().unwrap_or_else(|_| {
                    fail(format_args!(
                        "frr-serve replay: --queries-per-epoch needs a number, got {v:?}\n{}",
                        usage()
                    ))
                });
            }
            "--inject" => {
                let v = value("--inject", "KIND@POS (e.g. panic-compile@5)");
                match parse_injection(&v) {
                    Some(injection) => cfg.injections.push(injection),
                    None => fail(format_args!(
                        "frr-serve replay: --inject needs KIND@POS with KIND one of \
                         panic-compile, refuse-compile, nondeterministic, well-behaved; \
                         got {v:?}\n{}",
                        usage()
                    )),
                }
            }
            "--malformed-every" => {
                let v = value("--malformed-every", "an event interval");
                cfg.malformed_every = Some(v.parse().unwrap_or_else(|_| {
                    fail(format_args!(
                        "frr-serve replay: --malformed-every needs an event interval, got {v:?}\n{}",
                        usage()
                    ))
                }));
            }
            "--hammer" => {
                let v = value("--hammer", "a thread count");
                cfg.hammer_threads = v.parse().unwrap_or_else(|_| {
                    fail(format_args!(
                        "frr-serve replay: --hammer needs a thread count, got {v:?}\n{}",
                        usage()
                    ))
                });
            }
            "--resilience-r" => {
                let v = value("--resilience-r", "a failure count");
                cfg.resilience_r = v.parse().unwrap_or_else(|_| {
                    fail(format_args!(
                        "frr-serve replay: --resilience-r needs a failure count, got {v:?}\n{}",
                        usage()
                    ))
                });
            }
            "--json-name" => json_name = value("--json-name", "a file stem"),
            "--no-json" => write_json = false,
            other => fail(format_args!(
                "frr-serve replay: unknown argument {other:?}\n{}",
                usage()
            )),
        }
    }

    let catalog = builtin_topologies();
    let observer = |batches: usize, snapshot: &frr_obs::MetricsSnapshot| {
        println!("--- metrics after {batches} batches ---");
        print!("{}", snapshot.to_table());
    };
    let outcome = match replay_with_observer(&catalog, &cfg, observer) {
        Ok(outcome) => outcome,
        Err(error) => fail(format_args!("frr-serve replay: {error}")),
    };

    println!(
        "replayed {} events on {} ({} epochs published, {} threads)",
        outcome.events,
        outcome.topology,
        outcome.digests.len(),
        if cfg.threads == 0 {
            String::from("auto")
        } else {
            cfg.threads.to_string()
        },
    );
    println!(
        "queries: {} driver ({} answered) + {} hammer + {} resilience; quarantined events: {}",
        outcome.queries,
        outcome.answered,
        outcome.hammer_queries,
        outcome.resilience_queries,
        outcome.quarantined,
    );
    println!(
        "queue: {} enqueued, {} coalesced, {} dropped-oldest",
        outcome.queue.enqueued, outcome.queue.coalesced, outcome.queue.dropped
    );
    if outcome.queue.lossy() {
        eprintln!(
            "warning: ingest queue lost information — {} coalesced, {} dropped \
             ({} link, {} control); raise --batch or slow the trace to keep every event",
            outcome.queue.coalesced,
            outcome.queue.dropped,
            outcome.queue.dropped_link,
            outcome.queue.dropped_control,
        );
    }
    println!(
        "latency: p50 {} ns, p90 {} ns, p99 {} ns, max {} ns; {:.1} epochs/sec; \
         final digest {:#018x}",
        outcome.p50_ns,
        outcome.p90_ns,
        outcome.p99_ns,
        outcome.max_ns,
        outcome.epochs_per_sec,
        outcome.final_digest
    );
    if outcome.degraded_final.is_empty() {
        println!("final snapshot: all destinations fresh");
    } else {
        println!(
            "final snapshot: degraded destinations {:?}",
            outcome.degraded_final
        );
    }
    if write_json {
        match outcome.write_json(&json_name) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(error) => fail(format_args!(
                "frr-serve replay: could not write JSON to {}: {error}",
                bench_results_dir().display()
            )),
        }
    }
    if let Some(metrics) = &outcome.metrics {
        println!();
        println!("=== telemetry (process-wide registry) ===");
        print!("{}", metrics.to_table());
    }
}

/// `frr-serve metrics` — runs a short wired replay and prints only the
/// resulting registry snapshot: the aligned table by default, the stable
/// JSON document with `--json`.
fn run_metrics(args: impl Iterator<Item = String>) {
    let (shared, extras) =
        match frr_bench::parse_experiment_args_with_extras("frr-serve metrics", 24, args) {
            Ok(parsed) => parsed,
            Err(message) => fail(format_args!("{message}\n{}", usage())),
        };
    let mut cfg = ReplayConfig {
        events: shared.count,
        threads: shared.threads,
        deadline_secs: shared.deadline_secs,
        metrics: true,
        ..ReplayConfig::default()
    };
    let mut as_json = false;
    let mut extras = extras.into_iter();
    while let Some(arg) = extras.next() {
        match arg.as_str() {
            "--topology" => {
                cfg.topology = extras.next().unwrap_or_else(|| {
                    fail(format_args!(
                        "frr-serve metrics: --topology needs a topology name\n{}",
                        usage()
                    ))
                })
            }
            "--seed" => {
                let v = extras.next().unwrap_or_else(|| {
                    fail(format_args!(
                        "frr-serve metrics: --seed needs a number\n{}",
                        usage()
                    ))
                });
                cfg.seed = v.parse().unwrap_or_else(|_| {
                    fail(format_args!(
                        "frr-serve metrics: --seed needs a number, got {v:?}\n{}",
                        usage()
                    ))
                });
            }
            "--json" => as_json = true,
            other => fail(format_args!(
                "frr-serve metrics: unknown argument {other:?}\n{}",
                usage()
            )),
        }
    }
    let outcome = match replay_with_observer(&builtin_topologies(), &cfg, |_, _| {}) {
        Ok(outcome) => outcome,
        Err(error) => fail(format_args!("frr-serve metrics: {error}")),
    };
    let metrics = outcome
        .metrics
        .expect("a wired replay always attaches its registry snapshot");
    if as_json {
        println!("{}", metrics.to_json());
    } else {
        print!("{}", metrics.to_table());
    }
}

fn main() {
    frr_serve::supervisor::silence_supervised_panics();
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("replay") => run_replay(args),
        Some("metrics") => run_metrics(args),
        Some("--help" | "-h" | "help") => println!("{}", usage()),
        Some(other) => fail(format_args!(
            "frr-serve: unknown subcommand {other:?}\n{}",
            usage()
        )),
        None => fail(usage()),
    }
}

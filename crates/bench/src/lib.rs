//! # frr-bench
//!
//! Shared helpers for the experiment binaries and Criterion benchmarks that
//! regenerate every table and figure of the DSN'22 paper (see
//! `EXPERIMENTS.md` at the workspace root for the experiment index and the
//! recorded results).

// Library code must surface failures as typed errors or documented panics
// (`expect` with a message), never a bare `unwrap` — CI lints with
// `-D warnings`, so this gates. Tests keep `unwrap` for brevity.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Library code never prints to stdout — results flow through return values
// and the frr-obs registry; the bins own the terminal.  CI lints with
// `-D warnings`, so a stray println! in a library gates.
#![cfg_attr(not(test), warn(clippy::print_stdout))]

use frr_core::classify::{Classification, ClassifyBudget, Feasibility};
use frr_graph::Graph;
use frr_routing::budget::RunBudget;
use frr_routing::compiled::CompilePattern;
use frr_routing::pattern::{RotorPattern, ShortestPathPattern};
use frr_topologies::Topology;
use std::collections::BTreeMap;

/// The experiment bins' shared command line:
/// `[--count N] [--deadline-secs S] [--work-budget W] [--links-limit L]
/// [--threads T] [--metrics]`.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Row/instance count limit (`--count`, bin-specific default).
    pub count: usize,
    /// Wall-clock deadline for the whole run's budgeted checks
    /// (`--deadline-secs`, fractional seconds).
    pub deadline_secs: Option<f64>,
    /// Work-unit budget for the budgeted checks (`--work-budget`, in the
    /// check's own units — failure masks for the sweeps).
    pub work_budget: Option<u64>,
    /// Override for the exhaustive-sweep link-count limit (`--links-limit`):
    /// topologies above it get the bins' graceful one-line skip instead of an
    /// exhaustive run.  Defaults to the checkers' own limits.
    pub links_limit: Option<usize>,
    /// Worker threads for the sharded drivers (`--threads`, 0 = one per
    /// available core).  Shared by the experiment bins and `frr-serve
    /// replay` instead of per-binary environment variables.
    pub threads: usize,
    /// Print the process-wide telemetry registry when the run finishes
    /// (`--metrics`): the experiment bins render [`frr_obs`]'s table, the
    /// replay driver also embeds the snapshot in its JSON artifact.
    pub metrics: bool,
}

impl ExperimentArgs {
    /// The [`RunBudget`] the flags describe ([`RunBudget::unlimited`] when
    /// neither budget flag was given).
    pub fn run_budget(&self) -> RunBudget {
        RunBudget::from_flags(self.deadline_secs, self.work_budget)
    }
}

/// The shared flags' one-line usage string.
pub fn experiment_usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--count N] [--deadline-secs S] [--work-budget W] \
         [--links-limit L] [--threads T] [--metrics]"
    )
}

/// Parses the shared experiment command line: returns the defaults for
/// absent flags.  An unknown flag or malformed value prints a one-line
/// usage error to stderr and exits with status 2 — never a panic, never a
/// silent ignore.
pub fn parse_experiment_args(bin: &str, default_count: usize) -> ExperimentArgs {
    match parse_experiment_args_from(bin, default_count, std::env::args().skip(1)) {
        Ok((parsed, extras)) => {
            if let Some(first) = extras.first() {
                eprintln!(
                    "{bin}: unknown argument {first:?} ({})",
                    experiment_usage(bin)
                );
                std::process::exit(2);
            }
            parsed
        }
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

/// [`parse_experiment_args`] for binaries with their own extra flags
/// (`frr-serve replay`): the shared flags are consumed, everything
/// unrecognized comes back verbatim and in order for the caller to parse —
/// and to reject with its own one-line usage error if *it* does not know
/// the flag either.
///
/// Malformed values for the shared flags are a one-line `Err` here (the
/// caller decides how to exit).
pub fn parse_experiment_args_with_extras(
    bin: &str,
    default_count: usize,
    args: impl Iterator<Item = String>,
) -> Result<(ExperimentArgs, Vec<String>), String> {
    parse_experiment_args_from(bin, default_count, args)
}

fn parse_experiment_args_from(
    bin: &str,
    default_count: usize,
    mut args: impl Iterator<Item = String>,
) -> Result<(ExperimentArgs, Vec<String>), String> {
    let mut parsed = ExperimentArgs {
        count: default_count,
        deadline_secs: None,
        work_budget: None,
        links_limit: None,
        threads: 0,
        metrics: false,
    };
    let mut extras = Vec::new();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str, what: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("{bin}: {flag} needs {what} ({})", experiment_usage(bin)))
        };
        match arg.as_str() {
            "--count" => {
                let v = value("--count", "a number")?;
                parsed.count = v.parse().map_err(|_| {
                    format!(
                        "{bin}: --count needs a number, got {v:?} ({})",
                        experiment_usage(bin)
                    )
                })?;
            }
            "--deadline-secs" => {
                let v = value("--deadline-secs", "a number of seconds")?;
                parsed.deadline_secs = Some(v.parse().map_err(|_| {
                    format!(
                        "{bin}: --deadline-secs needs a number of seconds, got {v:?} ({})",
                        experiment_usage(bin)
                    )
                })?);
            }
            "--work-budget" => {
                let v = value("--work-budget", "a number of work units")?;
                parsed.work_budget = Some(v.parse().map_err(|_| {
                    format!(
                        "{bin}: --work-budget needs a number of work units, got {v:?} ({})",
                        experiment_usage(bin)
                    )
                })?);
            }
            "--links-limit" => {
                let v = value("--links-limit", "a number of links")?;
                parsed.links_limit = Some(v.parse().map_err(|_| {
                    format!(
                        "{bin}: --links-limit needs a number of links, got {v:?} ({})",
                        experiment_usage(bin)
                    )
                })?);
            }
            "--threads" => {
                let v = value("--threads", "a thread count")?;
                parsed.threads = v.parse().map_err(|_| {
                    format!(
                        "{bin}: --threads needs a thread count, got {v:?} ({})",
                        experiment_usage(bin)
                    )
                })?;
            }
            "--metrics" => parsed.metrics = true,
            _ => extras.push(arg),
        }
    }
    Ok((parsed, extras))
}

/// Parses the experiment bins' shared `[--count N]` command line: returns
/// `default` when the flag is absent, panics with a usage message on unknown
/// arguments or a malformed count.
pub fn parse_count_arg(bin: &str, default: usize) -> usize {
    parse_experiment_args(bin, default).count
}

/// The candidate-pattern portfolio the impossibility experiments probe.
pub fn pattern_portfolio(g: &Graph) -> Vec<Box<dyn CompilePattern>> {
    vec![
        Box::new(RotorPattern::clockwise_with_shortcut(g)),
        Box::new(ShortestPathPattern::new(g)),
        Box::new(frr_core::algorithms::Distance2Pattern::new()),
    ]
}

/// Classification of a whole topology collection, with per-class counts per
/// routing model — the data behind Fig. 7.
#[derive(Debug, Clone, Default)]
pub struct ZooClassification {
    /// Per-topology classifications, keyed by name.
    pub per_topology: BTreeMap<String, Classification>,
}

impl ZooClassification {
    /// Classifies every topology in the collection via the parallel,
    /// verdict-caching [`frr_core::classify::batch`] driver (deterministic:
    /// the output is identical to classifying each topology sequentially).
    pub fn classify_all(topologies: &[Topology], budget: ClassifyBudget) -> Self {
        Self::classify_all_with_threads(topologies, budget, 0)
    }

    /// [`Self::classify_all`] with an explicit worker-thread count
    /// (`0` = one per available core) — the backing for the shared
    /// `--threads` experiment flag.  Results are byte-identical at any
    /// thread count.
    pub fn classify_all_with_threads(
        topologies: &[Topology],
        budget: ClassifyBudget,
        threads: usize,
    ) -> Self {
        let graphs: Vec<&frr_graph::Graph> = topologies.iter().map(|t| &t.graph).collect();
        let classifications = match frr_core::classify::batch_with_budget_and_workers(
            &graphs,
            budget,
            &frr_routing::budget::RunBudget::unlimited(),
            threads,
        ) {
            Ok(slots) => slots
                .into_iter()
                .map(|c| c.expect("unlimited batch classified every index"))
                .collect::<Vec<_>>(),
            Err(p) => panic!("classification worker panicked: {p}"),
        };
        let per_topology = topologies
            .iter()
            .zip(classifications)
            .map(|(t, c)| (t.name.clone(), c))
            .collect();
        ZooClassification { per_topology }
    }

    /// Percentage (0–100) of topologies in each Fig. 7 class for a model,
    /// selected by `extract`.
    pub fn percentages<F>(&self, extract: F) -> BTreeMap<&'static str, f64>
    where
        F: Fn(&Classification) -> Feasibility,
    {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for c in self.per_topology.values() {
            *counts.entry(extract(c).label()).or_insert(0) += 1;
        }
        let total = self.per_topology.len().max(1) as f64;
        counts
            .into_iter()
            .map(|(label, count)| (label, 100.0 * count as f64 / total))
            .collect()
    }

    /// Mean "sometimes" destination fraction over topologies classified as
    /// Sometimes for the given model (the paper reports 21.3% on average).
    pub fn mean_sometimes_fraction<F>(&self, extract: F) -> f64
    where
        F: Fn(&Classification) -> Feasibility,
    {
        let fractions: Vec<f64> = self
            .per_topology
            .values()
            .filter_map(|c| match extract(c) {
                Feasibility::Sometimes(frac) => Some(frac),
                _ => None,
            })
            .collect();
        if fractions.is_empty() {
            0.0
        } else {
            fractions.iter().sum::<f64>() / fractions.len() as f64
        }
    }
}

/// Formats a percentage table (class → %) as an aligned text block.
pub fn format_percentages(title: &str, rows: &BTreeMap<&'static str, f64>) -> String {
    let mut out = format!("{title}\n");
    for class in ["Possible", "Sometimes", "Unknown", "Impossible"] {
        let value = rows.get(class).copied().unwrap_or(0.0);
        out.push_str(&format!("  {class:<11} {value:6.1}%\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;
    use frr_topologies::builtin_topologies;

    #[test]
    fn experiment_args_parse_budget_flags() {
        let to_args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let (parsed, extras) = parse_experiment_args_from(
            "bin",
            3,
            to_args("--count 2 --deadline-secs 0.5").into_iter(),
        )
        .unwrap();
        assert!(extras.is_empty());
        assert_eq!(parsed.count, 2);
        assert_eq!(parsed.deadline_secs, Some(0.5));
        assert_eq!(parsed.work_budget, None);
        assert_eq!(parsed.threads, 0);
        assert!(!parsed.run_budget().is_unlimited());

        let (parsed, _) =
            parse_experiment_args_from("bin", 3, to_args("--work-budget 1000").into_iter())
                .unwrap();
        assert_eq!(parsed.count, 3);
        assert_eq!(parsed.run_budget().work_limit(), Some(1000));

        let (parsed, _) = parse_experiment_args_from("bin", 7, to_args("").into_iter()).unwrap();
        assert_eq!(parsed.count, 7);
        assert!(parsed.run_budget().is_unlimited());
    }

    #[test]
    fn experiment_args_parse_threads_and_pass_extras_through_in_order() {
        let to_args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let (parsed, extras) = parse_experiment_args_with_extras(
            "frr-serve",
            40,
            to_args("--events 12 --threads 8 --inject panic-compile@5 --count 9").into_iter(),
        )
        .unwrap();
        assert_eq!(parsed.threads, 8);
        assert_eq!(parsed.count, 9);
        assert!(!parsed.metrics);
        assert_eq!(extras, to_args("--events 12 --inject panic-compile@5"));
    }

    #[test]
    fn experiment_args_parse_the_shared_metrics_switch() {
        let to_args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let (parsed, extras) =
            parse_experiment_args_with_extras("bin", 3, to_args("--metrics --count 4").into_iter())
                .unwrap();
        assert!(parsed.metrics);
        assert_eq!(parsed.count, 4);
        assert!(extras.is_empty(), "--metrics takes no value");
    }

    #[test]
    fn experiment_args_reject_malformed_values_with_one_line_usage() {
        let to_args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let err = parse_experiment_args_from("bin", 3, to_args("--threads lots").into_iter())
            .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        assert!(!err.contains('\n'), "usage errors are one line: {err}");
        let err = parse_experiment_args_from("bin", 3, to_args("--count").into_iter()).unwrap_err();
        assert!(err.contains("--count needs"), "{err}");
    }

    #[test]
    fn portfolio_has_three_patterns() {
        let g = generators::complete(5);
        assert_eq!(pattern_portfolio(&g).len(), 3);
    }

    #[test]
    fn classify_builtin_topologies_and_summarize() {
        let topologies = builtin_topologies();
        let zc = ZooClassification::classify_all(&topologies, ClassifyBudget::default());
        assert_eq!(zc.per_topology.len(), topologies.len());
        let touring = zc.percentages(|c| c.touring);
        let total: f64 = touring.values().sum();
        assert!((total - 100.0).abs() < 1e-6);
        let text = format_percentages("touring", &touring);
        assert!(text.contains("Possible"));
        // The ring-of-rings and access-tree networks are outerplanar, so the
        // touring-possible share must be strictly positive.
        assert!(touring.get("Possible").copied().unwrap_or(0.0) > 0.0);
        let _ = zc.mean_sometimes_fraction(|c| c.destination_only);
    }
}

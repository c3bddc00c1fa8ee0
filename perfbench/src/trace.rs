//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code, around each call into a
//! layer's public functions; nothing inside the workspace crates is
//! instrumented.  A span named `layer.sublayer` belongs to the top-level layer
//! `layer` (`topologies`, `graph`, `core`, `routing`, `serve`, `obs`, or
//! `bench` for the benchmark's own bookkeeping).
//!
//! A call that crosses layers (say `classify_with_budget`, which runs the
//! planarity, outerplanarity and minor code of `frr-graph`) cannot be split
//! from outside.  The traced runs therefore call the inner layers' public
//! functions again on the same inputs and record the measured time as an
//! *attribution* on the outer span.  A span's self time is its duration minus
//! its child spans minus its attributions; attributed time counts as self
//! time of the attributed layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Summed duration of the direct child spans.
    child_ns: u64,
    attributed: Vec<(&'static str, u64)>,
}

/// The recorder: spans in start order, with the currently open ones on a
/// stack (the traced runs record from one thread).
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; returns `f`'s result and the
    /// span's id (for later attributions).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, usize) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
            attributed: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_ns += self.duration_ns(id);
        }
        (out, id)
    }

    /// Credits `ns` of span `id`'s time to the inner layer `layer`, as
    /// measured by calling that layer directly on the same inputs.  The
    /// credit is capped so a span's self time never goes negative.
    pub fn attribute(&mut self, id: usize, layer: &'static str, ns: u64) {
        let span = &self.spans[id];
        let covered = span.child_ns + span.attributed.iter().map(|a| a.1).sum::<u64>();
        let room = self.duration_ns(id).saturating_sub(covered);
        self.spans[id].attributed.push((layer, ns.min(room)));
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Self time per span name, attributions credited to their layer.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            let attributed: u64 = s.attributed.iter().map(|a| a.1).sum();
            let own = (s.end_ns - s.start_ns).saturating_sub(s.child_ns + attributed);
            *out.entry(s.name).or_default() += own;
            for &(layer, ns) in &s.attributed {
                *out.entry(layer).or_default() += ns;
            }
        }
        out
    }

    /// Self time per top-level layer (the span name up to its first dot).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, ns) in self.self_ns_by_name() {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_default() += ns;
        }
        out
    }

    /// Time covered by root spans (spans without a parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// All spans as JSON lines: name, parent id, start/end (ns since the
    /// recorder started) and attributions.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let attributed: Vec<String> = s
                .attributed
                .iter()
                .map(|(l, ns)| format!("[\"{l}\",{ns}]"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"attributed\":[{}]}}",
                s.name,
                s.start_ns,
                s.end_ns,
                attributed.join(",")
            );
        }
        out
    }
}

/// Times `f` without recording a span.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

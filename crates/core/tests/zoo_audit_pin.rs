//! Regression pin of the price-of-locality audit on the zoo: the r = 1
//! resilience check of the shortest-path failover pattern over every default
//! zoo network with at most 64 links (small enough to stay fast in debug).
//! The `(counterexamples, exhausted, refused)` counts and an FNV-1a digest
//! of every counterexample (failure set, pair, outcome and replayed path)
//! must not move when the sweep or the routing engine is optimized.
//! A second pin folds the digests of the compiled rule tables themselves.

use frr_routing::adversary::verify_counterexample;
use frr_routing::compiled::{CompilePattern, CompiledPattern, Fnv};
use frr_routing::pattern::{RotorPattern, ShortestPathPattern};
use frr_routing::resilience::check_bounded_r_resilience;
use frr_topologies::{full_zoo, ZooConfig};

/// Networks with more links than this are left out of the pin.
const PIN_LINK_LIMIT: usize = 64;

fn fnv(lines: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for byte in line.bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

#[test]
fn zoo_r1_audit_is_pinned() {
    let zoo = full_zoo(&ZooConfig::default());
    let (mut counter, mut exhausted, mut refused) = (0usize, 0usize, 0usize);
    let mut lines = Vec::new();
    for t in zoo
        .iter()
        .filter(|t| t.graph.edge_count() <= PIN_LINK_LIMIT)
    {
        let g = &t.graph;
        let pattern = ShortestPathPattern::new(g);
        match check_bounded_r_resilience(g, &pattern, 1) {
            Ok(Ok(())) => exhausted += 1,
            Ok(Err(ce)) => {
                counter += 1;
                assert!(
                    verify_counterexample(g, &pattern, &ce),
                    "{}: counterexample does not verify: {ce}",
                    t.name
                );
                lines.push(format!("{}|{ce:?}", t.name));
            }
            Err(_) => refused += 1,
        }
    }
    assert_eq!((counter, exhausted, refused), (85, 118, 0));
    assert_eq!(fnv(&lines), 0x13d7_32a2_0154_29dc);
}

/// Folds one compile result into `h`: the table digest, or a marker for a
/// refused compile.
fn fold_compiled(h: &mut Fnv, compiled: Option<CompiledPattern>) {
    h.word(compiled.map_or(u64::MAX, |cp| cp.digest()));
}

/// Pins the bytes of the compiled rule tables, not just what routing on them
/// decides: the whole-graph shortest-path and shortcut-rotor compiles of
/// every network of the default and the held-out (`seed: 2022`) zoo, and
/// every single-destination shortest-path compile of the networks with at
/// most [`PIN_LINK_LIMIT`] links (the control plane's rebuild unit).  The
/// tables must stay byte-identical when the compiler is optimized.
#[test]
fn zoo_compiled_tables_are_pinned() {
    let mut h = Fnv::new();
    for seed in [ZooConfig::default().seed, 2022] {
        let zoo = full_zoo(&ZooConfig {
            seed,
            ..ZooConfig::default()
        });
        for t in &zoo {
            let g = &t.graph;
            let shortest = ShortestPathPattern::new(g);
            fold_compiled(&mut h, shortest.compile(g));
            fold_compiled(&mut h, RotorPattern::clockwise_with_shortcut(g).compile(g));
            if g.edge_count() <= PIN_LINK_LIMIT {
                for d in g.nodes() {
                    fold_compiled(&mut h, shortest.compile_destination(g, d));
                }
            }
        }
    }
    assert_eq!(h.finish(), 0x5bf8_95dd_e174_b72f);
}

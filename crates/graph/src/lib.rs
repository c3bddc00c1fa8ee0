//! # frr-graph
//!
//! Graph substrate for the `fastreroute` workspace — a from-scratch
//! implementation of every graph-theoretic building block needed to reproduce
//! *"On the Price of Locality in Static Fast Rerouting"* (Foerster et al.,
//! DSN 2022):
//!
//! * an undirected simple [`Graph`] with deterministic iteration order, plus
//!   its packed-`u64`-row twin [`BitGraph`] used by the failure-sweep hot
//!   paths (word-parallel edge/degree/connectivity operations),
//! * the generators used throughout the paper (complete graphs `K_n`,
//!   complete bipartite graphs `K_{a,b}`, their `-c`-link variants, paths,
//!   cycles, trees, grids, wheels, random graphs, outerplanar fans, …),
//! * traversal and connectivity primitives (BFS, components, `s–t` edge
//!   connectivity via Menger/max-flow, and one bitset block decomposition
//!   that masks out a deleted vertex),
//! * planarity testing (Demoucron–Malgrange–Pertuiset) and outerplanarity
//!   testing with outerplanar embeddings (rotation systems),
//! * exact minor-containment search with a work budget for the paper's
//!   forbidden minors,
//! * Hamiltonian-cycle decompositions (Walecki, Laskar–Auerbach) and
//!   arborescence/spanning-tree machinery for the failover baselines.
//!
//! # Quick example
//!
//! ```
//! use frr_graph::{generators, planarity, outerplanar, minors};
//!
//! let k5 = generators::complete(5);
//! assert!(!planarity::is_planar(&k5));
//! let k5_minus_one = generators::complete_minus(5, 1);
//! assert!(planarity::is_planar(&k5_minus_one));
//! assert!(!outerplanar::is_outerplanar(&k5_minus_one));
//!
//! let k4 = generators::complete(4);
//! assert!(minors::has_minor(&k5_minus_one, &k4).is_yes());
//! ```

// Library code must surface failures as typed errors or documented panics
// (`expect` with a message), never a bare `unwrap` — CI lints with
// `-D warnings`, so this gates. Tests keep `unwrap` for brevity.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Library code never prints to stdout — results flow through return values
// and the frr-obs registry; the bins own the terminal.  CI lints with
// `-D warnings`, so a stray println! in a library gates.
#![cfg_attr(not(test), warn(clippy::print_stdout))]

pub mod arborescence;
pub mod bitgraph;
pub mod budget;
pub mod connectivity;
pub mod generators;
pub mod graph;
pub mod hamiltonian;
pub mod minors;
pub mod ops;
pub mod outerplanar;
pub mod planarity;
pub mod traversal;

pub use bitgraph::BitGraph;
pub use graph::{AddEdgeError, Edge, Graph, Node};

/// Convenience prelude bringing the most frequently used items into scope.
pub mod prelude {
    pub use crate::bitgraph::BitGraph;
    pub use crate::budget::{CancelToken, StopSignal};
    pub use crate::connectivity::{edge_connectivity, is_connected, st_edge_connectivity};
    pub use crate::generators;
    pub use crate::graph::{AddEdgeError, Edge, Graph, Node};
    pub use crate::minors::{has_minor, MinorAnswer};
    pub use crate::outerplanar::is_outerplanar;
    pub use crate::planarity::is_planar;
}

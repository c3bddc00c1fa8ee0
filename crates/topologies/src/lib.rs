//! # frr-topologies
//!
//! The Topology-Zoo substrate for the §VIII case study of the DSN'22 paper:
//! a handful of well-known real-world research/ISP topologies bundled as edge
//! lists, a deterministic synthetic zoo generator that reproduces the Internet
//! Topology Zoo's published size/density envelope, and a tiny edge-list
//! format for loading user-supplied networks.
//!
//! *Substitution note (see `DESIGN.md`):* the original study classifies 260
//! networks from the Internet Topology Zoo GraphML archive.  That archive is
//! an external dataset; this crate ships a compatible stand-in — ten bundled
//! real topologies whose structure is public knowledge plus 250 generated
//! networks spanning the same `(n, |E|/n)` region with the same qualitative
//! mix of tree-like access networks, ring backbones, partially meshed cores
//! and a few dense outliers — which preserves the properties the experiment
//! actually consumes (planarity, outerplanarity, forbidden minors, density).

// Library code must surface failures as typed errors or documented panics
// (`expect` with a message), never a bare `unwrap` — CI lints with
// `-D warnings`, so this gates. Tests keep `unwrap` for brevity.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Library code never prints to stdout — results flow through return values
// and the frr-obs registry; the bins own the terminal.  CI lints with
// `-D warnings`, so a stray println! in a library gates.
#![cfg_attr(not(test), warn(clippy::print_stdout))]

pub mod builtin;
pub mod format;
pub mod zoo;

pub use builtin::{builtin_topologies, Topology};
pub use zoo::{full_zoo, synthetic_zoo, ZooConfig};

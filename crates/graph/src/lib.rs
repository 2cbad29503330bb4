//! # meg-graph
//!
//! Static-graph substrate for the `meg` workspace.
//!
//! Every snapshot `G_t` of a Markovian evolving graph is an ordinary
//! undirected graph over the node set `[n] = {0, …, n-1}`. This crate provides
//! the data structures and algorithms those snapshots need:
//!
//! * [`NodeSet`] — a word-packed bitset over `[n]`, used for informed sets and
//!   neighborhoods;
//! * [`PairBits`] — a word-packed bitset over the `n(n−1)/2` unordered node
//!   pairs, the alive-flag representation of the dense edge-MEG;
//! * [`SnapshotBuf`] — the one graph representation: a reusable flat CSR
//!   buffer that every evolving-graph model fills in place each round, and
//!   that [`SnapshotBuf::from_edges`] builds once for static graphs;
//! * traversals and global metrics: [`bfs`], [`connectivity`], [`diameter`],
//!   [`degree`], [`metrics`];
//! * [`expansion`] — measurement of the parameterized `(h, k)`-node-expansion
//!   that drives the paper's flooding-time bounds;
//! * [`generators`] — classic random and deterministic graph families used as
//!   baselines and test fixtures (Erdős–Rényi, grid, ring, star, complete,
//!   …).
//!
//! The crate is deliberately free of any "evolving" notion: dynamics live in
//! `meg-core` and the model crates.
//!
//! ## Example
//!
//! ```
//! use meg_graph::{bfs, connectivity, NodeSet, SnapshotBuf};
//!
//! // A 5-node path 0–1–2–3–4.
//! let g = SnapshotBuf::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
//! assert_eq!(g.num_edges(), 4);
//! assert!(connectivity::is_connected(&g));
//! assert_eq!(bfs::distances(&g, 0)[4], 4);
//!
//! // Node sets with constant-time membership over a fixed universe.
//! let mut informed = NodeSet::new(5);
//! informed.insert(0);
//! let frontier = meg_graph::out_neighborhood(&g, &informed);
//! assert_eq!(frontier.iter().collect::<Vec<_>>(), vec![1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod connectivity;
pub mod degree;
pub mod diameter;
pub mod expansion;
pub mod generators;
pub mod metrics;
pub mod nodeset;
pub mod pair_bits;
pub mod snapshot_buf;

pub use nodeset::NodeSet;
pub use pair_bits::PairBits;
pub use snapshot_buf::{DeltaOutcome, SnapshotBuf};

/// A node identifier. Nodes are always the integers `0 .. n`.
pub type Node = u32;

/// Out-neighborhood `N(I)` of a node set `I`: all nodes *outside* `I` adjacent
/// to some node of `I` (Section 2 of the paper).
pub fn out_neighborhood(g: &SnapshotBuf, set: &NodeSet) -> NodeSet {
    let mut out = NodeSet::new(g.num_nodes());
    for u in set.iter() {
        for &v in g.neighbors(u) {
            if !set.contains(v) {
                out.insert(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_neighborhood_of_path() {
        // 0 - 1 - 2 - 3
        let g = generators::path(4);
        let mut s = NodeSet::new(4);
        s.insert(1);
        let nb = out_neighborhood(&g, &s);
        assert!(nb.contains(0));
        assert!(nb.contains(2));
        assert!(!nb.contains(1));
        assert!(!nb.contains(3));
        assert_eq!(nb.len(), 2);
    }

    #[test]
    fn out_neighborhood_excludes_members() {
        let g = generators::complete(5);
        let mut s = NodeSet::new(5);
        s.insert(0);
        s.insert(1);
        let nb = out_neighborhood(&g, &s);
        assert_eq!(nb.len(), 3);
        for u in 2..5 {
            assert!(nb.contains(u));
        }
    }

    #[test]
    fn degree_and_has_edge_on_a_cycle() {
        let g = generators::cycle(6);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 5));
        assert!(!g.has_edge(0, 3));
    }
}

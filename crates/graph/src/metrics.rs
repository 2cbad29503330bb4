//! Whole-graph metrics: density, average degree, clustering, and a compact
//! snapshot summary used by experiment logs.

use crate::{connectivity, degree, Node, SnapshotBuf};

/// Edge density: `m / C(n, 2)`. Zero for graphs with fewer than two nodes.
pub fn density(g: &SnapshotBuf) -> f64 {
    let n = g.num_nodes();
    if n < 2 {
        return 0.0;
    }
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    g.num_edges() as f64 / pairs
}

/// Average degree `2m / n`. Zero for the empty graph.
pub fn average_degree(g: &SnapshotBuf) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    2.0 * g.num_edges() as f64 / n as f64
}

/// Global clustering coefficient (transitivity): `3 · #triangles / #wedges`.
/// Returns 0 when the graph has no wedge.
pub fn global_clustering(g: &SnapshotBuf) -> f64 {
    let n = g.num_nodes();
    let mut wedges = 0u64;
    let mut closed = 0u64; // counts each triangle 3 times (once per apex) x ordered pair / 2
    for u in 0..n as Node {
        let nb = g.neighbors(u);
        let d = nb.len() as u64;
        wedges += d * d.saturating_sub(1) / 2;
        for i in 0..nb.len() {
            for j in (i + 1)..nb.len() {
                if g.has_edge(nb[i], nb[j]) {
                    closed += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        closed as f64 / wedges as f64
    }
}

/// Compact summary of a snapshot, convenient for experiment logging.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotSummary {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Average degree.
    pub average_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of isolated nodes.
    pub isolated: usize,
    /// Number of connected components.
    pub components: usize,
    /// Size of the largest connected component.
    pub largest_component: usize,
}

/// Builds a [`SnapshotSummary`].
pub fn summarize(g: &SnapshotBuf) -> SnapshotSummary {
    let comps = connectivity::connected_components(g);
    let ds = degree::degree_stats(g);
    SnapshotSummary {
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        average_degree: average_degree(g),
        max_degree: ds.as_ref().map_or(0, |d| d.max),
        isolated: ds.as_ref().map_or(0, |d| d.isolated),
        components: comps.count(),
        largest_component: comps.largest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn density_extremes() {
        assert_eq!(density(&generators::complete(6)), 1.0);
        assert_eq!(density(&SnapshotBuf::with_nodes(6)), 0.0);
        assert_eq!(density(&SnapshotBuf::with_nodes(1)), 0.0);
    }

    #[test]
    fn average_degree_of_cycle_is_two() {
        assert_eq!(average_degree(&generators::cycle(9)), 2.0);
        assert_eq!(average_degree(&SnapshotBuf::with_nodes(0)), 0.0);
    }

    #[test]
    fn clustering_of_complete_graph_is_one() {
        assert!((global_clustering(&generators::complete(5)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_and_tree_is_zero() {
        assert_eq!(global_clustering(&generators::star(6)), 0.0);
        assert_eq!(global_clustering(&generators::path(6)), 0.0);
    }

    #[test]
    fn summary_of_disconnected_graph() {
        let g = SnapshotBuf::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        let s = summarize(&g);
        assert_eq!(s.nodes, 6);
        assert_eq!(s.edges, 3);
        assert_eq!(s.components, 3);
        assert_eq!(s.largest_component, 3);
        assert_eq!(s.isolated, 1);
        assert_eq!(s.max_degree, 2);
    }
}

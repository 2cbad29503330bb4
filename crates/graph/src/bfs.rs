//! Breadth-first search primitives.
//!
//! BFS drives three things in this workspace: distances on static snapshots
//! (the "static diameter" the paper compares flooding against), eccentricities
//! for lower-bound sanity checks, and the reference implementation that the
//! flooding engine on a *frozen* evolving graph must agree with.

use crate::{Node, SnapshotBuf};

/// Distance label meaning "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// Computes hop distances from `source` to every node.
///
/// Unreachable nodes get [`UNREACHABLE`].
pub fn distances(g: &SnapshotBuf, source: Node) -> Vec<u32> {
    let n = g.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::with_capacity(n.min(1024));
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Eccentricity of `source`: the maximum finite distance to any reachable
/// node, together with the number of reachable nodes (including `source`).
pub fn eccentricity(g: &SnapshotBuf, source: Node) -> (u32, usize) {
    let dist = distances(g, source);
    let mut ecc = 0u32;
    let mut reached = 0usize;
    for &d in &dist {
        if d != UNREACHABLE {
            reached += 1;
            ecc = ecc.max(d);
        }
    }
    (ecc, reached)
}

/// Nodes reachable from `source`, including `source` itself.
pub fn reachable_count(g: &SnapshotBuf, source: Node) -> usize {
    eccentricity(g, source).1
}

/// Runs BFS level by level and returns, for each round `t ≥ 0`, the number of
/// nodes at distance exactly `t` from the source.
///
/// On a *static* graph this is exactly the per-step growth of the flooding
/// frontier, so it doubles as the reference trace for flooding tests.
pub fn level_sizes(g: &SnapshotBuf, source: Node) -> Vec<usize> {
    let dist = distances(g, source);
    let max_d = dist
        .iter()
        .filter(|&&d| d != UNREACHABLE)
        .max()
        .copied()
        .unwrap_or(0);
    let mut levels = vec![0usize; max_d as usize + 1];
    for &d in &dist {
        if d != UNREACHABLE {
            levels[d as usize] += 1;
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_path() {
        let g = generators::path(5);
        let d = distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = distances(&g, 2);
        assert_eq!(d2, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn distances_with_unreachable() {
        let g = SnapshotBuf::from_edges(4, [(0, 1)]);
        let d = distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
        assert_eq!(reachable_count(&g, 0), 2);
    }

    #[test]
    fn eccentricity_of_star_center_and_leaf() {
        let g = generators::star(6); // center + 6 leaves = 7 nodes
        assert_eq!(eccentricity(&g, 0), (1, 7));
        assert_eq!(eccentricity(&g, 3), (2, 7));
    }

    #[test]
    fn level_sizes_on_cycle() {
        let g = generators::cycle(6);
        let levels = level_sizes(&g, 0);
        assert_eq!(levels, vec![1, 2, 2, 1]);
        assert_eq!(levels.iter().sum::<usize>(), 6);
    }

    #[test]
    fn level_sizes_singleton() {
        let g = SnapshotBuf::with_nodes(3);
        let levels = level_sizes(&g, 1);
        assert_eq!(levels, vec![1]);
    }
}

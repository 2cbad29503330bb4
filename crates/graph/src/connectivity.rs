//! Connectivity: connected components, a union–find structure, and
//! connectivity predicates.
//!
//! The paper's bounds assume the stationary snapshots are connected
//! (`R ≥ c√(log n)` for geometric-MEG, `p̂ ≥ c log n / n` for edge-MEG).
//! Experiments verify connectivity before trusting a measured flooding time,
//! and the disconnected regime is itself an interesting ablation.

use crate::{Node, SnapshotBuf};

/// Classic union–find (disjoint set union) with path halving and union by size.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton components.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Finds the representative of `x` (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the components of `a` and `b`. Returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.components -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same component.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Size of the component containing `x`.
    pub fn component_size(&mut self, x: u32) -> usize {
        let r = self.find(x);
        self.size[r as usize] as usize
    }
}

/// Summary of the component structure of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// Component id of each node (ids are `0 .. num_components`, assigned in
    /// order of first appearance by node index).
    pub labels: Vec<u32>,
    /// Size of each component, indexed by component id.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 for the empty graph on zero nodes).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Computes connected components by repeated BFS.
pub fn connected_components(g: &SnapshotBuf) -> Components {
    let n = g.num_nodes();
    let mut labels = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        let id = sizes.len() as u32;
        let mut size = 0usize;
        labels[start] = id;
        queue.push_back(start as Node);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in g.neighbors(u) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = id;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { labels, sizes }
}

/// Returns `true` if the graph is connected (graphs on 0 or 1 nodes count as
/// connected).
pub fn is_connected(g: &SnapshotBuf) -> bool {
    let n = g.num_nodes();
    if n <= 1 {
        return true;
    }
    crate::bfs::reachable_count(g, 0) == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn union_find_basic() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.num_components(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.component_size(1), 3);
        assert_eq!(uf.component_size(4), 1);
    }

    #[test]
    fn components_of_two_triangles() {
        let g = SnapshotBuf::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 2);
        assert_eq!(c.sizes, vec![3, 3]);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_ne!(c.labels[0], c.labels[3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_predicates() {
        assert!(is_connected(&generators::complete(10)));
        assert!(is_connected(&generators::path(10)));
        assert!(is_connected(&SnapshotBuf::with_nodes(1)));
        assert!(is_connected(&SnapshotBuf::with_nodes(0)));
        assert!(!is_connected(&SnapshotBuf::with_nodes(2)));
    }

    #[test]
    fn isolated_nodes_are_singleton_components() {
        let g = SnapshotBuf::from_edges(4, [(1, 2)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 3);
        assert_eq!(c.largest(), 2);
    }
}

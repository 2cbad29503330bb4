//! Diameter computation: exact (all-pairs BFS), lower-bounded by double sweep,
//! and estimated by sampled eccentricities.
//!
//! The paper's headline conclusion is that, under mild conditions, flooding on
//! a stationary MEG takes about as long as the *diameter of a static
//! stationary snapshot* — so the experiments repeatedly compare measured
//! flooding times against snapshot diameters.

use crate::{bfs, Node, SnapshotBuf};
use rand::Rng;

/// Result of a diameter computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Diameter {
    /// Graph is connected with the given diameter.
    Finite(u32),
    /// Graph is disconnected (diameter is infinite).
    Infinite,
}

impl Diameter {
    /// Returns the finite value, or `None` if the graph was disconnected.
    pub fn finite(self) -> Option<u32> {
        match self {
            Diameter::Finite(d) => Some(d),
            Diameter::Infinite => None,
        }
    }
}

/// Exact diameter via one BFS per node. O(n · (n + m)): fine for the snapshot
/// sizes used in tests and calibration, too slow for the largest sweeps (use
/// [`double_sweep_lower_bound`] or [`estimate_by_sampling`] there).
pub fn exact(g: &SnapshotBuf) -> Diameter {
    let n = g.num_nodes();
    if n == 0 {
        return Diameter::Finite(0);
    }
    let mut best = 0u32;
    for u in 0..n {
        let (ecc, reached) = bfs::eccentricity(g, u as Node);
        if reached != n {
            return Diameter::Infinite;
        }
        best = best.max(ecc);
    }
    Diameter::Finite(best)
}

/// Double-sweep lower bound: BFS from `start`, then BFS again from the
/// farthest node found. Exact on trees, usually very tight on geometric
/// graphs. Returns `Infinite` if the graph is disconnected (detected from the
/// first sweep).
pub fn double_sweep_lower_bound(g: &SnapshotBuf, start: Node) -> Diameter {
    let n = g.num_nodes();
    if n == 0 {
        return Diameter::Finite(0);
    }
    let d1 = bfs::distances(g, start);
    let mut far = start;
    let mut far_d = 0u32;
    let mut reached = 0usize;
    for (v, &d) in d1.iter().enumerate() {
        if d == bfs::UNREACHABLE {
            continue;
        }
        reached += 1;
        if d > far_d {
            far_d = d;
            far = v as Node;
        }
    }
    if reached != n {
        return Diameter::Infinite;
    }
    let (ecc, _) = bfs::eccentricity(g, far);
    Diameter::Finite(ecc.max(far_d))
}

/// Estimates the diameter as the maximum eccentricity over `samples` random
/// start nodes (always a lower bound on the true diameter). Returns `Infinite`
/// if any sampled BFS fails to reach the whole graph.
pub fn estimate_by_sampling<R: Rng>(g: &SnapshotBuf, samples: usize, rng: &mut R) -> Diameter {
    let n = g.num_nodes();
    if n == 0 {
        return Diameter::Finite(0);
    }
    let mut best = 0u32;
    for _ in 0..samples.max(1) {
        let s = rng.gen_range(0..n) as Node;
        let (ecc, reached) = bfs::eccentricity(g, s);
        if reached != n {
            return Diameter::Infinite;
        }
        best = best.max(ecc);
    }
    Diameter::Finite(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;

    #[test]
    fn exact_diameters_of_known_graphs() {
        assert_eq!(exact(&generators::path(10)), Diameter::Finite(9));
        assert_eq!(exact(&generators::cycle(10)), Diameter::Finite(5));
        assert_eq!(exact(&generators::cycle(11)), Diameter::Finite(5));
        assert_eq!(exact(&generators::complete(7)), Diameter::Finite(1));
        assert_eq!(exact(&generators::star(9)), Diameter::Finite(2));
        assert_eq!(exact(&SnapshotBuf::with_nodes(1)), Diameter::Finite(0));
        assert_eq!(exact(&SnapshotBuf::with_nodes(0)), Diameter::Finite(0));
    }

    #[test]
    fn exact_detects_disconnection() {
        let g = SnapshotBuf::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(exact(&g), Diameter::Infinite);
        assert_eq!(exact(&g).finite(), None);
    }

    #[test]
    fn double_sweep_is_exact_on_paths_and_trees() {
        let g = generators::path(20);
        assert_eq!(double_sweep_lower_bound(&g, 7), Diameter::Finite(19));
        // star from a leaf
        let s = generators::star(5);
        assert_eq!(double_sweep_lower_bound(&s, 2), Diameter::Finite(2));
    }

    #[test]
    fn double_sweep_never_exceeds_exact() {
        let g = generators::grid2d(5, 4);
        let exact_d = exact(&g).finite().unwrap();
        for start in 0..20u32 {
            let ds = double_sweep_lower_bound(&g, start).finite().unwrap();
            assert!(ds <= exact_d);
            assert!(ds * 2 >= exact_d, "double sweep is a 2-approximation");
        }
    }

    #[test]
    fn sampling_estimate_bounded_by_exact() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let g = generators::grid2d(6, 6);
        let exact_d = exact(&g).finite().unwrap();
        let est = estimate_by_sampling(&g, 10, &mut rng).finite().unwrap();
        assert!(est <= exact_d);
        assert!(est >= exact_d / 2);
    }

    #[test]
    fn sampling_detects_disconnection() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let g = SnapshotBuf::from_edges(5, [(0, 1), (1, 2)]);
        assert_eq!(estimate_by_sampling(&g, 3, &mut rng), Diameter::Infinite);
    }
}

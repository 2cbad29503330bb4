//! Random walks on a support graph.
//!
//! In the geometric-MEG model every node performs an independent random walk
//! on the *move graph* `M_{n,r,ε}`: from position `x` it jumps to a position
//! chosen uniformly from `Γ(x) = {y : d(x,y) ≤ r}` (which contains `x` itself,
//! so the walk is lazy). The stationary law is `π(x) ∝ |Γ(x)|` — proportional
//! to the closed neighborhood size.
//!
//! This module implements the same walk over an arbitrary support graph (a
//! [`SnapshotBuf`]), in both the lazy (self-move allowed) and
//! non-lazy variants, together with exact stationary laws and stationary
//! sampling. `meg-mobility` specialises it to the grid geometry without going
//! through an explicit graph (the grid is too large to materialise for big
//! `n`), and the small-instance tests here are what validate that
//! specialisation.

use meg_graph::{Node, SnapshotBuf};
use rand::Rng;

/// A random walk over the vertices of a support graph.
#[derive(Clone, Debug)]
pub struct SupportWalk<'a> {
    graph: &'a SnapshotBuf,
    lazy: bool,
}

impl<'a> SupportWalk<'a> {
    /// A lazy walk: from `x` the next position is uniform over `{x} ∪ N(x)`
    /// (the paper's move rule, since `Γ(x)` contains `x`).
    pub fn lazy(graph: &'a SnapshotBuf) -> Self {
        SupportWalk { graph, lazy: true }
    }

    /// A non-lazy walk: the next position is uniform over `N(x)`; staying put
    /// is impossible unless `x` is isolated.
    pub fn non_lazy(graph: &'a SnapshotBuf) -> Self {
        SupportWalk { graph, lazy: false }
    }

    /// Whether the walk may stay in place.
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// The size of the candidate set from `x` (`|Γ(x)|` in the paper's
    /// notation for the lazy walk).
    pub fn candidate_count(&self, x: Node) -> usize {
        self.graph.degree(x) + usize::from(self.lazy)
    }

    /// Samples the next position from `x`.
    pub fn step<R: Rng>(&self, x: Node, rng: &mut R) -> Node {
        let total = self.candidate_count(x);
        if total == 0 {
            return x; // isolated node in a non-lazy walk has nowhere to go
        }
        let idx = rng.gen_range(0..total);
        if self.lazy && idx == total - 1 {
            return x;
        }
        self.graph.neighbors(x)[idx]
    }

    /// Exact stationary distribution: `π(x) ∝ candidate_count(x)`.
    ///
    /// (For a connected non-bipartite support graph this is the unique
    /// stationary law; for the lazy walk aperiodicity is automatic.)
    pub fn stationary_distribution(&self) -> Vec<f64> {
        let n = self.graph.num_nodes();
        let weights: Vec<f64> = (0..n as Node)
            .map(|x| self.candidate_count(x) as f64)
            .collect();
        crate::stationary::normalize(&weights).unwrap_or_else(|| vec![1.0 / n.max(1) as f64; n])
    }

    /// Samples a position from the stationary distribution.
    pub fn sample_stationary<R: Rng>(&self, rng: &mut R) -> Node {
        let pi = self.stationary_distribution();
        sample_from_distribution(&pi, rng)
    }

    /// Simulates `steps` transitions from `start`, returning the final position.
    pub fn walk<R: Rng>(&self, start: Node, steps: usize, rng: &mut R) -> Node {
        let mut pos = start;
        for _ in 0..steps {
            pos = self.step(pos, rng);
        }
        pos
    }

    /// Builds the dense transition matrix of the walk (small graphs only), for
    /// cross-validation against [`crate::DenseChain`].
    pub fn to_dense_chain(&self) -> crate::DenseChain {
        let n = self.graph.num_nodes();
        let mut rows = vec![vec![0.0; n]; n];
        for x in 0..n as Node {
            let total = self.candidate_count(x);
            if total == 0 {
                rows[x as usize][x as usize] = 1.0;
                continue;
            }
            let p = 1.0 / total as f64;
            if self.lazy {
                rows[x as usize][x as usize] += p;
            }
            for &v in self.graph.neighbors(x) {
                rows[x as usize][v as usize] += p;
            }
        }
        crate::DenseChain::from_rows(rows).expect("walk matrix is stochastic")
    }
}

/// Samples an index from an explicit probability distribution.
pub fn sample_from_distribution<R: Rng>(pi: &[f64], rng: &mut R) -> Node {
    let mut u: f64 = rng.gen();
    for (i, &p) in pi.iter().enumerate() {
        if u < p {
            return i as Node;
        }
        u -= p;
    }
    (pi.len() - 1) as Node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationary;
    use meg_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stationary_of_lazy_walk_is_proportional_to_closed_degree() {
        let g = generators::star(3); // center degree 3, leaves degree 1
        let w = SupportWalk::lazy(&g);
        let pi = w.stationary_distribution();
        // weights: center 4, each leaf 2 → total 10
        assert!((pi[0] - 0.4).abs() < 1e-12);
        for &pi_leaf in &pi[1..4] {
            assert!((pi_leaf - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn stationary_matches_power_iteration() {
        // The lazy walk is aperiodic on any support; the non-lazy walk needs a
        // non-bipartite support (odd cycle) for power iteration to converge.
        let grid = generators::grid2d(3, 3);
        let odd_cycle = generators::cycle(5);
        let lazy = SupportWalk::lazy(&grid);
        let non_lazy = SupportWalk::non_lazy(&odd_cycle);
        for walk in [&lazy, &non_lazy] {
            let chain = walk.to_dense_chain();
            let pi_power = stationary::power_iteration(&chain, 100_000, 1e-13).unwrap();
            let pi_exact = walk.stationary_distribution();
            assert!(
                stationary::total_variation(&pi_power, &pi_exact) < 1e-6,
                "lazy={}",
                walk.is_lazy()
            );
        }
    }

    #[test]
    fn empirical_occupancy_approaches_stationary() {
        let g = generators::cycle(5);
        let w = SupportWalk::lazy(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut counts = [0usize; 5];
        let mut pos: Node = 0;
        let steps = 60_000;
        for _ in 0..steps {
            pos = w.step(pos, &mut rng);
            counts[pos as usize] += 1;
        }
        let emp: Vec<f64> = counts.iter().map(|&c| c as f64 / steps as f64).collect();
        let pi = w.stationary_distribution();
        assert!(stationary::total_variation(&emp, &pi) < 0.02);
    }

    #[test]
    fn non_lazy_step_never_stays_unless_isolated() {
        let g = generators::cycle(6);
        let w = SupportWalk::non_lazy(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..200 {
            assert_ne!(w.step(2, &mut rng), 2);
        }
        let isolated = meg_graph::SnapshotBuf::with_nodes(3);
        let wi = SupportWalk::non_lazy(&isolated);
        assert_eq!(wi.step(1, &mut rng), 1);
    }

    #[test]
    fn lazy_step_stays_with_positive_probability() {
        let g = generators::path(2);
        let w = SupportWalk::lazy(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut stayed = 0;
        for _ in 0..1000 {
            if w.step(0, &mut rng) == 0 {
                stayed += 1;
            }
        }
        // Probability 1/2 of staying.
        assert!(stayed > 350 && stayed < 650, "stayed {stayed}");
    }

    #[test]
    fn stationary_sampling_is_unbiased() {
        let g = generators::star(4);
        let w = SupportWalk::lazy(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let trials = 30_000;
        let mut center = 0usize;
        for _ in 0..trials {
            if w.sample_stationary(&mut rng) == 0 {
                center += 1;
            }
        }
        let freq = center as f64 / trials as f64;
        let expect = 5.0 / 13.0; // center weight 5, leaves 2 each → total 13
        assert!((freq - expect).abs() < 0.02, "freq {freq} vs {expect}");
    }
}

//! Parameterized node expansion measurement.
//!
//! A graph is an `(h, k)`-expander (Definition 2.2) when every node set `I`
//! with `|I| ≤ h` has `|N(I)| ≥ k·|I|`. The paper's entire machinery reduces a
//! flooding-time bound to a family of such properties, so this module provides
//! both exact verification (exponential, tiny inputs and tests only) and
//! estimation of the worst-case expansion ratio at a given set size
//! (random-subset and BFS-ball sampling, the latter catching the clustered
//! sets that are worst for geometric graphs).

use crate::{out_neighborhood, Node, NodeSet, SnapshotBuf};
use rand::seq::SliceRandom;
use rand::Rng;

/// `|N(I)|` for the given set.
pub fn neighborhood_size(g: &SnapshotBuf, set: &NodeSet) -> usize {
    out_neighborhood(g, set).len()
}

/// Expansion ratio `|N(I)| / |I|`. Returns `f64::INFINITY` for the empty set.
pub fn expansion_ratio(g: &SnapshotBuf, set: &NodeSet) -> f64 {
    if set.is_empty() {
        return f64::INFINITY;
    }
    neighborhood_size(g, set) as f64 / set.len() as f64
}

/// Exact check of the `(h, k)`-expander property by enumerating **all**
/// non-empty subsets of size ≤ `h`.
///
/// Cost is `Σ_{i≤h} C(n, i)`; intended for `n ≤ ~20` in tests and for
/// cross-validating the sampling estimators.
pub fn is_hk_expander_exact(g: &SnapshotBuf, h: usize, k: f64) -> bool {
    worst_expansion_exact(g, h).is_none_or(|(_, ratio)| ratio >= k)
}

/// Exhaustively finds the set of size ≤ `h` with the worst expansion ratio.
///
/// Returns `(set, ratio)`, or `None` when the graph has no nodes or `h == 0`.
pub fn worst_expansion_exact(g: &SnapshotBuf, h: usize) -> Option<(NodeSet, f64)> {
    let n = g.num_nodes();
    if n == 0 || h == 0 {
        return None;
    }
    let h = h.min(n);
    let mut worst: Option<(NodeSet, f64)> = None;
    let mut members: Vec<Node> = Vec::with_capacity(h);
    // Depth-first enumeration of all subsets of size 1..=h.
    fn recurse(
        g: &SnapshotBuf,
        n: usize,
        h: usize,
        start: usize,
        members: &mut Vec<Node>,
        worst: &mut Option<(NodeSet, f64)>,
    ) {
        if !members.is_empty() {
            let set = NodeSet::from_iter(n, members.iter().copied());
            let ratio = expansion_ratio(g, &set);
            if worst.as_ref().is_none_or(|(_, w)| ratio < *w) {
                *worst = Some((set, ratio));
            }
        }
        if members.len() == h {
            return;
        }
        for u in start..n {
            members.push(u as Node);
            recurse(g, n, h, u + 1, members, worst);
            members.pop();
        }
    }
    recurse(g, n, h, 0, &mut members, &mut worst);
    worst
}

/// How candidate sets are drawn when estimating worst-case expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Uniformly random subsets of the requested size.
    UniformSubsets,
    /// BFS balls grown from a random seed node until the requested size is
    /// reached; these clustered sets are the near-worst case for geometric
    /// graphs.
    BfsBalls,
    /// Half the samples from each of the two strategies above.
    Mixed,
}

/// Estimates the minimum expansion ratio over sets of size exactly `h` using
/// `samples` sampled candidate sets.
///
/// The estimate is an *upper bound* on the true worst-case ratio (sampling can
/// only miss worse sets), which is the conservative direction when using it to
/// drive the flooding upper-bound evaluator.
pub fn min_expansion_sampled<R: Rng>(
    g: &SnapshotBuf,
    h: usize,
    samples: usize,
    strategy: SamplingStrategy,
    rng: &mut R,
) -> f64 {
    let n = g.num_nodes();
    assert!(h >= 1 && h <= n, "set size {h} out of range for n={n}");
    let mut best = f64::INFINITY;
    let nodes: Vec<Node> = (0..n as Node).collect();
    for i in 0..samples.max(1) {
        let use_ball = match strategy {
            SamplingStrategy::UniformSubsets => false,
            SamplingStrategy::BfsBalls => true,
            SamplingStrategy::Mixed => i % 2 == 0,
        };
        let set = if use_ball {
            bfs_ball(g, rng.gen_range(0..n) as Node, h)
        } else {
            let chosen: Vec<Node> = nodes.choose_multiple(rng, h).copied().collect();
            NodeSet::from_iter(n, chosen)
        };
        let ratio = expansion_ratio(g, &set);
        if ratio < best {
            best = ratio;
        }
    }
    best
}

/// Grows a BFS ball of exactly `target` nodes around `seed` (fewer if the
/// component of `seed` is smaller than `target`).
pub fn bfs_ball(g: &SnapshotBuf, seed: Node, target: usize) -> NodeSet {
    let n = g.num_nodes();
    let mut set = NodeSet::new(n);
    let mut queue = std::collections::VecDeque::new();
    set.insert(seed);
    queue.push_back(seed);
    while set.len() < target {
        let Some(u) = queue.pop_front() else { break };
        for &v in g.neighbors(u) {
            if set.contains(v) {
                continue;
            }
            set.insert(v);
            queue.push_back(v);
            if set.len() >= target {
                break;
            }
        }
    }
    set
}

/// One row of an [`ExpansionProfile`]: the estimated worst expansion ratio at
/// a given set size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpansionPoint {
    /// Set size `h`.
    pub h: usize,
    /// Estimated minimum of `|N(I)|/|I|` over sets with `|I| = h`.
    pub min_ratio: f64,
}

/// Estimated worst-case expansion ratio as a function of the set size.
///
/// This is the empirical analogue of the `(h_i, k_i)` sequences of
/// Theorem 2.5: feeding it to `meg-core`'s bound evaluator produces a fully
/// data-driven flooding-time prediction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExpansionProfile {
    /// Profile points ordered by increasing `h`.
    pub points: Vec<ExpansionPoint>,
}

impl ExpansionProfile {
    /// Measures the profile at geometrically spaced set sizes
    /// `1, 2, 4, …` up to `n/2`, with `samples` candidate sets per size.
    pub fn measure<R: Rng>(
        g: &SnapshotBuf,
        samples: usize,
        strategy: SamplingStrategy,
        rng: &mut R,
    ) -> Self {
        let n = g.num_nodes();
        let mut points = Vec::new();
        if n < 2 {
            return ExpansionProfile { points };
        }
        let mut h = 1usize;
        loop {
            let capped = h.min(n / 2).max(1);
            points.push(ExpansionPoint {
                h: capped,
                min_ratio: min_expansion_sampled(g, capped, samples, strategy, rng),
            });
            if capped >= n / 2 {
                break;
            }
            h *= 2;
        }
        points.dedup_by_key(|p| p.h);
        ExpansionProfile { points }
    }

    /// Returns the `(h, k)` pairs as vectors suitable for the bound evaluator:
    /// `h` strictly increasing, `k` made non-increasing by a running minimum
    /// (as required by Lemma 2.4).
    pub fn monotone_hk(&self) -> (Vec<usize>, Vec<f64>) {
        let mut hs = Vec::with_capacity(self.points.len());
        let mut ks = Vec::with_capacity(self.points.len());
        let mut running = f64::INFINITY;
        for p in &self.points {
            running = running.min(p.min_ratio);
            hs.push(p.h);
            ks.push(running);
        }
        (hs, ks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn complete_graph_expansion_is_maximal() {
        let g = generators::complete(8);
        let set = NodeSet::from_iter(8, [0u32, 1]);
        assert_eq!(neighborhood_size(&g, &set), 6);
        assert_eq!(expansion_ratio(&g, &set), 3.0);
        // every set of size ≤ 4 expands by at least (n - h)/h = 1.0
        assert!(is_hk_expander_exact(&g, 4, 1.0));
        assert!(!is_hk_expander_exact(&g, 4, 1.1));
    }

    #[test]
    fn path_graph_is_a_poor_expander() {
        let g = generators::path(10);
        // A prefix segment of length h has exactly one outside neighbor.
        let (worst, ratio) = worst_expansion_exact(&g, 3).unwrap();
        assert!(ratio <= 1.0 / 3.0 + 1e-12);
        assert!(worst.len() <= 3);
        assert!(!is_hk_expander_exact(&g, 3, 0.5));
        assert!(is_hk_expander_exact(&g, 3, 1.0 / 3.0));
    }

    #[test]
    fn empty_set_has_infinite_ratio() {
        let g = generators::complete(4);
        let set = NodeSet::new(4);
        assert_eq!(expansion_ratio(&g, &set), f64::INFINITY);
    }

    #[test]
    fn sampled_min_upper_bounds_exact_worst() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generators::cycle(12);
        let (_, exact_ratio) = worst_expansion_exact(&g, 3).unwrap();
        for strategy in [
            SamplingStrategy::UniformSubsets,
            SamplingStrategy::BfsBalls,
            SamplingStrategy::Mixed,
        ] {
            let est = min_expansion_sampled(&g, 3, 50, strategy, &mut rng);
            assert!(est >= exact_ratio - 1e-12, "{strategy:?}");
        }
        // BFS balls of size 3 on a cycle always have exactly 2 outside neighbors,
        // which is the true worst case here.
        let ball_est = min_expansion_sampled(&g, 3, 20, SamplingStrategy::BfsBalls, &mut rng);
        assert!((ball_est - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bfs_ball_size_and_connectivity() {
        let g = generators::grid2d(5, 5);
        let ball = bfs_ball(&g, 12, 7);
        assert_eq!(ball.len(), 7);
        assert!(ball.contains(12));
        // ball limited by component size
        let h = SnapshotBuf::from_edges(6, [(0, 1), (1, 2)]);
        let ball2 = bfs_ball(&h, 0, 5);
        assert_eq!(ball2.len(), 3);
    }

    #[test]
    fn profile_is_monotone_after_normalisation() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::grid2d(8, 8);
        let profile = ExpansionProfile::measure(&g, 10, SamplingStrategy::Mixed, &mut rng);
        assert!(!profile.points.is_empty());
        let (hs, ks) = profile.monotone_hk();
        assert_eq!(hs.len(), ks.len());
        assert!(hs.windows(2).all(|w| w[0] < w[1]));
        assert!(ks.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(*hs.last().unwrap(), 32);
    }

    #[test]
    fn star_center_set_expands_to_everything() {
        let g = generators::star(9);
        let center = NodeSet::singleton(10, 0);
        assert_eq!(neighborhood_size(&g, &center), 9);
    }
}

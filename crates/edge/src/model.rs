//! Shared parameterisation of edge-MEG.

use meg_core::bounds::EdgeBounds;
use meg_core::evolving::InitialDistribution;
use meg_markov::TwoStateChain;

/// Parameters of an edge-MEG `M(n, p, q)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeMegParams {
    /// Number of nodes.
    pub n: usize,
    /// Birth rate `p`: probability that an absent edge appears in one step.
    pub p: f64,
    /// Death rate `q`: probability that a present edge disappears in one step.
    pub q: f64,
}

impl EdgeMegParams {
    /// Creates the parameter set. Panics unless `n ≥ 2` and `p, q ∈ [0, 1]`.
    pub fn new(n: usize, p: f64, q: f64) -> Self {
        assert!(n >= 2, "need at least two nodes");
        assert!((0.0..=1.0).contains(&p), "birth rate p={p} outside [0,1]");
        assert!((0.0..=1.0).contains(&q), "death rate q={q} outside [0,1]");
        EdgeMegParams { n, p, q }
    }

    /// Convenience constructor fixing the stationary edge probability `p̂` and
    /// the death rate `q`: sets `p = q·p̂/(1−p̂)` so that `p/(p+q) = p̂`.
    ///
    /// Panics if `p̂ ∈ (0, 1)` does not hold or the implied `p` exceeds 1.
    pub fn with_stationary(n: usize, p_hat: f64, q: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p_hat) && p_hat > 0.0,
            "p̂ must lie in (0, 1)"
        );
        assert!(q > 0.0 && q <= 1.0, "death rate must lie in (0, 1]");
        let p = q * p_hat / (1.0 - p_hat);
        assert!(p <= 1.0, "implied birth rate {p} exceeds 1; lower q or p̂");
        EdgeMegParams::new(n, p, q)
    }

    /// The time-independent special case `q = 1 − p` (each snapshot is an
    /// independent `G(n, p)`, the dynamic random graphs of \[10\]).
    pub fn time_independent(n: usize, p: f64) -> Self {
        EdgeMegParams::new(n, p, 1.0 - p)
    }

    /// The per-edge two-state chain.
    pub fn chain(&self) -> TwoStateChain {
        TwoStateChain::new(self.p, self.q)
    }

    /// Stationary edge probability `p̂ = p/(p+q)` (0.5 in the degenerate
    /// `p = q = 0` case, matching [`TwoStateChain::stationary`]).
    pub fn stationary_edge_probability(&self) -> f64 {
        self.chain().stationary_edge_probability()
    }

    /// The closed-form bounds object for this configuration.
    pub fn bounds(&self) -> EdgeBounds {
        EdgeBounds::new(self.n, self.stationary_edge_probability())
    }

    /// Total number of potential edges `C(n, 2)`.
    pub fn num_pairs(&self) -> u64 {
        let n = self.n as u64;
        n * (n - 1) / 2
    }

    /// Expected number of alive edges in the stationary regime.
    pub fn expected_stationary_edges(&self) -> f64 {
        self.num_pairs() as f64 * self.stationary_edge_probability()
    }

    /// Expected number of edge flips per round in the stationary regime:
    /// `N·(1−p̂)·p` births plus `N·p̂·q` deaths, which are equal
    /// (detailed balance), giving `2N·pq/(p+q)`.
    ///
    /// This is the per-round work of `Stepping::Transitions`; comparing it
    /// against [`num_pairs`](EdgeMegParams::num_pairs) (the per-round work of
    /// per-pair stepping) predicts the fast path's speedup.
    pub fn expected_stationary_flips(&self) -> f64 {
        let s = self.p + self.q;
        if s == 0.0 {
            return 0.0;
        }
        2.0 * self.num_pairs() as f64 * self.p * self.q / s
    }
}

/// Re-export of the initial-distribution selector used by both engines.
pub type EdgeInit = InitialDistribution;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_probability_and_edge_count() {
        let p = EdgeMegParams::new(100, 0.02, 0.08);
        assert!((p.stationary_edge_probability() - 0.2).abs() < 1e-12);
        assert_eq!(p.num_pairs(), 4950);
        assert!((p.expected_stationary_edges() - 990.0).abs() < 1e-9);
    }

    #[test]
    fn with_stationary_inverts_correctly() {
        let params = EdgeMegParams::with_stationary(1_000, 0.01, 0.5);
        assert!((params.stationary_edge_probability() - 0.01).abs() < 1e-12);
        assert_eq!(params.q, 0.5);
    }

    #[test]
    fn stationary_snapshot_has_expected_density() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let params = EdgeMegParams::with_stationary(400, 0.03, 0.5);
        let snap = meg_graph::generators::erdos_renyi(
            params.n,
            params.stationary_edge_probability(),
            &mut rng,
        );
        let expected = params.expected_stationary_edges();
        let got = snap.num_edges() as f64;
        assert!(
            (got - expected).abs() < 0.2 * expected,
            "edges {got} vs {expected}"
        );
    }

    #[test]
    fn expected_flips_closed_form() {
        let p = EdgeMegParams::new(100, 0.02, 0.08);
        // births = N·(1−p̂)·p = 4950·0.8·0.02; deaths = N·p̂·q = 4950·0.2·0.08.
        let births = 4950.0 * 0.8 * 0.02;
        let deaths = 4950.0 * 0.2 * 0.08;
        assert!((p.expected_stationary_flips() - (births + deaths)).abs() < 1e-9);
        assert_eq!(
            EdgeMegParams::new(10, 0.0, 0.0).expected_stationary_flips(),
            0.0
        );
    }

    #[test]
    fn time_independent_case() {
        let params = EdgeMegParams::time_independent(50, 0.3);
        assert_eq!(params.q, 0.7);
        assert!((params.stationary_edge_probability() - 0.3).abs() < 1e-12);
        assert_eq!(params.chain().second_eigenvalue(), 0.0);
    }

    #[test]
    fn bounds_accessor_uses_phat() {
        let params = EdgeMegParams::with_stationary(10_000, 0.005, 0.25);
        let b = params.bounds();
        assert!((b.p_hat - 0.005).abs() < 1e-12);
        assert_eq!(b.n, 10_000);
    }

    #[test]
    #[should_panic]
    fn invalid_rates_rejected() {
        EdgeMegParams::new(10, 1.2, 0.1);
    }

    #[test]
    #[should_panic]
    fn implied_birth_rate_above_one_rejected() {
        EdgeMegParams::with_stationary(10, 0.9, 1.0);
    }
}

//! Property-based tests for the edge-MEG engines: agreement between the dense
//! and sparse implementations, stationarity preservation, and parameter
//! plumbing.

use meg_core::evolving::{EvolvingGraph, InitialDistribution};
use meg_edge::{DenseEdgeMeg, EdgeMegParams, SparseEdgeMeg};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_edge_counts_are_within_pair_budget(
        n in 2usize..60,
        p in 0.0f64..1.0,
        q in 0.0f64..1.0,
        seed in 0u64..200,
        steps in 1usize..10,
    ) {
        let params = EdgeMegParams::new(n, p, q);
        let max_pairs = params.num_pairs() as usize;
        let mut dense = DenseEdgeMeg::stationary(params, seed);
        let mut sparse = SparseEdgeMeg::stationary(params, seed.wrapping_add(1));
        for _ in 0..steps {
            let d = dense.advance().num_edges();
            let s = sparse.advance().num_edges();
            prop_assert!(d <= max_pairs);
            prop_assert!(s <= max_pairs);
        }
        prop_assert_eq!(dense.time(), steps as u64);
        prop_assert_eq!(sparse.time(), steps as u64);
    }

    #[test]
    fn deterministic_limits_behave_identically_in_both_engines(
        n in 2usize..40,
        seed in 0u64..100,
    ) {
        // p = 1, q = 0: every edge is born immediately and never dies → after
        // the first step both engines must present the complete graph forever.
        let params = EdgeMegParams::new(n, 1.0, 0.0);
        let complete_edges = params.num_pairs() as usize;
        let mut dense = DenseEdgeMeg::new(params, InitialDistribution::Empty, seed);
        let mut sparse = SparseEdgeMeg::new(params, InitialDistribution::Empty, seed);
        prop_assert_eq!(dense.advance().num_edges(), 0);
        prop_assert_eq!(sparse.advance().num_edges(), 0);
        for _ in 0..3 {
            prop_assert_eq!(dense.advance().num_edges(), complete_edges);
            prop_assert_eq!(sparse.advance().num_edges(), complete_edges);
        }

        // p = 0, q = 1 from a full start: everything dies after one step.
        let params = EdgeMegParams::new(n, 0.0, 1.0);
        let mut dense = DenseEdgeMeg::new(params, InitialDistribution::Full, seed);
        let mut sparse = SparseEdgeMeg::new(params, InitialDistribution::Full, seed);
        prop_assert_eq!(dense.advance().num_edges(), complete_edges);
        prop_assert_eq!(sparse.advance().num_edges(), complete_edges);
        for _ in 0..3 {
            prop_assert_eq!(dense.advance().num_edges(), 0);
            prop_assert_eq!(sparse.advance().num_edges(), 0);
        }
    }

    #[test]
    fn with_stationary_round_trips_phat(n in 2usize..10_000, p_hat in 0.001f64..0.5, q in 0.01f64..1.0) {
        // Skip combinations whose implied birth rate would exceed 1.
        if q * p_hat / (1.0 - p_hat) <= 1.0 {
            let params = EdgeMegParams::with_stationary(n, p_hat, q);
            prop_assert!((params.stationary_edge_probability() - p_hat).abs() < 1e-9);
            let bounds = params.bounds();
            prop_assert!((bounds.p_hat - p_hat).abs() < 1e-9);
        }
    }

    #[test]
    fn stationary_start_keeps_edge_counts_in_a_concentration_band(
        n in 100usize..300,
        seed in 0u64..50,
    ) {
        // p̂ fixed at 0.05: the stationary edge count is Binomial(C(n,2), p̂),
        // which at these sizes stays within ±40% of its mean with overwhelming
        // probability, both at time 0 and after a few steps.
        let params = EdgeMegParams::with_stationary(n, 0.05, 0.3);
        let expected = params.expected_stationary_edges();
        let mut meg = SparseEdgeMeg::stationary(params, seed);
        for _ in 0..5 {
            let edges = meg.advance().num_edges() as f64;
            prop_assert!(
                (edges - expected).abs() < 0.4 * expected,
                "edges {} vs expected {}",
                edges,
                expected
            );
        }
    }

    #[test]
    fn time_independent_snapshots_are_uncorrelated_in_expectation(
        n in 50usize..150,
        p in 0.05f64..0.3,
        seed in 0u64..50,
    ) {
        // q = 1 − p makes consecutive snapshots independent G(n, p); their
        // edge counts should each be near the mean (no drift, no stickiness).
        let params = EdgeMegParams::time_independent(n, p);
        let expected = params.expected_stationary_edges();
        let mut meg = DenseEdgeMeg::stationary(params, seed);
        for _ in 0..4 {
            let edges = meg.advance().num_edges() as f64;
            prop_assert!((edges - expected).abs() < 0.5 * expected);
        }
    }
}

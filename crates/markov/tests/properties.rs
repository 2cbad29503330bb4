//! Property-based tests for the Markov-chain substrate.

use meg_graph::generators;
use meg_markov::dense::DenseChain;
use meg_markov::mixing::two_state_mixing_time;
use meg_markov::stationary::{is_stationary, normalize, power_iteration, total_variation};
use meg_markov::walk::SupportWalk;
use meg_markov::TwoStateChain;
use proptest::prelude::*;

/// Strategy producing a random row-stochastic matrix of size 2..=6 with
/// strictly positive entries (so the chain is irreducible and aperiodic).
fn stochastic_matrix() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..6).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0.05f64..1.0, n), n).prop_map(|rows| {
            rows.into_iter()
                .map(|row| {
                    let sum: f64 = row.iter().sum();
                    row.into_iter().map(|x| x / sum).collect()
                })
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn power_iteration_finds_an_invariant_distribution(rows in stochastic_matrix()) {
        let chain = DenseChain::from_rows(rows).unwrap();
        let pi = power_iteration(&chain, 200_000, 1e-12).unwrap();
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(pi.iter().all(|&x| x >= -1e-12));
        prop_assert!(is_stationary(&chain, &pi, 1e-8));
    }

    #[test]
    fn distribution_evolution_preserves_mass(rows in stochastic_matrix(), start in 0usize..6) {
        let chain = DenseChain::from_rows(rows).unwrap();
        let n = chain.num_states();
        let mut mu = vec![0.0; n];
        mu[start % n] = 1.0;
        for _ in 0..10 {
            mu = chain.step_distribution(&mu);
            prop_assert!((mu.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(mu.iter().all(|&x| x >= -1e-12));
        }
    }

    #[test]
    fn two_state_stationary_is_invariant(p in 0.0f64..=1.0, q in 0.0f64..=1.0) {
        let chain = TwoStateChain::new(p, q);
        let (pi0, pi1) = chain.stationary();
        prop_assert!((pi0 + pi1 - 1.0).abs() < 1e-12);
        // invariance: pi1 = pi0 * p + pi1 * (1 - q) whenever p + q > 0
        if p + q > 0.0 {
            prop_assert!((pi1 - (pi0 * p + pi1 * (1.0 - q))).abs() < 1e-12);
        }
        // multi-step probabilities converge toward pi1 monotonically in TV
        let d1 = (chain.prob_present_after(true, 1) - pi1).abs();
        let d5 = (chain.prob_present_after(true, 5) - pi1).abs();
        prop_assert!(d5 <= d1 + 1e-12);
    }

    #[test]
    fn two_state_mixing_time_decreases_with_faster_chains(scale in 1.0f64..20.0) {
        let slow = two_state_mixing_time(0.01, 0.01, 0.01);
        let fast = two_state_mixing_time((0.01 * scale).min(1.0), (0.01 * scale).min(1.0), 0.01);
        if let (Some(slow), Some(fast)) = (slow, fast) {
            prop_assert!(fast <= slow);
        }
    }

    #[test]
    fn total_variation_is_a_metric_on_simplex(a in proptest::collection::vec(0.01f64..1.0, 4), b in proptest::collection::vec(0.01f64..1.0, 4)) {
        let p = normalize(&a).unwrap();
        let q = normalize(&b).unwrap();
        let d = total_variation(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d));
        prop_assert!((total_variation(&p, &p)).abs() < 1e-12);
        prop_assert!((total_variation(&p, &q) - total_variation(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn support_walk_stationary_law_is_invariant_under_the_dense_chain(nodes in 3usize..9, lazy in proptest::bool::ANY) {
        // Use a cycle (connected, regular) so both lazy and non-lazy walks are
        // well-defined; the exact stationary law must be invariant for the
        // walk's transition matrix even when power iteration would not
        // converge (bipartite non-lazy case).
        let g = generators::cycle(nodes);
        let walk = if lazy { SupportWalk::lazy(&g) } else { SupportWalk::non_lazy(&g) };
        let chain = walk.to_dense_chain();
        let pi = walk.stationary_distribution();
        prop_assert!(is_stationary(&chain, &pi, 1e-9));
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn support_walk_steps_stay_on_neighbors(nodes in 3usize..12, steps in 1usize..30, seed in 0u64..100) {
        use rand::SeedableRng;
        let g = generators::cycle(nodes);
        let walk = SupportWalk::lazy(&g);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut pos = 0u32;
        for _ in 0..steps {
            let next = walk.step(pos, &mut rng);
            prop_assert!(next == pos || g.has_edge(pos, next));
            pos = next;
        }
        prop_assert!((pos as usize) < nodes);
    }
}

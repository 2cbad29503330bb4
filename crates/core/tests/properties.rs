//! Property-based tests for the flooding engine, the protocol variants and the
//! bound evaluators.

use meg_core::adversarial::RotatingStar;
use meg_core::bounds::{EdgeBounds, GeometricBounds};
use meg_core::evolving::{EvolvingGraph, FrozenGraph, ScheduledGraph};
use meg_core::expansion::ExpanderSequence;
use meg_core::flooding::{flood, flood_static};
use meg_core::protocols::{parsimonious_flood, probabilistic_flood, push_pull_gossip};
use meg_graph::{bfs, generators, SnapshotBuf};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn edges_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..(4 * n)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flooding_time_is_bounded_by_n_minus_1_on_connected_static_graphs((n, edges) in edges_strategy(50), s in 0u32..50) {
        let g = SnapshotBuf::from_edges(n, edges);
        let s = s % n as u32;
        let result = flood_static(&g, s);
        if let Some(t) = result.completion_time() {
            prop_assert!(t <= (n - 1) as u64);
            prop_assert_eq!(result.informed_count(), n);
        }
    }

    #[test]
    fn flooding_never_loses_informed_nodes_on_scheduled_graphs(
        (n, edges_a) in edges_strategy(30),
        edges_b in proptest::collection::vec((0u32..30, 0u32..30), 0..60),
        s in 0u32..30,
    ) {
        let a = SnapshotBuf::from_edges(n, edges_a);
        let b = SnapshotBuf::from_edges(
            n,
            edges_b.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)),
        );
        let mut meg = ScheduledGraph::new(vec![a, b]);
        let result = flood(&mut meg, s % n as u32, 4 * n as u64);
        for w in result.informed_per_round.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert_eq!(result.informed_per_round[0], 1);
        prop_assert_eq!(result.completed, result.informed_count() == n);
    }

    #[test]
    fn probabilistic_flooding_with_beta_one_equals_flooding((n, edges) in edges_strategy(40), s in 0u32..40, seed in 0u64..100) {
        let g = SnapshotBuf::from_edges(n, edges);
        let s = s % n as u32;
        // Independent oracle: on a static graph, β = 1 flooding is BFS. The
        // informed count after t rounds is the prefix sum of the level sizes
        // (constant once the source's component is covered), and round t+1
        // sends one message per arc of every node within distance t.
        let mut trace: Vec<usize> = bfs::level_sizes(&g, s)
            .iter()
            .scan(0, |acc, &k| {
                *acc += k;
                Some(*acc)
            })
            .collect();
        let connected = *trace.last().unwrap() == n;
        let budget = (2 * n) as u64;
        let rounds = if connected { trace.len() as u64 - 1 } else { budget };
        trace.resize(rounds as usize + 1, *trace.last().unwrap());
        let dist = bfs::distances(&g, s);
        let messages: u64 = (0..rounds)
            .map(|t| {
                (0..n as u32)
                    .filter(|&u| u64::from(dist[u as usize]) <= t)
                    .map(|u| g.degree(u) as u64)
                    .sum::<u64>()
            })
            .sum();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut frozen = FrozenGraph::new(g);
        let prob = probabilistic_flood(&mut frozen, s, 1.0, budget, &mut rng);
        prop_assert_eq!(prob.completed, connected);
        prop_assert_eq!(prob.rounds, rounds);
        prop_assert_eq!(prob.informed_per_round, trace);
        prop_assert_eq!(prob.messages_sent, messages);
    }

    #[test]
    fn parsimonious_flooding_never_beats_plain_flooding_coverage(
        (n, edges) in edges_strategy(40),
        s in 0u32..40,
        k in 1u64..4,
    ) {
        let g = SnapshotBuf::from_edges(n, edges);
        let s = s % n as u32;
        let budget = (2 * n) as u64;
        let plain = flood_static(&g, s);
        let mut frozen = FrozenGraph::new(g);
        let pars = parsimonious_flood(&mut frozen, s, k, budget);
        // On static graphs parsimonious flooding reaches exactly the same set.
        prop_assert_eq!(pars.informed_count(), plain.informed_count());
    }

    #[test]
    fn push_pull_gossip_informs_only_reachable_nodes((n, edges) in edges_strategy(30), s in 0u32..30, seed in 0u64..100) {
        let g = SnapshotBuf::from_edges(n, edges);
        let s = s % n as u32;
        let reachable = meg_graph::bfs::reachable_count(&g, s);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut frozen = FrozenGraph::new(g);
        let run = push_pull_gossip(&mut frozen, s, (20 * n) as u64, &mut rng);
        prop_assert!(run.informed_count() <= reachable);
        prop_assert!(run.informed_count() >= 1);
    }

    #[test]
    fn rotating_star_flooding_matches_closed_form(n in 2usize..60, offset in 0u64..100) {
        let mut star = RotatingStar::new(n, offset);
        let source = star.worst_source();
        let predicted = star.predicted_worst_completion_time();
        let measured = flood(&mut star, source, (4 * n) as u64).completion_time();
        prop_assert_eq!(measured, Some(predicted));
    }

    #[test]
    fn expander_sequence_bound_is_monotone_in_expansion(
        n in 10usize..2000,
        k_small in 0.1f64..1.0,
        boost in 1.1f64..10.0,
    ) {
        let weak = ExpanderSequence::new(n, vec![n / 2], vec![k_small]).unwrap();
        let strong = ExpanderSequence::new(n, vec![n / 2], vec![k_small * boost]).unwrap();
        prop_assert!(strong.flooding_bound() <= weak.flooding_bound());
    }

    #[test]
    fn geometric_bounds_are_ordered_and_positive(
        n in 10usize..1_000_000,
        radius in 1.0f64..100.0,
        move_radius in 0.0f64..100.0,
    ) {
        let b = GeometricBounds::new(n, radius, move_radius);
        prop_assert!(b.lower() >= 0.0);
        prop_assert!(b.upper_shape() > 0.0);
        prop_assert!(b.lower() <= b.upper(1.0) + 1e-9);
        // faster nodes can only lower the lower bound
        let faster = GeometricBounds::new(n, radius, move_radius + 1.0);
        prop_assert!(faster.lower() <= b.lower() + 1e-12);
    }

    #[test]
    fn edge_bounds_are_ordered_and_positive(n in 10usize..1_000_000, exponent in 0.1f64..0.9) {
        // p̂ = n^{-exponent}, always above the connectivity threshold for the
        // exponents sampled here when n is large; the ordering must hold regardless.
        let p_hat = (n as f64).powf(-exponent).min(0.99);
        let b = EdgeBounds::new(n, p_hat);
        prop_assert!(b.theta_shape() > 0.0);
        prop_assert!(b.lower() <= b.upper(1.0) + 1e-9);
        prop_assert!(b.expected_degree() >= 0.0);
    }

    #[test]
    fn frozen_graph_time_advances_by_one_per_snapshot(steps in 1usize..50) {
        let mut frozen = FrozenGraph::new(generators::cycle(8));
        for expected in 1..=steps as u64 {
            let snapshot_edges = frozen.advance().num_edges();
            prop_assert_eq!(snapshot_edges, 8);
            prop_assert_eq!(frozen.time(), expected);
        }
    }
}

//! Property-based tests for the static-graph substrate.

use meg_graph::{bfs, connectivity, diameter, expansion, generators, SnapshotBuf};
use proptest::prelude::*;

fn edges_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..(4 * n)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_edges_matches_a_per_node_reference((n, edges) in edges_strategy(60)) {
        // Reference: per-node neighbor lists fed the first occurrence of
        // every non-loop edge, in input order.
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in &edges {
            if u != v && !rows[u as usize].contains(&v) {
                rows[u as usize].push(v);
                rows[v as usize].push(u);
            }
        }
        let g = SnapshotBuf::from_edges(n, edges);
        prop_assert_eq!(g.num_nodes(), n);
        prop_assert_eq!(g.num_edges(), rows.iter().map(Vec::len).sum::<usize>() / 2);
        for u in 0..n as u32 {
            prop_assert_eq!(g.neighbors(u), &rows[u as usize][..]);
            prop_assert_eq!(g.degree(u), rows[u as usize].len());
            for &v in &rows[u as usize] {
                prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn handshake_lemma_holds((n, edges) in edges_strategy(80)) {
        let g = SnapshotBuf::from_edges(n, edges);
        let degree_sum: usize = (0..n as u32).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_like_step((n, edges) in edges_strategy(50), s in 0u32..50) {
        let g = SnapshotBuf::from_edges(n, edges);
        let s = s % n as u32;
        let dist = bfs::distances(&g, s);
        prop_assert_eq!(dist[s as usize], 0);
        // every edge connects nodes whose distances differ by at most 1
        for (u, v) in g.edges() {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            match (du == bfs::UNREACHABLE, dv == bfs::UNREACHABLE) {
                (true, true) => {}
                (false, false) => prop_assert!(du.abs_diff(dv) <= 1),
                _ => prop_assert!(false, "edge between reachable and unreachable node"),
            }
        }
    }

    #[test]
    fn components_partition_the_nodes((n, edges) in edges_strategy(60)) {
        let g = SnapshotBuf::from_edges(n, edges);
        let comps = connectivity::connected_components(&g);
        prop_assert_eq!(comps.labels.len(), n);
        prop_assert_eq!(comps.sizes.iter().sum::<usize>(), n);
        prop_assert_eq!(comps.count() == 1, connectivity::is_connected(&g));
        // nodes joined by an edge share a label
        for (u, v) in g.edges() {
            prop_assert_eq!(comps.labels[u as usize], comps.labels[v as usize]);
        }
    }

    #[test]
    fn double_sweep_bounds_exact_diameter((n, edges) in edges_strategy(40), s in 0u32..40) {
        let g = SnapshotBuf::from_edges(n, edges);
        let s = s % n as u32;
        match (diameter::exact(&g), diameter::double_sweep_lower_bound(&g, s)) {
            (diameter::Diameter::Finite(exact), diameter::Diameter::Finite(lower)) => {
                prop_assert!(lower <= exact);
                prop_assert!(2 * lower >= exact, "double sweep is a 2-approximation");
            }
            (diameter::Diameter::Infinite, _) => {}
            (finite, infinite) => {
                prop_assert!(false, "exact {:?} but double sweep {:?}", finite, infinite);
            }
        }
    }

    #[test]
    fn erdos_renyi_monotone_in_p(n in 5usize..80, seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng1 = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));
        let sparse = generators::erdos_renyi(n, 0.05, &mut rng1);
        let dense = generators::erdos_renyi(n, 0.6, &mut rng2);
        // not a coupling, but with these p values and n ≥ 5 the ordering of the
        // expected edge counts is overwhelmingly respected; allow slack.
        prop_assert!(dense.num_edges() + 3 >= sparse.num_edges());
    }

    #[test]
    fn expansion_ratio_of_half_the_nodes_is_bounded_by_one((n, edges) in edges_strategy(30)) {
        // |N(I)| ≤ n − |I|, so for |I| = ⌈n/2⌉ the ratio is at most ~1.
        let g = SnapshotBuf::from_edges(n, edges);
        let h = n.div_ceil(2);
        let set = meg_graph::NodeSet::from_iter(n, 0..h as u32);
        let ratio = expansion::expansion_ratio(&g, &set);
        prop_assert!(ratio <= (n - h) as f64 / h as f64 + 1e-12);
    }

    #[test]
    fn bfs_ball_is_connected_and_has_requested_size((n, edges) in edges_strategy(40), seed in 0u32..40, target in 1usize..20) {
        let g = SnapshotBuf::from_edges(n, edges);
        let seed_node = seed % n as u32;
        let ball = expansion::bfs_ball(&g, seed_node, target);
        prop_assert!(ball.contains(seed_node));
        let component = bfs::reachable_count(&g, seed_node);
        prop_assert_eq!(ball.len(), target.min(component));
    }
}

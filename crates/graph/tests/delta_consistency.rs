//! Delta-edit consistency of [`SnapshotBuf`].
//!
//! After any sequence of [`SnapshotBuf::apply_delta`] calls — random
//! birth/death batches, including batches large enough to exhaust the
//! per-row slack and trip the rebuild fallback — the buffer must represent
//! exactly the edge set a from-scratch build of the same set represents:
//! identical node count, edge count, degrees, and per-row neighbor *sets*.
//! (Within-row neighbor order is explicitly not part of the contract:
//! deaths swap-remove within the live prefix, so rows are compared sorted.)

use meg_graph::{Node, SnapshotBuf};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One build-then-edit scenario: node count, initial edges, slack, and a
/// sequence of delta rounds given as fractions (how much of the current edge
/// set dies, how much of the complement is born).
fn scenario_strategy() -> impl Strategy<Value = (usize, u32, Vec<(u64, u64)>, u64)> {
    (
        4usize..40,
        0u32..5,
        proptest::collection::vec((0u64..=100, 0u64..=100), 1..8),
        0u64..u64::MAX,
    )
}

/// Deterministic splitmix64 step, used to derive reproducible pseudo-random
/// choices inside a proptest case without dragging an RNG dependency in.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rebuilds `edges` from scratch (plain `build`, no slack) and checks the
/// delta-maintained `buf` agrees with it on everything observable.
fn assert_matches_fresh_build(
    buf: &SnapshotBuf,
    n: usize,
    edges: &BTreeSet<(Node, Node)>,
) -> Result<(), TestCaseError> {
    let mut fresh = SnapshotBuf::new();
    fresh.begin(n);
    for &(u, v) in edges {
        fresh.push_edge(u, v);
    }
    fresh.build();
    prop_assert_eq!(buf.num_nodes(), fresh.num_nodes());
    prop_assert_eq!(buf.num_edges(), fresh.num_edges());
    for u in 0..n as Node {
        prop_assert_eq!(buf.degree(u), fresh.degree(u), "degree of {}", u);
        let mut got = buf.neighbors(u).to_vec();
        let mut want = fresh.neighbors(u).to_vec();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want, "row of {}", u);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn apply_delta_equals_from_scratch_rebuild(
        (n, slack, rounds, seed) in scenario_strategy()
    ) {
        let mut state = seed;
        // Initial edge set: each pair present with probability ~1/3.
        let mut edges: BTreeSet<(Node, Node)> = BTreeSet::new();
        for u in 0..n as Node {
            for v in (u + 1)..n as Node {
                if splitmix(&mut state).is_multiple_of(3) {
                    edges.insert((u, v));
                }
            }
        }
        let mut buf = SnapshotBuf::new();
        buf.begin(n);
        for &(u, v) in &edges {
            buf.push_edge(u, v);
        }
        buf.build_with_slack(slack);
        assert_matches_fresh_build(&buf, n, &edges)?;

        for &(death_pct, birth_pct) in &rounds {
            // Deaths: a random subset of the current edges.
            let deaths: Vec<(Node, Node)> = edges
                .iter()
                .copied()
                .filter(|_| splitmix(&mut state) % 100 < death_pct)
                .collect();
            for d in &deaths {
                edges.remove(d);
            }
            // Births: a random subset of the now-absent pairs. High birth
            // percentages overwhelm any slack level and force the rebuild
            // fallback; low ones stay on the in-place path.
            let mut births: Vec<(Node, Node)> = Vec::new();
            for u in 0..n as Node {
                for v in (u + 1)..n as Node {
                    if !edges.contains(&(u, v)) && splitmix(&mut state) % 100 < birth_pct {
                        births.push((u, v));
                        edges.insert((u, v));
                    }
                }
            }
            let outcome = buf.apply_delta(&births, &deaths);
            // Deaths swap-remove within the live prefix and never consume
            // slack, so a births-free round must stay on the in-place path.
            if births.is_empty() {
                prop_assert!(
                    !outcome.is_rebuilt(),
                    "deaths alone must never trip the rebuild fallback"
                );
            }
            assert_matches_fresh_build(&buf, n, &edges)?;
        }
    }

    #[test]
    fn slack_exhaustion_fallback_is_transparent(n in 4usize..30, slack in 0u32..3) {
        // Start from an empty graph and insert a full star at node 0 in one
        // delta: with any bounded slack this must trip the fallback, after
        // which the buffer must still answer queries exactly like a fresh
        // build — and keep absorbing further deltas.
        let n_nodes = n as Node;
        let mut buf = SnapshotBuf::new();
        buf.begin(n);
        buf.build_with_slack(slack);
        let star: Vec<(Node, Node)> = (1..n_nodes).map(|v| (0, v)).collect();
        // n − 1 ≥ 3 new arcs at the hub against slack ≤ 2: the outcome must
        // report the fallback, and size the rebuild it paid for.
        let outcome = buf.apply_delta(&star, &[]);
        prop_assert!(outcome.is_rebuilt(), "a full star must exhaust slack {}", slack);
        prop_assert!(outcome.rebuild_bytes() > 0, "a rebuild has a byte cost");
        let mut edges: BTreeSet<(Node, Node)> = star.iter().copied().collect();
        assert_matches_fresh_build(&buf, n, &edges)?;
        // Kill the whole star again (deaths-only: in-place), then add a ring
        // (may or may not exhaust the post-rebuild slack — outcome unpinned).
        let outcome = buf.apply_delta(&[], &star);
        prop_assert!(!outcome.is_rebuilt(), "deaths-only round must patch in place");
        edges.clear();
        let ring: Vec<(Node, Node)> = (0..n_nodes)
            .map(|u| {
                let v = (u + 1) % n_nodes;
                (u.min(v), u.max(v))
            })
            .collect();
        let _ = buf.apply_delta(&ring, &[]);
        edges.extend(ring.iter().copied());
        assert_matches_fresh_build(&buf, n, &edges)?;
    }
}

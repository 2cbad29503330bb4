//! Deterministic and random graph generators.
//!
//! These serve two purposes: hand-checkable fixtures for tests (path, cycle,
//! star, complete, grid) and the Erdős–Rényi family `G(n, p)` that is the
//! stationary law of edge-MEG. Radius graphs over node positions, the
//! snapshots of geometric-MEG, are built by `meg-geometric`.

use crate::{Node, SnapshotBuf};
use rand::Rng;

/// Builds a snapshot over `n` nodes from the edges `push` stages (each
/// exactly once, no self-loops), in staging order.
fn built(n: usize, push: impl FnOnce(&mut SnapshotBuf)) -> SnapshotBuf {
    let mut g = SnapshotBuf::new();
    g.begin(n);
    push(&mut g);
    g.build();
    g
}

/// Path graph `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> SnapshotBuf {
    built(n, |g| {
        for u in 1..n {
            g.push_edge((u - 1) as Node, u as Node);
        }
    })
}

/// Cycle graph on `n ≥ 3` nodes (for `n < 3` it degenerates to a path).
pub fn cycle(n: usize) -> SnapshotBuf {
    built(n, |g| {
        for u in 1..n {
            g.push_edge((u - 1) as Node, u as Node);
        }
        if n >= 3 {
            g.push_edge((n - 1) as Node, 0);
        }
    })
}

/// Star graph: node 0 is the center, nodes `1..=leaves` are leaves.
pub fn star(leaves: usize) -> SnapshotBuf {
    built(leaves + 1, |g| {
        for u in 1..=leaves {
            g.push_edge(0, u as Node);
        }
    })
}

/// Complete graph on `n` nodes.
pub fn complete(n: usize) -> SnapshotBuf {
    built(n, |g| {
        for u in 0..n {
            for v in (u + 1)..n {
                g.push_edge(u as Node, v as Node);
            }
        }
    })
}

/// Two-dimensional grid graph with `rows × cols` nodes, 4-neighborhood.
/// Node `(r, c)` has index `r * cols + c`.
pub fn grid2d(rows: usize, cols: usize) -> SnapshotBuf {
    let idx = |r: usize, c: usize| (r * cols + c) as Node;
    built(rows * cols, |g| {
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    g.push_edge(idx(r, c), idx(r, c + 1));
                }
                if r + 1 < rows {
                    g.push_edge(idx(r, c), idx(r + 1, c));
                }
            }
        }
    })
}

/// Complete bipartite graph `K_{a,b}`; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b: usize) -> SnapshotBuf {
    built(a + b, |g| {
        for u in 0..a {
            for v in 0..b {
                g.push_edge(u as Node, (a + v) as Node);
            }
        }
    })
}

/// Erdős–Rényi random graph `G(n, p)`: every unordered pair is an edge
/// independently with probability `p`.
///
/// Uses geometric "skip" sampling over the lexicographically ordered pairs, so
/// the cost is `O(n + m)` rather than `O(n²)` — essential for the sparse
/// regimes (`p = Θ(log n / n)`) the paper cares about.
pub fn erdos_renyi<R: Rng>(n: usize, p: f64, rng: &mut R) -> SnapshotBuf {
    assert!((0.0..=1.0).contains(&p), "p={p} must lie in [0, 1]");
    if p >= 1.0 {
        return complete(n);
    }
    built(n, |g| {
        if n < 2 || p == 0.0 {
            return;
        }
        // Iterate over pairs (u, v), u < v, in lexicographic order, skipping
        // ahead by geometrically distributed gaps.
        let log_q = (1.0 - p).ln();
        let total_pairs = n as u64 * (n as u64 - 1) / 2;
        let mut idx: u64 = 0;
        loop {
            // Draw the gap to the next selected pair: floor(ln(U)/ln(1-p)).
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let skip = (u.ln() / log_q).floor() as u64;
            idx = match idx.checked_add(skip) {
                Some(v) => v,
                None => break,
            };
            if idx >= total_pairs {
                break;
            }
            let (a, b) = pair_from_index(n as u64, idx);
            g.push_edge(a as Node, b as Node);
            idx += 1;
            if idx >= total_pairs {
                break;
            }
        }
    })
}

/// Maps a linear index in `0 .. n(n-1)/2` to the unordered pair `(a, b)` with
/// `a < b`, in lexicographic order `(0,1), (0,2), …, (0,n-1), (1,2), …`.
///
/// This is the canonical pair numbering shared by the Erdős–Rényi generator
/// here and by the sparse edge-MEG engine (which skip-samples edge births over
/// the same index space).
pub fn pair_from_index(n: u64, idx: u64) -> (u64, u64) {
    debug_assert!(idx < n * (n - 1) / 2);
    // Row a starts at offset a*n - a*(a+1)/2 - a... derive by solving the
    // quadratic; use floating point for the initial guess then correct.
    let mut a = {
        let nf = n as f64;
        let k = idx as f64;
        let guess = nf - 0.5 - ((nf - 0.5) * (nf - 0.5) - 2.0 * k).max(0.0).sqrt();
        guess.floor().max(0.0) as u64
    };
    // Correct the guess (floating point can be off by one in either direction).
    let row_start = |a: u64| a * n - a * (a + 1) / 2;
    while a > 0 && row_start(a) > idx {
        a -= 1;
    }
    while a + 1 < n && row_start(a + 1) <= idx {
        a += 1;
    }
    let b = a + 1 + (idx - row_start(a));
    (a, b)
}

/// Inverse of [`pair_from_index`]: the linear index of the unordered pair
/// `{a, b}` (order of the arguments does not matter; they must differ).
pub fn index_of_pair(n: u64, a: u64, b: u64) -> u64 {
    assert!(a != b && a < n && b < n, "invalid pair ({a},{b}) for n={n}");
    let (a, b) = if a < b { (a, b) } else { (b, a) };
    a * n - a * (a + 1) / 2 + (b - a - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn deterministic_families_have_expected_sizes() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(cycle(2).num_edges(), 1);
        assert_eq!(star(7).num_edges(), 7);
        assert_eq!(complete(6).num_edges(), 15);
        assert_eq!(grid2d(3, 4).num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(complete_bipartite(3, 4).num_edges(), 12);
    }

    #[test]
    fn pair_from_index_enumerates_all_pairs() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..(n * (n - 1) / 2) {
            let (a, b) = pair_from_index(n, idx);
            assert!(a < b && b < n, "bad pair ({a},{b}) at {idx}");
            assert!(seen.insert((a, b)), "duplicate pair ({a},{b})");
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn index_of_pair_is_the_inverse_of_pair_from_index() {
        let n = 9u64;
        for idx in 0..(n * (n - 1) / 2) {
            let (a, b) = pair_from_index(n, idx);
            assert_eq!(index_of_pair(n, a, b), idx);
            assert_eq!(index_of_pair(n, b, a), idx);
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(erdos_renyi(10, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut rng).num_edges(), 45);
        assert_eq!(erdos_renyi(1, 0.5, &mut rng).num_edges(), 0);
    }

    #[test]
    fn erdos_renyi_edge_count_concentrates() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 400;
        let p = 0.02;
        let trials = 20;
        let mut total = 0usize;
        for _ in 0..trials {
            total += erdos_renyi(n, p, &mut rng).num_edges();
        }
        let mean = total as f64 / trials as f64;
        let expected = p * (n * (n - 1) / 2) as f64;
        assert!(
            (mean - expected).abs() < 0.15 * expected,
            "mean edges {mean} vs expected {expected}"
        );
    }
}

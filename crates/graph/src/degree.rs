//! Degree statistics of a snapshot.
//!
//! Edge-MEG stationary snapshots are Erdős–Rényi `G(n, p̂)`, so their degree
//! distribution is Binomial(n−1, p̂); geometric snapshots concentrate around
//! the expected number of nodes inside a disk of radius `R`. Degree summaries
//! are both a model sanity check and an input to the lower-bound argument of
//! Theorem 4.4 (which hinges on the maximum degree).

use crate::{Node, SnapshotBuf};

/// Summary of the degree sequence of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Population variance of the degree sequence.
    pub variance: f64,
    /// Number of isolated (degree-0) nodes.
    pub isolated: usize,
}

/// Computes the degree of every node.
pub fn degree_sequence(g: &SnapshotBuf) -> Vec<usize> {
    (0..g.num_nodes()).map(|u| g.degree(u as Node)).collect()
}

/// Computes [`DegreeStats`] for a graph. Returns `None` for the empty graph.
pub fn degree_stats(g: &SnapshotBuf) -> Option<DegreeStats> {
    let n = g.num_nodes();
    if n == 0 {
        return None;
    }
    let seq = degree_sequence(g);
    let min = *seq.iter().min().expect("nonempty");
    let max = *seq.iter().max().expect("nonempty");
    let isolated = seq.iter().filter(|&&d| d == 0).count();
    let mean = seq.iter().sum::<usize>() as f64 / n as f64;
    let variance = seq
        .iter()
        .map(|&d| {
            let x = d as f64 - mean;
            x * x
        })
        .sum::<f64>()
        / n as f64;
    Some(DegreeStats {
        min,
        max,
        mean,
        variance,
        isolated,
    })
}

/// Degree histogram: `hist[d]` is the number of nodes of degree `d`.
pub fn degree_histogram(g: &SnapshotBuf) -> Vec<usize> {
    let seq = degree_sequence(g);
    let max = seq.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for d in seq {
        hist[d] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_of_star() {
        let g = generators::star(5); // center 0 + 5 leaves
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert_eq!(s.isolated, 0);
        assert!((s.mean - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_regular_graph_have_zero_variance() {
        let g = generators::cycle(8);
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    fn handshake_lemma() {
        let g = generators::grid2d(4, 5);
        let seq = degree_sequence(&g);
        assert_eq!(seq.iter().sum::<usize>(), 2 * g.num_edges());
    }

    #[test]
    fn isolated_counting_and_histogram() {
        let g = SnapshotBuf::from_edges(5, [(0, 1)]);
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.isolated, 3);
        let hist = degree_histogram(&g);
        assert_eq!(hist, vec![3, 2]);
    }

    #[test]
    fn empty_graph_has_no_stats() {
        assert!(degree_stats(&SnapshotBuf::with_nodes(0)).is_none());
        assert_eq!(degree_histogram(&SnapshotBuf::with_nodes(0)), vec![0]);
    }
}

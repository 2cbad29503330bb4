//! Evolving graphs that separate diameter from flooding time.
//!
//! The Introduction of the paper points out that a diameter bound for a
//! dynamic network implies nothing about its flooding time: one can build an
//! `n`-node dynamic network whose every snapshot has constant diameter yet
//! whose flooding time is `Θ(n)`. The [`RotatingStar`] below is a concrete,
//! deterministic witness (and, being deterministic, it is trivially a
//! Markovian evolving graph with a one-point stationary distribution — one
//! that is *not* an expander, which is exactly why the general theorem's bound
//! degenerates for it).

use crate::evolving::EvolvingGraph;
use meg_graph::{Node, SnapshotBuf};

/// The rotating-star evolving graph.
///
/// At time step `t` the snapshot is a star centred at node `c_t = (offset + t)
/// mod n`. Every snapshot has diameter 2 (any two leaves are joined through
/// the centre), yet flooding started at the node "just behind" the rotation
/// needs `n` rounds: at each step the only uninformed neighbor of the informed
/// set is the current centre, so exactly one new node learns the message per
/// round until the rotation wraps around to an informed centre.
#[derive(Clone, Debug)]
pub struct RotatingStar {
    n: usize,
    offset: u64,
    time: u64,
    snapshot: SnapshotBuf,
}

impl RotatingStar {
    /// Creates a rotating star over `n ≥ 2` nodes with the centre at time `t`
    /// being `(offset + t) mod n`.
    pub fn new(n: usize, offset: u64) -> Self {
        assert!(n >= 2, "rotating star needs at least two nodes");
        RotatingStar {
            n,
            offset,
            time: 0,
            snapshot: SnapshotBuf::with_nodes(n),
        }
    }

    /// The worst-case source for this construction: the node that the
    /// rotation will visit *last* (the centre of the final step before
    /// wrap-around), giving flooding time exactly `n − 1`.
    pub fn worst_source(&self) -> Node {
        ((self.offset as usize + self.n - 1) % self.n) as Node
    }

    /// Flooding time from the worst-case source, by the closed-form analysis:
    /// at round `t` the only uninformed neighbor of the informed set is the
    /// current centre `c_t`, so exactly one node is informed per round until
    /// the last leaf joins at round `n − 1`.
    pub fn predicted_worst_completion_time(&self) -> u64 {
        (self.n - 1) as u64
    }

    /// Diameter of every snapshot (2 whenever `n ≥ 3`, 1 for `n = 2`).
    pub fn snapshot_diameter(&self) -> u32 {
        if self.n >= 3 {
            2
        } else {
            1
        }
    }

    fn center_at(&self, t: u64) -> Node {
        (((self.offset + t) % self.n as u64) as usize) as Node
    }
}

impl EvolvingGraph for RotatingStar {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let center = self.center_at(self.time);
        self.snapshot.begin(self.n);
        for v in 0..self.n as Node {
            if v != center {
                self.snapshot.push_edge(center.min(v), center.max(v));
            }
        }
        self.snapshot.build();
        self.time += 1;
        &self.snapshot
    }

    fn time(&self) -> u64 {
        self.time
    }
}

/// A "bottleneck" evolving graph: two cliques `A` and `B` of size `n/2`
/// connected at time `t` by the single bridge `{a_t, b_t}` that rotates
/// through `B`.
///
/// Every snapshot is connected with diameter 3, and flooding from inside `A`
/// completes in 3 rounds — this is the *contrast* construction showing that
/// constant diameter plus good expansion (inside the cliques) does give fast
/// flooding; only the rotating star's bad expansion makes flooding slow.
#[derive(Clone, Debug)]
pub struct RotatingBridge {
    n: usize,
    time: u64,
    snapshot: SnapshotBuf,
}

impl RotatingBridge {
    /// Creates the rotating-bridge graph on `n ≥ 4` nodes (`n` even: nodes
    /// `0..n/2` form clique `A`, nodes `n/2..n` clique `B`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 4 && n.is_multiple_of(2), "need an even n ≥ 4");
        RotatingBridge {
            n,
            time: 0,
            snapshot: SnapshotBuf::with_nodes(n),
        }
    }

    /// Diameter of every snapshot (3: leaf of A → bridge endpoints → leaf of B).
    pub fn snapshot_diameter(&self) -> u32 {
        3
    }
}

impl EvolvingGraph for RotatingBridge {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let half = self.n / 2;
        self.snapshot.begin(self.n);
        for u in 0..half {
            for v in (u + 1)..half {
                self.snapshot.push_edge(u as Node, v as Node);
            }
        }
        for u in half..self.n {
            for v in (u + 1)..self.n {
                self.snapshot.push_edge(u as Node, v as Node);
            }
        }
        let a = (self.time % half as u64) as u32;
        let b = (half as u64 + self.time % half as u64) as u32;
        self.snapshot.push_edge(a, b);
        self.snapshot.build();
        self.time += 1;
        &self.snapshot
    }

    fn time(&self) -> u64 {
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flooding::flood;
    use meg_graph::diameter;

    #[test]
    fn rotating_star_snapshots_have_constant_diameter() {
        let mut rs = RotatingStar::new(12, 0);
        for _ in 0..5 {
            let g = rs.advance().clone();
            assert_eq!(diameter::exact(&g).finite(), Some(2));
            assert_eq!(g.num_edges(), 11);
        }
        assert_eq!(rs.snapshot_diameter(), 2);
    }

    #[test]
    fn rotating_star_flooding_from_worst_source_takes_n_rounds() {
        for n in [8usize, 16, 33] {
            let mut rs = RotatingStar::new(n, 0);
            let source = rs.worst_source();
            let predicted = rs.predicted_worst_completion_time();
            let r = flood(&mut rs, source, 4 * n as u64);
            assert!(r.completed, "n={n}");
            assert_eq!(r.completion_time(), Some(predicted), "n={n}");
        }
    }

    #[test]
    fn rotating_star_flooding_from_lucky_source_is_instant() {
        // Sourcing at the very first centre informs everyone in one round.
        let mut rs = RotatingStar::new(20, 0);
        let r = flood(&mut rs, 0, 100);
        assert_eq!(r.completion_time(), Some(1));
    }

    #[test]
    fn rotating_star_informs_one_node_per_round_before_wraparound() {
        let n = 10usize;
        let mut rs = RotatingStar::new(n, 0);
        let source = rs.worst_source();
        let r = flood(&mut rs, source, 3 * n as u64);
        // counts: 1, 2, 3, ..., n-? — strictly one new node per round until the
        // final round informs the rest at once.
        for w in r.informed_per_round.windows(2).take(n - 2) {
            assert_eq!(w[1] - w[0], 1);
        }
        assert_eq!(*r.informed_per_round.last().unwrap(), n);
    }

    #[test]
    fn rotating_bridge_floods_fast_despite_same_diameter() {
        let mut rb = RotatingBridge::new(40);
        assert_eq!(rb.snapshot_diameter(), 3);
        let g = rb.advance().clone();
        assert_eq!(diameter::exact(&g).finite(), Some(3));
        let mut rb2 = RotatingBridge::new(40);
        let r = flood(&mut rb2, 1, 100);
        assert!(r.completion_time().unwrap() <= 4);
    }

    #[test]
    #[should_panic]
    fn rotating_star_needs_two_nodes() {
        RotatingStar::new(1, 0);
    }

    #[test]
    #[should_panic]
    fn rotating_bridge_needs_even_n() {
        RotatingBridge::new(7);
    }
}

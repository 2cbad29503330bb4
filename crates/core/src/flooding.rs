//! The flooding process (Section 2 of the paper).
//!
//! Flooding is the simplest information-dissemination mechanism: once a node
//! holds the source message it forwards it to *all* of its current neighbors
//! at every subsequent time step. On an evolving graph `{G_t}` the informed
//! set therefore evolves as
//!
//! ```text
//! I_0     = {source}
//! I_{t+1} = I_t ∪ N_{G_t}(I_t)
//! ```
//!
//! and the *flooding time* `T(s)` is the first step at which `I_t = [n]`
//! (maximised over sources `s` when the worst case is wanted).
//!
//! The engine below is model-agnostic: it drives any
//! [`EvolvingGraph`]. Because the topology
//! changes every step, the frontier optimisation familiar from static BFS is
//! unsound — a node informed long ago can acquire a brand-new uninformed
//! neighbor at any later step — so each round scans whichever of the informed
//! or uninformed side is smaller.

use crate::evolving::{EvolvingGraph, FrozenGraph};
use meg_graph::{Node, NodeSet, SnapshotBuf};

/// Why a flooding run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloodingOutcome {
    /// All nodes were informed.
    Completed,
    /// The round budget was exhausted before completion.
    RoundLimit,
    /// A round informed no new node **and** the evolving graph is known to be
    /// static, so the process can never complete (unreachable component).
    Stalled,
}

/// Full record of one flooding run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FloodingResult {
    /// Outcome of the run.
    pub outcome: FloodingOutcome,
    /// Number of rounds executed. When `outcome == Completed` this is exactly
    /// the flooding time `T(source)`.
    pub rounds: u64,
    /// `informed_per_round[t]` is `|I_t|`; index 0 holds the initial value 1.
    pub informed_per_round: Vec<usize>,
    /// The final informed set.
    pub informed: NodeSet,
}

impl FloodingResult {
    /// Flooding time if the run completed.
    pub fn flooding_time(&self) -> Option<u64> {
        match self.outcome {
            FloodingOutcome::Completed => Some(self.rounds),
            _ => None,
        }
    }

    /// Fraction of nodes informed at the end of the run.
    pub fn coverage(&self) -> f64 {
        self.informed.len() as f64 / self.informed.universe() as f64
    }
}

/// Mutable flooding state, advanced one snapshot at a time.
///
/// Exposed so callers can interleave flooding with their own per-round
/// measurements (expansion of the informed set, snapshot statistics, …).
/// The `newly` scratch vector is part of the state and reused across rounds,
/// so a round allocates nothing once its capacity has warmed up.
#[derive(Clone, Debug)]
pub struct FloodingState {
    informed: NodeSet,
    /// Scratch: nodes informed during the current round (reused each round).
    newly: Vec<Node>,
}

impl FloodingState {
    /// Starts a flooding process from a single source.
    pub fn new(num_nodes: usize, source: Node) -> Self {
        FloodingState {
            informed: NodeSet::singleton(num_nodes, source),
            newly: Vec::new(),
        }
    }

    /// Starts a flooding process from several sources at once.
    pub fn with_sources(num_nodes: usize, sources: &[Node]) -> Self {
        assert!(!sources.is_empty(), "at least one source required");
        FloodingState {
            informed: NodeSet::from_iter(num_nodes, sources.iter().copied()),
            newly: Vec::new(),
        }
    }

    /// The informed set `I_t`.
    pub fn informed(&self) -> &NodeSet {
        &self.informed
    }

    /// Number of informed nodes.
    pub fn informed_count(&self) -> usize {
        self.informed.len()
    }

    /// Returns `true` when every node is informed.
    pub fn is_complete(&self) -> bool {
        self.informed.is_full()
    }

    /// Applies one flooding round using snapshot `g`; returns the number of
    /// newly informed nodes.
    pub fn step(&mut self, g: &SnapshotBuf) -> usize {
        let n = self.informed.universe();
        debug_assert_eq!(g.num_nodes(), n, "snapshot node count changed");
        let informed_count = self.informed.len();
        let informed = &self.informed;
        let newly = &mut self.newly;
        newly.clear();
        if informed_count * 2 <= n {
            // Scan informed nodes and collect their uninformed neighbors.
            for u in informed.iter() {
                for &v in g.neighbors(u) {
                    if !informed.contains(v) {
                        newly.push(v);
                    }
                }
            }
        } else {
            // Scan uninformed nodes (ascending, exactly the old
            // `complement().iter()` order without materialising the
            // complement) and test whether any neighbor is informed.
            for v in 0..n as Node {
                if informed.contains(v) {
                    continue;
                }
                if g.neighbors(v).iter().any(|&w| informed.contains(w)) {
                    newly.push(v);
                }
            }
        }
        let mut added = 0usize;
        for i in 0..self.newly.len() {
            if self.informed.insert(self.newly[i]) {
                added += 1;
            }
        }
        added
    }
}

/// Runs flooding from `source` on `meg` for at most `max_rounds` rounds.
pub fn flood<M: EvolvingGraph>(meg: &mut M, source: Node, max_rounds: u64) -> FloodingResult {
    let n = meg.num_nodes();
    assert!(
        (source as usize) < n,
        "source {source} out of range for n={n}"
    );
    let mut state = FloodingState::new(n, source);
    // Pre-size the per-round trace from the round budget, capped so a
    // generous budget (the engine uses 2·10⁶) cannot force a huge up-front
    // reservation: completed floods rarely exceed ~2n rounds, and a run that
    // does simply grows the vector as before.
    let expected_rounds = (max_rounds as usize).min(2 * n + 64);
    let mut informed_per_round = Vec::with_capacity(expected_rounds + 1);
    informed_per_round.push(state.informed_count());
    let mut rounds = 0u64;
    let mut outcome = if state.is_complete() {
        FloodingOutcome::Completed
    } else {
        FloodingOutcome::RoundLimit
    };
    while rounds < max_rounds && !state.is_complete() {
        let snapshot = meg.advance();
        state.step(snapshot);
        rounds += 1;
        informed_per_round.push(state.informed_count());
        if state.is_complete() {
            outcome = FloodingOutcome::Completed;
            break;
        }
    }
    FloodingResult {
        outcome,
        rounds,
        informed_per_round,
        informed: state.informed,
    }
}

/// Flooding on a static graph (BFS semantics). The flooding time equals the
/// eccentricity of the source when the graph is connected.
pub fn flood_static(graph: &SnapshotBuf, source: Node) -> FloodingResult {
    let n = graph.num_nodes();
    let mut frozen = FrozenGraph::new(graph.clone());
    // On a static graph, flooding either completes within n-1 rounds or stalls.
    let mut result = flood(&mut frozen, source, n.saturating_sub(1).max(1) as u64);
    if result.outcome != FloodingOutcome::Completed {
        // Distinguish "needs more rounds" (impossible on a static graph) from
        // a genuine stall caused by disconnection.
        result.outcome = FloodingOutcome::Stalled;
    }
    result
}

/// Worst-case flooding time over all sources on a static graph
/// (`max_s T(s)`), or `None` if the graph is disconnected. Equals the graph's
/// diameter.
pub fn flooding_time_all_sources_static(graph: &SnapshotBuf) -> Option<u64> {
    let n = graph.num_nodes();
    if n == 0 {
        return Some(0);
    }
    let mut worst = 0u64;
    for s in 0..n as Node {
        match flood_static(graph, s).flooding_time() {
            Some(t) => worst = worst.max(t),
            None => return None,
        }
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::ScheduledGraph;
    use meg_graph::generators;

    #[test]
    fn static_flooding_equals_eccentricity() {
        let g = generators::path(6);
        let r = flood_static(&g, 0);
        assert_eq!(r.outcome, FloodingOutcome::Completed);
        assert_eq!(r.flooding_time(), Some(5));
        assert_eq!(r.informed_per_round, vec![1, 2, 3, 4, 5, 6]);
        let r_mid = flood_static(&g, 3);
        assert_eq!(r_mid.flooding_time(), Some(3));
        assert_eq!(r_mid.coverage(), 1.0);
    }

    #[test]
    fn static_flooding_worst_case_is_diameter() {
        for g in [
            generators::path(9),
            generators::cycle(9),
            generators::grid2d(4, 5),
        ] {
            let diam = meg_graph::diameter::exact(&g).finite().unwrap() as u64;
            assert_eq!(flooding_time_all_sources_static(&g), Some(diam));
        }
    }

    #[test]
    fn disconnected_static_graph_stalls() {
        let g = SnapshotBuf::from_edges(5, [(0, 1), (2, 3)]);
        let r = flood_static(&g, 0);
        assert_eq!(r.outcome, FloodingOutcome::Stalled);
        assert_eq!(r.flooding_time(), None);
        assert_eq!(r.informed.len(), 2);
        assert!(r.coverage() < 1.0);
        assert_eq!(flooding_time_all_sources_static(&g), None);
    }

    #[test]
    fn single_node_graph_completes_instantly() {
        let g = SnapshotBuf::with_nodes(1);
        let r = flood_static(&g, 0);
        assert_eq!(r.outcome, FloodingOutcome::Completed);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.flooding_time(), Some(0));
    }

    #[test]
    fn complete_graph_floods_in_one_round() {
        let g = generators::complete(20);
        let r = flood_static(&g, 7);
        assert_eq!(r.flooding_time(), Some(1));
        assert_eq!(r.informed_per_round, vec![1, 20]);
    }

    #[test]
    fn dynamic_edges_can_beat_any_static_snapshot() {
        // Node 2 is never reachable in snapshot A, node 1 never in snapshot B,
        // yet alternating between them floods everything.
        let a = SnapshotBuf::from_edges(3, [(0, 1)]);
        let b = SnapshotBuf::from_edges(3, [(0, 2)]);
        let mut meg = ScheduledGraph::new(vec![a, b]);
        let r = flood(&mut meg, 0, 10);
        assert_eq!(r.outcome, FloodingOutcome::Completed);
        assert_eq!(r.flooding_time(), Some(2));
    }

    #[test]
    fn round_limit_is_respected() {
        let g = SnapshotBuf::from_edges(4, [(0, 1), (2, 3)]);
        let mut meg = FrozenGraph::new(g);
        let r = flood(&mut meg, 0, 3);
        assert_eq!(r.outcome, FloodingOutcome::RoundLimit);
        assert_eq!(r.rounds, 3);
        assert_eq!(r.informed.len(), 2);
    }

    #[test]
    fn informed_set_grows_monotonically() {
        let g = generators::grid2d(5, 5);
        let r = flood_static(&g, 12);
        for w in r.informed_per_round.windows(2) {
            assert!(w[0] <= w[1], "informed counts must be non-decreasing");
        }
        assert_eq!(*r.informed_per_round.last().unwrap(), 25);
    }

    #[test]
    fn multi_source_state_floods_faster() {
        let g = generators::path(10);
        let mut single = FloodingState::new(10, 0);
        let mut double = FloodingState::with_sources(10, &[0, 9]);
        let mut rounds_single = 0;
        while !single.is_complete() {
            single.step(&g);
            rounds_single += 1;
        }
        let mut rounds_double = 0;
        while !double.is_complete() {
            double.step(&g);
            rounds_double += 1;
        }
        assert_eq!(rounds_single, 9);
        assert_eq!(rounds_double, 4);
    }

    #[test]
    fn late_edges_reach_old_informed_nodes() {
        // Node 3's only-ever edge appears at step 3, attached to the source
        // itself (informed since round 0). A frontier-only implementation
        // would miss it.
        let empty = SnapshotBuf::with_nodes(4);
        let g0 = SnapshotBuf::from_edges(4, [(0, 1)]);
        let g1 = SnapshotBuf::from_edges(4, [(1, 2)]);
        let g3 = SnapshotBuf::from_edges(4, [(0, 3)]);
        let mut meg = ScheduledGraph::new(vec![g0, g1, empty, g3]);
        let r = flood(&mut meg, 0, 10);
        assert_eq!(r.flooding_time(), Some(4));
        assert_eq!(r.informed_per_round, vec![1, 2, 3, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_source_panics() {
        let mut meg = FrozenGraph::new(generators::path(3));
        flood(&mut meg, 5, 10);
    }
}

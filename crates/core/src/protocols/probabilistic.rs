//! Probabilistic flooding: each informed node forwards at each round only
//! with probability β (reference \[29\] of the paper). β = 1 recovers plain
//! flooding, which is how the engine runs its baseline.

use super::state_machine::{run_machine, NodeState, ProtocolMachine};
use super::ProtocolResult;
use crate::evolving::EvolvingGraph;
use meg_graph::{Node, NodeSet, SnapshotBuf};
use rand::Rng;

/// Per-node state of (probabilistic) flooding: informed or not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloodState {
    /// The node has not received the message yet.
    Uninformed,
    /// The node holds the message and forwards it (with probability β).
    Informed,
}

impl NodeState for FloodState {
    const ALL: &'static [Self] = &[FloodState::Uninformed, FloodState::Informed];

    fn label(self) -> &'static str {
        match self {
            FloodState::Uninformed => "uninformed",
            FloodState::Informed => "informed",
        }
    }

    fn is_covered(self) -> bool {
        matches!(self, FloodState::Informed)
    }
}

/// The (probabilistic) flooding machine — the workspace's one flooding
/// kernel: [`flood`](crate::flooding::flood), every engine row and every
/// benchmark run through its [`step`](ProtocolMachine::step).
///
/// Each round every informed node broadcasts to its whole current
/// neighborhood with probability β (always, when β = 1 — in which case the
/// machine draws **no** randomness, byte-compatible with the historical
/// plain-flooding path). Completion: every node informed.
///
/// Because the topology changes every step, the frontier optimisation
/// familiar from static BFS is unsound — a node informed long ago can
/// acquire a brand-new uninformed neighbor at any later step — so each round
/// scans a whole side of the cut. Below half coverage (and always when
/// β < 1, so the per-node draw order never changes) it walks the informed
/// nodes and collects their uninformed neighbors; at β = 1 with `2·|I| > n`
/// it walks the smaller uninformed side in ascending order and tests whether
/// any neighbor is informed. Both scans yield the same `I_{t+1}`.
///
/// Message invariant: every round adds the degree sum of the informed nodes
/// that forwarded, so at β = 1 [`messages_sent`](ProtocolMachine::messages_sent)
/// is `Σ_t Σ_{u∈I_t} deg_{G_t}(u)` whichever side was scanned (the
/// uninformed scan gets it as `2·m − Σ_{v∉I_t} deg(v)`).
pub struct FloodMachine {
    beta: f64,
    informed: NodeSet,
    newly: Vec<Node>,
    messages: u64,
}

impl FloodMachine {
    /// Creates the machine with `source` informed.
    ///
    /// Panics if β ∉ \[0, 1\] or `source` is out of range.
    pub fn new(n: usize, source: Node, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta={beta} outside [0, 1]");
        assert!((source as usize) < n, "source out of range");
        FloodMachine {
            beta,
            informed: NodeSet::singleton(n, source),
            newly: Vec::new(),
            messages: 0,
        }
    }
}

impl ProtocolMachine for FloodMachine {
    type State = FloodState;

    fn num_nodes(&self) -> usize {
        self.informed.universe()
    }

    fn state_of(&self, v: Node) -> FloodState {
        if self.informed.contains(v) {
            FloodState::Informed
        } else {
            FloodState::Uninformed
        }
    }

    fn step<R: Rng>(&mut self, g: &SnapshotBuf, rng: &mut R) {
        let beta = self.beta;
        let Self {
            informed,
            newly,
            messages,
            ..
        } = self;
        let n = informed.universe();
        debug_assert_eq!(g.num_nodes(), n, "snapshot node count changed");
        newly.clear();
        if beta >= 1.0 && 2 * informed.len() > n {
            // Scan the smaller, uninformed side (see the type docs).
            let mut uninformed_arcs = 0usize;
            for v in 0..n as Node {
                if informed.contains(v) {
                    continue;
                }
                let nbrs = g.neighbors(v);
                uninformed_arcs += nbrs.len();
                if nbrs.iter().any(|&w| informed.contains(w)) {
                    newly.push(v);
                }
            }
            *messages += (2 * g.num_edges() - uninformed_arcs) as u64;
        } else {
            for u in informed.iter() {
                // β = 1 must not consume randomness (plain flooding is
                // RNG-free); `gen_bool` is only reached when β < 1.
                if beta < 1.0 && !rng.gen_bool(beta) {
                    continue;
                }
                let nbrs = g.neighbors(u);
                *messages += nbrs.len() as u64;
                for &v in nbrs {
                    if !informed.contains(v) {
                        newly.push(v);
                    }
                }
            }
        }
        for &v in newly.iter() {
            informed.insert(v);
        }
    }

    fn is_complete(&self) -> bool {
        self.informed.is_full()
    }

    fn coverage(&self) -> usize {
        self.informed.len()
    }

    fn messages_sent(&self) -> u64 {
        self.messages
    }
}

/// Runs probabilistic flooding from `source` with forwarding probability
/// `beta` for at most `max_rounds` rounds.
///
/// `beta = 1.0` is plain flooding and consumes no randomness.
pub fn probabilistic_flood<M, R>(
    meg: &mut M,
    source: Node,
    beta: f64,
    max_rounds: u64,
    rng: &mut R,
) -> ProtocolResult
where
    M: EvolvingGraph,
    R: Rng,
{
    let mut machine = FloodMachine::new(meg.num_nodes(), source, beta);
    run_machine(meg, &mut machine, max_rounds, rng).into_protocol_result()
}

#[cfg(test)]
pub(crate) mod legacy {
    //! The pre-refactor flooding loop, verbatim — kept as the reference
    //! implementation for the differential tests that prove the
    //! state-machine port is byte-identical (same RNG draw order, same
    //! message counts, same informed-per-round trace).

    use super::*;

    /// The historical `probabilistic_flood` body, before the state-machine
    /// refactor.
    pub fn probabilistic_flood_reference<M, R>(
        meg: &mut M,
        source: Node,
        beta: f64,
        max_rounds: u64,
        rng: &mut R,
    ) -> ProtocolResult
    where
        M: EvolvingGraph,
        R: Rng,
    {
        assert!((0.0..=1.0).contains(&beta), "beta={beta} outside [0, 1]");
        let n = meg.num_nodes();
        assert!((source as usize) < n, "source out of range");
        let mut informed = NodeSet::singleton(n, source);
        let mut informed_per_round = vec![informed.len()];
        let mut messages = 0u64;
        let mut rounds = 0u64;
        let mut completed = informed.is_full();
        let mut newly: Vec<Node> = Vec::new();
        while rounds < max_rounds && !completed {
            let snapshot = meg.advance();
            newly.clear();
            for u in informed.iter() {
                if beta < 1.0 && !rng.gen_bool(beta) {
                    continue;
                }
                for &v in snapshot.neighbors(u) {
                    messages += 1;
                    if !informed.contains(v) {
                        newly.push(v);
                    }
                }
            }
            for &v in &newly {
                informed.insert(v);
            }
            rounds += 1;
            informed_per_round.push(informed.len());
            completed = informed.is_full();
        }
        ProtocolResult {
            completed,
            rounds,
            informed_per_round,
            messages_sent: messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::{FrozenGraph, ScheduledGraph};
    use meg_graph::{bfs, generators};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn beta_one_matches_plain_flooding() {
        // Independent oracle: on a static graph, β = 1 flooding is BFS. The
        // trace is the prefix sums of the level sizes, and round t+1 sends
        // one message per arc of every node within distance t.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for g in [
            generators::path(10),
            generators::cycle(9),
            generators::grid2d(4, 5),
            generators::complete(8),
        ] {
            let trace: Vec<usize> = bfs::level_sizes(&g, 0)
                .iter()
                .scan(0, |acc, &k| {
                    *acc += k;
                    Some(*acc)
                })
                .collect();
            let dist = bfs::distances(&g, 0);
            let messages: u64 = (0..trace.len() as u32 - 1)
                .map(|t| {
                    (0..g.num_nodes() as Node)
                        .filter(|&u| dist[u as usize] <= t)
                        .map(|u| g.degree(u) as u64)
                        .sum::<u64>()
                })
                .sum();
            let mut meg = FrozenGraph::new(g);
            let prob = probabilistic_flood(&mut meg, 0, 1.0, 500, &mut rng);
            assert!(prob.completed);
            assert_eq!(prob.rounds as usize, trace.len() - 1);
            assert_eq!(prob.informed_per_round, trace);
            assert_eq!(prob.messages_sent, messages);
        }
    }

    #[test]
    fn machine_is_byte_identical_to_the_legacy_loop() {
        // Differential check at the core level: the machine and the
        // pre-refactor reference produce the same trace from the same RNG
        // stream, including the β < 1 draw-order-sensitive path.
        let small = vec![
            SnapshotBuf::from_edges(5, [(0, 1), (1, 2), (3, 4)]),
            SnapshotBuf::from_edges(5, [(2, 3), (0, 4)]),
        ];
        // Ten nodes: the path 0..7 carries |I| past n/2 (into the
        // uninformed-side scan at β = 1), then the only edge ever to reach
        // {8, 9} appears late and touches the source, informed since round 0.
        let path = SnapshotBuf::from_edges(
            10,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (8, 9),
            ],
        );
        let mut large = vec![path; 6];
        large.push(SnapshotBuf::with_nodes(10));
        large.push(SnapshotBuf::from_edges(10, [(0, 8)]));
        for schedule in [small, large] {
            for beta in [1.0, 0.7, 0.3] {
                for seed in 0..8u64 {
                    let mut meg_new = ScheduledGraph::new(schedule.clone());
                    let mut meg_old = ScheduledGraph::new(schedule.clone());
                    let mut rng_new = ChaCha8Rng::seed_from_u64(seed);
                    let mut rng_old = ChaCha8Rng::seed_from_u64(seed);
                    let new = probabilistic_flood(&mut meg_new, 0, beta, 40, &mut rng_new);
                    let old = legacy::probabilistic_flood_reference(
                        &mut meg_old,
                        0,
                        beta,
                        40,
                        &mut rng_old,
                    );
                    assert_eq!(new, old, "beta={beta} seed={seed}");
                    assert_eq!(
                        rng_new.gen::<u64>(),
                        rng_old.gen::<u64>(),
                        "RNG cursor drifted"
                    );
                }
            }
        }
    }

    #[test]
    fn beta_zero_never_spreads() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut meg = FrozenGraph::new(generators::complete(6));
        let r = probabilistic_flood(&mut meg, 0, 0.0, 50, &mut rng);
        assert!(!r.completed);
        assert_eq!(r.informed_count(), 1);
        assert_eq!(r.messages_sent, 0);
    }

    #[test]
    fn lower_beta_is_slower_but_still_completes_on_cliques() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 32usize;
        let mut fast_meg = FrozenGraph::new(generators::complete(n));
        let fast = probabilistic_flood(&mut fast_meg, 0, 1.0, 1000, &mut rng);
        let mut slow_meg = FrozenGraph::new(generators::complete(n));
        let slow = probabilistic_flood(&mut slow_meg, 0, 0.2, 1000, &mut rng);
        assert!(fast.completed && slow.completed);
        assert!(slow.rounds >= fast.rounds);
    }

    #[test]
    fn message_count_scales_with_beta() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 24usize;
        let mut meg_full = FrozenGraph::new(generators::complete(n));
        let full = probabilistic_flood(&mut meg_full, 0, 1.0, 100, &mut rng);
        let mut meg_half = FrozenGraph::new(generators::complete(n));
        let half = probabilistic_flood(&mut meg_half, 0, 0.5, 100, &mut rng);
        // Fewer transmissions per round on average (completion may take
        // longer, but per-round cost is halved in expectation).
        let full_rate = full.messages_sent as f64 / full.rounds as f64;
        let half_rate = half.messages_sent as f64 / half.rounds as f64;
        assert!(half_rate < full_rate);
    }

    #[test]
    fn completion_time_accessor() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut meg = FrozenGraph::new(generators::path(4));
        let r = probabilistic_flood(&mut meg, 0, 1.0, 100, &mut rng);
        assert_eq!(r.completion_time(), Some(r.rounds));
        let mut meg = FrozenGraph::new(SnapshotBuf::with_nodes(3));
        let r = probabilistic_flood(&mut meg, 0, 1.0, 5, &mut rng);
        assert_eq!(r.completion_time(), None);
    }
}

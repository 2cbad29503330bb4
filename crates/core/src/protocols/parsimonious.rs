//! Parsimonious flooding: a node forwards the message only during the first
//! `active_rounds` rounds after it becomes informed, then falls silent
//! (Baumann, Crescenzi, Fraigniaud — reference \[4\] of the paper).
//!
//! On a *static* graph silent nodes are harmless (their neighbors are already
//! informed by the time they fall silent), so parsimonious flooding completes
//! exactly like plain flooding. On a *dynamic* graph a silent node can later
//! meet an uninformed one and fail to inform it — the protocol may stall —
//! which is precisely the phenomenon \[4\] studies and our dynamic tests
//! exhibit. The machine reports such stalls through
//! [`ProtocolMachine::can_progress`], so the driver stops early instead of
//! burning the round budget.

use super::state_machine::{run_machine, NodeState, ProtocolMachine};
use super::ProtocolResult;
use crate::evolving::EvolvingGraph;
use meg_graph::{Node, NodeSet, SnapshotBuf};
use rand::Rng;

/// Per-node state of parsimonious flooding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParsimoniousState {
    /// The node has not received the message yet.
    Uninformed,
    /// The node holds the message and still forwards it.
    Active,
    /// The node holds the message but its activity window has expired.
    Silent,
}

impl NodeState for ParsimoniousState {
    const ALL: &'static [Self] = &[
        ParsimoniousState::Uninformed,
        ParsimoniousState::Active,
        ParsimoniousState::Silent,
    ];

    fn label(self) -> &'static str {
        match self {
            ParsimoniousState::Uninformed => "uninformed",
            ParsimoniousState::Active => "active",
            ParsimoniousState::Silent => "silent",
        }
    }

    fn is_covered(self) -> bool {
        !matches!(self, ParsimoniousState::Uninformed)
    }
}

/// The parsimonious flooding machine.
///
/// Draws **no** randomness: the process is deterministic given the snapshot
/// sequence. Completion: every node informed; permanent stall: every
/// informed node silent.
pub struct ParsimoniousMachine {
    active_rounds: u64,
    informed: NodeSet,
    // remaining_active[v] is meaningful only for informed nodes.
    remaining_active: Vec<u64>,
    newly: Vec<Node>,
    messages: u64,
    // Did the last step see at least one active node? Initially true so a
    // fresh machine never reports a stall before its first round.
    any_active: bool,
}

impl ParsimoniousMachine {
    /// Creates the machine with `source` informed and active.
    ///
    /// Panics if `active_rounds` is zero or `source` is out of range.
    pub fn new(n: usize, source: Node, active_rounds: u64) -> Self {
        assert!(
            active_rounds > 0,
            "a node must be active for at least one round"
        );
        assert!((source as usize) < n, "source out of range");
        let mut remaining_active = vec![0; n];
        remaining_active[source as usize] = active_rounds;
        ParsimoniousMachine {
            active_rounds,
            informed: NodeSet::singleton(n, source),
            remaining_active,
            newly: Vec::new(),
            messages: 0,
            any_active: true,
        }
    }
}

impl ProtocolMachine for ParsimoniousMachine {
    type State = ParsimoniousState;

    fn num_nodes(&self) -> usize {
        self.informed.universe()
    }

    fn state_of(&self, v: Node) -> ParsimoniousState {
        if !self.informed.contains(v) {
            ParsimoniousState::Uninformed
        } else if self.remaining_active[v as usize] > 0 {
            ParsimoniousState::Active
        } else {
            ParsimoniousState::Silent
        }
    }

    fn step<R: Rng>(&mut self, g: &SnapshotBuf, _rng: &mut R) {
        let active_rounds = self.active_rounds;
        let Self {
            informed,
            remaining_active,
            newly,
            messages,
            ..
        } = self;
        newly.clear();
        let mut any_active = false;
        for u in informed.iter() {
            if remaining_active[u as usize] == 0 {
                continue;
            }
            any_active = true;
            remaining_active[u as usize] -= 1;
            for &v in g.neighbors(u) {
                *messages += 1;
                if !informed.contains(v) {
                    newly.push(v);
                }
            }
        }
        for &v in newly.iter() {
            if informed.insert(v) {
                remaining_active[v as usize] = active_rounds;
            }
        }
        self.any_active = any_active;
    }

    fn is_complete(&self) -> bool {
        self.informed.is_full()
    }

    fn can_progress(&self) -> bool {
        // Every informed node silent ⇒ the protocol can never make progress
        // again, regardless of future topology.
        self.any_active
    }

    fn coverage(&self) -> usize {
        self.informed.len()
    }

    fn messages_sent(&self) -> u64 {
        self.messages
    }
}

/// Runs parsimonious flooding from `source`.
///
/// `active_rounds` is the number of rounds a newly informed node keeps
/// forwarding (`u64::MAX` recovers plain flooding). The process draws no
/// randomness, so no RNG parameter is needed.
pub fn parsimonious_flood<M>(
    meg: &mut M,
    source: Node,
    active_rounds: u64,
    max_rounds: u64,
) -> ProtocolResult
where
    M: EvolvingGraph,
{
    let mut machine = ParsimoniousMachine::new(meg.num_nodes(), source, active_rounds);
    // The machine is RNG-free; feed the driver an inert mock.
    let mut rng = rand::rngs::mock::StepRng::new(0, 0);
    run_machine(meg, &mut machine, max_rounds, &mut rng).into_protocol_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::{FrozenGraph, ScheduledGraph};
    use crate::flooding::flood_static;
    use meg_graph::generators;

    #[test]
    fn on_static_graphs_it_matches_plain_flooding() {
        for g in [
            generators::path(8),
            generators::grid2d(4, 4),
            generators::complete(9),
        ] {
            let plain = flood_static(&g, 0);
            let mut meg = FrozenGraph::new(g);
            let pars = parsimonious_flood(&mut meg, 0, 1, 200);
            assert!(pars.completed);
            assert_eq!(Some(pars.rounds), plain.completion_time());
            assert_eq!(pars.informed_per_round, plain.informed_per_round);
        }
    }

    #[test]
    fn unlimited_activity_is_plain_flooding_on_dynamic_graphs() {
        let a = SnapshotBuf::from_edges(3, [(0, 1)]);
        let empty = SnapshotBuf::with_nodes(3);
        let b = SnapshotBuf::from_edges(3, [(0, 2)]);
        let mut meg = ScheduledGraph::new(vec![a.clone(), empty.clone(), b.clone()]);
        let r = parsimonious_flood(&mut meg, 0, u64::MAX, 100);
        assert!(r.completed);
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn short_activity_can_stall_on_dynamic_graphs() {
        // Node 2's only edge (to the source) appears after the source has
        // already fallen silent.
        let a = SnapshotBuf::from_edges(3, [(0, 1)]);
        let empty = SnapshotBuf::with_nodes(3);
        let late = SnapshotBuf::from_edges(3, [(0, 2)]);
        let mut meg = ScheduledGraph::new(vec![a, empty, late]);
        let r = parsimonious_flood(&mut meg, 0, 1, 100);
        assert!(!r.completed);
        assert_eq!(r.informed_count(), 2);
        // The run stops early once every informed node is silent.
        assert!(r.rounds < 100);
    }

    #[test]
    fn longer_activity_windows_save_the_same_schedule() {
        let a = SnapshotBuf::from_edges(3, [(0, 1)]);
        let empty = SnapshotBuf::with_nodes(3);
        let late = SnapshotBuf::from_edges(3, [(0, 2)]);
        let mut meg = ScheduledGraph::new(vec![a, empty, late]);
        let r = parsimonious_flood(&mut meg, 0, 3, 100);
        assert!(r.completed);
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn message_overhead_is_lower_than_plain_flooding() {
        // On a cycle, plain flooding keeps every informed node shouting every
        // round; parsimonious flooding with one active round only ever has the
        // two frontier nodes talking, yet completes in the same number of
        // rounds.
        let n = 20usize;
        let mut plain_meg = FrozenGraph::new(generators::cycle(n));
        let plain = super::super::probabilistic::probabilistic_flood(
            &mut plain_meg,
            0,
            1.0,
            100,
            &mut rand::rngs::mock::StepRng::new(0, 1),
        );
        let mut pars_meg = FrozenGraph::new(generators::cycle(n));
        let pars = parsimonious_flood(&mut pars_meg, 0, 1, 100);
        assert!(plain.completed && pars.completed);
        assert_eq!(plain.rounds, pars.rounds);
        assert!(pars.messages_sent < plain.messages_sent / 2);
    }

    #[test]
    #[should_panic]
    fn zero_active_rounds_rejected() {
        let mut meg = FrozenGraph::new(generators::path(3));
        parsimonious_flood(&mut meg, 0, 0, 10);
    }
}

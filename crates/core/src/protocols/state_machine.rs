//! The per-node protocol state machine — the shared chassis every spreading
//! process in this crate runs on.
//!
//! The paper's flooding process is one point in a family: probabilistic and
//! parsimonious flooding, push–pull gossip, SIS/SIR epidemics, push-only
//! rumor spreading, Byzantine tampering. All of them share one shape —
//! every node carries a small state, each round the current snapshot's
//! neighborhoods drive state transitions, and the process stops when a
//! protocol-defined completion predicate holds. This module captures that
//! shape as two traits plus one driver loop:
//!
//! * [`NodeState`] — the per-node state alphabet (informed/susceptible/…)
//!   with a protocol-defined notion of "covered";
//! * [`ProtocolMachine`] — the transition rules: one [`step`] per snapshot,
//!   a completion predicate, and an optional progress predicate for
//!   machines that can prove they are permanently stuck;
//! * [`run_machine`] — the driver: `advance → step → record`, bounded by a
//!   round budget, reporting [`RunOutcome::Censored`] when the budget is
//!   exhausted (processes like endemic SIS legitimately *never* complete —
//!   the cap is a measurement decision, not an error).
//!
//! The four pre-existing protocols are thin machines over this chassis and
//! remain byte-identical to their historical RNG draw order; the epidemic
//! ([`super::epidemics`]), rumor ([`super::rumor`]) and Byzantine
//! ([`super::byzantine`]) families are new machines.
//!
//! [`step`]: ProtocolMachine::step

use super::ProtocolResult;
use crate::evolving::EvolvingGraph;
use meg_graph::{Node, SnapshotBuf};
use rand::Rng;

/// A per-node protocol state.
///
/// Implementors are tiny `Copy` enums ([`super::probabilistic::FloodState`],
/// [`super::epidemics::EpidemicState`], …). The trait exists so generic test
/// harnesses can enumerate the alphabet and tally state counts without
/// knowing the protocol: `ALL` lists every state, [`label`](Self::label)
/// names it, and [`is_covered`](Self::is_covered) says whether a node in
/// this state counts toward the protocol's coverage curve.
pub trait NodeState: Copy + Eq + 'static {
    /// Every state of the alphabet, in a fixed order.
    const ALL: &'static [Self];

    /// Stable snake_case name of this state (for reports and tests).
    fn label(self) -> &'static str;

    /// Does a node in this state count as "reached" by the process?
    ///
    /// For information-spreading protocols this is "informed"; for
    /// epidemics it is "currently or previously infected". The default
    /// [`ProtocolMachine::coverage`] tallies it; machines with a sharper
    /// notion (e.g. epidemics tracking ever-infected across
    /// re-susceptibility) override `coverage` directly.
    fn is_covered(self) -> bool;
}

/// Transition rules for one protocol: per-node states driven by the current
/// snapshot's neighborhoods.
///
/// A machine owns the full per-node state vector plus whatever scratch it
/// needs; [`run_machine`] owns the clock. One [`step`](Self::step) consumes
/// exactly one snapshot and must be deterministic given the snapshot and the
/// RNG — all randomness flows through the `rng` argument so engine rows stay
/// reproducible under sharding and `--resume`.
pub trait ProtocolMachine {
    /// The per-node state alphabet.
    type State: NodeState;

    /// Number of nodes the machine was built for.
    fn num_nodes(&self) -> usize;

    /// Current state of node `v`.
    fn state_of(&self, v: Node) -> Self::State;

    /// Advances every node by one round against snapshot `g`.
    ///
    /// Implementations must evaluate transitions against the *round-start*
    /// state (two-phase update): a node informed or infected during the
    /// round acts only from the next round on.
    fn step<R: Rng>(&mut self, g: &SnapshotBuf, rng: &mut R);

    /// The protocol's completion predicate.
    ///
    /// "All nodes informed" for dissemination, "no infectious nodes left"
    /// for epidemics, "no uninformed nodes left" for Byzantine spreading.
    fn is_complete(&self) -> bool;

    /// Can the process still make progress, regardless of future topology?
    ///
    /// Defaults to `true`; machines that can prove permanent stalls
    /// (parsimonious flooding with every informed node silent) return
    /// `false` so the driver stops early with [`RunOutcome::Stalled`].
    fn can_progress(&self) -> bool {
        true
    }

    /// Number of nodes the process has reached so far.
    ///
    /// Defaults to counting [`NodeState::is_covered`] states; machines keep
    /// a set and override this with an `O(1)` read.
    fn coverage(&self) -> usize {
        (0..self.num_nodes() as Node)
            .filter(|&v| self.state_of(v).is_covered())
            .count()
    }

    /// Total point-to-point transmissions performed so far.
    fn messages_sent(&self) -> u64;

    /// Tally of nodes per state, in [`NodeState::ALL`] order.
    ///
    /// The counts always partition `num_nodes()` — a property the test
    /// suite checks for every machine after every round.
    fn state_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Self::State::ALL
            .iter()
            .map(|s| (s.label(), 0usize))
            .collect();
        for v in 0..self.num_nodes() as Node {
            let s = self.state_of(v);
            let slot = Self::State::ALL
                .iter()
                .position(|&t| t == s)
                .expect("state_of returned a state missing from State::ALL");
            counts[slot].1 += 1;
        }
        counts
    }
}

/// How a machine run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The completion predicate held within the round budget.
    Completed,
    /// The round budget ran out first. For processes with an endemic
    /// regime (SIS above threshold) this is the *expected* outcome: the
    /// run is censored at the cap, not failed.
    Censored,
    /// The machine proved it can never complete (e.g. parsimonious
    /// flooding with every informed node silent) and stopped early.
    Stalled,
}

/// Result of [`run_machine`]: the outcome, the round count, the coverage
/// curve, and the message total.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Rounds executed (equals the completion time when `Completed`).
    pub rounds: u64,
    /// `coverage_per_round[t]` is the machine's coverage after `t` rounds
    /// (index 0 holds the initial coverage).
    pub coverage_per_round: Vec<usize>,
    /// Total point-to-point transmissions performed.
    pub messages_sent: u64,
}

impl MachineResult {
    /// Collapses the outcome into the legacy [`ProtocolResult`] shape
    /// (`completed` ⇔ [`RunOutcome::Completed`]; censored and stalled runs
    /// both report `completed = false`).
    pub fn into_protocol_result(self) -> ProtocolResult {
        ProtocolResult {
            completed: self.outcome == RunOutcome::Completed,
            rounds: self.rounds,
            informed_per_round: self.coverage_per_round,
            messages_sent: self.messages_sent,
        }
    }
}

/// Drives `machine` over `meg` for at most `max_rounds` rounds.
///
/// Each round advances the evolving graph by one snapshot, steps the
/// machine against it, and records the coverage. The loop stops when the
/// completion predicate holds, when the machine reports it can no longer
/// progress, or when the budget is exhausted — in which case the run is
/// *censored*: [`MachineResult::rounds`] equals `max_rounds` and the caller
/// decides how to report the truncation (the engine surfaces it as
/// `completed = false` in its rows).
pub fn run_machine<M, P, R>(
    meg: &mut M,
    machine: &mut P,
    max_rounds: u64,
    rng: &mut R,
) -> MachineResult
where
    M: EvolvingGraph,
    P: ProtocolMachine,
    R: Rng,
{
    // Pre-size the per-round trace from the round budget, capped so a
    // generous budget cannot force a huge up-front reservation: completed
    // floods rarely exceed ~2n rounds, and a longer run simply grows it.
    let n = machine.num_nodes();
    let mut coverage_per_round = Vec::with_capacity((max_rounds as usize).min(2 * n + 64) + 1);
    coverage_per_round.push(machine.coverage());
    let mut rounds = 0u64;
    let mut completed = machine.is_complete();
    let mut stalled = false;
    while rounds < max_rounds && !completed {
        let snapshot = meg.advance();
        machine.step(snapshot, rng);
        rounds += 1;
        coverage_per_round.push(machine.coverage());
        completed = machine.is_complete();
        if !completed && !machine.can_progress() {
            stalled = true;
            break;
        }
    }
    let outcome = if completed {
        RunOutcome::Completed
    } else if stalled {
        RunOutcome::Stalled
    } else {
        RunOutcome::Censored
    };
    MachineResult {
        outcome,
        rounds,
        coverage_per_round,
        messages_sent: machine.messages_sent(),
    }
}

/// Picks one uniformly random neighbor of `u` in `g`, or `None` if `u` is
/// isolated in this snapshot.
///
/// Random-contact machines (push–pull, rumor, Byzantine) draw exactly one
/// `gen_range` over the neighbor count per non-isolated caller, indexing the
/// snapshot's neighbor slice in order.
pub(super) fn random_contact<R: Rng>(g: &SnapshotBuf, u: Node, rng: &mut R) -> Option<Node> {
    let slice = g.neighbors(u);
    if slice.is_empty() {
        return None;
    }
    Some(slice[rng.gen_range(0..slice.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::FrozenGraph;
    use crate::protocols::probabilistic::FloodMachine;
    use meg_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn censored_runs_report_the_budget_and_no_completion() {
        // Flooding on a disconnected graph can never complete; with no
        // stall proof available the driver runs the full budget.
        let g = meg_graph::SnapshotBuf::from_edges(4, [(0, 1)]);
        let mut meg = FrozenGraph::new(g);
        let mut machine = FloodMachine::new(4, 0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let r = run_machine(&mut meg, &mut machine, 7, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Censored);
        assert_eq!(r.rounds, 7);
        assert_eq!(*r.coverage_per_round.last().unwrap(), 2);
    }

    #[test]
    fn completed_runs_stop_at_the_completion_round() {
        let mut meg = FrozenGraph::new(generators::path(6));
        let mut machine = FloodMachine::new(6, 0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let r = run_machine(&mut meg, &mut machine, 100, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.rounds, 5);
        assert_eq!(r.coverage_per_round, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn an_initially_complete_machine_runs_zero_rounds() {
        let mut meg = FrozenGraph::new(generators::complete(1));
        let mut machine = FloodMachine::new(1, 0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r = run_machine(&mut meg, &mut machine, 10, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.coverage_per_round, vec![1]);
    }

    #[test]
    fn state_counts_partition_n() {
        let mut meg = FrozenGraph::new(generators::cycle(9));
        let mut machine = FloodMachine::new(9, 0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..4 {
            let total: usize = machine.state_counts().iter().map(|&(_, c)| c).sum();
            assert_eq!(total, 9);
            let snapshot = meg.advance();
            machine.step(snapshot, &mut rng);
        }
    }
}

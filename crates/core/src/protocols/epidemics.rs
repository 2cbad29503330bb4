//! SIS/SIR/SIRS epidemics on evolving graphs.
//!
//! The compartmental contagion family, run on the same snapshot sequence as
//! flooding: each round every *infectious* node exposes all of its current
//! neighbors, and each exposed *susceptible* node becomes infectious with
//! the contagion probability (at most once per round, whoever exposes it).
//! An infection lasts `infection_rounds` rounds, after which the node
//! recovers into the protocol's immunity regime:
//!
//! * **SIR** (`immunity = None`): recovery is permanent — the node is
//!   removed from the process. The epidemic *always* goes extinct, and the
//!   interesting observable is the final size (how many nodes were ever
//!   infected).
//! * **SIS** (`immunity = Some(0)`): the node is immediately susceptible
//!   again. Above the epidemic threshold the process is *endemic* — it
//!   legitimately never completes, and a run is **censored** at the round
//!   budget rather than failed.
//! * **SIRS** (`immunity = Some(w)`, `w > 0`): the node is immune for `w`
//!   rounds, then susceptible again — the general re-susceptibility window.
//!
//! Completion is "no infectious nodes left" — *not* "everyone reached",
//! which is what distinguishes epidemics from every dissemination protocol
//! in this module and why the state-machine trait lets each protocol define
//! its own predicate.

use super::state_machine::{NodeState, ProtocolMachine};
use meg_graph::{Node, NodeSet, SnapshotBuf};
use rand::Rng;

/// Compartment of a node in an epidemic, as exposed to generic harnesses.
///
/// (Internally the machine also tracks per-node timers; `Recovered` covers
/// both the temporarily immune and the permanently removed.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpidemicState {
    /// The node can be infected.
    Susceptible,
    /// The node is infected and transmitting.
    Infectious,
    /// The node recovered: permanently removed (SIR) or temporarily
    /// immune (SIRS).
    Recovered,
}

impl NodeState for EpidemicState {
    const ALL: &'static [Self] = &[
        EpidemicState::Susceptible,
        EpidemicState::Infectious,
        EpidemicState::Recovered,
    ];

    fn label(self) -> &'static str {
        match self {
            EpidemicState::Susceptible => "susceptible",
            EpidemicState::Infectious => "infectious",
            EpidemicState::Recovered => "recovered",
        }
    }

    fn is_covered(self) -> bool {
        // A node counts once it carries (or carried) the infection. The
        // machine overrides `coverage` with its ever-infected set, which
        // also covers SIS nodes that are susceptible *again*.
        !matches!(self, EpidemicState::Susceptible)
    }
}

/// Per-node compartment with its timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Health {
    Susceptible,
    /// Infected; transmits for `left` more rounds (including this one).
    Infectious {
        left: u64,
    },
    /// Temporarily immune for `left` more rounds (SIRS window).
    Immune {
        left: u64,
    },
    /// Permanently removed (SIR).
    Removed,
}

/// The SIS/SIR/SIRS epidemic machine.
pub struct EpidemicMachine {
    contagion: f64,
    infection_rounds: u64,
    /// `None` = permanent removal (SIR); `Some(w)` = immune for `w` rounds,
    /// then susceptible again (`w = 0` is classic SIS).
    immunity: Option<u64>,
    health: Vec<Health>,
    ever_infected: NodeSet,
    pending: Vec<Node>,
    pending_set: NodeSet,
    infectious_count: usize,
    messages: u64,
    infections: u64,
    recoveries: u64,
}

impl EpidemicMachine {
    /// Creates the machine with `source` infectious (patient zero).
    ///
    /// Panics if `contagion` ∉ \[0, 1\], `infection_rounds` is zero, or
    /// `source` is out of range.
    pub fn new(
        n: usize,
        source: Node,
        contagion: f64,
        infection_rounds: u64,
        immunity: Option<u64>,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&contagion),
            "contagion={contagion} outside [0, 1]"
        );
        assert!(
            infection_rounds > 0,
            "an infection must last at least one round"
        );
        assert!((source as usize) < n, "source out of range");
        let mut health = vec![Health::Susceptible; n];
        health[source as usize] = Health::Infectious {
            left: infection_rounds,
        };
        EpidemicMachine {
            contagion,
            infection_rounds,
            immunity,
            health,
            ever_infected: NodeSet::singleton(n, source),
            pending: Vec::new(),
            pending_set: NodeSet::new(n),
            infectious_count: 1,
            messages: 0,
            // The seed counts as the first infection.
            infections: 1,
            recoveries: 0,
        }
    }

    /// Number of nodes ever infected (the epidemic's final size once the
    /// process went extinct).
    pub fn final_size(&self) -> usize {
        self.ever_infected.len()
    }

    /// Number of currently infectious nodes.
    pub fn infectious_count(&self) -> usize {
        self.infectious_count
    }

    /// Total infection events, including the initial seed.
    pub fn infections(&self) -> u64 {
        self.infections
    }

    /// Total recovery events (infectious → immune/removed/susceptible).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

impl ProtocolMachine for EpidemicMachine {
    type State = EpidemicState;

    fn num_nodes(&self) -> usize {
        self.health.len()
    }

    fn state_of(&self, v: Node) -> EpidemicState {
        match self.health[v as usize] {
            Health::Susceptible => EpidemicState::Susceptible,
            Health::Infectious { .. } => EpidemicState::Infectious,
            Health::Immune { .. } | Health::Removed => EpidemicState::Recovered,
        }
    }

    fn step<R: Rng>(&mut self, g: &SnapshotBuf, rng: &mut R) {
        let n = self.health.len();
        let contagion = self.contagion;
        let Self {
            health,
            pending,
            pending_set,
            messages,
            ..
        } = self;

        // Phase 1: transmissions, evaluated against the round-start
        // compartments. Each infectious node exposes its whole current
        // neighborhood; a susceptible node is infected at most once per
        // round (the first successful exposure wins and later exposures
        // draw no randomness for it).
        pending.clear();
        pending_set.clear();
        for u in 0..n as Node {
            if !matches!(health[u as usize], Health::Infectious { .. }) {
                continue;
            }
            for &v in g.neighbors(u) {
                *messages += 1;
                if matches!(health[v as usize], Health::Susceptible)
                    && !pending_set.contains(v)
                    && rng.gen_bool(contagion)
                {
                    pending_set.insert(v);
                    pending.push(v);
                }
            }
        }

        // Phase 2: timers on the round-start infectious/immune nodes.
        for u in 0..n {
            match self.health[u] {
                Health::Infectious { left } => {
                    if left <= 1 {
                        self.recoveries += 1;
                        self.infectious_count -= 1;
                        self.health[u] = match self.immunity {
                            None => Health::Removed,
                            Some(0) => Health::Susceptible,
                            Some(w) => Health::Immune { left: w },
                        };
                    } else {
                        self.health[u] = Health::Infectious { left: left - 1 };
                    }
                }
                Health::Immune { left } => {
                    self.health[u] = if left <= 1 {
                        Health::Susceptible
                    } else {
                        Health::Immune { left: left - 1 }
                    };
                }
                Health::Susceptible | Health::Removed => {}
            }
        }

        // Phase 3: this round's infections become infectious for the next.
        for i in 0..self.pending.len() {
            let v = self.pending[i];
            self.health[v as usize] = Health::Infectious {
                left: self.infection_rounds,
            };
            self.ever_infected.insert(v);
            self.infectious_count += 1;
            self.infections += 1;
        }
    }

    fn is_complete(&self) -> bool {
        // Extinction: no infectious nodes left. NOT "everyone reached".
        self.infectious_count == 0
    }

    fn coverage(&self) -> usize {
        self.ever_infected.len()
    }

    fn messages_sent(&self) -> u64 {
        self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::{EvolvingGraph, FrozenGraph};
    use crate::protocols::state_machine::{run_machine, RunOutcome};
    use meg_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sir_with_certain_contagion_sweeps_a_path_then_goes_extinct() {
        let n = 10usize;
        let mut meg = FrozenGraph::new(generators::path(n));
        let mut m = EpidemicMachine::new(n, 0, 1.0, 1, None);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let r = run_machine(&mut meg, &mut m, 1000, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(m.final_size(), n);
        // The wave moves one hop per round and dies one round after the
        // last infection.
        assert_eq!(r.rounds, n as u64);
        assert_eq!(m.infections(), n as u64);
        assert_eq!(m.recoveries(), n as u64);
    }

    #[test]
    fn zero_contagion_dies_at_the_source() {
        let mut meg = FrozenGraph::new(generators::complete(8));
        let mut m = EpidemicMachine::new(8, 0, 0.0, 3, None);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let r = run_machine(&mut meg, &mut m, 100, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.rounds, 3, "patient zero transmits for its full window");
        assert_eq!(m.final_size(), 1);
        assert_eq!(m.recoveries(), 1);
    }

    #[test]
    fn endemic_sis_is_censored_at_the_round_cap_not_an_error() {
        // Certain contagion + immediate re-susceptibility on a clique: the
        // infection can never go extinct. The driver must cut the run at
        // the budget and say so.
        let mut meg = FrozenGraph::new(generators::complete(12));
        let mut m = EpidemicMachine::new(12, 0, 1.0, 2, Some(0));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r = run_machine(&mut meg, &mut m, 50, &mut rng);
        assert_eq!(r.outcome, RunOutcome::Censored);
        assert_eq!(r.rounds, 50);
        assert!(m.infectious_count() > 0);
        assert!(!r.into_protocol_result().completed);
    }

    #[test]
    fn sirs_window_delays_resusceptibility() {
        // One round of immunity: after recovering, a node cannot be
        // re-infected on the immediately following round.
        let mut meg = FrozenGraph::new(generators::complete(2));
        let mut m = EpidemicMachine::new(2, 0, 1.0, 1, Some(1));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // Round 1: node 0 infects node 1, then recovers into immunity.
        let s = meg.advance();
        m.step(s, &mut rng);
        assert_eq!(m.state_of(0), EpidemicState::Recovered);
        assert_eq!(m.state_of(1), EpidemicState::Infectious);
        // Round 2: node 1 exposes node 0, but node 0 is immune this round.
        let s = meg.advance();
        m.step(s, &mut rng);
        assert_eq!(m.state_of(0), EpidemicState::Susceptible);
        assert_eq!(m.state_of(1), EpidemicState::Recovered);
    }

    #[test]
    fn a_node_is_infected_at_most_once_per_round() {
        // A star center with certain contagion: all leaves expose the
        // center... rather, many infectious leaves expose the one
        // susceptible center; it must be infected exactly once.
        let n = 6usize;
        let mut meg = FrozenGraph::new(generators::complete(n));
        let mut m = EpidemicMachine::new(n, 0, 1.0, 10, Some(0));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..4 {
            let s = meg.advance();
            m.step(s, &mut rng);
            let infectious = (0..n as Node)
                .filter(|&v| m.state_of(v) == EpidemicState::Infectious)
                .count();
            assert_eq!(infectious, m.infectious_count());
            assert!(m.infectious_count() <= n);
        }
        assert_eq!(m.final_size(), n);
        // n nodes infected once each: the seed plus n-1 transmissions.
        assert_eq!(m.infections(), n as u64);
    }
}

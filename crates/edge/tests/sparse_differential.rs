//! Differential test of the sparse engine's per-pair stepping against the
//! historical `BTreeSet` implementation.
//!
//! `SparseEdgeMeg` under `Stepping::PerPair` keeps its alive pairs in a
//! sorted flat list and steps it by linear passes (death compaction into a
//! second buffer, a forward cursor for birth rejection, one merge, and a
//! row-cursor snapshot rebuild). The contract is that the RNG schedule and
//! every observable are **bit-identical** to the `BTreeSet<u64>` engine it
//! replaced. This suite keeps a test-only copy of that engine — tree
//! `retain` for deaths, skip-sampled births rejected with
//! `SnapshotBuf::has_edge`, and a `pair_from_index` decode per edge in the
//! rebuild — and property-checks, over arbitrary
//! `(n, p, q, seed, rounds, init)`:
//!
//! * every returned snapshot's CSR rows, neighbour order included,
//! * the alive count,
//! * the `meg-obs` birth/death/draw counters of every round,
//! * and the engine RNG cursor after construction and after every round
//!   (via [`SparseEdgeMeg::rng_cursor_probe`])
//!
//! agree exactly between the engine and the reference. The counter
//! comparison installs the process-global `meg-obs` recorder, so the whole
//! property runs as the single test of this binary.

use meg_core::evolving::{EvolvingGraph, InitialDistribution};
use meg_edge::{EdgeMegParams, SparseEdgeMeg};
use meg_graph::generators::pair_from_index;
use meg_graph::{Node, SnapshotBuf};
use meg_obs as obs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;

/// Verbatim copy of `meg_edge::sparse::sample_bernoulli_indices` (which is
/// deliberately `pub(crate)`). The reference must consume the RNG through
/// the same draw sequence as the real engine, so the duplicate is the point:
/// if the crate's sampler ever changes schedule, this copy stays put and the
/// property fails loudly.
fn sample_bernoulli_indices<R: Rng>(
    total: u64,
    prob: f64,
    rng: &mut R,
    mut visit: impl FnMut(u64),
) -> u64 {
    if prob <= 0.0 || total == 0 {
        return 0;
    }
    if prob >= 1.0 {
        for idx in 0..total {
            visit(idx);
        }
        return 0;
    }
    let log_q = (1.0 - prob).ln();
    let mut idx: u64 = 0;
    let mut draws: u64 = 0;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        draws += 1;
        let skip = (u.ln() / log_q).floor();
        if !skip.is_finite() || skip >= (total as f64) {
            break;
        }
        idx = match idx.checked_add(skip as u64) {
            Some(v) => v,
            None => break,
        };
        if idx >= total {
            break;
        }
        visit(idx);
        idx += 1;
        if idx >= total {
            break;
        }
    }
    draws
}

/// The counter deltas one reference round must produce.
struct RefRound {
    births: u64,
    deaths: u64,
    rng_draws: u64,
}

/// The historical per-pair sparse engine: alive pairs in a `BTreeSet`.
struct ReferenceSparse {
    params: EdgeMegParams,
    alive: BTreeSet<u64>,
    rng: StdRng,
    snapshot: SnapshotBuf,
}

impl ReferenceSparse {
    fn new(params: EdgeMegParams, init: InitialDistribution, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_pairs = params.num_pairs();
        let mut alive = BTreeSet::new();
        match init {
            InitialDistribution::Empty => {}
            InitialDistribution::Full => alive = (0..total_pairs).collect(),
            InitialDistribution::Stationary => {
                let phat = params.stationary_edge_probability();
                sample_bernoulli_indices(total_pairs, phat, &mut rng, |idx| {
                    alive.insert(idx);
                });
            }
        }
        ReferenceSparse {
            params,
            alive,
            rng,
            snapshot: SnapshotBuf::with_nodes(params.n),
        }
    }

    fn rebuild_snapshot(&mut self) {
        self.snapshot.begin(self.params.n);
        let n = self.params.n as u64;
        for &idx in &self.alive {
            let (a, b) = pair_from_index(n, idx);
            self.snapshot.push_edge(a as Node, b as Node);
        }
        self.snapshot.build();
    }

    fn step_chain(&mut self) -> RefRound {
        let total_pairs = self.params.num_pairs();
        let p = self.params.p;
        let q = self.params.q;
        let alive_before = self.alive.len();
        if q > 0.0 {
            let rng = &mut self.rng;
            self.alive.retain(|_| !rng.gen_bool(q));
        }
        let deaths = (alive_before - self.alive.len()) as u64;
        let mut births = 0u64;
        let mut rng_draws = 0u64;
        if p > 0.0 {
            let mut born: Vec<u64> = Vec::new();
            rng_draws = sample_bernoulli_indices(total_pairs, p, &mut self.rng, |idx| {
                let (a, b) = pair_from_index(self.params.n as u64, idx);
                if !self.snapshot.has_edge(a as Node, b as Node) {
                    born.push(idx);
                }
            });
            births = born.len() as u64;
            self.alive.extend(born);
        }
        RefRound {
            births,
            deaths,
            rng_draws,
        }
    }

    /// Snapshot of `G_t` first, then the chain moves to `t + 1`.
    fn advance(&mut self) -> RefRound {
        self.rebuild_snapshot();
        self.step_chain()
    }

    fn rng_cursor_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }
}

fn counter(deltas: &[(&'static str, u64)], name: &str) -> u64 {
    deltas
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Maps a selector + raw uniform to a rate that visits the extremes often:
/// `0` (no draws at all), `1` (certain flip) and `0.5` take different
/// branches of the death pass and the skip sampler than generic rates do.
fn rate(selector: u32, raw: f64) -> f64 {
    match selector {
        0 | 1 => 0.0,
        2 | 3 => 1.0,
        4 => 0.5,
        _ => raw,
    }
}

fn init_of(selector: u32) -> InitialDistribution {
    match selector {
        0 => InitialDistribution::Empty,
        1 => InitialDistribution::Full,
        _ => InitialDistribution::Stationary,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sorted_list_engine_equals_btreeset_reference(
        n in 2usize..64,
        p_sel in 0u32..10,
        p_raw in 0.0f64..1.0,
        q_sel in 0u32..10,
        q_raw in 0.0f64..1.0,
        seed in 0u64..1_000_000_000,
        rounds in 0usize..10,
        init_sel in 0u32..4,
    ) {
        let p = rate(p_sel, p_raw);
        let q = rate(q_sel, q_raw);
        let init = init_of(init_sel);
        let params = EdgeMegParams::new(n, p, q);
        let mut real = SparseEdgeMeg::new(params, init, seed);
        let mut reference = ReferenceSparse::new(params, init, seed);

        prop_assert_eq!(
            real.rng_cursor_probe(),
            reference.rng_cursor_probe(),
            "RNG cursor diverged during init"
        );
        prop_assert_eq!(real.alive_edges(), reference.alive.len(), "init alive count");

        obs::install();
        for round in 0..rounds {
            let before = obs::snapshot();
            let got = real.advance();
            let after = obs::snapshot();
            let want = reference.advance();

            prop_assert_eq!(got.num_edges(), reference.snapshot.num_edges());
            for u in 0..n as Node {
                prop_assert_eq!(
                    got.neighbors(u),
                    reference.snapshot.neighbors(u),
                    "round {}: CSR row {} differs",
                    round,
                    u
                );
            }
            prop_assert_eq!(
                real.alive_edges(),
                reference.alive.len(),
                "round {}: alive count differs",
                round
            );

            let deltas = after.counter_deltas(&before);
            prop_assert_eq!(
                counter(&deltas, "edge_births"),
                want.births,
                "round {}: birth counters differ",
                round
            );
            prop_assert_eq!(
                counter(&deltas, "edge_deaths"),
                want.deaths,
                "round {}: death counters differ",
                round
            );
            prop_assert_eq!(
                counter(&deltas, "rng_draws"),
                want.rng_draws,
                "round {}: rng_draws counters differ",
                round
            );
            prop_assert_eq!(
                real.rng_cursor_probe(),
                reference.rng_cursor_probe(),
                "round {}: RNG cursor diverged",
                round
            );
        }
        obs::uninstall();
    }
}

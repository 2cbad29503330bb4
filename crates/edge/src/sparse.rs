//! Sparse edge-MEG engine.
//!
//! In the regimes the paper cares about (`p̂` around `log n / n`) the snapshot
//! has only `Θ(n log n)` edges out of `Θ(n²)` potential pairs, so touching
//! every pair per step (the dense engine) wastes almost all of its work. This
//! engine stores only the alive edges and advances the chain in
//! `O(m_alive + births)` expected time per step:
//!
//! * **deaths** — each alive edge is kept with probability `1 − q`;
//! * **births** — candidate pair indices are drawn by geometric skip-sampling
//!   over the full index space with per-pair probability `p`; candidates that
//!   are already alive are ignored (their transition is governed by the death
//!   rule), so each *absent* pair independently turns on with probability `p`,
//!   exactly as the model prescribes.

use crate::dense::DELTA_SLACK;
use crate::model::EdgeMegParams;
use meg_core::evolving::{EvolvingGraph, InitialDistribution, Stepping};
use meg_graph::generators::pair_from_index;
use meg_graph::{Graph, Node, SnapshotBuf};
use meg_markov::batch::gen_bool_threshold;
use meg_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Edge-MEG storing only the alive edges.
///
/// Under the default [`Stepping::PerPair`] the alive set is a sorted flat
/// `Vec<u64>` of pair indices: ascending order is what makes the per-edge
/// death draws consume the RNG in a deterministic edge order, and each round
/// rewrites the list by linear passes into reused buffers (no tree, no
/// per-birth allocation). Under [`Stepping::Transitions`] it is an unsorted
/// flat `Vec<u32>` instead: deaths are skip-sampled as positions in that
/// array and swap-removed, births are skip-sampled pair indices checked
/// against the pre-step snapshot, and the snapshot is maintained by deltas
/// rather than rebuilt.
#[derive(Clone, Debug)]
pub struct SparseEdgeMeg {
    params: EdgeMegParams,
    /// Linear pair indices of the alive edges (per-pair stepping), strictly
    /// ascending, so that the death phase consumes RNG draws in a
    /// deterministic edge order (a `HashSet` here would make trajectories
    /// depend on hash-iteration order, which is randomized per instance).
    alive: Vec<u64>,
    /// Per-pair scratch: the survivors of the death phase, written here so
    /// `alive` still holds the pre-step list while births are checked.
    survivors: Vec<u64>,
    /// Per-pair scratch: this round's births, ascending.
    born: Vec<u64>,
    rng: StdRng,
    snapshot: SnapshotBuf,
    time: u64,
    stepping: Stepping,
    /// Flat alive pair-index array (transition stepping only; order is
    /// arbitrary after the first swap-remove, which is fine because death
    /// marks are i.i.d. across positions).
    alive_vec: Vec<u32>,
    /// Whether the snapshot currently mirrors the alive set (transition
    /// stepping builds it once, then maintains it by deltas).
    snapshot_synced: bool,
    /// Scratch buffers for the per-round flips (transition stepping).
    birth_idx: Vec<u32>,
    death_pos: Vec<u32>,
    births: Vec<(Node, Node)>,
    deaths: Vec<(Node, Node)>,
}

impl SparseEdgeMeg {
    /// Creates the evolving graph with the given initial distribution and
    /// the default per-pair stepping.
    pub fn new(params: EdgeMegParams, init: InitialDistribution, seed: u64) -> Self {
        Self::with_stepping(params, init, Stepping::PerPair, seed)
    }

    /// Creates the evolving graph with an explicit stepping mode.
    ///
    /// The initial alive set is drawn identically in both modes (same RNG
    /// draws), so `G_0` matches across modes at equal seeds; trajectories
    /// then diverge because the modes consume randomness differently.
    pub fn with_stepping(
        params: EdgeMegParams,
        init: InitialDistribution,
        stepping: Stepping,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_pairs = params.num_pairs();
        let mut alive: Vec<u64> = Vec::new();
        let mut alive_vec: Vec<u32> = Vec::new();
        match stepping {
            Stepping::PerPair => match init {
                InitialDistribution::Empty => {}
                InitialDistribution::Full => alive = (0..total_pairs).collect(),
                InitialDistribution::Stationary => {
                    let phat = params.stationary_edge_probability();
                    // Skip-sampled indices come out ascending: already sorted.
                    sample_bernoulli_indices(total_pairs, phat, &mut rng, |idx| {
                        alive.push(idx);
                    });
                }
            },
            Stepping::Transitions => {
                assert!(
                    total_pairs <= u32::MAX as u64,
                    "transition stepping indexes pairs with u32; n={} has too many pairs",
                    params.n
                );
                match init {
                    InitialDistribution::Empty => {}
                    InitialDistribution::Full => alive_vec = (0..total_pairs as u32).collect(),
                    InitialDistribution::Stationary => {
                        let phat = params.stationary_edge_probability();
                        sample_bernoulli_indices(total_pairs, phat, &mut rng, |idx| {
                            alive_vec.push(idx as u32);
                        });
                    }
                }
            }
        }
        SparseEdgeMeg {
            params,
            alive,
            survivors: Vec::new(),
            born: Vec::new(),
            rng,
            snapshot: SnapshotBuf::with_nodes(params.n),
            time: 0,
            stepping,
            alive_vec,
            snapshot_synced: false,
            birth_idx: Vec::new(),
            death_pos: Vec::new(),
            births: Vec::new(),
            deaths: Vec::new(),
        }
    }

    /// Stationary-start constructor (the paper's setting).
    pub fn stationary(params: EdgeMegParams, seed: u64) -> Self {
        Self::new(params, InitialDistribution::Stationary, seed)
    }

    /// The model parameters.
    pub fn params(&self) -> EdgeMegParams {
        self.params
    }

    /// The stepping mode this engine was built with.
    pub fn stepping(&self) -> Stepping {
        self.stepping
    }

    /// Number of currently alive edges.
    pub fn alive_edges(&self) -> usize {
        match self.stepping {
            Stepping::PerPair => self.alive.len(),
            Stepping::Transitions => self.alive_vec.len(),
        }
    }

    /// The next draw of a *clone* of the engine RNG — a cursor probe for
    /// differential tests (the engine's own stream is not advanced). Two
    /// engines that have consumed the same number of draws from the same
    /// seed probe equal.
    pub fn rng_cursor_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }

    /// Rebuilds the CSR snapshot from the sorted alive list.
    ///
    /// Pair indices enumerate the triangle row by row (`(0,1), (0,2), …,
    /// (1,2), …`), so an ascending walk decodes them with an incremental row
    /// cursor instead of a `sqrt` per edge. Edges are pushed in ascending
    /// index order, which fixes the CSR neighbour order.
    fn rebuild_snapshot(&mut self) {
        self.snapshot.begin(self.params.n);
        let n = self.params.n as u64;
        // Row `a` holds the pairs `(a, b)`, `b > a`, at indices
        // `row_start..row_end`.
        let mut a = 0u64;
        let mut row_start = 0u64;
        let mut row_end = n - 1;
        for &idx in &self.alive {
            while idx >= row_end {
                a += 1;
                row_start = row_end;
                row_end += n - 1 - a;
            }
            let b = a + 1 + (idx - row_start);
            self.snapshot.push_edge(a as Node, b as Node);
        }
        self.snapshot.build();
    }

    /// Per-pair stepping over the sorted alive list.
    ///
    /// Draw schedule: one `gen_bool(q)` per alive pair in ascending index
    /// order (none at all when `q == 0`), then the birth skip-sampler over
    /// the whole index space. Survivors go to a second buffer so the
    /// pre-step list stays readable; a birth candidate counts only if it was
    /// absent *before* the step (if it survived it stays alive anyway, and
    /// if it just died the model says it needs a full step absent before it
    /// can be reborn), which a forward cursor over the pre-step list decides.
    /// Survivors and births are then merged back into `alive` in one pass.
    fn step_chain(&mut self) {
        let total_pairs = self.params.num_pairs();
        let p = self.params.p;
        let q = self.params.q;
        let alive = &self.alive;
        let survivors = &mut self.survivors;
        let born = &mut self.born;
        born.clear();
        if survivors.len() < alive.len() {
            survivors.resize(alive.len(), 0);
        }
        let kept = if q > 0.0 {
            // `gen_bool(q)` is `next_u64() >> 11 < ⌈q·2⁵³⌉` (meg-markov
            // `batch` module docs): same draw, same decision. Branchless
            // compaction: every index is stored, the slot advances only if
            // the edge survives.
            let threshold = gen_bool_threshold(q);
            let mut kept = 0usize;
            for &idx in alive {
                survivors[kept] = idx;
                kept += (self.rng.next_u64() >> 11 >= threshold) as usize;
            }
            kept
        } else {
            survivors[..alive.len()].copy_from_slice(alive);
            alive.len()
        };
        let died = (alive.len() - kept) as u64;
        let mut draws = 0u64;
        if p > 0.0 {
            let mut cursor = 0usize;
            draws = sample_bernoulli_indices(total_pairs, p, &mut self.rng, |idx| {
                while cursor < alive.len() && alive[cursor] < idx {
                    cursor += 1;
                }
                if cursor == alive.len() || alive[cursor] != idx {
                    born.push(idx);
                }
            });
        }
        merge_sorted(&survivors[..kept], born, &mut self.alive);
        if obs::installed() {
            obs::add(obs::Counter::EdgeDeaths, died);
            obs::add(obs::Counter::EdgeBirths, self.born.len() as u64);
            obs::add(obs::Counter::RngDraws, draws);
        }
    }

    /// Transition stepping: sample only the flips of this round against the
    /// flat alive array and the pre-step snapshot, recording them as a delta.
    ///
    /// Births are sampled first (rejected against the snapshot, which still
    /// mirrors the pre-step edge set) because a same-round death must not
    /// re-enable a birth; deaths are then sampled as positions in `alive_vec`
    /// and applied by swap-remove in decreasing position order.
    ///
    /// Returns the number of RNG draws the two skip-sampling passes consumed
    /// (aggregated here, flushed to the metrics counters once per round).
    fn step_transitions(&mut self) -> u64 {
        let total = self.params.num_pairs();
        let n = self.params.n as u64;
        let p = self.params.p;
        let q = self.params.q;
        self.birth_idx.clear();
        self.death_pos.clear();
        self.births.clear();
        self.deaths.clear();
        let snapshot = &self.snapshot;
        let birth_idx = &mut self.birth_idx;
        let births = &mut self.births;
        let mut draws = sample_bernoulli_indices(total, p, &mut self.rng, |idx| {
            let (a, b) = pair_from_index(n, idx);
            if !snapshot.has_edge(a as Node, b as Node) {
                birth_idx.push(idx as u32);
                births.push((a as Node, b as Node));
            }
        });
        let death_pos = &mut self.death_pos;
        draws += sample_bernoulli_indices(self.alive_vec.len() as u64, q, &mut self.rng, |pos| {
            death_pos.push(pos as u32);
        });
        for i in (0..self.death_pos.len()).rev() {
            let pos = self.death_pos[i] as usize;
            let k = self.alive_vec.swap_remove(pos);
            let (a, b) = pair_from_index(n, k as u64);
            self.deaths.push((a as Node, b as Node));
        }
        for i in 0..self.birth_idx.len() {
            self.alive_vec.push(self.birth_idx[i]);
        }
        draws
    }
}

/// Merges the disjoint ascending lists `a` and `b` into `out` (whose old
/// contents are overwritten), keeping it ascending.
///
/// Branchless: an exhausted list reads as `u64::MAX`, which no pair index
/// reaches, and each step advances exactly one side by its compare flag.
fn merge_sorted(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    out.resize(a.len() + b.len(), 0);
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let x = a.get(i).copied().unwrap_or(u64::MAX);
        let y = b.get(j).copied().unwrap_or(u64::MAX);
        let take_a = x < y;
        *slot = if take_a { x } else { y };
        i += take_a as usize;
        j += !take_a as usize;
    }
}

/// Calls `visit` on each index in `0..total` selected independently with
/// probability `prob`, using geometric skip-sampling (expected cost
/// `O(total · prob)`).
///
/// This is the shared primitive behind both the sparse engine's birth phase
/// and the `Stepping::Transitions` fast path of *both* engines: the skip
/// `⌊ln U / ln(1−prob)⌋` is exactly a geometric holding time, so visiting the
/// selected indices is equivalent to walking a pre-drawn next-flip-time
/// calendar without materialising it.
///
/// Returns the number of uniform RNG draws consumed, so callers can feed the
/// `rng_draws` metrics counter without the sampler depending on `meg-obs`.
pub(crate) fn sample_bernoulli_indices<R: Rng>(
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

impl EvolvingGraph for SparseEdgeMeg {
    fn num_nodes(&self) -> usize {
        self.params.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let _span = obs::span("advance");
        match self.stepping {
            Stepping::PerPair => {
                self.rebuild_snapshot();
                self.step_chain();
            }
            Stepping::Transitions => {
                // The snapshot persistently mirrors the alive set: full build
                // with row slack on the first call, per-round deltas after
                // that (the chain steps at the start of each later call, so
                // the k-th advance still returns `G_{k−1}`).
                if !self.snapshot_synced {
                    self.snapshot.begin(self.params.n);
                    let n = self.params.n as u64;
                    for i in 0..self.alive_vec.len() {
                        let (a, b) = pair_from_index(n, self.alive_vec[i] as u64);
                        self.snapshot.push_edge(a as Node, b as Node);
                    }
                    self.snapshot.build_with_slack(DELTA_SLACK);
                    self.snapshot_synced = true;
                } else {
                    let draws = self.step_transitions();
                    let outcome = self.snapshot.apply_delta(&self.births, &self.deaths);
                    if obs::installed() {
                        obs::add(obs::Counter::EdgeBirths, self.births.len() as u64);
                        obs::add(obs::Counter::EdgeDeaths, self.deaths.len() as u64);
                        obs::add(obs::Counter::RngDraws, draws);
                        obs::record_delta(outcome.is_rebuilt(), outcome.rebuild_bytes() as u64);
                    }
                }
            }
        }
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
    use crate::dense::DenseEdgeMeg;
    use meg_core::flooding::{flood, FloodingOutcome};
    use meg_graph::{degree, Graph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn skip_sampling_matches_bernoulli_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let total = 200_000u64;
        let prob = 0.01;
        let mut count = 0u64;
        let mut last = None;
        sample_bernoulli_indices(total, prob, &mut rng, |idx| {
            if let Some(prev) = last {
                assert!(idx > prev, "indices must be strictly increasing");
            }
            assert!(idx < total);
            last = Some(idx);
            count += 1;
        });
        let expected = total as f64 * prob;
        assert!(
            (count as f64 - expected).abs() < 0.1 * expected,
            "count {count} vs expected {expected}"
        );
    }

    #[test]
    fn skip_sampling_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut count = 0;
        sample_bernoulli_indices(100, 0.0, &mut rng, |_| count += 1);
        assert_eq!(count, 0);
        sample_bernoulli_indices(100, 1.0, &mut rng, |_| count += 1);
        assert_eq!(count, 100);
        sample_bernoulli_indices(0, 0.5, &mut rng, |_| count += 1);
        assert_eq!(count, 100);
    }

    #[test]
    fn snapshot_edge_set_equals_alive_state_exactly() {
        // The sorted alive list (private state) is the independent reference:
        // the CSR snapshot must list exactly those pairs, in index order.
        let n = 120usize;
        let params = EdgeMegParams::with_stationary(n, 0.05, 0.4);
        let mut meg = SparseEdgeMeg::stationary(params, 23);
        for step in 0..10 {
            let expected: Vec<(Node, Node)> = meg
                .alive
                .iter()
                .map(|&idx| {
                    let (a, b) = pair_from_index(n as u64, idx);
                    (a as Node, b as Node)
                })
                .collect();
            let snap = meg.advance();
            assert_eq!(snap.edges(), expected, "step {step}");
        }
    }

    #[test]
    fn transition_stepping_matches_g0_and_tracks_state_exactly() {
        let n = 150usize;
        let params = EdgeMegParams::with_stationary(n, 0.04, 0.3);
        let mut per_pair = SparseEdgeMeg::stationary(params, 71);
        let mut fast = SparseEdgeMeg::with_stepping(
            params,
            InitialDistribution::Stationary,
            Stepping::Transitions,
            71,
        );
        // Identical initial skip-sampling draws → identical G_0.
        assert_eq!(per_pair.advance().edges(), fast.advance().edges());
        // Later snapshots must mirror the flat alive array exactly (the
        // chain steps at the start of `advance`, so state and snapshot
        // coincide afterwards).
        for step in 0..60 {
            fast.advance();
            let mut expected: Vec<(Node, Node)> = fast
                .alive_vec
                .iter()
                .map(|&k| {
                    let (a, b) = pair_from_index(n as u64, k as u64);
                    (a as Node, b as Node)
                })
                .collect();
            expected.sort_unstable();
            let mut got = fast.snapshot.edges();
            got.sort_unstable();
            assert_eq!(got, expected, "step {step}");
            assert_eq!(
                fast.snapshot.num_edges(),
                fast.alive_vec.len(),
                "step {step}"
            );
        }
    }

    #[test]
    fn stationary_start_matches_expected_edge_count() {
        let params = EdgeMegParams::with_stationary(500, 0.02, 0.5);
        let meg = SparseEdgeMeg::stationary(params, 2);
        let expected = params.expected_stationary_edges();
        let got = meg.alive_edges() as f64;
        assert!(
            (got - expected).abs() < 0.2 * expected,
            "alive {got} vs expected {expected}"
        );
    }

    #[test]
    fn initial_distributions() {
        let params = EdgeMegParams::new(30, 0.1, 0.1);
        assert_eq!(
            SparseEdgeMeg::new(params, InitialDistribution::Empty, 0).alive_edges(),
            0
        );
        assert_eq!(
            SparseEdgeMeg::new(params, InitialDistribution::Full, 0).alive_edges(),
            30 * 29 / 2
        );
    }

    #[test]
    fn edge_count_stays_near_stationary_level() {
        let params = EdgeMegParams::with_stationary(400, 0.03, 0.25);
        let mut meg = SparseEdgeMeg::stationary(params, 5);
        let expected = params.expected_stationary_edges();
        for _ in 0..30 {
            let edges = meg.advance().num_edges() as f64;
            assert!(
                (edges - expected).abs() < 0.3 * expected,
                "edges {edges} drifted from stationary level {expected}"
            );
        }
    }

    #[test]
    fn sparse_and_dense_agree_statistically() {
        // Same parameters, different engines: average snapshot degree over a
        // window must agree within a few percent.
        let params = EdgeMegParams::with_stationary(250, 0.04, 0.3);
        let mut sparse = SparseEdgeMeg::stationary(params, 21);
        let mut dense = DenseEdgeMeg::stationary(params, 22);
        let window = 20;
        let mut sparse_mean = 0.0;
        let mut dense_mean = 0.0;
        for _ in 0..window {
            sparse_mean += degree::degree_stats(sparse.advance()).unwrap().mean;
            dense_mean += degree::degree_stats(dense.advance()).unwrap().mean;
        }
        sparse_mean /= window as f64;
        dense_mean /= window as f64;
        let expected = 249.0 * 0.04;
        assert!(
            (sparse_mean - expected).abs() < 1.5,
            "sparse mean {sparse_mean}"
        );
        assert!(
            (dense_mean - expected).abs() < 1.5,
            "dense mean {dense_mean}"
        );
        assert!((sparse_mean - dense_mean).abs() < 2.0);
    }

    #[test]
    fn flooding_completes_in_connected_regime() {
        // n = 2000, p̂ = 3 log n / n ≈ 0.0114 — sparse but connected.
        let n = 2_000usize;
        let phat = 3.0 * (n as f64).ln() / n as f64;
        let params = EdgeMegParams::with_stationary(n, phat, 0.5);
        let mut meg = SparseEdgeMeg::stationary(params, 33);
        let result = flood(&mut meg, 0, 10_000);
        assert_eq!(result.outcome, FloodingOutcome::Completed);
        let t = result.flooding_time().unwrap();
        assert!((2..=30).contains(&t), "flooding time {t}");
    }

    #[test]
    fn empty_start_takes_much_longer_than_stationary_in_sparse_regime() {
        // The "exponential gap" of Section 1 in miniature: with a tiny birth
        // rate, a stationary start floods quickly while an empty start must
        // first wait for edges to be born at all.
        let n = 300usize;
        let phat = 6.0 * (n as f64).ln() / n as f64; // ≈ 0.114
        let q = 0.002; // slow chain: edges are born very rarely (p ≈ 2.6e-4)
        let params = EdgeMegParams::with_stationary(n, phat, q);
        let mut stationary = SparseEdgeMeg::stationary(params, 44);
        let stat_time = flood(&mut stationary, 0, 100_000)
            .flooding_time()
            .expect("stationary flooding completes");
        let mut empty = SparseEdgeMeg::new(params, InitialDistribution::Empty, 45);
        let empty_time = flood(&mut empty, 0, 100_000)
            .flooding_time()
            .expect("worst-case flooding completes eventually");
        assert!(
            empty_time > 4 * stat_time,
            "empty start {empty_time} should be much slower than stationary {stat_time}"
        );
    }
}

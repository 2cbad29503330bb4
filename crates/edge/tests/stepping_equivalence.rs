//! Statistical equivalence of the two edge-MEG stepping modes.
//!
//! `Stepping::Transitions` (geometric skip-sampled flip calendar + snapshot
//! deltas) must realise *exactly* the same stochastic process as
//! `Stepping::PerPair` (one Bernoulli per pair per round), even though the
//! two paths consume randomness differently and therefore produce different
//! trajectories at equal seeds. This suite gates that claim three ways:
//!
//! 1. against **closed-form laws** — holding times in each chain state are
//!    geometric (`Geom(q)` alive, `Geom(p)` dead), the per-round flip count
//!    is marginally `Binomial(C(n,2), 2pq/(p+q))`, and the mean edge density
//!    is `p̂ = p/(p+q)` (chi-square / CLT bounds);
//! 2. against a **per-pair reference run** — per-edge empirical densities,
//!    per-round flip counts, and holding-time histograms from independent
//!    seeds must agree across modes (two-sample KS / chi-square);
//! 3. on **both engines** — the dense bitset engine carries the full
//!    battery, the sparse engine a density cross-check.
//!
//! Every test uses fixed seeds and the deterministic critical values of
//! `meg_stats::gof`, so a pass is reproducible, not probabilistic.

use meg_core::evolving::{EvolvingGraph, InitialDistribution, Stepping};
use meg_edge::{DenseEdgeMeg, EdgeMegParams, SparseEdgeMeg};
use meg_stats::gof::{chi_square_gof, ks_two_sample, Alpha};

/// Rounds per collection run (the ISSUE floor is 10k).
const ROUNDS: usize = 12_000;
/// Holding-time histogram length; the last bin pools the tail.
const MAX_HOLD: usize = 40;

/// Everything one run of an edge-MEG yields for the equivalence checks.
struct RunStats {
    /// Empirical presence frequency of each pair over all rounds.
    densities: Vec<f64>,
    /// Flip count of each round (length `ROUNDS - 1`).
    flips_per_round: Vec<f64>,
    /// Completed alive-run lengths, `hold_alive[k-1]` = count of length-`k`
    /// runs (last bin pools `>= MAX_HOLD`).
    hold_alive: Vec<u64>,
    /// Completed dead-run lengths, same layout.
    hold_dead: Vec<u64>,
}

/// Drives `rounds` snapshots of a dense edge-MEG and tallies per-pair
/// presence, flips, and completed holding times (initial and final runs are
/// censored and dropped, so recorded runs are exactly geometric).
fn collect_dense(params: EdgeMegParams, stepping: Stepping, seed: u64, rounds: usize) -> RunStats {
    let mut meg =
        DenseEdgeMeg::with_stepping(params, InitialDistribution::Stationary, stepping, seed);
    collect(&mut meg, params.n, rounds)
}

fn collect_sparse(params: EdgeMegParams, stepping: Stepping, seed: u64, rounds: usize) -> RunStats {
    let mut meg =
        SparseEdgeMeg::with_stepping(params, InitialDistribution::Stationary, stepping, seed);
    collect(&mut meg, params.n, rounds)
}

fn collect<M: EvolvingGraph>(meg: &mut M, n: usize, rounds: usize) -> RunStats {
    let pairs: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
        .collect();
    let np = pairs.len();
    let mut prev = vec![false; np];
    let mut run = vec![0u32; np];
    let mut started = vec![false; np];
    let mut present = vec![0u64; np];
    let mut hold_alive = vec![0u64; MAX_HOLD];
    let mut hold_dead = vec![0u64; MAX_HOLD];
    let mut flips_per_round = Vec::with_capacity(rounds - 1);

    let g = meg.advance();
    for (i, &(u, v)) in pairs.iter().enumerate() {
        prev[i] = g.has_edge(u, v);
        present[i] += prev[i] as u64;
        run[i] = 1;
    }
    for _ in 1..rounds {
        let g = meg.advance();
        let mut flips = 0u32;
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let cur = g.has_edge(u, v);
            present[i] += cur as u64;
            if cur != prev[i] {
                flips += 1;
                if started[i] {
                    let hist = if prev[i] {
                        &mut hold_alive
                    } else {
                        &mut hold_dead
                    };
                    hist[(run[i] as usize - 1).min(MAX_HOLD - 1)] += 1;
                }
                started[i] = true;
                run[i] = 1;
                prev[i] = cur;
            } else {
                run[i] += 1;
            }
        }
        flips_per_round.push(f64::from(flips));
    }
    RunStats {
        densities: present.iter().map(|&c| c as f64 / rounds as f64).collect(),
        flips_per_round,
        hold_alive,
        hold_dead,
    }
}

/// Expected counts of a `Geom(rate)` holding-time histogram with `total`
/// recorded runs: `total · rate(1−rate)^{k−1}`, tail mass in the last bin.
fn geometric_expected(total: u64, rate: f64) -> Vec<f64> {
    let t = total as f64;
    let mut expected: Vec<f64> = (0..MAX_HOLD - 1)
        .map(|k| t * rate * (1.0 - rate).powi(k as i32))
        .collect();
    expected.push(t * (1.0 - rate).powi(MAX_HOLD as i32 - 1));
    expected
}

/// Test parameters: n = 12 (66 pairs), p̂ = 0.4, q = 0.5 ⇒ p = 1/3. The
/// chain mixes fast (|1 − p − q| = 1/6), so round-to-round correlation is
/// negligible against the chi-square thresholds.
fn battery_params() -> EdgeMegParams {
    EdgeMegParams::with_stationary(12, 0.4, 0.5)
}

const SEED_A: u64 = 0x5045_5236_0001;
const SEED_B: u64 = 0x5045_5236_0002;

#[test]
fn transitions_holding_times_match_the_geometric_laws() {
    let params = battery_params();
    let s = collect_dense(params, Stepping::Transitions, SEED_A, ROUNDS);
    // Alive runs terminate with the death probability q.
    let alive = chi_square_gof(
        &s.hold_alive,
        &geometric_expected(s.hold_alive.iter().sum(), params.q),
        5.0,
        Alpha::P001,
    )
    .expect("enough alive runs to bin");
    assert!(alive.pass, "alive holding times reject Geom(q): {alive:?}");
    // Dead runs terminate with the birth probability p.
    let dead = chi_square_gof(
        &s.hold_dead,
        &geometric_expected(s.hold_dead.iter().sum(), params.p),
        5.0,
        Alpha::P001,
    )
    .expect("enough dead runs to bin");
    assert!(dead.pass, "dead holding times reject Geom(p): {dead:?}");
}

#[test]
fn transitions_flip_counts_match_the_binomial_law() {
    let params = battery_params();
    let s = collect_dense(params, Stepping::Transitions, SEED_A, ROUNDS);
    let np = params.num_pairs() as usize;
    // Marginally, each round flips Binomial(C(n,2), 2pq/(p+q)) pairs: every
    // pair sits in its stationary state and flips independently.
    let rate = 2.0 * params.p * params.q / (params.p + params.q);
    let mut pmf = vec![0.0f64; np + 1];
    pmf[0] = (1.0 - rate).powi(np as i32);
    for k in 0..np {
        pmf[k + 1] = pmf[k] * (np - k) as f64 / (k + 1) as f64 * rate / (1.0 - rate);
    }
    let mut observed = vec![0u64; np + 1];
    for &f in &s.flips_per_round {
        observed[f as usize] += 1;
    }
    let total = s.flips_per_round.len() as f64;
    let expected: Vec<f64> = pmf.iter().map(|&p| p * total).collect();
    let t = chi_square_gof(&observed, &expected, 5.0, Alpha::P001).unwrap();
    assert!(t.pass, "flip counts reject the binomial law: {t:?}");
}

#[test]
fn transitions_aggregates_match_closed_forms() {
    let params = battery_params();
    let s = collect_dense(params, Stepping::Transitions, SEED_A, ROUNDS);
    let mean_density = s.densities.iter().sum::<f64>() / s.densities.len() as f64;
    let p_hat = params.stationary_edge_probability();
    assert!(
        (mean_density - p_hat).abs() < 0.01,
        "mean density {mean_density} vs p̂ {p_hat}"
    );
    let mean_flips = s.flips_per_round.iter().sum::<f64>() / s.flips_per_round.len() as f64;
    let want = params.expected_stationary_flips();
    assert!(
        (mean_flips - want).abs() / want < 0.05,
        "mean flips/round {mean_flips} vs closed form {want}"
    );
}

#[test]
fn transitions_matches_a_per_pair_reference_run() {
    let params = battery_params();
    let fast = collect_dense(params, Stepping::Transitions, SEED_A, ROUNDS);
    let reference = collect_dense(params, Stepping::PerPair, SEED_B, ROUNDS);

    // Per-edge stationary densities are draws from the same law.
    let densities = ks_two_sample(&fast.densities, &reference.densities, Alpha::P001).unwrap();
    assert!(densities.pass, "per-edge densities diverge: {densities:?}");

    // Per-round flip counts are draws from the same law.
    let flips = ks_two_sample(
        &fast.flips_per_round,
        &reference.flips_per_round,
        Alpha::P001,
    )
    .unwrap();
    assert!(flips.pass, "flip-rate laws diverge: {flips:?}");

    // Holding-time histograms agree (reference histogram, rescaled to the
    // fast run's total, serves as the expectation).
    for (obs, refh, label) in [
        (&fast.hold_alive, &reference.hold_alive, "alive"),
        (&fast.hold_dead, &reference.hold_dead, "dead"),
    ] {
        let scale = obs.iter().sum::<u64>() as f64 / refh.iter().sum::<u64>() as f64;
        let expected: Vec<f64> = refh.iter().map(|&c| c as f64 * scale).collect();
        let t = chi_square_gof(obs, &expected, 5.0, Alpha::P001).unwrap();
        assert!(t.pass, "{label} holding times diverge across modes: {t:?}");
    }
}

#[test]
fn sparse_engine_transitions_matches_its_reference() {
    // The sparse engine in its home regime: n = 40 (780 pairs), p̂ = 0.08.
    let params = EdgeMegParams::with_stationary(40, 0.08, 0.5);
    let fast = collect_sparse(params, Stepping::Transitions, SEED_A, 4_000);
    let reference = collect_sparse(params, Stepping::PerPair, SEED_B, 4_000);
    let densities = ks_two_sample(&fast.densities, &reference.densities, Alpha::P001).unwrap();
    assert!(
        densities.pass,
        "sparse per-edge densities diverge: {densities:?}"
    );
    let flips = ks_two_sample(
        &fast.flips_per_round,
        &reference.flips_per_round,
        Alpha::P001,
    )
    .unwrap();
    assert!(flips.pass, "sparse flip-rate laws diverge: {flips:?}");
    let mean_density = fast.densities.iter().sum::<f64>() / fast.densities.len() as f64;
    assert!(
        (mean_density - 0.08).abs() < 0.01,
        "sparse mean density {mean_density} vs p̂ 0.08"
    );
}

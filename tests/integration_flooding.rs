//! Cross-crate integration tests: the full pipeline from model construction
//! (meg-geometric / meg-edge) through the flooding engine (meg-core) to the
//! closed-form bounds and regime predicates.

use meg::prelude::*;

const ROUND_BUDGET: u64 = 200_000;

#[test]
fn stationary_edge_meg_respects_both_bounds() {
    // Sparse but connected regime; Theorem 4.3 / 4.4 say the flooding time is
    // Θ(log n / log(np̂)). We check the measured value sits between the lower
    // bound and a generous constant times the upper shape.
    let n = 800usize;
    let p_hat = 4.0 * (n as f64).ln() / n as f64;
    let params = EdgeMegParams::with_stationary(n, p_hat, 0.5);
    let bounds = params.bounds();
    for seed in 0..3u64 {
        let mut meg = SparseEdgeMeg::stationary(params, seed);
        let t = flood(&mut meg, 0, ROUND_BUDGET)
            .completion_time()
            .expect("connected regime floods") as f64;
        assert!(
            t >= bounds.lower() * 0.99,
            "seed {seed}: measured {t} below lower bound {}",
            bounds.lower()
        );
        assert!(
            t <= 6.0 * bounds.upper_shape() + 6.0,
            "seed {seed}: measured {t} far above upper shape {}",
            bounds.upper_shape()
        );
    }
}

#[test]
fn stationary_geometric_meg_respects_both_bounds() {
    let n = 500usize;
    let radius = 2.0 * (n as f64).ln().sqrt();
    let move_radius = radius / 2.0;
    let params = GeometricMegParams::new(n, move_radius, radius);
    let bounds = GeometricBounds::new(n, radius, move_radius);
    for seed in 0..2u64 {
        let mut meg = GeometricMeg::from_params(params, seed);
        let t = flood(&mut meg, 0, ROUND_BUDGET)
            .completion_time()
            .expect("connected regime floods") as f64;
        assert!(
            t >= bounds.lower() * 0.99,
            "seed {seed}: measured {t} below lower bound {}",
            bounds.lower()
        );
        assert!(
            t <= 8.0 * bounds.upper_shape() + 8.0,
            "seed {seed}: measured {t} far above upper shape {}",
            bounds.upper_shape()
        );
    }
}

#[test]
fn denser_networks_flood_faster_on_average() {
    // Edge-MEG: quadruple the stationary edge probability and flooding should
    // not get slower (averaged over a few seeds).
    let n = 600usize;
    let base = 3.0 * (n as f64).ln() / n as f64;
    let mean_time = |p_hat: f64| -> f64 {
        let params = EdgeMegParams::with_stationary(n, p_hat, 0.5);
        let mut total = 0.0;
        let trials = 3;
        for seed in 0..trials {
            let mut meg = SparseEdgeMeg::stationary(params, seed);
            total += flood(&mut meg, 0, ROUND_BUDGET).completion_time().unwrap() as f64;
        }
        total / trials as f64
    };
    let sparse = mean_time(base);
    let dense = mean_time(base * 8.0);
    assert!(
        dense <= sparse,
        "denser network should flood at least as fast: sparse {sparse}, dense {dense}"
    );
}

#[test]
fn larger_radius_floods_faster_in_geometric_meg() {
    let n = 500usize;
    let threshold = spec::geometric_connectivity_threshold(n, spec::DEFAULT_THRESHOLD_CONSTANT);
    let mean_time = |radius: f64| -> f64 {
        let params = GeometricMegParams::new(n, radius / 2.0, radius);
        let trials = 2;
        let mut total = 0.0;
        for seed in 0..trials {
            let mut meg = GeometricMeg::from_params(params, seed);
            total += flood(&mut meg, 0, ROUND_BUDGET).completion_time().unwrap() as f64;
        }
        total / trials as f64
    };
    let slow = mean_time(threshold);
    let fast = mean_time(threshold * 3.0);
    assert!(
        fast <= slow,
        "larger transmission radius should not slow flooding: R=thr {slow}, R=3thr {fast}"
    );
}

#[test]
fn stationary_start_beats_empty_start_when_links_are_born_rarely() {
    let n = 400usize;
    let p_hat = 5.0 * (n as f64).ln() / n as f64;
    let q = 0.005;
    let params = EdgeMegParams::with_stationary(n, p_hat, q);
    let mut warm = SparseEdgeMeg::stationary(params, 10);
    let warm_time = flood(&mut warm, 0, ROUND_BUDGET).completion_time().unwrap();
    let mut cold = SparseEdgeMeg::new(params, InitialDistribution::Empty, 11);
    let cold_time = flood(&mut cold, 0, ROUND_BUDGET).completion_time().unwrap();
    assert!(
        cold_time >= 3 * warm_time,
        "cold start ({cold_time}) should be much slower than warm start ({warm_time})"
    );
}

#[test]
fn adversarial_star_defeats_diameter_based_reasoning_at_scale() {
    let n = 300usize;
    let mut star = RotatingStar::new(n, 0);
    let worst = star.worst_source();
    let t = flood(&mut star, worst, 10 * n as u64)
        .completion_time()
        .unwrap();
    assert_eq!(t, (n - 1) as u64);
    // Meanwhile a geometric-MEG of the same size with a healthy radius floods
    // in a tiny fraction of that.
    let radius = 2.0 * (n as f64).ln().sqrt();
    let mut geo = GeometricMeg::from_params(GeometricMegParams::new(n, radius / 2.0, radius), 1);
    let geo_t = flood(&mut geo, 0, ROUND_BUDGET).completion_time().unwrap();
    assert!(geo_t * 5 < t);
}

#[test]
fn protocol_variants_cover_the_same_evolving_graphs() {
    let n = 300usize;
    let p_hat = 5.0 * (n as f64).ln() / n as f64;
    let params = EdgeMegParams::with_stationary(n, p_hat, 0.3);
    let mut rng = meg::stats::seeds::labeled_rng(7, "integration-protocols");

    let mut meg = SparseEdgeMeg::stationary(params, 0);
    let flood_run = probabilistic_flood(&mut meg, 0, 1.0, 10_000, &mut rng);
    assert!(flood_run.completed);

    let mut meg = SparseEdgeMeg::stationary(params, 1);
    let gossip_run = push_pull_gossip(&mut meg, 0, 10_000, &mut rng);
    assert!(gossip_run.completed);
    assert!(gossip_run.rounds >= flood_run.rounds);

    let mut meg = SparseEdgeMeg::stationary(params, 2);
    let pars_run = parsimonious_flood(&mut meg, 0, 3, 10_000);
    assert!(pars_run.completed);
}

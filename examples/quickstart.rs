//! Quickstart: build a stationary edge-MEG and a stationary geometric-MEG,
//! flood both, and compare the measured flooding times with the paper's
//! closed-form bound shapes.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use meg::prelude::*;

#[path = "support/scale.rs"]
mod support;
use support::scaled;

fn main() {
    let seed = 2009;

    // ----------------------------------------------------------------- edge
    // Edge-MEG M(n, p, q): every potential edge is a two-state birth/death
    // chain. We fix the stationary edge probability p̂ just above the
    // connectivity threshold c·log n / n.
    let n = scaled(2_000, 200);
    let p_hat = 3.0 * (n as f64).ln() / n as f64;
    let params = EdgeMegParams::with_stationary(n, p_hat, 0.5);
    println!(
        "edge-MEG: n = {n}, p̂ = {p_hat:.5}, p = {:.6}, q = {:.3}",
        params.p, params.q
    );
    println!(
        "  regime: {:?}",
        spec::edge_regime(n, p_hat, spec::DEFAULT_THRESHOLD_CONSTANT)
    );

    let mut edge_meg = SparseEdgeMeg::stationary(params, seed);
    let result = flood(&mut edge_meg, 0, 100_000);
    let time = result
        .completion_time()
        .expect("connected regime: flooding completes");
    let bounds = params.bounds();
    println!("  measured flooding time : {time} rounds");
    println!("  Theorem 4.3 upper shape: {:.2}", bounds.upper_shape());
    println!("  Theorem 4.4 lower bound: {:.2}", bounds.lower());
    println!("  informed-per-round     : {:?}", result.informed_per_round);

    // ------------------------------------------------------------ geometric
    // Geometric-MEG G(n, r, R, ε): n mobile stations on a √n × √n square,
    // transmission radius R above the connectivity threshold c√(log n),
    // move radius r = R/2 (so Corollary 3.6 applies and flooding is Θ(√n/R)).
    let n_geo = scaled(1_500, 200);
    let radius = 2.0 * (n_geo as f64).ln().sqrt();
    let move_radius = radius / 2.0;
    let geo_params = GeometricMegParams::new(n_geo, move_radius, radius);
    println!();
    println!(
        "geometric-MEG: n = {n_geo}, R = {radius:.2}, r = {move_radius:.2}, square side = {:.1}",
        geo_params.side()
    );
    println!(
        "  regime: {:?}",
        spec::geometric_regime(n_geo, radius, move_radius, spec::DEFAULT_THRESHOLD_CONSTANT)
    );

    let mut geo_meg = GeometricMeg::from_params(geo_params, seed);
    let result = flood(&mut geo_meg, 0, 100_000);
    let time = result
        .completion_time()
        .expect("connected regime: flooding completes");
    let bounds = GeometricBounds::new(n_geo, radius, move_radius);
    println!("  measured flooding time : {time} rounds");
    println!("  Theorem 3.4 upper shape: {:.2}", bounds.upper_shape());
    println!("  Theorem 3.5 lower bound: {:.2}", bounds.lower());

    // --------------------------------------------------------------- static
    // The headline of the paper: with r = O(R) mobility barely matters —
    // flooding time is about the diameter of a static stationary snapshot.
    let snapshot = meg::geometric::snapshot::sample_paper_snapshot(
        geo_params,
        &mut meg::stats::seeds::labeled_rng(seed, "quickstart-static"),
    );
    let static_flooding = flood_static(&snapshot.graph, 0);
    match static_flooding.completion_time() {
        Some(t) => println!("  static snapshot flooding (≈ diameter): {t} rounds"),
        None => println!("  static snapshot was disconnected (rare at this R)"),
    }
}
